//! BENCH_9 — raw speed at 100k+ ranks: the simulator's sharded prepare
//! against pool width 1 of the same engine, streaming plan-build peak
//! RSS across a 10× rank jump, and the plan file's digest fast path
//! against its validated load.
//!
//! All three sections run on 2-d torus topologies so the per-rank edge
//! count (degree 4) is **identical across scales** — the RSS gate
//! compares peak memory at ~10k and ~100k ranks on matched edges/rank,
//! which is only meaningful when the workload per rank does not grow
//! with `n`.
//!
//! Gates are honest about their environment, following `BENCH_4`'s
//! `parallel_gate_applicable` idiom:
//!
//! * the sharded-speedup gate ([`GATE_SHARD_SPEEDUP`]) arms only on
//!   hosts with ≥ 4 threads — on smaller hosts the pool cannot
//!   physically deliver 2×, so the cell is recorded but not gated;
//! * the RSS-ratio gate ([`GATE_RSS_RATIO`]) arms only when the
//!   `/proc/self/status` `VmHWM` probe and the `clear_refs` peak reset
//!   both work — containers often mount procfs read-only, and a stale
//!   watermark would gate on noise;
//! * bit-identity of the sharded report and reference-identity of the
//!   file-served plan are **always** enforced — correctness does not
//!   depend on the host.

use std::sync::Arc;
use std::time::Instant;

use nhood_cluster::rss::{peak_rss_bytes, reset_peak_rss};
use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_core::builder::build_pattern;
use nhood_core::exec::sim_exec::{to_schedule_v, SimCost};
use nhood_core::lower::lower;
use nhood_core::plan_io::PlanFile;
use nhood_core::{Algorithm, CollectivePlan, PlanCache, PlanFingerprint};
use nhood_simnet::{Engine, Schedule};
use nhood_topology::torus::{torus, TorusSpec};
use nhood_topology::Topology;

/// Required width-1 / sharded wall-time ratio on ≥ 4-thread hosts.
pub const GATE_SHARD_SPEEDUP: f64 = 2.0;
/// Peak-RSS ceiling for the ~100k build relative to the ~10k build.
pub const GATE_RSS_RATIO: f64 = 10.0;
/// Required validated-load / digest-fast-path warm-start ratio, time to
/// first rank ready. It stood at 5.0 while the slow arm's `validate`
/// hashed every message (≈ 10× measured), at 3.0 while `decode_plan`
/// allocated a vector per message (3.75–6.71×) and at 2.0 while the file
/// was still decoded message by message into a writer (2.30–3.29×).
/// Since the file *is* the tables both arms run the same reader and
/// both got faster — at n = 10 000, 14 alternating full runs on one
/// host: validated load 9.8–10.8 ms at the parent → 7.2–8.4 ms, fast
/// arm 3.7–4.2 → 3.2–3.5 ms (one 4.3) — but the slow arm lost its
/// decoder (`mmap_full_secs` 5.3–6.5 → 0.5–0.7 ms) while four fifths of
/// the fast arm is the checksum both share, so the ratio reads
/// 2.46–2.77× → 1.82–2.60× (`--quick`, n = 2 025: 2.03–3.20× →
/// 1.95–2.64×; under 2.0 in 3 of 28 runs). What is left between the arms
/// is `validate` itself. The claim the gate guards — skipping it on a
/// digest match is worth having — holds at 1.5.
pub const GATE_MMAP_SPEEDUP: f64 = 1.5;

/// Pool width 1 vs the full pool on one schedule (same engine).
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Rank count of the simulated plan.
    pub n: usize,
    /// Worker threads in the sharded pool.
    pub threads: usize,
    /// Best-of-reps `Engine::run` (pool width 1) wall time.
    pub serial_secs: f64,
    /// Best-of-reps `Engine::run_sharded` wall time.
    pub sharded_secs: f64,
    /// Whether every report field matched bit-for-bit.
    pub bit_identical: bool,
}

impl ShardRow {
    /// Width-1 over sharded wall time.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.sharded_secs.max(1e-12)
    }
}

/// One plan build under the peak-RSS probe.
#[derive(Debug, Clone)]
pub struct RssRow {
    /// Rank count (torus side² for d = 2).
    pub n: usize,
    /// Out-degree per rank — constant across scales by construction.
    pub degree: usize,
    /// Pattern-build wall time.
    pub build_secs: f64,
    /// `VmHWM` after the build, when the probe worked end to end
    /// (reset succeeded **and** the read returned a value).
    pub peak_rss_bytes: Option<u64>,
}

/// Warm-start comparison, both arms through the one plan-file reader:
/// the *validated load* a file with no topology digest gets (open,
/// checksum, table checks, owned plan, full `validate`) vs the *digest
/// fast path* (`PlanCache::lookup_mapped`: open, checksum, table
/// checks, digest compare — no owned plan, no validation). The gated
/// fast arm measures **time to first rank ready** — lookup plus reading
/// rank 0 out of the file's bytes — which is what a rank process pays
/// before it can start executing; materializing every rank is recorded
/// alongside, ungated, for honesty (the names keep `mmap` for
/// `BENCH_9.json`'s readers).
#[derive(Debug, Clone)]
pub struct MmapRow {
    /// Rank count of the cached plan.
    pub n: usize,
    /// Best-of-reps `PlanFile::open` + `to_plan` + `plan.validate(graph)`
    /// wall time.
    pub decode_validate_secs: f64,
    /// Best-of-reps cold-cache `lookup_mapped` + `rank(0)` wall time.
    pub mmap_fast_secs: f64,
    /// Best-of-reps `PlanFile::to_plan` (one bulk copy per column) wall
    /// time, excluding the lookup.
    pub mmap_full_secs: f64,
    /// Whether the lookup took the validation-free fast path.
    pub fast_path_hit: bool,
    /// Whether the file materializes to exactly the inserted plan
    /// (per-rank programs, algorithm and selection stats).
    pub identical: bool,
}

impl MmapRow {
    /// Decode-validate over fast-path wall time.
    pub fn speedup(&self) -> f64 {
        self.decode_validate_secs / self.mmap_fast_secs.max(1e-12)
    }
}

/// The three sections of one BENCH_9 run.
#[derive(Debug, Clone)]
pub struct Bench9 {
    /// Sharded-simulator cell (small scale).
    pub shard: ShardRow,
    /// Plan-build RSS cells, small scale then large scale.
    pub rss: Vec<RssRow>,
    /// Warm-start cell (small scale).
    pub mmap: MmapRow,
}

/// The acceptance verdict (also embedded in the JSON document).
#[derive(Debug, Clone)]
pub struct GateReport {
    /// `std::thread::available_parallelism()` on this host.
    pub host_threads: usize,
    /// Whether the speedup gate is armed (`host_threads >= 4`).
    pub shard_gate_applicable: bool,
    /// Measured width-1/sharded speedup.
    pub shard_speedup: f64,
    /// Gate: speedup ≥ [`GATE_SHARD_SPEEDUP`]; vacuously true when the
    /// gate is not applicable.
    pub shard_speedup_ok: bool,
    /// Gate (always armed): the sharded report matched bit-for-bit.
    pub shard_bit_identical: bool,
    /// Whether every RSS cell produced a peak reading.
    pub rss_probe_available: bool,
    /// Large-scale over small-scale peak RSS, when measurable.
    pub rss_ratio: Option<f64>,
    /// Gate: `rss_ratio <` [`GATE_RSS_RATIO`]; vacuously true when the
    /// probe is unavailable.
    pub rss_ratio_ok: bool,
    /// Measured decode-validate/fast-path speedup.
    pub mmap_speedup: f64,
    /// Gate (always armed): warm start ≥ [`GATE_MMAP_SPEEDUP`]× and the
    /// lookup actually took the fast path.
    pub mmap_speedup_ok: bool,
    /// Gate (always armed): the file-served plan is reference-identical.
    pub mmap_identical: bool,
}

impl GateReport {
    /// Every armed gate passed.
    pub fn all_ok(&self) -> bool {
        self.shard_speedup_ok
            && self.shard_bit_identical
            && self.rss_ratio_ok
            && self.mmap_speedup_ok
            && self.mmap_identical
    }
}

fn torus_graph(k: usize) -> Topology {
    torus(TorusSpec { d: 2, k })
}

fn layout_for(n: usize) -> ClusterLayout {
    ClusterLayout::new(n.div_ceil(16), 2, 8)
}

/// Best-of-`reps` wall time plus the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

fn reports_bit_identical(a: &nhood_simnet::SimReport, b: &nhood_simnet::SimReport) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.per_rank_finish.len() == b.per_rank_finish.len()
        && a.per_rank_finish.iter().zip(&b.per_rank_finish).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.port_busy.len() == b.port_busy.len()
        && a.port_busy.iter().zip(&b.port_busy).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.stats == b.stats
}

/// Times `schedule` on `layout` at pool width 1 and at `threads`, and
/// checks the reports bit-identical.
pub fn shard_cell(
    layout: &ClusterLayout,
    schedule: &Schedule,
    n: usize,
    threads: usize,
    reps: usize,
) -> ShardRow {
    let cost = SimCost::niagara();
    let engine = Engine::new(layout, cost.net);
    let pool = WorkerPool::new(threads);
    // Warm both paths once so allocator and page-cache effects do not
    // penalise whichever arm runs first.
    let warm_serial = engine.run(schedule).expect("width-1 sim");
    let warm_sharded = engine.run_sharded(schedule, &pool).expect("sharded sim");
    let bit_identical = reports_bit_identical(&warm_serial, &warm_sharded);
    let (serial_secs, _) = timed(reps, || engine.run(schedule).expect("width-1 sim"));
    let (sharded_secs, _) =
        timed(reps, || engine.run_sharded(schedule, &pool).expect("sharded sim"));
    ShardRow { n, threads, serial_secs, sharded_secs, bit_identical }
}

/// Builds the Distance Halving pattern for a `k`×`k` torus under the
/// peak-RSS probe and returns the measurement plus the pattern (so the
/// caller can reuse the small-scale build instead of paying it twice).
pub fn rss_cell(k: usize) -> (RssRow, nhood_core::DhPattern) {
    let g = torus_graph(k);
    let n = g.n();
    let layout = layout_for(n);
    let reset_ok = reset_peak_rss();
    let t0 = Instant::now();
    let pattern = build_pattern(&g, &layout).expect("torus build");
    let build_secs = t0.elapsed().as_secs_f64();
    let peak = if reset_ok { peak_rss_bytes() } else { None };
    (RssRow { n, degree: g.out_neighbors(0).len(), build_secs, peak_rss_bytes: peak }, pattern)
}

/// Times the two warm-start arms over the same on-disk plan file and
/// checks the fast path serves a reference-identical plan.
pub fn mmap_cell(graph: &Topology, plan: &CollectivePlan, reps: usize) -> MmapRow {
    let n = plan.n();
    let dir = std::env::temp_dir().join(format!("nhood_bench9_{}", std::process::id()));
    let fp = PlanFingerprint::of_build(graph, &layout_for(n), Algorithm::DistanceHalving);
    {
        let cache = PlanCache::new(2).with_disk_dir(&dir).expect("disk tier");
        cache.insert_validated(fp, Arc::new(plan.clone()), graph);
    }
    let path = dir.join(format!("{fp}.nhplan"));

    // Slow arm: what the cache does with a file that records no (or
    // another) topology digest — the same reader, then the owned plan
    // and a full structural validation against the topology.
    let (decode_validate_secs, _) = timed(reps, || {
        let p = PlanFile::open(&path).expect("verified file").to_plan();
        p.validate(graph).expect("valid");
        p
    });

    // Fast arm: a cold in-memory cache forces the disk tier, which
    // opens the file, verifies the checksum, the tables and the
    // topology digest (no owned plan, no validation), and reads exactly
    // one rank's program out of its bytes. A fresh cache per rep keeps
    // it cold.
    let mut fast_path_hit = true;
    let (mmap_fast_secs, _) = timed(reps, || {
        let cache = PlanCache::new(2).with_disk_dir(&dir).expect("disk tier");
        let file = cache.lookup_mapped(fp, graph).expect("disk hit");
        fast_path_hit &= cache.stats().disk_fast_hits == 1;
        std::hint::black_box(file.rank(0))
    });

    // Ungated honesty row: materializing EVERY rank out of the file
    // (the lookup itself is excluded — it is the fast arm above).
    let cache = PlanCache::new(2).with_disk_dir(&dir).expect("disk tier");
    let file = cache.lookup_mapped(fp, graph).expect("disk hit");
    let (mmap_full_secs, materialized) = timed(reps, || file.to_plan());
    let identical = materialized == *plan;
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
    MmapRow { n, decode_validate_secs, mmap_fast_secs, mmap_full_secs, fast_path_hit, identical }
}

/// Runs all three sections. Quick runs shrink the tori for CI smoke
/// (2 025 / 19 881 ranks instead of 10 000 / 99 856).
pub fn run(quick: bool) -> Bench9 {
    let (k_small, k_large) = if quick { (45, 141) } else { (100, 316) };
    let reps = if quick { 2 } else { 3 };

    eprintln!("bench9: building {0}x{0} torus pattern under RSS probe", k_small);
    let (rss_small, pattern_small) = rss_cell(k_small);
    eprintln!("bench9: building {0}x{0} torus pattern under RSS probe", k_large);
    let (rss_large, pattern_large) = rss_cell(k_large);
    drop(pattern_large);

    let g_small = torus_graph(k_small);
    let n = g_small.n();
    let layout = layout_for(n);
    let plan = lower(&pattern_small, &g_small);
    drop(pattern_small);

    eprintln!("bench9: sharded vs width-1 simulation at n={n}");
    let cost = SimCost::niagara();
    let schedule = to_schedule_v(&plan, &vec![4096; plan.n()], &cost);
    let threads = WorkerPool::auto().threads();
    let shard = shard_cell(&layout, &schedule, n, threads, reps);
    drop(schedule);

    eprintln!("bench9: digest fast path vs validated load at n={n}");
    let mmap = mmap_cell(&g_small, &plan, reps);

    Bench9 { shard, rss: vec![rss_small, rss_large], mmap }
}

/// Evaluates the acceptance gates.
pub fn gates(b: &Bench9) -> GateReport {
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let shard_gate_applicable = host_threads >= 4;
    let shard_speedup = b.shard.speedup();
    let rss_probe_available = b.rss.len() == 2 && b.rss.iter().all(|r| r.peak_rss_bytes.is_some());
    let rss_ratio = if rss_probe_available {
        let small = b.rss[0].peak_rss_bytes.unwrap_or(0).max(1) as f64;
        let large = b.rss[1].peak_rss_bytes.unwrap_or(0) as f64;
        Some(large / small)
    } else {
        None
    };
    let mmap_speedup = b.mmap.speedup();
    GateReport {
        host_threads,
        shard_gate_applicable,
        shard_speedup,
        shard_speedup_ok: !shard_gate_applicable || shard_speedup >= GATE_SHARD_SPEEDUP,
        shard_bit_identical: b.shard.bit_identical,
        rss_probe_available,
        rss_ratio,
        rss_ratio_ok: rss_ratio.is_none_or(|r| r < GATE_RSS_RATIO),
        mmap_speedup,
        mmap_speedup_ok: mmap_speedup >= GATE_MMAP_SPEEDUP && b.mmap.fast_path_hit,
        mmap_identical: b.mmap.identical,
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// Renders the result as the `BENCH_9.json` document (pretty-printed,
/// hand-rolled — the workspace builds offline, no serde).
pub fn write_json(b: &Bench9, report: &GateReport, quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"BENCH_9\",\n");
    s.push_str(
        "  \"description\": \"scale: sharded simnet speedup, plan-build peak RSS, plan-file warm start\",\n",
    );
    s.push_str(&format!("  \"scale\": \"{}\",\n", if quick { "quick" } else { "full" }));
    s.push_str(&format!(
        "  \"sharded_sim\": {{\"n\": {}, \"threads\": {}, \"serial_secs\": {:.6}, \"sharded_secs\": {:.6}, \"speedup\": {:.3}, \"bit_identical\": {}}},\n",
        b.shard.n,
        b.shard.threads,
        b.shard.serial_secs,
        b.shard.sharded_secs,
        b.shard.speedup(),
        b.shard.bit_identical,
    ));
    s.push_str("  \"plan_build_rss\": [\n");
    for (i, r) in b.rss.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"degree\": {}, \"build_secs\": {:.6}, \"peak_rss_bytes\": {}}}{}\n",
            r.n,
            r.degree,
            r.build_secs,
            json_opt_u64(r.peak_rss_bytes),
            if i + 1 < b.rss.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"mmap_warm_start\": {{\"n\": {}, \"decode_validate_secs\": {:.6}, \"mmap_fast_secs\": {:.6}, \"mmap_full_secs\": {:.6}, \"speedup\": {:.3}, \"fast_path_hit\": {}, \"identical\": {}}},\n",
        b.mmap.n,
        b.mmap.decode_validate_secs,
        b.mmap.mmap_fast_secs,
        b.mmap.mmap_full_secs,
        b.mmap.speedup(),
        b.mmap.fast_path_hit,
        b.mmap.identical,
    ));
    s.push_str("  \"gates\": {\n");
    s.push_str(&format!("    \"host_threads\": {},\n", report.host_threads));
    s.push_str(&format!("    \"shard_gate_applicable\": {},\n", report.shard_gate_applicable));
    s.push_str(&format!("    \"shard_speedup\": {:.3},\n", report.shard_speedup));
    s.push_str(&format!("    \"shard_speedup_ok\": {},\n", report.shard_speedup_ok));
    s.push_str(&format!("    \"shard_bit_identical\": {},\n", report.shard_bit_identical));
    s.push_str(&format!("    \"rss_probe_available\": {},\n", report.rss_probe_available));
    s.push_str(&format!(
        "    \"rss_ratio\": {},\n",
        report.rss_ratio.map_or_else(|| "null".into(), |r| format!("{r:.3}"))
    ));
    s.push_str(&format!("    \"rss_ratio_ok\": {},\n", report.rss_ratio_ok));
    s.push_str(&format!("    \"mmap_speedup\": {:.3},\n", report.mmap_speedup));
    s.push_str(&format!("    \"mmap_speedup_ok\": {},\n", report.mmap_speedup_ok));
    s.push_str(&format!("    \"mmap_identical\": {},\n", report.mmap_identical));
    s.push_str(&format!("    \"all_ok\": {}\n", report.all_ok()));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(shard_speedup: f64, rss: (Option<u64>, Option<u64>), mmap_speedup: f64) -> Bench9 {
        Bench9 {
            shard: ShardRow {
                n: 64,
                threads: 4,
                serial_secs: shard_speedup,
                sharded_secs: 1.0,
                bit_identical: true,
            },
            rss: vec![
                RssRow { n: 64, degree: 4, build_secs: 0.1, peak_rss_bytes: rss.0 },
                RssRow { n: 640, degree: 4, build_secs: 1.0, peak_rss_bytes: rss.1 },
            ],
            mmap: MmapRow {
                n: 64,
                decode_validate_secs: mmap_speedup,
                mmap_fast_secs: 1.0,
                mmap_full_secs: 2.0,
                fast_path_hit: true,
                identical: true,
            },
        }
    }

    #[test]
    fn gates_arm_and_disarm_honestly() {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let g = gates(&bench(3.0, (Some(1 << 20), Some(5 << 20)), 8.0));
        assert_eq!(g.host_threads, host);
        assert!(g.shard_speedup_ok && g.rss_ratio_ok && g.mmap_speedup_ok, "{g:?}");
        assert!(g.all_ok(), "{g:?}");

        // RSS probe unavailable: the ratio gate disarms but records it.
        let g = gates(&bench(3.0, (None, Some(5 << 20)), 8.0));
        assert!(!g.rss_probe_available && g.rss_ratio.is_none() && g.rss_ratio_ok, "{g:?}");

        // An 11x RSS blow-up fails when the probe works.
        let g = gates(&bench(3.0, (Some(1 << 20), Some(11 << 20)), 8.0));
        assert!(g.rss_probe_available && !g.rss_ratio_ok, "{g:?}");

        // The speedup gate only arms on >= 4-thread hosts.
        let g = gates(&bench(1.1, (Some(1), Some(1)), 8.0));
        assert_eq!(g.shard_gate_applicable, host >= 4);
        assert_eq!(g.shard_speedup_ok, host < 4);

        // A slow fast path or a missed one fails unconditionally.
        let g = gates(&bench(3.0, (Some(1), Some(1)), 1.2));
        assert!(!g.mmap_speedup_ok && !g.all_ok(), "{g:?}");
        let mut b = bench(3.0, (Some(1), Some(1)), 8.0);
        b.mmap.fast_path_hit = false;
        assert!(!gates(&b).mmap_speedup_ok);
        b.mmap.fast_path_hit = true;
        b.shard.bit_identical = false;
        assert!(!gates(&b).all_ok());
    }

    #[test]
    fn small_cells_are_correct_end_to_end() {
        // A 5x5 torus exercises every arm cheaply; speed gates are not
        // asserted here — debug builds and tiny inputs measure noise.
        let (row, pattern) = rss_cell(5);
        assert_eq!(row.n, 25);
        assert_eq!(row.degree, 4);
        let g = torus_graph(5);
        let plan = lower(&pattern, &g);
        let cost = SimCost::niagara();
        let schedule = to_schedule_v(&plan, &vec![256; plan.n()], &cost);
        let layout = layout_for(25);
        let shard = shard_cell(&layout, &schedule, 25, 2, 1);
        assert!(shard.bit_identical, "{shard:?}");
        let mmap = mmap_cell(&g, &plan, 1);
        assert!(mmap.fast_path_hit && mmap.identical, "{mmap:?}");
    }

    #[test]
    fn json_document_is_balanced() {
        let b = bench(3.0, (Some(1 << 20), None), 8.0);
        let report = gates(&b);
        let json = write_json(&b, &report, true);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"peak_rss_bytes\": null"));
        assert!(json.contains("\"rss_probe_available\": false"));
    }
}
