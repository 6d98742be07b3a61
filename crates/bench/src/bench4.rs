//! BENCH_4 — plan-construction fast path: serial vs pooled build vs
//! fingerprint-keyed cache.
//!
//! Times four phases of [`DistGraphComm`] plan construction for the
//! Distance Halving algorithm on the paper's workloads (random sparse
//! graphs across densities δ=0.05–0.7 at n up to 1024, plus the Moore
//! stencil):
//!
//! * `serial_build` — [`DistGraphComm::plan`] on a single-thread pool,
//!   the pre-fast-path baseline;
//! * `parallel_build` — the same build on [`nhood_cluster::WorkerPool::auto`]
//!   (per-half matchmaking scoring and per-rank lowering fan out);
//! * `cold_cached` — `plan_shared` with a cold memo against a fresh
//!   [`PlanCache`]: one fingerprint, one full build, one insert;
//! * `cache_hit` — `plan_shared` with a cold memo against a warm cache:
//!   fingerprint plus an LRU lookup, no build at all.
//!
//! One gate rides on the numbers (see [`report`]): cache hits ≥ 20× a
//! cold build in geometric mean (`cache_gmean`). Each cell's
//! `parallel_over_serial` is recorded ungated: the claim that a pooled
//! build is ≥ 1.5× serial at n ≥ 512 was retired (1.16× on a 2-thread
//! host, below 1× on some cells).

use nhood_cluster::ClusterLayout;
use nhood_core::{Algorithm, DistGraphComm, LoadMetric, PlanCache};
use nhood_topology::moore::{moore, MooreSpec};
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;
use std::sync::Arc;

use crate::common::{gmean, sample};
use crate::suite::{row, Gate, Measured, Val};

/// Required gmean cache-hit / cold-build ratio.
pub const GATE_CACHE_SPEEDUP: f64 = 20.0;

/// One timed (workload, n, delta, phase) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload family: `"rsg"` or `"moore"`.
    pub workload: String,
    /// Rank count.
    pub n: usize,
    /// Edge density (RSG only; `None` for Moore).
    pub delta: Option<f64>,
    /// `"serial_build"`, `"parallel_build"`, `"cold_cached"`, or
    /// `"cache_hit"`.
    pub phase: String,
    /// Median per-iteration wall time.
    pub median_ns: u128,
    /// Mean per-iteration wall time.
    pub mean_ns: u128,
    /// Fastest iteration — the least-noise estimator for a
    /// deterministic workload, and the basis of the speedup columns.
    pub min_ns: u128,
    /// Timed iterations behind the statistics.
    pub iters: usize,
}

/// Derived speedups for one (workload, n, delta) cell.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Workload family.
    pub workload: String,
    /// Rank count.
    pub n: usize,
    /// Edge density (RSG only).
    pub delta: Option<f64>,
    /// `serial_min / parallel_min` — > 1 means the pool won.
    pub parallel_over_serial: f64,
    /// `cold_min / hit_min` — how much a warm cache saves.
    pub hit_over_cold: f64,
}

fn bench_workload(
    workload: &str,
    delta: Option<f64>,
    graph: &Topology,
    iters: usize,
    rows: &mut Vec<Row>,
) {
    let n = graph.n();
    let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
    let serial = DistGraphComm::create_adjacent(graph.clone(), layout).unwrap();
    let parallel = serial.clone().with_build_threads(0); // 0 = WorkerPool::auto()

    // one warmup per phase: full plan builds are expensive at n = 1024
    let mut push = |phase: &str, f: &mut dyn FnMut()| {
        let (t, ()) = sample(1, iters, f);
        rows.push(Row {
            workload: workload.to_string(),
            n,
            delta,
            phase: phase.to_string(),
            median_ns: t.median().as_nanos(),
            mean_ns: t.mean().as_nanos(),
            min_ns: t.min().as_nanos(),
            iters,
        });
    };

    push("serial_build", &mut || {
        serial.plan(Algorithm::DistanceHalving).unwrap();
    });
    push("parallel_build", &mut || {
        parallel.plan(Algorithm::DistanceHalving).unwrap();
    });
    // both cache phases plan on a clone with a memo of its own (re-setting
    // the metric starts one), or a clone would be served its memo's plan:
    // cold a fresh cache every iteration, hit one warm cache shared by all
    let cold_memo = |cache: &Arc<PlanCache>| {
        let comm = parallel.clone().with_load_metric(LoadMetric::Neighbors);
        comm.with_plan_cache(Arc::clone(cache)).plan_shared(Algorithm::DistanceHalving).unwrap();
    };
    push("cold_cached", &mut || cold_memo(&Arc::new(PlanCache::new(2))));
    let cache = Arc::new(PlanCache::new(2));
    cold_memo(&cache); // warm
    push("cache_hit", &mut || cold_memo(&cache));
}

/// Runs the full grid. `quick` shrinks densities, rank counts, and
/// iterations for CI smoke runs.
pub fn run(quick: bool) -> Vec<Row> {
    let (densities, sizes): (&[f64], &[usize]) =
        if quick { (&[0.05, 0.3], &[64]) } else { (&[0.05, 0.2, 0.45, 0.7], &[128, 512, 1024]) };
    let mut rows = Vec::new();
    for &n in sizes {
        for &delta in densities {
            let g = erdos_renyi(n, delta, 42);
            let iters = if quick || n >= 512 { 3 } else { 5 };
            bench_workload("rsg", Some(delta), &g, iters, &mut rows);
        }
    }
    let moore_sizes: &[usize] = if quick { &[64] } else { &[64, 512] };
    for &n in moore_sizes {
        let g = moore(n, MooreSpec { r: 1, d: 2 });
        let iters = if quick || n >= 512 { 3 } else { 5 };
        bench_workload("moore", None, &g, iters, &mut rows);
    }
    rows
}

/// Pairs the four phases of each (workload, n, delta) cell into the two
/// speedup columns.
pub fn derive_speedups(rows: &[Row]) -> Vec<Speedup> {
    let min_ns = |of: &Row, phase: &str| {
        let same = |r: &&Row| (&r.workload, r.n, r.delta) == (&of.workload, of.n, of.delta);
        rows.iter().filter(same).find(|r| r.phase == phase).map(|r| r.min_ns.max(1) as f64)
    };
    let speedup = |r: &Row| {
        Some(Speedup {
            workload: r.workload.clone(),
            n: r.n,
            delta: r.delta,
            parallel_over_serial: r.min_ns as f64 / min_ns(r, "parallel_build")?,
            hit_over_cold: min_ns(r, "cold_cached")? / min_ns(r, "cache_hit")?,
        })
    };
    rows.iter().filter(|r| r.phase == "serial_build").filter_map(speedup).collect()
}

/// The `rows` and `speedups` sections and the cache gate of a run.
pub fn report(rows: &[Row]) -> Measured {
    let speedups = derive_speedups(rows);
    let cache_gmean = gmean(speedups.iter().map(|s| s.hit_over_cold));
    let rows = rows.iter().map(|r| {
        row! {
            "workload" => r.workload.as_str(), "n" => r.n, "delta" => r.delta,
            "phase" => r.phase.as_str(), "median_ns" => r.median_ns, "mean_ns" => r.mean_ns,
            "min_ns" => r.min_ns, "iters" => r.iters,
        }
    });
    let speedups = speedups.iter().map(|s| {
        row! {
            "workload" => s.workload.as_str(), "n" => s.n, "delta" => s.delta,
            "parallel_over_serial" => Val::Fix(s.parallel_over_serial, 3),
            "hit_over_cold" => Val::Fix(s.hit_over_cold, 3),
        }
    });
    Measured {
        sections: vec![("rows", rows.collect()), ("speedups", speedups.collect())],
        gates: vec![Gate::at_least("cache_gmean", cache_gmean, GATE_CACHE_SPEEDUP)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::{parse, Json};
    use crate::suite::{document, SUITES};

    fn row(phase: &str, min_ns: u128) -> Row {
        Row {
            workload: "rsg".into(),
            n: 512,
            delta: Some(0.3),
            phase: phase.into(),
            median_ns: min_ns + 1,
            mean_ns: min_ns + 2,
            min_ns,
            iters: 3,
        }
    }

    fn cell(cold: u128, hit: u128) -> Vec<Row> {
        vec![
            row("serial_build", 2000),
            row("parallel_build", 1000),
            row("cold_cached", cold),
            row("cache_hit", hit),
        ]
    }

    #[test]
    fn speedups_pair_the_four_phases() {
        let sp = derive_speedups(&cell(2100, 50));
        assert_eq!(sp.len(), 1);
        assert!((sp[0].parallel_over_serial - 2.0).abs() < 1e-9);
        assert!((sp[0].hit_over_cold - 42.0).abs() < 1e-9);
    }

    #[test]
    fn cache_gate_is_always_evaluated() {
        let m = report(&cell(250, 50));
        let g = m.gate("cache_gmean");
        assert!(g.armed && !g.ok, "5x must fail the 20x bar: {g:?}");
        // the retired parallel claim arms nothing, whatever the host
        assert_eq!(m.gates.len(), 1, "{:?}", m.gates);
        let g = report(&[]).gates[0].clone();
        assert!(g.armed && !g.ok && g.value.is_none(), "an empty grid is not evidence: {g:?}");
    }

    #[test]
    fn json_is_well_formed_and_carries_the_gates() {
        let doc =
            parse(&document(&SUITES[0], true, 1, &report(&cell(2100, 50)))).expect("valid JSON");
        assert_eq!(doc.get("host_threads"), &Json::Num(1.0));
        assert_eq!(doc.get("rows").items().len(), 4);
        let sp = &doc.get("speedups").items()[0];
        assert_eq!(sp.get("hit_over_cold"), &Json::Num(42.0));
        assert_eq!(sp.get("delta"), &Json::Num(0.3));
        // 42x clears the 20x bar regardless of the host's core count
        let gate = &doc.get("gates").items()[0];
        assert_eq!(gate.get("name"), &Json::Str("cache_gmean".into()));
        assert_eq!(gate.get("value"), &Json::Num(42.0));
        assert_eq!(gate.get("ok"), &Json::Bool(true));
        assert_eq!(doc.get("all_ok"), &Json::Bool(true));
    }
}
