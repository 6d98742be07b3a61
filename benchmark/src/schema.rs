//! The benchmark's schema: every metric's name, unit and direction,
//! each end-to-end metric's bound, and `BENCHMARK.json` generated from
//! them (`nhood-benchmark schema` prints it; a test keeps the file at
//! the root of the repo identical to it).

use crate::json::{obj, Value};
use crate::workloads::WORKLOADS;

/// Length of one measured run, seconds.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The eight end-to-end metrics, the same set on every workload.
///
/// The four counts repeat exactly for one commit (the seed draws payload
/// bytes, not shapes) and keep ISSUE.md's bounds: 0.1 % / 1 %, and 0.1 %
/// standing in for the 0 % of `delivered_kb_per_op`, which may not move
/// at all. `peak_rss_mb` keeps its 3 %.
///
/// The three wall-clock metrics do NOT keep ISSUE.md's 7 % / 7 % / 10 %:
/// on the host this was written on, ten-seed inter-quartile ranges of
/// the calibrated 5th-percentile block time reach 10 % on the two
/// memory-bound workloads (README, "Spreads"), and the contract the
/// driver checks wants a bound of three times the spread, capped at
/// 25 %. The issue's criterion is reported there as not met.
///
/// `model_makespan_us` is a simulated time, a pure function of the
/// workload's shapes; its unit says so, because a wall-clock time that
/// reads the same on every run would be a fake.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "lat_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "model_makespan_us", unit: "sim_us", better: "lower", bound: 0.001 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.03 },
    EndToEnd { name: "allocs_per_op", unit: "1", better: "lower", bound: 0.01 },
    EndToEnd { name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.01 },
    EndToEnd { name: "delivered_kb_per_op", unit: "KiB", better: "higher", bound: 0.001 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the `--trace 1` pass. Times are the 5th
/// percentile of the calls a replay made, in microseconds per call
/// unless the README says per op; counts are exact.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("service.submit_us", "us", "lower"),
    layer("service.drain_us", "us", "lower"),
    layer("service.residual_us", "us", "lower"),
    layer("service.register_us", "us", "lower"),
    layer("service.churn_us", "us", "lower"),
    layer("service.batches_per_block", "count", "lower"),
    layer("service.coalesced_frac", "1", "higher"),
    layer("comm.plan_hit_us", "us", "lower"),
    layer("comm.mutate_us", "us", "lower"),
    layer("comm.full_rebuild_frac", "1", "lower"),
    layer("plan_build.dh_us", "us", "lower"),
    layer("plan_build.cn_us", "us", "lower"),
    layer("plan_build.pat_us", "us", "lower"),
    layer("plan_build.naive_us", "us", "lower"),
    layer("plan_build.msgs", "count", "lower"),
    layer("plan_build.phases", "count", "lower"),
    layer("autotune.first_seen_us", "us", "lower"),
    layer("autotune.memo_hit_us", "us", "lower"),
    layer("autotune.sims", "count", "lower"),
    layer("plan_cache.mem_hit_us", "us", "lower"),
    layer("plan_cache.disk_hit_us", "us", "lower"),
    layer("plan_cache.mmap_hit_us", "us", "lower"),
    layer("plan_cache.insert_us", "us", "lower"),
    layer("plan_cache.hit_frac", "1", "higher"),
    layer("plan_io.encode_us", "us", "lower"),
    layer("plan_io.decode_us", "us", "lower"),
    layer("plan_io.plan_kb", "KiB", "lower"),
    layer("arena.layout_us", "us", "lower"),
    layer("arena.prepare_us", "us", "lower"),
    layer("arena.reallocs", "count", "lower"),
    layer("arena.contig_send_frac", "1", "higher"),
    layer("exec.virtual_us", "us", "lower"),
    layer("exec.msgs", "count", "lower"),
    layer("exec.bytes_sent", "count", "lower"),
    layer("exec.bytes_copied", "count", "lower"),
    layer("exec.copy_gb_s", "GB/s", "higher"),
    layer("exec.sim_schedule_us", "us", "lower"),
    layer("simnet.run_us", "us", "lower"),
    layer("simnet.msgs", "count", "lower"),
    layer("simnet.ns_per_msg", "ns", "lower"),
    layer("collective.alltoallv_us", "us", "lower"),
    layer("collective.reduce_scatter_us", "us", "lower"),
    layer("collective.allreduce_us", "us", "lower"),
    layer("collective.plan_us", "us", "lower"),
    layer("collective.bytes_sent", "count", "lower"),
    layer("verify.reference_us", "us", "lower"),
    layer("telemetry.counting_overhead_frac", "1", "lower"),
    layer("trace.overhead_frac", "1", "lower"),
    layer("host.noise_ratio", "1", "lower"),
    layer("host.raw_ops_per_s", "1/s", "higher"),
    layer("host.raw_lat_us", "us", "lower"),
    layer("host.compute_slowdown", "1", "lower"),
    layer("host.stream_slowdown", "1", "lower"),
    layer("host.mean_ops_per_s", "1/s", "higher"),
    layer("host.lat_p50_us", "us", "lower"),
    layer("host.lat_p99_us", "us", "lower"),
    layer("host.minor_faults_per_op", "count", "lower"),
    layer("host.cpu_frac", "1", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let line = |v: &Value| format!("    {v}");
    let list = |items: Vec<Value>| items.iter().map(line).collect::<Vec<_>>().join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why, _)| obj([("name", Value::from(*name)), ("why", Value::from(*why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better)),
                ("bound", Value::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        Value::Arr(command.iter().map(|s| Value::from(*s)).collect()),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(s: &str) -> bool {
        let tail_ok = s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        !s.is_empty() && s.len() <= 64 && s.as_bytes()[0].is_ascii_alphanumeric() && tail_ok
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit) && matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let text = benchmark_json();
        let doc = json::parse(&text).expect("generated BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(text.len() <= 64 << 10);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, text, "regenerate with `nhood-benchmark schema > BENCHMARK.json`");
    }
}
