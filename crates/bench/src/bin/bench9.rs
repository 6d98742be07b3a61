//! `bench9` — regenerate `BENCH_9.json`: raw speed at 100k+ ranks.
//! Sharded simulator vs pool width 1, streaming plan-build peak RSS across a
//! 10× rank jump on matched edges/rank, and the plan file's digest fast
//! path vs its validated load.
//!
//! ```text
//! bench9 [--quick] [--out FILE]
//! ```
//!
//! Default output is `BENCH_9.json` in the current directory. Gates
//! that depend on the host (≥ 4 threads for the 2× sharded speedup,
//! a working `/proc` RSS probe for the 10× RSS ceiling) self-disable
//! and record why; bit-identity of the sharded report and
//! reference-identity of the file-served plan are always enforced.
//! Exits nonzero when an armed gate fails.

use nhood_bench::bench9;
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_9.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(args.next().expect("missing --out value")),
            other => {
                eprintln!("usage: bench9 [--quick] [--out FILE] (got {other})");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        ">> BENCH_9: sharded simnet / plan-build RSS / plan-file warm start ({} scale)...",
        if quick { "quick" } else { "full" }
    );
    let b = bench9::run(quick);
    let report = bench9::gates(&b);
    let json = bench9::write_json(&b, &report, quick);
    std::fs::write(&out, &json).expect("writing BENCH_9.json");

    eprintln!(
        "   sharded sim   n={:<7} threads={:<3} width-1 {:.3}s  sharded {:.3}s  {:.2}x  bit-identical={}",
        b.shard.n,
        b.shard.threads,
        b.shard.serial_secs,
        b.shard.sharded_secs,
        b.shard.speedup(),
        b.shard.bit_identical,
    );
    for r in &b.rss {
        eprintln!(
            "   plan build    n={:<7} degree={} build {:.3}s  peak RSS {}",
            r.n,
            r.degree,
            r.build_secs,
            r.peak_rss_bytes.map_or_else(
                || "unavailable".into(),
                |p| format!("{:.1} MiB", p as f64 / (1 << 20) as f64)
            ),
        );
    }
    eprintln!(
        "   warm start    n={:<7} validated load {:.6}s  digest fast path {:.6}s  {:.2}x  identical={}",
        b.mmap.n,
        b.mmap.decode_validate_secs,
        b.mmap.mmap_fast_secs,
        b.mmap.speedup(),
        b.mmap.identical,
    );
    eprintln!(">> wrote {}", out.display());

    let mut failed = false;
    if !report.shard_gate_applicable {
        eprintln!(
            "   note: sharded-speedup gate disarmed ({} host threads < 4)",
            report.host_threads
        );
    } else if !report.shard_speedup_ok {
        eprintln!(
            "!! sharded speedup gate failed: {:.2}x under {:.1}x",
            report.shard_speedup,
            bench9::GATE_SHARD_SPEEDUP
        );
        failed = true;
    }
    if !report.shard_bit_identical {
        eprintln!("!! sharded report diverged from the width-1 run");
        failed = true;
    }
    match report.rss_ratio {
        None => eprintln!("   note: RSS gate disarmed (peak-RSS probe unavailable on this host)"),
        Some(r) if !report.rss_ratio_ok => {
            eprintln!(
                "!! RSS gate failed: {:.2}x growth over a 10x rank jump (ceiling {:.1}x)",
                r,
                bench9::GATE_RSS_RATIO
            );
            failed = true;
        }
        Some(r) => eprintln!(
            "   RSS grew {:.2}x over a ~10x rank jump (ceiling {:.1}x)",
            r,
            bench9::GATE_RSS_RATIO
        ),
    }
    if !report.mmap_speedup_ok {
        eprintln!(
            "!! warm-start gate failed: {:.2}x under {:.1}x (fast path hit: {})",
            report.mmap_speedup,
            bench9::GATE_MMAP_SPEEDUP,
            b.mmap.fast_path_hit
        );
        failed = true;
    }
    if !report.mmap_identical {
        eprintln!("!! file-served plan diverged from the inserted plan");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
