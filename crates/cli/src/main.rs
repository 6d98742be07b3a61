//! `nhood` — generate topologies, plan neighborhood collectives, price
//! arms on the cluster simulator, and run checked collectives from the
//! command line.
//!
//! ```text
//! nhood gen er out.el --n 2160 --delta 0.3 [--seed 42]
//! nhood gen moore out.el --n 2048 --r 2 --d 2
//! nhood gen vonneumann out.el --n 1024 --r 1 --d 2
//! nhood plan out.el --algo dh [--nodes 60 --sockets 2 --cores 18]
//! nhood simulate out.el --algo naive,cn:8,dh --sizes 64,4K,1M
//! nhood simulate out.el --algo auto --sizes 32,4K --cost classic
//! nhood run out.el --op allgatherv --algo dh --load-metric bytes
//! nhood chaos out.el --algo dh --drops 0.01,0.05,0.1 --runs 5
//! nhood churn out.el --events 5 --seed 42
//! ```

mod args;
mod commands;

use args::{Args, Spec};

const SPEC: Spec = Spec {
    valued: &[
        "n",
        "delta",
        "seed",
        "r",
        "d",
        "algo",
        "nodes",
        "sockets",
        "cores",
        "sizes",
        "size",
        "out",
        "save",
        "load",
        "drops",
        "runs",
        "events",
        "timeout",
        "backend",
        "format",
        "cost",
        "topology",
        "build-threads",
        "cache-dir",
        "load-metric",
        "block-sizes",
        "min-complete",
        "tenants",
        "duration-ms",
        "interarrival-us",
        "zipf",
        "faulty",
        "fault-drop",
        "churn-ms",
        "queue",
        "quota",
        "batch",
        "size-min",
        "size-max",
        "op",
        "reduce",
        "dtype",
    ],
    switches: &["help", "no-batch", "drill", "mixed"],
};

const USAGE: &str = "\
nhood <command> [args]

commands:
  gen <er|moore|vonneumann> <out-file> --n N [--delta D | --r R --d DIM] [--seed S]
  plan <edge-list> [--algo naive|dh|cn[:K]|leader[:L]|bruck|pat[:R]|auto]
       [--save plan.bin] [--build-threads N] [--cache-dir DIR] [layout flags]
       [--load-metric neighbors|bytes] [--block-sizes 1K,64,0,...]
  simulate <edge-list> [--algo ARM,ARM,..|auto] [--load plan.bin] [--sizes 64,4K,1M]
           [--cost niagara|classic|flat:ALPHA:BETA] [layout flags]
  run <edge-list> [--op allgather|allgatherv|alltoallv|reduce_scatter|allreduce]
      [--reduce sum|max|bitor] [--dtype u8|u32|f32] [--algo ..] [--size 1K]
      [--backend virtual|threaded|sim] [--seed 42]
      [--load-metric neighbors|bytes] [layout flags]
  trace <edge-list> [--algo ..] [--size 4K] [--backend virtual|threaded|sim]
        [--format csv|chrome|summary|model-check] [--out FILE]
        [--cost niagara|classic|flat:ALPHA:BETA] [layout flags]
  chaos <edge-list> [--algo ..] [--drops 0.01,0.05,0.1] [--runs 5] [--seed 42]
        [--size 32] [--timeout 5000] [--min-complete 0.9] [layout flags]
  churn <edge-list> [--events 5] [--seed 42] [--size 32] [--timeout 5000]
        [layout flags]
  serve [<edge-list>] [--tenants 4] [--n 16 --delta 0.3] [--algo ..]
        [--duration-ms 200] [--interarrival-us 200] [--zipf 1.1]
        [--size-min 16 --size-max 2K] [--faulty 0] [--fault-drop 0.05]
        [--churn-ms 0] [--queue 256] [--quota 64] [--batch 64] [--no-batch]
        [--backend virtual|threaded|sim] [--seed 42] [--drill] [--mixed]
        [layout flags]

layout flags: [--nodes N] [--sockets 2] [--cores 8], each at least 1
every required <edge-list> may be --topology torus:D:K (a generated torus) instead
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv, &SPEC) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if parsed.has("help") || parsed.pos_len() == 0 {
        print!("{USAGE}");
        return;
    }
    let mut out = std::io::stdout().lock();
    let result = match parsed.pos(0).expect("checked above") {
        "gen" => commands::cmd_gen(&parsed, &mut out),
        "plan" => commands::cmd_plan(&parsed, &mut out),
        "simulate" => commands::cmd_simulate(&parsed, &mut out),
        "run" => commands::cmd_run(&parsed, &mut out),
        "trace" => commands::cmd_trace(&parsed, &mut out),
        "chaos" => commands::cmd_chaos(&parsed, &mut out),
        "churn" => commands::cmd_churn(&parsed, &mut out),
        "serve" => commands::cmd_serve(&parsed, &mut out),
        other => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
