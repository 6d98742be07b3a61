//! `nhood-benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! nhood-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! nhood-benchmark --quick [--seed N] [--trace 0|1]                all workloads, ~1 s each, same schema
//! nhood-benchmark compare A B                                     ok / regressed / unresolved per metric
//! nhood-benchmark schema                                          print BENCHMARK.json
//! ```

mod alloc;
mod calib;
mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod model;
mod run;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{RunOpts, RunOutput};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--key value` pairs after the positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.flags.push(("quick".into(), "1".into())),
                Some(key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, got {v:?}")),
        }
    }
}

/// Runs once, writes the record under `out/`, reports on stderr.
fn run_once(opts: &RunOpts) -> Result<RunOutput, String> {
    let out = run::run(opts)?;
    let dir = run::out_dir();
    let path = dir.join(format!("{}-t{}.json", opts.workload, u8::from(opts.trace)));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", out.record)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let flag = |key| out.record.get(key).and_then(json::Value::as_bool) == Some(true);
    eprintln!(
        "{} seed {} trace {}: {} ops, {} failed{} -> {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        out.attempted,
        out.failed,
        if flag("noisy") { ", NOISY host (faults/op > 1 or p50/p5 > 1.5)" } else { "" },
        path.display()
    );
    Ok(out)
}

/// The contract: one run, result as the last line of standard output.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let opts = RunOpts {
        workload: args.get("workload").ok_or("--workload is required")?.to_string(),
        seed: args.num("seed", 1)?,
        seconds: args.num("seconds", schema::RUN_SECONDS as f64)?,
        trace: args.trace()?,
    };
    let out = run_once(&opts)?;
    println!("{}", out.contract_line());
    Ok(if out.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Smoke mode: every workload for about a second, in this process.
fn cmd_quick(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    for (name, _, _) in WORKLOADS {
        let opts = RunOpts {
            workload: name.to_string(),
            seed: args.num("seed", 1)?,
            seconds: 1.0,
            trace: args.trace()?,
        };
        let out = run_once(&opts)?;
        ok &= out.correct;
        println!("{}", out.contract_line());
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: nhood-benchmark compare A B".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    Ok(if compare::compare(&read(a)?, &read(b)?)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("compare") => cmd_compare(&args),
            Some("schema") => {
                print!("{}", schema::benchmark_json());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
            None if args.get("quick").is_some() => cmd_quick(&args),
            None => cmd_run(&args),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("nhood-benchmark: {e}");
        ExitCode::from(2)
    })
}
