//! The `repro` driver behind `repro [--quick] [--out DIR] <experiment>...`:
//! the paper's tables and figures, one [`Experiment`] each, dispatched
//! from [`EXPERIMENTS`] as `bench N` dispatches from
//! [`crate::suite::SUITES`].
//!
//! Every experiment returns a [`Measured`]; the driver prints it through
//! [`suite::print`] and writes each of its sections to
//! `<DIR>/<section>.csv` (default `results/`). `--quick` shrinks every
//! experiment for smoke runs. `plots` renders SVG figures from the CSVs
//! already in `DIR`, as does any run of more than three experiments.

use std::path::PathBuf;
use std::time::Instant;

use crate::common::Scale;
use crate::suite::{self, Measured};
use crate::{extras, fig2, fig45, fig6, fig7, fig8, figures};

/// One experiment of `repro`.
pub struct Experiment {
    /// The names that pick it; the first is its name in progress lines.
    pub names: &'static [&'static str],
    /// What it reproduces, for the usage text.
    pub about: &'static str,
    /// Runs it at a scale (the scale-free ones ignore it).
    pub run: fn(Scale) -> Measured,
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment { names: &["fig2"], about: "§V model predictions (DH vs naive)", run: fig2::run },
    Experiment {
        names: &["fig4", "fig5"],
        about: "the RSG sweep: Fig. 4 latency at the largest scale, Fig. 5 speedups at every scale",
        run: fig45::run,
    },
    Experiment { names: &["fig6"], about: "Moore-neighborhood speedups", run: fig6::run },
    Experiment {
        names: &["table2"],
        about: "Table II matrix inventory",
        run: |_| fig7::run_table2(),
    },
    Experiment { names: &["fig7"], about: "SpMM kernel speedups", run: fig7::run },
    Experiment { names: &["fig8"], about: "pattern-creation overhead", run: fig8::run },
    Experiment {
        names: &["model-example"],
        about: "§V worked example (23 vs 600 messages)",
        run: |_| extras::run_model_example(),
    },
    Experiment {
        names: &["agent-success"],
        about: "§VII-A agent-success rates",
        run: extras::run_agent_success,
    },
    Experiment {
        names: &["ablation-network"],
        about: "network-model feature ablation",
        run: extras::run_ablation_network,
    },
    Experiment {
        names: &["ablation-selection"],
        about: "load-aware vs mirror agent ablation",
        run: extras::run_ablation_selection,
    },
    Experiment {
        names: &["ext-alltoall"],
        about: "future-work alltoall variant (DH vs naive)",
        run: extras::run_alltoall,
    },
    Experiment {
        names: &["ext-packing"],
        about: "allgather vs allgatherv SpMM stripe packing",
        run: extras::run_packing,
    },
    Experiment {
        names: &["ext-leader"],
        about: "hierarchical leader baseline at large messages",
        run: extras::run_leader,
    },
    Experiment {
        names: &["variance"],
        about: "latency variance across node placements (§VII-B)",
        run: extras::run_variance,
    },
];

fn usage() -> String {
    let names = EXPERIMENTS.iter().map(|e| (e.names.join(" | "), e.about));
    let extra = [
        ("plots", "render SVG figures from the CSVs already in --out"),
        ("all", "every experiment above, then plots"),
    ];
    let lines = names.chain(extra.map(|(name, about)| (name.to_string(), about)));
    let lines: Vec<String> = lines.map(|(name, about)| format!("  {name:<20} {about}")).collect();
    format!(
        "usage: repro [--quick] [--out DIR] <experiment>...\n\nexperiments:\n{}",
        lines.join("\n")
    )
}

/// `repro [--quick] [--out DIR] <experiment>...`: runs each picked
/// experiment once, in the order picked (`fig4` and `fig5` pick the one
/// RSG sweep), printing and writing its sections. Returns the exit code:
/// 0 on success (and for `--help`), 1 when a CSV could not be written, 2
/// on bad arguments.
pub fn drive(args: impl IntoIterator<Item = String>) -> i32 {
    let bad = |err: &str| {
        eprintln!("error: {err}\n\n{}", usage());
        2
    };
    let (mut scale, mut out) = (Scale::Full, PathBuf::from("results"));
    let (mut picks, mut plots) = (Vec::new(), false);
    let mut pick = |i: usize| {
        if !picks.contains(&i) {
            picks.push(i);
        }
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return bad("missing --out value"),
            },
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return 0;
            }
            "plots" => plots = true,
            "all" => (0..EXPERIMENTS.len()).for_each(&mut pick),
            name => match EXPERIMENTS.iter().position(|e| e.names.contains(&name)) {
                Some(i) => pick(i),
                None => return bad(&format!("unknown experiment: {name}")),
            },
        }
    }
    if picks.is_empty() && !plots {
        return bad("no experiment given");
    }
    for &i in &picks {
        let e = &EXPERIMENTS[i];
        let (name, t0) = (e.names[0], Instant::now());
        eprintln!(">> running {name} ({scale:?} scale)...");
        let m = (e.run)(scale);
        suite::print(&m);
        if let Err(err) = m.write_csvs(&out) {
            eprintln!("!! {name} failed: {err}");
            return 1;
        }
        eprintln!(">> {name} done in {:.1?}; CSV under {}", t0.elapsed(), out.display());
    }
    if plots || picks.len() > 3 {
        match figures::render_all(&out) {
            Ok(written) => {
                eprintln!(">> rendered {} SVG figures under {}", written.len(), out.display())
            }
            Err(e) => eprintln!("!! plot rendering failed: {e}"),
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_picks_one_experiment() {
        let mut names: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|e| e.names.iter().copied()).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name picks two experiments");
        assert!(!names.contains(&"all") && !names.contains(&"plots"));
    }

    #[test]
    fn the_driver_refuses_bad_arguments_before_running() {
        let args = |a: &[&str]| drive(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), 2);
        assert_eq!(args(&["--quick"]), 2);
        assert_eq!(args(&["fig3"]), 2);
        assert_eq!(args(&["fig2", "--out"]), 2);
        assert_eq!(args(&["--help"]), 0);
    }
}
