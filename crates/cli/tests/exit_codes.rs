//! The `nhood` binary's exit codes: 2 for an argument the parser does
//! not know (a retired command or flag among them), 1 with one typed
//! `error:` line for a command that fails, 0 for the priced listing
//! under every cost model.

use std::process::{Command, Output};

fn nhood(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nhood")).args(argv).output().expect("nhood runs")
}

fn graph(name: &str) -> String {
    let path = std::env::temp_dir().join(name).to_string_lossy().into_owned();
    let out = nhood(&["gen", "er", &path, "--n", "48", "--delta", "0.3", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    path
}

#[test]
fn retired_commands_and_flags_are_unknown() {
    let path = graph("nhood_exit_retired.el");
    for cmd in ["compare", "recommend", "validate"] {
        let out = nhood(&[cmd, &path]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("error: unknown command '{cmd}'")), "{err}");
    }
    for flag in ["--k", "--leaders", "--radix", "--ragged"] {
        let out = nhood(&["plan", &path, "--algo", "cn", flag, "4"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("error: unknown flag {flag}")), "{err}");
    }
}

#[test]
fn a_bad_layout_exits_1_with_a_typed_line() {
    let path = graph("nhood_exit_layout.el");
    let huge = "4294967296";
    for flags in [
        &["--sockets", "0"][..],
        &["--cores", "0"],
        &["--nodes", "0"],
        &["--sockets", huge, "--cores", huge],
    ] {
        let out = nhood(&[&["plan", &path][..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: layout ") && err.lines().count() == 1, "{err}");
    }
}

#[test]
fn the_listing_runs_under_every_cost_model() {
    let path = graph("nhood_exit_listing.el");
    for cost in ["niagara", "classic", "flat:1e-6:1e9"] {
        let out =
            nhood(&["simulate", &path, "--algo", "auto", "--sizes", "8,32,4K", "--cost", cost]);
        assert!(out.status.success(), "{cost}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.matches("<-- best").count(), 3, "{cost}: {text}");
    }
    let argv = ["run", &path, "--op", "allgatherv", "--algo", "dh", "--load-metric", "bytes"];
    let out = nhood(&argv);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: ok"), "{out:?}");
}
