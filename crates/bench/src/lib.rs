//! # nhood-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! Distance Halving paper (see `DESIGN.md` §4 for the experiment index):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — §V model, DH vs naïve predictions |
//! | [`fig45`] | Figs. 4 and 5 — one RSG sweep: latency at the largest scale, speedup scaling |
//! | [`fig6`] | Fig. 6 — Moore-neighborhood speedups |
//! | [`fig7`] | Table II + Fig. 7 — SpMM kernel |
//! | [`fig8`] | Fig. 8 — pattern-creation overhead |
//! | [`extras`] | §V worked example, §VII-A success rates, ablations |
//!
//! Run everything with `cargo run --release -p nhood-bench --bin repro --
//! all` ([`repro`] holds the experiment table); wall-clock
//! micro-benchmarks of the library itself live under `benches/` (driven
//! by the in-repo [`harness`]). The figures and the gated acceptance
//! suites `bench4` … `bench10` report through the one result type in
//! [`suite`]: `cargo run --release -p nhood-bench --bin bench -- N
//! [--quick]` writes `BENCH_N.json`.

pub mod bench10;
pub mod bench4;
pub mod bench5;
pub mod bench6;
pub mod bench7;
pub mod bench8;
pub mod bench9;
pub mod common;
pub mod extras;
pub mod fig2;
pub mod fig45;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod figures;
pub mod harness;
pub mod mirror;
pub mod plot;
pub mod repro;
pub mod suite;
