//! `bench N [--quick] [--out FILE]` — regenerate `BENCH_N.json`
//! (N = 4 … 10) through the one gate harness, [`nhood_bench::suite`].
//! Exits 1 when an armed gate fails, 2 on bad arguments.

fn main() {
    std::process::exit(nhood_bench::suite::drive(std::env::args().skip(1)));
}
