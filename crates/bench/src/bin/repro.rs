//! `repro [--quick] [--out DIR] <experiment>...` — regenerate the paper's
//! tables and figures through [`nhood_bench::repro`] (`repro --help`
//! lists the experiments). Exits 1 when a CSV cannot be written, 2 on bad
//! arguments.

fn main() {
    std::process::exit(nhood_bench::repro::drive(std::env::args().skip(1)));
}
