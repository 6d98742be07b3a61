//! A minimal wall-clock micro-benchmark harness (the workspace builds
//! offline, so the benches use this instead of an external framework).
//!
//! Each case runs a short warmup, then `iters` timed iterations, and
//! prints median / mean / min per-iteration time plus optional
//! throughput. Output is one aligned line per case, suitable for eyeball
//! comparison and for diffing across commits.

use crate::common::sample;

/// One benchmark group; prints a header on creation.
pub struct Bench {
    group: String,
}

impl Bench {
    /// Starts a named group.
    pub fn group(name: &str) -> Self {
        println!("== bench group: {name}");
        Self { group: name.to_string() }
    }

    /// Times `f` and prints one result line. `bytes` (if nonzero) adds a
    /// throughput column.
    pub fn case<R>(&self, name: &str, iters: usize, bytes: u64, f: impl FnMut() -> R) {
        assert!(iters > 0);
        // warmup: a few untimed runs to populate caches and branch state
        let (t, _) = sample(iters.clamp(1, 3), iters, f);
        let median = t.median();
        let mut line = format!(
            "{:<40} median {:>12?}  mean {:>12?}  min {:>12?}  ({} iters)",
            format!("{}/{}", self.group, name),
            median,
            t.mean(),
            t.min(),
            iters
        );
        if bytes > 0 {
            let gbps = bytes as f64 / median.as_secs_f64() / 1e9;
            line.push_str(&format!("  {gbps:.3} GB/s"));
        }
        println!("{line}");
    }

    /// Prints one telemetry counter-summary line for a case — the
    /// message/byte/retry totals a `CountingRecorder` observed during a
    /// run, so benches report *what* moved alongside how fast it moved.
    pub fn counters(&self, name: &str, counts: &nhood_telemetry::Counts) {
        println!("{:<40} counters: {counts}", format!("{}/{}", self.group, name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_counts_iterations() {
        let b = Bench::group("smoke");
        let mut calls = 0u32;
        b.case("count", 5, 0, || calls += 1);
        // 5 timed + up to 3 warmup
        assert!((6..=8).contains(&calls), "{calls}");
    }
}
