//! Shared harness utilities: experiment scales, the sweep constants the
//! paper's figures use, cell formatting, and the statistics every suite
//! and figure takes — one geometric mean, one median, one timing sampler.

use std::time::{Duration, Instant};

/// The paper's Random Sparse Graph densities (Figs. 4, 5, 8).
pub const DENSITIES: [f64; 5] = [0.05, 0.1, 0.3, 0.5, 0.7];

/// Message-size sweep, 8 B … 4 MB (the paper's x-axis).
pub const MSG_SIZES: [usize; 11] =
    [8, 32, 128, 512, 2048, 8192, 32768, 131072, 524288, 2_097_152, 4_194_304];

/// Common Neighbor group sizes swept per configuration (the paper
/// "launched the Common Neighbor algorithm with various values of K" and
/// reports the best).
pub const CN_KS: [usize; 4] = [2, 4, 8, 16];

/// Experiment scale: `Full` reproduces the paper's rank counts; `Quick`
/// shrinks everything for smoke tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale (2160 ranks / 60 nodes etc.). Minutes per figure.
    Full,
    /// Small-scale smoke (≈ 216 ranks, fewer sizes). Seconds per figure.
    Quick,
}

impl Scale {
    /// RSG rank-count / node-count pairs (Fig. 5 runs 540, 1080, 2160
    /// ranks on 15, 30, 60 nodes at 36 ranks per node).
    pub fn rsg_scales(self) -> Vec<(usize, usize)> {
        match self {
            Scale::Full => vec![(540, 15), (1080, 30), (2160, 60)],
            Scale::Quick => vec![(216, 6)],
        }
    }

    /// The largest RSG scale (Figs. 4 and 8 use it).
    pub fn rsg_largest(self) -> (usize, usize) {
        *self.rsg_scales().last().expect("non-empty")
    }

    /// Message sizes swept.
    pub fn msg_sizes(self) -> Vec<usize> {
        match self {
            Scale::Full => MSG_SIZES.to_vec(),
            Scale::Quick => vec![32, 2048, 131072],
        }
    }

    /// Densities swept.
    pub fn densities(self) -> Vec<f64> {
        match self {
            Scale::Full => DENSITIES.to_vec(),
            Scale::Quick => vec![0.05, 0.3],
        }
    }

    /// Moore configuration: (ranks, nodes, ranks-per-node).
    pub fn moore_scale(self) -> (usize, usize, usize) {
        match self {
            Scale::Full => (2048, 64, 32),
            Scale::Quick => (256, 8, 32),
        }
    }

    /// SpMM process count and node count.
    pub fn spmm_scale(self) -> (usize, usize) {
        match self {
            Scale::Full => (128, 4),
            Scale::Quick => (32, 1),
        }
    }
}

/// Formats seconds with µs precision.
pub fn fmt_secs(t: f64) -> String {
    format!("{t:.9}")
}

/// Formats a speedup ratio.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}")
}

/// Human-readable message size (8B, 4KB, 4MB).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Geometric mean of positive values (the right average for speedups);
/// `None` for no values.
pub fn gmean(vals: impl IntoIterator<Item = f64>) -> Option<f64> {
    let lns: Vec<f64> = vals.into_iter().map(f64::ln).collect();
    (!lns.is_empty()).then(|| (lns.iter().sum::<f64>() / lns.len() as f64).exp())
}

/// The median of a non-empty sample (the upper one of an even count).
pub fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    xs[xs.len() / 2]
}

/// Wall times of timed calls, fastest first.
#[derive(Clone, Debug)]
pub struct Samples(Vec<Duration>);

impl Samples {
    /// The fastest call: the least-noise estimator for a deterministic
    /// workload.
    pub fn min(&self) -> Duration {
        self.0[0]
    }

    /// The median call.
    pub fn median(&self) -> Duration {
        median(self.0.clone())
    }

    /// The mean call.
    pub fn mean(&self) -> Duration {
        self.0.iter().sum::<Duration>() / self.0.len() as u32
    }
}

/// The one timing sampler: `warmup` untimed calls of `f`, then `reps`
/// timed ones (at least one). Returns their wall times and the last
/// result.
pub fn sample<T>(warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> (Samples, T) {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        times.push(t0.elapsed());
        last = Some(v);
    }
    times.sort_unstable();
    (Samples(times), last.expect("at least one rep"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(8), "8B");
        assert_eq!(fmt_bytes(4096), "4KB");
        assert_eq!(fmt_bytes(4 << 20), "4MB");
        assert_eq!(fmt_bytes(1000), "1000B");
        assert_eq!(fmt_x(2.345), "2.35");
    }

    #[test]
    fn geomean_properties() {
        assert!((gmean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((gmean([3.0]).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(gmean([]), None);
    }

    #[test]
    fn the_sampler_times_every_rep_and_keeps_the_last_result() {
        let mut calls = 0u32;
        let (times, last) = sample(2, 5, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (7, 7));
        assert_eq!(times.0.len(), 5);
        assert!(times.min() <= times.median() && times.0.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sample(0, 0, || ()).0 .0.len(), 1, "at least one rep");
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4u32, 1, 3, 2]), 3);
    }

    #[test]
    fn scales_are_consistent() {
        for s in [Scale::Full, Scale::Quick] {
            assert!(!s.rsg_scales().is_empty());
            assert!(!s.msg_sizes().is_empty());
            assert!(!s.densities().is_empty());
            let (ranks, nodes) = s.rsg_largest();
            assert_eq!(ranks % nodes, 0);
            let (mr, mn, rpn) = s.moore_scale();
            assert_eq!(mr, mn * rpn);
        }
    }
}
