//! Sample statistics: nearest-rank percentiles of block times and the
//! quartiles the acceptance rule is written in.

/// Nearest-rank percentile of `samples` (need not be sorted); 0 for an
/// empty slice. Delegates to the estimator the service reports with.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    nhood_telemetry::percentile(samples, p).unwrap_or(0)
}

/// The percentile every timing metric is read at (nearest rank), over
/// times already converted to the nominal host. Interference only ever
/// adds time, so a low percentile estimates the undisturbed time; with
/// the 300 steady blocks every window holds at least, 15 samples lie
/// below it, so no single lucky block decides the metric.
pub const LOW_PERCENTILE: f64 = 5.0;

/// [`LOW_PERCENTILE`] of `samples`; 0 for an empty slice.
pub fn low(samples: &[u64]) -> u64 {
    percentile(samples, LOW_PERCENTILE)
}

/// Median by nearest rank.
pub fn median_u64(samples: &[u64]) -> u64 {
    percentile(samples, 50.0)
}

/// Median of floats by nearest rank; 0 for an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Arithmetic mean; 0 for an empty sequence.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0usize), |(sum, n), x| (sum + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let ld = data.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Signed: a clamped cut point extrapolates, as Python's does.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    Some(if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=100: the p-th percentile by nearest rank is p itself.
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 5.0), 5);
        assert_eq!(median_u64(&v), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(low(&v), 5);
        // 20 samples (100 down to 81): rank ceil(0.05 * 20) = 1 -> the minimum.
        v.truncate(20);
        assert_eq!(percentile(&v, 5.0), 81);
        // 21 samples: rank ceil(1.05) = 2 -> the second smallest.
        let w: Vec<u64> = (10..31).collect();
        assert_eq!(percentile(&w, 5.0), 11);
        assert_eq!(percentile(&w, 99.0), 30);
        assert_eq!((percentile(&[], 5.0), low(&[])), (0, 0));
        assert_eq!(
            (median_f64(&[3.0, 1.0, 2.0]), median_f64(&[4.0, 1.0]), median_f64(&[])),
            (2.0, 1.0, 0.0)
        );
        assert_eq!(percentile(&[42], 5.0), 42);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
