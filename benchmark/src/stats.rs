//! Order statistics: the percentile-support rule, nearest-rank
//! percentiles, and quartiles as Python's `statistics.quantiles` gives them
//! (the form the benchmark's repeatability check is stated in).

/// How many samples lie strictly beyond the nearest-rank percentile `p`
/// (0 < p < 1) of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it — the only tail a sample of `n` supports. `None`
/// below 20 samples, where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 0.99 × 1000, which binary floats
    // put a hair above 990, from rounding up a whole rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    values
}

/// Median with the even-count midpoint, as `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `[q1, q2, q3]` exactly as `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them. Needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 needs 100 samples: 99 leave only 9 beyond the 90th rank.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(99), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(110), Some(0.90));
        assert_eq!(highest_supported(999), Some(0.90));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(400_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }
}
