//! Order statistics for timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still has
//! at least ten samples beyond it; a fixed-name percentile (`*_p95`) is only
//! reported when the sample supports it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Candidate tail percentiles in per mille, ascending. Per-mille integers keep
/// the rank arithmetic exact.
const LADDER: [usize; 4] = [900, 950, 990, 999];

/// The 95th percentile, in per mille.
pub const P95: usize = 950;

/// Sorts `values` ascending (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `per_mille` in a sample of `n`.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Whether a sample of `n` has at least [`SAMPLES_BEYOND`] values beyond the
/// percentile.
pub fn supports(n: usize, per_mille: usize) -> bool {
    n - rank(n, per_mille).min(n) >= SAMPLES_BEYOND
}

/// The highest ladder percentile a sample of `n` supports, if any.
pub fn highest_supported(n: usize) -> Option<usize> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// The percentile of `values` if the sample supports it, else `None`.
pub fn percentile_if_supported(values: &[f64], per_mille: usize) -> Option<f64> {
    if !supports(values.len(), per_mille) {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    Some(percentile(&sorted, per_mille))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let m = sorted.len();
    if m < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 199 samples leaves 9 beyond; 200 leaves exactly 10.
        assert!(!supports(199, P95));
        assert!(supports(200, P95));
        assert!(!supports(0, P95));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(200), Some(950));
        assert_eq!(highest_supported(1_000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&samples, P95), Some(190.0));
        assert_eq!(percentile_if_supported(&samples[..150], P95), None);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 500), 2.0);
        assert_eq!(percentile(&sorted, 1000), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }
}
