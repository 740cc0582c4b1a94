//! The harness's own order statistics, so a change to `mdbs-simkit`'s
//! `SampleStats` can never move the yardstick it is measured with.

/// Sort a sample for the quantile helpers.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs
}

/// The `p`-quantile of an ascending sample by linear interpolation at
/// position `p·(n+1)`, the rule Python's `statistics.quantiles` uses, so
/// the quartiles printed here agree with the ones the noise study
/// computes from the result lines.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = (p * (sorted.len() + 1) as f64 - 1.0).clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles `(q1, median, q3)` of an ascending sample.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    (
        quantile(sorted, 0.25),
        quantile(sorted, 0.5),
        quantile(sorted, 0.75),
    )
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// ten samples must lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports_percentile(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        assert_eq!(quantile(&sorted(vec![3.0, 1.0, 2.0]), 0.5), 2.0);
        assert_eq!(quantile(&sorted(vec![4.0, 1.0, 2.0, 3.0]), 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert!(!supports_percentile(224, 0.99));
        assert!(supports_percentile(224, 0.95));
    }
}
