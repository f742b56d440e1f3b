//! Order statistics: medians, percentiles, quartiles and the rule for which
//! percentile a sample can support.

/// Percentiles the benchmark may report, highest first.
pub const CANDIDATE_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile is only worth reporting when at least this many samples lie
/// beyond it; below that it is a handful of outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Number of samples strictly beyond the `percentile`-th of `count` samples.
pub fn samples_beyond(percentile: f64, count: usize) -> f64 {
    count as f64 * (100.0 - percentile) / 100.0
}

/// True when `count` samples leave at least ten beyond `percentile`.
pub fn supported(percentile: f64, count: usize) -> bool {
    // The small tolerance keeps 1000 samples × 1 % = 10 from failing on
    // floating-point dust.
    samples_beyond(percentile, count) + 1e-9 >= MIN_SAMPLES_BEYOND
}

/// The highest candidate percentile that `count` samples support, or `None`
/// when even the median has fewer than ten samples beyond it.
pub fn highest_supported(count: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .copied()
        .find(|p| supported(*p, count))
}

/// The `percentile`-th value of an ascending slice (nearest-rank on
/// `(n - 1) * p`, rounded), 0.0 for an empty one.
pub fn percentile_sorted(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * percentile / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
}

/// Median of an unsorted sample (mean of the two middle values when even),
/// 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean, 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance rule for the run-to-run spread is written against. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let cut = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let scaled = k * (n + 1);
        let index = (scaled / 4).clamp(1, n - 1);
        let fraction = (scaled as f64 / 4.0) - index as f64;
        sorted[index - 1] + (sorted[index] - sorted[index - 1]) * fraction
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median: the run-to-run spread of
/// one metric. 0.0 when it cannot be computed.
pub fn spread_share(values: &[f64]) -> f64 {
    let centre = median(values);
    match quartiles(values) {
        Some((q1, q3)) if centre != 0.0 => (q3 - q1) / centre.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 420 samples (fanout_ack): 1 % is 4.2 samples, 5 % is 21.
        assert!(!supported(99.0, 420));
        assert!(supported(95.0, 420));
        assert_eq!(highest_supported(420), Some(95.0));
        // Exactly ten beyond the 99th at 1000 samples.
        assert!(supported(99.0, 1000));
        assert!(!supported(99.0, 999));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        // 25 failures support the median only; 19 samples support nothing.
        assert_eq!(highest_supported(25), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn percentile_and_median_pick_the_expected_ranks() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 51.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 101.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread_share(&values) - 1.0).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0]), 0.0);
    }
}
