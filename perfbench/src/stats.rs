//! Order statistics for the benchmark's timings.

/// Percentiles the tail of a timing may be reported at, lowest first. The
/// ladder is coarse on purpose: a run that completes a few more or fewer
/// rounds than the last one lands on the same rung, so the tail metric
/// compares like with like across runs. There is no p99 rung: on a shared
/// disk the p99 of fsync-bound rounds moved by a quarter between runs,
/// which would hide any real regression.
pub const TAIL_LADDER: [f64; 3] = [50.0, 90.0, 99.9];

/// Samples a reported percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count), `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`, `NaN` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples strictly above the `p`-th percentile position of `n` samples:
/// the `n - ceil(n * p / 100)` largest ones.
pub fn beyond(n: usize, p: f64) -> usize {
    // Integer per-mille arithmetic: `n * 99.9 / 100` in floating point can
    // land a hair above an integer and lose a sample to `ceil`.
    let per_mille = (p * 10.0).round() as usize;
    n - (n * per_mille).div_ceil(1000)
}

/// The highest rung of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// would not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// The tail of samples taken in segments, as `(percentile, value)`. The
/// percentile is the rule of [`tail_percentile`] over all samples (100, the
/// maximum, below 20 samples). The value is the median over segments of
/// that percentile within each segment: a burst of load from outside the
/// benchmark that covers a few segments does not move it, where it would
/// move the same percentile taken over the pooled samples.
pub fn segmented_tail(segments: &[&[f64]]) -> (f64, f64) {
    let n = segments.iter().map(|s| s.len()).sum();
    let p = tail_percentile(n).unwrap_or(100.0);
    let per_segment: Vec<f64> = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p))
        .collect();
    (p, median(&per_segment))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 0..5_000 {
            match tail_percentile(n) {
                Some(p) => {
                    assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                    // No higher rung would also qualify.
                    for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                        assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} q={q}");
                    }
                }
                None => assert!(n < 20, "n={n} must qualify for the median"),
            }
        }
    }

    #[test]
    fn tail_rungs_at_their_boundaries() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(9_999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_value_is_the_interpolated_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = segmented_tail(&[&values]);
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        assert_eq!(segmented_tail(&[&[5.0, 7.0]]), (100.0, 7.0));
    }

    #[test]
    fn segmented_tail_ignores_a_minority_of_slow_segments() {
        let calm: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.1).collect();
        let slow: Vec<f64> = calm.iter().map(|v| v * 3.0).collect();
        let mut segments: Vec<&[f64]> = vec![&calm; 8];
        segments.extend([slow.as_slice(), slow.as_slice()]);
        let (p, v) = segmented_tail(&segments);
        // 100 samples pick p90; the two slow segments do not count.
        assert_eq!(p, 90.0);
        assert!((v - percentile(&calm, 90.0)).abs() < 1e-9, "{v}");
    }
}
