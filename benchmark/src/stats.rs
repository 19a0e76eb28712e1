//! Order statistics used by every number the benchmark reports.

/// Sorted copy of `values`.
///
/// # Panics
/// Panics on a NaN: a timing or count that is not a number is a bug in
/// the benchmark, not data.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in benchmark samples"));
    v
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile (`pct` in 0–100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile every time is quoted at. The box is a shared VM: for
/// seconds at a time the host takes a fifth or more of its throughput
/// away, so medians swing 20–200 % from run to run while the lower
/// decile — the calls that ran undisturbed — holds to a few percent.
pub const QUIET_PCT: f64 = 10.0;

/// Percentiles a tail may be reported at, highest first, each with the
/// share of samples beyond it in parts per thousand.
const TAIL_LADDER: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `samples` beyond it, or `None` when even p75 has fewer.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map(|(pct, _)| pct)
}

/// Quartiles `(q1, q2, q3)` as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so a spread computed here is the
/// spread the driver computes.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let m = v.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range of `values` as a share of their median: the
/// run-to-run spread the driver holds against each metric's bound.
/// Fewer than two samples have no spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn median_of_reps_ignores_one_swallowed_rep() {
        // One rep landed in a noise burst: the median does not move.
        assert_eq!(median(&[6.4, 7.3, 6.9, 20.2, 6.8]), 6.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 2, 7, 4, 30], n=4) == [3.0, 7.0, 20.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 30.0]), (3.0, 7.0, 20.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
