//! Order statistics used by the harness and by `compare`.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is the rule the
//! acceptance check of a run set is written against.

/// Sorted copy (NaNs last; the harness never produces them on purpose).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median: mean of the two middle values for an even count. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest value with at
/// least `p` % of the sample at or below it. 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Needs two values; a single value is returned for all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m == 0 {
        return (0.0, 0.0, 0.0);
    }
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 20 samples: p95 is the 19th.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 19.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
