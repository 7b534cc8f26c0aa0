//! The few statistics the benchmark reports.

/// Sorts `values` and returns them (NaN-free inputs only).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of ascending `sorted` values, `p` in `0..=1`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method) — what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let m = s.len();
    assert!(m >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the driver's spread.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 55.0);
        assert_eq!(percentile(&v, 0.9), 99.0);
        assert_eq!(percentile(&v, 1.0), 110.0);
    }
}
