//! Order statistics for the benchmark's reports.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported: a p90 needs at least 100 samples.
pub const TAIL_SAMPLES: usize = 10;

/// The median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p` percentile of `values`, reported only when at
/// least [`TAIL_SAMPLES`] samples lie above it; `None` otherwise.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return None;
    }
    Some(v[rank - 1])
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Geometric mean of positive `values`, or `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_nearest_rank_and_needs_a_hundred_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(
            tail_percentile(&v[..99], 0.9),
            None,
            "99 samples leave 9 above"
        );
        let w: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 0.9), Some(180.0));
        assert_eq!(
            tail_percentile(&w, 0.99),
            None,
            "2 samples above p99 of 200"
        );
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_and_ratio() {
        let g = geomean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
