//! The benchmark's own statistics: medians, quartiles, geometric means,
//! windowed rates and a tail percentile that refuses thin tails.

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match the ones a reader recomputes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        ld => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Geometric mean of positive values; `NaN` when empty or any value is not
/// positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Per-window rates from cumulative samples `(seconds, count)` taken at
/// window boundaries: `(count_i - count_{i-1}) / (t_i - t_{i-1})`. Windows
/// of zero length are skipped.
pub fn window_rates(samples: &[(f64, u64)]) -> Vec<f64> {
    samples
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect()
}

/// Fewest samples a tail percentile is reported from.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The `p` percentile (`0 < p < 1`, nearest rank) of `values`, or `None`
/// when the sample cannot support it: fewer than [`MIN_TAIL_SAMPLES`]
/// values, or fewer than ten values beyond the percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    // Nearest rank; the small offset keeps 0.9 * 100 at rank 90.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < MIN_TAIL_SAMPLES || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-9);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn window_rates_use_each_window_length() {
        let samples = [(0.0, 0), (1.0, 100), (3.0, 500), (3.0, 500), (3.5, 600)];
        assert_eq!(window_rates(&samples), vec![100.0, 200.0, 200.0]);
        assert!(window_rates(&[(0.0, 7)]).is_empty());
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), None, "below 40 samples");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.99), None, "one sample beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
    }
}
