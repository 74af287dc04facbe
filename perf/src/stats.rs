//! Order statistics over timing samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order).
/// Returns 0 for an empty slice so that a layer that did no work reads 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile by the *exclusive* method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes; the acceptance
/// spread of a metric is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let x = values.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest percentile (capped at `cap`) that still has at least ten
/// samples beyond it; `None` when fewer than eleven samples exist.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    if n <= 10 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(cap))
}

/// `(percentile used, value there)` under the ten-samples-beyond rule;
/// `(0, 0)` when the sample is too small to have a tail.
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    match tail_percentile(values.len(), cap) {
        Some(p) => (p, quantile(values, p)),
        None => (0.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10, 0.95), None);
        assert_eq!(tail_percentile(64, 0.95), Some(1.0 - 10.0 / 64.0));
        assert_eq!(tail_percentile(200, 0.95), Some(0.95));
        assert_eq!(tail_percentile(100_000, 0.95), Some(0.95));
        // with 20 samples the tail is the median: ten lie beyond it
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), (0.5, 9.5));
        assert_eq!(tail(&v[..5], 0.95), (0.0, 0.0));
    }
}
