//! Descriptive statistics over `f64` samples.
//!
//! Empty inputs return `NaN` rather than panicking so callers can surface
//! "no data" uniformly; single-sample variance is likewise `NaN` (it is
//! undefined with Bessel's correction).

/// Arithmetic mean. `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased (Bessel-corrected) sample variance. `NaN` for fewer than two
/// samples.
pub(crate) fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation. `NaN` for fewer than two samples.
pub(crate) fn sample_std_dev(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Standard error of the mean. `NaN` for fewer than two samples.
pub(crate) fn std_error(xs: &[f64]) -> f64 {
    sample_std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Minimum of the samples. `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum of the samples. `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_known_values() {
        // Var of {2,4,4,4,5,5,7,9} (population 4.0) sample = 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_samples() {
        assert!(sample_variance(&[5.0]).is_nan());
        assert!(sample_std_dev(&[]).is_nan());
    }

    #[test]
    fn std_error_scales_with_n() {
        let xs4 = [1.0, 2.0, 3.0, 4.0];
        let se = std_error(&xs4);
        assert!((se - sample_std_dev(&xs4) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_data_zero_spread() {
        let xs = [3.0; 10];
        assert_eq!(sample_variance(&xs), 0.0);
        assert_eq!(std_error(&xs), 0.0);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 7.5, 0.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 7.5);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn variance_is_shift_invariant() {
        let xs = [1.0, 4.0, 6.0, 9.0];
        let shifted: Vec<f64> = xs.iter().map(|x| x + 1000.0).collect();
        assert!((sample_variance(&xs) - sample_variance(&shifted)).abs() < 1e-9);
        assert!((mean(&shifted) - mean(&xs) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn std_error_undefined_for_one_sample() {
        assert!(std_error(&[2.0]).is_nan());
        assert!(std_error(&[]).is_nan());
    }

    #[test]
    fn min_max_ignore_order_and_agree_on_one_value() {
        assert_eq!(min(&[5.0]), 5.0);
        assert_eq!(max(&[5.0]), 5.0);
        assert_eq!(min(&[9.0, 1.0, 4.0]), min(&[1.0, 4.0, 9.0]));
        assert_eq!(max(&[9.0, 1.0, 4.0]), max(&[4.0, 1.0, 9.0]));
        assert!(max(&[]).is_nan());
    }
}
