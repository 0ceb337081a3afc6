//! Pearson correlation and its significance test.
//!
//! §III-C of the paper reports: a weak +12% correlation between CPU usage
//! and power once BW/Yield are excluded, a strong +74% correlation between
//! wakeups/s and power among the five idle-based implementations, −79.6%
//! across all seven, and a hypothesis test — *"wakeups have a significant
//! effect on power"* — accepted at 99% confidence. The `analysis` sweep
//! family regenerates those numbers with these functions.

use crate::ci::{t_critical, ConfidenceLevel};
use serde::{Deserialize, Serialize};

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `NaN` when fewer than two points are given, when lengths
/// differ, or when either variable is constant (undefined correlation).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return f64::NAN;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Outcome of testing H₀: ρ = 0 against H₁: ρ ≠ 0.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CorrelationTest {
    /// Sample correlation.
    pub r: f64,
    /// Test statistic `t = r·sqrt((n−2)/(1−r²))`.
    pub t_statistic: f64,
    /// Degrees of freedom (`n − 2`).
    pub df: u32,
    /// Whether |t| exceeds the two-sided critical value at the level.
    pub significant: bool,
    /// Level the test was run at.
    pub level: ConfidenceLevel,
}

/// Tests whether a sample correlation is significantly different from
/// zero, using the exact t-test for Pearson's r.
///
/// Returns `None` when the test is undefined (fewer than 3 points,
/// constant input, or |r| = 1 exactly — in the last case significance is
/// trivially reported instead).
pub fn correlation_significance(
    xs: &[f64],
    ys: &[f64],
    level: ConfidenceLevel,
) -> Option<CorrelationTest> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return None;
    }
    let r = pearson(xs, ys);
    if r.is_nan() {
        return None;
    }
    let df = (xs.len() - 2) as u32;
    if (1.0 - r * r) <= f64::EPSILON {
        // Perfect correlation: infinitely significant.
        return Some(CorrelationTest {
            r,
            t_statistic: f64::INFINITY,
            df,
            significant: true,
            level,
        });
    }
    let t = r * ((df as f64) / (1.0 - r * r)).sqrt();
    let crit = t_critical(df, level);
    Some(CorrelationTest {
        r,
        t_statistic: t,
        df,
        significant: t.abs() > crit,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [9.0, 6.0, 3.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_is_near_zero() {
        // Orthogonal patterns.
        let xs = [1.0, -1.0, 1.0, -1.0];
        let ys = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn constant_input_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[2.0, 3.0, 4.0]).is_nan());
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_nan());
    }

    #[test]
    fn known_textbook_value() {
        // Anscombe-like small set: r computed independently.
        let xs = [43.0, 21.0, 25.0, 42.0, 57.0, 59.0];
        let ys = [99.0, 65.0, 79.0, 75.0, 87.0, 81.0];
        let r = pearson(&xs, &ys);
        assert!((r - 0.5298).abs() < 1e-3, "r = {r}");
    }

    #[test]
    fn significance_of_strong_correlation() {
        // 10 nearly-collinear points must be significant at 99%.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + (x % 2.0) * 0.1).collect();
        let test = correlation_significance(&xs, &ys, ConfidenceLevel::P99).unwrap();
        assert!(test.r > 0.99);
        assert!(test.significant);
    }

    #[test]
    fn significance_of_noise_rejected() {
        // A deliberately patternless small sample: not significant.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys = [2.0, -1.0, 3.0, 0.5, 2.5, 0.0];
        let test = correlation_significance(&xs, &ys, ConfidenceLevel::P95).unwrap();
        assert!(!test.significant, "r={} t={}", test.r, test.t_statistic);
    }

    #[test]
    fn perfect_correlation_reports_infinite_t() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0];
        let test = correlation_significance(&xs, &ys, ConfidenceLevel::P99).unwrap();
        assert!(test.t_statistic.is_infinite());
        assert!(test.significant);
    }

    #[test]
    fn too_few_points_is_none() {
        assert!(correlation_significance(&[1.0, 2.0], &[1.0, 2.0], ConfidenceLevel::P95).is_none());
    }

    #[test]
    fn pearson_is_symmetric() {
        let xs = [43.0, 21.0, 25.0, 42.0, 57.0, 59.0];
        let ys = [99.0, 65.0, 79.0, 75.0, 87.0, 81.0];
        assert!((pearson(&xs, &ys) - pearson(&ys, &xs)).abs() < 1e-12);
    }

    #[test]
    fn pearson_ignores_positive_affine_rescaling() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 6.0];
        let scaled: Vec<f64> = xs.iter().map(|x| 7.0 * x - 3.0).collect();
        assert!((pearson(&xs, &ys) - pearson(&scaled, &ys)).abs() < 1e-12);
        let flipped: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &ys) + pearson(&flipped, &ys)).abs() < 1e-12);
    }

    #[test]
    fn significance_df_is_points_minus_two() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.2, 1.9, 3.4, 3.9, 5.3];
        let test = correlation_significance(&xs, &ys, ConfidenceLevel::P95).unwrap();
        assert_eq!(test.df, 3);
        assert_eq!(test.level, ConfidenceLevel::P95);
        let expected = test.r * (3.0 / (1.0 - test.r * test.r)).sqrt();
        assert!((test.t_statistic - expected).abs() < 1e-9);
    }

    #[test]
    fn significance_rejects_mismatched_or_constant_input() {
        let p = ConfidenceLevel::P95;
        assert!(correlation_significance(&[1.0, 2.0, 3.0], &[1.0, 2.0], p).is_none());
        assert!(correlation_significance(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0], p).is_none());
    }
}
