//! Ordinary least squares on one predictor.
//!
//! Used by the evaluation to fit wakeups→power trend lines (the paper's
//! claim is that wakeups/s is "the stronger deciding factor affecting
//! power" among the idle-based implementations).

use serde::{Deserialize, Serialize};

/// Result of a simple linear regression `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination (fraction of variance explained).
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

/// Fits `y = slope·x + intercept` by least squares.
///
/// Returns `None` for fewer than two points or a constant predictor.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0 // constant y is fitted exactly by slope 0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
        n: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.98 && fit.r_squared < 1.0);
        assert!((fit.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn constant_x_rejected() {
        assert!(linear_fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn constant_y_fits_flat_line() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn point_count_recorded() {
        let fit = linear_fit(&[0.0, 1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!(fit.n, 5);
    }

    #[test]
    fn fitted_line_passes_through_the_centroid() {
        let xs = [1.0, 2.0, 4.0, 7.0];
        let ys = [3.0, 1.0, 6.0, 5.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        let (mx, my) = (14.0 / 4.0, 15.0 / 4.0);
        assert!((fit.slope * mx + fit.intercept - my).abs() < 1e-12);
    }

    #[test]
    fn negative_slope_recovered() {
        let xs = [0.0, 2.0, 4.0];
        let ys = [10.0, 6.0, 2.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
        assert!((fit.intercept - 10.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_order_does_not_change_the_fit() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let a = linear_fit(&xs, &ys).unwrap();
        let rx: Vec<f64> = xs.iter().rev().copied().collect();
        let ry: Vec<f64> = ys.iter().rev().copied().collect();
        let b = linear_fit(&rx, &ry).unwrap();
        assert!((a.slope - b.slope).abs() < 1e-12);
        assert!((a.intercept - b.intercept).abs() < 1e-12);
        assert!((a.r_squared - b.r_squared).abs() < 1e-12);
    }
}
