//! Student-t confidence intervals.
//!
//! The paper runs 3 replicates of every experiment and reports 95%
//! confidence intervals (§III-B); the wakeup-effect hypothesis is accepted
//! at 99% (§III-C). With n = 3 the normal-approximation interval would be
//! badly anti-conservative, so we use the Student-t critical values. The
//! table below covers the degrees of freedom any of our experiments can
//! produce; intermediate values interpolate conservatively (next lower df).

use crate::descriptive::{mean, std_error};
use serde::{Deserialize, Serialize};

/// Supported confidence levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfidenceLevel {
    /// 95% two-sided.
    P95,
    /// 99% two-sided.
    P99,
}

/// Two-sided Student-t critical values, indexed by degrees of freedom.
/// Rows: df 1..=30, then 40, 60, 120, ∞.
const T_95: [(u32, f64); 34] = [
    (1, 12.706),
    (2, 4.303),
    (3, 3.182),
    (4, 2.776),
    (5, 2.571),
    (6, 2.447),
    (7, 2.365),
    (8, 2.306),
    (9, 2.262),
    (10, 2.228),
    (11, 2.201),
    (12, 2.179),
    (13, 2.160),
    (14, 2.145),
    (15, 2.131),
    (16, 2.120),
    (17, 2.110),
    (18, 2.101),
    (19, 2.093),
    (20, 2.086),
    (21, 2.080),
    (22, 2.074),
    (23, 2.069),
    (24, 2.064),
    (25, 2.060),
    (26, 2.056),
    (27, 2.052),
    (28, 2.048),
    (29, 2.045),
    (30, 2.042),
    (40, 2.021),
    (60, 2.000),
    (120, 1.980),
    (u32::MAX, 1.960),
];

const T_99: [(u32, f64); 34] = [
    (1, 63.657),
    (2, 9.925),
    (3, 5.841),
    (4, 4.604),
    (5, 4.032),
    (6, 3.707),
    (7, 3.499),
    (8, 3.355),
    (9, 3.250),
    (10, 3.169),
    (11, 3.106),
    (12, 3.055),
    (13, 3.012),
    (14, 2.977),
    (15, 2.947),
    (16, 2.921),
    (17, 2.898),
    (18, 2.878),
    (19, 2.861),
    (20, 2.845),
    (21, 2.831),
    (22, 2.819),
    (23, 2.807),
    (24, 2.797),
    (25, 2.787),
    (26, 2.779),
    (27, 2.771),
    (28, 2.763),
    (29, 2.756),
    (30, 2.750),
    (40, 2.704),
    (60, 2.660),
    (120, 2.617),
    (u32::MAX, 2.576),
];

/// The two-sided Student-t critical value for the given degrees of freedom.
///
/// For df between table rows the next *smaller* tabulated df is used, which
/// errs on the conservative (wider-interval) side. Panics if `df == 0`.
pub(crate) fn t_critical(df: u32, level: ConfidenceLevel) -> f64 {
    assert!(df > 0, "t-distribution needs at least 1 degree of freedom");
    let table: &[(u32, f64)] = match level {
        ConfidenceLevel::P95 => &T_95,
        ConfidenceLevel::P99 => &T_99,
    };
    // Pick the largest tabulated df that does not exceed the requested df;
    // a lower df gives a larger critical value, i.e. a wider interval.
    let mut result = table[0].1;
    for &(d, t) in table {
        if d <= df {
            result = t;
        } else {
            break;
        }
    }
    result
}

/// A `mean ± half_width` interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Level the interval was computed at.
    pub level: ConfidenceLevel,
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.half_width)
    }
}

/// Computes a Student-t confidence interval over replicate measurements.
///
/// With a single sample the half-width is reported as `NaN` (unknown
/// spread), matching [`std_error`]'s behaviour.
pub(crate) fn confidence_interval(samples: &[f64], level: ConfidenceLevel) -> ConfidenceInterval {
    let m = mean(samples);
    if samples.len() < 2 {
        return ConfidenceInterval {
            mean: m,
            half_width: f64::NAN,
            level,
        };
    }
    let se = std_error(samples);
    let t = t_critical(samples.len() as u32 - 1, level);
    ConfidenceInterval {
        mean: m,
        half_width: t * se,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_exact_rows() {
        assert_eq!(t_critical(2, ConfidenceLevel::P95), 4.303);
        assert_eq!(t_critical(30, ConfidenceLevel::P95), 2.042);
        assert_eq!(t_critical(2, ConfidenceLevel::P99), 9.925);
    }

    #[test]
    fn t_table_interpolation_is_conservative() {
        // df=35 should use the df=30 row (wider), not df=40.
        assert_eq!(t_critical(35, ConfidenceLevel::P95), 2.042);
        // df=1000 uses the df=120 row... no: uses largest row ≤ df that is
        // tabulated, i.e. 120 → 1.980.
        assert_eq!(t_critical(1000, ConfidenceLevel::P95), 1.980);
    }

    #[test]
    fn huge_df_approaches_normal() {
        assert_eq!(t_critical(u32::MAX, ConfidenceLevel::P95), 1.960);
        assert_eq!(t_critical(u32::MAX, ConfidenceLevel::P99), 2.576);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn zero_df_panics() {
        t_critical(0, ConfidenceLevel::P95);
    }

    #[test]
    fn three_replicates_known_interval() {
        // The paper's protocol: n = 3. samples {1,2,3}: mean 2, sd 1,
        // se 1/sqrt(3), t(df=2, 95%) = 4.303.
        let ci = confidence_interval(&[1.0, 2.0, 3.0], ConfidenceLevel::P95);
        assert_eq!(ci.mean, 2.0);
        let expected = 4.303 / 3f64.sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn p99_wider_than_p95() {
        let xs = [10.0, 12.0, 11.0, 13.0, 9.5];
        let w95 = confidence_interval(&xs, ConfidenceLevel::P95).half_width;
        let w99 = confidence_interval(&xs, ConfidenceLevel::P99).half_width;
        assert!(w99 > w95);
    }

    #[test]
    fn constant_samples_zero_width() {
        let ci = confidence_interval(&[7.0; 5], ConfidenceLevel::P95);
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn single_sample_unknown_width() {
        let ci = confidence_interval(&[5.0], ConfidenceLevel::P95);
        assert_eq!(ci.mean, 5.0);
        assert!(ci.half_width.is_nan());
    }

    #[test]
    fn display_shows_mean_and_half_width() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
            level: ConfidenceLevel::P95,
        };
        assert_eq!(ci.to_string(), "10.000 ± 2.000");
    }

    #[test]
    fn more_replicates_of_the_same_spread_narrow_the_interval() {
        let three = confidence_interval(&[1.0, 2.0, 3.0], ConfidenceLevel::P95);
        let six = confidence_interval(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], ConfidenceLevel::P95);
        assert_eq!(three.mean, six.mean);
        assert!(six.half_width < three.half_width);
    }

    #[test]
    fn interval_records_its_level() {
        let ci = confidence_interval(&[1.0, 2.0], ConfidenceLevel::P99);
        assert_eq!(ci.level, ConfidenceLevel::P99);
        assert!((ci.half_width - 63.657 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn critical_value_never_grows_with_df() {
        for level in [ConfidenceLevel::P95, ConfidenceLevel::P99] {
            let mut prev = f64::INFINITY;
            for df in 1..500 {
                let t = t_critical(df, level);
                assert!(t <= prev, "df {df}: {t} > {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn p99_critical_value_exceeds_p95_at_every_df() {
        for df in (1..200).chain([u32::MAX]) {
            assert!(t_critical(df, ConfidenceLevel::P99) > t_critical(df, ConfidenceLevel::P95));
        }
    }
}
