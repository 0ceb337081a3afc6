//! Replicate summaries: the `mean ± CI` presentation every experiment
//! runner prints, mirroring how the paper tabulates its three-replicate
//! measurements.

use crate::ci::{confidence_interval, ConfidenceInterval, ConfidenceLevel};
use crate::descriptive::{max, mean, min, sample_std_dev};
use serde::{Deserialize, Serialize};

/// Summary of one metric across experiment replicates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Metric name, e.g. `"power_mw"`.
    pub name: String,
    /// Raw replicate values.
    pub samples: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (`NaN` for a single replicate).
    pub std_dev: f64,
    /// Minimum replicate.
    pub min: f64,
    /// Maximum replicate.
    pub max: f64,
    /// 95% Student-t confidence interval.
    pub ci95: ConfidenceInterval,
}

impl Summary {
    /// Summarises a set of replicate measurements.
    pub fn of(name: impl Into<String>, samples: &[f64]) -> Self {
        Summary {
            name: name.into(),
            samples: samples.to_vec(),
            mean: mean(samples),
            std_dev: sample_std_dev(samples),
            min: min(samples),
            max: max(samples),
            ci95: confidence_interval(samples, ConfidenceLevel::P95),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.3} ± {:.3} (n={}, min {:.3}, max {:.3})",
            self.name,
            self.mean,
            self.ci95.half_width,
            self.samples.len(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_fields() {
        let s = Summary::of("power", &[10.0, 12.0, 11.0]);
        assert_eq!(s.mean, 11.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 12.0);
        assert_eq!(s.samples.len(), 3);
        assert!(s.ci95.half_width > 0.0);
    }

    #[test]
    fn display_contains_name_and_n() {
        let s = Summary::of("wakeups", &[5.0, 7.0]);
        let text = s.to_string();
        assert!(text.contains("wakeups"));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn single_replicate_has_undefined_spread() {
        let s = Summary::of("power", &[4.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert!(s.std_dev.is_nan());
        assert!(s.ci95.half_width.is_nan());
    }

    #[test]
    fn interval_is_centred_on_the_mean_at_95_percent() {
        let s = Summary::of("latency", &[3.0, 5.0, 10.0]);
        assert_eq!(s.ci95.mean, s.mean);
        assert_eq!(s.ci95.level, ConfidenceLevel::P95);
    }

    #[test]
    fn std_dev_is_the_bessel_corrected_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::of("x", &xs);
        assert_eq!(s.std_dev, sample_std_dev(&xs));
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn display_rounds_every_figure_to_three_decimals() {
        // Two replicates: se = 0.5, t(1, 95%) = 12.706.
        let s = Summary::of("p", &[1.0, 2.0]);
        assert_eq!(
            s.to_string(),
            "p: 1.500 ± 6.353 (n=2, min 1.000, max 2.000)"
        );
    }
}
