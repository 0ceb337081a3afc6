//! Paired-sample t-test.
//!
//! The evaluation compares strategies on *the same seeds* (replicate k of
//! Mutex and replicate k of PBPL see the same trace), so the right
//! significance test for "PBPL uses less power than BP" is the paired
//! t-test on the per-seed differences — far more powerful at n = 3 than
//! comparing the two independent confidence intervals.

use crate::ci::{t_critical, ConfidenceLevel};
use crate::descriptive::{mean, sample_std_dev};
use serde::{Deserialize, Serialize};

/// Result of a paired t-test on H₀: mean difference = 0.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PairedTTest {
    /// Mean of the per-pair differences (`a[i] − b[i]`).
    pub mean_difference: f64,
    /// Test statistic `t = d̄ / (s_d / √n)`.
    pub t_statistic: f64,
    /// Degrees of freedom (`n − 1`).
    pub df: u32,
    /// Whether |t| exceeds the two-sided critical value.
    pub significant: bool,
    /// The level tested at.
    pub level: ConfidenceLevel,
}

/// Runs a paired t-test over equal-length samples measured under the same
/// conditions (same seed, different treatment).
///
/// Returns `None` for fewer than two pairs, mismatched lengths, or zero
/// variance with zero mean difference (no information). A zero-variance
/// nonzero difference is reported as trivially significant.
pub fn paired_t_test(a: &[f64], b: &[f64], level: ConfidenceLevel) -> Option<PairedTTest> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let d_mean = mean(&diffs);
    let d_sd = sample_std_dev(&diffs);
    let df = (diffs.len() - 1) as u32;
    if d_sd == 0.0 {
        if d_mean == 0.0 {
            return None;
        }
        return Some(PairedTTest {
            mean_difference: d_mean,
            t_statistic: f64::INFINITY * d_mean.signum(),
            df,
            significant: true,
            level,
        });
    }
    let t = d_mean / (d_sd / (diffs.len() as f64).sqrt());
    Some(PairedTTest {
        mean_difference: d_mean,
        t_statistic: t,
        df,
        significant: t.abs() > t_critical(df, level),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_difference_is_significant() {
        // b is always ~10 below a, tiny noise: paired test must detect it
        // even though the groups overlap heavily.
        let a = [100.0, 200.0, 300.0, 400.0];
        let b = [90.5, 189.8, 290.2, 389.9];
        let t = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        assert!(t.significant, "t = {}", t.t_statistic);
        assert!((t.mean_difference - 9.9).abs() < 0.5);
    }

    #[test]
    fn unpaired_noise_is_not_significant() {
        let a = [100.0, 210.0, 290.0];
        let b = [105.0, 195.0, 300.0];
        let t = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        assert!(!t.significant, "t = {}", t.t_statistic);
    }

    #[test]
    fn identical_samples_are_none() {
        let a = [1.0, 2.0, 3.0];
        assert!(paired_t_test(&a, &a, ConfidenceLevel::P95).is_none());
    }

    #[test]
    fn constant_offset_trivially_significant() {
        let a = [5.0, 6.0, 7.0];
        let b = [4.0, 5.0, 6.0];
        let t = paired_t_test(&a, &b, ConfidenceLevel::P99).unwrap();
        assert!(t.significant);
        assert!(t.t_statistic.is_infinite() && t.t_statistic > 0.0);
    }

    #[test]
    fn sign_of_difference_preserved() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.5, 12.8];
        let t = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        assert!(t.mean_difference < 0.0);
        assert!(t.t_statistic < 0.0);
    }

    #[test]
    fn too_few_or_mismatched_is_none() {
        assert!(paired_t_test(&[1.0], &[2.0], ConfidenceLevel::P95).is_none());
        assert!(paired_t_test(&[1.0, 2.0], &[2.0], ConfidenceLevel::P95).is_none());
    }

    #[test]
    fn df_is_pairs_minus_one() {
        let a = [1.0, 2.5, 3.0, 4.5, 5.0];
        let b = [0.5, 2.0, 3.1, 3.9, 4.0];
        let t = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        assert_eq!(t.df, 4);
        assert_eq!(t.level, ConfidenceLevel::P95);
    }

    #[test]
    fn swapping_the_arms_negates_the_statistic() {
        let a = [100.0, 210.0, 290.0, 405.0];
        let b = [98.0, 200.0, 291.0, 399.0];
        let ab = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        let ba = paired_t_test(&b, &a, ConfidenceLevel::P95).unwrap();
        assert!((ab.t_statistic + ba.t_statistic).abs() < 1e-12);
        assert!((ab.mean_difference + ba.mean_difference).abs() < 1e-12);
        assert_eq!(ab.significant, ba.significant);
    }

    #[test]
    fn p99_is_stricter_than_p95() {
        // Differences {1.0, 1.2, 0.8}: t ≈ 8.66, between t(2) at 95% (4.303)
        // and at 99% (9.925).
        let a = [11.0, 21.2, 30.8];
        let b = [10.0, 20.0, 30.0];
        let t95 = paired_t_test(&a, &b, ConfidenceLevel::P95).unwrap();
        let t99 = paired_t_test(&a, &b, ConfidenceLevel::P99).unwrap();
        assert!((t95.t_statistic - 75f64.sqrt()).abs() < 1e-6);
        assert!(t95.significant);
        assert!(!t99.significant);
    }
}
