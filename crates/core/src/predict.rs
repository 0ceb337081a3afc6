//! Production-rate predictors (§V-C "Prediction").
//!
//! "The consumer attempts to predict the rate of items produced by the
//! producer based on the recent past. We use a moving average estimation
//! …  The reason for selecting the moving average is the simplicity of
//! its calculation, imposing very low overhead."
//!
//! [`MovingAverage`] is the paper's estimator; [`Ewma`] is the cheaper
//! fixed-memory variant; [`Kalman`] implements the paper's named future
//! work ("we are currently working on … using Kalman filter for
//! estimating producer rate with better accuracy", §VIII). All three are
//! compared by the `analysis` sweep family's PBPL ablations.

use pc_sim::SimDuration;
use std::collections::VecDeque;

/// An online estimator of a producer's item rate (items/second).
pub trait RatePredictor: Send {
    /// Records that `items` arrived during the `dt` preceding this call —
    /// the paper's rⱼ = |γᵢ(τⱼ₋₁, τⱼ)| / (τⱼ − τⱼ₋₁). Zero-length
    /// intervals are ignored.
    fn observe(&mut self, items: u64, dt: SimDuration);

    /// The predicted upcoming rate r̂, items/second. Implementations
    /// return a configured prior before the first observation.
    fn rate(&self) -> f64;

    /// Clears learned state back to the prior.
    fn reset(&mut self);
}

/// Final output guard shared by every estimator: a rate must be finite
/// and non-negative. NaN/∞ — only reachable through pathological
/// accumulated state — degrade to zero, which planners already treat as
/// "no signal" (they keep their current allocation).
fn sanitize(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.max(0.0)
    } else {
        0.0
    }
}

/// The paper's h-step moving average:
/// r̂ᵢ₊₁ = (Σⱼ₌ᵢ₋ₕ₊₁..ᵢ rⱼ) / h.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    history: usize,
    window: VecDeque<f64>,
    sum: f64,
    prior: f64,
}

impl MovingAverage {
    /// A moving average over the last `history` observed rates, returning
    /// `prior` until the first observation.
    ///
    /// Panics if `history == 0`.
    pub fn new(history: usize, prior: f64) -> Self {
        assert!(history > 0, "moving average needs history ≥ 1");
        MovingAverage {
            history,
            window: VecDeque::with_capacity(history),
            sum: 0.0,
            prior,
        }
    }
}

impl RatePredictor for MovingAverage {
    fn observe(&mut self, items: u64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let r = items as f64 / dt.as_secs_f64();
        if !r.is_finite() {
            return;
        }
        if self.window.len() == self.history {
            self.sum -= self.window.pop_front().expect("window is full");
        }
        self.window.push_back(r);
        self.sum += r;
    }

    fn rate(&self) -> f64 {
        if self.window.is_empty() {
            sanitize(self.prior)
        } else {
            sanitize(self.sum / self.window.len() as f64)
        }
    }

    fn reset(&mut self) {
        self.window.clear();
        self.sum = 0.0;
    }
}

/// Exponentially weighted moving average:
/// r̂ ← α·r + (1−α)·r̂.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    estimate: Option<f64>,
    prior: f64,
}

impl Ewma {
    /// EWMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64, prior: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            alpha,
            estimate: None,
            prior,
        }
    }
}

impl RatePredictor for Ewma {
    fn observe(&mut self, items: u64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let r = items as f64 / dt.as_secs_f64();
        if !r.is_finite() {
            return;
        }
        self.estimate = Some(match self.estimate {
            None => r,
            Some(prev) => self.alpha * r + (1.0 - self.alpha) * prev,
        });
    }

    fn rate(&self) -> f64 {
        sanitize(self.estimate.unwrap_or(self.prior))
    }

    fn reset(&mut self) {
        self.estimate = None;
    }
}

/// A scalar Kalman filter over the rate (the paper's §VIII future work).
/// State: x = rate; random-walk process model with variance `q` per
/// observation; measurement noise variance `r`.
#[derive(Debug, Clone)]
pub struct Kalman {
    q: f64,
    r: f64,
    x: Option<f64>,
    p: f64,
    prior: f64,
}

impl Kalman {
    /// Kalman filter with process noise `q` and measurement noise `r`
    /// (both variances, in (items/s)²).
    pub fn new(q: f64, r: f64, prior: f64) -> Self {
        assert!(q > 0.0 && r > 0.0, "noise variances must be positive");
        Kalman {
            q,
            r,
            x: None,
            p: 1.0,
            prior,
        }
    }

    /// Current error variance estimate.
    #[cfg(test)]
    fn variance(&self) -> f64 {
        self.p
    }
}

impl RatePredictor for Kalman {
    fn observe(&mut self, items: u64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let z = items as f64 / dt.as_secs_f64();
        if !z.is_finite() {
            return;
        }
        match self.x {
            None => {
                self.x = Some(z);
                self.p = self.r;
            }
            Some(x) => {
                // Predict: random walk.
                let p = self.p + self.q;
                // Update.
                let k = p / (p + self.r);
                self.x = Some(x + k * (z - x));
                self.p = (1.0 - k) * p;
            }
        }
    }

    fn rate(&self) -> f64 {
        sanitize(self.x.unwrap_or(self.prior))
    }

    fn reset(&mut self) {
        self.x = None;
        self.p = 1.0;
    }
}

/// Holt's double-exponential smoothing: tracks level *and trend*, so a
/// steadily ramping producer (e.g. the rising edge of a flash crowd) is
/// extrapolated instead of lagged. `alpha` smooths the level, `beta` the
/// trend.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
    prior: f64,
}

impl Holt {
    /// Holt smoothing with level factor `alpha` and trend factor `beta`,
    /// both in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64, prior: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Holt {
            alpha,
            beta,
            level: None,
            trend: 0.0,
            prior,
        }
    }
}

impl RatePredictor for Holt {
    fn observe(&mut self, items: u64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let z = items as f64 / dt.as_secs_f64();
        if !z.is_finite() {
            return;
        }
        match self.level {
            None => {
                self.level = Some(z);
                self.trend = 0.0;
            }
            Some(prev_level) => {
                let level = self.alpha * z + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }

    fn rate(&self) -> f64 {
        match self.level {
            // One-step-ahead forecast: level + trend.
            Some(level) => sanitize(level + self.trend),
            None => sanitize(self.prior),
        }
    }

    fn reset(&mut self) {
        self.level = None;
        self.trend = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn feed(p: &mut dyn RatePredictor, rates: &[f64]) {
        for &r in rates {
            // 10ms windows: items = r * 0.01.
            p.observe((r * 0.01).round() as u64, ms(10));
        }
    }

    #[test]
    fn moving_average_matches_paper_formula() {
        let mut ma = MovingAverage::new(3, 0.0);
        feed(&mut ma, &[1000.0, 2000.0, 3000.0, 4000.0]);
        // Last 3: (2000+3000+4000)/3.
        assert!((ma.rate() - 3000.0).abs() < 1.0, "rate {}", ma.rate());
    }

    #[test]
    fn moving_average_partial_window() {
        let mut ma = MovingAverage::new(5, 0.0);
        feed(&mut ma, &[1000.0, 3000.0]);
        assert!((ma.rate() - 2000.0).abs() < 1.0);
    }

    #[test]
    fn prior_used_before_observations() {
        let ma = MovingAverage::new(3, 1234.0);
        assert_eq!(ma.rate(), 1234.0);
        let ew = Ewma::new(0.5, 777.0);
        assert_eq!(ew.rate(), 777.0);
        let k = Kalman::new(1.0, 1.0, 42.0);
        assert_eq!(k.rate(), 42.0);
    }

    #[test]
    fn zero_dt_ignored() {
        let mut ma = MovingAverage::new(2, 500.0);
        ma.observe(100, SimDuration::ZERO);
        assert_eq!(ma.rate(), 500.0);
    }

    #[test]
    fn ewma_approaches_constant_signal() {
        let mut ew = Ewma::new(0.3, 0.0);
        feed(&mut ew, &[5000.0; 50]);
        assert!((ew.rate() - 5000.0).abs() < 10.0);
    }

    #[test]
    fn ewma_weights_recent_higher() {
        let mut ew = Ewma::new(0.5, 0.0);
        feed(&mut ew, &[1000.0, 1000.0, 9000.0]);
        assert!(ew.rate() > 4000.0, "rate {}", ew.rate());
    }

    #[test]
    fn kalman_converges_and_smooths() {
        let mut k = Kalman::new(100.0, 500_000.0, 0.0);
        feed(&mut k, &[3000.0; 100]);
        assert!((k.rate() - 3000.0).abs() < 50.0, "rate {}", k.rate());
        // A single outlier moves the estimate only mildly.
        let before = k.rate();
        feed(&mut k, &[30_000.0]);
        let jump = k.rate() - before;
        assert!(jump > 0.0 && jump < 0.5 * 27_000.0, "jump {jump}");
    }

    #[test]
    fn kalman_variance_shrinks_with_data() {
        let mut k = Kalman::new(1.0, 1000.0, 0.0);
        feed(&mut k, &[2000.0]);
        let p0 = k.variance();
        feed(&mut k, &[2000.0; 20]);
        assert!(k.variance() < p0);
    }

    #[test]
    fn tracking_a_rate_step() {
        // All three must eventually track a step change; the moving
        // average lags by design.
        let mut ma = MovingAverage::new(4, 0.0);
        let mut ew = Ewma::new(0.4, 0.0);
        let mut ka = Kalman::new(50_000.0, 100_000.0, 0.0);
        for p in [&mut ma as &mut dyn RatePredictor, &mut ew, &mut ka] {
            feed(p, &[1000.0; 10]);
            feed(p, &[8000.0; 10]);
            assert!(p.rate() > 6000.0, "predictor failed to track step");
        }
    }

    #[test]
    fn holt_extrapolates_a_ramp() {
        // Rate climbing 500/s per observation: Holt should forecast
        // ABOVE the last observation, while the moving average lags
        // below it.
        let ramp: Vec<f64> = (1..=20).map(|k| 500.0 * k as f64).collect();
        let mut holt = Holt::new(0.5, 0.3, 0.0);
        let mut ma = MovingAverage::new(8, 0.0);
        feed(&mut holt, &ramp);
        feed(&mut ma, &ramp);
        let last = *ramp.last().unwrap();
        assert!(holt.rate() > last, "holt {} vs last {last}", holt.rate());
        assert!(ma.rate() < last, "ma {} vs last {last}", ma.rate());
    }

    #[test]
    fn holt_settles_on_constant_signal() {
        let mut holt = Holt::new(0.4, 0.2, 0.0);
        feed(&mut holt, &[3000.0; 60]);
        assert!((holt.rate() - 3000.0).abs() < 30.0, "rate {}", holt.rate());
    }

    #[test]
    fn holt_never_negative_on_downward_ramp() {
        let down: Vec<f64> = (0..20)
            .map(|k| (2000.0 - 150.0 * k as f64).max(0.0))
            .collect();
        let mut holt = Holt::new(0.6, 0.4, 0.0);
        feed(&mut holt, &down);
        assert!(holt.rate() >= 0.0);
    }

    #[test]
    fn reset_restores_prior() {
        let mut ma = MovingAverage::new(3, 111.0);
        feed(&mut ma, &[9000.0; 5]);
        ma.reset();
        assert_eq!(ma.rate(), 111.0);
        let mut k = Kalman::new(1.0, 1.0, 9.0);
        feed(&mut k, &[5000.0; 5]);
        k.reset();
        assert_eq!(k.rate(), 9.0);
    }

    #[test]
    fn rates_never_negative() {
        let mut ew = Ewma::new(1.0, -5.0);
        assert_eq!(ew.rate(), 0.0, "negative prior clamps");
        ew.observe(0, ms(10));
        assert_eq!(ew.rate(), 0.0);
    }

    #[test]
    fn all_zero_window_yields_finite_zero_rate() {
        // A stalled producer reports zero items every interval; every
        // estimator must settle on a finite, non-negative (zero) rate
        // instead of propagating NaN/∞ into slot selection.
        let mut preds: Vec<Box<dyn RatePredictor>> = vec![
            Box::new(MovingAverage::new(8, 500.0)),
            Box::new(Ewma::new(0.4, 500.0)),
            Box::new(Kalman::new(100.0, 1000.0, 500.0)),
            Box::new(Holt::new(0.5, 0.3, 500.0)),
        ];
        for p in preds.iter_mut() {
            for _ in 0..32 {
                p.observe(0, ms(10));
            }
            let r = p.rate();
            assert!(r.is_finite(), "rate must stay finite, got {r}");
            assert!(r >= 0.0, "rate must stay non-negative, got {r}");
            assert!(
                r < 1.0,
                "all-zero window must drive the rate to ~0, got {r}"
            );
        }
    }

    #[test]
    fn stall_then_resume_recovers() {
        let mut ew = Ewma::new(0.5, 0.0);
        feed(&mut ew, &[4000.0; 10]);
        for _ in 0..20 {
            ew.observe(0, ms(10));
        }
        assert!(ew.rate() < 10.0, "stall drives rate down: {}", ew.rate());
        feed(&mut ew, &[4000.0; 10]);
        assert!(ew.rate() > 3000.0, "resume recovers: {}", ew.rate());
    }

    #[test]
    fn non_finite_priors_sanitized() {
        let ma = MovingAverage::new(3, f64::NAN);
        assert_eq!(ma.rate(), 0.0);
        let ew = Ewma::new(0.5, f64::INFINITY);
        assert_eq!(ew.rate(), 0.0);
        let k = Kalman::new(1.0, 1.0, f64::NEG_INFINITY);
        assert_eq!(k.rate(), 0.0);
        let h = Holt::new(0.5, 0.5, f64::NAN);
        assert_eq!(h.rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "history")]
    fn zero_history_panics() {
        MovingAverage::new(0, 0.0);
    }
}
