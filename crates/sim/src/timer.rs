//! Timer inaccuracy models.
//!
//! §III-C of the paper observes that *signal-based* periodic batching
//! (SPBP) produces fewer wakeups than `nanosleep()`-based batching (PBP)
//! and attributes the whole difference to timer jitter: "The jitter
//! associated with sleep() causes more buffer overflows and thus, more
//! wakeups." A [`TimerModel`] reproduces that mechanism: given the time a
//! strategy *asked* to be woken, it returns the time the wakeup actually
//! fires.
//!
//! Jitter is always non-negative — real timers never fire early; `sleep`
//! returns *no sooner than* requested (POSIX), and signal delivery adds
//! dispatch latency.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a timer's actual firing time deviates from the requested time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimerModel {
    /// Fires exactly when requested. The idealised baseline.
    Perfect,
    /// Fixed latency added to every firing (e.g. IRQ dispatch cost).
    Fixed {
        /// Added latency.
        latency: SimDuration,
    },
    /// Truncated-Gaussian overshoot: `max(0, N(mean, std))` nanoseconds of
    /// lateness. Models `nanosleep()`'s scheduler-quantum jitter.
    Gaussian {
        /// Mean overshoot.
        mean: SimDuration,
        /// Standard deviation of the overshoot.
        std_dev: SimDuration,
    },
    /// Uniform overshoot in `[lo, hi)`. A coarse model for tick-rounded
    /// timers.
    Uniform {
        /// Minimum overshoot.
        lo: SimDuration,
        /// Maximum overshoot (exclusive).
        hi: SimDuration,
    },
}

impl TimerModel {
    /// The jitter model we calibrate for `nanosleep()`-driven PBP: plain
    /// sleeps on the paper-era embedded kernel are rounded up to timer
    /// ticks plus timer slack, giving millisecond-class overshoot —
    /// "the jitter associated with sleep() causes more buffer overflows
    /// and thus, more wakeups" (§III-C).
    pub fn nanosleep_like() -> Self {
        TimerModel::Gaussian {
            mean: SimDuration::from_micros(1_800),
            std_dev: SimDuration::from_micros(1_200),
        }
    }

    /// The jitter model for `SIGALRM`-driven SPBP: delivery within a few
    /// microseconds.
    pub fn sigalrm_like() -> Self {
        TimerModel::Gaussian {
            mean: SimDuration::from_micros(3),
            std_dev: SimDuration::from_micros(2),
        }
    }

    /// The firing time for a wakeup requested at `requested`.
    pub fn fire_time(&self, requested: SimTime, rng: &mut SimRng) -> SimTime {
        match *self {
            TimerModel::Perfect => requested,
            TimerModel::Fixed { latency } => requested.saturating_add(latency),
            TimerModel::Gaussian { mean, std_dev } => {
                let jitter = rng.normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                requested.saturating_add(SimDuration::from_secs_f64(jitter.max(0.0)))
            }
            TimerModel::Uniform { lo, hi } => {
                let span = hi.saturating_sub(lo).as_nanos();
                let extra = if span == 0 { 0 } else { rng.next_below(span) };
                requested.saturating_add(lo.saturating_add(SimDuration::from_nanos(extra)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fires_exactly() {
        let mut rng = SimRng::new(1);
        let t = SimTime::from_millis(5);
        assert_eq!(TimerModel::Perfect.fire_time(t, &mut rng), t);
    }

    #[test]
    fn fixed_adds_latency() {
        let mut rng = SimRng::new(1);
        let t = SimTime::from_millis(5);
        let m = TimerModel::Fixed {
            latency: SimDuration::from_micros(7),
        };
        assert_eq!(m.fire_time(t, &mut rng), t + SimDuration::from_micros(7));
    }

    #[test]
    fn jitter_never_fires_early() {
        let mut rng = SimRng::new(2);
        let t = SimTime::from_millis(1);
        for model in [
            TimerModel::nanosleep_like(),
            TimerModel::sigalrm_like(),
            TimerModel::Uniform {
                lo: SimDuration::from_micros(1),
                hi: SimDuration::from_micros(100),
            },
        ] {
            for _ in 0..1000 {
                assert!(model.fire_time(t, &mut rng) >= t);
            }
        }
    }

    #[test]
    fn gaussian_mean_overshoot_close() {
        let mut rng = SimRng::new(3);
        let t = SimTime::from_secs(1);
        let m = TimerModel::nanosleep_like();
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| m.fire_time(t, &mut rng).since(t).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        // Truncation at zero pulls the mean up slightly from 1.8ms.
        assert!((mean - 1.8e-3).abs() < 0.3e-3, "mean overshoot {mean}");
    }

    #[test]
    fn sigalrm_is_tighter_than_nanosleep() {
        let mut rng = SimRng::new(4);
        let t = SimTime::ZERO;
        let n = 20_000;
        let avg = |m: TimerModel, rng: &mut SimRng| {
            (0..n)
                .map(|_| m.fire_time(t, rng).since(t).as_secs_f64())
                .sum::<f64>()
                / n as f64
        };
        let sleep = avg(TimerModel::nanosleep_like(), &mut rng);
        let sig = avg(TimerModel::sigalrm_like(), &mut rng);
        assert!(
            sig * 5.0 < sleep,
            "sigalrm ({sig}) should be much tighter than nanosleep ({sleep})"
        );
    }

    #[test]
    fn uniform_overshoot_within_bounds() {
        let mut rng = SimRng::new(5);
        let lo = SimDuration::from_micros(10);
        let hi = SimDuration::from_micros(20);
        let m = TimerModel::Uniform { lo, hi };
        let t = SimTime::from_secs(2);
        for _ in 0..1000 {
            let over = m.fire_time(t, &mut rng).since(t);
            assert!(over >= lo && over < hi, "overshoot {over}");
        }
    }

    #[test]
    fn degenerate_uniform_is_fixed() {
        let mut rng = SimRng::new(6);
        let d = SimDuration::from_micros(4);
        let m = TimerModel::Uniform { lo: d, hi: d };
        assert_eq!(m.fire_time(SimTime::ZERO, &mut rng), SimTime::ZERO + d);
    }

    #[test]
    fn same_seed_same_firing_sequence() {
        let m = TimerModel::nanosleep_like();
        let t = SimTime::from_millis(3);
        let mut a = SimRng::new(8);
        let mut b = SimRng::new(8);
        for _ in 0..500 {
            assert_eq!(m.fire_time(t, &mut a), m.fire_time(t, &mut b));
        }
    }

    #[test]
    fn firing_time_saturates_at_the_end_of_time() {
        let mut rng = SimRng::new(9);
        let m = TimerModel::Fixed {
            latency: SimDuration::from_secs(1),
        };
        assert_eq!(m.fire_time(SimTime::MAX, &mut rng), SimTime::MAX);
        let late = SimTime::MAX.saturating_sub(SimDuration::from_nanos(1));
        assert_eq!(
            TimerModel::sigalrm_like().fire_time(SimTime::MAX, &mut rng),
            SimTime::MAX
        );
        assert!(TimerModel::nanosleep_like().fire_time(late, &mut rng) >= late);
    }

    #[test]
    fn zero_spread_gaussian_fires_at_its_mean() {
        let mut rng = SimRng::new(10);
        let mean = SimDuration::from_micros(250);
        let m = TimerModel::Gaussian {
            mean,
            std_dev: SimDuration::ZERO,
        };
        let t = SimTime::from_secs(1);
        for _ in 0..100 {
            let over = m.fire_time(t, &mut rng).since(t).as_nanos();
            assert!(over.abs_diff(mean.as_nanos()) <= 1, "overshoot {over} ns");
        }
    }
}
