//! Wall-clock pacing for trace replay and slot timers.
//!
//! The repro band for this paper calls for "native threads, fine timer
//! control": producers must emit items at trace timestamps and the PBPL
//! core manager must fire slots at precise wall instants. A
//! [`ReplayClock`] maps simulated trace time onto wall time (optionally
//! scaled), and [`precise_sleep_until`] implements the sleep-then-spin
//! idiom that gets microsecond-class firing accuracy out of a
//! millisecond-class OS sleep — the same trick that separates the paper's
//! SPBP from PBP.

use pc_sim::SimTime;
use std::time::{Duration, Instant};

/// How close to the deadline the precise sleeper switches from OS sleep
/// to spinning.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Sleeps until `deadline` with sub-millisecond accuracy: OS-sleep the
/// bulk, spin the last ~200 µs.
pub(crate) fn precise_sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_WINDOW {
            std::thread::sleep(remaining - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Maps simulated trace time onto the wall clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayClock {
    epoch: Instant,
    /// Wall seconds per simulated second (1.0 = real time, 0.1 = 10×
    /// fast-forward).
    scale: f64,
}

impl ReplayClock {
    /// Starts a replay clock now.
    ///
    /// Panics for non-positive scales.
    pub fn start(scale: f64) -> Self {
        assert!(scale > 0.0, "replay scale must be positive");
        ReplayClock {
            epoch: Instant::now(),
            scale,
        }
    }

    /// The wall instant corresponding to simulated time `t`.
    pub(crate) fn wall_deadline(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_secs_f64(t.as_secs_f64() * self.scale)
    }

    /// Current simulated time.
    pub(crate) fn now_sim(&self) -> SimTime {
        let elapsed = self.epoch.elapsed().as_secs_f64() / self.scale;
        SimTime::from_nanos((elapsed * 1e9) as u64)
    }

    /// Sleeps (precisely) until simulated time `t`, but wakes every
    /// `poll` to check `stop`; returns `false` if stopped before the
    /// deadline.
    /// Long inter-arrival gaps in a replayed trace must not outlive a
    /// shutdown request.
    pub(crate) fn sleep_until_sim_or_stop(
        &self,
        t: SimTime,
        stop: &std::sync::atomic::AtomicBool,
        poll: Duration,
    ) -> bool {
        let deadline = self.wall_deadline(t);
        loop {
            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            let remaining = deadline - now;
            if remaining > poll {
                std::thread::sleep(poll);
            } else {
                precise_sleep_until(deadline);
                return !stop.load(std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_sleep_hits_deadline() {
        // Best of five: preemption by the other tests running in
        // parallel only ever adds lateness, so the minimum measures the
        // sleeper rather than the host's scheduler. A sleeper that
        // overshoots by design overshoots on every attempt.
        let late = (0..5)
            .map(|_| {
                let deadline = Instant::now() + Duration::from_millis(5);
                precise_sleep_until(deadline);
                Instant::now().duration_since(deadline)
            })
            .min()
            .expect("five attempts");
        assert!(late < Duration::from_millis(2), "overshoot {late:?}");
    }

    #[test]
    fn precise_sleep_past_deadline_returns_immediately() {
        let deadline = Instant::now() - Duration::from_millis(1);
        let t0 = Instant::now();
        precise_sleep_until(deadline);
        assert!(t0.elapsed() < Duration::from_millis(2));
    }

    #[test]
    fn replay_clock_scales() {
        let clock = ReplayClock::start(0.5);
        let d = clock.wall_deadline(SimTime::from_millis(100));
        let expected = Duration::from_millis(50);
        let actual = d.duration_since(clock.epoch);
        assert!(
            (actual.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-6,
            "{actual:?}"
        );
    }

    #[test]
    fn stoppable_sleep_observes_stop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let clock = ReplayClock::start(1.0);
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.store(true, Ordering::SeqCst);
        });
        let t0 = Instant::now();
        let completed =
            clock.sleep_until_sim_or_stop(SimTime::from_secs(30), &stop, Duration::from_millis(5));
        assert!(!completed, "stop must interrupt the sleep");
        assert!(t0.elapsed() < Duration::from_millis(500));
        t.join().unwrap();
    }

    #[test]
    fn now_sim_advances() {
        let clock = ReplayClock::start(0.1); // 10x fast
        std::thread::sleep(Duration::from_millis(5));
        let sim = clock.now_sim();
        assert!(sim >= SimTime::from_millis(40), "sim {sim}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        ReplayClock::start(0.0);
    }
}
