//! Wall-clock pacing for trace replay and slot timers.
//!
//! The repro band for this paper calls for "native threads, fine timer
//! control": producers must emit items at trace timestamps and the PBPL
//! core manager must fire slots at precise wall instants. A
//! [`ReplayClock`] maps simulated trace time onto wall time (optionally
//! scaled). Two sleepers serve it:
//!
//! * [`idle_sleep_until`] — one absolute-deadline `clock_nanosleep` with
//!   1 ns timer slack. The thread idles for the whole wait, so a paced
//!   producer costs CPU only when it has work. Replay pacing and the
//!   harness use it.
//! * [`precise_sleep_until`] — sleep-then-spin: OS-sleep the bulk, spin
//!   the last ~200 µs. Microsecond-class firing at the price of a busy
//!   core; only SPBP's consumer timer uses it, because that accuracy gap
//!   is exactly what separates the paper's SPBP from PBP.
//!
//! The foreign calls are Linux's (`clock_nanosleep`, `prctl`,
//! `getrusage`), declared here directly: `std` already links libc.

use pc_sim::SimTime;
use std::cell::Cell;
use std::os::raw::{c_int, c_long, c_ulong};
use std::time::{Duration, Instant};

/// How close to the deadline the precise sleeper switches from OS sleep
/// to spinning.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// `struct timespec` and `struct timeval` on Linux: two `long`s.
#[repr(C)]
struct TimePair {
    sec: c_long,
    frac: c_long,
}

/// `struct rusage`: user and system time, then 14 `long` counters.
#[repr(C)]
struct Rusage {
    user: TimePair,
    system: TimePair,
    _counters: [c_long; 14],
}

const CLOCK_MONOTONIC: c_int = 1;
const TIMER_ABSTIME: c_int = 1;
const EINTR: c_int = 4;
const PR_SET_TIMERSLACK: c_int = 29;
const RUSAGE_THREAD: c_int = 1;

extern "C" {
    fn clock_gettime(clock: c_int, out: *mut TimePair) -> c_int;
    fn clock_nanosleep(
        clock: c_int,
        flags: c_int,
        request: *const TimePair,
        remain: *mut TimePair,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

thread_local! {
    /// Whether this thread's timer slack is already 1 ns.
    static SLACK_SET: Cell<bool> = const { Cell::new(false) };
}

/// `CLOCK_MONOTONIC` now, the clock `Instant` reads on Linux.
fn monotonic_now() -> TimePair {
    let mut ts = TimePair { sec: 0, frac: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts
}

/// Sleeps until `deadline` without spinning: one absolute
/// `clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME)`, retried on `EINTR`.
/// The first call on a thread sets its timer slack to 1 ns
/// (`PR_SET_TIMERSLACK`; the default 50 µs would let the kernel defer
/// the wakeup to batch it with others). Never returns before `deadline`;
/// a deadline already past returns at once.
pub(crate) fn idle_sleep_until(deadline: Instant) {
    if !SLACK_SET.get() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
        SLACK_SET.set(true);
    }
    loop {
        // `Instant` is read before the monotonic clock, so the absolute
        // target below can only land at or after `deadline`; the loop
        // re-checks anyway, since an early return would break pacing.
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        let base = monotonic_now();
        let nanos = base.frac as u64 + u64::from(left.subsec_nanos());
        let target = TimePair {
            sec: base.sec + left.as_secs() as c_long + (nanos / 1_000_000_000) as c_long,
            frac: (nanos % 1_000_000_000) as c_long,
        };
        // SAFETY: `target` is a valid normalised timespec that outlives
        // the call; with TIMER_ABSTIME the kernel never writes `remain`,
        // so a null pointer is allowed.
        let rc = unsafe {
            clock_nanosleep(
                CLOCK_MONOTONIC,
                TIMER_ABSTIME,
                &target,
                std::ptr::null_mut(),
            )
        };
        assert!(rc == 0 || rc == EINTR, "clock_nanosleep failed: {rc}");
    }
}

/// CPU time (user + system) the calling thread has used so far, from
/// `getrusage(RUSAGE_THREAD)` (microsecond resolution).
pub(crate) fn thread_cpu() -> Duration {
    let mut usage = Rusage {
        user: TimePair { sec: 0, frac: 0 },
        system: TimePair { sec: 0, frac: 0 },
        _counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage`, and
    // RUSAGE_THREAD asks about the calling thread only.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD) failed");
    let micros = |t: &TimePair| t.sec as u64 * 1_000_000 + t.frac as u64;
    Duration::from_micros(micros(&usage.user) + micros(&usage.system))
}

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

    /// Sleeps (idly, see [`idle_sleep_until`]) until simulated time `t`,
    /// but wakes every `poll` to check `stop`; returns `false` if stopped
    /// before the deadline.
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
            idle_sleep_until(deadline.min(now + poll));
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
    fn idle_sleep_never_returns_early() {
        for micros in [1, 50, 300, 1_000, 2_500] {
            let deadline = Instant::now() + Duration::from_micros(micros);
            idle_sleep_until(deadline);
            let now = Instant::now();
            assert!(now >= deadline, "woke {:?} early", deadline - now);
        }
    }

    #[test]
    fn idle_sleep_past_deadline_returns_immediately() {
        let deadline = Instant::now() - Duration::from_millis(1);
        let t0 = Instant::now();
        idle_sleep_until(deadline);
        assert!(t0.elapsed() < Duration::from_millis(2));
    }

    #[test]
    fn idle_sleep_costs_little_cpu() {
        // A sleeper that spun for any real part of its wait would burn a
        // matching share of its wall time as thread CPU.
        let (cpu0, wall0) = (thread_cpu(), Instant::now());
        for _ in 0..20 {
            idle_sleep_until(Instant::now() + Duration::from_millis(5));
        }
        let (cpu, wall) = (thread_cpu() - cpu0, wall0.elapsed());
        assert!(wall >= Duration::from_millis(100), "wall {wall:?}");
        assert!(cpu * 10 < wall, "{cpu:?} CPU over {wall:?} of sleeping");
    }

    #[test]
    fn thread_cpu_counts_only_this_thread() {
        // Work until this thread has 5 ms of CPU: a clock that never
        // advanced would spin into the wall-time cap instead.
        let (before, t0) = (thread_cpu(), Instant::now());
        let mut x = 0u64;
        while thread_cpu() - before < Duration::from_millis(5) {
            assert!(t0.elapsed() < Duration::from_secs(5), "CPU clock stuck");
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
            }
        }
        let idle = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            thread_cpu()
        })
        .join()
        .unwrap();
        assert!(idle < Duration::from_millis(5), "sleeping thread {idle:?}");
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
