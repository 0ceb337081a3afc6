//! Wall-clock pacing for trace replay and slot timers.
//!
//! The repro band for this paper calls for "native threads, fine timer
//! control": producers must emit items at trace timestamps and the PBPL
//! core manager must fire slots at precise wall instants. A
//! [`ReplayClock`] maps simulated trace time onto wall time (optionally
//! scaled). Two sleepers serve it:
//!
//! * [`StopSignal::sleep_until`] — an idle wait with 1 ns timer slack
//!   that never ends early and that the run's stop raise ends at once.
//!   The thread idles for the whole wait, so it costs CPU only when it
//!   has work. Replay pacing and the harness's horizon wait use it, so a
//!   producer inside a long inter-arrival gap exits as soon as the run
//!   stops.
//! * [`precise_sleep_until`] — sleep-then-spin: OS-sleep the bulk, spin
//!   the last ~200 µs. Microsecond-class firing at the price of a busy
//!   core; only SPBP's consumer timer uses it, because that accuracy gap
//!   is exactly what separates the paper's SPBP from PBP.
//!
//! A [`SlotTimer`] (a `timerfd`) is the PBPL core manager's one kernel
//! timer: the manager blocks on it while other threads move its expiry.
//!
//! The foreign calls are Linux's (`clock_gettime`, `timerfd_create`,
//! `timerfd_settime`, `prctl`, `getrusage`), declared here directly:
//! `std` already links libc.

use parking_lot::{Condvar, Mutex};
use pc_sim::SimTime;
use std::cell::Cell;
use std::fs::File;
use std::io::Read;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_long, c_ulong};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// `struct itimerspec`: the reload interval, then the first expiry.
#[repr(C)]
struct TimerSpec {
    interval: TimePair,
    value: TimePair,
}

/// `struct rusage`: user and system time, then 14 `long` counters.
#[repr(C)]
struct Rusage {
    user: TimePair,
    system: TimePair,
    _counters: [c_long; 14],
}

const CLOCK_MONOTONIC: c_int = 1;
const TFD_TIMER_ABSTIME: c_int = 1;
const TFD_CLOEXEC: c_int = 0o2_000_000;
const PR_SET_TIMERSLACK: c_int = 29;
const RUSAGE_THREAD: c_int = 1;

extern "C" {
    fn clock_gettime(clock: c_int, out: *mut TimePair) -> c_int;
    fn timerfd_create(clock: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new: *const TimerSpec,
        old: *mut TimerSpec,
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

/// The `CLOCK_MONOTONIC` time of `deadline`, never earlier than it; a
/// deadline already past maps to about now.
fn monotonic_at(deadline: Instant) -> TimePair {
    // `Instant` is read before the monotonic clock, so the result can
    // only land at or after `deadline`.
    let left = deadline.saturating_duration_since(Instant::now());
    let base = monotonic_now();
    let nanos = base.frac as u64 + u64::from(left.subsec_nanos());
    TimePair {
        sec: base.sec + left.as_secs() as c_long + (nanos / 1_000_000_000) as c_long,
        frac: (nanos % 1_000_000_000) as c_long,
    }
}

/// Sets the calling thread's timer slack to 1 ns on its first call
/// (`PR_SET_TIMERSLACK`; the default 50 µs would let the kernel defer a
/// timed wakeup to batch it with others).
fn set_fine_slack() {
    if !SLACK_SET.get() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
        SLACK_SET.set(true);
    }
}

/// A run's stop flag. Raising it also wakes every thread sleeping in
/// [`StopSignal::sleep_until`], so a sleeper learns of the stop from a
/// notification rather than by polling.
#[derive(Default)]
pub(crate) struct StopSignal {
    raised: AtomicBool,
    /// Held while raising and while a sleeper checks the flag and
    /// parks, so no raise falls between the check and the wait.
    lock: Mutex<()>,
    cond: Condvar,
}

impl StopSignal {
    /// A signal not yet raised.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Raises the flag and wakes every sleeper.
    pub(crate) fn raise(&self) {
        let _guard = self.lock.lock();
        self.raised.store(true, Ordering::SeqCst);
        self.cond.notify_all();
    }

    /// Whether the flag is up.
    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Sleeps until `deadline` unless the flag is or goes up first;
    /// returns `Some(wakes)`, the number of times the thread returned
    /// from a blocking wait, or `None` if stopped. The wait has 1 ns
    /// timer slack and never ends before `deadline`; a deadline already
    /// past returns at once without a wait.
    pub(crate) fn sleep_until(&self, deadline: Instant) -> Option<u64> {
        // Checked first without the lock, which every producer of the run
        // shares: a burst of items already due takes no lock.
        if self.is_raised() {
            return None;
        }
        if Instant::now() >= deadline {
            return Some(0);
        }
        set_fine_slack();
        let mut wakes = 0;
        let mut guard = self.lock.lock();
        loop {
            if self.is_raised() {
                return None;
            }
            if Instant::now() >= deadline {
                return Some(wakes);
            }
            self.cond.wait_until(&mut guard, deadline);
            wakes += 1;
        }
    }
}

/// A one-shot kernel timer on `CLOCK_MONOTONIC` (a Linux `timerfd`). One
/// thread blocks in [`SlotTimer::wait`] until the expiry; any thread may
/// move the expiry with [`SlotTimer::arm`] meanwhile, which never wakes
/// the waiter early. Unlike a sleep, a `timerfd` carries no timer slack.
pub(crate) struct SlotTimer {
    fd: File,
}

impl SlotTimer {
    /// A disarmed timer.
    pub(crate) fn new() -> Self {
        // SAFETY: plain foreign call with constant arguments; the result
        // is checked before use.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC) };
        assert!(
            fd >= 0,
            "timerfd_create failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `fd` is a descriptor just created for this timer alone,
        // so the `OwnedFd` is its only owner and closes it once.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        SlotTimer { fd: File::from(fd) }
    }

    /// Sets the one expiry to `deadline` (never earlier; a deadline
    /// already past expires at once), or disarms the timer for `None`.
    /// Either replaces the previous setting and discards an expiry no
    /// [`SlotTimer::wait`] has consumed yet.
    pub(crate) fn arm(&self, deadline: Option<Instant>) {
        let zero = TimePair { sec: 0, frac: 0 };
        self.set(deadline.map_or(zero, monotonic_at));
    }

    /// Expires the timer now, waking a thread blocked in
    /// [`SlotTimer::wait`] (or the next one to call it).
    pub(crate) fn fire(&self) {
        // 1 ns after boot: long past, and unlike zero it does not disarm.
        self.set(TimePair { sec: 0, frac: 1 });
    }

    /// Sets the absolute expiry `value`; all zero disarms.
    fn set(&self, value: TimePair) {
        let spec = TimerSpec {
            interval: TimePair { sec: 0, frac: 0 },
            value,
        };
        // SAFETY: the descriptor is this timer's own open timerfd,
        // `spec` is a valid itimerspec that outlives the call, and a null
        // `old` asks the kernel not to report the previous setting.
        let rc = unsafe {
            timerfd_settime(
                self.fd.as_raw_fd(),
                TFD_TIMER_ABSTIME,
                &spec,
                std::ptr::null_mut(),
            )
        };
        assert_eq!(
            rc,
            0,
            "timerfd_settime failed: {}",
            std::io::Error::last_os_error()
        );
    }

    /// Blocks until the timer expires (returns at once if it already
    /// has since the last `wait` or [`SlotTimer::arm`]).
    pub(crate) fn wait(&self) {
        // A timerfd read yields the 8-byte expiry count.
        let mut expiries = [0u8; 8];
        (&self.fd)
            .read_exact(&mut expiries)
            .expect("read from a live timerfd");
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
        use std::sync::Arc;
        let stop = Arc::new(StopSignal::new());
        let s2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.raise();
        });
        let t0 = Instant::now();
        let completed = stop.sleep_until(t0 + Duration::from_secs(30));
        assert_eq!(completed, None, "stop must interrupt the sleep");
        assert!(t0.elapsed() < Duration::from_millis(500));
        t.join().unwrap();
        assert_eq!(
            stop.sleep_until(Instant::now()),
            None,
            "raised stays raised"
        );
    }

    #[test]
    fn stoppable_sleep_never_returns_early() {
        let stop = StopSignal::new();
        for micros in [1, 50, 300, 1_000, 2_500] {
            let deadline = Instant::now() + Duration::from_micros(micros);
            let wakes = stop.sleep_until(deadline).expect("not stopped");
            let now = Instant::now();
            assert!(now >= deadline, "woke {:?} early", deadline - now);
            if micros >= 300 {
                assert!(wakes >= 1, "a {micros} µs wait must block");
            }
        }
    }

    #[test]
    fn stoppable_sleep_past_deadline_returns_immediately() {
        let stop = StopSignal::new();
        let past = Instant::now() - Duration::from_millis(1);
        let t0 = Instant::now();
        assert_eq!(
            stop.sleep_until(past),
            Some(0),
            "no wait for a past deadline"
        );
        assert!(t0.elapsed() < Duration::from_millis(2));
    }

    #[test]
    fn stoppable_sleep_costs_little_cpu() {
        // A sleeper that spun for any real part of its wait would burn a
        // matching share of its wall time as thread CPU.
        let stop = StopSignal::new();
        let (cpu0, wall0) = (thread_cpu(), Instant::now());
        for _ in 0..20 {
            stop.sleep_until(Instant::now() + Duration::from_millis(5));
        }
        let (cpu, wall) = (thread_cpu() - cpu0, wall0.elapsed());
        assert!(wall >= Duration::from_millis(100), "wall {wall:?}");
        assert!(cpu * 10 < wall, "{cpu:?} CPU over {wall:?} of sleeping");
    }

    #[test]
    fn slot_timer_expires_at_its_deadline_not_before() {
        let timer = SlotTimer::new();
        for micros in [1, 300, 2_500] {
            let deadline = Instant::now() + Duration::from_micros(micros);
            timer.arm(Some(deadline));
            timer.wait();
            let now = Instant::now();
            assert!(now >= deadline, "expired {:?} early", deadline - now);
        }
        // A deadline already past expires at once.
        timer.arm(Some(Instant::now() - Duration::from_millis(1)));
        let t0 = Instant::now();
        timer.wait();
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn slot_timer_rearm_moves_the_expiry() {
        use std::sync::Arc;
        let timer = Arc::new(SlotTimer::new());
        let t0 = Instant::now();
        // A pending expiry is discarded by the re-arm that follows it.
        timer.arm(Some(t0));
        timer.arm(Some(t0 + Duration::from_millis(30)));
        let waiter = {
            let timer = Arc::clone(&timer);
            std::thread::spawn(move || {
                timer.wait();
                Instant::now()
            })
        };
        // Moving the expiry later, or disarming, never ends the wait.
        timer.arm(Some(t0 + Duration::from_millis(60)));
        timer.arm(None);
        timer.arm(Some(t0 + Duration::from_millis(40)));
        let woke = waiter.join().unwrap();
        assert!(
            woke >= t0 + Duration::from_millis(40),
            "woke after {:?}",
            woke - t0
        );
    }

    #[test]
    fn slot_timer_fire_wakes_a_disarmed_waiter() {
        use std::sync::Arc;
        let timer = Arc::new(SlotTimer::new());
        let waiter = {
            let timer = Arc::clone(&timer);
            std::thread::spawn(move || timer.wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        timer.fire();
        waiter.join().unwrap();
        assert!(t0.elapsed() < Duration::from_millis(100));
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
