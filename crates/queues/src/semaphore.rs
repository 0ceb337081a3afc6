//! A counting semaphore.
//!
//! The paper's **Sem** implementation "uses a circular buffer and two
//! semaphores used for synchronizing emptiness and fullness of the
//! buffer" (§III-A). `std` has no semaphore, so we build one on a
//! `parking_lot` mutex + condvar.
//!
//! Every blocking operation reports whether it actually blocked: a
//! consumer thread that blocks and is later signalled is exactly one
//! *thread wakeup* in the paper's PowerTop metric, and the native runtime
//! counts wakeups through this interface.
//!
//! Blocking acquires are *adaptive*: a bounded spin-then-park fast path
//! (a short [`Backoff`] burst of try-acquires) runs before the condvar
//! wait. When a permit arrives within the spin window — the common case
//! for batching consumers woken microseconds after a producer release —
//! the thread never sleeps, which is both faster and, in the paper's
//! currency, zero wakeups. Only a genuine condvar sleep reports
//! `blocked = true`.

use crate::backoff::Backoff;
use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// A counting semaphore with blocking, timed and non-blocking acquisition.
pub struct Semaphore {
    permits: Mutex<usize>,
    cond: Condvar,
}

impl Semaphore {
    /// Creates a semaphore holding `initial` permits.
    pub fn new(initial: usize) -> Self {
        Semaphore {
            permits: Mutex::new(initial),
            cond: Condvar::new(),
        }
    }

    /// The bounded spin phase shared by the blocking acquires: repeated
    /// non-blocking grabs of up to `max` permits under exponential
    /// backoff, giving up (to let the caller park) once the spin budget
    /// is spent.
    fn spin_acquire_many(&self, max: usize) -> usize {
        let mut backoff = Backoff::new();
        loop {
            let taken = self.try_acquire_many(max);
            if taken > 0 {
                return taken;
            }
            if backoff.is_completed() {
                return 0;
            }
            backoff.snooze();
        }
    }

    /// Acquires one permit, blocking until available. Returns `true` if
    /// the call had to block (i.e. this was a genuine thread sleep/wakeup).
    pub(crate) fn acquire(&self) -> bool {
        if self.spin_acquire_many(1) == 1 {
            return false;
        }
        let mut permits = self.permits.lock();
        let mut blocked = false;
        while *permits == 0 {
            blocked = true;
            self.cond.wait(&mut permits);
        }
        *permits -= 1;
        blocked
    }

    /// Acquires up to `max` permits at once, blocking for the first.
    /// Returns `(taken, blocked)`. Taking everything available in one call
    /// is the batch-drain idiom used by batching consumers.
    #[cfg(test)]
    pub(crate) fn acquire_many(&self, max: usize) -> (usize, bool) {
        assert!(max > 0, "acquire_many(0)");
        let taken = self.spin_acquire_many(max);
        if taken > 0 {
            return (taken, false);
        }
        let mut permits = self.permits.lock();
        let mut blocked = false;
        while *permits == 0 {
            blocked = true;
            self.cond.wait(&mut permits);
        }
        let taken = (*permits).min(max);
        *permits -= taken;
        (taken, blocked)
    }

    /// Attempts to acquire one permit without blocking.
    pub(crate) fn try_acquire(&self) -> bool {
        self.try_acquire_many(1) == 1
    }

    /// Attempts to take up to `max` permits without blocking; returns how
    /// many were taken (possibly zero). One lock acquisition regardless
    /// of the count — the non-blocking half of the batch-drain idiom.
    pub(crate) fn try_acquire_many(&self, max: usize) -> usize {
        let mut permits = self.permits.lock();
        let taken = (*permits).min(max);
        *permits -= taken;
        taken
    }

    /// Acquires one permit, giving up after `timeout`. Returns
    /// `Some(blocked)` on success, `None` on timeout.
    pub fn acquire_timeout(&self, timeout: Duration) -> Option<bool> {
        if self.spin_acquire_many(1) == 1 {
            return Some(false);
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut permits = self.permits.lock();
        let mut blocked = false;
        while *permits == 0 {
            blocked = true;
            if self.cond.wait_until(&mut permits, deadline).timed_out() {
                return if *permits > 0 {
                    *permits -= 1;
                    Some(blocked)
                } else {
                    None
                };
            }
        }
        *permits -= 1;
        Some(blocked)
    }

    /// Releases `n` permits, waking blocked acquirers.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut permits = self.permits.lock();
        *permits += n;
        if n == 1 {
            self.cond.notify_one();
        } else {
            self.cond.notify_all();
        }
    }

    /// Current permit count (racy; for tests and diagnostics).
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn acquire_without_contention_does_not_block() {
        let s = Semaphore::new(2);
        assert!(!s.acquire());
        assert!(!s.acquire());
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn try_acquire_fails_at_zero() {
        let s = Semaphore::new(1);
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release(1);
        assert!(s.try_acquire());
    }

    #[test]
    fn acquire_many_takes_batch() {
        let s = Semaphore::new(10);
        let (taken, blocked) = s.acquire_many(4);
        assert_eq!(taken, 4);
        assert!(!blocked);
        let (taken, _) = s.acquire_many(100);
        assert_eq!(taken, 6);
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn timeout_expires_when_starved() {
        let s = Semaphore::new(0);
        assert_eq!(s.acquire_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn timeout_succeeds_when_released() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            s2.release(1);
        });
        let got = s.acquire_timeout(Duration::from_secs(5));
        assert_eq!(got, Some(true), "must succeed and report blocking");
        t.join().unwrap();
    }

    #[test]
    fn blocked_acquire_reports_wakeup() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || s2.acquire());
        thread::sleep(Duration::from_millis(20));
        s.release(1);
        assert!(waiter.join().unwrap(), "waiter must report it blocked");
    }

    #[test]
    fn release_zero_is_noop() {
        let s = Semaphore::new(3);
        s.release(0);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn multi_producer_multi_consumer_counts_balance() {
        let s = Arc::new(Semaphore::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    s.release(1);
                }
            }));
        }
        let mut acquirers = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            acquirers.push(thread::spawn(move || {
                for _ in 0..1000 {
                    s.acquire();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for h in acquirers {
            h.join().unwrap();
        }
        assert_eq!(s.available(), 0);
    }
}
