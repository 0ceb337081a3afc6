//! Bounded exponential backoff for spin loops.
//!
//! Every spin site in this workspace (queue stress tests, the
//! semaphore's spin-then-park fast path) faces the same
//! trade-off: a few pause-hinted spins win when the other side is running
//! on another core, but on a loaded or single-core machine an unbounded
//! `spin_loop()` burns the whole scheduler quantum before the peer can
//! make progress. [`Backoff`] packages the standard answer — exponential
//! pause-hinted spinning up to a small bound, then `yield_now` — behind
//! one call, mirroring `crossbeam::utils::Backoff` (which the offline
//! shim does not provide).

/// Doubling pause-hinted spin rounds are used until the step counter
/// reaches this limit (2⁶ = 64 pauses per round at the cap), after which
/// every snooze yields to the OS scheduler instead.
const SPIN_LIMIT: u32 = 6;

/// An exponential spin-then-yield backoff helper.
///
/// ```
/// use pc_queues::backoff::Backoff;
/// let mut backoff = Backoff::new();
/// let mut attempts = 0;
/// loop {
///     attempts += 1;
///     if attempts == 10 { break; }   // stand-in for "queue made progress"
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Creates a backoff at the shortest spin step.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Waits a little longer than the last call: `2^step` pause hints
    /// while below the spin limit, a scheduler yield afterwards.
    pub fn snooze(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Whether the spin budget is exhausted and [`Backoff::snooze`] has
    /// switched to yielding. Callers that can park (condvar, semaphore)
    /// should do so once this turns true.
    pub(crate) fn is_completed(&self) -> bool {
        self.step >= SPIN_LIMIT
    }

    /// Resets to the shortest spin step (call after making progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_after_spin_limit_snoozes() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        // Further snoozes stay in the yielding regime without panicking.
        b.snooze();
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn still_spinning_one_snooze_before_the_limit() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT - 1 {
            b.snooze();
        }
        assert!(!b.is_completed());
        b.snooze();
        assert!(b.is_completed());
    }

    #[test]
    fn default_starts_at_the_shortest_step() {
        let mut b = Backoff::default();
        assert!(!b.is_completed());
        for _ in 0..SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_restores_the_full_spin_budget() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 3 {
            b.snooze();
        }
        b.reset();
        for _ in 0..SPIN_LIMIT - 1 {
            b.snooze();
            assert!(!b.is_completed());
        }
    }
}
