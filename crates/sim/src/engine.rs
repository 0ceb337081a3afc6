//! The simulation driver: an event queue plus a monotonic clock.
//!
//! The engine deliberately does *not* own the system state. The idiomatic
//! driver loop is:
//!
//! ```
//! use pc_sim::{Engine, SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut eng = Engine::<Ev>::new(42);
//! eng.schedule_after(SimDuration::from_micros(10), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((t, ev)) = eng.next_before(SimTime::from_secs(1)) {
//!     match ev {
//!         Ev::Tick(n) if n < 4 => {
//!             ticks += 1;
//!             eng.schedule_after(SimDuration::from_micros(10), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => { ticks += 1; }
//!     }
//!     let _ = t;
//! }
//! assert_eq!(ticks, 5);
//! ```
//!
//! Keeping state outside the engine sidesteps the usual borrow tangle of
//! callback-based designs and makes system models plain, testable structs.

use crate::arrival::ArrivalCalendar;
use crate::event::{EventId, EventQueue, QueueStats};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use pc_trace_events::TraceHandle;

/// One event handed out by [`Engine::next_merged_before`]: either a
/// workload arrival from the calendar front-end (identified by its
/// source index — the payload is the caller's cursor state) or a
/// dynamic event from the timer wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// The next pre-filed arrival of `source` (see
    /// [`Engine::schedule_arrival`]).
    Arrival(u32),
    /// A wheel event (timers, drains, slot wakes, fault edges).
    Timer(E),
}

/// Event queue + clock + deterministic RNG. See the module docs for the
/// driver-loop idiom.
pub struct Engine<E> {
    queue: EventQueue<E>,
    /// Merge front-end for pre-sorted workload arrivals (DESIGN.md §14).
    /// Shares the wheel's sequence counter, so the merged pop reproduces
    /// the exact `(time, seq)` order of an all-through-the-wheel run.
    arrivals: ArrivalCalendar,
    now: SimTime,
    rng: SimRng,
    trace: TraceHandle,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with a seeded RNG.
    pub fn new(seed: u64) -> Self {
        Engine {
            queue: EventQueue::new(),
            arrivals: ArrivalCalendar::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches an event-trace handle; every clock advance is forwarded to
    /// the recorder so emission sites stamp events with sim time.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's deterministic random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `ev` at the absolute time `at`. Scheduling in the past is
    /// a logic error and panics in debug builds; in release builds the
    /// event fires "now" (the queue clamps nothing, but the pop loop
    /// processes it immediately, preserving run-to-completion semantics).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, ev)
    }

    /// Schedules `ev` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, ev: E) -> EventId {
        let at = self.now.saturating_add(after);
        self.queue.schedule(at, ev)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Files the next arrival of `source` at absolute time `at`. The
    /// arrival consumes a sequence number from the *same* counter wheel
    /// events use, at the exact point this call is made — so a run that
    /// files arrivals here pops the bit-identical `(time, seq)` stream
    /// of a run that pushed them through [`Engine::schedule_at`]. At
    /// most one arrival per source may be pending (the cursor
    /// discipline); arrivals cannot be cancelled.
    pub fn schedule_arrival(&mut self, at: SimTime, source: u32) {
        debug_assert!(
            at >= self.now,
            "arrival scheduled into the past: {at} < {}",
            self.now
        );
        let seq = self.queue.take_seq();
        self.arrivals.set(source as usize, at.as_nanos(), seq);
    }

    /// Pops the next event if it fires at or before `deadline`, advancing
    /// the clock to its timestamp.
    pub fn next_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop_until(deadline)?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.trace.set_now(t.as_nanos());
        Some((t, ev))
    }

    /// Pops the earliest of `min(arrivals.peek(), wheel.peek())` — the
    /// global `(time, seq)` minimum across both backends, each peeked
    /// once — if it fires at or before `deadline`, advancing the clock
    /// to its timestamp.
    /// Deadline misses pop nothing and leave the clock untouched,
    /// exactly like [`Engine::next_before`].
    pub fn next_merged_before(&mut self, deadline: SimTime) -> Option<(SimTime, Popped<E>)> {
        // Sequence numbers are globally unique across both backends, so
        // a strict key comparison is a total order; equal times resolve
        // by schedule order, exactly as the wheel alone would.
        let wheel = self.queue.peek_key();
        let arrival = self
            .arrivals
            .peek()
            .filter(|&(at, seq, _)| wheel.is_none_or(|w| (at, seq) < w));
        if let Some((at, _seq, source)) = arrival {
            let t = SimTime::from_nanos(at);
            if t > deadline {
                return None;
            }
            self.arrivals.pop();
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.trace.set_now(at);
            Some((t, Popped::Arrival(source)))
        } else {
            let (t, ev) = self.queue.pop_until(deadline)?;
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.trace.set_now(t.as_nanos());
            Some((t, Popped::Timer(ev)))
        }
    }

    /// Pops the next event unconditionally, advancing the clock.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self with side effects on the clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.trace.set_now(t.as_nanos());
        Some((t, ev))
    }

    /// Timestamp of the earliest pending event: the earlier of the
    /// arrival calendar's head and the wheel's head.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let arrival = self.arrivals.peek().map(|(at, _, _)| at);
        let timer = self.queue.peek_key().map(|(at, _)| at);
        let earliest = [arrival, timer].into_iter().flatten().min();
        earliest.map(SimTime::from_nanos)
    }

    /// Number of pending events (wheel and arrival calendar).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.arrivals.len()
    }

    /// Deterministic scheduler operation counters (see
    /// [`QueueStats`]) accumulated since the engine was created:
    /// wheel counters plus the arrival calendar's, with
    /// `pending_at_teardown` covering both backends — so the snapshot
    /// always satisfies [`QueueStats::ledger_balanced`].
    pub fn queue_stats(&self) -> QueueStats {
        let mut stats = self.queue.stats();
        stats.arrivals_scheduled = self.arrivals.scheduled();
        stats.arrivals_popped = self.arrivals.popped();
        stats.pending_at_teardown += self.arrivals.len() as u64;
        stats
    }

    /// Advances the clock to `t` without processing events. Intended for
    /// finalising accounting at the end of a run; `t` must not precede any
    /// pending event (checked in debug builds).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
        self.trace.set_now(t.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_events() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_micros(7), "a");
        eng.schedule_at(SimTime::from_micros(3), "b");
        assert_eq!(eng.now(), SimTime::ZERO);
        let (t, ev) = eng.next().unwrap();
        assert_eq!((t, ev), (SimTime::from_micros(3), "b"));
        assert_eq!(eng.now(), SimTime::from_micros(3));
        eng.next().unwrap();
        assert_eq!(eng.now(), SimTime::from_micros(7));
    }

    #[test]
    fn next_before_stops_at_deadline() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_secs(2), ());
        assert!(eng.next_before(SimTime::from_secs(1)).is_none());
        // Deadline misses must not advance the clock.
        assert_eq!(eng.now(), SimTime::ZERO);
        assert!(eng.next_before(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_micros(10), 0u8);
        eng.next().unwrap();
        eng.schedule_after(SimDuration::from_micros(5), 1u8);
        let (t, ev) = eng.next().unwrap();
        assert_eq!(ev, 1);
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Engine::new(1);
        let id = eng.schedule_at(SimTime::from_micros(1), "doomed");
        eng.schedule_at(SimTime::from_micros(2), "kept");
        assert!(eng.cancel(id));
        assert_eq!(eng.next().map(|(_, e)| e), Some("kept"));
    }

    #[test]
    fn merged_pop_interleaves_arrivals_and_timers_by_key() {
        let mut eng = Engine::new(1);
        eng.schedule_arrival(SimTime::from_nanos(5), 0); // seq 0
        eng.schedule_at(SimTime::from_nanos(5), "timer@5"); // seq 1
        eng.schedule_arrival(SimTime::from_nanos(3), 1); // seq 2
        eng.schedule_at(SimTime::from_nanos(1), "timer@1"); // seq 3
        let deadline = SimTime::from_secs(1);
        let mut got = Vec::new();
        while let Some((t, ev)) = eng.next_merged_before(deadline) {
            got.push((t.as_nanos(), ev));
        }
        assert_eq!(
            got,
            vec![
                (1, Popped::Timer("timer@1")),
                (3, Popped::Arrival(1)),
                // Same nanosecond: the arrival was scheduled first, so
                // its shared seq (0) wins the FIFO tie against seq 1.
                (5, Popped::Arrival(0)),
                (5, Popped::Timer("timer@5")),
            ]
        );
        let stats = eng.queue_stats();
        assert_eq!(stats.arrivals_scheduled, 2);
        assert_eq!(stats.arrivals_popped, 2);
        assert_eq!(stats.scheduled, 2);
        assert_eq!(stats.popped, 2);
        assert_eq!(stats.pending_at_teardown, 0);
        assert!(stats.ledger_balanced());
    }

    #[test]
    fn merged_deadline_miss_pops_nothing_for_either_backend() {
        let mut eng = Engine::<()>::new(1);
        eng.schedule_arrival(SimTime::from_secs(2), 0);
        assert!(eng.next_merged_before(SimTime::from_secs(1)).is_none());
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.pending(), 1);
        let stats = eng.queue_stats();
        assert_eq!(stats.pending_at_teardown, 1);
        assert!(stats.ledger_balanced());
        assert!(eng.next_merged_before(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn peek_time_sees_arrivals_and_timers() {
        let mut eng = Engine::new(1);
        assert_eq!(eng.peek_time(), None);
        eng.schedule_at(SimTime::from_nanos(5), "timer@5");
        eng.schedule_arrival(SimTime::from_nanos(3), 0);
        assert_eq!(eng.peek_time(), Some(SimTime::from_nanos(3)));
        eng.next_merged_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(eng.peek_time(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Engine::<()>::new(99);
        let mut b = Engine::<()>::new(99);
        for _ in 0..100 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }
}
