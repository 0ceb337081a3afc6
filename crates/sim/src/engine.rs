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

use crate::arrival::{ArrivalCalendar, VIRTUAL};
use crate::event::{EventId, EventQueue, QueueStats};
use crate::lineage::{self, ArrivalTimes, Birth, Births, Event};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use pc_trace_events::TraceHandle;
use std::cmp::Ordering;
use std::rc::Rc;

/// One event handed out by [`Engine::next_merged_before`]: either a
/// decision point from the calendar front-end (identified by its
/// source index — the payload is the caller's cursor state) or a
/// dynamic event from the timer wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// The pending decision point of `source` (see
    /// [`Engine::file_point`]).
    Point(u32),
    /// A wheel event (timers, drains, slot wakes, fault edges).
    Timer(E),
}

/// The event being handled: what it schedules is born of it, and it is
/// the other side of a same-time comparison.
enum Current {
    /// Before the first pop.
    Setup,
    /// Decision point `idx` of `source`.
    Point { source: u32, idx: u32 },
    /// A wheel event; `node` is its record in `Births` once a child
    /// needs it, and its reference to `birth` has then moved there.
    Wheel {
        at: u64,
        seq: u64,
        birth: Birth,
        node: Option<u32>,
    },
}

/// Event queue + clock + deterministic RNG. See the module docs for the
/// driver-loop idiom.
pub struct Engine<E> {
    queue: EventQueue<(E, Birth)>,
    /// The births of popped wheel events that pending events descend
    /// from (recorded once arrival times are attached).
    births: Births,
    /// Merge front-end for decision points over pre-sorted workload
    /// arrivals (DESIGN.md §14). Shares the wheel's sequence counter, so
    /// the merged pop reproduces the exact `(time, seq)` order of an
    /// all-through-the-wheel run.
    points: ArrivalCalendar,
    now: SimTime,
    rng: SimRng,
    trace: TraceHandle,
    /// Every source's arrival times, once points may be filed without a
    /// seq; wheel events then record their births.
    times: Option<Rc<dyn ArrivalTimes>>,
    current: Current,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with a seeded RNG.
    pub fn new(seed: u64) -> Self {
        Engine {
            queue: EventQueue::new(),
            births: Births::default(),
            points: ArrivalCalendar::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            trace: TraceHandle::disabled(),
            times: None,
            current: Current::Setup,
        }
    }

    /// Attaches an event-trace handle; every clock advance is forwarded to
    /// the recorder so emission sites stamp events with sim time.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attaches the sources' arrival times, which lets
    /// [`file_point`](Self::file_point) file a point whose predecessor
    /// arrival was never popped. Call before scheduling anything.
    pub fn set_arrival_times(&mut self, times: Rc<dyn ArrivalTimes>) {
        assert!(
            self.queue.is_empty() && self.points.is_empty(),
            "arrival times attach before the first event"
        );
        self.points.set_times(Rc::clone(&times));
        self.times = Some(times);
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
        debug_assert!(
            self.times.is_none() || at > self.now || matches!(self.current, Current::Setup),
            "a wheel event for the instant it is scheduled at breaks the same-time order"
        );
        let birth = self.birth();
        self.queue.schedule(at, (ev, birth))
    }

    /// Schedules `ev` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, ev: E) -> EventId {
        self.schedule_at(self.now.saturating_add(after), ev)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.queue.cancel_take(id) {
            Some((_, birth)) => {
                self.births.release(birth);
                true
            }
            None => false,
        }
    }

    /// The birth of an event scheduled now (a placeholder unless
    /// arrival times are attached), referenced on the event's behalf.
    fn birth(&mut self) -> Birth {
        if self.times.is_none() {
            return Birth::Setup;
        }
        let birth = match &mut self.current {
            Current::Setup => Birth::Setup,
            &mut Current::Point { source, idx } => Birth::Arrival { source, idx },
            Current::Wheel {
                at,
                seq,
                birth,
                node,
            } => Birth::Wheel(*node.get_or_insert_with(|| self.births.record(*at, *seq, *birth))),
        };
        self.births.retain(birth);
        birth
    }

    /// Makes `next` the event being handled. The one it replaces drops
    /// its reference to its record, or to its birth if it has none.
    fn set_current(&mut self, next: Current) {
        match std::mem::replace(&mut self.current, next) {
            Current::Wheel {
                node: Some(node), ..
            } => self.births.release(Birth::Wheel(node)),
            Current::Wheel { birth, .. } => self.births.release(birth),
            Current::Setup | Current::Point { .. } => {}
        }
    }

    /// Files `source`'s decision point, arrival `idx` at `at`, moving
    /// the one pending. Filed right after arrival `idx − 1` of the same
    /// source was popped and handled (or at set-up, after every set-up
    /// event, for arrival 0 in source order), the point draws its
    /// sequence number from the *same* counter wheel events use, so a
    /// run that files every arrival pops the bit-identical `(time, seq)`
    /// stream of one that pushed them through [`Engine::schedule_at`].
    /// Any other point carries no seq and needs
    /// [`set_arrival_times`](Self::set_arrival_times): its same-time
    /// order is derived from the arrival times (`lineage`).
    pub fn file_point(&mut self, at: SimTime, source: u32, idx: u32) {
        debug_assert!(
            at >= self.now,
            "point filed into the past: {at} < {}",
            self.now
        );
        let drawn = match self.current {
            Current::Setup => idx == 0,
            Current::Point { source: s, idx: i } => s == source && i + 1 == idx,
            Current::Wheel { .. } => false,
        };
        let seq = if drawn {
            self.queue.take_seq()
        } else {
            assert!(
                self.times.is_some(),
                "a point after an unpopped arrival needs the arrival times"
            );
            VIRTUAL
        };
        self.points
            .set_point(source as usize, at.as_nanos(), seq, idx);
    }

    /// Withdraws `source`'s pending decision point, if any.
    pub fn withdraw_point(&mut self, source: u32) {
        self.points.remove(source as usize);
    }

    /// When `source`'s pending decision point is due, if it has one.
    #[inline]
    pub fn point_at(&self, source: u32) -> Option<SimTime> {
        self.points
            .point_at(source as usize)
            .map(SimTime::from_nanos)
    }

    /// Whether arrival `idx` of `source`, due at the current time, pops
    /// before the event being handled when every arrival is a point.
    /// Needs [`set_arrival_times`](Self::set_arrival_times).
    pub fn precedes_current(&self, source: u32, idx: u32) -> bool {
        let current = match self.current {
            // Set-up precedes every pop.
            Current::Setup => return false,
            Current::Point { source, idx } => Event::Arrival { source, idx },
            Current::Wheel { at, seq, birth, .. } => Event::Wheel { at, seq, birth },
        };
        let times = self
            .times
            .as_deref()
            .expect("same-time order needs the arrival times");
        lineage::cmp(Event::Arrival { source, idx }, current, times, &self.births) == Ordering::Less
    }

    /// Pops the next event if it fires at or before `deadline`, advancing
    /// the clock to its timestamp.
    pub fn next_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (t, _) = self.queue.peek_key()?;
        if SimTime::from_nanos(t) > deadline {
            return None;
        }
        Some(self.pop_wheel())
    }

    /// Pops the earliest of `min(points.peek(), wheel.peek())` — the
    /// global `(time, seq)` minimum across both backends, each peeked
    /// once — if it fires at or before `deadline`, advancing the clock
    /// to its timestamp.
    /// Deadline misses pop nothing and leave the clock untouched,
    /// exactly like [`Engine::next_before`].
    pub fn next_merged_before(&mut self, deadline: SimTime) -> Option<(SimTime, Popped<E>)> {
        // Sequence numbers are globally unique across both backends, so
        // a strict key comparison is a total order; equal times resolve
        // by schedule order, exactly as the wheel alone would, or by
        // lineage for a point without a seq.
        let wheel = self.queue.peek_entry();
        let point = self.points.peek().filter(|&(at, seq, source)| match wheel {
            None => true,
            Some((w_at, w_seq, _)) if at != w_at || seq & VIRTUAL == 0 => (at, seq) < (w_at, w_seq),
            Some((w_at, w_seq, &(_, birth))) => {
                let times = self.times.as_deref().expect("seqless points have times");
                let idx = self.points.point_idx(source);
                let point = Event::Arrival { source, idx };
                let wheel = Event::Wheel {
                    at: w_at,
                    seq: w_seq,
                    birth,
                };
                lineage::cmp(point, wheel, times, &self.births) == Ordering::Less
            }
        });
        if let Some((at, _seq, source)) = point {
            let t = SimTime::from_nanos(at);
            if t > deadline {
                return None;
            }
            self.points.pop();
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.trace.set_now(at);
            let idx = self.points.point_idx(source);
            self.set_current(Current::Point { source, idx });
            Some((t, Popped::Point(source)))
        } else {
            let (t, _) = self.queue.peek_key()?;
            if SimTime::from_nanos(t) > deadline {
                return None;
            }
            let (t, ev) = self.pop_wheel();
            Some((t, Popped::Timer(ev)))
        }
    }

    /// Pops the next event unconditionally, advancing the clock.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self with side effects on the clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.peek_key()?;
        Some(self.pop_wheel())
    }

    /// Pops the wheel's head (known to exist) and makes it current.
    fn pop_wheel(&mut self) -> (SimTime, E) {
        let (at, seq, (ev, birth)) = self.queue.pop_keyed().expect("the wheel has a head");
        let t = SimTime::from_nanos(at);
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.trace.set_now(at);
        self.set_current(Current::Wheel {
            at,
            seq,
            birth,
            node: None,
        });
        (t, ev)
    }

    /// Timestamp of the earliest pending event: the earlier of the
    /// calendar's head and the wheel's head.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let point = self.points.peek().map(|(at, _, _)| at);
        let timer = self.queue.peek_key().map(|(at, _)| at);
        let earliest = [point, timer].into_iter().flatten().min();
        earliest.map(SimTime::from_nanos)
    }

    /// Number of pending events (wheel events and decision points).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.points.len()
    }

    /// Deterministic scheduler operation counters (see [`QueueStats`])
    /// accumulated since the engine was created: the wheel's counters
    /// plus the decision points popped. The arrival counters are the
    /// simulation's, which owns the cursors; the snapshot satisfies
    /// [`QueueStats::ledger_balanced`] with them at zero.
    pub fn queue_stats(&self) -> QueueStats {
        let mut stats = self.queue.stats();
        stats.points_popped = self.points.popped();
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
    fn merged_pop_interleaves_points_and_timers_by_key() {
        let mut eng = Engine::new(1);
        eng.file_point(SimTime::from_nanos(5), 0, 0); // seq 0
        eng.schedule_at(SimTime::from_nanos(5), "timer@5"); // seq 1
        eng.file_point(SimTime::from_nanos(3), 1, 0); // seq 2
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
                (3, Popped::Point(1)),
                // Same nanosecond: the point was filed first, so its
                // shared seq (0) wins the FIFO tie against seq 1.
                (5, Popped::Point(0)),
                (5, Popped::Timer("timer@5")),
            ]
        );
        let stats = eng.queue_stats();
        assert_eq!(stats.points_popped, 2);
        assert_eq!(stats.scheduled, 2);
        assert_eq!(stats.popped, 2);
        assert_eq!(stats.pending_at_teardown, 0);
        assert!(stats.ledger_balanced());
    }

    #[test]
    fn merged_deadline_miss_pops_nothing_for_either_backend() {
        let mut eng = Engine::<()>::new(1);
        eng.file_point(SimTime::from_secs(2), 0, 0);
        assert!(eng.next_merged_before(SimTime::from_secs(1)).is_none());
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.pending(), 1);
        assert!(eng.queue_stats().ledger_balanced());
        assert!(eng.next_merged_before(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn moved_and_withdrawn_points() {
        let mut eng = Engine::<()>::new(1);
        eng.set_arrival_times(Rc::new(Times(vec![vec![10, 12, 40], vec![15, 20]])));
        eng.file_point(SimTime::from_nanos(10), 0, 0);
        eng.file_point(SimTime::from_nanos(20), 1, 1);
        let (_, popped) = eng.next_merged_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(popped, Popped::Point(0));
        // Source 1's point moves earlier, source 0 files its next
        // arrival and withdraws it again, then files a later one.
        eng.file_point(SimTime::from_nanos(15), 1, 0);
        eng.file_point(SimTime::from_nanos(12), 0, 1);
        eng.withdraw_point(0);
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.point_at(0), None);
        assert_eq!(eng.point_at(1), Some(SimTime::from_nanos(15)));
        assert_eq!(eng.point_at(9), None, "a source never filed");
        eng.file_point(SimTime::from_nanos(40), 0, 2);
        let order: Vec<_> = std::iter::from_fn(|| eng.next_merged_before(SimTime::from_secs(1)))
            .map(|(t, ev)| (t.as_nanos(), ev))
            .collect();
        assert_eq!(order, vec![(15, Popped::Point(1)), (40, Popped::Point(0))]);
    }

    /// Two sources' arrival times for the same-time tests.
    struct Times(Vec<Vec<u64>>);

    impl ArrivalTimes for Times {
        fn arrival_ns(&self, source: u32, idx: u32) -> u64 {
            self.0[source as usize][idx as usize]
        }
    }

    #[test]
    fn seqless_point_orders_against_a_same_time_timer_by_birth() {
        // Source 0 arrives at 10 and 30; a timer due at 30 is scheduled
        // at 20, after arrival 0 popped, so when every arrival is filed
        // arrival 1 (seq drawn at 10) pops first. Filing only arrival 1,
        // at 20, must keep that order.
        let mut eng = Engine::new(1);
        eng.set_arrival_times(Rc::new(Times(vec![vec![10, 30]])));
        eng.schedule_at(SimTime::from_nanos(20), "tick@20");
        let (_, first) = eng.next_merged_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(first, Popped::Timer("tick@20"));
        eng.schedule_at(SimTime::from_nanos(30), "timer@30");
        eng.file_point(SimTime::from_nanos(30), 0, 1);
        assert!(eng.precedes_current(0, 0), "arrival 0 came before the tick");
        assert!(!eng.precedes_current(0, 1), "arrival 1 is still due");
        let order: Vec<_> = std::iter::from_fn(|| eng.next_merged_before(SimTime::from_secs(1)))
            .map(|(_, ev)| ev)
            .collect();
        assert_eq!(order, vec![Popped::Point(0), Popped::Timer("timer@30")]);
    }

    #[test]
    fn peek_time_sees_points_and_timers() {
        let mut eng = Engine::new(1);
        assert_eq!(eng.peek_time(), None);
        eng.schedule_at(SimTime::from_nanos(5), "timer@5");
        eng.file_point(SimTime::from_nanos(3), 0, 0);
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
