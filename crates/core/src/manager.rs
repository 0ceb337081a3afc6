//! The core manager (§V-B).
//!
//! One manager per core. It "accepts reservation requests for specific
//! slots made by the consumers", maintains the per-slot invocation lists,
//! supports deregistration, and — crucially for power — "will schedule
//! the next slot with at least one reservation, thus ensuring that the
//! CPU is not activated needlessly".
//!
//! The manager also provides the *backtracking helper* the consumer's
//! slot selection leans on: "using a helper function in the core manager
//! that backtracks to the next slot with reservations, the backtracking
//! process only consumes one iteration" — here
//! [`CoreManager::latest_reserved_in`].
//!
//! Memory stays bounded exactly as the paper argues: "future reservations
//! are limited to only the next invocation of every consumer", so the map
//! holds at most one entry per consumer hosted on the core.

use crate::model::ConsumerId;
use crate::slot::{SlotIndex, SlotTrack};
use pc_trace_events::{TraceEvent, TraceHandle};
use std::collections::BTreeMap;

/// Slot reservation book-keeping for one core.
///
/// ```
/// use pc_core::{CoreManager, PairId, SlotTrack};
/// use pc_sim::SimDuration;
///
/// let mut mgr = CoreManager::new(SlotTrack::new(SimDuration::from_millis(25)));
/// mgr.reserve(4, PairId(0));
/// mgr.reserve(4, PairId(1));           // latches onto the same slot
/// assert_eq!(mgr.first_reserved(), Some(4));
/// let group = mgr.take_due(4);         // one wakeup serves both
/// assert_eq!(group.len(), 2);
/// assert_eq!(mgr.scheduled_wakeups(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoreManager {
    track: SlotTrack,
    /// slot index → consumers to invoke at that slot.
    reservations: BTreeMap<SlotIndex, Vec<ConsumerId>>,
    /// Where each consumer currently holds its (single) reservation.
    held: BTreeMap<ConsumerId, SlotIndex>,
    /// Total wakeups this manager has scheduled (slots dispatched).
    scheduled_wakeups: u64,
    /// Event-trace handle (disabled by default) and the core index used
    /// to tag emitted `Slot*` events.
    trace: TraceHandle,
    core_tag: u32,
}

impl CoreManager {
    /// A manager over the given slot track with no reservations.
    pub fn new(track: SlotTrack) -> Self {
        CoreManager {
            track,
            reservations: BTreeMap::new(),
            held: BTreeMap::new(),
            scheduled_wakeups: 0,
            trace: TraceHandle::disabled(),
            core_tag: 0,
        }
    }

    /// Attaches an event-trace handle, tagging this manager's
    /// reservation traffic with `core` (the core index it manages).
    pub fn set_trace(&mut self, trace: TraceHandle, core: u32) {
        self.trace = trace;
        self.core_tag = core;
    }

    /// The slot track this manager schedules on.
    pub fn track(&self) -> &SlotTrack {
        &self.track
    }

    /// Reserves `slot` for `consumer`, replacing the consumer's previous
    /// reservation if any (each consumer holds at most one — its next
    /// invocation).
    pub fn reserve(&mut self, slot: SlotIndex, consumer: ConsumerId) {
        let prev = self.held.insert(consumer, slot);
        if let Some(old) = prev {
            if old == slot {
                return;
            }
            self.remove_from_slot(old, consumer);
        }
        self.reservations.entry(slot).or_default().push(consumer);
        self.trace.record(|| TraceEvent::SlotReserve {
            core: self.core_tag,
            consumer: consumer.0 as u32,
            slot,
            prev,
        });
    }

    /// Drops `consumer`'s reservation, if it holds one. Returns the slot
    /// it held.
    pub fn deregister(&mut self, consumer: ConsumerId) -> Option<SlotIndex> {
        let slot = self.held.remove(&consumer)?;
        self.remove_from_slot(slot, consumer);
        self.trace.record(|| TraceEvent::SlotRelease {
            core: self.core_tag,
            consumer: consumer.0 as u32,
            slot,
        });
        Some(slot)
    }

    fn remove_from_slot(&mut self, slot: SlotIndex, consumer: ConsumerId) {
        if let Some(list) = self.reservations.get_mut(&slot) {
            list.retain(|&c| c != consumer);
            if list.is_empty() {
                self.reservations.remove(&slot);
            }
        }
    }

    /// The consumer's current reservation, if any.
    pub fn reservation_of(&self, consumer: ConsumerId) -> Option<SlotIndex> {
        self.held.get(&consumer).copied()
    }

    /// Whether any consumer is registered for `slot`.
    pub fn has_reservation(&self, slot: SlotIndex) -> bool {
        self.reservations.contains_key(&slot)
    }

    /// Whether any consumer *other than* `except` is registered for
    /// `slot`. This is the latch test: a consumer's own reservation does
    /// not make its wakeup free.
    pub fn has_reservation_excluding(&self, slot: SlotIndex, except: ConsumerId) -> bool {
        self.reservations
            .get(&slot)
            .map(|l| l.iter().any(|&c| c != except))
            .unwrap_or(false)
    }

    /// The earliest reserved slot — what the manager arms its next
    /// wakeup for.
    pub fn first_reserved(&self) -> Option<SlotIndex> {
        self.reservations.keys().next().copied()
    }

    /// The earliest reserved slot at or after `slot`.
    pub fn next_reserved_at_or_after(&self, slot: SlotIndex) -> Option<SlotIndex> {
        self.reservations.range(slot..).next().map(|(&s, _)| s)
    }

    /// The backtracking helper (§V-C): the *latest* reserved slot in
    /// `(after, upto]`, i.e. the first latching opportunity encountered
    /// when walking backwards from `upto`.
    pub fn latest_reserved_in(&self, after: SlotIndex, upto: SlotIndex) -> Option<SlotIndex> {
        if upto <= after {
            return None;
        }
        self.reservations
            .range(after + 1..=upto)
            .next_back()
            .map(|(&s, _)| s)
    }

    /// [`CoreManager::latest_reserved_in`] skipping slots whose only
    /// reservee is `except` (no latch value in one's own reservation).
    pub fn latest_reserved_in_excluding(
        &self,
        after: SlotIndex,
        upto: SlotIndex,
        except: ConsumerId,
    ) -> Option<SlotIndex> {
        if upto <= after {
            return None;
        }
        self.reservations
            .range(after + 1..=upto)
            .rev()
            .find(|(_, l)| l.iter().any(|&c| c != except))
            .map(|(&s, _)| s)
    }

    /// Removes and returns the consumers registered for `slot`, counting
    /// one scheduled wakeup if any were present.
    pub fn take_due(&mut self, slot: SlotIndex) -> Vec<ConsumerId> {
        match self.reservations.remove(&slot) {
            Some(list) => {
                for c in &list {
                    self.held.remove(c);
                }
                self.scheduled_wakeups += 1;
                self.trace.record(|| TraceEvent::SlotDispatch {
                    core: self.core_tag,
                    slot,
                    consumers: list.iter().map(|c| c.0 as u32).collect(),
                });
                list
            }
            None => Vec::new(),
        }
    }

    /// How many consumers are registered for `slot`.
    pub fn take_count_at(&self, slot: SlotIndex) -> usize {
        self.reservations.get(&slot).map(|l| l.len()).unwrap_or(0)
    }

    /// Number of slot wakeups dispatched so far.
    pub fn scheduled_wakeups(&self) -> u64 {
        self.scheduled_wakeups
    }

    /// Number of live reservations (consumers with a pending slot).
    pub fn pending(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PairId;
    use pc_sim::SimDuration;

    fn mgr() -> CoreManager {
        CoreManager::new(SlotTrack::new(SimDuration::from_millis(1)))
    }

    #[test]
    fn reserve_and_take() {
        let mut m = mgr();
        m.reserve(5, PairId(0));
        m.reserve(5, PairId(1));
        m.reserve(7, PairId(2));
        assert!(m.has_reservation(5));
        assert_eq!(m.first_reserved(), Some(5));
        let due = m.take_due(5);
        assert_eq!(due, vec![PairId(0), PairId(1)]);
        assert_eq!(m.first_reserved(), Some(7));
        assert_eq!(m.scheduled_wakeups(), 1);
    }

    #[test]
    fn take_empty_slot_is_free() {
        let mut m = mgr();
        assert!(m.take_due(3).is_empty());
        assert_eq!(m.scheduled_wakeups(), 0);
    }

    #[test]
    fn rereservation_moves_consumer() {
        let mut m = mgr();
        m.reserve(5, PairId(0));
        m.reserve(9, PairId(1));
        m.reserve(9, PairId(0));
        assert!(!m.has_reservation(5), "old slot must be vacated");
        assert_eq!(m.reservation_of(PairId(0)), Some(9));
        assert_eq!(m.pending(), 2);
        assert_eq!(
            m.take_due(9),
            vec![PairId(1), PairId(0)],
            "a moved reservation joins the back of its new slot"
        );
    }

    #[test]
    fn rereserving_same_slot_is_idempotent() {
        let mut m = mgr();
        m.reserve(5, PairId(0));
        m.reserve(5, PairId(1));
        m.reserve(5, PairId(0));
        assert_eq!(
            m.take_due(5),
            vec![PairId(0), PairId(1)],
            "keeps its place in the slot's order"
        );
    }

    #[test]
    fn deregister_clears() {
        let mut m = mgr();
        m.reserve(4, PairId(1));
        assert_eq!(m.deregister(PairId(1)), Some(4));
        assert!(!m.has_reservation(4));
        assert_eq!(m.deregister(PairId(1)), None);
    }

    #[test]
    fn next_reserved_at_or_after_scans_forward() {
        let mut m = mgr();
        m.reserve(10, PairId(0));
        m.reserve(20, PairId(1));
        assert_eq!(m.next_reserved_at_or_after(0), Some(10));
        assert_eq!(m.next_reserved_at_or_after(10), Some(10));
        assert_eq!(m.next_reserved_at_or_after(11), Some(20));
        assert_eq!(m.next_reserved_at_or_after(21), None);
    }

    #[test]
    fn latest_reserved_in_backtracks() {
        let mut m = mgr();
        m.reserve(10, PairId(0));
        m.reserve(14, PairId(1));
        m.reserve(30, PairId(2));
        // Walking back from slot 20: the first reserved slot met is 14.
        assert_eq!(m.latest_reserved_in(5, 20), Some(14));
        // Bounds are (after, upto]: slot 10 excluded when after = 10.
        assert_eq!(m.latest_reserved_in(10, 13), None);
        assert_eq!(m.latest_reserved_in(10, 14), Some(14));
        assert_eq!(m.latest_reserved_in(20, 20), None);
        assert_eq!(m.latest_reserved_in(20, 19), None, "empty range");
    }

    #[test]
    fn per_slot_fifo_order_preserved() {
        let mut m = mgr();
        for k in 0..5 {
            m.reserve(3, PairId(k));
        }
        assert_eq!(
            m.take_due(3),
            (0..5).map(PairId).collect::<Vec<_>>(),
            "consumers dispatch in reservation order"
        );
    }

    #[test]
    fn exclusion_queries_ignore_own_reservation() {
        let mut m = mgr();
        m.reserve(5, PairId(0));
        assert!(m.has_reservation(5));
        assert!(!m.has_reservation_excluding(5, PairId(0)));
        m.reserve(5, PairId(1));
        assert!(m.has_reservation_excluding(5, PairId(0)));
        // Backtracking skips the self-only slot 9 but finds shared slot 5.
        m.reserve(9, PairId(2));
        assert_eq!(m.latest_reserved_in_excluding(0, 10, PairId(2)), Some(5));
        assert_eq!(m.latest_reserved_in(0, 10), Some(9));
    }

    #[test]
    fn memory_bounded_by_consumer_count() {
        let mut m = mgr();
        // A consumer re-reserving thousands of times leaves one entry.
        for slot in 0..10_000 {
            m.reserve(slot, PairId(0));
        }
        assert_eq!(m.pending(), 1);
        assert_eq!(m.first_reserved(), Some(9_999));
    }

    #[test]
    fn dispatch_follows_reservation_order_not_consumer_id() {
        let mut m = mgr();
        let order = [4usize, 1, 5, 0, 2, 3];
        for &c in &order {
            m.reserve(7, PairId(c));
        }
        assert_eq!(m.take_count_at(7), order.len());
        assert_eq!(
            m.take_due(7),
            order.iter().map(|&c| PairId(c)).collect::<Vec<_>>()
        );
        assert_eq!(m.scheduled_wakeups(), 1, "one wakeup serves the group");
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn leaving_a_group_keeps_the_rest_in_order() {
        let mut m = mgr();
        for c in [3usize, 0, 2, 1] {
            m.reserve(6, PairId(c));
        }
        assert_eq!(m.deregister(PairId(0)), Some(6));
        m.reserve(9, PairId(2));
        assert_eq!(m.take_count_at(6), 2);
        assert_eq!(m.take_due(6), vec![PairId(3), PairId(1)]);
        assert_eq!(m.take_due(9), vec![PairId(2)]);
        assert_eq!(m.scheduled_wakeups(), 2);
    }

    #[test]
    fn vacated_slot_costs_no_wakeup() {
        // The manager only schedules slots that still hold someone: a
        // consumer moving off its lone slot must not leave a wakeup
        // behind (§V-B, "the CPU is not activated needlessly").
        let mut m = mgr();
        m.reserve(3, PairId(0));
        m.reserve(8, PairId(1));
        m.reserve(8, PairId(0));
        assert_eq!(m.first_reserved(), Some(8));
        assert_eq!(m.next_reserved_at_or_after(0), Some(8));
        assert!(m.take_due(3).is_empty());
        assert_eq!(m.scheduled_wakeups(), 0);
        assert_eq!(m.take_due(8), vec![PairId(1), PairId(0)]);
        assert_eq!(m.scheduled_wakeups(), 1);
    }

    #[test]
    fn reservation_traffic_is_traced() {
        use pc_trace_events::Recorder;
        let recorder = Recorder::new();
        let mut m = mgr();
        m.set_trace(recorder.handle(), 3);
        m.reserve(5, PairId(0));
        m.reserve(5, PairId(0)); // same slot: silent
        m.reserve(5, PairId(1));
        m.reserve(9, PairId(0)); // move: names the slot it left
        assert_eq!(m.deregister(PairId(2)), None); // nothing held: silent
        assert!(m.take_due(4).is_empty()); // nothing due: silent
        assert_eq!(m.deregister(PairId(0)), Some(9));
        m.take_due(5);
        let kinds: Vec<TraceEvent> = recorder.take().events.iter().map(|e| e.kind).collect();
        let reserve = |consumer, slot, prev| TraceEvent::SlotReserve {
            core: 3,
            consumer,
            slot,
            prev,
        };
        assert_eq!(
            kinds,
            vec![
                reserve(0, 5, None),
                reserve(1, 5, None),
                reserve(0, 9, Some(5)),
                TraceEvent::SlotRelease {
                    core: 3,
                    consumer: 0,
                    slot: 9,
                },
                TraceEvent::SlotDispatch {
                    core: 3,
                    slot: 5,
                    consumers: vec![1],
                },
            ]
        );
    }

    #[test]
    fn matches_reference_book_on_random_ops() {
        // Differential check against the plainest possible book: one
        // list of (slot, consumer) in reservation order. A move goes to
        // the back; a same-slot re-reservation keeps its place.
        let mut m = mgr();
        let mut model: Vec<(SlotIndex, ConsumerId)> = Vec::new();
        let mut wakeups = 0u64;
        let mut x = 0x5eed_u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let slots = |model: &[(SlotIndex, ConsumerId)],
                     pred: &dyn Fn(&(SlotIndex, ConsumerId)) -> bool| {
            let mut s: Vec<SlotIndex> = model.iter().filter(|e| pred(e)).map(|e| e.0).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for _ in 0..4000 {
            let c = PairId((rnd() % 9) as usize);
            match rnd() % 5 {
                0 | 1 => {
                    let slot = rnd() % 12;
                    m.reserve(slot, c);
                    if !model.contains(&(slot, c)) {
                        model.retain(|e| e.1 != c);
                        model.push((slot, c));
                    }
                }
                2 => {
                    let held = model.iter().find(|e| e.1 == c).map(|e| e.0);
                    model.retain(|e| e.1 != c);
                    assert_eq!(m.deregister(c), held);
                }
                3 => {
                    let slot = rnd() % 12;
                    let due: Vec<ConsumerId> =
                        model.iter().filter(|e| e.0 == slot).map(|e| e.1).collect();
                    model.retain(|e| e.0 != slot);
                    wakeups += u64::from(!due.is_empty());
                    assert_eq!(m.take_due(slot), due);
                }
                _ => {
                    let after = rnd() % 12;
                    let upto = rnd() % 12;
                    let all = slots(&model, &|_| true);
                    let others = slots(&model, &|e| e.1 != c);
                    let latest = |s: &[SlotIndex]| {
                        s.iter().rev().find(|&&s| s > after && s <= upto).copied()
                    };
                    assert_eq!(m.first_reserved(), all.first().copied());
                    assert_eq!(
                        m.next_reserved_at_or_after(after),
                        all.iter().find(|&&s| s >= after).copied()
                    );
                    assert_eq!(m.latest_reserved_in(after, upto), latest(&all));
                    assert_eq!(
                        m.latest_reserved_in_excluding(after, upto, c),
                        latest(&others)
                    );
                    assert_eq!(m.has_reservation(upto), all.contains(&upto));
                    assert_eq!(m.has_reservation_excluding(upto, c), others.contains(&upto));
                    assert_eq!(
                        m.take_count_at(upto),
                        model.iter().filter(|e| e.0 == upto).count()
                    );
                    assert_eq!(
                        m.reservation_of(c),
                        model.iter().find(|e| e.1 == c).map(|e| e.0)
                    );
                    assert_eq!(m.pending(), model.len());
                }
            }
        }
        assert_eq!(m.scheduled_wakeups(), wakeups);
        assert!(wakeups > 0, "the op stream must dispatch something");
    }
}
