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

/// The read-only reservation queries slot selection needs (§V-C).
///
/// [`crate::cost::select_slot`] is generic over this trait so the same
/// backtracking search runs against a single [`CoreManager`] or a
/// [`ShardedCoreManager`] — the latter answers each query over the
/// union of its shards' books.
pub trait ReservationBook {
    /// The slot track the book schedules on.
    fn track(&self) -> &SlotTrack;
    /// Whether any consumer is registered for `slot`.
    fn has_reservation(&self, slot: SlotIndex) -> bool;
    /// Whether any consumer other than `except` is registered for
    /// `slot`.
    fn has_reservation_excluding(&self, slot: SlotIndex, except: ConsumerId) -> bool;
    /// The latest reserved slot in `(after, upto]`.
    fn latest_reserved_in(&self, after: SlotIndex, upto: SlotIndex) -> Option<SlotIndex>;
    /// [`ReservationBook::latest_reserved_in`] skipping slots whose only
    /// reservee is `except`.
    fn latest_reserved_in_excluding(
        &self,
        after: SlotIndex,
        upto: SlotIndex,
        except: ConsumerId,
    ) -> Option<SlotIndex>;
}

impl ReservationBook for CoreManager {
    fn track(&self) -> &SlotTrack {
        CoreManager::track(self)
    }
    fn has_reservation(&self, slot: SlotIndex) -> bool {
        CoreManager::has_reservation(self, slot)
    }
    fn has_reservation_excluding(&self, slot: SlotIndex, except: ConsumerId) -> bool {
        CoreManager::has_reservation_excluding(self, slot, except)
    }
    fn latest_reserved_in(&self, after: SlotIndex, upto: SlotIndex) -> Option<SlotIndex> {
        CoreManager::latest_reserved_in(self, after, upto)
    }
    fn latest_reserved_in_excluding(
        &self,
        after: SlotIndex,
        upto: SlotIndex,
        except: ConsumerId,
    ) -> Option<SlotIndex> {
        CoreManager::latest_reserved_in_excluding(self, after, upto, except)
    }
}

/// A core manager split into `S` independent shards (DESIGN.md §11).
///
/// Consumers hash to shards by `PairId` (`consumer mod S`), so at large
/// M the mutation-heavy book-keeping — reserve, deregister, dispatch
/// removal — touches only one shard's maps. The wrapper preserves the
/// *exact* semantics of a single [`CoreManager`]:
///
/// * **Queries** aggregate over the union of the shards' books (min for
///   "earliest", max for "latest", any/sum for the rest), so latching
///   still sees every reservation on the core.
/// * **Dispatch** ([`ShardedCoreManager::take_due`]) walks the shards
///   round-robin, steals each shard's due list, and merges them back
///   into global reservation order using per-reservation sequence
///   stamps — byte-for-byte the FIFO order a single manager would have
///   produced. This merge is the deterministic cross-shard
///   work-stealing pass: one wakeup serves every shard's due work.
/// * **Events and counters** live on the wrapper (inner shards trace
///   nothing), so `Slot*` event streams and `scheduled_wakeups` are
///   identical for any shard count — the determinism gate relies on
///   this.
///
/// With `S = 1` this is a thin wrapper over one [`CoreManager`].
#[derive(Debug, Clone)]
pub struct ShardedCoreManager {
    track: SlotTrack,
    shards: Vec<CoreManager>,
    /// Global arrival stamp per live reservation; assigns merge order
    /// across shards. Idempotent same-slot re-reservations keep their
    /// stamp, exactly as a single manager keeps the consumer's position
    /// in the slot's FIFO list.
    stamps: BTreeMap<ConsumerId, u64>,
    next_stamp: u64,
    scheduled_wakeups: u64,
    trace: TraceHandle,
    core_tag: u32,
}

impl ShardedCoreManager {
    /// A manager over `track` with `shards ≥ 1` internal shards.
    pub fn new(track: SlotTrack, shards: usize) -> Self {
        assert!(shards >= 1, "core manager needs at least one shard");
        ShardedCoreManager {
            track,
            shards: (0..shards).map(|_| CoreManager::new(track)).collect(),
            stamps: BTreeMap::new(),
            next_stamp: 0,
            scheduled_wakeups: 0,
            trace: TraceHandle::disabled(),
            core_tag: 0,
        }
    }

    /// Attaches an event-trace handle to the *wrapper* (inner shards
    /// stay silent), tagging emitted `Slot*` events with `core`.
    pub fn set_trace(&mut self, trace: TraceHandle, core: u32) {
        self.trace = trace;
        self.core_tag = core;
    }

    /// The slot track this manager schedules on.
    pub fn track(&self) -> &SlotTrack {
        &self.track
    }

    /// Number of internal shards (`S`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, consumer: ConsumerId) -> usize {
        consumer.0 % self.shards.len()
    }

    /// Reserves `slot` for `consumer` on its home shard, replacing the
    /// consumer's previous reservation if any. Same-slot re-reservation
    /// is a silent no-op (no event, stamp unchanged), matching
    /// [`CoreManager::reserve`].
    pub fn reserve(&mut self, slot: SlotIndex, consumer: ConsumerId) {
        let shard = self.shard_of(consumer);
        let prev = self.shards[shard].reservation_of(consumer);
        if prev == Some(slot) {
            return;
        }
        self.shards[shard].reserve(slot, consumer);
        self.stamps.insert(consumer, self.next_stamp);
        self.next_stamp += 1;
        self.trace.record(|| TraceEvent::SlotReserve {
            core: self.core_tag,
            consumer: consumer.0 as u32,
            slot,
            prev,
        });
    }

    /// Drops `consumer`'s reservation, if it holds one. Returns the
    /// slot it held.
    pub fn deregister(&mut self, consumer: ConsumerId) -> Option<SlotIndex> {
        let shard = self.shard_of(consumer);
        let slot = self.shards[shard].deregister(consumer)?;
        self.stamps.remove(&consumer);
        self.trace.record(|| TraceEvent::SlotRelease {
            core: self.core_tag,
            consumer: consumer.0 as u32,
            slot,
        });
        Some(slot)
    }

    /// The consumer's current reservation, if any.
    pub fn reservation_of(&self, consumer: ConsumerId) -> Option<SlotIndex> {
        self.shards[self.shard_of(consumer)].reservation_of(consumer)
    }

    /// Whether any consumer on any shard is registered for `slot`.
    pub fn has_reservation(&self, slot: SlotIndex) -> bool {
        self.shards.iter().any(|s| s.has_reservation(slot))
    }

    /// Whether any consumer other than `except` is registered for
    /// `slot`, across all shards.
    pub fn has_reservation_excluding(&self, slot: SlotIndex, except: ConsumerId) -> bool {
        self.shards
            .iter()
            .any(|s| s.has_reservation_excluding(slot, except))
    }

    /// The earliest reserved slot across all shards.
    pub fn first_reserved(&self) -> Option<SlotIndex> {
        self.shards.iter().filter_map(|s| s.first_reserved()).min()
    }

    /// The earliest reserved slot at or after `slot`, across all shards.
    pub fn next_reserved_at_or_after(&self, slot: SlotIndex) -> Option<SlotIndex> {
        self.shards
            .iter()
            .filter_map(|s| s.next_reserved_at_or_after(slot))
            .min()
    }

    /// The latest reserved slot in `(after, upto]`, across all shards.
    pub fn latest_reserved_in(&self, after: SlotIndex, upto: SlotIndex) -> Option<SlotIndex> {
        self.shards
            .iter()
            .filter_map(|s| s.latest_reserved_in(after, upto))
            .max()
    }

    /// [`ShardedCoreManager::latest_reserved_in`] skipping slots whose
    /// only reservee is `except`.
    pub fn latest_reserved_in_excluding(
        &self,
        after: SlotIndex,
        upto: SlotIndex,
        except: ConsumerId,
    ) -> Option<SlotIndex> {
        self.shards
            .iter()
            .filter_map(|s| s.latest_reserved_in_excluding(after, upto, except))
            .max()
    }

    /// Removes and returns the consumers registered for `slot` on every
    /// shard (round-robin steal), merged back into global reservation
    /// order via the sequence stamps; counts one scheduled wakeup if
    /// any were present.
    pub fn take_due(&mut self, slot: SlotIndex) -> Vec<ConsumerId> {
        let mut due: Vec<(u64, ConsumerId)> = Vec::new();
        for shard in &mut self.shards {
            for c in shard.take_due(slot) {
                let stamp = self
                    .stamps
                    .remove(&c)
                    .expect("every live reservation is stamped");
                due.push((stamp, c));
            }
        }
        if due.is_empty() {
            return Vec::new();
        }
        due.sort_unstable_by_key(|&(stamp, _)| stamp);
        let list: Vec<ConsumerId> = due.into_iter().map(|(_, c)| c).collect();
        self.scheduled_wakeups += 1;
        self.trace.record(|| TraceEvent::SlotDispatch {
            core: self.core_tag,
            slot,
            consumers: list.iter().map(|c| c.0 as u32).collect(),
        });
        list
    }

    /// How many consumers are registered for `slot`, across all shards.
    pub fn take_count_at(&self, slot: SlotIndex) -> usize {
        self.shards.iter().map(|s| s.take_count_at(slot)).sum()
    }

    /// Number of slot wakeups dispatched so far (wrapper counter; the
    /// inner shards' own counters are not exposed).
    pub fn scheduled_wakeups(&self) -> u64 {
        self.scheduled_wakeups
    }

    /// Number of live reservations across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending()).sum()
    }
}

impl ReservationBook for ShardedCoreManager {
    fn track(&self) -> &SlotTrack {
        ShardedCoreManager::track(self)
    }
    fn has_reservation(&self, slot: SlotIndex) -> bool {
        ShardedCoreManager::has_reservation(self, slot)
    }
    fn has_reservation_excluding(&self, slot: SlotIndex, except: ConsumerId) -> bool {
        ShardedCoreManager::has_reservation_excluding(self, slot, except)
    }
    fn latest_reserved_in(&self, after: SlotIndex, upto: SlotIndex) -> Option<SlotIndex> {
        ShardedCoreManager::latest_reserved_in(self, after, upto)
    }
    fn latest_reserved_in_excluding(
        &self,
        after: SlotIndex,
        upto: SlotIndex,
        except: ConsumerId,
    ) -> Option<SlotIndex> {
        ShardedCoreManager::latest_reserved_in_excluding(self, after, upto, except)
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
        m.reserve(9, PairId(0));
        assert!(!m.has_reservation(5), "old slot must be vacated");
        assert_eq!(m.reservation_of(PairId(0)), Some(9));
        assert_eq!(m.pending(), 1);
    }

    #[test]
    fn rereserving_same_slot_is_idempotent() {
        let mut m = mgr();
        m.reserve(5, PairId(0));
        m.reserve(5, PairId(0));
        assert_eq!(m.take_due(5), vec![PairId(0)]);
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

    fn sharded(shards: usize) -> ShardedCoreManager {
        ShardedCoreManager::new(SlotTrack::new(SimDuration::from_millis(1)), shards)
    }

    #[test]
    fn sharded_merge_preserves_global_fifo_order() {
        // Consumers 0..6 land on different shards (mod 3) but must
        // dispatch in global reservation order, like one big manager.
        for shards in [1, 2, 3, 4] {
            let mut m = sharded(shards);
            let order = [4usize, 1, 5, 0, 2, 3];
            for &c in &order {
                m.reserve(7, PairId(c));
            }
            assert_eq!(
                m.take_due(7),
                order.iter().map(|&c| PairId(c)).collect::<Vec<_>>(),
                "shards = {shards}"
            );
            assert_eq!(m.scheduled_wakeups(), 1);
        }
    }

    #[test]
    fn sharded_same_slot_rereserve_keeps_stamp() {
        let mut m = sharded(3);
        m.reserve(7, PairId(0));
        m.reserve(7, PairId(1));
        m.reserve(7, PairId(0)); // idempotent: keeps position 0
        assert_eq!(m.take_due(7), vec![PairId(0), PairId(1)]);
    }

    #[test]
    fn sharded_move_restamps_to_back() {
        let mut m = sharded(3);
        m.reserve(5, PairId(0));
        m.reserve(7, PairId(1));
        m.reserve(7, PairId(0)); // moved: goes to the back, like FIFO push
        assert_eq!(m.take_due(7), vec![PairId(1), PairId(0)]);
        assert!(!m.has_reservation(5), "old slot vacated");
    }

    #[test]
    fn sharded_matches_unsharded_on_random_ops() {
        // Differential check: a pseudo-random op stream must produce
        // identical observable behaviour on 1 vs 4 shards.
        let mut a = sharded(1);
        let mut b = sharded(4);
        let mut x = 0x5eed_u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let c = PairId((rnd() % 9) as usize);
            match rnd() % 5 {
                0 | 1 => {
                    let slot = rnd() % 12;
                    a.reserve(slot, c);
                    b.reserve(slot, c);
                }
                2 => {
                    assert_eq!(a.deregister(c), b.deregister(c));
                }
                3 => {
                    let slot = rnd() % 12;
                    assert_eq!(a.take_due(slot), b.take_due(slot));
                }
                _ => {
                    let after = rnd() % 12;
                    let upto = rnd() % 12;
                    assert_eq!(a.first_reserved(), b.first_reserved());
                    assert_eq!(
                        a.latest_reserved_in(after, upto),
                        b.latest_reserved_in(after, upto)
                    );
                    assert_eq!(
                        a.latest_reserved_in_excluding(after, upto, c),
                        b.latest_reserved_in_excluding(after, upto, c)
                    );
                    assert_eq!(a.has_reservation(upto), b.has_reservation(upto));
                    assert_eq!(
                        a.has_reservation_excluding(upto, c),
                        b.has_reservation_excluding(upto, c)
                    );
                    assert_eq!(a.pending(), b.pending());
                    assert_eq!(a.take_count_at(upto), b.take_count_at(upto));
                }
            }
        }
        assert_eq!(a.scheduled_wakeups(), b.scheduled_wakeups());
    }
}
