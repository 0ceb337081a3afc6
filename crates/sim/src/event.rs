//! A cancellable discrete-event priority queue on a hierarchical timer
//! wheel.
//!
//! Events are ordered by their scheduled time; ties are broken by insertion
//! order (FIFO), which keeps simulations deterministic when several events
//! fall on the same nanosecond — a common situation when consumer wakeups
//! are deliberately *aligned to slots*, which is the whole point of the
//! PBPL algorithm.
//!
//! The queue is a hierarchical timer wheel (DESIGN.md §13) rather than a
//! binary heap: `schedule` and `cancel` are O(1) — an event lives in a
//! slab node linked into a doubly-linked bucket, so cancellation unlinks
//! it directly instead of leaving a tombstone behind — and the only
//! super-constant work is the occasional *cascade* of a coarse bucket
//! into finer levels when the wheel turns past it. Pop order is the same
//! total order on `(at, seq)` the heap implementation had: level-0
//! buckets are drained into a sorted staging area before anything is
//! handed out, so simulations replay bit-identically (the golden fixtures
//! under `tests/fixtures/` pin this).
//!
//! Layout: `LEVELS` levels of `SLOTS` slots. A level-0 slot covers one
//! *tick* of `1 << TICK_BITS` nanoseconds; each higher level covers
//! `SLOTS`× the span of the one below. Events beyond the outermost
//! horizon (≈ 19.5 h of sim time at the default parameters) sit in an
//! unsorted overflow list that re-enters the wheel when the clock gets
//! close — sims here run seconds, so the overflow path is exercised by
//! tests, not workloads.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// log2 of the number of slots per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// log2 of the level-0 tick width in nanoseconds (1024 ns). Events inside
/// one tick are ordered exactly by `(at, seq)` at drain time, so the tick
/// width trades staging-sort batch size against wheel span; it never
/// affects pop order.
const TICK_BITS: u32 = 10;
/// First tick delta that no longer fits the outermost level.
const MAX_WHEEL_DELTA: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// Null link in the intrusive bucket lists / free list.
const NIL: u32 = u32::MAX;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Handles are generation-tagged slab indices: after an event fires or is
/// cancelled its slot is recycled with a bumped generation, so a stale
/// handle fails to cancel instead of hitting the new occupant. (A single
/// slot would need 2³² reuses between a handle's issue and its use for a
/// false positive.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// Deterministic operation counters, exported per simulation cell into the
/// `BENCH_*` sidecars so performance PRs can show op-count reductions, not
/// just host-dependent timings. Counters depend only on the event stream,
/// never on the host, thread count or wall-clock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events scheduled.
    pub scheduled: u64,
    /// Events cancelled while still pending.
    pub cancelled: u64,
    /// Events popped (fired).
    pub popped: u64,
    /// Bucket cascades: a coarse bucket (level ≥ 1, or the overflow list)
    /// redistributed into finer levels as the wheel turned past it.
    pub cascades: u64,
    /// Full-queue rebuilds. Always 0 for the timer wheel — cancellation
    /// unlinks in place, so there are no tombstones to compact away. The
    /// counter is retained (and asserted zero in tests) as the proof that
    /// the heap's compaction path is gone.
    pub compactions: u64,
    /// Workload arrivals filed through the calendar front-end
    /// (DESIGN.md §14) instead of the wheel. Zero for a bare
    /// [`EventQueue`]; stamped by `Engine::queue_stats`.
    pub arrivals_scheduled: u64,
    /// Workload arrivals popped from the calendar front-end.
    pub arrivals_popped: u64,
    /// Events (wheel + calendar) still pending when this snapshot was
    /// taken. Named for its load-bearing reading: a run's end-of-run
    /// stats count the events it scheduled but never processed (e.g. a
    /// `DrainDone` whose drain window outlives the horizon).
    pub pending_at_teardown: u64,
    /// Arrivals shed by the admission controller (DESIGN.md §15).
    /// Zero for a bare [`EventQueue`] and for every run with overload
    /// control disabled; stamped by the simulation at teardown. A shed
    /// arrival was still *popped* from the calendar — the rejection
    /// happens in the produce handler after the pop — so this counter
    /// sits outside the [`ledger_balanced`](Self::ledger_balanced)
    /// equation and the ledger closes with or without sheds.
    pub items_shed: u64,
}

impl QueueStats {
    /// The scheduler conservation ledger: every event ever accepted —
    /// through the wheel or the calendar — is popped, cancelled, or
    /// still pending at the snapshot. The bench harnesses and the
    /// replay tooling assert this at end-of-run; a miss means a counter
    /// leak, not a tolerable rounding.
    pub fn ledger_balanced(&self) -> bool {
        self.scheduled + self.arrivals_scheduled
            == self.popped + self.arrivals_popped + self.cancelled + self.pending_at_teardown
    }
}

/// Where a slab node currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// On the free list (`next` is the free-list link).
    Free,
    /// Linked into wheel bucket (level, slot).
    Bucket(u8, u8),
    /// Referenced by the sorted staging vector.
    Staged,
    /// Referenced by the overflow vector.
    Overflow,
    /// Cancelled while `Staged`/`Overflow`: the vector still holds the
    /// index, so the slot is freed lazily when that reference drains.
    Dead,
}

struct Node<E> {
    at: u64,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    payload: Option<E>,
}

/// Doubly-linked list head for one wheel slot.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
}

struct Level {
    /// Bit i set ⇔ `slots[i]` is non-empty.
    occupancy: u64,
    slots: [Bucket; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupancy: 0,
            slots: [Bucket { head: NIL }; SLOTS],
        }
    }
}

/// A time-ordered queue of simulation events with O(1) cancellation.
pub struct EventQueue<E> {
    levels: [Level; LEVELS],
    /// Slab of event nodes; `free_head` chains recycled slots.
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// The next tick the wheel has not yet drained. Only ever advances,
    /// and never past the tick of a live pending event.
    elapsed: u64,
    /// Drained level-0 events, sorted *descending* by `(at, seq)` so the
    /// next event to fire is `staging.last()`. Late schedules (tick
    /// already drained) insert here in sorted position, which is what
    /// preserves the heap's "pop = min pending at pop time" semantics.
    staging: Vec<(u64, u64, u32)>,
    /// Events beyond the wheel horizon, unsorted.
    overflow: Vec<u32>,
    next_seq: u64,
    live: usize,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: [
                Level::new(),
                Level::new(),
                Level::new(),
                Level::new(),
                Level::new(),
                Level::new(),
            ],
            nodes: Vec::new(),
            free_head: NIL,
            elapsed: 0,
            staging: Vec::new(),
            overflow: Vec::new(),
            next_seq: 0,
            live: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle usable with
    /// [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.live += 1;
        let idx = self.alloc(at.as_nanos(), seq, payload);
        let gen = self.nodes[idx as usize].gen;
        self.place(idx);
        EventId { idx, gen }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending, `false` if it had already fired or been
    /// cancelled. O(1): bucket-resident events unlink in place; staged or
    /// overflowed events drop their payload and leave a husk that the
    /// holding vector reclaims when it drains.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(node) = self.nodes.get_mut(id.idx as usize) else {
            return false;
        };
        if node.gen != id.gen {
            return false;
        }
        match node.loc {
            Loc::Bucket(level, slot) => {
                self.unlink(id.idx, level as usize, slot as usize);
                self.release(id.idx);
            }
            Loc::Staged | Loc::Overflow => {
                node.payload = None;
                node.loc = Loc::Dead;
            }
            Loc::Free | Loc::Dead => return false,
        }
        self.stats.cancelled += 1;
        self.live -= 1;
        true
    }

    /// The earliest pending event time, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// The `(time_ns, seq)` key of the earliest pending event — the
    /// wheel's side of the merged pop with the arrival calendar
    /// (DESIGN.md §14). Like [`EventQueue::peek_time`] this may drain
    /// buckets into staging, but it never pops.
    pub(crate) fn peek_key(&mut self) -> Option<(u64, u64)> {
        loop {
            while let Some(&(at, seq, idx)) = self.staging.last() {
                if self.nodes[idx as usize].loc == Loc::Dead {
                    self.staging.pop();
                    self.release(idx);
                    continue;
                }
                return Some((at, seq));
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Consumes one sequence number from the queue's tie-break counter
    /// without scheduling anything. The arrival calendar draws its seqs
    /// here so wheel events and arrivals share one global `(time, seq)`
    /// total order — the linchpin of the bit-identical merged pop.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while let Some((at, _, idx)) = self.staging.pop() {
                if self.nodes[idx as usize].loc == Loc::Dead {
                    self.release(idx);
                    continue;
                }
                debug_assert_eq!(self.nodes[idx as usize].loc, Loc::Staged);
                let payload = self.nodes[idx as usize]
                    .payload
                    .take()
                    .expect("staged node has payload");
                self.release(idx);
                self.live -= 1;
                self.stats.popped += 1;
                return Some((SimTime::from_nanos(at), payload));
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Pops the earliest pending event only if it fires at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Deterministic operation counters since construction. The
    /// `pending_at_teardown` field is stamped with the current live
    /// count, so the snapshot always satisfies
    /// [`QueueStats::ledger_balanced`].
    pub fn stats(&self) -> QueueStats {
        let mut stats = self.stats;
        stats.pending_at_teardown = self.live as u64;
        stats
    }

    // ---- slab -----------------------------------------------------------

    fn alloc(&mut self, at: u64, seq: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.at = at;
            node.seq = seq;
            node.prev = NIL;
            node.next = NIL;
            node.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event slab exceeds u32 indices");
            self.nodes.push(Node {
                at,
                seq,
                gen: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Returns a slot to the free list, invalidating outstanding handles.
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert_ne!(node.loc, Loc::Free, "double free of event node");
        node.gen = node.gen.wrapping_add(1);
        node.loc = Loc::Free;
        node.payload = None;
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
    }

    // ---- wheel ----------------------------------------------------------

    /// Files a live node into staging, a wheel bucket or the overflow
    /// list, according to its tick relative to `elapsed`.
    fn place(&mut self, idx: u32) {
        let (at, seq) = {
            let node = &self.nodes[idx as usize];
            (node.at, node.seq)
        };
        let tick = at >> TICK_BITS;
        if tick < self.elapsed {
            // The wheel already turned past this tick (a handler scheduled
            // into the past, or into the tick being drained). Insert into
            // the sorted staging area so it still pops in `(at, seq)`
            // order relative to everything pending.
            let pos = self
                .staging
                .partition_point(|&(a, s, _)| (a, s) > (at, seq));
            self.staging.insert(pos, (at, seq, idx));
            self.nodes[idx as usize].loc = Loc::Staged;
            return;
        }
        let delta = tick - self.elapsed;
        if delta >= MAX_WHEEL_DELTA {
            self.overflow.push(idx);
            self.nodes[idx as usize].loc = Loc::Overflow;
            return;
        }
        let mut level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / LEVEL_BITS) as usize
        };
        loop {
            let shift = LEVEL_BITS * level as u32;
            let slot = ((tick >> shift) & (SLOTS as u64 - 1)) as usize;
            let cur = ((self.elapsed >> shift) & (SLOTS as u64 - 1)) as usize;
            // Rotation aliasing: `tick` maps to the slot the wheel is
            // currently pointing at, but one full rotation ahead. Filing
            // it here would break the single-rotation bucket invariant
            // the scan relies on, so bump it one level out (at most once:
            // the next level cannot alias again within this delta).
            if slot == cur
                && (tick >> (shift + LEVEL_BITS)) != (self.elapsed >> (shift + LEVEL_BITS))
            {
                level += 1;
                if level == LEVELS {
                    self.overflow.push(idx);
                    self.nodes[idx as usize].loc = Loc::Overflow;
                    return;
                }
                continue;
            }
            self.link(idx, level, slot);
            return;
        }
    }

    fn link(&mut self, idx: u32, level: usize, slot: usize) {
        let head = self.levels[level].slots[slot].head;
        {
            let node = &mut self.nodes[idx as usize];
            node.loc = Loc::Bucket(level as u8, slot as u8);
            node.prev = NIL;
            node.next = head;
        }
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        }
        self.levels[level].slots[slot].head = idx;
        self.levels[level].occupancy |= 1u64 << slot;
    }

    fn unlink(&mut self, idx: u32, level: usize, slot: usize) {
        let (prev, next) = {
            let node = &self.nodes[idx as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.levels[level].slots[slot].head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        if self.levels[level].slots[slot].head == NIL {
            self.levels[level].occupancy &= !(1u64 << slot);
        }
    }

    /// Advances the wheel to the next pending tick and drains its level-0
    /// bucket into the sorted staging area. Returns `false` if nothing is
    /// pending anywhere. Coarse buckets (and the overflow list) whose
    /// span starts at or before that tick cascade into finer levels
    /// first, so by the time a level-0 bucket is drained it holds *every*
    /// event of its tick — that is what makes the staging sort produce
    /// the exact global `(at, seq)` order.
    fn refill(&mut self) -> bool {
        debug_assert!(self.staging.is_empty());
        loop {
            // Candidate = (lower bound on earliest tick, source). Sources
            // with equal bounds must be processed coarse-to-fine so
            // cascades land before the level-0 drain commits an order:
            // overflow (2) before wheel levels, higher level (1, by
            // `level`) before level 0 (0).
            let mut best: Option<(u64, u8, usize)> = None;

            if !self.overflow.is_empty() {
                // Purge cancelled husks and find the live minimum. O(n),
                // but the overflow list only populates for deltas beyond
                // the ~19.5 h wheel horizon.
                let mut min_tick = u64::MAX;
                let mut kept = Vec::with_capacity(self.overflow.len());
                for i in 0..self.overflow.len() {
                    let idx = self.overflow[i];
                    if self.nodes[idx as usize].loc == Loc::Dead {
                        self.release(idx);
                    } else {
                        min_tick = min_tick.min(self.nodes[idx as usize].at >> TICK_BITS);
                        kept.push(idx);
                    }
                }
                self.overflow = kept;
                if !self.overflow.is_empty() {
                    best = Some((min_tick, 2, 0));
                }
            }

            for level in 0..LEVELS {
                let occupancy = self.levels[level].occupancy;
                if occupancy == 0 {
                    continue;
                }
                let shift = LEVEL_BITS * level as u32;
                let cur = ((self.elapsed >> shift) & (SLOTS as u64 - 1)) as u32;
                // First occupied slot at or after the wheel's current
                // position, scanning the rotated occupancy bitmap.
                let offset = occupancy.rotate_right(cur).trailing_zeros() as u64;
                let start_slot = (self.elapsed >> shift) + offset;
                let start_tick = (start_slot << shift).max(self.elapsed);
                let candidate = (start_tick, if level == 0 { 0 } else { 1 }, level);
                let better = match best {
                    None => true,
                    Some((t, k, l)) => {
                        candidate.0 < t
                            || (candidate.0 == t
                                && (candidate.1 > k || (candidate.1 == k && candidate.2 > l)))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }

            let Some((tick, kind, level)) = best else {
                return false;
            };
            // `tick` is ≤ every live pending tick, so advancing `elapsed`
            // to it preserves the wheel invariants.
            debug_assert!(tick >= self.elapsed);
            self.elapsed = tick;

            match kind {
                2 => {
                    // Overflow re-entry: refile everything; deltas shrink
                    // as `elapsed` advances, and at least the minimum node
                    // now fits the wheel, so this terminates.
                    let pending = std::mem::take(&mut self.overflow);
                    for idx in pending {
                        self.place(idx);
                    }
                    self.stats.cascades += 1;
                }
                1 => {
                    // Cascade one coarse bucket into finer levels.
                    let shift = LEVEL_BITS * level as u32;
                    let slot = ((tick >> shift) & (SLOTS as u64 - 1)) as usize;
                    let mut head = self.levels[level].slots[slot].head;
                    self.levels[level].slots[slot].head = NIL;
                    self.levels[level].occupancy &= !(1u64 << slot);
                    while head != NIL {
                        let next = self.nodes[head as usize].next;
                        self.place(head);
                        head = next;
                    }
                    self.stats.cascades += 1;
                }
                _ => {
                    // Drain the level-0 bucket for `tick` into staging.
                    let slot = (tick & (SLOTS as u64 - 1)) as usize;
                    let mut head = self.levels[0].slots[slot].head;
                    self.levels[0].slots[slot].head = NIL;
                    self.levels[0].occupancy &= !(1u64 << slot);
                    while head != NIL {
                        let node = &mut self.nodes[head as usize];
                        debug_assert_eq!(node.at >> TICK_BITS, tick);
                        node.loc = Loc::Staged;
                        self.staging.push((node.at, node.seq, head));
                        head = node.next;
                    }
                    // Descending, so `staging.last()` is the earliest.
                    self.staging
                        .sort_unstable_by_key(|&(at, seq, _)| std::cmp::Reverse((at, seq)));
                    self.elapsed = tick + 1;
                    return true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn cancel_after_fire_is_false_and_harmless() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { idx: 42, gen: 0 }));
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert_eq!(q.pop(), Some((t(10), "a")));
        // "b" recycles a's slab slot with a bumped generation.
        let b = q.schedule(t(20), "b");
        assert_eq!(b.idx, a.idx);
        assert!(!q.cancel(a), "stale handle must not hit the new occupant");
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(50), "b");
        assert_eq!(q.pop_until(t(10)), Some((t(10), "a")));
        assert_eq!(q.pop_until(t(30)), None);
        assert_eq!(q.pop_until(t(50)), Some((t(50), "b")));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn cancel_of_staged_event_is_honoured() {
        let mut q = EventQueue::new();
        // Same tick, so peek stages both before the cancel lands.
        let a = q.schedule(t(100), "a");
        q.schedule(t(101), "b");
        assert_eq!(q.peek_time(), Some(t(100)));
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(101), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn late_schedule_pops_before_wheel_events() {
        let mut q = EventQueue::new();
        q.schedule(t(5_000_000), "later");
        assert_eq!(q.pop(), Some((t(5_000_000), "later")));
        // The wheel has turned past tick 0; a schedule into the past must
        // still pop, and before anything later.
        q.schedule(t(9_000_000), "future");
        q.schedule(t(7), "past");
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.pop(), Some((t(7), "past")));
        assert_eq!(q.pop(), Some((t(9_000_000), "future")));
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        let horizon_ns = MAX_WHEEL_DELTA << TICK_BITS;
        let a = q.schedule(t(horizon_ns * 3), "far");
        let b = q.schedule(t(horizon_ns * 2), "near-far");
        q.schedule(t(40), "now");
        assert_eq!(q.overflow.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(40), "now")));
        assert_eq!(q.pop(), Some((t(horizon_ns * 2), "near-far")));
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(b), "popped overflow event is gone");
        assert!(q.stats().cascades > 0, "overflow re-entry is a cascade");
    }

    #[test]
    fn cascades_preserve_order_across_levels() {
        let mut q = EventQueue::new();
        // Spread events across every wheel level (tick deltas 64^0..64^5,
        // scaled to nanoseconds) plus same-tick ties, scheduled in
        // shuffled order.
        let mut times: Vec<u64> = Vec::new();
        for level in 0..LEVELS as u32 {
            let tick = 1u64 << (LEVEL_BITS * level);
            times.push(tick << TICK_BITS);
            times.push((tick << TICK_BITS) + 1);
            times.push((tick + 1) << TICK_BITS);
        }
        let shuffled: Vec<u64> = times
            .iter()
            .enumerate()
            .filter(|(n, _)| n % 2 == 0)
            .map(|(_, &v)| v)
            .chain(
                times
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| n % 2 == 1)
                    .map(|(_, &v)| v),
            )
            .collect();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (n, &at) in shuffled.iter().enumerate() {
            q.schedule(t(at), n);
            expected.push((at, n));
        }
        expected.sort();
        for (at, n) in expected {
            assert_eq!(q.pop(), Some((t(at), n)));
        }
        assert!(q.is_empty());
        assert!(q.stats().cascades > 0, "multi-level spread must cascade");
    }

    #[test]
    fn stats_count_operations_and_never_compact() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0u64..300).map(|i| q.schedule(t(i * 37_000), i)).collect();
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        while q.pop().is_some() {}
        let stats = q.stats();
        assert_eq!(stats.scheduled, 300);
        assert_eq!(stats.cancelled, 100);
        assert_eq!(stats.popped, 200);
        assert_eq!(
            stats.compactions, 0,
            "the wheel cancels in place; nothing to compact"
        );
    }

    #[test]
    fn interleaved_schedule_pop_cancel_stress() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for round in 0u64..50 {
            for i in 0..20 {
                ids.push(q.schedule(t(round * 100 + i * 3), (round, i)));
            }
            for id in ids.iter().skip((round as usize) * 20).step_by(3) {
                q.cancel(*id);
            }
            for _ in 0..10 {
                q.pop();
            }
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        assert!(q.is_empty());
    }
}
