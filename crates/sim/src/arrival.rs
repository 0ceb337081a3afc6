//! Arrival calendar: the merge front-end for pre-sorted per-source
//! event streams (DESIGN.md §14).
//!
//! Workload arrivals are the *least* dynamic events in the system:
//! every pair's production times are pre-generated, sorted and never
//! cancelled. A run files, per source, the one arrival at which that
//! source's consumer next has to act — its *decision point* — and the
//! arrivals in between never enter any queue. A run that must see every
//! arrival (a recorded one, or one that admits each item) files each
//! arrival as a point.
//!
//! [`ArrivalCalendar`] keeps one `(time, seq)` key per source in a
//! loser tree — a k-way merge over M sorted streams. A pop hands out
//! the winner and leaves its source as the pending *hole*; a refill
//! that the run files next for that same source replays the hole's
//! leaf-to-root path once, with one compare and two branch-free selects
//! per level. Filing, moving or withdrawing any other source's point
//! re-plays that source's path against the winners of the opposing
//! subtrees, which a top-down pass recovers from the stored losers:
//! O(log M) either way. The engine pops `min(calendar.peek(),
//! wheel.peek())` under the wheel's own `(time, seq)` total order;
//! because points draw their sequence numbers from the *same* counter
//! as wheel events (see [`crate::engine::Engine::file_point`]), the
//! merged pop stream is the one of scheduling every arrival through the
//! wheel. A point whose predecessor was never popped carries no seq; at
//! an equal time its order is derived by [`crate::lineage`].
//!
//! Dynamic events (timers, drain completions, slot wakes, fault edges)
//! stay on the wheel, which is built for them.

use crate::lineage::{self, ArrivalTimes, Births, Event};
use std::cmp::Ordering;
use std::hint::select_unpredictable;
use std::rc::Rc;

/// Packed key of an empty source slot. It loses every match: no real
/// event carries `u64::MAX` for its time.
const EMPTY: u128 = u128::MAX;

/// No-hole marker.
const NONE: u32 = u32::MAX;

/// The seq of a point filed without one (see [`crate::lineage`]). Drawn
/// seqs stay below it: they are bounded by the events a run schedules.
pub(crate) const VIRTUAL: u64 = 1 << 63;

/// Packs `(time_ns, seq)` into one key whose integer order is the
/// lexicographic `(time, seq)` order.
#[inline]
fn pack(at: u64, seq: u64) -> u128 {
    (u128::from(at) << 64) | u128::from(seq)
}

/// One loser-tree slot: a source and its pending key, stored inline so
/// a match reads one slot instead of chasing an index into a key table.
#[derive(Clone, Copy)]
struct Node {
    key: u128,
    source: u32,
}

/// An M-way merge structure holding at most one pending `(time, seq)`
/// point per source, with O(log M) pop, refill, filing and withdrawal.
///
/// `peek` is O(1) only when no hole is pending and the tree is clean: a
/// peek between a pop and that source's refill settles the hole as
/// exhausted (O(log M)), and the refill that follows then files a
/// non-hole source (O(log M)).
///
/// Sources are dense small integers (pair indices). The leaf row grows
/// on demand; growing marks the tree dirty, and the next `peek` rebuilds
/// it bottom-up in O(M), which amortises arming many sources at once.
pub struct ArrivalCalendar {
    /// `keys[s]` = the pending point of source `s`, or [`EMPTY`], for
    /// every leaf; the input the tree is rebuilt from.
    keys: Vec<u128>,
    /// `idx[s]` = the arrival index of source `s`'s pending point, which
    /// orders a same-time point that carries no seq.
    idx: Vec<u32>,
    /// Loser tree over `cap` leaves: node `n ∈ 1..cap` holds the loser
    /// of the match played there (its children are `2n` and `2n + 1`;
    /// leaf `cap + s` is source `s`), and `tree[0]` holds the winner.
    /// Valid unless `dirty` or a hole is pending.
    tree: Vec<Node>,
    /// Leaf count, `keys.len()`: a power of two (0 before first use).
    cap: usize,
    /// Source popped last whose path still holds its old key; the next
    /// `set` for it replays that path, any other operation first replays
    /// it with [`EMPTY`]. [`NONE`] when no hole is pending.
    hole: u32,
    /// Whether `tree` must be rebuilt from `keys` before the next peek.
    dirty: bool,
    /// Sources currently holding a pending point.
    pending: usize,
    /// Filings (including moves) since construction.
    scheduled: u64,
    /// Points popped since construction.
    popped: u64,
    /// Every source's arrival times; needed once points without seqs
    /// are filed.
    times: Option<Rc<dyn ArrivalTimes>>,
}

impl Default for ArrivalCalendar {
    fn default() -> Self {
        Self::new()
    }
}

impl ArrivalCalendar {
    /// Creates an empty calendar; source slots materialise on first use.
    pub fn new() -> Self {
        ArrivalCalendar {
            keys: Vec::new(),
            idx: Vec::new(),
            tree: Vec::new(),
            cap: 0,
            hole: NONE,
            dirty: false,
            pending: 0,
            scheduled: 0,
            popped: 0,
            times: None,
        }
    }

    /// Attaches the arrival times that order same-time points filed
    /// without a seq.
    pub(crate) fn set_times(&mut self, times: Rc<dyn ArrivalTimes>) {
        self.times = Some(times);
    }

    /// Number of sources with a pending point.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no points are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Filings (including moves of a pending point) since construction.
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Points popped since construction.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The arrival index filed with `source`'s pending (or just popped)
    /// point.
    #[inline]
    pub(crate) fn point_idx(&self, source: u32) -> u32 {
        self.idx[source as usize]
    }

    /// The time of `source`'s pending point, read from the key row.
    #[inline]
    pub(crate) fn point_at(&self, source: usize) -> Option<u64> {
        self.keys
            .get(source)
            .filter(|&&key| key != EMPTY)
            .map(|&key| (key >> 64) as u64)
    }

    /// Files source `source`'s point at `(at, seq)`, moving it if one is
    /// already pending.
    ///
    /// Refilling the source popped last costs one leaf-to-root replay;
    /// filing any other source costs two passes over its path, or
    /// nothing until the next peek while the tree awaits a rebuild.
    #[inline]
    pub fn set(&mut self, source: usize, at: u64, seq: u64) {
        self.set_point(source, at, seq, 0);
    }

    /// [`set`](Self::set) for the point at arrival `idx` of `source`.
    #[inline]
    pub(crate) fn set_point(&mut self, source: usize, at: u64, seq: u64, idx: u32) {
        if source >= self.keys.len() {
            self.grow(source + 1);
        }
        // Two seqless points at one time order by their indices, so a
        // new index moves the point even when its key stays the same.
        let moved = std::mem::replace(&mut self.idx[source], idx) != idx;
        self.scheduled += 1;
        self.file(source, pack(at, seq), moved);
    }

    /// Withdraws `source`'s pending point, if any.
    pub fn remove(&mut self, source: usize) {
        if source < self.keys.len() {
            self.file(source, EMPTY, false);
        }
    }

    /// Stores `key` for `source` and brings the tree up to date; `moved`
    /// forces the update when the key alone did not change.
    #[inline]
    fn file(&mut self, source: usize, key: u128, moved: bool) {
        let was = std::mem::replace(&mut self.keys[source], key);
        self.pending = self.pending + usize::from(key != EMPTY) - usize::from(was != EMPTY);
        if self.dirty {
            // The rebuild at the next peek reads `keys`.
        } else if source as u32 == self.hole {
            self.replay(source, key);
            self.hole = NONE;
        } else if was != key || moved {
            if self.hole != NONE {
                // The popped source filed no refill: its stream is
                // exhausted until something files it again.
                self.replay(self.hole as usize, EMPTY);
                self.hole = NONE;
            }
            self.update(source, key);
        }
    }

    /// The earliest pending point as `(time_ns, seq, source)`.
    ///
    /// Takes `&mut self` because it first settles deferred work: a
    /// pending hole is replayed as exhausted, a dirty tree is rebuilt.
    #[inline]
    pub fn peek(&mut self) -> Option<(u64, u64, u32)> {
        if self.pending == 0 {
            return None;
        }
        if self.dirty {
            self.rebuild();
            self.hole = NONE;
        } else if self.hole != NONE {
            // The popped source filed no refill: its stream is exhausted.
            self.replay(self.hole as usize, EMPTY);
            self.hole = NONE;
        }
        let winner = self.tree[0];
        debug_assert_ne!(winner.key, EMPTY);
        Some(((winner.key >> 64) as u64, winner.key as u64, winner.source))
    }

    /// Removes and returns the earliest pending point. The tree is
    /// left untouched: the popped source becomes the hole, replayed by
    /// its refill or by the next other operation.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let head = self.peek()?;
        let source = head.2;
        self.keys[source as usize] = EMPTY;
        self.pending -= 1;
        self.popped += 1;
        self.hole = source;
        Some(head)
    }

    /// Whether `a` pops before `b`. Keys decide unless both sit at one
    /// time and one of them carries no seq.
    #[inline]
    fn less(&self, a: Node, b: Node) -> bool {
        let same_time = (a.key ^ b.key) >> 64 == 0;
        if same_time && (a.key | b.key) as u64 & VIRTUAL != 0 {
            return self.tie_less(a, b);
        }
        a.key < b.key
    }

    /// Same-time order of two points, at least one filed without a seq.
    #[cold]
    fn tie_less(&self, a: Node, b: Node) -> bool {
        if a.key == EMPTY || b.key == EMPTY {
            return a.key < b.key;
        }
        let times = self
            .times
            .as_deref()
            .expect("a point without a seq needs the arrival times");
        let point = |n: Node| Event::Arrival {
            source: n.source,
            idx: self.idx[n.source as usize],
        };
        lineage::cmp(point(a), point(b), times, &Births::default()) == Ordering::Less
    }

    /// Replays the matches on source `s`'s leaf-to-root path with `s`
    /// now holding `key`. Valid only for the current winner's source:
    /// every other match on its path was lost to it, so the slots there
    /// hold exactly the opponents it must now face again.
    #[inline]
    fn replay(&mut self, s: usize, key: u128) {
        let mut winner = Node {
            key,
            source: s as u32,
        };
        let mut node = (self.cap + s) >> 1;
        while node > 0 {
            let stored = self.tree[node];
            let stored_wins = self.less(stored, winner);
            self.tree[node] = select_unpredictable(stored_wins, winner, stored);
            winner = select_unpredictable(stored_wins, stored, winner);
            node >>= 1;
        }
        self.tree[0] = winner;
    }

    /// Replays the matches on any source `s`'s path with `s` now holding
    /// `key`. A top-down pass recovers, at each node of the path, the
    /// winner of the subtree off the path: of the node's stored loser and
    /// its subtree's winner (the root's is `tree[0]`), it is the one
    /// whose leaf lies off the path, and the other one is the winner of
    /// the child on it. The bottom-up pass then plays `s` against them.
    fn update(&mut self, s: usize, key: u128) {
        let leaf = self.cap + s;
        let depth = self.cap.trailing_zeros() as usize;
        // The off-path winners' sources; their keys are in `keys`, which
        // matches the tree for every source but `s` once the hole is
        // settled. Both passes select without data-dependent branches.
        let mut off = [NONE; u32::BITS as usize];
        let mut winner = self.tree[0].source;
        for k in (1..=depth).rev() {
            let stored = self.tree[leaf >> k].source;
            let on_path = (self.cap + winner as usize) >> (k - 1) == leaf >> (k - 1);
            off[k] = select_unpredictable(on_path, stored, winner);
            winner = select_unpredictable(on_path, winner, stored);
        }
        debug_assert_eq!(winner as usize, s, "the path ends at its leaf");
        let mut winner = Node {
            key,
            source: s as u32,
        };
        for (k, &source) in off.iter().enumerate().take(depth + 1).skip(1) {
            let opponent = Node {
                key: self.keys[source as usize],
                source,
            };
            let opponent_wins = self.less(opponent, winner);
            self.tree[leaf >> k] = select_unpredictable(opponent_wins, winner, opponent);
            winner = select_unpredictable(opponent_wins, opponent, winner);
        }
        self.tree[0] = winner;
    }

    /// Rebuilds the whole tree from `keys`, bottom-up.
    fn rebuild(&mut self) {
        // Sized for the current leaf row; `play` overwrites every slot.
        let placeholder = Node {
            key: EMPTY,
            source: NONE,
        };
        self.tree.resize(self.cap, placeholder);
        self.tree[0] = self.play(1);
        self.dirty = false;
    }

    /// Plays every match in the subtree under `node`, storing each
    /// match's loser in its slot, and returns the subtree's winner.
    fn play(&mut self, node: usize) -> Node {
        if node >= self.cap {
            let s = node - self.cap;
            return Node {
                key: self.keys[s],
                source: s as u32,
            };
        }
        let left = self.play(node << 1);
        let right = self.play((node << 1) | 1);
        let (winner, loser) = if self.less(right, left) {
            (right, left)
        } else {
            (left, right)
        };
        self.tree[node] = loser;
        winner
    }

    /// Grows the source table to hold at least `want` sources, doubling
    /// the leaf row (and the per-leaf `keys` and `idx`) when it no longer
    /// fits, and marks the tree for a rebuild at the new size.
    fn grow(&mut self, want: usize) {
        self.cap = self.cap.max(want.next_power_of_two());
        self.keys.resize(self.cap, EMPTY);
        self.idx.resize(self.cap, 0);
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_global_min_across_sources() {
        let mut cal = ArrivalCalendar::new();
        cal.set(0, 30, 2);
        cal.set(1, 10, 0);
        cal.set(2, 20, 1);
        assert_eq!(cal.peek(), Some((10, 0, 1)));
        assert_eq!(cal.pop(), Some((10, 0, 1)));
        assert_eq!(cal.pop(), Some((20, 1, 2)));
        cal.set(1, 25, 3);
        assert_eq!(cal.pop(), Some((25, 3, 1)));
        assert_eq!(cal.pop(), Some((30, 2, 0)));
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.scheduled(), 4);
        assert_eq!(cal.popped(), 4);
    }

    #[test]
    fn same_time_ties_break_by_seq() {
        let mut cal = ArrivalCalendar::new();
        cal.set(3, 5, 7);
        cal.set(1, 5, 4);
        cal.set(2, 5, 9);
        assert_eq!(cal.pop(), Some((5, 4, 1)));
        assert_eq!(cal.pop(), Some((5, 7, 3)));
        assert_eq!(cal.pop(), Some((5, 9, 2)));
    }

    #[test]
    fn growth_preserves_pending_entries() {
        let mut cal = ArrivalCalendar::new();
        cal.set(0, 100, 0);
        cal.set(1, 50, 1);
        // Force several capacity doublings past the live entries.
        cal.set(700, 75, 2);
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.pop(), Some((50, 1, 1)));
        assert_eq!(cal.pop(), Some((75, 2, 700)));
        assert_eq!(cal.pop(), Some((100, 0, 0)));
    }

    #[test]
    fn empty_calendar_peeks_none() {
        let mut cal = ArrivalCalendar::new();
        assert_eq!(cal.peek(), None);
        assert!(cal.is_empty());
    }

    #[test]
    fn matches_sorted_merge_reference() {
        // Deterministic pseudo-random merge of 13 streams against a
        // flat sort: identical pop order, every time.
        let sources = 13usize;
        let mut cal = ArrivalCalendar::new();
        let mut cursors = vec![0u64; sources];
        let mut seq = 0u64;
        let mut expect: Vec<(u64, u64, u32)> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let next = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s >> 33
        };
        for (s, cursor) in cursors.iter_mut().enumerate() {
            let at = next(&mut state) % 64;
            *cursor = at;
            cal.set(s, at, seq);
            expect.push((at, seq, s as u32));
            seq += 1;
        }
        let mut got = Vec::new();
        for _ in 0..2000 {
            let (at, sq, src) = cal.pop().expect("streams never dry here");
            got.push((at, sq, src));
            // Source emits its next arrival at a later time.
            let step = 1 + next(&mut state) % 64;
            let at = cursors[src as usize] + step;
            cursors[src as usize] = at;
            cal.set(src as usize, at, seq);
            expect.push((at, seq, src));
            seq += 1;
        }
        while let Some(e) = cal.pop() {
            got.push(e);
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(cal.scheduled(), cal.popped());
    }
}
