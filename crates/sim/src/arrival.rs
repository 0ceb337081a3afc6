//! Arrival calendar: the merge front-end for pre-sorted per-source
//! event streams (DESIGN.md §14).
//!
//! Workload arrivals dominate a simulation's event volume (85–95 % of
//! all pops at fleet scale), yet they are the *least* dynamic events in
//! the system: every pair's production times are pre-generated, sorted,
//! and never cancelled, and each pair has at most one arrival pending
//! at a time (`schedule_next_produce` arms the next one only when the
//! previous pops). Routing them through the timer wheel pays a slab
//! insert, a bucket link and a cascade share per item for flexibility
//! nothing uses.
//!
//! [`ArrivalCalendar`] instead keeps one `(time, seq)` key per source
//! in a loser tree — a k-way merge over M sorted streams, which is
//! exactly what the workload is. A pop hands out the winner and leaves
//! its source as the pending *hole*; the refill that the produce path
//! files next for that same source replays the hole's leaf-to-root path
//! once, with one compare and two branch-free selects per level. The
//! engine pops `min(calendar.peek(), wheel.peek())` under the wheel's
//! own `(time, seq)` total order; because arrivals draw their sequence
//! numbers from the *same* counter as wheel events (see
//! [`crate::engine::Engine::schedule_arrival`]), the merged pop stream
//! is bit-identical to scheduling every arrival through the wheel.
//!
//! The calendar deliberately supports no cancellation: arrivals are
//! facts of the workload. Dynamic events (timers, drain completions,
//! slot wakes, fault edges) stay on the wheel, which is built for them.

use std::hint::select_unpredictable;

/// Packed key of an empty source slot. It loses every match: no real
/// event carries `u64::MAX` for both time and seq (sequence numbers are
/// shared with the wheel and bounded by total events scheduled).
const EMPTY: u128 = u128::MAX;

/// No-hole marker.
const NONE: u32 = u32::MAX;

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
/// arrival per source, with O(log M) pop-and-refill.
///
/// `peek` is O(1) only when no hole is pending and the tree is clean: a
/// peek between a pop and that source's refill settles the hole as
/// exhausted (O(log M)), and the refill that follows then files a
/// non-hole source.
///
/// Sources are dense small integers (pair indices). The leaf row grows
/// on demand; any change the hole protocol does not cover marks the
/// tree dirty, and the next `peek` rebuilds it bottom-up in O(M).
pub struct ArrivalCalendar {
    /// `keys[s]` = the pending arrival of source `s`, or [`EMPTY`]; the
    /// input the tree is rebuilt from.
    keys: Vec<u128>,
    /// Loser tree over `cap` leaves: node `n ∈ 1..cap` holds the loser
    /// of the match played there (its children are `2n` and `2n + 1`;
    /// leaf `cap + s` is source `s`), and `tree[0]` holds the winner.
    /// Valid unless `dirty` or a hole is pending.
    tree: Vec<Node>,
    /// Leaf count; a power of two ≥ `keys.len()` (0 before first use).
    cap: usize,
    /// Source popped last whose path still holds its old key; the next
    /// `set` for it replays that path, any `peek` first replays it with
    /// [`EMPTY`]. [`NONE`] when no hole is pending.
    hole: u32,
    /// Whether `tree` must be rebuilt from `keys` before the next peek.
    dirty: bool,
    /// Sources currently holding a pending arrival.
    pending: usize,
    /// Arrivals accepted since construction.
    scheduled: u64,
    /// Arrivals popped since construction.
    popped: u64,
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
            tree: Vec::new(),
            cap: 0,
            hole: NONE,
            dirty: false,
            pending: 0,
            scheduled: 0,
            popped: 0,
        }
    }

    /// Number of sources with a pending arrival.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no arrivals are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Arrivals accepted since construction.
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Arrivals popped since construction.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Files source `source`'s next arrival. The source must not
    /// already hold a pending arrival — arrivals are never replaced or
    /// cancelled, only popped (checked in debug builds).
    ///
    /// Refilling the source popped last costs one leaf-to-root replay;
    /// filing any other source defers to one O(M) rebuild at the next
    /// peek, which amortises arming many sources at once.
    #[inline]
    pub fn set(&mut self, source: usize, at: u64, seq: u64) {
        if source >= self.keys.len() {
            self.grow(source + 1);
        }
        debug_assert_eq!(
            self.keys[source], EMPTY,
            "source {source} already holds a pending arrival"
        );
        let key = pack(at, seq);
        self.keys[source] = key;
        self.pending += 1;
        self.scheduled += 1;
        if source as u32 == self.hole {
            self.replay(source, key);
        } else {
            // The hole (if any) stays EMPTY in `keys`; the rebuild
            // settles it together with this source.
            self.dirty = true;
        }
        self.hole = NONE;
    }

    /// The earliest pending arrival as `(time_ns, seq, source)`.
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
        } else if self.hole != NONE {
            // The popped source filed no refill: its stream is exhausted.
            self.replay(self.hole as usize, EMPTY);
            self.hole = NONE;
        }
        let winner = self.tree[0];
        debug_assert_ne!(winner.key, EMPTY);
        Some(((winner.key >> 64) as u64, winner.key as u64, winner.source))
    }

    /// Removes and returns the earliest pending arrival. The tree is
    /// left untouched: the popped source becomes the hole, replayed by
    /// its refill or by the next peek.
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
            let stored_wins = stored.key < winner.key;
            self.tree[node] = select_unpredictable(stored_wins, winner, stored);
            winner = select_unpredictable(stored_wins, stored, winner);
            node >>= 1;
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
                key: self.keys.get(s).copied().unwrap_or(EMPTY),
                source: s as u32,
            };
        }
        let left = self.play(node << 1);
        let right = self.play((node << 1) | 1);
        let (winner, loser) = if right.key < left.key {
            (right, left)
        } else {
            (left, right)
        };
        self.tree[node] = loser;
        winner
    }

    /// Grows the source table to hold at least `want` sources, doubling
    /// the leaf row when it no longer fits. The caller's `set` marks the
    /// tree dirty, so the next peek rebuilds it at the new size.
    fn grow(&mut self, want: usize) {
        self.keys.resize(want, EMPTY);
        self.cap = self.cap.max(want.next_power_of_two());
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
