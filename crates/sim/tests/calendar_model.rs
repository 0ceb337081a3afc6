//! Property-based equivalence of the loser-tree `ArrivalCalendar`
//! (DESIGN.md §14) against a `BTreeSet<(time, seq, source)>` reference.
//!
//! The calendar defers work: a pop leaves the popped source as a
//! pending *hole* that its refill replays, a peek settles an unfilled
//! hole as an exhausted source, filing any other source re-plays that
//! source's path against the recovered subtree winners, and growing the
//! leaf row defers to one rebuild at the next peek. The scripts below
//! drive every one of those paths in arbitrary order — many sources
//! armed before the first pop, hole refills, pops without refill, peeks
//! between a pop and its refill, mid-run filings of other sources,
//! pending points moved earlier and later, withdrawals, growth past the
//! leaf capacity, and same-time ties — and require the identical pop
//! stream, `len`, `scheduled` and `popped`.

use pc_sim::ArrivalCalendar;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a script. Times are offsets from the last popped time,
/// on a tiny range so that same-time ties (broken by seq) are common.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Pop the head; `Some(gap)` refills the popped source (the hole),
    /// `None` leaves it exhausted.
    Pop(Option<u64>),
    /// Pop the head, peek, then refill the popped source `gap` later.
    PopPeekRefill(u64),
    /// Peek the head.
    Peek,
    /// File a point for `source` if it holds none. Unless `source` is
    /// the unfilled hole, this is the update path; indices past the
    /// current leaf row grow it.
    Arm(usize, u64),
    /// Move `source`'s pending point (if any) to `gap` after the last
    /// pop — earlier or later than where it was — under a fresh seq.
    Move(usize, u64),
    /// Withdraw `source`'s pending point, if any.
    Withdraw(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let gap = 0u64..4;
    prop_oneof![
        3 => gap.clone().prop_map(|g| Op::Pop(Some(g))),
        1 => Just(Op::Pop(None)),
        1 => gap.clone().prop_map(Op::PopPeekRefill),
        1 => Just(Op::Peek),
        1 => (0usize..48, gap.clone()).prop_map(|(s, g)| Op::Arm(s, g)),
        1 => (0usize..600, gap.clone()).prop_map(|(s, g)| Op::Arm(s, g)),
        2 => (0usize..48, 0u64..8).prop_map(|(s, g)| Op::Move(s, g)),
        1 => (0usize..48).prop_map(Op::Withdraw),
    ]
}

/// The calendar under test and its reference, driven in lockstep.
struct Pair {
    cal: ArrivalCalendar,
    model: BTreeSet<(u64, u64, u32)>,
    /// Each source's pending key in the model.
    pending: Vec<Option<(u64, u64)>>,
    /// Time of the last pop; new points are filed at or after it.
    now: u64,
    /// Shared sequence counter, as the engine's.
    seq: u64,
    scheduled: u64,
    popped: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            cal: ArrivalCalendar::new(),
            model: BTreeSet::new(),
            pending: Vec::new(),
            now: 0,
            seq: 0,
            scheduled: 0,
            popped: 0,
        }
    }

    /// Files `source`'s point `gap` after the last pop, replacing any.
    fn file(&mut self, source: usize, gap: u64) {
        if source >= self.pending.len() {
            self.pending.resize(source + 1, None);
        }
        if let Some((at, seq)) = self.pending[source] {
            self.model.remove(&(at, seq, source as u32));
        }
        let at = self.now + gap;
        self.cal.set(source, at, self.seq);
        self.model.insert((at, self.seq, source as u32));
        self.pending[source] = Some((at, self.seq));
        self.seq += 1;
        self.scheduled += 1;
    }

    fn set(&mut self, source: usize, gap: u64) {
        if self.pending.get(source).is_none_or(|p| p.is_none()) {
            self.file(source, gap);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let got = self.cal.pop();
        let want = self.model.pop_first();
        assert_eq!(got, want, "pop diverged");
        let (at, _, source) = got?;
        self.now = at;
        self.pending[source as usize] = None;
        self.popped += 1;
        Some(source)
    }

    fn peek(&mut self) {
        assert_eq!(
            self.cal.peek(),
            self.model.first().copied(),
            "peek diverged"
        );
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Pop(refill) => {
                if let (Some(source), Some(gap)) = (self.pop(), refill) {
                    self.set(source as usize, gap);
                }
            }
            Op::PopPeekRefill(gap) => {
                let source = self.pop();
                self.peek();
                if let Some(source) = source {
                    self.set(source as usize, gap);
                }
            }
            Op::Peek => self.peek(),
            Op::Arm(source, gap) => self.set(source, gap),
            Op::Move(source, gap) => {
                if self.pending.get(source).is_some_and(|p| p.is_some()) {
                    self.file(source, gap);
                }
            }
            Op::Withdraw(source) => {
                if let Some(Some((at, seq))) = self.pending.get(source).copied() {
                    self.model.remove(&(at, seq, source as u32));
                    self.pending[source] = None;
                }
                self.cal.remove(source);
            }
        }
        assert_eq!(self.cal.len(), self.model.len(), "len diverged");
        assert_eq!(self.cal.is_empty(), self.model.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_matches_btreeset_reference(
        armed in prop::collection::vec(0u64..4, 0..80),
        ops in prop::collection::vec(op_strategy(), 0..240),
    ) {
        let mut pair = Pair::new();
        // Arm many sources before the first pop (one rebuild).
        for (source, &gap) in armed.iter().enumerate() {
            pair.set(source, gap);
        }
        for &op in &ops {
            pair.apply(op);
        }
        // Drain: the rest of the stream must match too.
        while pair.pop().is_some() {}
        prop_assert_eq!(pair.cal.peek(), None);
        prop_assert_eq!(pair.cal.len(), 0);
        prop_assert_eq!(pair.cal.scheduled(), pair.scheduled);
        prop_assert_eq!(pair.cal.popped(), pair.popped);
    }
}

/// The simulator's steady state at fleet size: 1000 sources armed at
/// once, every pop refilled from its own sorted stream until each
/// stream runs dry — the reference checks every pop on the way.
#[test]
fn fleet_merge_with_exhausting_streams_matches_sort() {
    let sources = 1000u32;
    let mut pair = Pair::new();
    let mut left: Vec<u32> = (0..sources).map(|s| 1 + s % 7).collect();
    let total: u64 = left.iter().map(|&n| u64::from(n)).sum();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut gap = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % 3
    };
    for s in 0..sources as usize {
        pair.set(s, gap());
    }
    while let Some(s) = pair.pop() {
        let s = s as usize;
        left[s] -= 1;
        if left[s] > 0 {
            pair.set(s, gap());
        }
    }
    assert_eq!(pair.popped, total);
    assert_eq!(pair.cal.scheduled(), pair.cal.popped());
}

/// A decision-point workload: after every pop, the popped source files
/// its next point and a few *other* sources move theirs earlier or
/// later — the non-hole path the simulator takes when a drain or a
/// capacity change re-files a neighbour. Same-time ties are frequent.
#[test]
fn refiling_other_sources_matches_reference() {
    let sources = 300usize;
    let mut pair = Pair::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    for s in 0..sources {
        pair.set(s, next(3));
    }
    for _ in 0..20_000 {
        let Some(s) = pair.pop() else { break };
        pair.set(s as usize, next(4));
        for _ in 0..next(4) {
            let other = next(sources as u64) as usize;
            match next(5) {
                0 => pair.apply(Op::Withdraw(other)),
                _ => pair.file(other, next(6)),
            }
        }
    }
    while pair.pop().is_some() {}
    assert_eq!(pair.cal.popped(), pair.popped);
}
