//! Bounded explicit-state model of the reservation-book protocol
//! (DESIGN.md §12).
//!
//! The runtime oracle (`pc_bench::oracle`) checks the invariants of the
//! reservation book and elastic pool *along one recorded execution*;
//! this module encodes the same protocol as a small transition system
//! and hands it to the `stateright` checker, which explores **every**
//! interleaving of the abstract actions up to a bound. The two layers
//! verify the same claims from opposite directions: the oracle says "no
//! recorded run violated the invariant", the checker says "no reachable
//! state of the protocol can".
//!
//! The model covers the moving parts the paper's §V-C / §V-D machinery
//! coordinates — per-pair elastic buffers drawing on one global pool,
//! slot reservations latching consumers onto shared core wakeups, the
//! pool-squeeze fault path and the degradation watchdog's emergency
//! rebalance — over a deliberately tiny M×core state space. The
//! [`ModelConfig::from_trace`] bridge populates the model's constants
//! (B₀, pool total, geometry, slot range, squeeze schedule) from a
//! recorded event stream, so the checked protocol instance is the one
//! the simulator actually ran; [`ModelConfig::scaled`] then shrinks the
//! constants proportionally to keep breadth-first search tractable.
//!
//! `broken_floor` selects a deliberately buggy variant whose emergency
//! rebalance skips the PBPL floor check — the checker must find the
//! "capacity respects floor" violation (pinned by
//! `crates/sim/tests/reservation_model.rs`).

use pc_trace_events::{Event, TraceEvent};
use stateright::{Model, Property};
use std::borrow::Borrow;

/// Constants of one reservation-protocol instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Producer-consumer pairs (the paper's M).
    pub pairs: u32,
    /// Cores; pair `p` is pinned to core `p % cores`.
    pub cores: u32,
    /// Initial per-pair buffer capacity B₀.
    pub b0: u64,
    /// Global pool total B_g (units shared by all buffers).
    pub pool_total: u64,
    /// Slot ring size (the PBPL Δ grid a reservation can target).
    pub slots: u64,
    /// Minimum capacity the rebalancers may shrink a buffer to
    /// (PBPL's `0.55·B₀` floor, rounded up).
    pub floor: u64,
    /// Pool-squeeze fault schedule: units each squeeze tries to reserve
    /// away, injected in order.
    pub squeezes: Vec<u64>,
    /// Deliberately buggy variant: the emergency rebalance skips the
    /// floor check. The checker must catch it.
    pub broken_floor: bool,
}

impl ModelConfig {
    /// A small hand-picked instance: 2 pairs on 1 core, B₀ = 3 with
    /// floor 2, one 2-unit squeeze. Fully explorable in milliseconds.
    pub fn example() -> ModelConfig {
        ModelConfig {
            pairs: 2,
            cores: 1,
            b0: 3,
            pool_total: 8,
            slots: 2,
            floor: 2,
            squeezes: vec![2],
            broken_floor: false,
        }
    }

    /// The same instance with the floor-skipping rebalance bug.
    pub fn broken(mut self) -> ModelConfig {
        self.broken_floor = true;
        self
    }

    /// Populates the model constants from a recorded event stream:
    /// pairs and cores from the indices actually seen, B₀ and the pool
    /// total from the first `BufferCreate`, the slot range from the
    /// reservation events, and the squeeze schedule from the
    /// `pool_squeeze` fault injections (in stream order). The floor is
    /// derived as ⌈0.55·B₀⌉ — `PbplConfig::default()`'s ratio. Returns
    /// the *raw* instance; call [`Self::scaled`] before checking.
    /// `events` is a packed stream (`&PackedEvents`) or a slice.
    pub fn from_trace(events: impl IntoIterator<Item = impl Borrow<Event>>) -> ModelConfig {
        let mut pairs = 0u32;
        let mut cores = 0u32;
        let mut b0 = 0u64;
        let mut pool_total = 0u64;
        let mut max_slot = 0u64;
        let mut saw_slot = false;
        let mut squeezes = Vec::new();
        let pair_seen = |p: u32, pairs: &mut u32| {
            if p != u32::MAX {
                *pairs = (*pairs).max(p + 1);
            }
        };
        let core_seen = |c: u32, cores: &mut u32| {
            if c != u32::MAX {
                *cores = (*cores).max(c + 1);
            }
        };
        for ev in events {
            match &ev.borrow().kind {
                TraceEvent::Produce { pair }
                | TraceEvent::Invoke { pair, .. }
                | TraceEvent::Flush { pair, .. }
                | TraceEvent::Wakeup { pair } => pair_seen(*pair, &mut pairs),
                TraceEvent::CoreSpan { core, .. } => core_seen(*core, &mut cores),
                TraceEvent::SlotSelect {
                    pair, core, slot, ..
                } => {
                    pair_seen(*pair, &mut pairs);
                    core_seen(*core, &mut cores);
                    max_slot = max_slot.max(*slot);
                    saw_slot = true;
                }
                TraceEvent::SlotReserve {
                    core,
                    consumer,
                    slot,
                    ..
                }
                | TraceEvent::SlotRelease {
                    core,
                    consumer,
                    slot,
                } => {
                    pair_seen(*consumer, &mut pairs);
                    core_seen(*core, &mut cores);
                    max_slot = max_slot.max(*slot);
                    saw_slot = true;
                }
                TraceEvent::SlotDispatch {
                    core,
                    slot,
                    consumers,
                } => {
                    core_seen(*core, &mut cores);
                    for c in consumers {
                        pair_seen(*c, &mut pairs);
                    }
                    max_slot = max_slot.max(*slot);
                    saw_slot = true;
                }
                TraceEvent::BufferCreate {
                    owner,
                    capacity,
                    pool_total: total,
                    ..
                } => {
                    pair_seen(*owner, &mut pairs);
                    if b0 == 0 {
                        b0 = *capacity;
                    }
                    pool_total = pool_total.max(*total);
                }
                TraceEvent::BufferGrow { owner, .. }
                | TraceEvent::BufferShrink { owner, .. }
                | TraceEvent::BufferDestroy { owner, .. } => pair_seen(*owner, &mut pairs),
                TraceEvent::FaultInjected {
                    kind,
                    pair,
                    core,
                    param,
                    ..
                } => {
                    pair_seen(*pair, &mut pairs);
                    core_seen(*core, &mut cores);
                    if kind == "pool_squeeze" {
                        squeezes.push(*param);
                    }
                }
                TraceEvent::FaultRecovered { pair, core, .. } => {
                    pair_seen(*pair, &mut pairs);
                    core_seen(*core, &mut cores);
                }
                TraceEvent::ItemShed { pair } => pair_seen(*pair, &mut pairs),
                TraceEvent::OverloadEntered { pair, .. }
                | TraceEvent::OverloadCleared { pair, .. } => pair_seen(*pair, &mut pairs),
            }
        }
        let pairs = pairs.max(1);
        let b0 = if b0 == 0 { 2 } else { b0 };
        ModelConfig {
            pairs,
            cores: cores.max(1),
            b0,
            pool_total: pool_total.max(b0 * pairs as u64),
            slots: if saw_slot { max_slot + 1 } else { 2 },
            floor: div_ceil_55(b0),
            squeezes,
            broken_floor: false,
        }
    }

    /// Shrinks a raw (trace-derived) instance to checker scale while
    /// preserving the protocol's shape: at most 2 pairs on at most
    /// 2 cores, B₀ clamped to 3 with the floor re-derived at the same
    /// 0.55 ratio, at most 2 slots, and the first two squeezes clamped
    /// to the pool slack. The scaled pool always carries 2 spare units —
    /// the runtime pool's slack is often zero (chaos sizes it at exactly
    /// B₀·M) and a slack-free model could never exercise the grow or
    /// squeeze transitions it exists to check.
    pub fn scaled(&self) -> ModelConfig {
        let pairs = self.pairs.min(2);
        let cores = self.cores.min(2).min(pairs);
        let b0 = self.b0.clamp(1, 3);
        let slack = 2u64;
        let squeezes: Vec<u64> = self
            .squeezes
            .iter()
            .take(2)
            .map(|&u| u.clamp(1, slack))
            .collect();
        ModelConfig {
            pairs,
            cores,
            b0,
            pool_total: b0 * pairs as u64 + slack,
            slots: self.slots.clamp(1, 2),
            floor: div_ceil_55(b0),
            squeezes,
            broken_floor: self.broken_floor,
        }
    }
}

/// ⌈0.55·b0⌉ without floats (floats must never decide model shape).
fn div_ceil_55(b0: u64) -> u64 {
    (b0 * 55).div_ceil(100).max(1)
}

/// Lifecycle of one scheduled pool squeeze.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Squeeze {
    /// Not yet injected.
    Pending,
    /// Injected; holds the units actually reserved away from the pool.
    Active(u64),
    /// Recovered; its units are back in the pool.
    Done,
}

/// One state of the protocol. `Ord` so the checker can dedup states in
/// a `BTreeSet` deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BookState {
    /// Buffered (produced, not yet consumed) items per pair.
    pub pending: Vec<u64>,
    /// Current elastic capacity per pair.
    pub capacity: Vec<u64>,
    /// Units available in the global pool.
    pub pool_available: u64,
    /// Reservation book: the slot each pair holds on its pinned core,
    /// if any. One reservation per pair, exactly as in the manager.
    pub book: Vec<Option<u64>>,
    /// Per-squeeze lifecycle, in schedule order.
    pub squeezes: Vec<Squeeze>,
    /// Whether any dispatch has consumed at least one item yet.
    pub consumed_any: bool,
}

/// Abstract protocol actions; each maps to a runtime code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BookAction {
    /// A producer enqueues one item (`ElasticBuffer::push`).
    Produce {
        /// Producing pair.
        pair: u32,
    },
    /// A consumer reserves `slot` on its pinned core — a fresh
    /// reservation or a latch onto a slot another consumer already
    /// holds (`SlotReserve` with/without co-holders).
    Reserve {
        /// Reserving pair.
        pair: u32,
        /// Target slot.
        slot: u64,
    },
    /// A consumer drops its reservation (`SlotRelease`).
    Cancel {
        /// Cancelling pair.
        pair: u32,
    },
    /// `slot` fires on `core`: every consumer booked there drains its
    /// buffer in one shared wakeup (`SlotDispatch`).
    Dispatch {
        /// Core whose slot fires.
        core: u32,
        /// The fired slot.
        slot: u64,
    },
    /// §V-C upsizing: a full buffer takes one unit from the pool
    /// (`BufferGrow`).
    Grow {
        /// Growing pair.
        pair: u32,
    },
    /// §V-C downsizing: an under-used buffer returns one unit
    /// (`BufferShrink`), never below the floor.
    Shrink {
        /// Shrinking pair.
        pair: u32,
    },
    /// The degradation watchdog's emergency rebalance: under an active
    /// squeeze, shed up to 2 units back to the pool. The good variant
    /// stops at the floor; the `broken_floor` variant does not.
    DegradedRebalance {
        /// Rebalanced pair.
        pair: u32,
    },
    /// The next scheduled pool squeeze becomes effective, reserving
    /// away what the pool can spare (`FaultInjected{pool_squeeze}`).
    InjectSqueeze {
        /// Schedule index.
        index: u32,
    },
    /// A squeeze's window closes; its units return
    /// (`FaultRecovered{pool_squeeze}`).
    RecoverSqueeze {
        /// Schedule index.
        index: u32,
    },
}

/// The reservation-book protocol as a `stateright` model.
#[derive(Debug, Clone)]
pub struct ReservationModel {
    /// Instance constants.
    pub cfg: ModelConfig,
}

impl ReservationModel {
    /// Builds the model for `cfg`.
    pub fn new(cfg: ModelConfig) -> ReservationModel {
        ReservationModel { cfg }
    }

    fn pin(&self, pair: u32) -> u32 {
        pair % self.cfg.cores
    }

    /// Units held by active squeezes in `state`.
    pub fn squeezed(state: &BookState) -> u64 {
        state
            .squeezes
            .iter()
            .map(|s| match s {
                Squeeze::Active(u) => *u,
                _ => 0,
            })
            .sum()
    }
}

impl Model for ReservationModel {
    type State = BookState;
    type Action = BookAction;

    fn init_states(&self) -> Vec<BookState> {
        let pairs = self.cfg.pairs as usize;
        vec![BookState {
            pending: vec![0; pairs],
            capacity: vec![self.cfg.b0; pairs],
            pool_available: self
                .cfg
                .pool_total
                .saturating_sub(self.cfg.b0 * self.cfg.pairs as u64),
            book: vec![None; pairs],
            squeezes: vec![Squeeze::Pending; self.cfg.squeezes.len()],
            consumed_any: false,
        }]
    }

    fn actions(&self, state: &BookState, actions: &mut Vec<BookAction>) {
        for pair in 0..self.cfg.pairs {
            let p = pair as usize;
            if state.pending[p] < state.capacity[p] {
                actions.push(BookAction::Produce { pair });
            }
            if state.book[p].is_none() && state.pending[p] > 0 {
                for slot in 0..self.cfg.slots {
                    actions.push(BookAction::Reserve { pair, slot });
                }
            }
            if state.book[p].is_some() {
                actions.push(BookAction::Cancel { pair });
            }
            if state.pool_available > 0 && state.pending[p] == state.capacity[p] {
                actions.push(BookAction::Grow { pair });
            }
            if state.capacity[p] > self.cfg.floor && state.pending[p] < state.capacity[p] {
                actions.push(BookAction::Shrink { pair });
            }
            if Self::squeezed(state) > 0 {
                actions.push(BookAction::DegradedRebalance { pair });
            }
        }
        for core in 0..self.cfg.cores {
            for slot in 0..self.cfg.slots {
                let booked = (0..self.cfg.pairs)
                    .any(|pair| self.pin(pair) == core && state.book[pair as usize] == Some(slot));
                if booked {
                    actions.push(BookAction::Dispatch { core, slot });
                }
            }
        }
        for (i, sq) in state.squeezes.iter().enumerate() {
            match sq {
                // Inject in schedule order: only the first pending one.
                Squeeze::Pending => {
                    if state.squeezes[..i].iter().all(|s| *s != Squeeze::Pending) {
                        actions.push(BookAction::InjectSqueeze { index: i as u32 });
                    }
                }
                Squeeze::Active(_) => actions.push(BookAction::RecoverSqueeze { index: i as u32 }),
                Squeeze::Done => {}
            }
        }
    }

    fn next_state(&self, state: &BookState, action: &BookAction) -> Option<BookState> {
        let mut next = state.clone();
        match action {
            BookAction::Produce { pair } => {
                let p = *pair as usize;
                if next.pending[p] >= next.capacity[p] {
                    return None;
                }
                next.pending[p] += 1;
            }
            BookAction::Reserve { pair, slot } => {
                let p = *pair as usize;
                if next.book[p].is_some() {
                    return None;
                }
                next.book[p] = Some(*slot);
            }
            BookAction::Cancel { pair } => {
                let p = *pair as usize;
                next.book[p].take()?;
            }
            BookAction::Dispatch { core, slot } => {
                let mut fired = false;
                for pair in 0..self.cfg.pairs {
                    let p = pair as usize;
                    if self.pin(pair) == *core && next.book[p] == Some(*slot) {
                        fired = true;
                        if next.pending[p] > 0 {
                            next.consumed_any = true;
                        }
                        next.pending[p] = 0;
                        next.book[p] = None;
                    }
                }
                if !fired {
                    return None;
                }
            }
            BookAction::Grow { pair } => {
                let p = *pair as usize;
                if next.pool_available == 0 {
                    return None;
                }
                next.pool_available -= 1;
                next.capacity[p] += 1;
            }
            BookAction::Shrink { pair } => {
                let p = *pair as usize;
                if next.capacity[p] <= self.cfg.floor {
                    return None;
                }
                next.capacity[p] -= 1;
                next.pool_available += 1;
            }
            BookAction::DegradedRebalance { pair } => {
                let p = *pair as usize;
                let cap = next.capacity[p];
                let target = if self.cfg.broken_floor {
                    cap.saturating_sub(2)
                } else {
                    cap.saturating_sub(2).max(self.cfg.floor)
                };
                // Occupied units cannot be shed — mirror the runtime,
                // which floors emergency shrinks at current occupancy.
                let target = target.max(next.pending[p]);
                if target >= cap {
                    return None;
                }
                next.pool_available += cap - target;
                next.capacity[p] = target;
            }
            BookAction::InjectSqueeze { index } => {
                let i = *index as usize;
                if state.squeezes[i] != Squeeze::Pending {
                    return None;
                }
                let grab = self.cfg.squeezes[i].min(next.pool_available);
                next.pool_available -= grab;
                next.squeezes[i] = Squeeze::Active(grab);
            }
            BookAction::RecoverSqueeze { index } => {
                let i = *index as usize;
                match state.squeezes[i] {
                    Squeeze::Active(held) => {
                        next.pool_available += held;
                        next.squeezes[i] = Squeeze::Done;
                    }
                    _ => return None,
                }
            }
        }
        Some(next)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            // The oracle's pool ledger: Σ capacities + Σ active
            // squeezes + available == total, at every step.
            Property::always(
                "pool conservation",
                |m: &ReservationModel, s: &BookState| {
                    s.capacity.iter().sum::<u64>()
                        + ReservationModel::squeezed(s)
                        + s.pool_available
                        == m.cfg.pool_total
                },
            ),
            // PBPL never shrinks below the 0.55·B₀ floor — the property
            // the broken_floor variant must be caught violating.
            Property::always(
                "capacity respects floor",
                |m: &ReservationModel, s: &BookState| {
                    s.capacity.iter().all(|&c| c >= m.cfg.floor.min(m.cfg.b0))
                },
            ),
            // Item conservation's state-local face: a buffer never holds
            // more than its capacity (overflow items are never dropped,
            // they just can't exist).
            Property::always(
                "pending within capacity",
                |_: &ReservationModel, s: &BookState| {
                    s.pending.iter().zip(&s.capacity).all(|(&p, &c)| p <= c)
                },
            ),
            // Book consistency: a reservation always targets a slot in
            // the ring, and each pair holds at most one (structural in
            // the state shape, checked anyway as in the oracle).
            Property::always(
                "book targets valid slots",
                |m: &ReservationModel, s: &BookState| {
                    s.book.iter().flatten().all(|&slot| slot < m.cfg.slots)
                },
            ),
            // Discovery: dispatch actually consumes something.
            Property::sometimes(
                "an item is consumed",
                |_: &ReservationModel, s: &BookState| s.consumed_any,
            ),
            // Fault-window pairing: the full schedule can inject and
            // recover (every FaultInjected gets its FaultRecovered).
            Property::sometimes(
                "every squeeze recovers",
                |_: &ReservationModel, s: &BookState| {
                    s.squeezes.iter().all(|sq| *sq == Squeeze::Done)
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stateright::Checker;

    #[test]
    fn example_instance_is_clean() {
        let result =
            Checker::bounded(12, 200_000).check(&ReservationModel::new(ModelConfig::example()));
        assert!(result.is_clean(), "violations: {:?}", result.violations);
        assert!(result.states_explored > 100);
    }

    #[test]
    fn broken_floor_is_caught() {
        let result = Checker::bounded(12, 200_000)
            .check(&ReservationModel::new(ModelConfig::example().broken()));
        let v = result
            .violation("capacity respects floor")
            .expect("checker must catch the floor-skipping rebalance");
        assert!(matches!(
            v.path.last(),
            Some(BookAction::DegradedRebalance { .. })
        ));
    }

    #[test]
    fn scaled_preserves_shape() {
        let raw = ModelConfig {
            pairs: 1000,
            cores: 100,
            b0: 25,
            pool_total: 25_000,
            slots: 40,
            floor: 14,
            squeezes: vec![6000, 3000, 1000],
            broken_floor: false,
        };
        let s = raw.scaled();
        assert_eq!(s.pairs, 2);
        assert_eq!(s.cores, 2);
        assert_eq!(s.b0, 3);
        assert_eq!(s.floor, 2);
        assert_eq!(s.pool_total, 3 * 2 + 2);
        assert_eq!(s.slots, 2);
        assert_eq!(s.squeezes.len(), 2);
        assert!(s.squeezes.iter().all(|&u| (1..=2).contains(&u)));
    }

    #[test]
    fn from_trace_reads_constants() {
        let ev = |seq: u64, kind: TraceEvent| Event {
            seq,
            t_ns: seq * 10,
            kind,
        };
        let events = vec![
            ev(
                0,
                TraceEvent::BufferCreate {
                    owner: 0,
                    capacity: 25,
                    pool_available: 100,
                    pool_total: 125,
                },
            ),
            ev(1, TraceEvent::Produce { pair: 4 }),
            ev(
                2,
                TraceEvent::SlotReserve {
                    core: 1,
                    consumer: 2,
                    slot: 7,
                    prev: None,
                },
            ),
            ev(
                3,
                TraceEvent::FaultInjected {
                    id: 0,
                    kind: "pool_squeeze".into(),
                    pair: u32::MAX,
                    core: u32::MAX,
                    param: 30,
                    pool_available: 70,
                },
            ),
        ];
        let cfg = ModelConfig::from_trace(&events);
        assert_eq!(cfg.pairs, 5);
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.b0, 25);
        assert_eq!(cfg.pool_total, 125);
        assert_eq!(cfg.slots, 8);
        assert_eq!(cfg.floor, 14); // ceil(0.55 * 25)
        assert_eq!(cfg.squeezes, vec![30]);
    }
}
