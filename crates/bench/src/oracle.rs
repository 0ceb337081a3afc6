//! Replay oracle: re-derives the system invariants from a recorded
//! [`TraceLog`] alone, without looking at any metric the run reported.
//!
//! The checks mirror the invariants CLAUDE.md says the tests lean on:
//!
//! 1. **Item conservation** — per pair, every produced item is accounted
//!    for by an invocation batch, the end-of-run flush, or a ledgered
//!    shed (`produced == consumed + shed`; shed is necessarily zero when
//!    overload control is disabled, because a disabled run cannot emit
//!    `ItemShed` at all — see invariant 6).
//! 2. **Elastic-pool conservation** — replaying `Buffer*` events, the sum
//!    of buffer capacities plus the pool's available units equals the
//!    pool total after *every* transaction, grants never exceed requests,
//!    and a buffer never releases capacity it does not hold. (Skipped for
//!    native traces, which carry no `Buffer*` events — cross-thread pool
//!    snapshots would race.)
//! 3. **Core-span ordering** — per core, `CoreSpan` starts are
//!    non-decreasing, spans are non-empty, and the `wakeup` flag matches
//!    an independent replay of the merge/idle-gap rule of
//!    `Core::add_active_span`.
//! 4. **Reservation consistency** — replaying the slot book, every
//!    `SlotReserve` reports the consumer's true previous slot, every
//!    `SlotRelease` names the slot actually held, and every consumer a
//!    `SlotDispatch` wakes holds a live reservation for that exact slot
//!    (which the dispatch then consumes, mirroring `take_due`).
//! 5. **Fault-window pairing** — every `FaultInjected` is eventually
//!    matched by a `FaultRecovered` with the same id and kind (the sim
//!    recovers still-open windows before teardown), ids never overlap
//!    while active, and a `pool_squeeze` returns exactly the units it
//!    grabbed. Squeezed units count toward pool conservation, so the
//!    Σ capacities + squeezed + available == total ledger balances
//!    through every fault.
//! 6. **Overload-window pairing** — every `OverloadEntered` is matched
//!    by an `OverloadCleared` for the same pair (teardown force-clears
//!    open windows), windows never nest, every `ItemShed` falls inside
//!    an open window of its pair, and each `OverloadCleared` reports
//!    exactly the sheds replayed inside its window — so Σ `ItemShed`
//!    per pair equals Σ `OverloadCleared.shed` per pair, window by
//!    window (DESIGN.md §15).
//!
//! A truncated trace (`dropped > 0`) is reported as a violation: a
//! partial stream cannot prove conservation, and silently passing would
//! defeat the point.
//!
//! **Cost.** [`check`] makes one sweep over the stream and feeds every
//! event to the replays that need it. Each replay keeps its own
//! violation buffer, so the report still lists the invariants in the
//! order above, each in stream order. The per-arrival events index
//! dense tables by pair, core or owner id instead of ordered maps; an
//! id at or above [`DENSE_ID_BOUND`] is itself a violation, so a forged
//! file cannot make a table grow to gigabytes. Pool conservation keeps
//! running Σ capacity and Σ squeezed totals, so each pool event costs
//! O(1). No ledger wraps: item sums are checked (an overflow is its own
//! violation) and the pool sums are `u128`, which no run of `u64`
//! updates can overflow.

use pc_trace_events::{Event, TraceEvent, TraceLog, TRACE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::io;

/// Outcome of one oracle pass over a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleReport {
    /// Events examined.
    pub events: u64,
    /// Events the recorder discarded (capacity bound).
    pub dropped: u64,
    /// Human-readable invariant violations, in detection order. Empty
    /// means every replayed invariant held.
    pub violations: Vec<String>,
}

impl OracleReport {
    /// Whether the trace passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Ids at or above this bound get no row in the dense ledgers: a pair,
/// core or owner id that large is reported as a violation naming its
/// seq and id instead of growing a table to fit it. The largest fleet
/// any sweep runs is M = 1000, so real traces sit far below it, and a
/// full table of 2^20 rows stays in the tens of megabytes.
pub const DENSE_ID_BOUND: u32 = 1 << 20;

/// Replays `log` and reports every invariant violation found.
pub fn check(log: &TraceLog) -> OracleReport {
    let mut violations = Vec::new();
    if log.schema_version != TRACE_SCHEMA_VERSION {
        violations.push(format!(
            "schema version {} != supported {}",
            log.schema_version, TRACE_SCHEMA_VERSION
        ));
        return OracleReport {
            events: log.events.len() as u64,
            dropped: log.dropped,
            violations,
        };
    }
    if log.dropped > 0 {
        violations.push(format!(
            "trace truncated: {} events dropped past the recorder bound — conservation unverifiable",
            log.dropped
        ));
    }

    let mut replay = Replay::default();
    for ev in &log.events {
        replay.step(&ev);
    }
    replay.finish(&mut violations);

    OracleReport {
        events: log.events.len() as u64,
        dropped: log.dropped,
        violations,
    }
}

/// The six invariant replays, fed by one sweep over the stream.
#[derive(Default)]
struct Replay {
    items: Items,
    pool: Pool,
    spans: Spans,
    reservations: Reservations,
    faults: Faults,
    overload: Overload,
}

impl Replay {
    /// Inlined into `check`'s loop together with the packed decoder, so
    /// the decoder's dispatch on the variant tag and this match can fold
    /// into one; out of line, the decode cost doubles.
    #[inline(always)]
    fn step(&mut self, ev: &Event) {
        let seq = ev.seq;
        match &ev.kind {
            TraceEvent::Produce { pair } => self.items.produce(seq, *pair),
            TraceEvent::Invoke { pair, batch, .. } => self.items.consume(seq, *pair, *batch),
            TraceEvent::Flush { pair, drained } => self.items.consume(seq, *pair, *drained),
            TraceEvent::ItemShed { pair } => {
                self.items.shed(seq, *pair);
                self.overload.shed(seq, *pair);
            }
            TraceEvent::CoreSpan {
                core,
                start_ns,
                end_ns,
                wakeup,
            } => self.spans.span(seq, *core, *start_ns, *end_ns, *wakeup),
            TraceEvent::BufferCreate {
                owner,
                capacity,
                pool_available,
                pool_total,
            } => self
                .pool
                .create(seq, *owner, *capacity, *pool_available, *pool_total),
            TraceEvent::BufferGrow {
                owner,
                from,
                to,
                want,
                pool_available,
            } => self
                .pool
                .grow(seq, *owner, *from, *to, *want, *pool_available),
            TraceEvent::BufferShrink {
                owner,
                from,
                to,
                pool_available,
            } => self.pool.shrink(seq, *owner, *from, *to, *pool_available),
            TraceEvent::BufferDestroy {
                owner,
                released,
                pool_available,
            } => self.pool.destroy(seq, *owner, *released, *pool_available),
            TraceEvent::SlotReserve {
                core,
                consumer,
                slot,
                prev,
            } => self
                .reservations
                .reserve(seq, *core, *consumer, *slot, *prev),
            TraceEvent::SlotRelease {
                core,
                consumer,
                slot,
            } => self.reservations.release(seq, *core, *consumer, *slot),
            TraceEvent::SlotDispatch {
                core,
                slot,
                consumers,
            } => self.reservations.dispatch(seq, *core, *slot, consumers),
            TraceEvent::FaultInjected {
                id,
                kind,
                param,
                pool_available,
                ..
            } => {
                self.pool.inject(seq, *id, kind, *param, *pool_available);
                self.faults.inject(seq, *id, kind);
            }
            TraceEvent::FaultRecovered {
                id,
                kind,
                param,
                pool_available,
                ..
            } => {
                self.pool.recover(seq, *id, kind, *param, *pool_available);
                self.faults.recover(seq, *id, kind);
            }
            TraceEvent::OverloadEntered { pair, .. } => self.overload.enter(seq, *pair),
            TraceEvent::OverloadCleared { pair, shed } => self.overload.clear(seq, *pair, *shed),
            TraceEvent::Wakeup { .. } | TraceEvent::SlotSelect { .. } => {}
        }
    }

    /// Appends every replay's violations, invariant by invariant.
    fn finish(self, out: &mut Vec<String>) {
        self.items.finish(out);
        self.pool.finish(out);
        out.extend(self.spans.violations);
        out.extend(self.reservations.violations);
        self.faults.finish(out);
        self.overload.finish(out);
    }
}

/// Names a dense ledger's id in violations: (invariant, id field).
type Label = (&'static str, &'static str);
const ITEMS_PAIR: Label = ("item conservation", "pair");
const POOL_OWNER: Label = ("pool", "owner");
const SPANS_CORE: Label = ("core spans", "core");
const OVERLOAD_PAIR: Label = ("overload", "pair");

/// The row of `id` in a dense ledger, grown on first use. An id at or
/// above [`DENSE_ID_BOUND`] gets no row; `violations` records it under
/// `label` instead.
fn row<'t, T: Clone + Default>(
    table: &'t mut Vec<T>,
    id: u32,
    seq: u64,
    (invariant, field): Label,
    violations: &mut Vec<String>,
) -> Option<&'t mut T> {
    let i = id as usize;
    if i >= table.len() {
        if id >= DENSE_ID_BOUND {
            violations.push(format!(
                "{invariant}: seq {seq} {field} {id} is at or above the dense-id bound {DENSE_ID_BOUND} — not replayed"
            ));
            return None;
        }
        table.resize(i + 1, T::default());
    }
    Some(&mut table[i])
}

/// Per-pair item ledger replayed from the stream.
#[derive(Clone, Default)]
struct PairLedger {
    produced: u64,
    consumed: u64,
    shed: u64,
}

/// Invariant 1: per pair, Σ Produce == Σ Invoke.batch + Σ Flush.drained
/// + Σ ItemShed.
///
/// `produced` and `shed` count events, so they cannot overflow;
/// `consumed` sums recorded batches and is checked.
#[derive(Default)]
struct Items {
    pairs: Vec<PairLedger>,
    violations: Vec<String>,
}

impl Items {
    fn produce(&mut self, seq: u64, pair: u32) {
        if let Some(l) = row(&mut self.pairs, pair, seq, ITEMS_PAIR, &mut self.violations) {
            l.produced += 1;
        }
    }

    fn shed(&mut self, seq: u64, pair: u32) {
        if let Some(l) = row(&mut self.pairs, pair, seq, ITEMS_PAIR, &mut self.violations) {
            l.shed += 1;
        }
    }

    fn consume(&mut self, seq: u64, pair: u32, items: u64) {
        let Some(l) = row(&mut self.pairs, pair, seq, ITEMS_PAIR, &mut self.violations) else {
            return;
        };
        match l.consumed.checked_add(items) {
            Some(sum) => l.consumed = sum,
            None => {
                self.violations.push(format!(
                    "item conservation: seq {seq} pair {pair} consumes {items} more items after {}, overflowing u64",
                    l.consumed
                ));
                l.consumed = u64::MAX;
            }
        }
    }

    fn finish(self, out: &mut Vec<String>) {
        out.extend(self.violations);
        for (pair, ledger) in self.pairs.iter().enumerate() {
            if ledger.consumed.checked_add(ledger.shed) != Some(ledger.produced) {
                out.push(format!(
                    "item conservation: pair {pair} produced {} but invocations+flush account for {} and sheds for {}",
                    ledger.produced, ledger.consumed, ledger.shed
                ));
            }
        }
    }
}

/// Invariant 2: replay every `Buffer*` transaction against the pool.
/// Sim-only — a trace with no `BufferCreate` events passes trivially.
/// `pool_squeeze` fault windows reserve units out of the pool without a
/// buffer owning them; a ledger of active squeezes keeps the
/// conservation sum balanced through each window.
#[derive(Default)]
struct Pool {
    /// owner -> held capacity. Owners are unique per run (one elastic
    /// buffer per PBPL pair).
    held: Vec<Option<u64>>,
    /// fault id -> units an active pool_squeeze holds hostage.
    squeezes: BTreeMap<u32, u64>,
    /// Running Σ `held` and Σ `squeezes`.
    in_buffers: u128,
    squeezed: u128,
    total: Option<u64>,
    violations: Vec<String>,
}

impl Pool {
    fn create(&mut self, seq: u64, owner: u32, capacity: u64, available: u64, pool_total: u64) {
        match self.total {
            None => self.total = Some(pool_total),
            Some(t) if t != pool_total => {
                self.violations.push(format!(
                    "pool: seq {seq} BufferCreate reports total {pool_total}, earlier events said {t}"
                ));
            }
            Some(_) => {}
        }
        if let Some(held) = row(&mut self.held, owner, seq, POOL_OWNER, &mut self.violations) {
            if let Some(old) = held.replace(capacity) {
                self.in_buffers -= u128::from(old);
                self.violations.push(format!(
                    "pool: seq {seq} BufferCreate for owner {owner} which already holds capacity"
                ));
            }
            self.in_buffers += u128::from(capacity);
        }
        self.expect_conserved(seq, available);
    }

    fn grow(&mut self, seq: u64, owner: u32, from: u64, to: u64, want: u64, available: u64) {
        if to < from || to > want {
            self.violations.push(format!(
                "pool: seq {seq} BufferGrow owner {owner} from {from} to {to} want {want} — grant out of range"
            ));
        }
        self.resize(seq, "BufferGrow", owner, from, to, available);
    }

    fn shrink(&mut self, seq: u64, owner: u32, from: u64, to: u64, available: u64) {
        if to > from {
            self.violations.push(format!(
                "pool: seq {seq} BufferShrink owner {owner} from {from} to {to} — shrink grew"
            ));
        }
        self.resize(seq, "BufferShrink", owner, from, to, available);
    }

    /// Moves `owner` from `from` to `to` if the replay agrees it holds
    /// `from`.
    fn resize(&mut self, seq: u64, event: &str, owner: u32, from: u64, to: u64, available: u64) {
        match self.held.get_mut(owner as usize).and_then(Option::as_mut) {
            Some(cap) if *cap == from => {
                *cap = to;
                self.in_buffers = self.in_buffers - u128::from(from) + u128::from(to);
            }
            Some(cap) => self.violations.push(format!(
                "pool: seq {seq} {event} owner {owner} claims from {from}, replay holds {cap}"
            )),
            None => self.violations.push(format!(
                "pool: seq {seq} {event} for owner {owner} with no live buffer"
            )),
        }
        self.expect_conserved(seq, available);
    }

    fn destroy(&mut self, seq: u64, owner: u32, released: u64, available: u64) {
        match self.held.get_mut(owner as usize).and_then(Option::take) {
            Some(cap) => {
                self.in_buffers -= u128::from(cap);
                if cap != released {
                    self.violations.push(format!(
                        "pool: seq {seq} BufferDestroy owner {owner} released {released}, replay held {cap} — double free or leak"
                    ));
                }
            }
            None => self.violations.push(format!(
                "pool: seq {seq} BufferDestroy for owner {owner} with no live buffer"
            )),
        }
        self.expect_conserved(seq, available);
    }

    fn inject(&mut self, seq: u64, id: u32, kind: &str, param: u64, available: u64) {
        // `u64::MAX` is the no-pool sentinel: nothing to replay.
        if available == u64::MAX {
            return;
        }
        if is_squeeze(kind) {
            if let Some(old) = self.squeezes.insert(id, param) {
                self.squeezed -= u128::from(old);
                self.violations.push(format!(
                    "pool: seq {seq} {kind} fault {id} injected while already active"
                ));
            }
            self.squeezed += u128::from(param);
        }
        self.expect_conserved(seq, available);
    }

    fn recover(&mut self, seq: u64, id: u32, kind: &str, param: u64, available: u64) {
        if available == u64::MAX {
            return;
        }
        if is_squeeze(kind) {
            match self.squeezes.remove(&id) {
                Some(units) => {
                    self.squeezed -= u128::from(units);
                    if units != param {
                        self.violations.push(format!(
                            "pool: seq {seq} {kind} fault {id} returned {param} units but squeezed {units}"
                        ));
                    }
                }
                None => self.violations.push(format!(
                    "pool: seq {seq} {kind} fault {id} recovered without an active squeeze"
                )),
            }
        }
        self.expect_conserved(seq, available);
    }

    /// After every pool transaction: Σ held capacities + Σ active
    /// squeezes + available == total.
    fn expect_conserved(&mut self, seq: u64, available: u64) {
        let Some(total) = self.total else { return };
        let (in_buffers, squeezed) = (self.in_buffers, self.squeezed);
        if in_buffers + squeezed + u128::from(available) != u128::from(total) {
            self.violations.push(format!(
                "pool conservation: seq {seq}: Σ capacities {in_buffers} + squeezed {squeezed} + available {available} != total {total}"
            ));
        }
    }

    fn finish(self, out: &mut Vec<String>) {
        out.extend(self.violations);
        for (id, units) in &self.squeezes {
            out.push(format!(
                "pool: pool_squeeze fault {id} still holds {units} units at end of trace"
            ));
        }
    }
}

/// `pool_squeeze_shard` is no longer emitted, but trace files written by
/// older builds may carry it, and it ledgers exactly like a squeeze.
fn is_squeeze(kind: &str) -> bool {
    kind == "pool_squeeze" || kind == "pool_squeeze_shard"
}

/// A core's replayed span state: the last start and the end of the
/// open merged span.
#[derive(Clone, Copy)]
struct OpenSpan {
    last_start: u64,
    open_end: u64,
}

/// Invariant 3: per-core span ordering plus the wakeup/merge rule.
#[derive(Default)]
struct Spans {
    cores: Vec<Option<OpenSpan>>,
    violations: Vec<String>,
}

impl Spans {
    fn span(&mut self, seq: u64, core: u32, start_ns: u64, end_ns: u64, wakeup: bool) {
        if end_ns <= start_ns {
            self.violations.push(format!(
                "core {core}: seq {seq} empty or inverted span [{start_ns}, {end_ns})"
            ));
            return;
        }
        let Some(state) = row(&mut self.cores, core, seq, SPANS_CORE, &mut self.violations) else {
            return;
        };
        match state {
            None => {
                if !wakeup {
                    self.violations.push(format!(
                        "core {core}: seq {seq} first span did not count a wakeup"
                    ));
                }
                *state = Some(OpenSpan {
                    last_start: start_ns,
                    open_end: end_ns,
                });
            }
            Some(OpenSpan {
                last_start,
                open_end,
            }) => {
                if start_ns < *last_start {
                    self.violations.push(format!(
                        "core {core}: seq {seq} span starts at {start_ns}, before previous start {last_start}"
                    ));
                }
                // Replay Core::add_active_span: a span at or before the
                // open end latches (no wakeup); a gap wakes the core.
                let expect_wakeup = start_ns > *open_end;
                if wakeup != expect_wakeup {
                    self.violations.push(format!(
                        "core {core}: seq {seq} wakeup flag {wakeup} but replay (open span ends {open_end}, next starts {start_ns}) expects {expect_wakeup}"
                    ));
                }
                *last_start = (*last_start).max(start_ns);
                *open_end = if expect_wakeup {
                    end_ns
                } else {
                    (*open_end).max(end_ns)
                };
            }
        }
    }
}

/// Invariant 4: replay the reservation book of every core manager.
/// `Slot*` events are rare, so the book stays an ordered map.
#[derive(Default)]
struct Reservations {
    /// (core, consumer) -> reserved slot.
    book: BTreeMap<(u32, u32), u64>,
    violations: Vec<String>,
}

impl Reservations {
    fn reserve(&mut self, seq: u64, core: u32, consumer: u32, slot: u64, prev: Option<u64>) {
        let replayed = self.book.insert((core, consumer), slot);
        if replayed != prev {
            self.violations.push(format!(
                "reservations: seq {seq} core {core} consumer {consumer} reports prev {prev:?}, replay says {replayed:?}"
            ));
        }
    }

    fn release(&mut self, seq: u64, core: u32, consumer: u32, slot: u64) {
        match self.book.remove(&(core, consumer)) {
            Some(held) if held == slot => {}
            Some(held) => self.violations.push(format!(
                "reservations: seq {seq} core {core} consumer {consumer} released slot {slot} but held {held}"
            )),
            None => self.violations.push(format!(
                "reservations: seq {seq} core {core} consumer {consumer} released slot {slot} without a reservation"
            )),
        }
    }

    /// A dispatch *consumes* the reservations it serves (`take_due`
    /// clears the held map), so it removes them from the replay book as
    /// well.
    fn dispatch(&mut self, seq: u64, core: u32, slot: u64, consumers: &[u32]) {
        for consumer in consumers {
            match self.book.remove(&(core, *consumer)) {
                Some(held) if held == slot => {}
                Some(held) => self.violations.push(format!(
                    "reservations: seq {seq} core {core} dispatched slot {slot} to consumer {consumer} who reserved {held}"
                )),
                None => self.violations.push(format!(
                    "reservations: seq {seq} core {core} dispatched slot {slot} to consumer {consumer} with no reservation"
                )),
            }
        }
    }
}

/// Invariant 5: fault windows pair up. Injections carry fresh ids,
/// recoveries name an active id with the same kind, and nothing stays
/// open past the end of the trace (the sim recovers still-active faults
/// before teardown, so a dangling window means lost rollback).
#[derive(Default)]
struct Faults {
    /// fault id -> kind of the active window.
    active: BTreeMap<u32, String>,
    violations: Vec<String>,
}

impl Faults {
    fn inject(&mut self, seq: u64, id: u32, kind: &str) {
        if let Some(prev) = self.active.insert(id, kind.to_owned()) {
            self.violations.push(format!(
                "faults: seq {seq} fault {id} ({kind}) injected while {prev} window with the same id is open"
            ));
        }
    }

    fn recover(&mut self, seq: u64, id: u32, kind: &str) {
        match self.active.remove(&id) {
            Some(injected) if injected == kind => {}
            Some(injected) => self.violations.push(format!(
                "faults: seq {seq} fault {id} recovered as {kind} but was injected as {injected}"
            )),
            None => self.violations.push(format!(
                "faults: seq {seq} fault {id} ({kind}) recovered without an open window"
            )),
        }
    }

    fn finish(self, out: &mut Vec<String>) {
        out.extend(self.violations);
        for (id, kind) in &self.active {
            out.push(format!(
                "faults: fault {id} ({kind}) still open at end of trace — rollback never ran"
            ));
        }
    }
}

/// Invariant 6: overload windows pair up and ledger every shed. The
/// per-window check subsumes the per-pair sum: if every window's
/// `OverloadCleared.shed` matches the sheds replayed inside it, the
/// per-pair totals match too.
#[derive(Default)]
struct Overload {
    /// pair -> sheds replayed inside the currently-open window.
    open: Vec<Option<u64>>,
    violations: Vec<String>,
}

impl Overload {
    fn enter(&mut self, seq: u64, pair: u32) {
        let Some(window) = row(
            &mut self.open,
            pair,
            seq,
            OVERLOAD_PAIR,
            &mut self.violations,
        ) else {
            return;
        };
        if window.replace(0).is_some() {
            self.violations.push(format!(
                "overload: seq {seq} pair {pair} entered overload while its window is already open"
            ));
        }
    }

    fn shed(&mut self, seq: u64, pair: u32) {
        match self.open.get_mut(pair as usize).and_then(Option::as_mut) {
            Some(n) => *n += 1,
            None => self.violations.push(format!(
                "overload: seq {seq} pair {pair} shed an item outside an overload window"
            )),
        }
    }

    fn clear(&mut self, seq: u64, pair: u32, shed: u64) {
        match self.open.get_mut(pair as usize).and_then(Option::take) {
            Some(n) if n == shed => {}
            Some(n) => self.violations.push(format!(
                "overload: seq {seq} pair {pair} cleared reporting {shed} sheds, replay counted {n}"
            )),
            None => self.violations.push(format!(
                "overload: seq {seq} pair {pair} cleared without an open window"
            )),
        }
    }

    fn finish(self, out: &mut Vec<String>) {
        out.extend(self.violations);
        for (pair, window) in self.open.iter().enumerate() {
            if let Some(n) = window {
                out.push(format!(
                    "overload: pair {pair} window still open at end of trace ({n} sheds unledgered)"
                ));
            }
        }
    }
}

/// Per-cell metadata line of a JSONL trace export: identifies the suite
/// cell the following [`TraceLine::Ev`] lines belong to and pins its
/// digest so `replay` can detect tampering or drift.
///
/// The header is also the *replay recipe*: `pc_bench::replay`
/// reconstructs the cell's full configuration from these fields alone
/// (strategy label + `period_ns`, named `workload`, `duration_ns`,
/// geometry, seed, and — for chaos cells — the `scenario` whose fault
/// plan re-expands deterministically), re-runs the simulation, and
/// compares the regenerated stream event-by-event against the
/// recording. Anything a replay needs must live here, and nothing
/// host-dependent ever may.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMeta {
    /// Experiment id (e.g. `fig4_wakeups`).
    pub experiment: String,
    /// Strategy display name.
    pub strategy: String,
    /// Producer-consumer pairs in the cell.
    pub pairs: u64,
    /// Simulated cores.
    pub cores: u64,
    /// Base buffer capacity B₀.
    pub buffer: u64,
    /// Seed the cell ran under.
    pub seed: u64,
    /// Run horizon in sim nanoseconds.
    pub duration_ns: u64,
    /// Named workload the cell ran (`worldcup_paper`, `worldcup_quick`,
    /// `planet_scale`, `planet_quick`) — replay maps the name back to
    /// the constructor, so only registered configurations are
    /// exportable.
    pub workload: String,
    /// Fault scenario name ([`pc_faults::FaultScenario::name`]); empty
    /// for fault-free cells.
    pub scenario: String,
    /// Exact period of parameterised periodic strategies (PBP/SPBP) in
    /// nanoseconds; zero when the strategy has no period. The display
    /// label rounds to microseconds, which is too coarse to re-run.
    pub period_ns: u64,
    /// Events recorded for the cell.
    pub events: u64,
    /// Events dropped past the recorder bound.
    pub dropped: u64,
    /// FNV-1a digest of the cell's event stream
    /// ([`pc_trace_events::digest`]).
    pub digest: u64,
}

impl CellMeta {
    /// Stable single-line cell label used in reports and diagnostics.
    pub fn label(&self) -> String {
        format!(
            "{} {} M={} B={} seed={}",
            self.experiment, self.strategy, self.pairs, self.buffer, self.seed
        )
    }
}

/// The exact period of a parameterised periodic strategy, or zero — the
/// `period_ns` field of [`CellMeta`].
pub fn strategy_period_ns(strategy: &pc_core::StrategyKind) -> u64 {
    match strategy {
        pc_core::StrategyKind::Pbp { period } | pc_core::StrategyKind::Spbp { period } => {
            period.as_nanos()
        }
        _ => 0,
    }
}

/// One line of a JSONL trace export: either a cell header or an event of
/// the most recent cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceLine {
    /// Header announcing a new cell; subsequent events belong to it.
    Cell(CellMeta),
    /// One recorded event of the current cell.
    Ev(Event),
}

/// Streams one cell of a JSONL trace export into `out`: the
/// [`TraceLine::Cell`] header line, then one [`TraceLine::Ev`] line per
/// event. `meta`'s `events`/`dropped`/`digest` fields describe `events`.
///
/// Each line carries exactly the bytes `serde_json` prints for the
/// `TraceLine` (externally tagged, `{"Cell":…}` / `{"Ev":…}`), but the
/// payload streams through `serde_json::to_writer`: no `TraceLine` is
/// built and no per-line `String` allocated. `events` is a packed
/// stream (`&PackedEvents`, decoded one event at a time) or a slice.
pub fn write_cell(
    out: &mut impl io::Write,
    meta: &CellMeta,
    events: impl IntoIterator<Item = impl Borrow<Event>>,
) -> io::Result<()> {
    write_line(out, b"{\"Cell\":", meta)?;
    for ev in events {
        write_line(out, b"{\"Ev\":", ev.borrow())?;
    }
    Ok(())
}

fn write_line(
    out: &mut impl io::Write,
    open_tag: &[u8],
    payload: &impl Serialize,
) -> io::Result<()> {
    out.write_all(open_tag)?;
    serde_json::to_writer(&mut *out, payload).map_err(io::Error::other)?;
    out.write_all(b"}\n")
}

/// Parses one export line.
pub fn line_from_json(text: &str) -> Result<TraceLine, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace_events::Trigger;

    fn log(kinds: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Event {
                    seq: i as u64,
                    t_ns: i as u64 * 10,
                    kind,
                })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn clean_conserving_trace_passes() {
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Scheduled,
                batch: 1,
                capacity: 25,
            },
            TraceEvent::Flush {
                pair: 0,
                drained: 1,
            },
        ]));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.events, 4);
    }

    #[test]
    fn lost_item_is_reported() {
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 2 },
            TraceEvent::Produce { pair: 2 },
            TraceEvent::Invoke {
                pair: 2,
                trigger: Trigger::Item,
                batch: 1,
                capacity: 0,
            },
        ]));
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("pair 2"));
    }

    #[test]
    fn truncated_trace_is_a_violation() {
        let mut l = log(vec![TraceEvent::Produce { pair: 0 }]);
        l.dropped = 10;
        // The surviving prefix also fails conservation; the truncation
        // violation must come first so readers see why.
        let report = check(&l);
        assert!(report.violations[0].contains("truncated"));
    }

    #[test]
    fn pool_replay_catches_double_free() {
        let report = check(&log(vec![
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: 25,
                pool_available: 25,
                pool_total: 50,
            },
            TraceEvent::BufferDestroy {
                owner: 0,
                released: 30, // more than it held
                pool_available: 55,
            },
        ]));
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.contains("double free")));
    }

    #[test]
    fn pool_replay_checks_available_every_step() {
        let report = check(&log(vec![TraceEvent::BufferCreate {
            owner: 0,
            capacity: 25,
            pool_available: 30, // should be 25
            pool_total: 50,
        }]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("pool conservation")));
    }

    #[test]
    fn native_trace_without_buffer_events_skips_pool_check() {
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Item,
                batch: 1,
                capacity: 0,
            },
        ]));
        assert!(report.is_clean());
    }

    #[test]
    fn span_replay_checks_order_and_wakeups() {
        // Merge then gap: flags must follow the add_active_span rule.
        let clean = check(&log(vec![
            TraceEvent::CoreSpan {
                core: 0,
                start_ns: 10,
                end_ns: 20,
                wakeup: true,
            },
            TraceEvent::CoreSpan {
                core: 0,
                start_ns: 15,
                end_ns: 30,
                wakeup: false,
            },
            TraceEvent::CoreSpan {
                core: 0,
                start_ns: 40,
                end_ns: 50,
                wakeup: true,
            },
        ]));
        assert!(clean.is_clean(), "{:?}", clean.violations);

        let out_of_order = check(&log(vec![
            TraceEvent::CoreSpan {
                core: 0,
                start_ns: 40,
                end_ns: 50,
                wakeup: true,
            },
            TraceEvent::CoreSpan {
                core: 0,
                start_ns: 10,
                end_ns: 20,
                wakeup: true,
            },
        ]));
        assert!(out_of_order
            .violations
            .iter()
            .any(|v| v.contains("before previous start")));

        let bad_flag = check(&log(vec![
            TraceEvent::CoreSpan {
                core: 1,
                start_ns: 10,
                end_ns: 20,
                wakeup: true,
            },
            TraceEvent::CoreSpan {
                core: 1,
                start_ns: 15,
                end_ns: 30,
                wakeup: true, // overlaps: should latch, not wake
            },
        ]));
        assert!(bad_flag
            .violations
            .iter()
            .any(|v| v.contains("wakeup flag")));
    }

    #[test]
    fn reservation_replay_checks_book() {
        let clean = check(&log(vec![
            TraceEvent::SlotReserve {
                core: 0,
                consumer: 1,
                slot: 4,
                prev: None,
            },
            TraceEvent::SlotDispatch {
                core: 0,
                slot: 4,
                consumers: vec![1],
            },
            // The dispatch consumed the reservation, so the next reserve
            // starts fresh.
            TraceEvent::SlotReserve {
                core: 0,
                consumer: 1,
                slot: 9,
                prev: None,
            },
            TraceEvent::SlotRelease {
                core: 0,
                consumer: 1,
                slot: 9,
            },
        ]));
        assert!(clean.is_clean(), "{:?}", clean.violations);

        let wrong_prev = check(&log(vec![TraceEvent::SlotReserve {
            core: 0,
            consumer: 1,
            slot: 4,
            prev: Some(2),
        }]));
        assert!(!wrong_prev.is_clean());

        let ghost_dispatch = check(&log(vec![TraceEvent::SlotDispatch {
            core: 0,
            slot: 4,
            consumers: vec![7],
        }]));
        assert!(ghost_dispatch
            .violations
            .iter()
            .any(|v| v.contains("no reservation")));
    }

    fn inject(id: u32, kind: &str, param: u64, pool_available: u64) -> TraceEvent {
        TraceEvent::FaultInjected {
            id,
            kind: kind.into(),
            pair: u32::MAX,
            core: u32::MAX,
            param,
            pool_available,
        }
    }

    fn recover(id: u32, kind: &str, param: u64, pool_available: u64) -> TraceEvent {
        TraceEvent::FaultRecovered {
            id,
            kind: kind.into(),
            pair: u32::MAX,
            core: u32::MAX,
            param,
            pool_available,
        }
    }

    #[test]
    fn pool_squeeze_window_conserves() {
        // 50-unit pool, one 25-cap buffer; a squeeze grabs 20 for a
        // while. Conservation must hold at every step of the window.
        let report = check(&log(vec![
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: 25,
                pool_available: 25,
                pool_total: 50,
            },
            inject(3, "pool_squeeze", 20, 5),
            recover(3, "pool_squeeze", 20, 25),
            TraceEvent::BufferDestroy {
                owner: 0,
                released: 25,
                pool_available: 50,
            },
        ]));
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn pool_squeeze_leak_is_reported() {
        // The recovery claims fewer units than the squeeze grabbed.
        let report = check(&log(vec![
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: 25,
                pool_available: 25,
                pool_total: 50,
            },
            inject(3, "pool_squeeze", 20, 5),
            recover(3, "pool_squeeze", 10, 15),
        ]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("returned 10 units but squeezed 20")));
    }

    #[test]
    fn legacy_shard_squeeze_ledgers_like_a_squeeze() {
        // Trace files from older builds name a squeeze of one pool shard
        // `pool_squeeze_shard`; its units are still pool units.
        let window = |returned: u64, available: u64| {
            check(&log(vec![
                TraceEvent::BufferCreate {
                    owner: 0,
                    capacity: 25,
                    pool_available: 25,
                    pool_total: 50,
                },
                inject(1, "pool_squeeze_shard", 12, 13),
                recover(1, "pool_squeeze_shard", returned, available),
            ]))
        };
        let clean = window(12, 25);
        assert!(clean.is_clean(), "{:?}", clean.violations);
        let leak = window(7, 20);
        assert!(leak
            .violations
            .iter()
            .any(|v| v.contains("returned 7 units but squeezed 12")));
    }

    #[test]
    fn squeeze_still_held_at_end_of_trace_is_reported() {
        let report = check(&log(vec![
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: 25,
                pool_available: 25,
                pool_total: 50,
            },
            inject(2, "pool_squeeze", 20, 5),
        ]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("fault 2 still holds 20 units at end of trace")));
    }

    #[test]
    fn dangling_fault_window_is_reported() {
        let report = check(&log(vec![inject(0, "rate_shock", 3000, u64::MAX)]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("still open at end of trace")));
    }

    #[test]
    fn fault_kind_mismatch_and_ghost_recovery_reported() {
        let mismatch = check(&log(vec![
            inject(1, "producer_stall", 0, u64::MAX),
            recover(1, "timer_drift", 0, u64::MAX),
        ]));
        assert!(mismatch
            .violations
            .iter()
            .any(|v| v.contains("injected as producer_stall")));

        let ghost = check(&log(vec![recover(9, "dropped_wakeup", 2, u64::MAX)]));
        assert!(ghost
            .violations
            .iter()
            .any(|v| v.contains("without an open window")));
    }

    #[test]
    fn no_pool_sentinel_skips_squeeze_ledger() {
        // Faults traced under a pool-less strategy carry the u64::MAX
        // sentinel; the pool replay must ignore them entirely.
        let report = check(&log(vec![
            inject(0, "dropped_wakeup", 0, u64::MAX),
            recover(0, "dropped_wakeup", 4, u64::MAX),
        ]));
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn shed_items_balance_conservation_inside_windows() {
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Produce { pair: 0 },
            TraceEvent::OverloadEntered {
                pair: 0,
                occupancy: 25,
                escalated: false,
            },
            TraceEvent::ItemShed { pair: 0 },
            TraceEvent::OverloadCleared { pair: 0, shed: 1 },
            TraceEvent::Flush {
                pair: 0,
                drained: 1,
            },
        ]));
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn shed_outside_a_window_is_reported() {
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::ItemShed { pair: 0 },
        ]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("outside an overload window")));
    }

    #[test]
    fn overload_window_shed_mismatch_and_dangles_reported() {
        let miscount = check(&log(vec![
            TraceEvent::Produce { pair: 1 },
            TraceEvent::OverloadEntered {
                pair: 1,
                occupancy: 10,
                escalated: true,
            },
            TraceEvent::ItemShed { pair: 1 },
            TraceEvent::OverloadCleared { pair: 1, shed: 2 },
        ]));
        assert!(miscount
            .violations
            .iter()
            .any(|v| v.contains("reporting 2 sheds, replay counted 1")));

        let dangling = check(&log(vec![TraceEvent::OverloadEntered {
            pair: 3,
            occupancy: 0,
            escalated: false,
        }]));
        assert!(dangling
            .violations
            .iter()
            .any(|v| v.contains("window still open at end of trace")));

        let ghost = check(&log(vec![TraceEvent::OverloadCleared { pair: 5, shed: 0 }]));
        assert!(ghost
            .violations
            .iter()
            .any(|v| v.contains("cleared without an open window")));
    }

    #[test]
    fn unshedded_lost_item_still_reported_with_windows_present() {
        // A window alone must not excuse a genuinely lost item.
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Produce { pair: 0 },
            TraceEvent::OverloadEntered {
                pair: 0,
                occupancy: 1,
                escalated: false,
            },
            TraceEvent::ItemShed { pair: 0 },
            TraceEvent::OverloadCleared { pair: 0, shed: 1 },
            // The second produced item is never consumed or flushed.
        ]));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("item conservation")));
    }

    #[test]
    fn consumed_overflow_is_a_violation_not_a_wrap() {
        // Unchecked, u64::MAX + 2 wraps to 1 == produced and a forged
        // trace passes (or panics in a debug build).
        let report = check(&log(vec![
            TraceEvent::Produce { pair: 0 },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Item,
                batch: u64::MAX,
                capacity: 0,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Item,
                batch: 2,
                capacity: 0,
            },
        ]));
        assert!(
            report.violations[0].contains("seq 2 pair 0 consumes 2 more items"),
            "{:?}",
            report.violations
        );
        assert!(report.violations[0].contains("overflowing u64"));
        assert!(report.violations[1].contains("pair 0 produced 1"));
    }

    #[test]
    fn pool_sums_do_not_wrap() {
        // Two 2^63-unit buffers: a wrapping Σ capacities would read 0
        // and balance against available == total.
        let half = 1u64 << 63;
        let report = check(&log(vec![
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: half,
                pool_available: 0,
                pool_total: half,
            },
            TraceEvent::BufferCreate {
                owner: 1,
                capacity: half,
                pool_available: half,
                pool_total: half,
            },
        ]));
        assert_eq!(
            report.violations,
            [format!(
                "pool conservation: seq 1: Σ capacities {} + squeezed 0 + available {half} != total {half}",
                1u128 << 64
            )]
        );
    }

    #[test]
    fn ids_at_the_dense_bound_are_violations_not_table_growth() {
        let big = 4_000_000_000u32;
        let report = check(&log(vec![
            TraceEvent::Produce { pair: big },
            TraceEvent::CoreSpan {
                core: DENSE_ID_BOUND,
                start_ns: 0,
                end_ns: 1,
                wakeup: true,
            },
            TraceEvent::BufferCreate {
                owner: big,
                capacity: 0,
                pool_available: 0,
                pool_total: 0,
            },
            TraceEvent::OverloadEntered {
                pair: big,
                occupancy: 0,
                escalated: false,
            },
        ]));
        let bound = DENSE_ID_BOUND;
        assert_eq!(
            report.violations,
            [
                format!("item conservation: seq 0 pair {big} is at or above the dense-id bound {bound} — not replayed"),
                format!("pool: seq 2 owner {big} is at or above the dense-id bound {bound} — not replayed"),
                format!("core spans: seq 1 core {bound} is at or above the dense-id bound {bound} — not replayed"),
                format!("overload: seq 3 pair {big} is at or above the dense-id bound {bound} — not replayed"),
            ]
        );
        // One below the bound is an ordinary id.
        let edge = check(&log(vec![
            TraceEvent::Produce {
                pair: DENSE_ID_BOUND - 1,
            },
            TraceEvent::Flush {
                pair: DENSE_ID_BOUND - 1,
                drained: 1,
            },
        ]));
        assert!(edge.is_clean(), "{:?}", edge.violations);
    }

    #[test]
    fn trace_lines_roundtrip() {
        let meta = CellMeta {
            experiment: "fig4_wakeups".into(),
            strategy: "PBPL".into(),
            pairs: 8,
            cores: 4,
            buffer: 25,
            seed: 42,
            duration_ns: 50_000_000,
            workload: "worldcup_quick".into(),
            scenario: String::new(),
            period_ns: 0,
            events: 1,
            dropped: 0,
            digest: 0xdead_beef_dead_beef,
        };
        let ev = Event {
            seq: 0,
            t_ns: 99,
            kind: TraceEvent::Wakeup { pair: 3 },
        };
        let mut out = Vec::new();
        write_cell(&mut out, &meta, std::slice::from_ref(&ev)).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = [TraceLine::Cell(meta), TraceLine::Ev(ev)];
        assert_eq!(text.lines().count(), lines.len());
        assert!(text.ends_with('\n'));
        for (line, text) in lines.iter().zip(text.lines()) {
            // The streamed line is the derived `TraceLine` form, byte for byte.
            assert_eq!(text, serde_json::to_string(line).unwrap());
            let back = line_from_json(text).expect("parses");
            assert_eq!(&back, line, "roundtrip mismatch for {text}");
        }
    }
}
