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

use pc_trace_events::{Event, TraceEvent, TraceLog, TRACE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
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

/// Per-pair item ledger replayed from the stream.
#[derive(Default)]
struct PairLedger {
    produced: u64,
    consumed: u64,
    shed: u64,
}

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

    check_items(&log.events, &mut violations);
    check_pool(&log.events, &mut violations);
    check_core_spans(&log.events, &mut violations);
    check_reservations(&log.events, &mut violations);
    check_faults(&log.events, &mut violations);
    check_overload(&log.events, &mut violations);

    OracleReport {
        events: log.events.len() as u64,
        dropped: log.dropped,
        violations,
    }
}

/// Invariant 1: per pair, Σ Produce == Σ Invoke.batch + Σ Flush.drained
/// + Σ ItemShed.
fn check_items(events: &[Event], violations: &mut Vec<String>) {
    let mut pairs: BTreeMap<u32, PairLedger> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            TraceEvent::Produce { pair } => {
                pairs.entry(*pair).or_default().produced += 1;
            }
            TraceEvent::Invoke { pair, batch, .. } => {
                pairs.entry(*pair).or_default().consumed += batch;
            }
            TraceEvent::Flush { pair, drained } => {
                pairs.entry(*pair).or_default().consumed += drained;
            }
            TraceEvent::ItemShed { pair } => {
                pairs.entry(*pair).or_default().shed += 1;
            }
            _ => {}
        }
    }
    for (pair, ledger) in &pairs {
        if ledger.produced != ledger.consumed + ledger.shed {
            violations.push(format!(
                "item conservation: pair {pair} produced {} but invocations+flush account for {} and sheds for {}",
                ledger.produced, ledger.consumed, ledger.shed
            ));
        }
    }
}

/// Invariant 2: replay every `Buffer*` transaction against the pool.
/// Sim-only — a trace with no `BufferCreate` events passes trivially.
/// `pool_squeeze` fault windows reserve units out of the pool without a
/// buffer owning them; a ledger of active squeezes keeps the
/// conservation sum balanced through each window.
fn check_pool(events: &[Event], violations: &mut Vec<String>) {
    // owner -> held capacity. Owners are unique per run (one elastic
    // buffer per PBPL pair).
    let mut held: BTreeMap<u32, u64> = BTreeMap::new();
    // fault id -> units an active pool_squeeze holds hostage.
    let mut squeezes: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total: Option<u64> = None;
    for ev in events {
        let seq = ev.seq;
        match &ev.kind {
            TraceEvent::BufferCreate {
                owner,
                capacity,
                pool_available,
                pool_total,
            } => {
                match total {
                    None => total = Some(*pool_total),
                    Some(t) if t != *pool_total => {
                        violations.push(format!(
                            "pool: seq {seq} BufferCreate reports total {pool_total}, earlier events said {t}"
                        ));
                    }
                    Some(_) => {}
                }
                if held.insert(*owner, *capacity).is_some() {
                    violations.push(format!(
                        "pool: seq {seq} BufferCreate for owner {owner} which already holds capacity"
                    ));
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            TraceEvent::BufferGrow {
                owner,
                from,
                to,
                want,
                pool_available,
            } => {
                if to < from || to > want {
                    violations.push(format!(
                        "pool: seq {seq} BufferGrow owner {owner} from {from} to {to} want {want} — grant out of range"
                    ));
                }
                match held.get_mut(owner) {
                    Some(cap) if *cap == *from => *cap = *to,
                    Some(cap) => violations.push(format!(
                        "pool: seq {seq} BufferGrow owner {owner} claims from {from}, replay holds {cap}"
                    )),
                    None => violations.push(format!(
                        "pool: seq {seq} BufferGrow for owner {owner} with no live buffer"
                    )),
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            TraceEvent::BufferShrink {
                owner,
                from,
                to,
                pool_available,
            } => {
                if to > from {
                    violations.push(format!(
                        "pool: seq {seq} BufferShrink owner {owner} from {from} to {to} — shrink grew"
                    ));
                }
                match held.get_mut(owner) {
                    Some(cap) if *cap == *from => *cap = *to,
                    Some(cap) => violations.push(format!(
                        "pool: seq {seq} BufferShrink owner {owner} claims from {from}, replay holds {cap}"
                    )),
                    None => violations.push(format!(
                        "pool: seq {seq} BufferShrink for owner {owner} with no live buffer"
                    )),
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            TraceEvent::BufferDestroy {
                owner,
                released,
                pool_available,
            } => {
                match held.remove(owner) {
                    Some(cap) if cap == *released => {}
                    Some(cap) => violations.push(format!(
                        "pool: seq {seq} BufferDestroy owner {owner} released {released}, replay held {cap} — double free or leak"
                    )),
                    None => violations.push(format!(
                        "pool: seq {seq} BufferDestroy for owner {owner} with no live buffer"
                    )),
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            TraceEvent::FaultInjected {
                id,
                kind,
                param,
                pool_available,
                ..
            } => {
                // `u64::MAX` is the no-pool sentinel: nothing to replay.
                if *pool_available == u64::MAX {
                    continue;
                }
                if (kind == "pool_squeeze" || kind == "pool_squeeze_shard")
                    && squeezes.insert(*id, *param).is_some()
                {
                    violations.push(format!(
                        "pool: seq {seq} {kind} fault {id} injected while already active"
                    ));
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            TraceEvent::FaultRecovered {
                id,
                kind,
                param,
                pool_available,
                ..
            } => {
                if *pool_available == u64::MAX {
                    continue;
                }
                if kind == "pool_squeeze" || kind == "pool_squeeze_shard" {
                    match squeezes.remove(id) {
                        Some(units) if units == *param => {}
                        Some(units) => violations.push(format!(
                            "pool: seq {seq} {kind} fault {id} returned {param} units but squeezed {units}"
                        )),
                        None => violations.push(format!(
                            "pool: seq {seq} {kind} fault {id} recovered without an active squeeze"
                        )),
                    }
                }
                expect_conserved(seq, &held, &squeezes, *pool_available, total, violations);
            }
            _ => {}
        }
    }
    for (id, units) in &squeezes {
        violations.push(format!(
            "pool: pool_squeeze fault {id} still holds {units} units at end of trace"
        ));
    }
}

/// After every pool transaction: Σ held capacities + Σ active squeezes
/// + available == total.
fn expect_conserved(
    seq: u64,
    held: &BTreeMap<u32, u64>,
    squeezes: &BTreeMap<u32, u64>,
    pool_available: u64,
    total: Option<u64>,
    violations: &mut Vec<String>,
) {
    let Some(total) = total else { return };
    let in_buffers: u64 = held.values().sum();
    let squeezed: u64 = squeezes.values().sum();
    if in_buffers + squeezed + pool_available != total {
        violations.push(format!(
            "pool conservation: seq {seq}: Σ capacities {in_buffers} + squeezed {squeezed} + available {pool_available} != total {total}"
        ));
    }
}

/// Invariant 3: per-core span ordering plus the wakeup/merge rule.
fn check_core_spans(events: &[Event], violations: &mut Vec<String>) {
    // core -> (last start, end of the open merged span).
    let mut cores: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let TraceEvent::CoreSpan {
            core,
            start_ns,
            end_ns,
            wakeup,
        } = &ev.kind
        else {
            continue;
        };
        let seq = ev.seq;
        if end_ns <= start_ns {
            violations.push(format!(
                "core {core}: seq {seq} empty or inverted span [{start_ns}, {end_ns})"
            ));
            continue;
        }
        match cores.get_mut(core) {
            None => {
                if !wakeup {
                    violations.push(format!(
                        "core {core}: seq {seq} first span did not count a wakeup"
                    ));
                }
                cores.insert(*core, (*start_ns, *end_ns));
            }
            Some((last_start, open_end)) => {
                if start_ns < last_start {
                    violations.push(format!(
                        "core {core}: seq {seq} span starts at {start_ns}, before previous start {last_start}"
                    ));
                }
                // Replay Core::add_active_span: a span at or before the
                // open end latches (no wakeup); a gap wakes the core.
                let expect_wakeup = *start_ns > *open_end;
                if *wakeup != expect_wakeup {
                    violations.push(format!(
                        "core {core}: seq {seq} wakeup flag {wakeup} but replay (open span ends {open_end}, next starts {start_ns}) expects {expect_wakeup}"
                    ));
                }
                *last_start = (*last_start).max(*start_ns);
                *open_end = if expect_wakeup {
                    *end_ns
                } else {
                    (*open_end).max(*end_ns)
                };
            }
        }
    }
}

/// Invariant 4: replay the reservation book of every core manager.
fn check_reservations(events: &[Event], violations: &mut Vec<String>) {
    // (core, consumer) -> reserved slot.
    let mut book: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for ev in events {
        let seq = ev.seq;
        match &ev.kind {
            TraceEvent::SlotReserve {
                core,
                consumer,
                slot,
                prev,
            } => {
                let replayed = book.insert((*core, *consumer), *slot);
                if replayed != *prev {
                    violations.push(format!(
                        "reservations: seq {seq} core {core} consumer {consumer} reports prev {prev:?}, replay says {replayed:?}"
                    ));
                }
            }
            TraceEvent::SlotRelease {
                core,
                consumer,
                slot,
            } => match book.remove(&(*core, *consumer)) {
                Some(held) if held == *slot => {}
                Some(held) => violations.push(format!(
                    "reservations: seq {seq} core {core} consumer {consumer} released slot {slot} but held {held}"
                )),
                None => violations.push(format!(
                    "reservations: seq {seq} core {core} consumer {consumer} released slot {slot} without a reservation"
                )),
            },
            TraceEvent::SlotDispatch {
                core,
                slot,
                consumers,
            } => {
                // A dispatch *consumes* the reservations it serves
                // (`take_due` clears the held map), so remove them from
                // the replay book as well.
                for consumer in consumers {
                    match book.remove(&(*core, *consumer)) {
                        Some(held) if held == *slot => {}
                        Some(held) => violations.push(format!(
                            "reservations: seq {seq} core {core} dispatched slot {slot} to consumer {consumer} who reserved {held}"
                        )),
                        None => violations.push(format!(
                            "reservations: seq {seq} core {core} dispatched slot {slot} to consumer {consumer} with no reservation"
                        )),
                    }
                }
            }
            _ => {}
        }
    }
}

/// Invariant 5: fault windows pair up. Injections carry fresh ids,
/// recoveries name an active id with the same kind, and nothing stays
/// open past the end of the trace (the sim recovers still-active faults
/// before teardown, so a dangling window means lost rollback).
fn check_faults(events: &[Event], violations: &mut Vec<String>) {
    // fault id -> kind of the active window.
    let mut active: BTreeMap<u32, String> = BTreeMap::new();
    for ev in events {
        let seq = ev.seq;
        match &ev.kind {
            TraceEvent::FaultInjected { id, kind, .. } => {
                if let Some(prev) = active.insert(*id, kind.clone()) {
                    violations.push(format!(
                        "faults: seq {seq} fault {id} ({kind}) injected while {prev} window with the same id is open"
                    ));
                }
            }
            TraceEvent::FaultRecovered { id, kind, .. } => match active.remove(id) {
                Some(injected) if injected == *kind => {}
                Some(injected) => violations.push(format!(
                    "faults: seq {seq} fault {id} recovered as {kind} but was injected as {injected}"
                )),
                None => violations.push(format!(
                    "faults: seq {seq} fault {id} ({kind}) recovered without an open window"
                )),
            },
            _ => {}
        }
    }
    for (id, kind) in &active {
        violations.push(format!(
            "faults: fault {id} ({kind}) still open at end of trace — rollback never ran"
        ));
    }
}

/// Invariant 6: overload windows pair up and ledger every shed. The
/// per-window check subsumes the per-pair sum: if every window's
/// `OverloadCleared.shed` matches the sheds replayed inside it, the
/// per-pair totals match too.
fn check_overload(events: &[Event], violations: &mut Vec<String>) {
    // pair -> sheds replayed inside the currently-open window.
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        let seq = ev.seq;
        match &ev.kind {
            TraceEvent::OverloadEntered { pair, .. } => {
                let already_open = open.insert(*pair, 0).is_some();
                if already_open {
                    violations.push(format!(
                        "overload: seq {seq} pair {pair} entered overload while its window is already open"
                    ));
                }
            }
            TraceEvent::ItemShed { pair } => match open.get_mut(pair) {
                Some(n) => *n += 1,
                None => violations.push(format!(
                    "overload: seq {seq} pair {pair} shed an item outside an overload window"
                )),
            },
            TraceEvent::OverloadCleared { pair, shed } => match open.remove(pair) {
                Some(n) if n == *shed => {}
                Some(n) => violations.push(format!(
                    "overload: seq {seq} pair {pair} cleared reporting {shed} sheds, replay counted {n}"
                )),
                None => violations.push(format!(
                    "overload: seq {seq} pair {pair} cleared without an open window"
                )),
            },
            _ => {}
        }
    }
    for (pair, n) in &open {
        violations.push(format!(
            "overload: pair {pair} window still open at end of trace ({n} sheds unledgered)"
        ));
    }
}

/// Per-cell metadata line of a JSONL trace export: identifies the suite
/// cell the following [`TraceLine::Ev`] lines belong to and pins its
/// digest so `trace_report` can detect tampering or drift.
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
/// built and no per-line `String` allocated.
pub fn write_cell(out: &mut impl io::Write, meta: &CellMeta, events: &[Event]) -> io::Result<()> {
    write_line(out, b"{\"Cell\":", meta)?;
    for ev in events {
        write_line(out, b"{\"Ev\":", ev)?;
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
