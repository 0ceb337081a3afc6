//! Differential test of the one-pass replay oracle against its
//! executable model: the original six-pass oracle, kept here verbatim
//! as the reference. One sweep over six ledgers must report exactly
//! what six separate sweeps report — the same event and drop counts and
//! the same violations in the same order — on the golden fixtures and
//! on seeded single-event mutations of them (drop, duplicate, swap,
//! retime, and a small perturbation of one numeric field).
//!
//! The mutations stay inside non-overflowing ranges: the reference sums
//! unchecked, which is exactly what the one-pass oracle's overflow rule
//! fixes (covered by its unit tests, not here).

use pc_bench::oracle::{self, OracleReport};
use pc_bench::replay::{fixture_defs, fixture_dir, parse_export_file};
use pcpower::trace_events::{Event, TraceEvent, TraceLog, TRACE_SCHEMA_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The retired six-pass oracle, one full sweep per invariant.
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct PairLedger {
        produced: u64,
        consumed: u64,
        shed: u64,
    }

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

        let events: Vec<Event> = log.events.iter().collect();
        check_items(&events, &mut violations);
        check_pool(&events, &mut violations);
        check_core_spans(&events, &mut violations);
        check_reservations(&events, &mut violations);
        check_faults(&events, &mut violations);
        check_overload(&events, &mut violations);

        OracleReport {
            events: log.events.len() as u64,
            dropped: log.dropped,
            violations,
        }
    }

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

    fn check_pool(events: &[Event], violations: &mut Vec<String>) {
        let mut held: BTreeMap<u32, u64> = BTreeMap::new();
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

    fn check_core_spans(events: &[Event], violations: &mut Vec<String>) {
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

    fn check_reservations(events: &[Event], violations: &mut Vec<String>) {
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

    fn check_faults(events: &[Event], violations: &mut Vec<String>) {
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

    fn check_overload(events: &[Event], violations: &mut Vec<String>) {
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
}

/// The four golden fixtures' event streams, parsed once.
fn fixtures() -> &'static [(&'static str, Vec<Event>)] {
    static FIXTURES: OnceLock<Vec<(&'static str, Vec<Event>)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        fixture_defs()
            .into_iter()
            .map(|(name, _)| {
                let path = fixture_dir().join(name).display().to_string();
                let mut cells = parse_export_file(&path).unwrap();
                (name, cells.remove(0).log.events.iter().collect())
            })
            .collect()
    })
}

/// Checks `events` with both oracles and returns the (shared) report.
fn agree(label: &str, events: Vec<Event>, dropped: u64) -> OracleReport {
    let log = TraceLog {
        schema_version: TRACE_SCHEMA_VERSION,
        events: events.into_iter().collect(),
        dropped,
    };
    let got = oracle::check(&log);
    let want = reference::check(&log);
    assert_eq!(got.events, want.events, "{label}: events");
    assert_eq!(got.dropped, want.dropped, "{label}: dropped");
    assert_eq!(got.violations, want.violations, "{label}: violations");
    got
}

/// A mutable view of one numeric payload field.
enum Num<'a> {
    U32(&'a mut u32),
    U64(&'a mut u64),
}

/// Every numeric payload field of `kind` (sentinels included).
fn numbers(kind: &mut TraceEvent) -> Vec<Num<'_>> {
    use Num::{U32, U64};
    match kind {
        TraceEvent::Produce { pair }
        | TraceEvent::Wakeup { pair }
        | TraceEvent::ItemShed { pair } => {
            vec![U32(pair)]
        }
        TraceEvent::Invoke {
            pair,
            batch,
            capacity,
            ..
        } => vec![U32(pair), U64(batch), U64(capacity)],
        TraceEvent::Flush { pair, drained } => vec![U32(pair), U64(drained)],
        TraceEvent::CoreSpan {
            core,
            start_ns,
            end_ns,
            ..
        } => vec![U32(core), U64(start_ns), U64(end_ns)],
        TraceEvent::SlotSelect {
            pair, core, slot, ..
        } => vec![U32(pair), U32(core), U64(slot)],
        TraceEvent::SlotReserve {
            core,
            consumer,
            slot,
            prev,
        } => {
            let mut v = vec![U32(core), U32(consumer), U64(slot)];
            if let Some(p) = prev {
                v.push(U64(p));
            }
            v
        }
        TraceEvent::SlotRelease {
            core,
            consumer,
            slot,
        } => vec![U32(core), U32(consumer), U64(slot)],
        TraceEvent::SlotDispatch {
            core,
            slot,
            consumers,
        } => {
            let mut v = vec![U32(core), U64(slot)];
            v.extend(consumers.iter_mut().map(U32));
            v
        }
        TraceEvent::BufferCreate {
            owner,
            capacity,
            pool_available,
            pool_total,
        } => vec![
            U32(owner),
            U64(capacity),
            U64(pool_available),
            U64(pool_total),
        ],
        TraceEvent::BufferGrow {
            owner,
            from,
            to,
            want,
            pool_available,
        } => vec![
            U32(owner),
            U64(from),
            U64(to),
            U64(want),
            U64(pool_available),
        ],
        TraceEvent::BufferShrink {
            owner,
            from,
            to,
            pool_available,
        } => vec![U32(owner), U64(from), U64(to), U64(pool_available)],
        TraceEvent::BufferDestroy {
            owner,
            released,
            pool_available,
        } => vec![U32(owner), U64(released), U64(pool_available)],
        TraceEvent::FaultInjected {
            id,
            pair,
            core,
            param,
            pool_available,
            ..
        }
        | TraceEvent::FaultRecovered {
            id,
            pair,
            core,
            param,
            pool_available,
            ..
        } => vec![
            U32(id),
            U32(pair),
            U32(core),
            U64(param),
            U64(pool_available),
        ],
        TraceEvent::OverloadEntered {
            pair, occupancy, ..
        } => vec![U32(pair), U64(occupancy)],
        TraceEvent::OverloadCleared { pair, shed } => vec![U32(pair), U64(shed)],
    }
}

/// Moves field `field` (modulo the field count) of `kind` by `delta`,
/// down when `down` and the value allows it, else up; a value at its
/// type's maximum moves down. Small deltas keep every sum far from
/// overflow.
fn perturb(kind: &mut TraceEvent, field: usize, delta: u64, down: bool) {
    let mut fields = numbers(kind);
    let n = fields.len();
    match &mut fields[field % n] {
        Num::U32(v) => {
            let d = delta as u32;
            **v = match (down, v.checked_add(d)) {
                (false, Some(up)) => up,
                _ if **v >= d => **v - d,
                _ => **v + d,
            };
        }
        Num::U64(v) => {
            **v = match (down, v.checked_add(delta)) {
                (false, Some(up)) => up,
                _ if **v >= delta => **v - delta,
                _ => **v + delta,
            };
        }
    }
}

/// The five single-event mutations; `index + 1` must be in range.
fn mutate(events: &mut Vec<Event>, kind: usize, index: usize, field: usize, delta: u64) {
    match kind {
        // Drop.
        0 => {
            events.remove(index);
        }
        // Duplicate.
        1 => {
            let ev = events[index].clone();
            events.insert(index + 1, ev);
        }
        // Swap with the next event.
        2 => events.swap(index, index + 1),
        // Retime by `delta` sim nanoseconds.
        3 => events[index].t_ns += delta,
        // Perturb one numeric payload field.
        _ => perturb(&mut events[index].kind, field, delta, field % 2 == 1),
    }
}

#[test]
fn golden_fixtures_agree_and_are_clean() {
    for (name, events) in fixtures() {
        let report = agree(name, events.clone(), 0);
        assert!(report.is_clean(), "{name}: {:?}", report.violations);
        assert!(report.events > 1000, "{name}: fixture too small");
        // A truncated recording reports the drop first, then the rest.
        agree(name, events.clone(), 3);
    }
}

/// Every mutation kind at a fixed grid of positions in every fixture,
/// plus a swap with its successor and a perturbation of each numeric
/// field of the first occurrence of every event variant — the rare
/// `Buffer*`, `Slot*`, `Fault*` and `Overload*` events included, which
/// a positional grid over a stream that is mostly `Produce` would
/// rarely hit.
#[test]
fn seeded_mutations_agree() {
    let mut violating = [0usize; 5];
    for (name, base) in fixtures() {
        for (kind, violated) in violating.iter_mut().enumerate() {
            for step in 1..16 {
                let index = (base.len() - 2) * step / 16;
                let mut events = base.clone();
                mutate(&mut events, kind, index, step, 1 + step as u64 % 3);
                let label = format!("{name} mutation {kind} at {index}");
                if !agree(&label, events, 0).is_clean() {
                    *violated += 1;
                }
            }
        }
        let mut seen = Vec::new();
        for (index, ev) in base.iter().enumerate() {
            let variant = std::mem::discriminant(&ev.kind);
            if seen.contains(&variant) {
                continue;
            }
            seen.push(variant);
            if index + 1 < base.len() {
                let mut events = base.clone();
                events.swap(index, index + 1);
                let label = format!("{name} swap of {:?}", ev.kind);
                if !agree(&label, events, 0).is_clean() {
                    violating[2] += 1;
                }
            }
            let fields = numbers(&mut ev.kind.clone()).len();
            for field in 0..fields {
                for down in [false, true] {
                    let mut events = base.clone();
                    perturb(&mut events[index].kind, field, 1, down);
                    let label = format!("{name} field {field} of {:?} (down={down})", ev.kind);
                    if !agree(&label, events, 0).is_clean() {
                        violating[4] += 1;
                    }
                }
            }
        }
    }
    // The oracle never reads `t_ns`, so retiming stays clean; the other
    // mutations must actually exercise the violation paths.
    assert_eq!(violating[3], 0, "retiming is invisible to the oracle");
    for (kind, n) in violating.iter().enumerate() {
        assert!(kind == 3 || *n > 0, "mutation {kind} never violated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_mutations_agree(
        fixture in 0usize..4,
        kind in 0usize..5,
        pos in 0.0f64..1.0,
        field in 0usize..8,
        delta in 1u64..4,
        dropped in 0u64..2,
    ) {
        let (name, base) = &fixtures()[fixture];
        let index = ((base.len() - 2) as f64 * pos) as usize;
        let mut events = base.clone();
        mutate(&mut events, kind, index, field, delta);
        agree(&format!("{name} mutation {kind} at {index}"), events, dropped);
    }
}
