//! The streaming JSON writer against its reference implementation: the
//! `Value` tree.
//!
//! Every serialiser in the serde shims streams through one writer, and
//! the derived `to_value` tree survives only for callers that want a
//! `Value`. Printing that tree is therefore an independent path to the
//! same bytes: for every trace-event variant, the export line types and
//! a pretty result row, streaming the typed value must print exactly
//! what printing its tree prints — including the edge values the
//! formatter special-cases (`u64::MAX`, `null`, empty arrays, escaped
//! strings, non-finite and signed-zero floats). The trace digest is held
//! to FNV-1a over the tree's bytes.

use pc_bench::exp::Row;
use pc_bench::oracle::{self, CellMeta, TraceLine};
use pcpower::stats::Summary;
use pcpower::trace_events::{digest, Event, TraceEvent, Trigger};
use proptest::prelude::*;
use serde::Serialize;

/// Asserts streaming `x` prints the bytes its `Value` tree prints, in
/// both compact and pretty form; returns the compact text.
fn assert_streams_like_tree<T: Serialize>(x: &T) -> String {
    let tree = x.to_value();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, serde_json::to_string(&tree).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    let mut streamed = Vec::new();
    serde_json::to_writer(&mut streamed, x).unwrap();
    assert_eq!(streamed, compact.as_bytes());
    compact
}

const NASTY_KIND: &str = "say \"hi\"\nback\\slash\ttab\u{1}\u{1f}é";

/// Every `TraceEvent` variant, with the edge values of each field kind.
fn every_variant() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Produce { pair: u32::MAX },
        TraceEvent::Invoke {
            pair: 0,
            trigger: Trigger::Scheduled,
            batch: u64::MAX,
            capacity: 0,
        },
        TraceEvent::Invoke {
            pair: 1,
            trigger: Trigger::Overflow,
            batch: 25,
            capacity: 50,
        },
        TraceEvent::Invoke {
            pair: 2,
            trigger: Trigger::Item,
            batch: 1,
            capacity: 9,
        },
        TraceEvent::Flush {
            pair: 3,
            drained: 100,
        },
        TraceEvent::Wakeup { pair: 4 },
        TraceEvent::CoreSpan {
            core: 1,
            start_ns: 0,
            end_ns: u64::MAX,
            wakeup: true,
        },
        TraceEvent::SlotSelect {
            pair: 0,
            core: 0,
            slot: 41,
            latched: false,
            rate_overrun: true,
        },
        TraceEvent::SlotReserve {
            core: 0,
            consumer: 4,
            slot: 9,
            prev: None,
        },
        TraceEvent::SlotReserve {
            core: 0,
            consumer: 4,
            slot: 9,
            prev: Some(u64::MAX),
        },
        TraceEvent::SlotRelease {
            core: 1,
            consumer: 0,
            slot: 3,
        },
        TraceEvent::SlotDispatch {
            core: 0,
            slot: 12,
            consumers: Vec::new(),
        },
        TraceEvent::SlotDispatch {
            core: 0,
            slot: 12,
            consumers: vec![0, 2, u32::MAX],
        },
        TraceEvent::BufferCreate {
            owner: 0,
            capacity: 25,
            pool_available: 25,
            pool_total: 50,
        },
        TraceEvent::BufferGrow {
            owner: 1,
            from: 25,
            to: 30,
            want: 40,
            pool_available: 0,
        },
        TraceEvent::BufferShrink {
            owner: 1,
            from: 30,
            to: 10,
            pool_available: 20,
        },
        TraceEvent::BufferDestroy {
            owner: 1,
            released: 10,
            pool_available: 50,
        },
        TraceEvent::FaultInjected {
            id: 0,
            kind: NASTY_KIND.to_string(),
            pair: u32::MAX,
            core: u32::MAX,
            param: 35,
            pool_available: u64::MAX,
        },
        TraceEvent::FaultRecovered {
            id: 0,
            kind: String::new(),
            pair: 3,
            core: 1,
            param: 4,
            pool_available: 15,
        },
        TraceEvent::ItemShed { pair: 3 },
        TraceEvent::OverloadEntered {
            pair: 3,
            occupancy: 47,
            escalated: false,
        },
        TraceEvent::OverloadCleared { pair: 3, shed: 12 },
    ]
}

#[test]
fn every_trace_event_variant_streams_its_tree_bytes() {
    for (i, kind) in every_variant().into_iter().enumerate() {
        assert_streams_like_tree(&kind);
        let ev = Event {
            seq: u64::MAX - i as u64,
            t_ns: i as u64,
            kind,
        };
        let line = assert_streams_like_tree(&ev);
        assert_eq!(pcpower::trace_events::event_to_json(&ev), line);
        assert_streams_like_tree(&TraceLine::Ev(ev));
    }
    for trigger in [Trigger::Scheduled, Trigger::Overflow, Trigger::Item] {
        assert_streams_like_tree(&trigger);
    }
}

#[test]
fn escapes_and_edges_print_as_json_expects() {
    let ev = Event {
        seq: u64::MAX,
        t_ns: 0,
        kind: TraceEvent::FaultInjected {
            id: 7,
            kind: NASTY_KIND.to_string(),
            pair: 1,
            core: 2,
            param: 3,
            pool_available: 4,
        },
    };
    assert_eq!(
        serde_json::to_string(&ev).unwrap(),
        "{\"seq\":18446744073709551615,\"t_ns\":0,\"kind\":{\"FaultInjected\":{\"id\":7,\
         \"kind\":\"say \\\"hi\\\"\\nback\\\\slash\\ttab\\u0001\\u001fé\",\
         \"pair\":1,\"core\":2,\"param\":3,\"pool_available\":4}}}"
    );
    let dispatch = TraceEvent::SlotDispatch {
        core: 0,
        slot: 1,
        consumers: Vec::new(),
    };
    assert_eq!(
        serde_json::to_string_pretty(&dispatch).unwrap(),
        "{\n  \"SlotDispatch\": {\n    \"core\": 0,\n    \"slot\": 1,\n    \"consumers\": []\n  }\n}"
    );
}

fn cell_meta() -> CellMeta {
    CellMeta {
        experiment: "chaos_\"quoted\"\nname".into(),
        strategy: "PBPL(degraded)".into(),
        pairs: 5,
        cores: 2,
        buffer: 25,
        seed: u64::MAX,
        duration_ns: 60_000_000,
        workload: "worldcup_quick".into(),
        scenario: String::new(),
        period_ns: 0,
        events: 2,
        dropped: 0,
        digest: 0xdead_beef_dead_beef,
    }
}

#[test]
fn cell_header_line_streams_its_tree_bytes() {
    let meta = cell_meta();
    assert_streams_like_tree(&meta);
    assert_streams_like_tree(&TraceLine::Cell(meta));
}

#[test]
fn write_cell_emits_one_tree_line_per_header_and_event() {
    let meta = cell_meta();
    let events: Vec<Event> = every_variant()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: i as u64,
            t_ns: 10 * i as u64,
            kind,
        })
        .collect();
    let mut out = Vec::new();
    oracle::write_cell(&mut out, &meta, &events).unwrap();
    let mut expected = serde_json::to_string(&TraceLine::Cell(meta).to_value()).unwrap() + "\n";
    for ev in events {
        expected += &serde_json::to_string(&TraceLine::Ev(ev).to_value()).unwrap();
        expected.push('\n');
    }
    assert_eq!(String::from_utf8(out).unwrap(), expected);
}

#[test]
fn pretty_result_row_with_special_floats_streams_its_tree_bytes() {
    let samples = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.0, 0.1];
    let summary = Summary::of("power_mw", &samples);
    let row = Row {
        name: "PBPL".into(),
        power_mw: summary.clone(),
        wakeups_per_sec: Summary::of("wakeups_per_sec", &[3.0, 1e300, 5e-324]),
        usage_ms_per_sec: summary.clone(),
        scheduled: summary.clone(),
        overflows: summary.clone(),
        mean_capacity: summary.clone(),
        latency_us: summary.clone(),
        latency_p99_us: summary.clone(),
        items: Summary::of("items", &[42.0]),
    };
    assert_streams_like_tree(&row);
    let pretty = serde_json::to_string_pretty(&row).unwrap();
    assert!(pretty.contains(
        "\"samples\": [\n      null,\n      null,\n      null,\n      -0.0,\n      2.0,\n      0.1\n    ]"
    ));
    assert!(pretty.contains("1e300"), "{pretty}");
    assert!(pretty.contains("5e-324"), "{pretty}");
}

/// FNV-1a (64-bit), the digest's hash, written out independently.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// Every variant with `n` (truncated for `u32` fields) in every numeric
/// field and `b` in every bool; `pick` (0..3) chooses the trigger, the
/// `kind` string, the `consumers` list and whether `prev` is `Some`.
fn every_variant_at(n: u64, b: bool, pick: usize) -> Vec<TraceEvent> {
    let u = n as u32;
    let kind = || ["", "pool_squeeze", NASTY_KIND][pick].to_string();
    vec![
        TraceEvent::Produce { pair: u },
        TraceEvent::Invoke {
            pair: u,
            trigger: [Trigger::Scheduled, Trigger::Overflow, Trigger::Item][pick],
            batch: n,
            capacity: n,
        },
        TraceEvent::Flush {
            pair: u,
            drained: n,
        },
        TraceEvent::Wakeup { pair: u },
        TraceEvent::CoreSpan {
            core: u,
            start_ns: n,
            end_ns: n,
            wakeup: b,
        },
        TraceEvent::SlotSelect {
            pair: u,
            core: u,
            slot: n,
            latched: b,
            rate_overrun: !b,
        },
        TraceEvent::SlotReserve {
            core: u,
            consumer: u,
            slot: n,
            prev: (pick != 0).then_some(n),
        },
        TraceEvent::SlotRelease {
            core: u,
            consumer: u,
            slot: n,
        },
        TraceEvent::SlotDispatch {
            core: u,
            slot: n,
            consumers: [vec![], vec![u], vec![0, u, 7, u]][pick].clone(),
        },
        TraceEvent::BufferCreate {
            owner: u,
            capacity: n,
            pool_available: n,
            pool_total: n,
        },
        TraceEvent::BufferGrow {
            owner: u,
            from: n,
            to: n,
            want: n,
            pool_available: n,
        },
        TraceEvent::BufferShrink {
            owner: u,
            from: n,
            to: n,
            pool_available: n,
        },
        TraceEvent::BufferDestroy {
            owner: u,
            released: n,
            pool_available: n,
        },
        TraceEvent::FaultInjected {
            id: u,
            kind: kind(),
            pair: u,
            core: u,
            param: n,
            pool_available: n,
        },
        TraceEvent::ItemShed { pair: u },
        TraceEvent::OverloadEntered {
            pair: u,
            occupancy: n,
            escalated: b,
        },
        TraceEvent::OverloadCleared { pair: u, shed: n },
        TraceEvent::FaultRecovered {
            id: u,
            kind: kind(),
            pair: u,
            core: u,
            param: n,
            pool_available: n,
        },
    ]
}

#[test]
fn digest_of_every_variant_at_the_edges_is_fnv1a_of_its_line() {
    let line = |ev: &Event| serde_json::to_string(ev).unwrap() + "\n";
    let prefix = Event {
        seq: 0,
        t_ns: 0,
        kind: TraceEvent::FaultInjected {
            id: 1,
            kind: NASTY_KIND.to_string(),
            pair: 2,
            core: 3,
            param: 4,
            pool_available: 5,
        },
    };
    let mut checked = 0;
    for n in [0, u64::from(u32::MAX), u64::MAX] {
        for b in [false, true] {
            for pick in 0..3 {
                let kinds = every_variant_at(n, b, pick);
                assert_eq!(kinds.len(), 18, "one event per TraceEvent variant");
                for kind in kinds {
                    let ev = Event {
                        seq: n,
                        t_ns: n,
                        kind,
                    };
                    assert_eq!(
                        digest(std::slice::from_ref(&ev)),
                        fnv1a(line(&ev).as_bytes()),
                        "alone: {ev:?}"
                    );
                    let both = [prefix.clone(), ev];
                    assert_eq!(
                        digest(&both),
                        fnv1a((line(&both[0]) + &line(&both[1])).as_bytes()),
                        "after a prefix: {:?}",
                        both[1]
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 3 * 18);
}

/// A wide `u64`: small, large, or one of the extremes.
fn wide() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, 0u64..u64::MAX, Just(u64::MAX), Just(0u64)]
}

/// An arbitrary event of any variant, drawn from a selector and raw words.
fn arbitrary_event() -> impl Strategy<Value = Event> {
    let words = prop::collection::vec(wide(), 8..9);
    let kinds = prop_oneof![
        Just(String::new()),
        Just("pool_squeeze".to_string()),
        Just(NASTY_KIND.to_string())
    ];
    let consumers = prop::collection::vec(0u32..64, 0..6);
    (0usize..19, words, kinds, consumers).prop_map(|(variant, w, kind, consumers)| {
        let u = |i: usize| w[i] as u32;
        let b = |i: usize| w[i] & 1 == 1;
        let kind = match variant {
            0 => TraceEvent::Produce { pair: u(2) },
            1 => TraceEvent::Invoke {
                pair: u(2),
                trigger: [Trigger::Scheduled, Trigger::Overflow, Trigger::Item]
                    [(w[3] % 3) as usize],
                batch: w[4],
                capacity: w[5],
            },
            2 => TraceEvent::Flush {
                pair: u(2),
                drained: w[3],
            },
            3 => TraceEvent::Wakeup { pair: u(2) },
            4 => TraceEvent::CoreSpan {
                core: u(2),
                start_ns: w[3],
                end_ns: w[4],
                wakeup: b(5),
            },
            5 => TraceEvent::SlotSelect {
                pair: u(2),
                core: u(3),
                slot: w[4],
                latched: b(5),
                rate_overrun: b(6),
            },
            6 => TraceEvent::SlotReserve {
                core: u(2),
                consumer: u(3),
                slot: w[4],
                prev: b(5).then_some(w[6]),
            },
            7 => TraceEvent::SlotRelease {
                core: u(2),
                consumer: u(3),
                slot: w[4],
            },
            8 => TraceEvent::SlotDispatch {
                core: u(2),
                slot: w[3],
                consumers,
            },
            9 => TraceEvent::BufferCreate {
                owner: u(2),
                capacity: w[3],
                pool_available: w[4],
                pool_total: w[5],
            },
            10 => TraceEvent::BufferGrow {
                owner: u(2),
                from: w[3],
                to: w[4],
                want: w[5],
                pool_available: w[6],
            },
            11 => TraceEvent::BufferShrink {
                owner: u(2),
                from: w[3],
                to: w[4],
                pool_available: w[5],
            },
            12 => TraceEvent::BufferDestroy {
                owner: u(2),
                released: w[3],
                pool_available: w[4],
            },
            13 => TraceEvent::FaultInjected {
                id: u(2),
                kind,
                pair: u(3),
                core: u(4),
                param: w[5],
                pool_available: w[6],
            },
            14 => TraceEvent::FaultRecovered {
                id: u(2),
                kind,
                pair: u(3),
                core: u(4),
                param: w[5],
                pool_available: w[6],
            },
            15 => TraceEvent::ItemShed { pair: u(2) },
            16 => TraceEvent::OverloadEntered {
                pair: u(2),
                occupancy: w[3],
                escalated: b(4),
            },
            17 => TraceEvent::OverloadCleared {
                pair: u(2),
                shed: w[3],
            },
            _ => TraceEvent::Wakeup { pair: u(7) },
        };
        Event {
            seq: w[0],
            t_ns: w[1],
            kind,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn digest_hashes_each_events_tree_json_and_a_newline(
        events in prop::collection::vec(arbitrary_event(), 0..40),
    ) {
        let mut reference = Vec::new();
        for ev in &events {
            reference.extend_from_slice(serde_json::to_string(&ev.to_value()).unwrap().as_bytes());
            reference.push(b'\n');
        }
        prop_assert_eq!(digest(&events), fnv1a(&reference));
        for ev in &events {
            assert_streams_like_tree(ev);
        }
    }
}
