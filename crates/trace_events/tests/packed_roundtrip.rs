//! Round trip of the packed event stream: whatever events go into a
//! `PackedEvents` come back out of `iter()` unchanged and in order, and
//! equal streams pack to equal bytes. The streams reach every variant
//! and the encoding's edge cases: 0, `u32::MAX` and `u64::MAX` fields,
//! LEB128 byte boundaries, `seq` gaps and jumps back, `t_ns` going
//! backwards, a `CoreSpan` ending before it starts, and empty and long
//! fault kinds and `consumers` lists.

use pc_trace_events::{Event, PackedEvents, TraceEvent, Trigger};
use proptest::prelude::*;

/// Number of `TraceEvent` variants.
const VARIANTS: u64 = 18;

/// splitmix64 from a drawn seed, biased towards edge values. With
/// `fill` set, every integer field takes that value (truncated for
/// `u32`) and every bool `fill != 0`.
struct Draw {
    state: u64,
    fill: Option<u64>,
}

impl Draw {
    fn seeded(state: u64) -> Draw {
        Draw { state, fill: None }
    }

    fn filled(fill: u64) -> Draw {
        Draw {
            state: 0,
            fill: Some(fill),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.state ^ (self.state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn u64(&mut self) -> u64 {
        if let Some(fill) = self.fill {
            return fill;
        }
        match self.below(7) {
            0 => 0,
            1 => u64::from(u32::MAX),
            2 => u64::MAX,
            // 127 and 128 straddle the one-byte LEB128 boundary.
            3 => 127 + self.below(2),
            4 => 1 << self.below(64),
            5 => self.below(1000),
            _ => self.next(),
        }
    }

    fn u32(&mut self) -> u32 {
        if let Some(fill) = self.fill {
            return fill as u32;
        }
        match self.below(5) {
            0 => 0,
            1 => u32::MAX,
            2 => 1 << self.below(32),
            3 => self.below(200) as u32,
            _ => self.next() as u32,
        }
    }

    fn bool(&mut self) -> bool {
        match self.fill {
            Some(fill) => fill != 0,
            None => self.next() & 1 == 1,
        }
    }

    fn trigger(&mut self) -> Trigger {
        [Trigger::Scheduled, Trigger::Overflow, Trigger::Item][self.below(3) as usize]
    }

    fn text(&mut self) -> String {
        match self.below(4) {
            0 => String::new(),
            1 => "pool_squeeze".to_string(),
            // Multi-byte UTF-8: the length prefix counts bytes.
            2 => "ä→".repeat(self.below(40) as usize),
            _ => "k".repeat(self.below(5000) as usize),
        }
    }

    fn ids(&mut self) -> Vec<u32> {
        let n = match self.below(3) {
            0 => 0,
            1 => self.below(8),
            _ => self.below(3000),
        };
        (0..n).map(|_| self.u32()).collect()
    }

    fn kind(&mut self, variant: u64) -> TraceEvent {
        match variant {
            0 => TraceEvent::Produce { pair: self.u32() },
            1 => TraceEvent::Invoke {
                pair: self.u32(),
                trigger: self.trigger(),
                batch: self.u64(),
                capacity: self.u64(),
            },
            2 => TraceEvent::Flush {
                pair: self.u32(),
                drained: self.u64(),
            },
            3 => TraceEvent::Wakeup { pair: self.u32() },
            4 => TraceEvent::CoreSpan {
                core: self.u32(),
                start_ns: self.u64(),
                end_ns: self.u64(),
                wakeup: self.bool(),
            },
            5 => TraceEvent::SlotSelect {
                pair: self.u32(),
                core: self.u32(),
                slot: self.u64(),
                latched: self.bool(),
                rate_overrun: self.bool(),
            },
            6 => TraceEvent::SlotReserve {
                core: self.u32(),
                consumer: self.u32(),
                slot: self.u64(),
                prev: self.bool().then(|| self.u64()),
            },
            7 => TraceEvent::SlotRelease {
                core: self.u32(),
                consumer: self.u32(),
                slot: self.u64(),
            },
            8 => TraceEvent::SlotDispatch {
                core: self.u32(),
                slot: self.u64(),
                consumers: self.ids(),
            },
            9 => TraceEvent::BufferCreate {
                owner: self.u32(),
                capacity: self.u64(),
                pool_available: self.u64(),
                pool_total: self.u64(),
            },
            10 => TraceEvent::BufferGrow {
                owner: self.u32(),
                from: self.u64(),
                to: self.u64(),
                want: self.u64(),
                pool_available: self.u64(),
            },
            11 => TraceEvent::BufferShrink {
                owner: self.u32(),
                from: self.u64(),
                to: self.u64(),
                pool_available: self.u64(),
            },
            12 => TraceEvent::BufferDestroy {
                owner: self.u32(),
                released: self.u64(),
                pool_available: self.u64(),
            },
            13 => TraceEvent::FaultInjected {
                id: self.u32(),
                kind: self.text(),
                pair: self.u32(),
                core: self.u32(),
                param: self.u64(),
                pool_available: self.u64(),
            },
            14 => TraceEvent::ItemShed { pair: self.u32() },
            15 => TraceEvent::OverloadEntered {
                pair: self.u32(),
                occupancy: self.u64(),
                escalated: self.bool(),
            },
            16 => TraceEvent::OverloadCleared {
                pair: self.u32(),
                shed: self.u64(),
            },
            _ => TraceEvent::FaultRecovered {
                id: self.u32(),
                kind: self.text(),
                pair: self.u32(),
                core: self.u32(),
                param: self.u64(),
                pool_available: self.u64(),
            },
        }
    }
}

/// `len` events from `seed`: the first `VARIANTS` walk every variant in
/// order, the rest pick one at random. `seq` is mostly dense with
/// occasional gaps and arbitrary jumps (backwards too); `t_ns` mostly
/// advances but also steps back and jumps anywhere.
fn stream(seed: u64, len: usize) -> Vec<Event> {
    let mut d = Draw::seeded(seed);
    let (mut seq, mut t_ns) = (0u64, 0u64);
    (0..len as u64)
        .map(|i| {
            seq = match d.below(8) {
                0 => d.u64(),
                1 => seq.wrapping_add(d.below(1000)),
                _ => seq,
            };
            t_ns = match d.below(4) {
                0 => d.u64(),
                1 => t_ns.wrapping_sub(d.below(5000)),
                _ => t_ns.wrapping_add(d.below(1_000_000)),
            };
            let variant = if i < VARIANTS { i } else { d.below(VARIANTS) };
            let event = Event {
                seq,
                t_ns,
                kind: d.kind(variant),
            };
            seq = seq.wrapping_add(1);
            event
        })
        .collect()
}

fn pack(events: &[Event]) -> PackedEvents {
    events.iter().cloned().collect()
}

/// `events` comes back out unchanged, and `twin`, an equal stream
/// built separately, packs to the same bytes.
fn assert_round_trip(events: &[Event], twin: &[Event]) {
    let packed = pack(events);
    assert_eq!(packed.len(), events.len());
    assert_eq!(packed.is_empty(), events.is_empty());
    assert_eq!(packed.iter().len(), events.len());
    assert_eq!(packed.iter().collect::<Vec<_>>(), events);
    let again = pack(twin);
    assert_eq!(again.as_bytes(), packed.as_bytes());
    assert_eq!(again, packed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_streams_round_trip(seed in 0u64..u64::MAX, len in 0usize..400) {
        let events = stream(seed, len);
        assert_round_trip(&events, &stream(seed, len));
        // A one-field change anywhere changes the bytes.
        if !events.is_empty() {
            let mut changed = events.clone();
            let i = (seed % events.len() as u64) as usize;
            changed[i].t_ns = changed[i].t_ns.wrapping_add(1);
            prop_assert_ne!(pack(&changed).as_bytes(), pack(&events).as_bytes());
        }
    }
}

#[test]
fn every_variant_at_its_extremes_round_trips() {
    assert_round_trip(&extremes(), &extremes());
    assert_round_trip(&[], &[]);
}

/// Every variant with all fields 0 and with all at their maximum, then
/// the hand-picked edge cases.
fn extremes() -> Vec<Event> {
    let mut events = Vec::new();
    for fill in [0, u64::MAX] {
        let mut d = Draw::filled(fill);
        for variant in 0..VARIANTS {
            events.push(Event {
                seq: fill,
                t_ns: fill,
                kind: d.kind(variant),
            });
        }
    }
    // A span that ends before it starts, time running backwards, a gap
    // in `seq`, and an empty and a long fault kind and consumer list.
    events.push(Event {
        seq: 40,
        t_ns: 5,
        kind: TraceEvent::CoreSpan {
            core: u32::MAX,
            start_ns: u64::MAX,
            end_ns: 0,
            wakeup: true,
        },
    });
    for (kind, consumers) in [
        (String::new(), Vec::new()),
        ("z".repeat(70_000), (0..70_000).collect()),
    ] {
        events.push(Event {
            seq: 41,
            t_ns: 4,
            kind: TraceEvent::SlotDispatch {
                core: 0,
                slot: 0,
                consumers,
            },
        });
        events.push(Event {
            seq: 2,
            t_ns: u64::MAX,
            kind: TraceEvent::FaultRecovered {
                id: u32::MAX,
                kind,
                pair: 0,
                core: u32::MAX,
                param: u64::MAX,
                pool_available: 0,
            },
        });
    }
    events
}

#[test]
fn a_dense_recording_spends_one_byte_on_seq() {
    // Produce at t = 0, 1, 2, …: seq delta 0, time delta 1, tag, pair.
    let events: Vec<Event> = (0..100)
        .map(|i| Event {
            seq: i,
            t_ns: i,
            kind: TraceEvent::Produce { pair: 7 },
        })
        .collect();
    let packed = pack(&events);
    assert_eq!(packed.as_bytes().len(), 4 * 100);
    assert_eq!(&packed.as_bytes()[4..8], &[0, 2, 0, 7]);
}
