//! Mutation testing for the trace replayer: `replay` must (a) pass an
//! untampered recording for **every** fault scenario, and (b) pinpoint
//! the exact first-divergence position when a single event is flipped,
//! dropped, reordered or retimed anywhere in the stream. A replayer
//! that diffed digests only, compared prefixes sloppily, or resynced
//! after a mismatch would fail (b); one that re-ran with the wrong
//! fault plan or workload would fail (a).

use pc_bench::oracle::CellMeta;
use pc_bench::replay::{first_divergence, replay_cell, rerecord, CellReplay, CellTrace};
use pcpower::faults::FaultScenario;
use pcpower::trace_events::{Event, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The chaos point (M=5 on 2 cores, B₀=25) under degraded PBPL — the
/// strategy that exercises every event family (slots, pool, watchdog).
fn cell_meta(scenario: &FaultScenario, seed: u64) -> CellMeta {
    CellMeta {
        experiment: format!("mutation_{}", scenario.name()),
        strategy: "PBPL(degraded)".to_string(),
        pairs: 5,
        cores: 2,
        buffer: 25,
        seed,
        duration_ns: 60_000_000,
        workload: "worldcup_quick".to_string(),
        scenario: if *scenario == FaultScenario::Baseline {
            String::new()
        } else {
            scenario.name().to_string()
        },
        period_ns: 0,
        events: 0,
        dropped: 0,
        digest: 0,
    }
}

/// Recorded base streams, generated once per (scenario, seed).
fn base_stream(scenario_idx: usize, seed: u64) -> Vec<Event> {
    static CACHE: Mutex<BTreeMap<(usize, u64), Vec<Event>>> = Mutex::new(BTreeMap::new());
    let mut cache = CACHE.lock().unwrap();
    cache
        .entry((scenario_idx, seed))
        .or_insert_with(|| {
            let scenario = FaultScenario::all()[scenario_idx];
            rerecord(&cell_meta(&scenario, seed))
                .expect("base cell replays")
                .events
                .iter()
                .collect()
        })
        .clone()
}

fn cell_with_events(scenario_idx: usize, seed: u64, events: Vec<Event>) -> CellTrace {
    let scenario = FaultScenario::all()[scenario_idx];
    let mut meta = cell_meta(&scenario, seed);
    meta.events = events.len() as u64;
    meta.digest = pcpower::trace_events::digest(&events);
    CellTrace::new(meta, events.into_iter().collect())
}

#[test]
fn unmutated_streams_replay_clean_for_every_scenario_and_seed() {
    for (idx, scenario) in FaultScenario::all().iter().enumerate() {
        for seed in [1u64, 2] {
            let base = base_stream(idx, seed);
            assert!(
                base.len() > 50,
                "{}/{seed}: stream too small to be meaningful",
                scenario.name()
            );
            let cell = cell_with_events(idx, seed, base);
            for digest_only in [false, true] {
                match replay_cell(&cell, digest_only) {
                    CellReplay::Match { .. } => {}
                    CellReplay::Diverged { report, .. } => panic!(
                        "{}/{seed} (digest_only={digest_only}) diverged:\n{report}",
                        scenario.name()
                    ),
                    CellReplay::Unreplayable(e) => {
                        panic!("{}/{seed}: unreplayable: {e}", scenario.name())
                    }
                }
            }
        }
    }
}

/// The four single-event mutations.
fn mutate(events: &mut Vec<Event>, kind: usize, index: usize) {
    match kind {
        // Flip: replace the payload with a different variant.
        0 => {
            events[index].kind = match &events[index].kind {
                TraceEvent::Produce { pair } => TraceEvent::Wakeup { pair: *pair },
                _ => TraceEvent::Produce { pair: 999 },
            };
        }
        // Drop: remove the event entirely.
        1 => {
            events.remove(index);
        }
        // Reorder: swap with the next event.
        2 => events.swap(index, index + 1),
        // Retime: shift the event by one sim nanosecond.
        _ => events[index].t_ns += 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_single_event_mutation_is_pinpointed(
        scenario_idx in 0usize..8,
        seed in 1u64..3,
        kind in 0usize..4,
        pos in 0.05f64..0.95,
    ) {
        let base = base_stream(scenario_idx, seed);
        // Leave room for the reorder mutation's `index + 1`.
        let index = ((base.len() - 2) as f64 * pos) as usize;
        let mut mutated = base.clone();
        mutate(&mut mutated, kind, index);
        prop_assert_ne!(&mutated, &base, "mutation must change the stream");

        let cell = cell_with_events(scenario_idx, seed, mutated.clone());

        // Event-by-event replay names the exact first divergent index:
        // every mutation first differs at `index` (drop shifts the
        // suffix left onto it; reorder changes it in place).
        let regenerated: Vec<Event> = rerecord(&cell.meta).unwrap().events.iter().collect();
        let d = first_divergence(&mutated, &regenerated)
            .expect("mutated stream must diverge");
        prop_assert_eq!(d.index, index);
        // The reported seq is the recording's event at the divergent
        // position: the original seq for in-place mutations (flip,
        // retime), the shifted successor's for drop/reorder.
        prop_assert_eq!(d.seq(), mutated[index].seq);
        prop_assert_eq!(
            mutated[index].seq,
            match kind {
                1 | 2 => base[index + 1].seq,
                _ => base[index].seq,
            }
        );

        // And the CLI-facing verdict agrees in both modes.
        for digest_only in [false, true] {
            match replay_cell(&cell, digest_only) {
                CellReplay::Diverged { seq, report } => {
                    if !digest_only {
                        prop_assert_eq!(seq, d.seq());
                        prop_assert!(report.contains("first divergence"), "{}", report);
                    }
                }
                CellReplay::Match { .. } => {
                    prop_assert!(false, "mutation not detected (digest_only={digest_only})");
                }
                CellReplay::Unreplayable(e) => {
                    prop_assert!(false, "unreplayable: {e}");
                }
            }
        }
    }
}
