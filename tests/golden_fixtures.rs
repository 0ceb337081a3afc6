//! Golden replay fixtures (DESIGN.md §12): one canonical recorded cell
//! from each sweep family (suite, chaos, scale, overload) is checked in
//! under `tests/fixtures/`, and this test pins all three ways it can
//! rot:
//!
//! * **byte identity** — re-rendering the fixture from its prototype
//!   (`replay::render_fixture`, the same path `replay --regen-fixtures`
//!   takes) must reproduce the checked-in file byte-for-byte. Any
//!   behaviour change in the simulator, the recorder, the exporters or
//!   the JSON layer shows up here first, as a diff against a file a
//!   human can read.
//! * **replayability** — the checked-in recording must replay clean
//!   through `replay_cell`, in both event-by-event and digest-only
//!   modes.
//! * **oracle cleanliness** — the recorded stream must still satisfy
//!   the full replay oracle.
//!
//! Regeneration (after a *deliberate* behaviour change):
//! `cargo run --release -p pc-bench --bin replay -- --regen-fixtures`,
//! then review the diff and update EXPERIMENTS.md if a deviation moved.

use pc_bench::oracle;
use pc_bench::replay::{
    fixture_defs, fixture_dir, parse_export, render_fixture, replay_cell, CellReplay,
};
use std::io::BufRead;

#[test]
fn fixtures_regenerate_byte_identically() {
    for (name, proto) in fixture_defs() {
        let path = fixture_dir().join(name);
        let checked_in = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let rendered = render_fixture(&proto).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            rendered, checked_in,
            "{name}: regenerated bytes differ from the checked-in fixture — \
             simulator behaviour changed; if deliberate, re-run \
             `replay --regen-fixtures` and review the diff"
        );
    }
}

/// Parsing packs every event line; re-exporting decodes them one at a
/// time. The round trip must give back the checked-in bytes exactly.
#[test]
fn fixtures_survive_packing_byte_identically() {
    for (name, _) in fixture_defs() {
        let path = fixture_dir().join(name);
        let checked_in =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let cells = parse_export(checked_in.as_slice()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut exported = Vec::new();
        for cell in &cells {
            oracle::write_cell(&mut exported, &cell.meta, &cell.log.events).unwrap();
        }
        assert!(
            exported == checked_in,
            "{name}: re-exported packed stream differs from the fixture"
        );
    }
}

#[test]
fn fixtures_replay_clean_and_satisfy_the_oracle() {
    for (name, _) in fixture_defs() {
        let path = fixture_dir().join(name);
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        let cells =
            parse_export(std::io::BufReader::new(file)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cells.len(), 1, "{name}: exactly one cell per fixture");
        let cell = &cells[0];
        assert_eq!(cell.log.events.len() as u64, cell.meta.events, "{name}");
        assert_eq!(
            cell.log.digest(),
            cell.meta.digest,
            "{name}: header digest must match the recorded stream"
        );
        let decoded: Vec<_> = cell.log.events.iter().collect();
        assert_eq!(
            pcpower::trace_events::digest(&decoded),
            cell.meta.digest,
            "{name}: the slice digest must equal the packed one"
        );
        let report = oracle::check(&cell.log);
        assert!(
            report.violations.is_empty(),
            "{name}: oracle violations: {:?}",
            report.violations
        );
        for digest_only in [false, true] {
            match replay_cell(cell, digest_only) {
                CellReplay::Match { events } => {
                    assert_eq!(events, cell.meta.events, "{name}")
                }
                CellReplay::Diverged { report, .. } => {
                    panic!("{name} (digest_only={digest_only}) diverged:\n{report}")
                }
                CellReplay::Unreplayable(e) => panic!("{name}: unreplayable: {e}"),
            }
        }
    }
}

#[test]
fn fixtures_cover_every_sweep_family() {
    let defs = fixture_defs();
    assert_eq!(defs.len(), 4);
    let experiments: Vec<&str> = defs.iter().map(|(_, p)| p.experiment.as_str()).collect();
    assert!(experiments.iter().any(|e| e.starts_with("fig09")));
    assert!(experiments.iter().any(|e| e.starts_with("chaos_")));
    assert!(experiments.iter().any(|e| e.starts_with("scale_")));
    assert!(experiments.iter().any(|e| e.starts_with("overload_")));
    // A chaos fixture must actually carry faults, the scale fixture the
    // planet fleet, and the overload fixture a correlated scenario with
    // the overload-control label (it must actually shed — pinned below).
    let chaos = defs.iter().find(|(n, _)| n.contains("chaos")).unwrap();
    assert_eq!(chaos.1.scenario, "rate_shock");
    let scale = defs.iter().find(|(n, _)| n.contains("scale")).unwrap();
    assert_eq!(scale.1.workload, "planet_quick");
    let overload = defs.iter().find(|(n, _)| n.contains("overload")).unwrap();
    assert_eq!(overload.1.scenario, "flash_crowd");
    assert!(overload.1.strategy.ends_with("(overload)"));
    // And every fixture line must parse standalone (no trailing junk).
    for (name, _) in &defs {
        let path = fixture_dir().join(name);
        let file = std::fs::File::open(&path).unwrap();
        for line in std::io::BufReader::new(file).lines() {
            let line = line.unwrap();
            oracle::line_from_json(&line).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    // The overload fixture must actually shed — a recording that never
    // trips would pin nothing of the overload path.
    use pcpower::trace_events::TraceEvent;
    let file = std::fs::File::open(fixture_dir().join("overload_cell.jsonl")).unwrap();
    let cells = parse_export(std::io::BufReader::new(file)).unwrap();
    let events = &cells[0].log.events;
    let shed = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEvent::ItemShed { .. }))
        .count();
    assert!(shed > 0, "overload fixture records no shedding");
    let entered = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEvent::OverloadEntered { .. }))
        .count();
    let cleared = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEvent::OverloadCleared { .. }))
        .count();
    assert!(entered > 0 && entered == cleared, "windows must pair up");
}
