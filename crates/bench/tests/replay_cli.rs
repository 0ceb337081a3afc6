//! Exit-path contract of the `replay` binary: CI shell-scripts it, so
//! the codes must be exact — 0 clean, 1 failures (count or digest
//! mismatch against the header, oracle violation, divergence, empty
//! export), 2 usage or I/O/parse errors *with a line number* so a
//! corrupted artifact can be found by eye.

use pc_bench::oracle;
use pc_bench::replay::{fixture_dir, parse_export_file};
use pc_trace_events::{Event, TraceEvent};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pc_replay_cli_{}_{name}", std::process::id()))
}

fn write(path: &Path, content: &str) {
    std::fs::write(path, content).unwrap();
}

fn suite_fixture() -> String {
    fixture_dir().join("suite_cell.jsonl").display().to_string()
}

const REPLAY: &str = env!("CARGO_BIN_EXE_replay");

#[test]
fn clean_fixture_exits_zero() {
    let out = run(REPLAY, &[&suite_fixture()]);
    assert!(
        out.status.success(),
        "{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    // --digest-only and --list are clean exits too.
    assert!(run(REPLAY, &[&suite_fixture(), "--digest-only"])
        .status
        .success());
    assert!(run(REPLAY, &[&suite_fixture(), "--list"]).status.success());
}

#[test]
fn garbage_line_exits_two_with_its_line_number() {
    let path = tmp("garbage.jsonl");
    // Line 1 is a valid header-less event, line 2 is plain garbage —
    // the orphan event is the first error hit.
    write(
        &path,
        "{\"Ev\":{\"seq\":0,\"t_ns\":1,\"kind\":{\"Produce\":{\"pair\":0}}}}\nnot json\n",
    );
    let out = run(REPLAY, &[&path.display().to_string()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(":1:"), "must name line 1: {stderr}");
    assert!(stderr.contains("before any cell header"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_recording_fails_the_header_check_and_the_replay() {
    // Take the real fixture and drop its last 10 event lines: the
    // header's event count and digest no longer match.
    let full = std::fs::read_to_string(suite_fixture()).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let truncated: String = lines[..lines.len() - 10]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let path = tmp("truncated.jsonl");
    write(&path, &truncated);
    let arg = path.display().to_string();

    let out = run(REPLAY, &[&arg]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("event count"), "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");
    assert!(stdout.contains("diverged at seq"), "{stdout}");
    assert!(stdout.contains("end of recording"), "{stdout}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn single_retimed_event_diverges_replay() {
    // Retime one mid-stream event and fix up the header digest so only
    // the *replay* (re-execution) can notice — the recording is
    // internally consistent, it just doesn't match the simulator.
    let mut cells = parse_export_file(&suite_fixture()).unwrap();
    let cell = &mut cells[0];
    let mut events: Vec<Event> = cell.log.events.iter().collect();
    let idx = events.len() / 2;
    events[idx].t_ns += 1;
    let expected_seq = events[idx].seq;
    cell.meta.digest = pc_trace_events::digest(&events);

    let mut content = Vec::new();
    oracle::write_cell(&mut content, &cell.meta, &events).unwrap();
    let path = tmp("retimed.jsonl");
    std::fs::write(&path, content).unwrap();
    let arg = path.display().to_string();

    for extra in [None, Some("--digest-only")] {
        let mut args = vec![arg.as_str()];
        if let Some(flag) = extra {
            args.push(flag);
        }
        let out = run(REPLAY, &args);
        assert_eq!(out.status.code(), Some(1), "flag={extra:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("diverged at seq {expected_seq}")),
            "flag={extra:?}: {stdout}"
        );
        if extra.is_none() {
            assert!(stdout.contains("first divergence"), "{stdout}");
            assert!(stdout.contains("recorded"), "{stdout}");
            assert!(stdout.contains("replayed"), "{stdout}");
        }
    }

    // Without the fix-up the header check fails too — and the cell is
    // still re-executed, so both the bad digest and the divergence show.
    let original = parse_export_file(&suite_fixture()).unwrap().remove(0);
    let mut content = Vec::new();
    oracle::write_cell(&mut content, &original.meta, &events).unwrap();
    std::fs::write(&path, content).unwrap();
    let out = run(REPLAY, &[&arg]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("!= header"), "{stdout}");
    assert!(
        stdout.contains(&format!("diverged at seq {expected_seq}")),
        "{stdout}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_pair_id_is_a_violation_not_an_allocation() {
    // Forge one Produce to name pair 4000000000 and re-seal the header
    // digest: only the oracle can object, and it must do so with a
    // violation instead of sizing a dense table to the id.
    let mut cells = parse_export_file(&suite_fixture()).unwrap();
    let cell = &mut cells[0];
    let mut events: Vec<Event> = cell.log.events.iter().collect();
    let ev = events
        .iter_mut()
        .find(|e| matches!(e.kind, TraceEvent::Produce { .. }))
        .expect("fixture produces");
    ev.kind = TraceEvent::Produce {
        pair: 4_000_000_000,
    };
    let seq = ev.seq;
    cell.meta.digest = pc_trace_events::digest(&events);

    let mut content = Vec::new();
    oracle::write_cell(&mut content, &cell.meta, &events).unwrap();
    let path = tmp("hostile_id.jsonl");
    std::fs::write(&path, content).unwrap();

    let out = run(REPLAY, &[&path.display().to_string()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(
            "item conservation: seq {seq} pair 4000000000 is at or above the dense-id bound"
        )),
        "{stdout}"
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn header_claiming_u64_max_events_is_unreplayable_not_a_panic() {
    // A complete recording is re-run with room for one event more than
    // its header claims; at u64::MAX there is no such bound.
    let mut cell = parse_export_file(&suite_fixture()).unwrap().remove(0);
    cell.meta.events = u64::MAX;
    let mut content = Vec::new();
    oracle::write_cell(&mut content, &cell.meta, &cell.log.events).unwrap();
    let path = tmp("max_events.jsonl");
    std::fs::write(&path, content).unwrap();

    let out = run(REPLAY, &[&path.display().to_string()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(
            "event count {} != header {}",
            cell.log.events.len(),
            u64::MAX
        )),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "unreplayable: header field `events` = {} implies no recorder bound",
            u64::MAX
        )),
        "{stdout}"
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_checks_every_file_it_is_given() {
    let fixtures: Vec<String> = ["suite", "chaos", "scale", "overload"]
        .iter()
        .map(|name| {
            fixture_dir()
                .join(format!("{name}_cell.jsonl"))
                .display()
                .to_string()
        })
        .collect();
    let args: Vec<&str> = fixtures.iter().map(String::as_str).collect();
    let out = run(REPLAY, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let clean = stdout.lines().filter(|l| l.starts_with("  OK   ")).count();
    assert_eq!(clean, 4, "{stdout}");
    assert!(stdout.contains("all 4 cell(s) replayed clean"), "{stdout}");

    // A bad file after a clean one still fails the run.
    let path = tmp("multi_empty.jsonl");
    write(&path, "\n");
    let empty = path.display().to_string();
    let out = run(REPLAY, &[&fixtures[0], &empty]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no cells in"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_and_unknown_flag_exit_two() {
    let out = run(REPLAY, &["/nonexistent/nowhere.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let out = run(REPLAY, &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn empty_export_exits_one() {
    let path = tmp("empty.jsonl");
    write(&path, "\n");
    let out = run(REPLAY, &[&path.display().to_string()]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&path).ok();
}
