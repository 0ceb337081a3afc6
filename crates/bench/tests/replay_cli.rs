//! Exit-path contract of the `trace_report` and `replay` binaries:
//! CI shell-scripts them, so the codes must be exact — 0 clean,
//! 1 failures (divergence, digest mismatch, empty export), 2 usage or
//! I/O/parse errors *with a line number* so a corrupted artifact can be
//! found by eye.

use pc_bench::oracle;
use pc_bench::replay::{fixture_dir, parse_export_file};
use pc_trace_events::TraceEvent;
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

const TRACE_REPORT: &str = env!("CARGO_BIN_EXE_trace_report");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");

#[test]
fn clean_fixture_exits_zero_in_both_binaries() {
    for bin in [TRACE_REPORT, REPLAY] {
        let out = run(bin, &[&suite_fixture()]);
        assert!(
            out.status.success(),
            "{bin}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // replay --digest-only and --list are clean exits too.
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
    let arg = path.display().to_string();
    for bin in [TRACE_REPORT, REPLAY] {
        let out = run(bin, &[&arg]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(":1:"), "{bin} must name line 1: {stderr}");
        assert!(stderr.contains("before any cell header"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_recording_fails_trace_report_and_replay() {
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

    let out = run(TRACE_REPORT, &[&arg]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("event count"), "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");

    let out = run(REPLAY, &[&arg]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("diverged at seq"), "{stdout}");
    assert!(stdout.contains("end of recording"), "{stdout}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn single_retimed_event_diverges_replay_but_not_trace_report_parsing() {
    // Retime one mid-stream event and fix up the header digest so only
    // the *replay* (re-execution) can notice — the recording is
    // internally consistent, it just doesn't match the simulator.
    let mut cells = parse_export_file(&suite_fixture()).unwrap();
    let cell = &mut cells[0];
    let idx = cell.events.len() / 2;
    cell.events[idx].t_ns += 1;
    let expected_seq = cell.events[idx].seq;
    cell.meta.digest = pc_trace_events::digest(&cell.events);

    let mut content = Vec::new();
    oracle::write_cell(&mut content, &cell.meta, &cell.events).unwrap();
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

    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_pair_id_is_a_violation_not_an_allocation() {
    // Forge one Produce to name pair 4000000000 and re-seal the header
    // digest: only the oracle can object, and it must do so with a
    // violation instead of sizing a dense table to the id.
    let mut cells = parse_export_file(&suite_fixture()).unwrap();
    let cell = &mut cells[0];
    let ev = cell
        .events
        .iter_mut()
        .find(|e| matches!(e.kind, TraceEvent::Produce { .. }))
        .expect("fixture produces");
    ev.kind = TraceEvent::Produce {
        pair: 4_000_000_000,
    };
    let seq = ev.seq;
    cell.meta.digest = pc_trace_events::digest(&cell.events);

    let mut content = Vec::new();
    oracle::write_cell(&mut content, &cell.meta, &cell.events).unwrap();
    let path = tmp("hostile_id.jsonl");
    std::fs::write(&path, content).unwrap();

    let out = run(TRACE_REPORT, &[&path.display().to_string()]);
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
fn missing_file_and_unknown_flag_exit_two() {
    let out = run(REPLAY, &["/nonexistent/nowhere.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let out = run(REPLAY, &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    let out = run(TRACE_REPORT, &["/nonexistent/nowhere.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn empty_export_exits_one() {
    let path = tmp("empty.jsonl");
    write(&path, "\n");
    let arg = path.display().to_string();
    for bin in [TRACE_REPORT, REPLAY] {
        let out = run(bin, &[&arg]);
        assert_eq!(out.status.code(), Some(1), "{bin}");
    }
    std::fs::remove_file(&path).ok();
}
