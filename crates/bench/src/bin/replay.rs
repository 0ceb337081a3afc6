//! `replay` — executable trace replay (DESIGN.md §12).
//!
//! Reads one or more JSONL trace exports (`results/<family>_trace.jsonl`
//! as `sweep FAMILY --trace` writes them, or a checked-in golden
//! fixture). Each cell is first checked against itself — its event
//! count and FNV digest against the [`CellMeta`] header, then the
//! replay oracle over the recording — and then re-executed: the header
//! is the cell's recipe, so the simulation re-runs and the regenerated
//! event stream is compared against the recording event-by-event. A
//! failed header check does not skip the re-execution, so a tampered
//! event reports both the bad digest and the divergence. The first
//! divergence fails the run loudly with a ±8-event context window from
//! both streams; `--digest-only` compares the FNV canonical-JSON
//! digests instead (fast path). `--regen-fixtures` rewrites the golden
//! fixtures under `tests/fixtures/`.
//!
//! Exit codes: `0` every cell clean, `1` a failed check, divergence,
//! unreplayable cell or empty export, `2` usage or I/O / parse error
//! (reported as `path:line: message`).

use pc_bench::oracle::CellMeta;
use pc_bench::replay::{
    check_recording, fixture_defs, fixture_dir, parse_export_file, render_fixture, replay_cell,
    CellReplay,
};

struct Args {
    files: Vec<String>,
    digest_only: bool,
    regen_fixtures: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        digest_only: false,
        regen_fixtures: false,
        list: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--digest-only" => args.digest_only = true,
            "--regen-fixtures" => args.regen_fixtures = true,
            "--list" => args.list = true,
            "--help" | "-h" => {
                return Err(
                    "usage: replay [FILE]... [--digest-only] [--regen-fixtures] [--list]"
                        .to_string(),
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => args.files.push(file.to_string()),
        }
    }
    if args.files.is_empty() {
        args.files.push("results/suite_trace.jsonl".to_string());
    }
    Ok(args)
}

fn regen_fixtures() -> Result<(), String> {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, proto) in fixture_defs() {
        let bytes = render_fixture(&proto)?;
        let path = dir.join(name);
        std::fs::write(&path, &bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} ({} lines)", path.display(), bytes.lines().count());
    }
    Ok(())
}

fn replay_file(path: &str, digest_only: bool) -> Result<(u64, u64), String> {
    let cells = parse_export_file(path)?;
    if cells.is_empty() {
        eprintln!("replay: no cells in {path}");
        return Ok((0, 1));
    }
    let mut ok = 0u64;
    let mut failed = 0u64;
    for cell in &cells {
        let label = cell.meta.label();
        let problems = check_recording(cell);
        for problem in &problems {
            println!("  FAIL {label}: {problem}");
        }
        match replay_cell(cell, digest_only) {
            CellReplay::Match { events } if problems.is_empty() => {
                println!("  OK   {label} ({events} events)");
                ok += 1;
            }
            CellReplay::Match { .. } => failed += 1,
            CellReplay::Diverged { seq, report } => {
                println!("  FAIL {label}: diverged at seq {seq}");
                for line in report.lines() {
                    println!("       {line}");
                }
                failed += 1;
            }
            CellReplay::Unreplayable(e) => {
                println!("  FAIL {label}: unreplayable: {e}");
                failed += 1;
            }
        }
    }
    println!("{path}: {ok}/{} cells replayed clean", cells.len());
    Ok((ok, failed))
}

fn list_cells(path: &str) -> Result<(), String> {
    let cells = parse_export_file(path)?;
    for cell in &cells {
        let m: &CellMeta = &cell.meta;
        println!(
            "{} workload={} scenario={} dur={}ms events={}",
            m.label(),
            m.workload,
            if m.scenario.is_empty() {
                "-"
            } else {
                &m.scenario
            },
            m.duration_ns / 1_000_000,
            m.events
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if args.regen_fixtures {
        if let Err(e) = regen_fixtures() {
            eprintln!("replay: {e}");
            std::process::exit(2);
        }
        return;
    }
    if args.list {
        for file in &args.files {
            if let Err(e) = list_cells(file) {
                eprintln!("replay: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let mut total_ok = 0u64;
    let mut total_failed = 0u64;
    for file in &args.files {
        match replay_file(file, args.digest_only) {
            Ok((ok, failed)) => {
                total_ok += ok;
                total_failed += failed;
            }
            Err(e) => {
                eprintln!("replay: {e}");
                std::process::exit(2);
            }
        }
    }
    if total_failed > 0 {
        eprintln!("replay: {total_failed} cell(s) failed, {total_ok} clean");
        std::process::exit(1);
    }
    println!("replay: all {total_ok} cell(s) replayed clean");
}
