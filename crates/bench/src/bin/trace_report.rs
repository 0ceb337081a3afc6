//! Offline replay of exported traces: re-derives every invariant and
//! re-computes every digest from the JSONL files alone.
//!
//! ```text
//! cargo run --release -p pc-bench --bin trace_report -- [FILE]...
//! ```
//!
//! `FILE` defaults to `results/suite_trace.jsonl` (what `suite --trace`
//! writes). For each cell of each file the report parses the `CellMeta`
//! header and the event lines that follow (via the shared
//! `pc_bench::replay` parser), then checks that
//!
//! * the recorded event count and FNV digest match the header (drift or
//!   tampering between export and replay is caught, not assumed away),
//! * the replay oracle (`pc_bench::oracle`) finds no invariant
//!   violations.
//!
//! Exits 1 on any mismatch or violation, or a file without cells, and 2
//! on an unknown flag or a parse/I/O error, which is what lets CI treat
//! exported artifacts as self-verifying. To re-*execute* the cells
//! instead of verifying the recording, see the `replay` binary
//! (DESIGN.md §12).

use pc_bench::oracle;
use pc_bench::replay::parse_export_file;
use pc_trace_events::digest;

const USAGE: &str = "usage: trace_report [FILE]...\n\
    \n\
    Replays each JSONL trace export FILE (default\n\
    results/suite_trace.jsonl): per cell, recomputes the event\n\
    count and FNV digest against the CellMeta header and runs\n\
    the replay oracle. Non-zero exit on any mismatch.";

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.iter().any(|p| p == "--help" || p == "-h") {
        println!("{USAGE}");
        return;
    }
    if let Some(flag) = paths.iter().find(|p| p.starts_with("--")) {
        eprintln!("trace_report: unknown flag {flag}\n{USAGE}");
        std::process::exit(2);
    }
    if paths.is_empty() {
        paths.push("results/suite_trace.jsonl".to_string());
    }

    let mut failures = 0u64;
    let mut total_cells = 0usize;
    let mut total_events = 0u64;
    for path in &paths {
        let cells = parse_export_file(path).unwrap_or_else(|e| {
            eprintln!("trace_report: {e}");
            std::process::exit(2);
        });
        if cells.is_empty() {
            eprintln!("trace_report: no cells in {path}");
            failures += 1;
        }
        total_cells += cells.len();
        for cell in &cells {
            let label = cell.meta.label();
            total_events += cell.events.len() as u64;
            let mut problems: Vec<String> = Vec::new();

            if cell.events.len() as u64 != cell.meta.events {
                problems.push(format!(
                    "event count {} != header {}",
                    cell.events.len(),
                    cell.meta.events
                ));
            }
            let recomputed = digest(&cell.events);
            if recomputed != cell.meta.digest {
                problems.push(format!(
                    "digest {recomputed:016x} != header {:016x}",
                    cell.meta.digest
                ));
            }
            let report = oracle::check(&cell.log());
            problems.extend(report.violations);

            if problems.is_empty() {
                println!("ok   {label}: {} events", cell.events.len());
            } else {
                failures += problems.len() as u64;
                for p in &problems {
                    println!("FAIL {label}: {p}");
                }
            }
        }
    }

    println!(
        "trace_report: {} file(s), {total_cells} cell(s), {total_events} event(s), {failures} failure(s)",
        paths.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
