//! `sweep` — the one experiment runner: every family on the parallel
//! sweep engine.
//!
//! ```text
//! cargo run --release -p pc-bench --bin sweep -- FAMILY [--filter NAME]...
//!     [--threads N] [--trace] [--list]
//! ```
//!
//! `FAMILY` is `suite` (every paper figure and table), `chaos`, `scale`,
//! `overload` or `analysis` (§III-C statistics, ablations, ω sweep,
//! time series and the claims self-check). Writes under `results/`:
//!
//! * `<family>.json` — deterministic per-cell metrics. **Byte-identical
//!   for any `--threads` value, with or without `--trace`** — the CI
//!   family matrix byte-compares them. Nothing timing- or
//!   thread-dependent may ever be added to it.
//! * `BENCH_<family>.json` — the sidecar: per-cell wall time and
//!   scheduler counters, worker utilization, fleet generation time.
//! * with `--trace`, `<family>_trace.jsonl` — each cell's `CellMeta`
//!   header then its events, in canonical cell order; `replay`
//!   re-executes it (DESIGN.md §12).
//!
//! Every cell passes the same gates: the replay oracle over every
//! recorded cell, a balanced scheduler ledger, and zero shed items
//! unless its label carries `(overload)`; an analysis run also fails
//! on any failed claim. Chaos and overload always record (their rows
//! come from the trace); the other families record only under
//! `--trace`. A failed gate exits 1; a usage error, malformed `PC_*`
//! knob or failed write exits 2.
//!
//! `--filter` takes exact names (repeatable, OR; `--list` prints them):
//! suite and analysis experiments, `scenario/strategy` for chaos and
//! overload (`scenario@m100/strategy` for the planet block),
//! `m10|m100|m1000` for scale. `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`,
//! `PC_THREADS` and `PC_TRACE_CAP` apply; `--threads` overrides the env.

use pc_bench::exp::{create_result_file, die, save_json, Protocol};
use pc_bench::oracle;
use pc_bench::sweep::{execute, Family, Sidecar};
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "usage: sweep suite|chaos|scale|overload|analysis [--filter NAME]... \
                     [--threads N] [--trace] [--list]";

struct Options {
    family: Family,
    filters: Vec<String>,
    threads: Option<usize>,
    trace: bool,
    list: bool,
}

fn positive(flag: &str, value: Option<String>) -> usize {
    let value = value.unwrap_or_else(|| die(&format!("{flag} needs a value")));
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer, not {value:?}")))
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let family = args.next().unwrap_or_else(|| die(USAGE));
    if family == "--help" || family == "-h" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut options = Options {
        family: Family::from_name(&family)
            .unwrap_or_else(|| die(&format!("unknown family {family:?}\n{USAGE}"))),
        filters: Vec::new(),
        threads: None,
        trace: false,
        list: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--filter" => options
                .filters
                .push(args.next().unwrap_or_else(|| die("--filter needs a value"))),
            "--threads" => options.threads = Some(positive(&arg, args.next())),
            "--trace" => options.trace = true,
            "--list" => options.list = true,
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let family = options.family;
    let (duration_ms, replicates) = family.defaults();
    let mut protocol = Protocol::from_env_with(duration_ms, replicates);
    protocol.threads = options.threads.unwrap_or(protocol.threads);

    let cells: Vec<_> = family
        .cells(&protocol)
        .into_iter()
        .filter(|meta| {
            options.filters.is_empty() || options.filters.contains(&family.cell_name(meta))
        })
        .collect();
    if options.list {
        for group in cells.chunk_by(|a, b| family.cell_name(a) == family.cell_name(b)) {
            println!(
                "{:<40} {:>3} cells",
                family.cell_name(&group[0]),
                group.len()
            );
        }
        return;
    }
    if cells.is_empty() {
        die("no cell matches the given --filter (names are exact; see --list)");
    }
    println!(
        "{}: {} cell(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s)",
        family.name(),
        cells.len(),
        protocol.duration.as_nanos() / 1_000_000,
        protocol.replicates,
        protocol.base_seed,
        protocol.threads
    );

    // Opened up front, so an unwritable results dir fails before the
    // sweep runs rather than after it.
    let mut export = options
        .trace
        .then(|| create_result_file(&format!("{}_trace.jsonl", family.name())));
    let started = Instant::now();
    let (runs, timing) = execute(&protocol, &cells, options.trace || family.records());
    let claim_failures = family.report(&protocol, &runs);
    let total_wall_ms = started.elapsed().as_millis() as u64;
    save_json(
        &format!("BENCH_{}", family.name()),
        &Sidecar::new(&runs, &timing, total_wall_ms, &options.filters),
    );
    if let Some((path, out)) = export.as_mut() {
        for run in &runs {
            let log = run.log.as_ref().expect("traced runs record");
            oracle::write_cell(out, &run.meta, &log.events)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        }
        out.flush()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("[saved {}]", path.display());
    }

    let failures: Vec<String> = runs
        .iter()
        .flat_map(|run| run.gate_failures())
        .chain(claim_failures)
        .collect();
    let recorded: u64 = runs.iter().map(|run| run.meta.events).sum();
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("{}: GATE FAILURE: {failure}", family.name());
        }
        eprintln!("{}: {} gate failure(s)", family.name(), failures.len());
        std::process::exit(1);
    }
    println!(
        "{}: gates clean over {} cell(s) ({recorded} recorded events); done in {total_wall_ms} ms",
        family.name(),
        runs.len()
    );
}
