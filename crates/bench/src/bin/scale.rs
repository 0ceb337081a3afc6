//! Large-M scaling sweep on the sharded coordination layer
//! (DESIGN.md §11).
//!
//! ```text
//! cargo run --release -p pc-bench --bin scale -- [--filter NAME]...
//!     [--threads N] [--shards N] [--trace] [--list]
//! ```
//!
//! Drives the planet-scale fleet workload (`pc_trace::planet`) through
//! the four §VI strategies at M ∈ {10, 100, 1000} and writes:
//!
//! * `results/scale.json` — deterministic per-cell metrics. **Byte-
//!   identical for any `--threads` value AND any `--shards` value at
//!   the same seed** — the CI scale job runs this binary three times
//!   (threads 4, threads 1, then a different shard count) and fails the
//!   build on any byte difference. Thread and shard counts must never
//!   reach this file.
//! * `results/BENCH_scale.json` — wall-clock, thread count and shard
//!   count. Host-dependent by design.
//!
//! `--trace` additionally records every cell's event stream, replays
//! the oracle over it (violations fail the run) and exports
//! `results/scale_trace.jsonl` in the suite's `CellMeta`/event JSONL
//! format — consumable by `trace_report` and re-executable by `replay`
//! (DESIGN.md §12). Recording is purely observational:
//! `results/scale.json` stays byte-identical with and without it.
//!
//! `PC_DURATION_MS` (default 10 000), `PC_REPLICATES` (default 1),
//! `PC_SEED`, `PC_THREADS` and `PC_SHARDS` apply; `--threads` and
//! `--shards` override the env.

use pc_bench::exp::{print_header, print_row, save_json, Row};
use pc_bench::oracle::{self, CellMeta};
use pc_bench::replay;
use pc_bench::scale::{
    cell_report, cells_for, execute_costed_with, execute_traced_costed_with, fleets, scale_points,
    ScaleProtocol,
};
use pc_bench::sweep::CellTiming;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

#[derive(Serialize)]
struct ScaleReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    workload_mean_rate: f64,
    workload_rate_spread: f64,
    cells: Vec<pc_bench::scale::ScaleCellReport>,
}

#[derive(Serialize)]
struct PointTiming {
    name: String,
    cells: usize,
    /// Simulation wall time only — fleet generation is hoisted out of
    /// the timed region and stamped separately below, so per-strategy
    /// cell timings are comparable (the first-run cell no longer
    /// absorbs the shared workload-synthesis cost).
    wall_ms: u64,
    /// Wall time spent pre-generating this point's shared fleets.
    fleet_gen_ms: u64,
    /// Worker busy share over this point's dispatch interval.
    utilization: f64,
    /// Per-worker busy milliseconds for this point's dispatch.
    worker_busy_ms: Vec<u64>,
    /// Per-cell wall time + deterministic scheduler counters.
    cell_timings: Vec<CellTiming>,
}

#[derive(Serialize)]
struct ScaleTiming {
    /// v2: added `filters`, per-point `utilization` / `worker_busy_ms`
    /// / `cell_timings` (scheduler counters).
    /// v3: per-point `fleet_gen_ms` (fleet generation hoisted out of
    /// `wall_ms`); `QueueStats` gained the arrival-calendar counters
    /// and `pending_at_teardown` (DESIGN.md §14).
    /// v4: `QueueStats` gained `items_shed` (overload control,
    /// DESIGN.md §15; zero whenever the layer is disabled — always,
    /// for the scale sweep's cells).
    schema_version: u32,
    threads: usize,
    shards: usize,
    /// Active `--filter` values (empty = all three points), so a
    /// checked-in sidecar can never masquerade as a full run.
    filters: Vec<String>,
    total_wall_ms: u64,
    points: Vec<PointTiming>,
}

struct Options {
    filters: Vec<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    trace: bool,
    list: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        filters: Vec::new(),
        threads: None,
        shards: None,
        trace: false,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--filter" => {
                let value = args.next().unwrap_or_else(|| die("--filter needs a value"));
                options.filters.push(value);
            }
            "--threads" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| die("--threads needs a value"));
                options.threads = Some(parse_positive(&value, "--threads"));
            }
            "--shards" => {
                let value = args.next().unwrap_or_else(|| die("--shards needs a value"));
                options.shards = Some(parse_positive(&value, "--shards"));
            }
            "--trace" => options.trace = true,
            "--list" => options.list = true,
            "--help" | "-h" => {
                println!(
                    "usage: scale [--filter NAME]... [--threads N] [--shards N]\n\
                     \x20            [--trace] [--list]\n\
                     \n\
                     Runs the large-M scaling sweep (planet fleet workload,\n\
                     M in {{10, 100, 1000}}) on the sharded coordination layer\n\
                     and writes results/scale.json (deterministic — identical\n\
                     for any thread or shard count) and results/BENCH_scale.json\n\
                     (timings). --filter keeps only the named points\n\
                     (m10 | m100 | m1000; exact match, repeatable, OR).\n\
                     --trace records event streams, replays the oracle and\n\
                     exports results/scale_trace.jsonl.\n\
                     Env: PC_DURATION_MS, PC_REPLICATES, PC_SEED, PC_THREADS,\n\
                     PC_SHARDS."
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    options
}

fn parse_positive(value: &str, flag: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("scale: {msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let options = parse_args();
    let mut protocol = ScaleProtocol::from_env();
    if let Some(threads) = options.threads {
        protocol.threads = threads;
    }
    if let Some(shards) = options.shards {
        protocol.shards = shards;
    }

    let points = scale_points();
    let selected: Vec<&pc_bench::scale::ScalePoint> = points
        .iter()
        .filter(|p| {
            // Point names are prefixes of each other (m10, m100, m1000),
            // so filters match exactly rather than by substring.
            options.filters.is_empty() || options.filters.iter().any(|f| p.name == f.as_str())
        })
        .collect();

    if options.list {
        for p in &selected {
            println!(
                "{:<6} M={:<5} cores={:<4} {:>3} cells",
                p.name,
                p.point.pairs,
                p.point.cores,
                cells_for(&[p], protocol.replicates).len()
            );
        }
        return;
    }
    if selected.is_empty() {
        die("no scale point matches the given --filter");
    }

    let duration_ms = protocol.duration.as_nanos() / 1_000_000;
    println!(
        "scale: {} point(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s), {} shard(s)",
        selected.len(),
        duration_ms,
        protocol.replicates,
        protocol.base_seed,
        protocol.threads,
        protocol.shards
    );

    let mut trace_out = if options.trace {
        let path = std::path::Path::new("results").join("scale_trace.jsonl");
        std::fs::create_dir_all("results")
            .unwrap_or_else(|e| die(&format!("cannot create results/: {e}")));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", path.display())));
        Some((path, std::io::BufWriter::new(file)))
    } else {
        None
    };
    let workload_label = replay::planet_workload_label(&protocol.workload)
        .unwrap_or_else(|| die("workload matches no named configuration — unreplayable"));
    let mut oracle_failures: Vec<String> = Vec::new();
    let mut traced_events = 0u64;

    let start = Instant::now();
    let mut reports = Vec::new();
    let mut timings = Vec::new();
    for p in &selected {
        let cells = cells_for(&[p], protocol.replicates);
        // Workload synthesis happens outside the timed region: the
        // fleets are shared across every strategy at this point, and
        // charging them to whichever cell dispatches first would skew
        // the per-strategy comparison (the cost is stamped separately).
        let gen_started = Instant::now();
        let point_fleets = fleets(&protocol, &cells);
        let fleet_gen_ms = gen_started.elapsed().as_millis() as u64;
        let started = Instant::now();
        let (runs, logs, dispatch) = if options.trace {
            let (traced, dispatch) = execute_traced_costed_with(&protocol, &cells, &point_fleets);
            let mut runs = Vec::with_capacity(traced.len());
            let mut logs = Vec::with_capacity(traced.len());
            for (m, log) in traced {
                runs.push(m);
                logs.push(log);
            }
            (runs, logs, dispatch)
        } else {
            let (runs, dispatch) = execute_costed_with(&protocol, &cells, &point_fleets);
            (runs, Vec::new(), dispatch)
        };
        let wall_ms = started.elapsed().as_millis() as u64;

        if let Some((path, out)) = trace_out.as_mut() {
            for (cell, log) in cells.iter().zip(&logs) {
                let meta = CellMeta {
                    experiment: format!("scale_{}", p.name),
                    strategy: cell.strategy.name().to_string(),
                    pairs: cell.point.pairs as u64,
                    cores: cell.point.cores as u64,
                    buffer: cell.point.buffer as u64,
                    seed: protocol.base_seed + cell.replicate as u64,
                    duration_ns: protocol.duration.as_nanos(),
                    workload: workload_label.to_string(),
                    scenario: String::new(),
                    period_ns: oracle::strategy_period_ns(&cell.strategy),
                    events: log.events.len() as u64,
                    dropped: log.dropped,
                    digest: log.digest(),
                };
                let label = meta.label();
                oracle::write_cell(out, &meta, &log.events)
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
                traced_events += log.events.len() as u64;
                let report = oracle::check(log);
                for violation in report.violations {
                    oracle_failures.push(format!("{label}: {violation}"));
                }
            }
        }

        print_header(&format!("scale {} (M={})", p.name, p.point.pairs));
        for (chunk_index, group) in runs.chunks(protocol.replicates).enumerate() {
            let cell = &cells[chunk_index * protocol.replicates];
            let mut row = Row::from_runs(group);
            row.name = cell.strategy.name().to_string();
            print_row(&row);
        }

        reports.extend(
            cells
                .iter()
                .zip(&runs)
                .map(|(cell, m)| cell_report(&protocol, cell, m)),
        );
        for (cell, m) in cells.iter().zip(&runs) {
            // Closed scheduler ledger: every event the cell scheduled is
            // popped, cancelled, or reported pending at teardown — a
            // drift here means the wheel or calendar dropped work.
            assert!(
                m.scheduler.ledger_balanced(),
                "scale {} {} seed={}: scheduler ledger out of balance: {:?}",
                p.name,
                cell.strategy.name(),
                protocol.base_seed + cell.replicate as u64,
                m.scheduler
            );
        }
        timings.push(PointTiming {
            name: p.name.to_string(),
            cells: cells.len(),
            wall_ms,
            fleet_gen_ms,
            utilization: dispatch.utilization(wall_ms),
            worker_busy_ms: dispatch.worker_busy_ms.clone(),
            cell_timings: cells
                .iter()
                .zip(&runs)
                .zip(&dispatch.cell_wall_ms)
                .map(|((cell, m), &cell_wall)| CellTiming {
                    cell: format!(
                        "{} {} seed={}",
                        p.name,
                        cell.strategy.name(),
                        protocol.base_seed + cell.replicate as u64
                    ),
                    wall_ms: cell_wall,
                    scheduler: m.scheduler,
                })
                .collect(),
        });
    }

    save_json(
        "scale",
        &ScaleReport {
            schema_version: 1,
            duration_ms,
            replicates: protocol.replicates,
            base_seed: protocol.base_seed,
            workload_mean_rate: protocol.workload.mean_rate,
            workload_rate_spread: protocol.workload.rate_spread,
            cells: reports,
        },
    );

    let total_wall_ms = start.elapsed().as_millis() as u64;
    save_json(
        "BENCH_scale",
        &ScaleTiming {
            schema_version: 4,
            threads: protocol.threads,
            shards: protocol.shards,
            filters: options.filters.clone(),
            total_wall_ms,
            points: timings,
        },
    );
    if let Some((path, mut out)) = trace_out {
        out.flush()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("[saved {}] ({} events)", path.display(), traced_events);
        if oracle_failures.is_empty() {
            println!("scale: replay oracle clean over {traced_events} events");
        } else {
            for failure in &oracle_failures {
                eprintln!("scale: oracle violation: {failure}");
            }
            eprintln!(
                "scale: {} oracle violation(s) — see above",
                oracle_failures.len()
            );
            std::process::exit(1);
        }
    }
    println!("scale: done in {total_wall_ms} ms");
}
