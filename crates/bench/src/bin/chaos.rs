//! Chaos sweep runner — every fault scenario crossed with the strategy
//! panel, on the parallel sweep engine.
//!
//! ```text
//! cargo run --release -p pc-bench --bin chaos -- [--filter NAME]...
//!     [--threads N] [--trace] [--list]
//! ```
//!
//! Writes two files under `results/`:
//!
//! * `chaos.json` — per-cell metrics plus trace-derived recovery
//!   metrics (overflow bursts, scheduled/overflow wake counts, recovery
//!   lag). **Byte-identical for any `--threads` value at the same
//!   seed** — the CI determinism gate byte-compares `--threads 4`
//!   against `--threads 1`, exactly like `suite.json`.
//! * `BENCH_chaos.json` — wall-clock and thread count (timings only).
//!
//! Every cell is *always* traced internally: the recovery metrics come
//! from the event stream, and each stream is replayed through the
//! extended oracle (`pc_bench::oracle`) — item and pool conservation
//! must hold through every injected fault, and any violation fails the
//! run. `--trace` additionally exports the streams to
//! `results/chaos_trace.jsonl` in the suite's `CellMeta`/event JSONL
//! format, so `trace_report` can re-verify the export offline.
//!
//! `--filter` takes the exact cell name `{scenario}/{strategy}`,
//! matching the scale and overload runners' exact-name semantics
//! (every replicate of that point runs) — `--list` prints every name.
//!
//! `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`, `PC_THREADS` and
//! `PC_TRACE_CAP` apply as everywhere else; `--threads` overrides
//! `PC_THREADS`.

use pc_bench::chaos::{
    chaos_cell_report, chaos_cells, chaos_oracle, chaos_point, chaos_strategies,
    chaos_strategy_label, execute_chaos_costed, ChaosCellReport, ChaosCellSpec,
};
use pc_bench::exp::{save_json, Protocol};
use pc_bench::oracle::{self, CellMeta};
use pc_bench::replay;
use pc_bench::sweep::CellTiming;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

#[derive(Serialize)]
struct ChaosReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    pairs: usize,
    cores: usize,
    buffer: usize,
    cells: Vec<ChaosCellReport>,
}

#[derive(Serialize)]
struct ChaosTiming {
    /// v2: added `filters`, `utilization` / `worker_busy_ms` /
    /// `cell_timings` (scheduler counters).
    /// v3: `QueueStats` gained the arrival-calendar counters
    /// (`arrivals_scheduled` / `arrivals_popped`) and
    /// `pending_at_teardown` (DESIGN.md §14).
    /// v4: `QueueStats` gained `items_shed` (overload control,
    /// DESIGN.md §15; zero whenever the layer is disabled).
    schema_version: u32,
    threads: usize,
    cells: usize,
    /// Active `--filter` values (empty = full sweep), so a checked-in
    /// sidecar can never masquerade as a full run.
    filters: Vec<String>,
    total_wall_ms: u64,
    /// Worker busy share over the sweep's dispatch interval.
    utilization: f64,
    /// Per-worker busy milliseconds.
    worker_busy_ms: Vec<u64>,
    /// Per-cell wall time + deterministic scheduler counters.
    cell_timings: Vec<CellTiming>,
}

struct Options {
    filters: Vec<String>,
    threads: Option<usize>,
    trace: bool,
    list: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        filters: Vec::new(),
        threads: None,
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
                let n: usize = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
                options.threads = Some(n);
            }
            "--trace" => options.trace = true,
            "--list" => options.list = true,
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--filter NAME]... [--threads N] [--trace] [--list]\n\
                     \n\
                     Runs the fault-injection sweep (every scenario x strategy\n\
                     panel) and writes results/chaos.json (deterministic) and\n\
                     results/BENCH_chaos.json (timings). --filter keeps cells\n\
                     whose exact name 'scenario/strategy' equals NAME\n\
                     (repeatable, OR; --list prints every name; all replicates\n\
                     of a matched point run). Every cell is traced and replayed\n\
                     through the extended oracle; violations fail the run.\n\
                     --trace exports results/chaos_trace.jsonl.\n\
                     Env: PC_DURATION_MS, PC_REPLICATES, PC_SEED, PC_THREADS,\n\
                     PC_TRACE_CAP."
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    options
}

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg} (try --help)");
    std::process::exit(2);
}

/// Exact cell name used by `--filter` / `--list` (scale-runner
/// semantics; replicates of one point share it).
fn point_name(cell: &ChaosCellSpec) -> String {
    format!(
        "{}/{}",
        cell.scenario.name(),
        chaos_strategy_label(&cell.strategy)
    )
}

/// Per-replicate label used for oracle diagnostics and cell timings.
fn cell_label(cell: &ChaosCellSpec, seed: u64) -> String {
    format!("{} seed={}", point_name(cell), seed)
}

fn main() {
    let options = parse_args();
    let mut protocol = Protocol::from_env();
    if let Some(threads) = options.threads {
        protocol.threads = threads;
    }

    // Exact-name filters (scale-runner semantics): strategy labels are
    // prefixes of one another ("PBPL" vs "PBPL(degraded)"), so substring
    // matching would make the shorter cell unselectable on its own.
    let cells: Vec<ChaosCellSpec> = chaos_cells(&chaos_strategies(), protocol.replicates)
        .into_iter()
        .filter(|cell| {
            let name = point_name(cell);
            options.filters.is_empty() || options.filters.iter().any(|f| name == f.as_str())
        })
        .collect();

    if options.list {
        let mut seen = std::collections::BTreeSet::new();
        for cell in &cells {
            let name = point_name(cell);
            if seen.insert(name.clone()) {
                println!("{name}");
            }
        }
        return;
    }
    if cells.is_empty() {
        die("no cell matches the given --filter (names are exact; see --list)");
    }

    let point = chaos_point();
    let duration_ms = protocol.duration.as_nanos() / 1_000_000;
    println!(
        "chaos: {} cell(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s)",
        cells.len(),
        duration_ms,
        protocol.replicates,
        protocol.base_seed,
        protocol.threads
    );

    // JSONL export opened up front so an unwritable results dir fails
    // before the sweep runs.
    let mut trace_out = if options.trace {
        std::fs::create_dir_all("results")
            .unwrap_or_else(|e| die(&format!("cannot create results dir: {e}")));
        let path = std::path::Path::new("results").join("chaos_trace.jsonl");
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        Some((path, std::io::BufWriter::new(file)))
    } else {
        None
    };

    let started = Instant::now();
    let (results, dispatch) = execute_chaos_costed(&protocol, &cells, protocol.threads);
    let total_wall_ms = started.elapsed().as_millis() as u64;

    let mut oracle_failures: Vec<String> = Vec::new();
    let mut reports = Vec::with_capacity(cells.len());
    println!(
        "{:<16} {:<16} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>12}",
        "scenario", "strategy", "items", "wakeups", "ovf", "consec", "sched", "burst", "rec_lag_us"
    );
    for (cell, (metrics, log)) in cells.iter().zip(&results) {
        let seed = protocol.base_seed + cell.replicate as u64;
        let label = cell_label(cell, seed);
        let report = chaos_oracle(log);
        for violation in report.violations {
            oracle_failures.push(format!("{label}: {violation}"));
        }
        let row = chaos_cell_report(&protocol, cell, metrics, log);
        println!(
            "{:<16} {:<16} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>12.1}",
            row.scenario,
            row.strategy,
            row.items_consumed,
            row.wakeups,
            row.recovery.overflow_wakes,
            row.recovery.consec_overflow_wakes,
            row.recovery.scheduled_wakes,
            row.recovery.max_overflow_burst,
            row.recovery.max_recovery_lag_ns as f64 / 1_000.0
        );
        if let Some((path, out)) = trace_out.as_mut() {
            let meta = CellMeta {
                experiment: format!("chaos_{}", cell.scenario.name()),
                strategy: row.strategy.clone(),
                pairs: point.pairs as u64,
                cores: point.cores as u64,
                buffer: point.buffer as u64,
                seed,
                duration_ns: protocol.duration.as_nanos(),
                workload: replay::worldcup_workload_label(&protocol.trace)
                    .unwrap_or_else(|| die("trace config matches no named workload — unreplayable"))
                    .to_string(),
                scenario: cell.scenario.name().to_string(),
                period_ns: oracle::strategy_period_ns(&cell.strategy),
                events: log.events.len() as u64,
                dropped: log.dropped,
                digest: log.digest(),
            };
            oracle::write_cell(out, &meta, &log.events)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        }
        reports.push(row);
    }

    save_json(
        "chaos",
        &ChaosReport {
            schema_version: 1,
            duration_ms,
            replicates: protocol.replicates,
            base_seed: protocol.base_seed,
            trace_mean_rate: protocol.trace.mean_rate,
            pairs: point.pairs,
            cores: point.cores,
            buffer: point.buffer,
            cells: reports,
        },
    );
    save_json(
        "BENCH_chaos",
        &ChaosTiming {
            schema_version: 4,
            threads: protocol.threads,
            cells: cells.len(),
            filters: options.filters.clone(),
            total_wall_ms,
            utilization: dispatch.utilization(total_wall_ms),
            worker_busy_ms: dispatch.worker_busy_ms.clone(),
            cell_timings: cells
                .iter()
                .zip(&results)
                .zip(&dispatch.cell_wall_ms)
                .map(|((cell, (metrics, _)), &cell_wall)| CellTiming {
                    cell: cell_label(cell, protocol.base_seed + cell.replicate as u64),
                    wall_ms: cell_wall,
                    scheduler: {
                        // Closed scheduler ledger — holds under every
                        // fault scenario too (DESIGN.md §14).
                        assert!(
                            metrics.scheduler.ledger_balanced(),
                            "scheduler ledger out of balance: {:?}",
                            metrics.scheduler
                        );
                        metrics.scheduler
                    },
                })
                .collect(),
        },
    );
    if let Some((path, mut out)) = trace_out {
        out.flush()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("[saved {}]", path.display());
    }

    if oracle_failures.is_empty() {
        let events: u64 = results.iter().map(|(_, log)| log.events.len() as u64).sum();
        println!("chaos: replay oracle clean over {events} events");
    } else {
        for failure in &oracle_failures {
            eprintln!("chaos: ORACLE VIOLATION: {failure}");
        }
        eprintln!(
            "chaos: replay oracle found {} violation(s)",
            oracle_failures.len()
        );
        std::process::exit(1);
    }
    println!("chaos: done in {total_wall_ms} ms");
}
