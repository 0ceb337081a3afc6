//! Overload sweep runner — the strategy panel under correlated overload
//! scenarios, with and without the deadline-aware overload control
//! layer (DESIGN.md §15).
//!
//! ```text
//! cargo run --release -p pc-bench --bin overload -- [--filter NAME]...
//!     [--threads N] [--trace] [--list]
//! ```
//!
//! Writes two files under `results/`:
//!
//! * `overload.json` — per-cell metrics plus the shed/deadline
//!   accounting (`items_shed`, `shed_pct`, `overload_windows`,
//!   `deadline_misses`). **Byte-identical for any `--threads` value at
//!   the same seed** — the CI determinism gate byte-compares
//!   `--threads 4` against `--threads 1`, exactly like `suite.json`,
//!   and `--trace` must not change the bytes either.
//! * `BENCH_overload.json` — wall-clock and thread count (timings only).
//!
//! Every cell is *always* traced internally and replayed through the
//! extended oracle (`pc_bench::oracle`): item conservation through
//! shedding (`produced == consumed + shed`), paired overload windows
//! with exact per-window shed counts, and pool conservation must hold
//! through every injected fault; any violation fails the run. `--trace`
//! additionally exports the streams to `results/overload_trace.jsonl`
//! in the suite's `CellMeta`/event JSONL format, so `trace_report` can
//! re-verify the export offline and `replay` can re-execute it (the
//! `…(overload)` strategy labels alone carry the overload recipe).
//!
//! `--filter` takes the exact cell name `{scenario}/{strategy}` (the
//! planet-scale block is `{scenario}@m100/{strategy}`), matching the
//! scale runner's exact-name semantics — `--list` prints every name.
//!
//! `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`, `PC_THREADS` and
//! `PC_TRACE_CAP` apply as everywhere else; `--threads` overrides
//! `PC_THREADS`.

use pc_bench::exp::{save_json, Protocol};
use pc_bench::oracle::{self, CellMeta};
use pc_bench::overload::{
    execute_overload_costed, overload_cell_name, overload_cell_report, overload_cells,
    overload_oracle, overload_strategy_label, OverloadCellReport, OverloadCellSpec, OverloadPoint,
};
use pc_bench::replay;
use pc_bench::sweep::CellTiming;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

#[derive(Serialize)]
struct OverloadReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    cells: Vec<OverloadCellReport>,
}

#[derive(Serialize)]
struct OverloadTiming {
    /// v4 from birth: `QueueStats` carries `items_shed` (DESIGN.md §15)
    /// — matching the other sidecars' v4 bump.
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
                    "usage: overload [--filter NAME]... [--threads N] [--trace] [--list]\n\
                     \n\
                     Runs the overload sweep ({{BP, PBPL, PBPL(degraded),\n\
                     PBPL(overload)}} x every fault scenario incl. the\n\
                     correlated flash_crowd / cascading_squeeze, plus a planet\n\
                     m100 flash-crowd block) and writes results/overload.json\n\
                     (deterministic) and results/BENCH_overload.json (timings).\n\
                     --filter keeps cells whose exact name\n\
                     'scenario/strategy' (planet block: 'scenario@m100/strategy')\n\
                     equals NAME (repeatable, OR; --list prints every name).\n\
                     Every cell is traced and replayed through the extended\n\
                     oracle; violations fail the run. --trace exports\n\
                     results/overload_trace.jsonl.\n\
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
    eprintln!("overload: {msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let options = parse_args();
    let mut protocol = Protocol::from_env();
    if let Some(threads) = options.threads {
        protocol.threads = threads;
    }

    // Exact-name filters (scale-runner semantics): several cell names
    // are prefixes of others ("flash_crowd/PBPL" vs
    // "flash_crowd/PBPL(overload)"), so substring matching would make
    // the narrower cell unselectable on its own.
    let cells: Vec<OverloadCellSpec> = overload_cells(protocol.replicates)
        .into_iter()
        .filter(|cell| {
            let name = overload_cell_name(cell);
            options.filters.is_empty() || options.filters.iter().any(|f| name == f.as_str())
        })
        .collect();

    if options.list {
        let mut seen = std::collections::BTreeSet::new();
        for cell in &cells {
            let name = overload_cell_name(cell);
            if seen.insert(name.clone()) {
                println!("{name}");
            }
        }
        return;
    }
    if cells.is_empty() {
        die("no cell matches the given --filter (names are exact; see --list)");
    }

    let duration_ms = protocol.duration.as_nanos() / 1_000_000;
    println!(
        "overload: {} cell(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s)",
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
        let path = std::path::Path::new("results").join("overload_trace.jsonl");
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        Some((path, std::io::BufWriter::new(file)))
    } else {
        None
    };

    let started = Instant::now();
    let (results, dispatch) = execute_overload_costed(&protocol, &cells, protocol.threads);
    let total_wall_ms = started.elapsed().as_millis() as u64;

    let mut oracle_failures: Vec<String> = Vec::new();
    let mut reports = Vec::with_capacity(cells.len());
    println!(
        "{:<24} {:<16} {:>9} {:>8} {:>7} {:>8} {:>7} {:>8}",
        "scenario", "strategy", "items", "shed", "shed%", "windows", "misses", "wakeups"
    );
    for (cell, (metrics, log)) in cells.iter().zip(&results) {
        let seed = protocol.base_seed + cell.replicate as u64;
        let name = overload_cell_name(cell);
        let report = overload_oracle(log);
        for violation in report.violations {
            oracle_failures.push(format!("{name} seed={seed}: {violation}"));
        }
        // The non-overload panel rows must never shed: the layer is
        // opt-in per cell, and a nonzero count here would mean the knob
        // leaked across cells.
        if !cell.overload && metrics.items_shed != 0 {
            oracle_failures.push(format!(
                "{name} seed={seed}: shed {} items with overload control disabled",
                metrics.items_shed
            ));
        }
        let row = overload_cell_report(&protocol, cell, metrics, log);
        println!(
            "{:<24} {:<16} {:>9} {:>8} {:>6.2}% {:>8} {:>7} {:>8}",
            match cell.point {
                OverloadPoint::Chaos => row.scenario.clone(),
                OverloadPoint::PlanetM100 => format!("{}@m100", row.scenario),
            },
            row.strategy,
            row.items_consumed,
            row.items_shed,
            row.shed_pct,
            row.overload_windows,
            row.deadline_misses,
            row.wakeups
        );
        if let Some((path, out)) = trace_out.as_mut() {
            let point = cell.point.grid();
            let meta = CellMeta {
                experiment: match cell.point {
                    OverloadPoint::Chaos => format!("overload_{}", cell.scenario.name()),
                    OverloadPoint::PlanetM100 => {
                        format!("overload_{}_m100", cell.scenario.name())
                    }
                },
                strategy: overload_strategy_label(&cell.strategy, cell.overload),
                pairs: point.pairs as u64,
                cores: point.cores as u64,
                buffer: point.buffer as u64,
                seed,
                duration_ns: protocol.duration.as_nanos(),
                workload: match cell.point {
                    OverloadPoint::Chaos => replay::worldcup_workload_label(&protocol.trace)
                        .unwrap_or_else(|| {
                            die("trace config matches no named workload — unreplayable")
                        })
                        .to_string(),
                    OverloadPoint::PlanetM100 => "planet_scale".to_string(),
                },
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
        "overload",
        &OverloadReport {
            schema_version: 1,
            duration_ms,
            replicates: protocol.replicates,
            base_seed: protocol.base_seed,
            trace_mean_rate: protocol.trace.mean_rate,
            cells: reports,
        },
    );
    save_json(
        "BENCH_overload",
        &OverloadTiming {
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
                    cell: format!(
                        "{} seed={}",
                        overload_cell_name(cell),
                        protocol.base_seed + cell.replicate as u64
                    ),
                    wall_ms: cell_wall,
                    scheduler: {
                        // Closed scheduler ledger — shedding must not
                        // unbalance it (shed items still ride the
                        // arrival calendar; DESIGN.md §14, §15).
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
        println!("overload: replay oracle clean over {events} events");
    } else {
        for failure in &oracle_failures {
            eprintln!("overload: ORACLE VIOLATION: {failure}");
        }
        eprintln!(
            "overload: replay oracle found {} violation(s)",
            oracle_failures.len()
        );
        std::process::exit(1);
    }
    println!("overload: done in {total_wall_ms} ms");
}
