//! Unified suite runner — every figure/table experiment in one binary,
//! executed on the parallel sweep engine.
//!
//! ```text
//! cargo run --release -p pc-bench --bin suite -- [--filter SUBSTR]...
//!     [--threads N] [--trace] [--list]
//! ```
//!
//! Writes two files under `results/`:
//!
//! * `suite.json` — schema-versioned, per-cell metrics with the energy
//!   reading as raw `f64` bits. **Byte-identical for any `--threads`
//!   value at the same seed** — the CI determinism gate runs the suite
//!   twice (`--threads 4`, then `--threads 1`) and fails the build on
//!   any byte difference. Nothing timing- or thread-dependent may ever
//!   be added to this file.
//! * `BENCH_suite.json` — wall-clock per experiment and thread count.
//!   Timing lives here precisely so it stays *out* of `suite.json`.
//!
//! With `--trace`, every cell additionally records a structured event
//! trace: the streams are exported to `results/suite_trace.jsonl` (a
//! `CellMeta` header line then the cell's events, in canonical cell
//! order — thread-count independent like everything else) and each cell
//! is checked by the replay oracle (`pc_bench::oracle`); any violation
//! fails the run. Recording is purely observational, so `suite.json` is
//! byte-identical with and without `--trace` — the determinism gate
//! checks that too.
//!
//! `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`, `PC_THREADS` and
//! `PC_TRACE_CAP` apply as everywhere else; `--threads` overrides
//! `PC_THREADS`.

use pc_bench::exp::{
    evaluated_strategies, print_header, print_row, save_json, single_pc_strategies, Protocol, Row,
};
use pc_bench::oracle::{self, CellMeta};
use pc_bench::replay;
use pc_bench::sweep::{
    execute_costed, execute_traced_costed, CellSpec, CellTiming, GridPoint, SweepSpec,
};
use pc_core::{PbplConfig, StrategyKind};
use pc_sim::SimDuration;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

/// One named experiment: a sweep spec under a figure/table name.
struct ExperimentDef {
    name: &'static str,
    spec: SweepSpec,
}

/// Everything the suite runs, in fixed order.
fn experiments(protocol: &Protocol) -> Vec<ExperimentDef> {
    let mean_rate = protocol.trace.mean_rate;
    let evaluated = evaluated_strategies();

    // Fig. 3/4's seven single-pair strategies, plus the §III-C jitter
    // sweep (PBP/SPBP with the period tightened toward the nanosleep
    // jitter scale).
    let mut single = single_pc_strategies(50, mean_rate);
    for period_ms in [27u64, 9, 3] {
        let period = SimDuration::from_millis(period_ms);
        single.push(StrategyKind::Pbp { period });
        single.push(StrategyKind::Spbp { period });
    }

    vec![
        ExperimentDef {
            name: "fig03_04_single_pc",
            spec: SweepSpec {
                strategies: single,
                points: vec![GridPoint {
                    pairs: 1,
                    cores: 1,
                    buffer: 50,
                }],
            },
        },
        ExperimentDef {
            name: "fig09_five_consumers",
            spec: SweepSpec {
                strategies: evaluated.clone(),
                points: vec![GridPoint {
                    pairs: 5,
                    cores: 2,
                    buffer: 25,
                }],
            },
        },
        ExperimentDef {
            name: "fig10_consumer_sweep",
            spec: SweepSpec {
                strategies: evaluated,
                points: [2usize, 5, 10]
                    .iter()
                    .map(|&pairs| GridPoint {
                        pairs,
                        cores: 2,
                        buffer: 25,
                    })
                    .collect(),
            },
        },
        ExperimentDef {
            name: "fig11_buffer_sweep",
            spec: SweepSpec {
                strategies: vec![StrategyKind::Bp, StrategyKind::pbpl_default()],
                points: [25usize, 50, 100]
                    .iter()
                    .map(|&buffer| GridPoint {
                        pairs: 5,
                        cores: 2,
                        buffer,
                    })
                    .collect(),
            },
        },
        ExperimentDef {
            name: "table_overflows",
            spec: SweepSpec {
                strategies: vec![StrategyKind::Bp, StrategyKind::pbpl_default()],
                points: vec![GridPoint {
                    pairs: 5,
                    cores: 2,
                    buffer: 50,
                }],
            },
        },
        ExperimentDef {
            name: "table_buffer_usage",
            spec: SweepSpec {
                strategies: vec![
                    StrategyKind::pbpl_default(),
                    StrategyKind::Pbpl(PbplConfig {
                        resizing: false,
                        ..PbplConfig::default()
                    }),
                ],
                points: vec![GridPoint {
                    pairs: 5,
                    cores: 2,
                    buffer: 50,
                }],
            },
        },
    ]
}

/// Display label disambiguating parameterised strategies within an
/// experiment (periods in µs; fixed-capacity PBPL variant tagged).
fn strategy_label(strategy: &StrategyKind) -> String {
    match strategy {
        StrategyKind::Pbp { period } => format!("PBP@{}us", period.as_nanos() / 1_000),
        StrategyKind::Spbp { period } => format!("SPBP@{}us", period.as_nanos() / 1_000),
        StrategyKind::Pbpl(cfg) if !cfg.resizing => "PBPL(fixed)".to_string(),
        other => other.name().to_string(),
    }
}

#[derive(Serialize)]
struct CellReport {
    strategy: String,
    pairs: usize,
    cores: usize,
    buffer: usize,
    seed: u64,
    /// Raw bits of the energy reading — the exact-equality currency of
    /// the determinism contract (never compare the float itself).
    energy_j_bits: u64,
    energy_j: f64,
    items_produced: u64,
    items_consumed: u64,
    wakeups: u64,
    scheduled_wakeups: u64,
    overflow_wakeups: u64,
    slot_fires: u64,
    mean_capacity: f64,
    mean_latency_us: f64,
}

#[derive(Serialize)]
struct ExperimentReport {
    name: String,
    cells: Vec<CellReport>,
}

#[derive(Serialize)]
struct SuiteReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    experiments: Vec<ExperimentReport>,
}

#[derive(Serialize)]
struct ExperimentTiming {
    name: String,
    cells: usize,
    wall_ms: u64,
    /// Worker busy share over this experiment's dispatch interval
    /// (Σ busy / (threads × wall); 1.0 = no idle worker).
    utilization: f64,
    /// Per-worker busy milliseconds for this experiment's dispatch.
    worker_busy_ms: Vec<u64>,
    /// Per-cell wall time + deterministic scheduler counters.
    cell_timings: Vec<CellTiming>,
}

#[derive(Serialize)]
struct SuiteTiming {
    /// v2: added `filters`, per-experiment `utilization` /
    /// `worker_busy_ms` / `cell_timings` (scheduler counters).
    /// v3: `QueueStats` gained the arrival-calendar counters
    /// (`arrivals_scheduled` / `arrivals_popped`) and
    /// `pending_at_teardown` (DESIGN.md §14).
    /// v4: `QueueStats` gained `items_shed` (overload control,
    /// DESIGN.md §15; zero whenever the layer is disabled — always,
    /// for the suite's paper-default cells).
    schema_version: u32,
    threads: usize,
    /// Active `--filter` values (empty = full suite), so a checked-in
    /// sidecar can never masquerade as a full run.
    filters: Vec<String>,
    total_wall_ms: u64,
    experiments: Vec<ExperimentTiming>,
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
                    "usage: suite [--filter SUBSTR]... [--threads N] [--trace] [--list]\n\
                     \n\
                     Runs every figure/table experiment on the parallel sweep\n\
                     engine and writes results/suite.json (deterministic) and\n\
                     results/BENCH_suite.json (timings). --filter keeps only\n\
                     experiments whose name contains SUBSTR (repeatable, OR).\n\
                     --trace records per-cell event streams, replays the\n\
                     oracle over each (violations fail the run) and exports\n\
                     results/suite_trace.jsonl; suite.json is unaffected.\n\
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
    eprintln!("suite: {msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let options = parse_args();
    let mut protocol = Protocol::from_env();
    if let Some(threads) = options.threads {
        protocol.threads = threads;
    }

    let selected: Vec<ExperimentDef> = experiments(&protocol)
        .into_iter()
        .filter(|e| {
            options.filters.is_empty()
                || options.filters.iter().any(|f| e.name.contains(f.as_str()))
        })
        .collect();

    if options.list {
        for e in &selected {
            println!(
                "{:<22} {:>3} cells",
                e.name,
                e.spec.cells(protocol.replicates).len()
            );
        }
        return;
    }
    if selected.is_empty() {
        die("no experiment matches the given --filter");
    }

    let duration_ms = protocol.duration.as_nanos() / 1_000_000;
    println!(
        "suite: {} experiment(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s)",
        selected.len(),
        duration_ms,
        protocol.replicates,
        protocol.base_seed,
        protocol.threads
    );

    // JSONL trace export, opened up front so an unwritable results dir
    // fails before an hour of simulation, written incrementally in the
    // engine's canonical cell order (thread-count independent).
    let mut trace_out = if options.trace {
        std::fs::create_dir_all("results")
            .unwrap_or_else(|e| die(&format!("cannot create results dir: {e}")));
        let path = std::path::Path::new("results").join("suite_trace.jsonl");
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        Some((path, std::io::BufWriter::new(file)))
    } else {
        None
    };
    let mut oracle_failures: Vec<String> = Vec::new();
    let mut traced_events: u64 = 0;

    let suite_start = Instant::now();
    let mut reports = Vec::new();
    let mut timings = Vec::new();
    for def in &selected {
        let cells = def.spec.cells(protocol.replicates);
        let started = Instant::now();
        let (runs, logs, dispatch) = if options.trace {
            let (traced, dispatch) = execute_traced_costed(&protocol, &cells, protocol.threads);
            let mut runs = Vec::with_capacity(traced.len());
            let mut logs = Vec::with_capacity(traced.len());
            for (m, log) in traced {
                runs.push(m);
                logs.push(log);
            }
            (runs, logs, dispatch)
        } else {
            let (runs, dispatch) = execute_costed(&protocol, &cells, protocol.threads);
            (runs, Vec::new(), dispatch)
        };
        let wall_ms = started.elapsed().as_millis() as u64;

        if let Some((path, out)) = trace_out.as_mut() {
            for (cell, log) in cells.iter().zip(&logs) {
                let meta = CellMeta {
                    experiment: def.name.to_string(),
                    strategy: strategy_label(&cell.strategy),
                    pairs: cell.point.pairs as u64,
                    cores: cell.point.cores as u64,
                    buffer: cell.point.buffer as u64,
                    seed: protocol.base_seed + cell.replicate as u64,
                    duration_ns: protocol.duration.as_nanos(),
                    workload: replay::worldcup_workload_label(&protocol.trace)
                        .unwrap_or_else(|| {
                            die("trace config matches no named workload — unreplayable")
                        })
                        .to_string(),
                    scenario: String::new(),
                    period_ns: oracle::strategy_period_ns(&cell.strategy),
                    events: log.events.len() as u64,
                    dropped: log.dropped,
                    digest: log.digest(),
                };
                let label = format!(
                    "{} {} M={} B={} seed={}",
                    def.name, meta.strategy, meta.pairs, meta.buffer, meta.seed
                );
                oracle::write_cell(out, &meta, &log.events)
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
                traced_events += log.events.len() as u64;
                let report = oracle::check(log);
                for violation in report.violations {
                    oracle_failures.push(format!("{label}: {violation}"));
                }
            }
        }

        // Per-configuration summary table, replicates grouped in the
        // engine's canonical cell order.
        print_header(def.name);
        for (chunk_index, group) in runs.chunks(protocol.replicates).enumerate() {
            let cell = &cells[chunk_index * protocol.replicates];
            let mut row = Row::from_runs(group);
            row.name = format!(
                "{} M={} B={}",
                strategy_label(&cell.strategy),
                cell.point.pairs,
                cell.point.buffer
            );
            print_row(&row);
        }

        reports.push(ExperimentReport {
            name: def.name.to_string(),
            cells: cells
                .iter()
                .zip(&runs)
                .map(|(cell, m)| cell_report(&protocol, cell, m))
                .collect(),
        });
        timings.push(ExperimentTiming {
            name: def.name.to_string(),
            cells: cells.len(),
            wall_ms,
            utilization: dispatch.utilization(wall_ms),
            worker_busy_ms: dispatch.worker_busy_ms.clone(),
            cell_timings: cells
                .iter()
                .zip(&runs)
                .zip(&dispatch.cell_wall_ms)
                .map(|((cell, m), &cell_wall)| CellTiming {
                    cell: format!(
                        "{} M={} B={} seed={}",
                        strategy_label(&cell.strategy),
                        cell.point.pairs,
                        cell.point.buffer,
                        protocol.base_seed + cell.replicate as u64
                    ),
                    wall_ms: cell_wall,
                    scheduler: {
                        // Closed scheduler ledger: scheduled events are
                        // popped, cancelled, or pending at teardown —
                        // nothing may vanish silently (DESIGN.md §14).
                        assert!(
                            m.scheduler.ledger_balanced(),
                            "scheduler ledger out of balance: {:?}",
                            m.scheduler
                        );
                        m.scheduler
                    },
                })
                .collect(),
        });
    }

    let report = SuiteReport {
        schema_version: 1,
        duration_ms,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        trace_mean_rate: protocol.trace.mean_rate,
        experiments: reports,
    };
    save_json("suite", &report);

    let total_wall_ms = suite_start.elapsed().as_millis() as u64;
    save_json(
        "BENCH_suite",
        &SuiteTiming {
            schema_version: 4,
            threads: protocol.threads,
            filters: options.filters.clone(),
            total_wall_ms,
            experiments: timings,
        },
    );

    if let Some((path, mut out)) = trace_out {
        out.flush()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("[saved {}] ({traced_events} events)", path.display());
        if oracle_failures.is_empty() {
            println!("suite: replay oracle clean over {traced_events} events");
        } else {
            for failure in &oracle_failures {
                eprintln!("suite: ORACLE VIOLATION: {failure}");
            }
            eprintln!(
                "suite: replay oracle found {} violation(s)",
                oracle_failures.len()
            );
            std::process::exit(1);
        }
    }
    println!("suite: done in {total_wall_ms} ms");
}

fn cell_report(protocol: &Protocol, cell: &CellSpec, m: &pc_core::RunMetrics) -> CellReport {
    CellReport {
        strategy: strategy_label(&cell.strategy),
        pairs: cell.point.pairs,
        cores: cell.point.cores,
        buffer: cell.point.buffer,
        seed: protocol.base_seed + cell.replicate as u64,
        energy_j_bits: m.energy.energy_j.to_bits(),
        energy_j: m.energy.energy_j,
        items_produced: m.items_produced,
        items_consumed: m.items_consumed,
        wakeups: m.energy.wakeups,
        scheduled_wakeups: m.scheduled_wakeups(),
        overflow_wakeups: m.overflow_wakeups(),
        slot_fires: m.slot_fires,
        mean_capacity: m.mean_capacity(),
        mean_latency_us: m.mean_latency().as_secs_f64() * 1e6,
    }
}
