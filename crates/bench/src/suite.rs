//! The suite family: every paper figure and table (§III, §VI) as one
//! grid, with each experiment's comparison against the paper printed
//! from the rows it already builds.
//!
//! `results/suite.json` holds only per-cell metrics; the paper
//! comparisons below go to stdout, never into the file.

use crate::exp::{
    evaluated_strategies, pct_change, print_header, row, single_pc_strategies, Protocol, Row,
};
use crate::oracle::CellMeta;
use crate::sweep::{configurations, print_rows, Block, CellReport, CellRun, GridPoint};
use pc_core::{PbplConfig, RunMetrics, StrategyKind};
use pc_sim::SimDuration;
use pc_stats::{paired_t_test, ConfidenceLevel};
use serde::Serialize;

/// The §III-C jitter sweep's periods: PBP/SPBP with the period
/// tightened toward the ~2 ms nanosleep jitter scale.
const JITTER_PERIODS_MS: [u64; 3] = [27, 9, 3];

/// Every experiment of the suite, in fixed order; an experiment with
/// several grid points is one block per point.
pub fn blocks(protocol: &Protocol) -> Vec<Block> {
    let evaluated = evaluated_strategies();
    let batchers = vec![StrategyKind::Bp, StrategyKind::pbpl_default()];
    // Fig. 3/4's seven single-pair strategies plus the jitter sweep.
    let mut single = single_pc_strategies(50, protocol.trace.mean_rate);
    for period_ms in JITTER_PERIODS_MS {
        let period = SimDuration::from_millis(period_ms);
        single.push(StrategyKind::Pbp { period });
        single.push(StrategyKind::Spbp { period });
    }
    let fixed = StrategyKind::Pbpl(PbplConfig {
        resizing: false,
        ..PbplConfig::default()
    });
    let point = |pairs, cores, buffer| GridPoint {
        pairs,
        cores,
        buffer,
    };
    let experiments = [
        ("fig03_04_single_pc", single, vec![point(1, 1, 50)]),
        (
            "fig09_five_consumers",
            evaluated.clone(),
            vec![point(5, 2, 25)],
        ),
        (
            "fig10_consumer_sweep",
            evaluated,
            [2, 5, 10].map(|m| point(m, 2, 25)).to_vec(),
        ),
        (
            "fig11_buffer_sweep",
            batchers.clone(),
            [25, 50, 100].map(|b| point(5, 2, b)).to_vec(),
        ),
        ("table_overflows", batchers, vec![point(5, 2, 50)]),
        (
            "table_buffer_usage",
            vec![StrategyKind::pbpl_default(), fixed],
            vec![point(5, 2, 50)],
        ),
    ];
    let workload = protocol.worldcup_workload();
    experiments
        .into_iter()
        .flat_map(|(name, strategies, points)| {
            points.into_iter().map(move |point| Block {
                experiment: name.to_string(),
                point,
                workload,
                scenario: "",
                strategies: strategies.iter().map(|s| (s.clone(), false)).collect(),
            })
        })
        .collect()
}

/// One experiment of `results/suite.json`.
#[derive(Serialize)]
pub(crate) struct ExperimentReport {
    name: String,
    cells: Vec<CellReport>,
}

/// `results/suite.json`.
#[derive(Serialize)]
pub struct SuiteReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    experiments: Vec<ExperimentReport>,
}

/// Prints every experiment's table and paper comparison, and builds
/// `results/suite.json`.
pub fn report(protocol: &Protocol, runs: &[CellRun]) -> SuiteReport {
    print(runs);
    SuiteReport {
        schema_version: 1,
        duration_ms: protocol.duration.as_nanos() / 1_000_000,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        trace_mean_rate: protocol.trace.mean_rate,
        experiments: experiments(runs)
            .map(|cells| ExperimentReport {
                name: cells[0].meta.experiment.clone(),
                cells: cells.iter().map(CellReport::of).collect(),
            })
            .collect(),
    }
}

fn experiments(runs: &[CellRun]) -> impl Iterator<Item = &[CellRun]> {
    runs.chunk_by(|a, b| a.meta.experiment == b.meta.experiment)
}

/// Prints each experiment's metric table and its paper comparison.
fn print(runs: &[CellRun]) {
    for cells in experiments(runs) {
        let name = &cells[0].meta.experiment;
        print_header(name);
        print_rows(cells);
        let rows: Vec<(&CellMeta, Row, Vec<RunMetrics>)> = configurations(cells)
            .into_iter()
            .map(|(meta, runs)| {
                let mut row = Row::from_runs(&runs);
                row.name = meta.strategy.clone();
                (meta, row, runs)
            })
            .collect();
        summary(name, &rows);
    }
}

/// The rows at one grid point, in strategy order.
fn at(rows: &[(&CellMeta, Row, Vec<RunMetrics>)], pairs: u64, buffer: u64) -> Vec<Row> {
    rows.iter()
        .filter(|(m, _, _)| m.pairs == pairs && m.buffer == buffer)
        .map(|(_, r, _)| r.clone())
        .collect()
}

/// Signed percentage change of one metric of `ours` against each of
/// `baselines`, e.g. `vs Mutex -20.1%   vs BP -7.3%`.
fn versus(rows: &[Row], ours: &str, baselines: &[&str], metric: fn(&Row) -> f64) -> String {
    baselines
        .iter()
        .map(|b| {
            let change = pct_change(metric(row(rows, ours)), metric(row(rows, b)));
            format!("vs {b} {change:+.1}%")
        })
        .collect::<Vec<_>>()
        .join("   ")
}

fn power(r: &Row) -> f64 {
    r.power_mw.mean
}

fn wakeups(r: &Row) -> f64 {
    r.wakeups_per_sec.mean
}

fn ordering(rows: &[Row], metric: fn(&Row) -> f64) -> String {
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by(|a, b| metric(a).total_cmp(&metric(b)));
    sorted
        .iter()
        .map(|r| r.name.as_str())
        .collect::<Vec<_>>()
        .join(" < ")
}

/// Prints how one experiment's rows compare with the paper's claims.
/// Experiments the grid was filtered down from print nothing extra.
fn summary(experiment: &str, rows: &[(&CellMeta, Row, Vec<RunMetrics>)]) {
    let all: Vec<Row> = rows.iter().map(|(_, r, _)| r.clone()).collect();
    match experiment {
        "fig03_04_single_pc" => {
            // The first PBP/SPBP rows run at the buffer-fill period; the
            // jitter sweep's follow.
            let first = |prefix: &str| {
                all.iter()
                    .find(|r| r.name.starts_with(prefix))
                    .expect("periodic row")
            };
            let (pbp, spbp) = (first("PBP@"), first("SPBP@"));
            let batch_best = [row(&all, "BP"), pbp, spbp]
                .iter()
                .map(|r| r.power_mw.mean)
                .fold(f64::INFINITY, f64::min);
            let (bw, mutex) = (power(row(&all, "BW")), power(row(&all, "Mutex")));
            println!("--- §III (paper: batch ≈ −80% vs BW, ≈ −33% vs Mutex) ---");
            println!(
                "Yield vs BW power:      {:+.1}%",
                pct_change(power(row(&all, "Yield")), bw)
            );
            println!(
                "best batcher vs BW:     {:+.1}%",
                pct_change(batch_best, bw)
            );
            println!(
                "best batcher vs Mutex:  {:+.1}%",
                pct_change(batch_best, mutex)
            );
            println!(
                "Sem vs Mutex power:     {:+.1}%",
                pct_change(power(row(&all, "Sem")), mutex)
            );
            println!(
                "PBP vs SPBP overflows:  {:.0} vs {:.0}",
                pbp.overflows.mean, spbp.overflows.mean
            );
            println!("--- §III-C: PBP vs SPBP as the period tightens toward the jitter scale ---");
            for period_ms in JITTER_PERIODS_MS {
                let [p, s] =
                    ["PBP", "SPBP"].map(|n| row(&all, &format!("{n}@{}us", period_ms * 1000)));
                println!(
                    "{period_ms:>3} ms: PBP {:>7.0} ovfl / {:>7.1} wk/s | SPBP {:>7.0} ovfl / {:>7.1} wk/s",
                    p.overflows.mean,
                    p.wakeups_per_sec.mean,
                    s.overflows.mean,
                    s.wakeups_per_sec.mean
                );
            }
        }
        "fig09_five_consumers" => {
            println!(
                "--- PBPL (paper: −39.5% wakeups / −20% power vs Mutex; −37.8% / −7.4% vs BP) ---"
            );
            println!(
                "wakeups: {}",
                versus(&all, "PBPL", &["Mutex", "Sem", "BP"], wakeups)
            );
            println!(
                "power:   {}",
                versus(&all, "PBPL", &["Mutex", "Sem", "BP"], power)
            );
            // Replicate k of every strategy saw the identical trace, so
            // the per-seed differences carry the signal the overlapping
            // CIs hide at n = 3.
            println!("--- paired t-tests on per-seed power (95%) ---");
            for (a, b) in [
                ("PBPL", "BP"),
                ("PBPL", "Mutex"),
                ("BP", "Mutex"),
                ("Sem", "Mutex"),
            ] {
                let samples = |n: &str| row(&all, n).power_mw.samples.clone();
                match paired_t_test(&samples(a), &samples(b), ConfidenceLevel::P95) {
                    Some(t) => println!(
                        "{a} − {b}: mean Δ {:+.1} mW, t = {:+.2} → {}",
                        t.mean_difference,
                        t.t_statistic,
                        if t.significant {
                            "significant"
                        } else {
                            "not significant"
                        }
                    ),
                    None => println!("{a} − {b}: test undefined"),
                }
            }
            println!("wakeup ordering: {}", ordering(&all, wakeups));
            println!("power ordering:  {}", ordering(&all, power));
        }
        "fig10_consumer_sweep" => {
            println!("--- PBPL power by consumer count (paper: −7.5%, −20%, −30% vs Mutex) ---");
            for pairs in [2, 5, 10] {
                let rows = at(rows, pairs, 25);
                println!(
                    "M = {pairs:>2}: {}",
                    versus(&rows, "PBPL", &["Mutex", "Sem", "BP"], power)
                );
            }
            println!("--- power trend with M (paper: increases for all) ---");
            for name in ["Mutex", "Sem", "BP", "PBPL"] {
                let series: Vec<String> = [2, 5, 10]
                    .map(|pairs| format!("{:.0}", power(row(&at(rows, pairs, 25), name))))
                    .to_vec();
                println!("{name:>6}: {} mW at M = 2/5/10", series.join(" → "));
            }
        }
        "fig11_buffer_sweep" => {
            println!(
                "--- PBPL vs BP by buffer size (paper: both drop with B; the gap narrows) ---"
            );
            for buffer in [25, 50, 100] {
                let rows = at(rows, 5, buffer);
                println!(
                    "B = {buffer:>3}: power {}   wakeups {}",
                    versus(&rows, "PBPL", &["BP"], power),
                    versus(&rows, "PBPL", &["BP"], wakeups)
                );
            }
        }
        "table_overflows" => {
            let (bp, pbpl) = (row(&all, "BP"), row(&all, "PBPL"));
            println!("--- §VI-C wakeup accounting (paper: BP 9290 overflows; PBPL 1626, 82.5% converted) ---");
            println!(
                "BP overflows {:.0}; PBPL overflows {:.0}, scheduled invocations {:.0}",
                bp.overflows.mean, pbpl.overflows.mean, pbpl.scheduled.mean
            );
            println!(
                "overflow conversion: {:.1}%",
                (1.0 - pbpl.overflows.mean / bp.overflows.mean) * 100.0
            );
        }
        "table_buffer_usage" => {
            let (resizing, fixed) = (row(&all, "PBPL"), row(&all, "PBPL(fixed)"));
            let runs = &rows
                .iter()
                .find(|(m, _, _)| m.strategy == "PBPL")
                .expect("PBPL row")
                .2;
            let mean_batch = runs
                .iter()
                .map(|m| {
                    let (items, samples) = m
                        .pairs
                        .iter()
                        .fold((0, 0), |(a, b), p| (a + p.occupancy_sum, b + p.samples));
                    items as f64 / samples.max(1) as f64
                })
                .sum::<f64>()
                / runs.len() as f64;
            println!("--- §VI-C buffer usage (paper: PBPL uses 43 of B₀ = 50) ---");
            println!(
                "mean capacity: resizing {:.1}, fixed {:.1}; mean batch at drain {mean_batch:.1}",
                resizing.mean_capacity.mean, fixed.mean_capacity.mean
            );
            println!(
                "overflows: resizing {:.0} vs fixed {:.0}",
                resizing.overflows.mean, fixed.overflows.mean
            );
        }
        _ => {}
    }
}
