//! Overload sweep (DESIGN.md §15): the strategy panel under correlated
//! overload scenarios, with and without the deadline-aware overload
//! control layer.
//!
//! The grid crosses every fault scenario — the chaos sweep's eight plus
//! the two *correlated* scenarios ([`FaultScenario::correlated`]:
//! flash crowd, cascading squeeze) that deliberately stay out of the
//! chaos grid — with a four-row panel {BP, PBPL, PBPL(degraded),
//! PBPL(overload)} at the chaos point (M = 5 on 2 cores, B₀ = 25).
//! One extra point re-runs the flash crowd at fleet scale: the scaling
//! sweep's m100 geometry (100 pairs on 10 cores) on the planet
//! workload, where the supervisor's fleet-wide escalation actually has
//! a fleet to escalate over.
//!
//! `PBPL(overload)` is vanilla PBPL plus [`pc_core::OverloadConfig::standard`] —
//! overload control is an experiment knob orthogonal to the strategy,
//! and the label alone is the complete recipe (`replay` rebuilds such
//! cells from it; see `replay::label_overloaded`). Every cell is traced
//! internally and replayed through the extended oracle; the shed ledger
//! (`produced == consumed + shed`, every `ItemShed` inside a paired
//! overload window whose `OverloadCleared.shed` matches) must hold for
//! every cell, and shed must be exactly zero on the three rows that run
//! without overload control — the sweep runner's gates, which every
//! family's cells pass.

use crate::chaos::CHAOS_POINT;
use crate::exp::Protocol;
use crate::replay::fault_plan;
use crate::sweep::{Block, CellRun, Family, GridPoint};
use pc_core::StrategyKind;
use pc_faults::FaultScenario;
use serde::Serialize;

/// The four-row panel: plain batching, vanilla PBPL, PBPL with the
/// degradation watchdog, and PBPL under overload control.
pub(crate) fn overload_panel() -> Vec<(StrategyKind, bool)> {
    vec![
        (StrategyKind::Bp, false),
        (StrategyKind::pbpl_default(), false),
        (StrategyKind::pbpl_degraded(), false),
        (StrategyKind::pbpl_default(), true),
    ]
}

/// The overload grid: the chaos point under the two correlated
/// scenarios then the chaos sweep's full eight (baseline included — the
/// control rows), one block each (`overload_{scenario}`); then the
/// flash crowd at the scaling sweep's m100 geometry (100 pairs on 10
/// cores) on the planet workload (`overload_flash_crowd_m100`).
pub fn blocks(protocol: &Protocol) -> Vec<Block> {
    let chaos_point = FaultScenario::correlated()
        .into_iter()
        .chain(FaultScenario::all())
        .map(|scenario| Block {
            experiment: format!("overload_{}", scenario.name()),
            point: CHAOS_POINT,
            workload: protocol.worldcup_workload(),
            scenario: scenario.name(),
            strategies: overload_panel(),
        });
    let planet_m100 = Block {
        experiment: "overload_flash_crowd_m100".to_string(),
        point: GridPoint {
            pairs: 100,
            cores: 10,
            buffer: 25,
        },
        workload: protocol.planet_workload(),
        scenario: FaultScenario::FlashCrowd.name(),
        strategies: overload_panel(),
    };
    chaos_point.chain([planet_m100]).collect()
}

/// One row of `results/overload.json`: cell identity, the determinism
/// currency (energy bits, digest), and the shed/deadline accounting.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct OverloadCellReport {
    /// Exact-match filter name (`{scenario}/{strategy}`).
    pub cell: String,
    /// Panel row label (`PBPL(overload)` tags the overload knob).
    pub strategy: String,
    /// Scenario name (the pure name — `@m100` lives in `cell` only).
    pub scenario: String,
    /// Pairs (the paper's M).
    pub pairs: u64,
    /// Cores.
    pub cores: u64,
    /// Per-consumer base buffer capacity.
    pub buffer: u64,
    /// Seed the cell ran under.
    pub seed: u64,
    /// Faults in the expanded plan.
    pub plan_faults: usize,
    /// Raw bits of the energy reading (exact-equality currency).
    pub energy_j_bits: u64,
    /// Energy reading for human eyes.
    pub energy_j: f64,
    /// Items produced over the run (shed items included).
    pub items_produced: u64,
    /// Items consumed.
    pub items_consumed: u64,
    /// Arrivals rejected by the admission controller; always 0 on the
    /// non-overload rows, and `produced == consumed + shed` everywhere.
    pub items_shed: u64,
    /// Shed share of production, percent.
    pub shed_pct: f64,
    /// Overload windows entered across the fleet (admission trips plus
    /// supervisor escalations).
    pub overload_windows: u64,
    /// Consumed items that missed the overload deadline (counted only
    /// on overload rows — the deadline is undefined otherwise).
    pub deadline_misses: u64,
    /// Consumer wakeups charged by the power model.
    pub wakeups: u64,
    /// Scheduled (timer) wakeups.
    pub scheduled_wakeups: u64,
    /// Overflow-forced wakeups.
    pub overflow_wakeups: u64,
    /// Events the cell's recorder captured.
    pub trace_events: u64,
    /// FNV-1a digest of the cell's event stream.
    pub trace_digest: u64,
}

impl OverloadCellReport {
    /// The row of one executed (always recorded) cell.
    pub fn of(run: &CellRun) -> OverloadCellReport {
        let (meta, metrics) = (&run.meta, &run.metrics);
        let shed_pct = if metrics.items_produced == 0 {
            0.0
        } else {
            metrics.items_shed as f64 / metrics.items_produced as f64 * 100.0
        };
        OverloadCellReport {
            cell: Family::Overload.cell_name(meta),
            strategy: meta.strategy.clone(),
            scenario: meta.scenario.clone(),
            pairs: meta.pairs,
            cores: meta.cores,
            buffer: meta.buffer,
            seed: meta.seed,
            plan_faults: fault_plan(meta).expect("overload cells replay").len(),
            energy_j_bits: metrics.energy.energy_j.to_bits(),
            energy_j: metrics.energy.energy_j,
            items_produced: metrics.items_produced,
            items_consumed: metrics.items_consumed,
            items_shed: metrics.items_shed,
            shed_pct,
            overload_windows: metrics.pairs.iter().map(|p| p.overload_windows).sum(),
            deadline_misses: metrics.deadline_misses(),
            wakeups: metrics.energy.wakeups,
            scheduled_wakeups: metrics.scheduled_wakeups(),
            overflow_wakeups: metrics.overflow_wakeups(),
            trace_events: meta.events,
            trace_digest: meta.digest,
        }
    }
}

/// `results/overload.json`.
#[derive(Serialize)]
pub struct OverloadReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    cells: Vec<OverloadCellReport>,
}

/// Prints the shed table and builds `results/overload.json`.
pub fn report(protocol: &Protocol, runs: &[CellRun]) -> OverloadReport {
    let cells: Vec<OverloadCellReport> = runs.iter().map(OverloadCellReport::of).collect();
    println!(
        "{:<40} {:>9} {:>8} {:>7} {:>8} {:>7} {:>8}",
        "cell", "items", "shed", "shed%", "windows", "misses", "wakeups"
    );
    for row in &cells {
        println!(
            "{:<40} {:>9} {:>8} {:>6.2}% {:>8} {:>7} {:>8}",
            row.cell,
            row.items_consumed,
            row.items_shed,
            row.shed_pct,
            row.overload_windows,
            row.deadline_misses,
            row.wakeups
        );
    }
    OverloadReport {
        schema_version: 1,
        duration_ms: protocol.duration.as_nanos() / 1_000_000,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        trace_mean_rate: protocol.trace.mean_rate,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::quick_protocol;
    use crate::sweep::{execute, CellRun};
    use pc_trace_events::TraceEvent;

    /// Long enough for a flash-crowd window (~30–55% of the horizon) to
    /// build service lag past the 50 ms standard deadline on a
    /// saturated core.
    const HORIZON_MS: u64 = 400;

    fn run(names: &[&str]) -> Vec<CellRun> {
        let p = quick_protocol(HORIZON_MS, 1, 2);
        let cells: Vec<_> = Family::Overload
            .cells(&p)
            .into_iter()
            .filter(|c| names.contains(&Family::Overload.cell_name(c).as_str()))
            .collect();
        assert_eq!(cells.len(), names.len());
        execute(&p, &cells, true).0
    }

    #[test]
    fn grid_is_ten_scenarios_by_four_rows_plus_the_m100_block() {
        let cells = Family::Overload.cells(&quick_protocol(HORIZON_MS, 1, 1));
        assert_eq!(cells.len(), 10 * 4 + 4);
        assert_eq!(cells[0].scenario, "flash_crowd");
        assert_eq!(cells[0].pairs, 5);
        assert!(cells[40..].iter().all(|c| c.pairs == 100
            && c.scenario == "flash_crowd"
            && c.workload == "planet_quick"));
    }

    #[test]
    fn flash_crowd_sheds_under_overload_control_only() {
        let runs = run(&["flash_crowd/PBPL(overload)", "flash_crowd/PBPL"]);
        let (overloaded, vanilla) = (&runs[1], &runs[0]);
        let m = &overloaded.metrics;
        assert!(m.items_shed > 0, "flash crowd must trip admission");
        assert_eq!(m.items_produced, m.items_consumed + m.items_shed);
        let log = overloaded.log.as_ref().unwrap();
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEvent::ItemShed { .. })));
        // The same cell without the knob sheds nothing.
        assert_eq!(vanilla.metrics.items_shed, 0);
        assert_eq!(
            vanilla.metrics.items_produced,
            vanilla.metrics.items_consumed
        );
        for run in &runs {
            assert_eq!(run.gate_failures(), Vec::<String>::new());
        }
    }

    #[test]
    fn every_panel_row_runs_clean_under_the_correlated_scenarios() {
        let mut names = Vec::new();
        for scenario in FaultScenario::correlated() {
            for (strategy, overload) in overload_panel() {
                names.push(format!(
                    "{}/{}",
                    scenario.name(),
                    crate::replay::label(&strategy, overload)
                ));
            }
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        for run in run(&names) {
            let m = &run.metrics;
            assert_eq!(
                m.items_produced,
                m.items_consumed + m.items_shed,
                "{}",
                run.meta.label()
            );
            assert_eq!(run.gate_failures(), Vec::<String>::new());
        }
    }
}
