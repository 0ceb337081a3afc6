//! Chaos sweep: every fault scenario crossed with a strategy panel,
//! recovery metrics re-derived from the event trace.
//!
//! A chaos cell is a normal sweep cell plus a fault plan expanded from
//! `(scenario, seed)` (`replay::fault_plan`) — bit-deterministic like everything else, so
//! `results/chaos.json` is byte-identical for any `--threads` value and
//! CI gates it exactly like `suite.json`. Every cell records its event
//! stream (the recovery metrics come from the trace, not the sim's own
//! counters) and is replayed through the extended oracle: item and pool
//! conservation must hold *through* every injected fault.

use crate::exp::Protocol;
use crate::replay::{fault_plan, Condition};
use crate::sweep::{Block, CellRun, GridPoint};
use pc_core::StrategyKind;
use pc_faults::FaultScenario;
use pc_trace_events::{TraceEvent, TraceLog, Trigger};
use serde::Serialize;
use std::collections::BTreeMap;

/// Strategy panel of the chaos sweep: the two item-driven baselines,
/// plain batching, vanilla PBPL, and PBPL with the degradation watchdog.
pub(crate) fn chaos_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::pbpl_default(),
        StrategyKind::pbpl_degraded(),
    ]
}

/// The single grid point every chaos cell runs at (the paper's five
/// consumers on two cores, B₀ = 25 — Fig. 9's configuration).
pub(crate) const CHAOS_POINT: GridPoint = GridPoint {
    pairs: 5,
    cores: 2,
    buffer: 25,
};

/// The chaos grid: one block per fault scenario (`chaos_{scenario}`),
/// each running the whole panel at `CHAOS_POINT`.
pub fn blocks(protocol: &Protocol) -> Vec<Block> {
    FaultScenario::all()
        .into_iter()
        .map(|scenario| Block {
            experiment: format!("chaos_{}", scenario.name()),
            point: CHAOS_POINT,
            workload: protocol.worldcup_workload(),
            scenario: scenario.name(),
            strategies: chaos_strategies()
                .into_iter()
                .map(|s| (s, Condition::Plain))
                .collect(),
        })
        .collect()
}

/// Recovery metrics of one chaos cell, re-derived from its event trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecoveryMetrics {
    /// Faults injected over the run.
    pub faults_injected: u64,
    /// Faults whose window closed (always equals `faults_injected` on a
    /// clean trace — the sim recovers open windows before teardown).
    pub faults_recovered: u64,
    /// Invocations triggered by buffer overflow.
    pub overflow_wakes: u64,
    /// Overflow invocations that *continue* a run — each one immediately
    /// follows another overflow invocation of the same pair with nothing
    /// scheduled in between. This is the sustained-thrashing currency the
    /// degradation watchdog exists to reduce: isolated overflows are a
    /// prediction being caught out once, consecutive ones are the planner
    /// failing to adapt.
    pub consec_overflow_wakes: u64,
    /// Invocations triggered by a reserved slot or periodic timer.
    pub scheduled_wakes: u64,
    /// Longest run of consecutive overflow invocations of any single
    /// pair (the burst a rate shock forces before resizing catches up).
    pub max_overflow_burst: u64,
    /// Worst case, over all fault recoveries, of the sim-time gap from
    /// the `FaultRecovered` event to that run's next scheduled-trigger
    /// invocation — how long the system took to get back onto planned
    /// wakeups. Zero when no fault fired or nothing scheduled followed.
    pub max_recovery_lag_ns: u64,
}

/// Scans a trace for the chaos table's recovery metrics.
pub fn recovery_metrics(log: &TraceLog) -> RecoveryMetrics {
    let mut m = RecoveryMetrics {
        faults_injected: 0,
        faults_recovered: 0,
        overflow_wakes: 0,
        consec_overflow_wakes: 0,
        scheduled_wakes: 0,
        max_overflow_burst: 0,
        max_recovery_lag_ns: 0,
    };
    // pair -> current consecutive-overflow run length.
    let mut bursts: BTreeMap<u32, u64> = BTreeMap::new();
    // Open recovery gaps: time of each FaultRecovered not yet followed
    // by a scheduled invocation.
    let mut open_recoveries: Vec<u64> = Vec::new();
    for ev in &log.events {
        match &ev.kind {
            TraceEvent::FaultInjected { .. } => m.faults_injected += 1,
            TraceEvent::FaultRecovered { .. } => {
                m.faults_recovered += 1;
                open_recoveries.push(ev.t_ns);
            }
            TraceEvent::Invoke { pair, trigger, .. } => match trigger {
                Trigger::Overflow => {
                    m.overflow_wakes += 1;
                    let run = bursts.entry(*pair).or_insert(0);
                    *run += 1;
                    if *run > 1 {
                        m.consec_overflow_wakes += 1;
                    }
                    m.max_overflow_burst = m.max_overflow_burst.max(*run);
                }
                Trigger::Scheduled => {
                    m.scheduled_wakes += 1;
                    bursts.insert(*pair, 0);
                    for t in open_recoveries.drain(..) {
                        m.max_recovery_lag_ns =
                            m.max_recovery_lag_ns.max(ev.t_ns.saturating_sub(t));
                    }
                }
                Trigger::Item => {
                    bursts.insert(*pair, 0);
                }
            },
            _ => {}
        }
    }
    m
}

/// One row of `results/chaos.json`: cell identity, the determinism
/// currency (energy bits, digest), and the recovery metrics.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct ChaosCellReport {
    /// Strategy label (`PBPL(degraded)` tags the watchdog variant).
    pub strategy: String,
    /// Scenario name (stable filter key).
    pub scenario: String,
    /// Seed the cell ran under.
    pub seed: u64,
    /// Faults in the expanded plan.
    pub plan_faults: usize,
    /// Raw bits of the energy reading (exact-equality currency).
    pub energy_j_bits: u64,
    /// Energy reading for human eyes.
    pub energy_j: f64,
    /// Items produced over the run.
    pub items_produced: u64,
    /// Items consumed (== produced on a clean run).
    pub items_consumed: u64,
    /// Consumer wakeups charged by the power model.
    pub wakeups: u64,
    /// Events the cell's recorder captured.
    pub trace_events: u64,
    /// FNV-1a digest of the cell's event stream.
    pub trace_digest: u64,
    /// Recovery metrics derived from the trace.
    pub recovery: RecoveryMetrics,
}

impl ChaosCellReport {
    /// The row of one executed (always recorded) cell.
    pub fn of(run: &CellRun) -> ChaosCellReport {
        let (meta, metrics) = (&run.meta, &run.metrics);
        ChaosCellReport {
            strategy: meta.strategy.clone(),
            scenario: meta.scenario.clone(),
            seed: meta.seed,
            plan_faults: fault_plan(meta).expect("chaos cells replay").len(),
            energy_j_bits: metrics.energy.energy_j.to_bits(),
            energy_j: metrics.energy.energy_j,
            items_produced: metrics.items_produced,
            items_consumed: metrics.items_consumed,
            wakeups: metrics.energy.wakeups,
            trace_events: meta.events,
            trace_digest: meta.digest,
            recovery: recovery_metrics(run.log.as_ref().expect("chaos cells record")),
        }
    }
}

/// `results/chaos.json`.
#[derive(Serialize)]
pub struct ChaosReport {
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

/// Prints the recovery table and builds `results/chaos.json`.
pub fn report(protocol: &Protocol, runs: &[CellRun]) -> ChaosReport {
    let cells: Vec<ChaosCellReport> = runs.iter().map(ChaosCellReport::of).collect();
    println!(
        "{:<16} {:<16} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>12}",
        "scenario", "strategy", "items", "wakeups", "ovf", "consec", "sched", "burst", "rec_lag_us"
    );
    for row in &cells {
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
    }
    ChaosReport {
        schema_version: 1,
        duration_ms: protocol.duration.as_nanos() / 1_000_000,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        trace_mean_rate: protocol.trace.mean_rate,
        pairs: CHAOS_POINT.pairs,
        cores: CHAOS_POINT.cores,
        buffer: CHAOS_POINT.buffer,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::quick_protocol;
    use crate::sweep::{execute, Family};

    #[test]
    fn grid_is_scenarios_by_strategies_by_replicates() {
        let cells = Family::Chaos.cells(&quick_protocol(60, 2, 1));
        assert_eq!(cells.len(), 8 * 5 * 2);
        assert_eq!(cells[0].scenario, "baseline");
        assert_eq!((cells[0].seed, cells[1].seed), (11, 12));
        assert!(cells
            .iter()
            .all(|c| c.experiment == format!("chaos_{}", c.scenario)));
    }

    #[test]
    fn baseline_plan_is_empty_and_faulty_scenarios_are_not() {
        for cell in Family::Chaos.cells(&quick_protocol(60, 1, 1)) {
            let plan = fault_plan(&cell).unwrap();
            assert_eq!(
                plan.is_empty(),
                cell.scenario == "baseline",
                "{}",
                cell.scenario
            );
        }
    }

    #[test]
    fn chaos_cells_run_clean_through_the_oracle() {
        // One representative faulty scenario per strategy class keeps
        // the test fast; the sweep covers the full cross.
        let picks = [
            "rate_shock/Mutex",
            "consumer_slowdown/BP",
            "dropped_wakeup/PBPL",
            "pool_squeeze/PBPL(degraded)",
            "chaos/PBPL(degraded)",
        ];
        let p = quick_protocol(60, 1, 2);
        let cells: Vec<_> = Family::Chaos
            .cells(&p)
            .into_iter()
            .filter(|c| picks.contains(&Family::Chaos.cell_name(c).as_str()))
            .collect();
        assert_eq!(cells.len(), picks.len());
        for run in execute(&p, &cells, true).0 {
            assert_eq!(run.metrics.items_produced, run.metrics.items_consumed);
            assert_eq!(run.gate_failures(), Vec::<String>::new());
            let rec = ChaosCellReport::of(&run).recovery;
            assert_eq!(rec.faults_injected, rec.faults_recovered);
            assert!(rec.faults_injected > 0, "{}", run.meta.scenario);
        }
    }

    #[test]
    fn recovery_metrics_count_bursts_and_lag() {
        use pc_trace_events::{Event, TRACE_SCHEMA_VERSION};
        let kinds = vec![
            TraceEvent::FaultInjected {
                id: 0,
                kind: "rate_shock".into(),
                pair: 0,
                core: u32::MAX,
                param: 3000,
                pool_available: u64::MAX,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Overflow,
                batch: 25,
                capacity: 25,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Overflow,
                batch: 25,
                capacity: 25,
            },
            TraceEvent::FaultRecovered {
                id: 0,
                kind: "rate_shock".into(),
                pair: 0,
                core: u32::MAX,
                param: 3000,
                pool_available: u64::MAX,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Scheduled,
                batch: 10,
                capacity: 25,
            },
        ];
        let log = TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Event {
                    seq: i as u64,
                    t_ns: i as u64 * 100,
                    kind,
                })
                .collect(),
            dropped: 0,
        };
        let m = recovery_metrics(&log);
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.faults_recovered, 1);
        assert_eq!(m.overflow_wakes, 2);
        assert_eq!(m.consec_overflow_wakes, 1);
        assert_eq!(m.scheduled_wakes, 1);
        assert_eq!(m.max_overflow_burst, 2);
        // Recovery at t=300, next scheduled invoke at t=400.
        assert_eq!(m.max_recovery_lag_ns, 100);
    }
}
