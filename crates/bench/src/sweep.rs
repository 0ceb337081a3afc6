//! Parallel deterministic sweep engine: one runner for every family.
//!
//! Every experiment in this crate is a *sweep*: a family expands its
//! protocol into [`CellMeta`] headers — the same headers a trace export
//! carries and `replay` rebuilds from — and every cell, live or
//! replayed, runs through [`replay::run_cell`]. The cells are mutually
//! independent simulations, so they can run on any number of worker
//! threads — but the *output must not depend on the thread count*. The
//! engine guarantees that by construction:
//!
//! * [`expand`] lays the grid out in a fixed, documented order
//!   (block-major, then strategy, then replicate);
//! * `parallel_map_costed` hands cells to workers through an atomic
//!   cursor but stores every result in the slot of its *input* index, so
//!   the collected vector is identical whatever the completion order;
//! * each cell is a pure function of its header — the simulation itself
//!   is bit-deterministic per seed (see CLAUDE.md).
//!
//! The CI determinism gate runs every family with `--threads 4` and
//! `--threads 1` and byte-compares the JSON output; any wall-clock or
//! thread-count leakage into results is a build failure, not a
//! footnote.

use crate::exp::{print_row, save_json, Protocol, Row, PAPER_PROTOCOL};
use crate::oracle::{self, CellMeta};
use crate::replay::{self, label, label_overloaded, Condition};
use crate::{analysis, chaos, overload, scale, suite};
use pc_core::{RunMetrics, StrategyKind};
use pc_trace::Trace;
use pc_trace_events::TraceLog;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One (pairs, cores, buffer) grid point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GridPoint {
    /// Producer-consumer pairs (the paper's M).
    pub pairs: usize,
    /// Cores available to the consumers.
    pub cores: usize,
    /// Per-consumer buffer capacity (the paper's B).
    pub buffer: usize,
}

/// One block of a family's grid: every listed strategy at one point,
/// under one workload and fault scenario.
#[derive(Debug, Clone)]
pub struct Block {
    /// Experiment name every cell of the block carries.
    pub experiment: String,
    /// Geometry.
    pub point: GridPoint,
    /// Registered workload name (`replay::workload_by_name`).
    pub workload: &'static str,
    /// Fault scenario name; empty for fault-free cells.
    pub scenario: &'static str,
    /// Strategies, each with the run condition its label suffix names.
    pub strategies: Vec<(StrategyKind, Condition)>,
}

/// Expands blocks into cell headers in the engine's canonical order:
/// block-major, then strategy, then replicate (seed `base_seed + k`).
/// Reports regroup by walking the same order, so it is a contract, not
/// an implementation detail. `events`, `dropped` and `digest` are left
/// for [`execute`] to fill in. The header is the cell's whole recipe,
/// so a strategy or condition with no registered label (say, PBPL with
/// a 7 ms slot) panics here rather than running as something else.
pub fn expand(protocol: &Protocol, blocks: Vec<Block>) -> Vec<CellMeta> {
    let mut cells = Vec::new();
    for block in &blocks {
        for (strategy, condition) in &block.strategies {
            let meta = CellMeta {
                experiment: block.experiment.clone(),
                strategy: label(strategy, *condition)
                    .unwrap_or_else(|e| panic!("{}: {e}", block.experiment)),
                pairs: block.point.pairs as u64,
                cores: block.point.cores as u64,
                buffer: block.point.buffer as u64,
                seed: protocol.base_seed,
                duration_ns: protocol.duration.as_nanos(),
                workload: block.workload.to_string(),
                scenario: block.scenario.to_string(),
                period_ns: oracle::strategy_period_ns(strategy),
                events: 0,
                dropped: 0,
                digest: 0,
            };
            assert!(
                replay::rebuild_strategy(&meta).as_ref() == Ok(strategy),
                "{}: label {:?} does not express {strategy:?}",
                meta.experiment,
                meta.strategy
            );
            cells.extend((0..protocol.replicates as u64).map(|k| CellMeta {
                seed: protocol.base_seed + k,
                ..meta.clone()
            }));
        }
    }
    cells
}

/// A sweep family: a grid, a report, and its default protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Every paper figure and table (§III, §VI).
    Suite,
    /// Every fault scenario against the strategy panel.
    Chaos,
    /// The large-M scaling grid on the planet fleet.
    Scale,
    /// The overload panel under correlated overload scenarios.
    Overload,
    /// The paper's §III-C statistics, the claims self-check and the
    /// ablation, ω-sensitivity and time-series extensions.
    Analysis,
}

impl Family {
    /// All families, in CLI order.
    pub(crate) const ALL: [Family; 5] = [
        Family::Suite,
        Family::Chaos,
        Family::Scale,
        Family::Overload,
        Family::Analysis,
    ];

    /// CLI name, also the stem of the family's result files.
    pub fn name(self) -> &'static str {
        match self {
            Family::Suite => "suite",
            Family::Chaos => "chaos",
            Family::Scale => "scale",
            Family::Overload => "overload",
            Family::Analysis => "analysis",
        }
    }

    /// Inverse of [`Family::name`].
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Default horizon (ms) and replicate count. The scaling grid is
    /// ~90× the suite's item volume, so it runs shorter and once.
    pub fn defaults(self) -> (u64, usize) {
        match self {
            Family::Scale => (10_000, 1),
            _ => PAPER_PROTOCOL,
        }
    }

    /// Whether every cell records: chaos and overload rows are derived
    /// from the trace, so `--trace` only adds the export for them.
    pub fn records(self) -> bool {
        matches!(self, Family::Chaos | Family::Overload)
    }

    /// The family's cells, in canonical order.
    pub fn cells(self, protocol: &Protocol) -> Vec<CellMeta> {
        let blocks = match self {
            Family::Suite => suite::blocks(protocol),
            Family::Chaos => chaos::blocks(protocol),
            Family::Scale => scale::blocks(protocol),
            Family::Overload => overload::blocks(protocol),
            Family::Analysis => analysis::blocks(protocol),
        };
        expand(protocol, blocks)
    }

    /// The exact name `--filter` matches and `--list` prints; every
    /// replicate of a point shares it. Names are exact because one can
    /// be a prefix of another (`m10`/`m100`, `PBPL`/`PBPL(degraded)`).
    pub fn cell_name(self, meta: &CellMeta) -> String {
        match self {
            Family::Suite | Family::Analysis => meta.experiment.clone(),
            Family::Scale => format!("m{}", meta.pairs),
            Family::Chaos | Family::Overload if meta.workload.starts_with("planet") => {
                format!("{}@m{}/{}", meta.scenario, meta.pairs, meta.strategy)
            }
            Family::Chaos | Family::Overload => format!("{}/{}", meta.scenario, meta.strategy),
        }
    }

    /// Prints the family's tables, writes `results/<family>.json` and
    /// returns the report's own gate failures: the analysis family's
    /// failed claims.
    pub fn report(self, protocol: &Protocol, runs: &[CellRun]) -> Vec<String> {
        match self {
            Family::Suite => save_json(self.name(), &suite::report(protocol, runs)),
            Family::Chaos => save_json(self.name(), &chaos::report(protocol, runs)),
            Family::Scale => save_json(self.name(), &scale::report(protocol, runs)),
            Family::Overload => save_json(self.name(), &overload::report(protocol, runs)),
            Family::Analysis => {
                let report = analysis::report(protocol, runs);
                save_json(self.name(), &report);
                return report.failures();
            }
        }
        Vec::new()
    }
}

/// Prints one summary row per configuration of `runs` (replicates
/// grouped in canonical order), named `{label} M={pairs} B={buffer}`.
pub(crate) fn print_rows(runs: &[CellRun]) {
    for (first, group) in configurations(runs) {
        let mut row = Row::from_runs(&group);
        row.name = format!("{} M={} B={}", first.strategy, first.pairs, first.buffer);
        print_row(&row);
    }
}

/// Groups `runs` into configurations — consecutive cells that differ
/// only in seed — each with its first header and replicate metrics.
pub fn configurations(runs: &[CellRun]) -> Vec<(&CellMeta, Vec<&RunMetrics>)> {
    fn config(run: &CellRun) -> (&str, &str, u64, u64) {
        let m = &run.meta;
        (&m.experiment, &m.strategy, m.pairs, m.buffer)
    }
    runs.chunk_by(|a, b| config(a) == config(b))
        .map(|g| (&g[0].meta, g.iter().map(|r| &r.metrics).collect()))
        .collect()
}

/// One executed cell: its sealed header (`events`, `dropped`, `digest`
/// filled in when recorded), metrics and recording.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The header — for a recorded cell, exactly the export's.
    pub meta: CellMeta,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// The recording, when the cell was recorded.
    pub log: Option<TraceLog>,
}

impl CellRun {
    /// The gates every cell of every family passes, one line per
    /// failure: the replay oracle over its recording, and zero shed
    /// items unless the label carries `(overload)`. (The scheduler
    /// ledger is checked by [`replay::run_cell`] itself.)
    pub fn gate_failures(&self) -> Vec<String> {
        let label = self.meta.label();
        let mut failures: Vec<String> = self
            .log
            .iter()
            .flat_map(|log| oracle::check(log).violations)
            .map(|v| format!("{label}: {v}"))
            .collect();
        if !label_overloaded(&self.meta.strategy) && self.metrics.items_shed != 0 {
            failures.push(format!(
                "{label}: shed {} items with overload control disabled",
                self.metrics.items_shed
            ));
        }
        failures
    }
}

/// Host-dependent telemetry from one `parallel_map_costed` dispatch.
/// Strictly `BENCH_*.json` sidecar material — wall-clock lives here and
/// must never reach a deterministic results file.
#[derive(Debug, Clone)]
pub struct DispatchStats {
    /// Worker threads actually used (after clamping to the item count).
    pub threads: usize,
    /// Per-worker busy time (summed cell runtimes), milliseconds.
    pub worker_busy_ms: Vec<u64>,
    /// Per-item wall time in *input* order, milliseconds.
    pub cell_wall_ms: Vec<u64>,
}

impl DispatchStats {
    /// Share of the dispatch interval the workers spent busy:
    /// Σ busy / (threads × wall). 1.0 means no worker ever idled; a low
    /// value on a multi-thread run means stragglers serialised the tail.
    pub fn utilization(&self, wall_ms: u64) -> f64 {
        if wall_ms == 0 || self.threads == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ms.iter().sum();
        busy as f64 / (wall_ms as f64 * self.threads as f64)
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads with
/// cost-aware dispatch: items are claimed in descending `costs[i]` order
/// (LPT — longest processing time first), so an expensive cell starts
/// immediately instead of being picked up last and straggling the whole
/// dispatch. Ties keep input order, and every result is written to the
/// slot of its *input* index, so the output vector — and every
/// deterministic artifact downstream of it — is identical for any
/// thread count as long as `f` is pure. Costs only shape the claim
/// order (and therefore wall-clock), never results.
pub(crate) fn parallel_map_costed<T, R, F>(
    items: &[T],
    threads: usize,
    costs: &[u64],
    f: F,
) -> (Vec<R>, DispatchStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert_eq!(items.len(), costs.len(), "one cost estimate per item");
    let threads = threads.clamp(1, items.len().max(1));
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, u64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut busy_ns = 0u64;
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= order.len() {
                break busy_ns / 1_000_000;
            }
            let i = order[k];
            let t0 = Instant::now();
            let result = f(&items[i]);
            let elapsed = t0.elapsed();
            busy_ns += elapsed.as_nanos() as u64;
            *slots[i].lock().expect("result slot poisoned") =
                Some((result, elapsed.as_millis() as u64));
        }
    };
    let worker_busy_ms = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        })
    };
    let (results, cell_wall_ms) = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("a worker filled every slot")
        })
        .unzip();
    (
        results,
        DispatchStats {
            threads,
            worker_busy_ms,
            cell_wall_ms,
        },
    )
}

/// Timing of one [`execute`] call — sidecar material only.
#[derive(Debug, Clone)]
pub struct Timing {
    /// The dispatch's per-worker and per-cell times.
    pub dispatch: DispatchStats,
    /// Wall time of the dispatch alone, milliseconds.
    pub wall_ms: u64,
    /// Wall time spent pre-generating planet fleets, milliseconds.
    pub fleet_gen_ms: u64,
}

/// Which fleet a planet cell runs: cells that differ only in strategy
/// share one.
type FleetKey = (String, u64, u64, u64);

fn fleet_key(meta: &CellMeta) -> FleetKey {
    (
        meta.workload.clone(),
        meta.seed,
        meta.pairs,
        meta.duration_ns,
    )
}

/// Generates the planet fleets `cells` need — once per (workload, seed,
/// M, horizon), however many strategies share it. The fleets come one
/// after another: each generation already runs on every core.
fn fleets(cells: &[CellMeta]) -> BTreeMap<FleetKey, Arc<Vec<Trace>>> {
    let mut firsts: BTreeMap<FleetKey, &CellMeta> = BTreeMap::new();
    for meta in cells.iter().filter(|m| m.workload.starts_with("planet")) {
        firsts.entry(fleet_key(meta)).or_insert(meta);
    }
    firsts
        .into_iter()
        .map(|(key, meta)| {
            let fleet = replay::fleet(meta).unwrap_or_else(|e| panic!("{}: {e}", meta.label()));
            (key, Arc::new(fleet.expect("planet workload")))
        })
        .collect()
}

/// Runs `cells` on `protocol.threads` workers with LPT dispatch (cost =
/// horizon × M), recording each cell when `record` holds; results in
/// cell order. Planet fleets are generated first, outside the timed
/// dispatch: fleet generation is workload synthesis, not simulation,
/// and letting it leak into the first cell's wall clock would
/// misattribute it.
pub fn execute(protocol: &Protocol, cells: &[CellMeta], record: bool) -> (Vec<CellRun>, Timing) {
    let gen_started = Instant::now();
    let fleets = fleets(cells);
    let fleet_gen_ms = gen_started.elapsed().as_millis() as u64;

    let costs: Vec<u64> = cells
        .iter()
        .map(|m| m.duration_ns.saturating_mul(m.pairs))
        .collect();
    let started = Instant::now();
    let (runs, dispatch) = parallel_map_costed(cells, protocol.threads, &costs, |meta| {
        let record = record.then_some(protocol.trace_cap);
        let (metrics, log) = replay::run_cell(meta, fleets.get(&fleet_key(meta)), record)
            .unwrap_or_else(|e| panic!("{}: {e}", meta.label()));
        let mut meta = meta.clone();
        if let Some(log) = &log {
            replay::seal(&mut meta, log);
        }
        CellRun { meta, metrics, log }
    });
    let timing = Timing {
        dispatch,
        wall_ms: started.elapsed().as_millis() as u64,
        fleet_gen_ms,
    };
    (runs, timing)
}

/// One cell's sidecar row: host wall time plus the *deterministic*
/// scheduler operation counters of the run (a pure function of the
/// header; only `wall_ms` is host-dependent).
#[derive(Debug, Clone, Serialize)]
pub struct CellTiming {
    /// The cell's experiment.
    pub experiment: String,
    /// Cell label (`CellMeta::label`).
    pub cell: String,
    /// Host wall time of this cell, milliseconds.
    pub wall_ms: u64,
    /// Event-scheduler operation counters (DESIGN.md §13).
    pub scheduler: pc_sim::QueueStats,
}

/// The `results/BENCH_<family>.json` sidecar: everything
/// host-dependent about a sweep, so none of it reaches the result file.
#[derive(Debug, Clone, Serialize)]
pub struct Sidecar {
    /// v7: v6 (one struct for every family, a flat, experiment-tagged
    /// `cells` list, `fleet_gen_ms`, no `shards`) whose scheduler
    /// counters gain `points_popped` — the decision points the arrival
    /// calendar popped — while `arrivals_scheduled`/`arrivals_popped`
    /// count the arrivals the pairs' cursors took in and consumed.
    pub schema_version: u32,
    /// Per-cell timings in canonical cell order.
    pub cells: Vec<CellTiming>,
    /// Whole-run wall time, milliseconds.
    pub total_wall_ms: u64,
    /// Worker busy share over the dispatch interval.
    pub utilization: f64,
    /// Per-worker busy milliseconds.
    pub worker_busy_ms: Vec<u64>,
    /// Fleet pre-generation wall time (outside the dispatch).
    pub fleet_gen_ms: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Active `--filter` values (empty = the whole family), so a
    /// checked-in sidecar can never masquerade as a full run.
    pub filters: Vec<String>,
}

impl Sidecar {
    /// Assembles the sidecar of one sweep.
    pub fn new(
        runs: &[CellRun],
        timing: &Timing,
        total_wall_ms: u64,
        filters: &[String],
    ) -> Sidecar {
        Sidecar {
            schema_version: 7,
            cells: runs
                .iter()
                .zip(&timing.dispatch.cell_wall_ms)
                .map(|(run, &wall_ms)| CellTiming {
                    experiment: run.meta.experiment.clone(),
                    cell: run.meta.label(),
                    wall_ms,
                    scheduler: run.metrics.scheduler,
                })
                .collect(),
            total_wall_ms,
            utilization: timing.dispatch.utilization(timing.wall_ms),
            worker_busy_ms: timing.dispatch.worker_busy_ms.clone(),
            fleet_gen_ms: timing.fleet_gen_ms,
            threads: timing.dispatch.threads,
            filters: filters.to_vec(),
        }
    }
}

/// Deterministic per-cell report row shared by the suite and scale
/// families. **No thread or timing field may ever appear here**
/// — those live in the sidecar.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct CellReport {
    /// Strategy label.
    pub strategy: String,
    /// Pairs (the paper's M).
    pub pairs: u64,
    /// Cores.
    pub cores: u64,
    /// Per-consumer base buffer capacity.
    pub buffer: u64,
    /// Seed of this replicate.
    pub seed: u64,
    /// Raw bits of the energy reading — the exact-equality currency of
    /// the determinism contract (never compare the float itself).
    pub energy_j_bits: u64,
    /// Energy, joules (for humans; compare the bits).
    pub energy_j: f64,
    /// Items produced.
    pub items_produced: u64,
    /// Items consumed (must equal produced after flush).
    pub items_consumed: u64,
    /// Core wakeups.
    pub wakeups: u64,
    /// Scheduled (timer) wakeups.
    pub scheduled_wakeups: u64,
    /// Overflow-forced wakeups.
    pub overflow_wakeups: u64,
    /// PBPL slot fires.
    pub slot_fires: u64,
    /// Mean allocated buffer capacity.
    pub mean_capacity: f64,
    /// Mean item latency, microseconds.
    pub mean_latency_us: f64,
}

impl CellReport {
    /// The row of one executed cell.
    pub fn of(run: &CellRun) -> CellReport {
        let (meta, m) = (&run.meta, &run.metrics);
        CellReport {
            strategy: meta.strategy.clone(),
            pairs: meta.pairs,
            cores: meta.cores,
            buffer: meta.buffer,
            seed: meta.seed,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::quick_protocol;
    use crate::replay::{parse_export, replay_cell, CellReplay};

    #[test]
    fn expansion_order_is_block_major_then_strategy_then_replicate() {
        let p = quick_protocol(40, 3, 1);
        let block = |pairs, buffer| Block {
            experiment: format!("m{pairs}"),
            point: GridPoint {
                pairs,
                cores: 1,
                buffer,
            },
            workload: "worldcup_quick",
            scenario: "",
            strategies: vec![
                (StrategyKind::Mutex, Condition::Plain),
                (StrategyKind::Bp, Condition::Overload),
            ],
        };
        let cells = expand(&p, vec![block(1, 25), block(5, 50)]);
        let key: Vec<(u64, &str, u64)> = cells
            .iter()
            .map(|c| (c.pairs, c.strategy.as_str(), c.seed))
            .collect();
        let mut expected = Vec::new();
        for pairs in [1, 5] {
            for strategy in ["Mutex", "BP(overload)"] {
                for seed in 11..14 {
                    expected.push((pairs, strategy, seed));
                }
            }
        }
        assert_eq!(key, expected);
        assert!(cells
            .iter()
            .all(|c| c.duration_ns == 40_000_000 && c.events == 0));
    }

    #[test]
    #[should_panic(expected = "has no registered label")]
    fn expand_refuses_a_strategy_its_label_cannot_express() {
        let p = quick_protocol(40, 1, 1);
        let unregistered = StrategyKind::Pbpl(pc_core::PbplConfig {
            slot: pc_sim::SimDuration::from_millis(7),
            ..pc_core::PbplConfig::default()
        });
        expand(
            &p,
            vec![Block {
                experiment: "ablation".to_string(),
                point: GridPoint {
                    pairs: 5,
                    cores: 2,
                    buffer: 25,
                },
                workload: "worldcup_quick",
                scenario: "",
                strategies: vec![(unregistered, Condition::Plain)],
            }],
        );
    }

    /// One block of `strategy` at M = 2 on 2 cores, B = 25.
    fn one_block(strategy: StrategyKind) -> Vec<Block> {
        vec![Block {
            experiment: "run".to_string(),
            point: GridPoint {
                pairs: 2,
                cores: 2,
                buffer: 25,
            },
            workload: "worldcup_quick",
            scenario: "",
            strategies: vec![(strategy, Condition::Plain)],
        }]
    }

    #[test]
    fn protocol_runs_replicates_with_distinct_seeds() {
        let p = quick_protocol(50, 2, 1);
        let (runs, _) = execute(&p, &expand(&p, one_block(StrategyKind::Mutex)), false);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].meta.seed, runs[1].meta.seed), (11, 12));
        // Different seeds → different traces → (almost surely) different
        // item counts.
        assert_ne!(
            runs[0].metrics.items_consumed,
            runs[1].metrics.items_consumed
        );
    }

    #[test]
    fn row_summarises_replicates() {
        let p = quick_protocol(50, 2, 1);
        let (runs, _) = execute(&p, &expand(&p, one_block(StrategyKind::Bp)), false);
        let groups = configurations(&runs);
        assert_eq!(groups.len(), 1);
        let row = Row::from_runs(&groups[0].1);
        assert_eq!(row.name, "BP");
        assert_eq!(row.items.samples.len(), 2);
        assert!(row.power_mw.mean > 0.0);
    }

    #[test]
    fn parallel_map_preserves_input_order_under_any_costs() {
        let items: Vec<usize> = (0..97).collect();
        let doubled: Vec<usize> = items.iter().map(|&x| x * 2).collect();
        let (uniform, _) = parallel_map_costed(&items, 8, &[0; 97], |&x| x * 2);
        assert_eq!(uniform, doubled);
        let costs: Vec<u64> = items.iter().map(|&x| (x as u64 * 37) % 11).collect();
        let (costed, stats) = parallel_map_costed(&items, 3, &costs, |&x| x * 2);
        assert_eq!(costed, doubled);
        assert_eq!((stats.threads, stats.cell_wall_ms.len()), (3, 97));
        // Degenerate shapes.
        let (empty, _) = parallel_map_costed(&Vec::<usize>::new(), 4, &[], |&x| x);
        assert!(empty.is_empty());
        let (single, stats) = parallel_map_costed(&[41usize], 16, &[0], |&x| x + 1);
        assert_eq!((single, stats.threads), (vec![42], 1));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The planet fleet at a small M, recorded, so the event streams
        // are compared too.
        let cells: Vec<CellMeta> = Family::Scale
            .cells(&quick_protocol(60, 1, 1))
            .into_iter()
            .filter(|c| c.pairs == 10)
            .collect();
        assert_eq!(cells.len(), 4);
        let run = |threads| execute(&quick_protocol(60, 1, threads), &cells, true).0;
        for (a, b) in run(1).iter().zip(run(4)) {
            assert_eq!(
                a.metrics.energy.energy_j.to_bits(),
                b.metrics.energy.energy_j.to_bits()
            );
            assert_eq!(a.metrics.items_consumed, b.metrics.items_consumed);
            assert_eq!(a.meta, b.meta, "events, dropped and digest included");
        }
    }

    #[test]
    fn a_fleet_is_generated_once_per_seed_and_point() {
        let cells = Family::Scale.cells(&quick_protocol(20, 2, 1));
        let m10: Vec<CellMeta> = cells.into_iter().filter(|c| c.pairs == 10).collect();
        assert_eq!(m10.len(), 4 * 2);
        let shared = fleets(&m10);
        assert_eq!(shared.len(), 2, "4 strategies share each seed's fleet");
        assert!(shared.values().all(|fleet| fleet.len() == 10));
        let suite = Family::Suite.cells(&quick_protocol(20, 1, 1));
        assert!(fleets(&suite).is_empty(), "World-Cup cells need no fleet");
    }

    /// Every family's live cells, exported and re-executed from their
    /// headers alone, replay event-for-event — and pass the gates.
    #[test]
    fn every_family_replays_its_own_export() {
        let p = quick_protocol(20, 1, 2);
        for family in Family::ALL {
            let (runs, _) = execute(&p, &family.cells(&p), true);
            let mut export = Vec::new();
            for run in &runs {
                assert_eq!(run.gate_failures(), Vec::<String>::new());
                let log = run.log.as_ref().expect("recorded");
                oracle::write_cell(&mut export, &run.meta, &log.events).unwrap();
            }
            let cells = parse_export(export.as_slice()).unwrap();
            assert_eq!(cells.len(), runs.len());
            for cell in &cells {
                match replay_cell(cell, false) {
                    CellReplay::Match { events } => assert_eq!(events, cell.meta.events),
                    CellReplay::Diverged { report, .. } => {
                        panic!("{}: {report}", cell.meta.label())
                    }
                    CellReplay::Unreplayable(e) => panic!("{}: {e}", cell.meta.label()),
                }
            }
        }
    }

    #[test]
    fn cell_names_are_exact_filter_keys() {
        let p = quick_protocol(20, 2, 1);
        let names = |family: Family| -> Vec<String> {
            let mut names: Vec<String> = family
                .cells(&p)
                .iter()
                .map(|c| family.cell_name(c))
                .collect();
            names.dedup();
            names
        };
        assert_eq!(names(Family::Scale), ["m10", "m100", "m1000"]);
        assert_eq!(Family::Scale.cells(&p).len(), 3 * 4 * 2);
        assert_eq!(names(Family::Suite).len(), 6);
        assert_eq!(
            names(Family::Analysis),
            [
                "fig03_04_single_pc",
                "fig09_five_consumers",
                "fig10_consumer_sweep",
                "fig11_buffer_sweep",
                "ablation_pbpl",
                "sensitivity_omega",
            ]
        );
        // 13 + 4 + 3·4 + 3·2 suite configurations, 9 ablations, 4·3 ω.
        assert_eq!(
            Family::Analysis.cells(&p).len(),
            (13 + 4 + 12 + 6 + 9 + 12) * 2
        );
        assert_eq!(names(Family::Chaos).len(), 8 * 5);
        let overload = names(Family::Overload);
        assert_eq!(overload.len(), 10 * 4 + 4);
        assert!(overload.contains(&"flash_crowd@m100/PBPL(overload)".to_string()));
        assert!(overload.contains(&"baseline/BP".to_string()));
        // A chaos or overload name is shared by exactly its replicates.
        for family in [Family::Chaos, Family::Overload] {
            let cells = family.cells(&p);
            let unique: std::collections::BTreeSet<String> =
                cells.iter().map(|c| family.cell_name(c)).collect();
            assert_eq!(unique.len() * 2, cells.len(), "{}", family.name());
        }
    }
}
