//! The multiple producer-consumer system simulator and the
//! [`Experiment`] builder — the machinery behind every figure and table
//! reproduction.
//!
//! The simulation follows the paper's system model (§IV-A) exactly:
//! a multicore with idle/active cores, M producer-consumer pairs with one
//! consumer per producer, producers that are *external* (they never wake
//! consumer cores themselves), consumers pinned to cores with no
//! background processes, and a finite run. A run is three parts:
//!
//! * `kernel` — the `pc-sim` engine, the cores, each pair's arrival
//!   cursor and metrics, the shared drain tail and the teardown that
//!   flows the finished core timelines through `pc-power`;
//! * `handlers` and `pbpl` — one handler per strategy family (§III
//!   and §V), each owning its per-pair state;
//! * `faults` and `overload` — the optional layers, built only when
//!   the run enables them and reached only through the kernel's layer
//!   hooks.

mod faults;
mod handlers;
mod kernel;
mod overload;
mod pbpl;

use self::faults::FaultRuntime;
use self::handlers::{BatchHandler, Handler, ItemHandler};
use self::kernel::{Kernel, Pair, Sim};
use self::overload::OverloadRuntime;
use self::pbpl::{PbplHandler, PbplPair};
use crate::config::{OverloadConfig, StrategyKind};
use crate::cost::CostModel;
use crate::manager::CoreManager;
use crate::metrics::{PairMetrics, RunMetrics};
use crate::model::PairId;
use crate::pbpl::PbplConsumer;
use crate::slot::SlotTrack;
use crate::strategy::{MUTEX_SYNC_FACTOR, SEM_SYNC_FACTOR};
use pc_faults::FaultPlan;
use pc_power::{GovernorKind, PowerModel};
use pc_queues::{ElasticCapacity, GlobalPool};
use pc_sim::{Core, CoreId, Engine, SimDuration, SimTime};
use pc_trace::{Trace, WorldCupConfig};
use pc_trace_events::TraceHandle;
use std::sync::Arc;

/// Namespace entry point: `Experiment::builder()…run()`.
pub struct Experiment;

impl Experiment {
    /// Starts configuring an experiment run.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

/// Builder for a single simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    pairs: usize,
    cores: usize,
    duration: SimDuration,
    strategy: StrategyKind,
    trace_cfg: WorldCupConfig,
    /// Explicit per-pair traces, possibly shared with other runs.
    explicit_traces: Option<Arc<Vec<Trace>>>,
    seed: u64,
    power: PowerModel,
    buffer_capacity: usize,
    governor: GovernorKind,
    max_latencies: Option<Vec<SimDuration>>,
    trace_events: TraceHandle,
    fault_plan: FaultPlan,
    /// Overload control: admission, shedding and the fleet supervisor.
    admission: OverloadConfig,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            pairs: 2,
            cores: 2,
            duration: SimDuration::from_secs(1),
            strategy: StrategyKind::pbpl_default(),
            trace_cfg: WorldCupConfig::paper_default(),
            explicit_traces: None,
            seed: 42,
            power: PowerModel::exynos_like(),
            buffer_capacity: 50,
            governor: GovernorKind::Oracle,
            max_latencies: None,
            trace_events: TraceHandle::disabled(),
            fault_plan: FaultPlan::empty(),
            admission: OverloadConfig::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Number of producer-consumer pairs M.
    pub fn pairs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one pair");
        self.pairs = n;
        self
    }

    /// Number of cores A. Consumers are assigned round-robin (`i mod A`).
    pub fn cores(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one core");
        self.cores = n;
        self
    }

    /// Run length (the paper uses 50 s).
    pub fn duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero(), "duration must be nonzero");
        self.duration = d;
        self
    }

    /// The consumer strategy under test.
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Workload configuration; the horizon is overridden by
    /// [`ExperimentBuilder::duration`].
    pub fn trace(mut self, cfg: WorldCupConfig) -> Self {
        self.trace_cfg = cfg;
        self
    }

    /// Explicit per-pair traces (overrides the generator). Must supply
    /// exactly one trace per pair at run time.
    pub fn traces(mut self, traces: Vec<Trace>) -> Self {
        self.explicit_traces = Some(Arc::new(traces));
        self
    }

    /// Explicit per-pair traces shared with other runs (overrides the
    /// generator). Bit-identical to [`ExperimentBuilder::traces`] on the
    /// same data, but zero-copy: sweep cells that differ only in strategy
    /// read one fleet instead of cloning it per cell — at M = 1000 the
    /// clone is tens of megabytes per cell (DESIGN.md §13).
    pub fn shared_traces(mut self, traces: Arc<Vec<Trace>>) -> Self {
        self.explicit_traces = Some(traces);
        self
    }

    /// RNG seed; also seeds the workload generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Platform power model.
    pub fn power(mut self, model: PowerModel) -> Self {
        self.power = model;
        self
    }

    /// Per-pair base buffer capacity B₀ (the paper sweeps 25/50/100).
    /// The PBPL global pool is sized B₀·M per §V-C.
    pub fn buffer_capacity(mut self, b: usize) -> Self {
        assert!(b > 0, "buffer capacity must be nonzero");
        self.buffer_capacity = b;
        self
    }

    /// Idle governor used by energy accounting (default: post-hoc
    /// oracle; `Menu` charges real energy for mispredicted idles).
    pub fn governor(mut self, g: GovernorKind) -> Self {
        self.governor = g;
        self
    }

    /// Per-consumer maximum response latencies (PBPL; one per pair).
    /// When set, the slot size follows the paper's default — "the
    /// minimum of all maximum acceptable response latencies" — and each
    /// consumer plans within its own bound instead of the shared
    /// `PbplConfig::max_latency`.
    pub fn max_latencies(mut self, latencies: Vec<SimDuration>) -> Self {
        assert!(
            latencies.iter().all(|l| !l.is_zero()),
            "latency bounds must be nonzero"
        );
        self.max_latencies = Some(latencies);
        self
    }

    /// Attaches a structured event-trace handle: the run emits typed
    /// events (produce/invoke/flush, core spans, slot reservations,
    /// elastic-pool transactions) into its recorder. Purely
    /// observational — metrics are bit-identical with or without it.
    pub fn record_events(mut self, handle: TraceHandle) -> Self {
        self.trace_events = handle;
        self
    }

    /// Ignores its argument: each core has one reservation book and
    /// PBPL one pool counter (DESIGN.md §11). Kept only because the
    /// standalone `benchmark/` package still calls `.shards(8)`; it goes
    /// with the next change to that package.
    #[doc(hidden)]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Injects a deterministic fault plan (DESIGN.md §10). Workload
    /// faults rewrite the production traces before the run; runtime
    /// faults fire as events at their integer sim-time window edges. The
    /// empty plan is the default and leaves the run bit-identical to a
    /// build without fault injection.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configures the overload-control layer (DESIGN.md §15): deadline-
    /// aware admission with ledgered load shedding, plus the fleet
    /// supervisor. The default (`enabled: false`) is the hard-required
    /// inert path: runs are bit-identical to a build without the layer,
    /// and no `ItemShed`/`OverloadEntered`/`OverloadCleared` events can
    /// appear. When enabled, conservation weakens to
    /// `produced == consumed + shed` and PBPL's degrade watchdog runs
    /// regardless of `degrade.enabled`.
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.admission = cfg;
        self
    }

    /// Runs the experiment and returns its metrics.
    pub fn run(self) -> RunMetrics {
        let end = SimTime::ZERO + self.duration;
        // Fault-free explicit traces are consumed zero-copy. Generated
        // workloads, and any run with workload faults to rewrite, build
        // a fleet of their own, truncated to the run.
        let faults = &self.fault_plan;
        let fleet = match &self.explicit_traces {
            Some(fleet) if faults.is_empty() => Arc::clone(fleet),
            src => {
                let traces: Vec<Trace> = match src {
                    Some(fleet) => fleet.iter().map(|t| t.truncate(end)).collect(),
                    None => {
                        let mut cfg = self.trace_cfg.clone();
                        cfg.horizon = end;
                        let base = cfg.generate(self.seed.wrapping_add(0x7ace));
                        // §VI-A: "each consumer is shifted one Mth further
                        // into the dataset".
                        (0..self.pairs)
                            .map(|i| base.phase_shift(i as f64 / self.pairs as f64))
                            .collect()
                    }
                };
                let rewrite = |(i, trace): (usize, Trace)| {
                    let mut times = trace.into_times();
                    faults.apply_workload_faults(i as u32, &mut times, end);
                    Trace::new(times, end)
                };
                if faults.is_empty() {
                    Arc::new(traces)
                } else {
                    Arc::new(traces.into_iter().enumerate().map(rewrite).collect())
                }
            }
        };
        assert_eq!(fleet.len(), self.pairs, "one trace per pair");
        if let Some(lats) = &self.max_latencies {
            assert_eq!(
                lats.len(),
                self.pairs,
                "one latency bound per pair (got {} for {} pairs)",
                lats.len(),
                self.pairs
            );
        }
        if let StrategyKind::Pbpl(cfg) = &self.strategy {
            assert!(
                cfg.slot <= cfg.max_latency,
                "PBPL slot Δ ({}) exceeds the max response latency ({}); \
                 the paper derives Δ FROM the latency bounds (Δ = min max-latency), \
                 so a coarser track cannot honour them",
                cfg.slot,
                cfg.max_latency
            );
        }
        let pool = self
            .strategy
            .is_batching()
            .then(|| GlobalPool::new(self.buffer_capacity * self.pairs));
        // One elastic capacity per pair against the pool, created in pair
        // order (each traces its `BufferCreate`). Fixed-size strategies
        // never resize, so their floor is the base capacity.
        let buffers = |min_cap: usize| -> Vec<ElasticCapacity> {
            let pool = pool.as_ref().expect("batching strategies have a pool");
            (0..self.pairs)
                .map(|i| {
                    let mut ledger =
                        ElasticCapacity::with_min(Arc::clone(pool), self.buffer_capacity, min_cap)
                            .expect("pool sized as B0*M covers every base reservation");
                    ledger.set_trace(self.trace_events.clone(), i as u32);
                    ledger
                })
                .collect()
        };
        let pairs: Vec<Pair> = (0..self.pairs)
            .map(|i| {
                let limit = fleet[i].times().partition_point(|&t| t < end);
                Pair::new(i % self.cores, limit, PairMetrics::new(PairId(i)))
            })
            .collect();
        let item = |sync_factor| {
            let pairs = (0..self.pairs).map(|_| Default::default()).collect();
            Handler::Item(ItemHandler { sync_factor, pairs })
        };
        let batch = |period| {
            Handler::Batch(BatchHandler {
                period,
                timer: self.strategy.timer_model(),
                capacities: buffers(self.buffer_capacity),
                anchors: vec![SimTime::ZERO; self.pairs],
            })
        };
        let handler = match &self.strategy {
            StrategyKind::BusyWait => Handler::Busy { yielding: false },
            StrategyKind::Yield => Handler::Busy { yielding: true },
            StrategyKind::Mutex => item(MUTEX_SYNC_FACTOR),
            StrategyKind::Sem => item(SEM_SYNC_FACTOR),
            StrategyKind::Bp => batch(None),
            StrategyKind::Pbp { period } | StrategyKind::Spbp { period } => batch(Some(*period)),
            StrategyKind::Pbpl(cfg) => {
                let min_cap = ((self.buffer_capacity as f64 * cfg.min_capacity_frac).ceil()
                    as usize)
                    .clamp(1, self.buffer_capacity);
                // §V-A: "the default slot size is equal to the minimum of
                // all maximum acceptable response latencies" — honoured
                // whenever explicit per-consumer bounds are given.
                let delta = match &self.max_latencies {
                    Some(lats) => lats.iter().copied().min().expect("at least one pair"),
                    None => cfg.slot,
                };
                let track = SlotTrack::new(delta);
                let cost = CostModel::from_power_model(&self.power);
                // Overload control reuses the watchdog as its degrade arm
                // (DESIGN.md §15), whatever `degrade.enabled` says.
                let watchdog = cfg.degrade.enabled || self.admission.enabled;
                Handler::Pbpl(PbplHandler {
                    piggyback: cfg.latching && cfg.piggyback,
                    timer: self.strategy.timer_model(),
                    managers: (0..self.cores)
                        .map(|c| {
                            let mut m = CoreManager::new(track);
                            m.set_trace(self.trace_events.clone(), c as u32);
                            m
                        })
                        .collect(),
                    slot_timer: vec![None; self.cores],
                    pairs: buffers(min_cap)
                        .into_iter()
                        .enumerate()
                        .map(|(i, ledger)| PbplPair {
                            ledger,
                            machine: PbplConsumer::new(PairId(i), cfg, cost, watchdog),
                            max_latency: self
                                .max_latencies
                                .as_ref()
                                .map_or(cfg.max_latency, |l| l[i]),
                        })
                        .collect(),
                })
            }
        };
        let mut pairs_by_core = vec![Vec::new(); self.cores];
        for (i, p) in pairs.iter().enumerate() {
            pairs_by_core[p.core].push(i);
        }
        let k = Kernel {
            strategy: self.strategy.name(),
            power: self.power,
            governor: self.governor,
            end,
            fleet,
            engine: {
                let mut engine = Engine::new(self.seed);
                engine.set_trace(self.trace_events.clone());
                engine
            },
            cores: (0..self.cores)
                .map(|c| {
                    let mut core = Core::new(CoreId(c));
                    core.set_trace(self.trace_events.clone());
                    core
                })
                .collect(),
            core_busy_until: vec![SimTime::ZERO; self.cores],
            pairs,
            pairs_by_core,
            base_capacity: self.buffer_capacity,
            every_arrival: true,
            refile: Vec::new(),
            pool,
            trace: self.trace_events,
        };
        // Each layer exists only when enabled; the run is monomorphised
        // over the layers present.
        let faults =
            (!faults.is_empty()).then(|| FaultRuntime::new(faults, self.pairs, self.cores));
        let overload = self
            .admission
            .enabled
            .then(|| OverloadRuntime::new(self.admission, self.pairs));
        let h = handler;
        match (faults, overload) {
            (None, None) => Sim { k, h, l: () }.run(),
            (Some(f), None) => Sim { k, h, l: f }.run(),
            (None, Some(o)) => Sim { k, h, l: o }.run(),
            (Some(f), Some(o)) => Sim { k, h, l: (f, o) }.run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PbplConfig, PredictorKind};
    use pc_trace_events::TraceEvent;

    fn quick(strategy: StrategyKind) -> RunMetrics {
        Experiment::builder()
            .pairs(2)
            .cores(2)
            .duration(SimDuration::from_millis(200))
            .strategy(strategy)
            .trace(WorldCupConfig::quick_test())
            .seed(7)
            .buffer_capacity(25)
            .run()
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::BusyWait,
            StrategyKind::Yield,
            StrategyKind::Mutex,
            StrategyKind::Sem,
            StrategyKind::Bp,
            StrategyKind::Pbp {
                period: SimDuration::from_micros(100),
            },
            StrategyKind::Spbp {
                period: SimDuration::from_micros(100),
            },
            StrategyKind::pbpl_default(),
        ]
    }

    #[test]
    fn every_strategy_conserves_items() {
        for s in all_strategies() {
            let m = quick(s.clone());
            assert!(m.items_produced > 0, "{}: no items produced", s.name());
            assert!(
                m.all_items_consumed(),
                "{}: produced {} consumed {}",
                s.name(),
                m.items_produced,
                m.items_consumed
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        for s in [StrategyKind::Mutex, StrategyKind::pbpl_default()] {
            let a = quick(s.clone());
            let b = quick(s);
            assert_eq!(a.items_consumed, b.items_consumed);
            assert_eq!(a.meter.wakeups_per_sec, b.meter.wakeups_per_sec);
            assert!((a.energy.energy_j - b.energy.energy_j).abs() < 1e-12);
        }
    }

    #[test]
    fn busy_wait_profile() {
        let m = quick(StrategyKind::BusyWait);
        // Usage ≈ full (2 cores × 1000 ms/s), wakeups ≈ 0.
        assert!(
            m.usage_ms_per_sec() > 1900.0,
            "usage {}",
            m.usage_ms_per_sec()
        );
        assert!(
            m.wakeups_per_sec() < 20.0,
            "wakeups {}",
            m.wakeups_per_sec()
        );
        assert_eq!(m.mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn yield_draws_less_power_than_busy_wait() {
        let bw = quick(StrategyKind::BusyWait);
        let y = quick(StrategyKind::Yield);
        assert!(
            y.extra_power_mw() < bw.extra_power_mw(),
            "yield {} vs bw {}",
            y.extra_power_mw(),
            bw.extra_power_mw()
        );
        assert!(y.wakeups_per_sec() > bw.wakeups_per_sec());
    }

    #[test]
    fn batchers_use_less_power_than_busy_wait() {
        let bw = quick(StrategyKind::BusyWait);
        for s in [
            StrategyKind::Mutex,
            StrategyKind::Bp,
            StrategyKind::pbpl_default(),
        ] {
            let m = quick(s.clone());
            assert!(
                m.extra_power_mw() < 0.5 * bw.extra_power_mw(),
                "{} {} vs BW {}",
                s.name(),
                m.extra_power_mw(),
                bw.extra_power_mw()
            );
        }
    }

    #[test]
    fn bp_wakeups_are_all_overflows() {
        let m = quick(StrategyKind::Bp);
        assert_eq!(m.scheduled_wakeups(), 0);
        assert!(m.overflow_wakeups() > 0);
        // Invocation count ≈ items / capacity.
        let expected = m.items_produced / 25;
        let got = m.overflow_wakeups();
        assert!(
            got >= expected.saturating_sub(2) && got <= expected + 2,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn pbp_has_more_overflows_than_spbp() {
        // §III-C: nanosleep jitter causes more buffer overflows.
        // Use a tighter buffer so jitter actually bites.
        let run = |s| {
            Experiment::builder()
                .pairs(2)
                .cores(2)
                .duration(SimDuration::from_millis(500))
                .strategy(s)
                .trace(WorldCupConfig::quick_test())
                .seed(11)
                .buffer_capacity(8)
                .run()
        };
        let pbp = run(StrategyKind::Pbp {
            period: SimDuration::from_micros(500),
        });
        let spbp = run(StrategyKind::Spbp {
            period: SimDuration::from_micros(500),
        });
        assert!(
            pbp.overflow_wakeups() >= spbp.overflow_wakeups(),
            "pbp {} vs spbp {}",
            pbp.overflow_wakeups(),
            spbp.overflow_wakeups()
        );
    }

    #[test]
    fn pbpl_beats_bp_on_wakeups() {
        let run = |s| {
            Experiment::builder()
                .pairs(5)
                .cores(2)
                .duration(SimDuration::from_secs(1))
                .strategy(s)
                .trace(WorldCupConfig::quick_test())
                .seed(3)
                .buffer_capacity(25)
                .run()
        };
        let bp = run(StrategyKind::Bp);
        let pbpl = run(StrategyKind::pbpl_default());
        assert!(
            pbpl.wakeups_per_sec() < bp.wakeups_per_sec(),
            "pbpl {} vs bp {}",
            pbpl.wakeups_per_sec(),
            bp.wakeups_per_sec()
        );
    }

    #[test]
    fn pbpl_latency_bounded_for_scheduled_items() {
        let cfg = PbplConfig {
            slot: SimDuration::from_millis(2),
            max_latency: SimDuration::from_millis(5),
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        // Scheduled wakeups occur at most max_latency + slot + work after
        // buffering; allow generous slack for the end-of-run flush.
        assert!(
            m.mean_latency() < SimDuration::from_millis(6),
            "mean latency {}",
            m.mean_latency()
        );
    }

    #[test]
    fn pbpl_records_scheduled_and_overflow_split() {
        let m = quick(StrategyKind::pbpl_default());
        assert!(m.scheduled_wakeups() > 0, "slot wakeups must occur");
        let total: u64 = m.pairs.iter().map(|p| p.invocations).sum();
        assert_eq!(
            total,
            m.scheduled_wakeups() + m.overflow_wakeups(),
            "every PBPL invocation is scheduled or overflow"
        );
    }

    #[test]
    fn mutex_and_sem_wake_per_burst_not_per_item() {
        let m = quick(StrategyKind::Mutex);
        let item_wakes: u64 = m.pairs.iter().map(|p| p.item_wakeups).sum();
        assert!(item_wakes > 0);
        assert!(
            (item_wakes as f64) < 0.8 * m.items_produced as f64,
            "clustered arrivals must coalesce: {} wakes for {} items",
            item_wakes,
            m.items_produced
        );
    }

    #[test]
    fn sem_cheaper_than_mutex() {
        let mutex = quick(StrategyKind::Mutex);
        let sem = quick(StrategyKind::Sem);
        assert!(sem.usage_ms_per_sec() <= mutex.usage_ms_per_sec());
        assert!(sem.extra_power_mw() <= mutex.extra_power_mw());
    }

    #[test]
    fn single_core_forces_sharing() {
        let m = Experiment::builder()
            .pairs(4)
            .cores(1)
            .duration(SimDuration::from_millis(100))
            .strategy(StrategyKind::pbpl_default())
            .trace(WorldCupConfig::quick_test())
            .seed(5)
            .run();
        assert!(m.all_items_consumed());
        assert_eq!(m.core_reports.len(), 1);
    }

    #[test]
    fn explicit_traces_respected() {
        let horizon = SimTime::from_millis(10);
        let t0 = Trace::new(vec![SimTime::from_millis(1)], horizon);
        let t1 = Trace::new(
            vec![SimTime::from_millis(2), SimTime::from_millis(3)],
            horizon,
        );
        let m = Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(10))
            .strategy(StrategyKind::Mutex)
            .traces(vec![t0, t1])
            .run();
        assert_eq!(m.items_produced, 3);
        assert_eq!(m.pairs[0].items_produced, 1);
        assert_eq!(m.pairs[1].items_produced, 2);
    }

    #[test]
    fn empty_trace_runs_clean() {
        let horizon = SimTime::from_millis(10);
        let m = Experiment::builder()
            .pairs(1)
            .cores(1)
            .duration(SimDuration::from_millis(10))
            .strategy(StrategyKind::pbpl_default())
            .traces(vec![Trace::new(vec![], horizon)])
            .run();
        assert_eq!(m.items_produced, 0);
        assert!(m.all_items_consumed());
    }

    #[test]
    fn core_timelines_validate() {
        for s in all_strategies() {
            let m = quick(s.clone());
            for r in &m.core_reports {
                r.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            }
        }
    }

    #[test]
    fn pbpl_elastic_capacity_varies_when_resizing() {
        // Several consumers on one core with a bursty trace: dynamic
        // sizing must move at least some capacity samples off the fixed
        // base (paper: 43 of 50 allocated on average).
        // Rate swings around B0-per-slot so both shrink (quiet troughs)
        // and grow (peaks) trigger.
        let trace = WorldCupConfig {
            mean_rate: 700.0,
            diurnal_swing: 5.0,
            diurnal_cycles: 3.0,
            ..WorldCupConfig::quick_test()
        };
        let m = Experiment::builder()
            .pairs(4)
            .cores(1)
            .duration(SimDuration::from_millis(800))
            .strategy(StrategyKind::pbpl_default())
            .trace(trace)
            .seed(9)
            .buffer_capacity(25)
            .run();
        let mean_cap = m.mean_capacity();
        assert!(mean_cap > 0.0);
        assert!(
            (mean_cap - 25.0).abs() > 0.2,
            "capacity should deviate from B0=25, got {mean_cap}"
        );
    }

    #[test]
    fn pbpl_no_resizing_keeps_base_capacity() {
        let cfg = PbplConfig {
            resizing: false,
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        assert!(
            (m.mean_capacity() - 25.0).abs() < 1e-9,
            "fixed capacity expected, got {}",
            m.mean_capacity()
        );
    }

    #[test]
    fn kalman_predictor_runs() {
        let cfg = PbplConfig {
            predictor: PredictorKind::Kalman { q: 1e6, r: 1e7 },
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        assert!(m.all_items_consumed());
    }

    /// A trace dense enough to trip the admission controller: one item
    /// every 1 µs for `ms` milliseconds, per pair — with every pair on
    /// one shared core, the drain work alone outruns the core and the
    /// service lag climbs without bound.
    fn flood_traces(pairs: usize, ms: u64) -> Vec<Trace> {
        let horizon = SimTime::from_millis(ms);
        (0..pairs)
            .map(|_| {
                let times = (0..(ms * 1_000))
                    .map(|k| SimTime::from_nanos(k * 1_000 + 1))
                    .collect();
                Trace::new(times, horizon)
            })
            .collect()
    }

    fn overload_run(strategy: StrategyKind, cfg: OverloadConfig) -> RunMetrics {
        Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(50))
            .strategy(strategy)
            .traces(flood_traces(2, 50))
            .seed(11)
            .buffer_capacity(25)
            .overload(cfg)
            .run()
    }

    /// Overload knobs tight enough that a 2-pairs-on-1-core 100 k
    /// items/s flood (whose drains keep the shared core lagging behind
    /// the arrivals) trips admission within the run.
    fn tight_overload() -> OverloadConfig {
        OverloadConfig {
            deadline: SimDuration::from_micros(100),
            supervisor_period: SimDuration::from_millis(5),
            ..OverloadConfig::standard()
        }
    }

    #[test]
    fn overload_disabled_is_inert() {
        // An explicitly-disabled overload config with aggressive knobs
        // must be bit-identical to the builder default — the enabled
        // flag alone decides whether the layer exists.
        let base = quick(StrategyKind::pbpl_default());
        let disabled = Experiment::builder()
            .pairs(2)
            .cores(2)
            .duration(SimDuration::from_millis(200))
            .strategy(StrategyKind::pbpl_default())
            .trace(WorldCupConfig::quick_test())
            .seed(7)
            .buffer_capacity(25)
            .overload(OverloadConfig {
                enabled: false,
                deadline: SimDuration::from_nanos(1),
                trip_arrivals: 1,
                ..OverloadConfig::default()
            })
            .run();
        assert_eq!(
            base.energy.energy_j.to_bits(),
            disabled.energy.energy_j.to_bits()
        );
        assert_eq!(base.items_consumed, disabled.items_consumed);
        assert_eq!(base.items_shed, 0);
        assert_eq!(disabled.items_shed, 0);
        assert_eq!(base.scheduler, disabled.scheduler);
    }

    #[test]
    fn overload_sheds_and_ledger_balances() {
        for strategy in [StrategyKind::Bp, StrategyKind::pbpl_default()] {
            let m = overload_run(strategy.clone(), tight_overload());
            assert!(
                m.items_shed > 0,
                "{}: flood should shed under a 100 µs deadline",
                strategy.name()
            );
            assert!(
                m.all_items_consumed(),
                "{}: produced {} != consumed {} + shed {}",
                strategy.name(),
                m.items_produced,
                m.items_consumed,
                m.items_shed
            );
            assert_eq!(
                m.scheduler.items_shed, m.items_shed,
                "scheduler stamp must match the metric total"
            );
            assert!(m.scheduler.ledger_balanced());
            // Determinism: same seed, same shed count.
            let again = overload_run(strategy, tight_overload());
            assert_eq!(m.items_shed, again.items_shed);
        }
    }

    #[test]
    fn overload_events_pair_up_and_account_sheds() {
        use pc_trace_events::Recorder;
        let recorder = Recorder::bounded(1 << 20);
        let m = Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(50))
            .strategy(StrategyKind::Bp)
            .traces(flood_traces(2, 50))
            .seed(11)
            .buffer_capacity(25)
            .overload(tight_overload())
            .record_events(recorder.handle())
            .run();
        let log = recorder.take();
        let mut entered = 0u64;
        let mut cleared = 0u64;
        let mut shed_events = 0u64;
        let mut shed_reported = 0u64;
        let mut open = std::collections::BTreeSet::new();
        for ev in &log.events {
            match ev.kind {
                TraceEvent::OverloadEntered { pair, .. } => {
                    assert!(open.insert(pair), "pair {pair} entered twice");
                    entered += 1;
                }
                TraceEvent::OverloadCleared { pair, shed } => {
                    assert!(open.remove(&pair), "pair {pair} cleared while closed");
                    cleared += 1;
                    shed_reported += shed;
                }
                TraceEvent::ItemShed { pair } => {
                    assert!(open.contains(&pair), "shed outside a window");
                    shed_events += 1;
                }
                _ => {}
            }
        }
        assert!(entered > 0, "flood should open at least one window");
        assert_eq!(entered, cleared, "every window must close by teardown");
        assert!(open.is_empty());
        assert_eq!(shed_events, m.items_shed);
        assert_eq!(
            shed_reported, m.items_shed,
            "window tallies must cover all sheds"
        );
        let window_total: u64 = m.pairs.iter().map(|p| p.overload_windows).sum();
        assert_eq!(window_total, entered);
    }

    #[test]
    fn overload_conserves_for_every_strategy() {
        for s in all_strategies() {
            let m = overload_run(s.clone(), tight_overload());
            assert!(
                m.all_items_consumed(),
                "{}: produced {} consumed {} shed {}",
                s.name(),
                m.items_produced,
                m.items_consumed,
                m.items_shed
            );
            assert!(
                m.scheduler.ledger_balanced(),
                "{}: {:?}",
                s.name(),
                m.scheduler
            );
        }
    }
}
