//! Spawn/collect machinery: run M native pairs under one strategy for a
//! trace horizon and gather the paper's per-pair metrics.

use crate::clock::ReplayClock;
use crate::counters::PairStats;
use crate::manager::NativeCoreManager;
use crate::strategy::{
    spawn_bp, spawn_busy, spawn_mutex, spawn_pbpl, spawn_periodic, spawn_sem, PairContext,
    PairHandle,
};
use pc_core::{CostModel, SlotTrack, StrategyKind};
use pc_faults::FaultPlan;
use pc_power::PowerModel;
use pc_queues::GlobalPool;
use pc_sim::{SimDuration, SimTime};
use pc_trace::{Trace, WorldCupConfig};
use pc_trace_events::TraceHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Hard ceiling on how long [`NativeHarness::run`] waits for its strategy
/// threads after raising the stop flag. Generous compared to the drain
/// slack (tens of milliseconds) on purpose: the watchdog exists to catch
/// genuinely stuck threads — a lost wakeup, a consumer blocked on a
/// primitive nobody will ever signal — not to police slow machines.
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of one native run.
#[derive(Debug, Clone)]
pub struct NativeHarness {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Number of producer-consumer pairs.
    pub pairs: usize,
    /// Number of virtual cores (PBPL managers); consumers are assigned
    /// `i mod cores`.
    pub cores: usize,
    /// Simulated horizon to replay.
    pub duration: SimDuration,
    /// Wall seconds per simulated second (use < 1.0 to fast-forward).
    pub time_scale: f64,
    /// Workload configuration (horizon overridden by `duration`).
    pub trace: WorldCupConfig,
    /// Base buffer capacity B₀.
    pub buffer_capacity: usize,
    /// Seed for trace generation.
    pub seed: u64,
    /// Structured event-trace handle (disabled by default). Native
    /// events carry replay-clock sim time: good for conservation checks,
    /// not for bit-stable digests.
    pub trace_events: TraceHandle,
    /// Fault plan applied to the replayed workload (empty by default).
    /// Native support is best-effort: workload faults (rate shocks,
    /// producer stalls) reshape each pair's production times before
    /// replay, exactly as the sim does; scheduler-level faults (dropped
    /// wakeups, timer drift, pool squeezes) need the sim's event loop
    /// and are ignored here.
    pub fault_plan: FaultPlan,
}

impl Default for NativeHarness {
    fn default() -> Self {
        NativeHarness {
            strategy: StrategyKind::pbpl_default(),
            pairs: 2,
            cores: 2,
            duration: SimDuration::from_millis(500),
            time_scale: 1.0,
            trace: WorldCupConfig::quick_test(),
            buffer_capacity: 25,
            seed: 42,
            trace_events: TraceHandle::disabled(),
            fault_plan: FaultPlan::empty(),
        }
    }
}

/// Results of one native run.
#[derive(Debug, Clone)]
pub struct NativeRunReport {
    /// Strategy display name.
    pub strategy: String,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Per-pair counter snapshots.
    pub pairs: Vec<PairStats>,
    /// PBPL only: slot timer fires per core manager.
    pub manager_fires: Vec<u64>,
}

impl NativeRunReport {
    /// Total items consumed.
    pub fn items_consumed(&self) -> u64 {
        self.pairs.iter().map(|p| p.items_consumed).sum()
    }

    /// Total items produced.
    pub fn items_produced(&self) -> u64 {
        self.pairs.iter().map(|p| p.items_produced).sum()
    }

    /// Total consumer-thread wakeups per wall second (the PowerTop-style
    /// aggregate).
    pub fn wakeups_per_sec(&self) -> f64 {
        let total: u64 = self.pairs.iter().map(|p| p.wakeups).sum();
        total as f64 / self.wall_secs
    }

    /// Total consumer busy milliseconds per wall second (usage, ms/s).
    pub fn usage_ms_per_sec(&self) -> f64 {
        let busy: f64 = self.pairs.iter().map(|p| p.busy.as_secs_f64()).sum();
        busy * 1e3 / self.wall_secs
    }

    /// Mean item latency across pairs (wall time).
    pub fn mean_latency(&self) -> SimDuration {
        let total_items: u64 = self.pairs.iter().map(|p| p.items_consumed).sum();
        if total_items == 0 {
            return SimDuration::ZERO;
        }
        let sum: SimDuration = self.pairs.iter().map(|p| p.latency_sum).sum();
        sum / total_items
    }
}

impl NativeHarness {
    /// Runs the configured experiment on real threads and blocks until
    /// all of them have joined.
    pub fn run(self) -> NativeRunReport {
        assert!(self.pairs > 0 && self.cores > 0);
        let horizon = SimTime::ZERO + self.duration;
        let mut cfg = self.trace.clone();
        cfg.horizon = horizon;
        let base = cfg.generate(self.seed.wrapping_add(0x7ace));
        let clock = ReplayClock::start(self.time_scale);
        let stop = Arc::new(AtomicBool::new(false));
        let cost = CostModel::from_power_model(&PowerModel::exynos_like());

        // PBPL substrate: one manager thread per core + the global pool.
        let (managers, mgr_threads, pool) = if matches!(self.strategy, StrategyKind::Pbpl(_)) {
            let pbpl = match &self.strategy {
                StrategyKind::Pbpl(c) => c.clone(),
                _ => unreachable!(),
            };
            let track = SlotTrack::new(pbpl.slot);
            let managers: Vec<Arc<NativeCoreManager>> = (0..self.cores)
                .map(|_| NativeCoreManager::new(track, clock))
                .collect();
            let threads: Vec<thread::JoinHandle<()>> = managers
                .iter()
                .map(|m| {
                    let m = Arc::clone(m);
                    thread::spawn(move || m.run())
                })
                .collect();
            let pool = GlobalPool::new(self.buffer_capacity * self.pairs);
            (managers, threads, Some(pool))
        } else {
            (Vec::new(), Vec::new(), None)
        };

        let started = Instant::now();
        let handles: Vec<PairHandle> = (0..self.pairs)
            .map(|i| {
                let mut trace = base.phase_shift(i as f64 / self.pairs as f64);
                if !self.fault_plan.is_empty() {
                    let mut times = trace.into_times();
                    self.fault_plan
                        .apply_workload_faults(i as u32, &mut times, horizon);
                    trace = Trace::new(times, horizon);
                }
                let ctx = PairContext {
                    index: i,
                    trace,
                    clock,
                    stop: Arc::clone(&stop),
                    capacity: self.buffer_capacity,
                    manager: managers.get(i % self.cores.max(1)).cloned(),
                    pool: pool.clone(),
                    pbpl: match &self.strategy {
                        StrategyKind::Pbpl(c) => Some(c.clone()),
                        _ => None,
                    },
                    cost,
                    trace_events: self.trace_events.clone(),
                };
                match &self.strategy {
                    StrategyKind::BusyWait => spawn_busy(ctx, false),
                    StrategyKind::Yield => spawn_busy(ctx, true),
                    StrategyKind::Mutex => spawn_mutex(ctx),
                    StrategyKind::Sem => spawn_sem(ctx),
                    StrategyKind::Bp => spawn_bp(ctx),
                    StrategyKind::Pbp { period } => {
                        spawn_periodic(ctx, SimTime::ZERO + *period, false)
                    }
                    StrategyKind::Spbp { period } => {
                        spawn_periodic(ctx, SimTime::ZERO + *period, true)
                    }
                    StrategyKind::Pbpl(_) => spawn_pbpl(ctx),
                }
            })
            .collect();

        // Let the horizon elapse (plus strategy drain slack), then stop.
        crate::clock::precise_sleep_until(
            clock.wall_deadline(horizon + SimDuration::from_millis(20)),
        );
        stop.store(true, Ordering::SeqCst);
        let counters: Vec<_> = handles.iter().map(|h| Arc::clone(&h.counters)).collect();
        // Join through a watchdog. A strategy thread that misses the stop
        // flag (a lost wakeup with no recovery, a blocked primitive nobody
        // signals) would otherwise hang the whole process with zero
        // diagnostics; instead, dump every pair's counters — which pair
        // stopped consuming, and where — and fail loudly.
        let (done_tx, done_rx) = mpsc::channel();
        let joiner = thread::Builder::new()
            .name("pc-join-watchdog".into())
            .spawn(move || {
                for h in handles {
                    h.join();
                }
                let _ = done_tx.send(());
            })
            .expect("spawn joiner thread");
        match done_rx.recv_timeout(JOIN_TIMEOUT) {
            Ok(()) => joiner.join().expect("joiner thread panicked"),
            Err(_) => {
                let dump: Vec<String> = counters
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("  pair {i}: {:?}", c.snapshot()))
                    .collect();
                panic!(
                    "native harness: strategy threads failed to join within \
                     {JOIN_TIMEOUT:?} of the stop flag — likely a stuck \
                     consumer; per-pair counters at timeout:\n{}",
                    dump.join("\n")
                );
            }
        }
        let wall_secs = started.elapsed().as_secs_f64();
        let manager_fires = managers.iter().map(|m| m.slot_fires()).collect();
        for m in &managers {
            m.shutdown();
        }
        for t in mgr_threads {
            t.join().expect("manager thread panicked");
        }
        // Pool ledger: with every pair thread joined and every manager's
        // buffer table cleared, each elastic buffer has dropped and
        // returned its units.
        if let Some(pool) = &pool {
            assert_eq!(
                pool.available(),
                pool.total(),
                "native PBPL pool leaked {} of {} units at teardown",
                pool.total() - pool.available(),
                pool.total()
            );
        }

        NativeRunReport {
            strategy: self.strategy.name().to_string(),
            wall_secs,
            pairs: counters.iter().map(|c| c.snapshot()).collect(),
            manager_fires,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(strategy: StrategyKind) -> NativeHarness {
        NativeHarness {
            strategy,
            pairs: 2,
            cores: 2,
            duration: SimDuration::from_millis(250),
            ..NativeHarness::default()
        }
    }

    #[test]
    fn mutex_harness_runs_clean() {
        let r = harness(StrategyKind::Mutex).run();
        assert!(r.items_produced() > 0);
        assert_eq!(r.items_produced(), r.items_consumed());
        assert!(r.wakeups_per_sec() > 0.0);
    }

    #[test]
    fn pbpl_harness_runs_clean() {
        let r = harness(StrategyKind::pbpl_default()).run();
        assert_eq!(r.items_produced(), r.items_consumed());
        assert_eq!(r.manager_fires.len(), 2);
        let scheduled: u64 = r.pairs.iter().map(|p| p.scheduled).sum();
        assert!(scheduled > 0, "slot wakes expected");
    }

    #[test]
    fn pbpl_harness_returns_every_pool_unit() {
        // `run` asserts the ledger itself; more pairs than cores puts
        // several buffers behind each manager.
        let r = NativeHarness {
            pairs: 5,
            ..harness(StrategyKind::pbpl_default())
        }
        .run();
        assert_eq!(r.items_produced(), r.items_consumed());
    }

    #[test]
    fn bp_wakes_less_than_mutex() {
        let mutex = harness(StrategyKind::Mutex).run();
        let bp = harness(StrategyKind::Bp).run();
        assert!(
            bp.wakeups_per_sec() < mutex.wakeups_per_sec(),
            "bp {} vs mutex {}",
            bp.wakeups_per_sec(),
            mutex.wakeups_per_sec()
        );
    }

    #[test]
    fn faulted_harness_conserves_items() {
        // Workload faults reshape production times but never add or drop
        // items, so end-to-end conservation must survive them natively.
        use pc_faults::{ExpandEnv, FaultScenario};
        let mut h = harness(StrategyKind::pbpl_default());
        let env = ExpandEnv {
            horizon_ns: h.duration.as_nanos(),
            pairs: h.pairs as u32,
            cores: h.cores as u32,
            pool_total: (h.buffer_capacity * h.pairs) as u64,
        };
        h.fault_plan = FaultPlan::expand(FaultScenario::RateShock, 3, &env);
        assert!(!h.fault_plan.is_empty());
        let r = h.run();
        assert!(r.items_produced() > 0);
        assert_eq!(r.items_produced(), r.items_consumed());
    }

    #[test]
    fn busy_wait_burns_cpu_without_wakeups() {
        let r = harness(StrategyKind::BusyWait).run();
        assert!(
            r.usage_ms_per_sec() > 1500.0,
            "usage {}",
            r.usage_ms_per_sec()
        );
        let wakeups: u64 = r.pairs.iter().map(|p| p.wakeups).sum();
        assert_eq!(wakeups, 0);
    }
}
