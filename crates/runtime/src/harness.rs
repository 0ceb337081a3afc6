//! Spawn/collect machinery: run M native pairs under one strategy for a
//! trace horizon and gather the paper's per-pair metrics.

use crate::clock::{thread_cpu, ReplayClock, StopSignal};
use crate::counters::PairStats;
use crate::manager::NativeCoreManager;
use crate::strategy::{
    pbpl_buffer, spawn_bp, spawn_busy, spawn_mutex, spawn_pbpl, spawn_periodic, spawn_sem,
    PairContext, PairExit, PairHandle,
};
use pc_core::{CostModel, SlotTrack, StrategyKind};
use pc_faults::FaultPlan;
use pc_power::PowerModel;
use pc_queues::GlobalPool;
use pc_sim::{SimDuration, SimTime};
use pc_trace::{Trace, WorldCupConfig};
use pc_trace_events::TraceHandle;
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
    /// CPU time of the run's threads, by role.
    pub cpu: RoleCpu,
    /// OS wakes of the run's threads, by role.
    pub wakes: RoleWakes,
    /// How late the producers pushed against their replay schedule.
    pub lateness: Lateness,
}

/// CPU time (user + system) of a native run's threads by role, each read
/// with `getrusage(RUSAGE_THREAD)` as the thread exits. Only the join
/// watchdog is not counted; it just blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCpu {
    /// Every producer (trace replay) thread.
    pub producer: Duration,
    /// Every consumer thread.
    pub consumer: Duration,
    /// Every PBPL core-manager thread (zero for the other strategies).
    pub manager: Duration,
    /// The thread calling [`NativeHarness::run`]: trace generation,
    /// spawning, joining and the lateness sort.
    pub harness: Duration,
}

impl RoleCpu {
    /// CPU time of all roles.
    pub fn total(&self) -> Duration {
        self.producer + self.consumer + self.manager + self.harness
    }
}

/// OS wakes of a native run's threads by role: each return from a call
/// that blocks. That is a producer's replay sleeps that waited and its
/// parks on a full buffer, a consumer's waits (the one its buffer's
/// close ends included; a wait a short spin satisfies counts too), and a
/// core manager's timer reads.
/// Unlike [`PairStats::wakeups`], the paper's PowerTop metric for
/// consumers, these include wakes that do no work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleWakes {
    /// Every producer (trace replay) thread.
    pub producer: u64,
    /// Every consumer thread.
    pub consumer: u64,
    /// Every PBPL core-manager thread (zero for the other strategies).
    pub manager: u64,
}

/// Pacing fidelity of the replay: per produced item, the instant it was
/// pushed minus its scheduled wall deadline, over every pair
/// (nearest-rank percentiles; zero when nothing was produced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Median lateness.
    pub p50: Duration,
    /// 99th-percentile lateness.
    pub p99: Duration,
    /// Worst lateness.
    pub max: Duration,
}

impl Lateness {
    /// Percentiles of an ascending slice of nanosecond samples.
    fn from_sorted(ns: &[u64]) -> Self {
        let rank = |q: f64| {
            let i = ((q * ns.len() as f64).ceil() as usize).saturating_sub(1);
            ns.get(i)
                .map_or(Duration::ZERO, |&n| Duration::from_nanos(n))
        };
        Lateness {
            p50: rank(0.5),
            p99: rank(0.99),
            max: rank(1.0),
        }
    }
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
        let harness_cpu = thread_cpu();
        let horizon = SimTime::ZERO + self.duration;
        let mut cfg = self.trace.clone();
        cfg.horizon = horizon;
        let base = cfg.generate(self.seed.wrapping_add(0x7ace));
        let clock = ReplayClock::start(self.time_scale);
        let stop = Arc::new(StopSignal::new());
        let cost = CostModel::from_power_model(&PowerModel::exynos_like());

        // PBPL substrate: one manager thread per core + the global pool.
        let (pbpl, managers, mgr_threads, pool) = if let StrategyKind::Pbpl(cfg) = &self.strategy {
            let track = SlotTrack::new(cfg.slot);
            let managers: Vec<Arc<NativeCoreManager>> = (0..self.cores)
                .map(|_| NativeCoreManager::new(track, clock))
                .collect();
            let threads: Vec<thread::JoinHandle<(u64, Duration)>> = managers
                .iter()
                .map(|m| {
                    let m = Arc::clone(m);
                    thread::spawn(move || (m.run(), thread_cpu()))
                })
                .collect();
            let pool = GlobalPool::new(self.buffer_capacity * self.pairs);
            (Some(cfg), managers, threads, Some(pool))
        } else {
            (None, Vec::new(), Vec::new(), None)
        };

        let started = Instant::now();
        // Every context, PBPL buffer included, before any pair starts.
        let contexts: Vec<PairContext> = (0..self.pairs)
            .map(|i| {
                let mut trace = base.phase_shift(i as f64 / self.pairs as f64);
                if !self.fault_plan.is_empty() {
                    let mut times = trace.into_times();
                    self.fault_plan
                        .apply_workload_faults(i as u32, &mut times, horizon);
                    trace = Trace::new(times, horizon);
                }
                PairContext {
                    index: i,
                    trace,
                    clock,
                    stop: Arc::clone(&stop),
                    capacity: self.buffer_capacity,
                    manager: managers.get(i % self.cores.max(1)).cloned(),
                    buffer: pbpl
                        .zip(pool.as_ref())
                        .map(|(cfg, pool)| pbpl_buffer(pool, self.buffer_capacity, cfg)),
                    pbpl: pbpl.cloned(),
                    cost,
                    trace_events: self.trace_events.clone(),
                }
            })
            .collect();
        // Each pair owns a shifted copy; free the base before the
        // producers fill their lateness samples.
        drop(base);
        let handles: Vec<PairHandle> = contexts
            .into_iter()
            .map(|ctx| match &self.strategy {
                StrategyKind::BusyWait => spawn_busy(ctx, false),
                StrategyKind::Yield => spawn_busy(ctx, true),
                StrategyKind::Mutex => spawn_mutex(ctx),
                StrategyKind::Sem => spawn_sem(ctx),
                StrategyKind::Bp => spawn_bp(ctx),
                StrategyKind::Pbp { period } => spawn_periodic(ctx, SimTime::ZERO + *period, false),
                StrategyKind::Spbp { period } => spawn_periodic(ctx, SimTime::ZERO + *period, true),
                StrategyKind::Pbpl(_) => spawn_pbpl(ctx),
            })
            .collect();

        // Let the horizon elapse (plus strategy drain slack), then stop.
        stop.sleep_until(clock.wall_deadline(horizon + SimDuration::from_millis(20)));
        stop.raise();
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
                let exits: Vec<PairExit> = handles.into_iter().map(PairHandle::join).collect();
                let _ = done_tx.send(exits);
            })
            .expect("spawn joiner thread");
        let exits = match done_rx.recv_timeout(JOIN_TIMEOUT) {
            Ok(exits) => {
                joiner.join().expect("joiner thread panicked");
                exits
            }
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
        };
        let wall_secs = started.elapsed().as_secs_f64();
        let manager_fires = managers.iter().map(|m| m.slot_fires()).collect();
        for m in &managers {
            m.shutdown();
        }
        let (mut cpu, mut wakes) = (RoleCpu::default(), RoleWakes::default());
        for t in mgr_threads {
            let (mgr_wakes, mgr_cpu) = t.join().expect("manager thread panicked");
            cpu.manager += mgr_cpu;
            wakes.manager += mgr_wakes;
        }
        let mut lateness_ns = Vec::new();
        for exit in exits {
            cpu.producer += exit.producer_cpu;
            cpu.consumer += exit.consumer_cpu;
            wakes.producer += exit.producer_wakes;
            wakes.consumer += exit.consumer_wakes;
            lateness_ns.extend(exit.lateness_ns);
        }
        lateness_ns.sort_unstable();
        let lateness = Lateness::from_sorted(&lateness_ns);
        cpu.harness = thread_cpu() - harness_cpu;
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
            cpu,
            wakes,
            lateness,
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
    fn every_overflow_invocation_ends_one_producer_episode() {
        // 5000 items/s in 5-item clusters against a 10-item buffer:
        // the producer overflows many times before each 10 ms slot.
        let r = NativeHarness {
            buffer_capacity: 10,
            ..harness(StrategyKind::pbpl_default())
        }
        .run();
        assert_eq!(r.items_produced(), r.items_consumed());
        for (i, p) in r.pairs.iter().enumerate() {
            assert!(p.overflow_episodes > 0, "pair {i}: no overflow episode");
            // A phantom second signal per episode would push `overflows`
            // above the episodes; the last episode may meet the stop
            // flag instead of an invocation.
            assert!(
                p.overflows <= p.overflow_episodes && p.overflows + 1 >= p.overflow_episodes,
                "pair {i}: {} overflow invocations for {} episodes",
                p.overflows,
                p.overflow_episodes
            );
        }
    }

    #[test]
    fn replay_runs_on_schedule() {
        // The median push lands within 1 ms of its trace deadline. Best
        // of three: parallel tests only ever delay the producer, so the
        // best run measures the pacer rather than the host's load.
        let best = (0..3)
            .map(|_| harness(StrategyKind::pbpl_default()).run().lateness)
            .min_by_key(|l| l.p50)
            .expect("three runs");
        assert!(best.p50 < Duration::from_millis(1), "lateness {best:?}");
        assert!(best.p50 <= best.p99 && best.p99 <= best.max);
    }

    #[test]
    fn pbpl_threads_wake_only_for_work() {
        // One second of the benchmark's `native_pbpl` shape: one pair on
        // one core replaying the paper's WorldCup workload. The manager
        // wakes for slot fires and the shutdown; the consumer for its
        // invocations and the stop.
        let r = NativeHarness {
            strategy: StrategyKind::pbpl_default(),
            pairs: 1,
            cores: 1,
            duration: SimDuration::from_secs(1),
            trace: WorldCupConfig::paper_default(),
            seed: 5,
            ..NativeHarness::default()
        }
        .run();
        assert_eq!(r.items_produced(), r.items_consumed());
        let fires: u64 = r.manager_fires.iter().sum();
        let wakeups: u64 = r.pairs.iter().map(|p| p.wakeups).sum();
        assert!(fires > 0, "no slot fired");
        assert!(
            r.wakes.manager <= fires + 2,
            "{} manager wakes for {fires} slot fires",
            r.wakes.manager
        );
        assert!(
            r.wakes.consumer <= wakeups + 1,
            "{} consumer wakes for {wakeups} wakeups",
            r.wakes.consumer
        );
        assert!(r.wakes.producer > 0, "the replay sleeps between arrivals");
    }

    #[test]
    fn lateness_percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=200).collect();
        let l = Lateness::from_sorted(&ns);
        assert_eq!(l.p50, Duration::from_nanos(100));
        assert_eq!(l.p99, Duration::from_nanos(198));
        assert_eq!(l.max, Duration::from_nanos(200));
        assert_eq!(Lateness::from_sorted(&[]), Lateness::default());
    }

    #[test]
    fn roles_report_cpu() {
        let r = harness(StrategyKind::pbpl_default()).run();
        assert!(r.cpu.producer > Duration::ZERO && r.cpu.consumer > Duration::ZERO);
        assert!(r.cpu.manager > Duration::ZERO, "PBPL runs core managers");
        let r = harness(StrategyKind::Mutex).run();
        assert_eq!(r.cpu.manager, Duration::ZERO);
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
