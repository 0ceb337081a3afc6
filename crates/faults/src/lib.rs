//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a schedule of typed faults, each active over a
//! half-open sim-time window `[start_ns, end_ns)`. Plans are either built
//! explicitly (tests) or expanded from a `(scenario, seed)` pair with the
//! sim RNG — so a plan is a pure function of its inputs and every fault
//! fires at integer sim-time, never wall-clock.
//!
//! Two fault families exist:
//!
//! * **Workload faults** ([`FaultKind::RateShock`],
//!   [`FaultKind::ProducerStall`]) transform the production trace itself
//!   *before* the run via [`FaultPlan::apply_workload_faults`]. The item
//!   count is preserved exactly — only timestamps move — so item
//!   conservation is checkable through the fault.
//! * **Runtime faults** (consumer slowdown, timer drift, dropped wakeup,
//!   pool squeeze) are interpreted by the simulator, which schedules
//!   `FaultStart`/`FaultEnd` events at the window edges and emits
//!   `FaultInjected`/`FaultRecovered` trace events.
//!
//! The zero-fault plan is free: an empty plan schedules nothing, draws no
//! RNG, and leaves every run bit-identical to a build without this crate.

use pc_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Sentinel for "not pair/core scoped" in trace-event fields.
pub const NO_TARGET: u32 = u32::MAX;

/// The typed fault vocabulary. All parameters are integers (fixed-point
/// `_x1000` where a factor is needed) so plans serialize and digest
/// bit-stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Producer `pair` emits at `factor_x1000 / 1000` times its nominal
    /// rate inside the window: arrivals are compressed toward the window
    /// start (a burst), item count unchanged.
    RateShock { pair: u32, factor_x1000: u32 },
    /// Producer `pair` stalls: every arrival inside the window is
    /// deferred to the window end and released as one catch-up dump.
    ProducerStall { pair: u32 },
    /// Consumer `pair`'s per-item/batch service time is multiplied by
    /// `factor_x1000 / 1000` while the fault is active.
    ConsumerSlowdown { pair: u32, factor_x1000: u32 },
    /// Timers armed on `core` while the fault is active fire `delay_ns`
    /// late (slot-timer jitter / late fire).
    TimerDrift { core: u32, delay_ns: u64 },
    /// Scheduled wakeups on `core` are swallowed while the fault is
    /// active; recovery re-plans from the reservation book.
    DroppedWakeup { core: u32 },
    /// Up to `units` units of the elastic global pool are reserved away
    /// for the duration of the window (transient capacity squeeze).
    PoolSqueeze { units: u32 },
}

impl FaultKind {
    /// Stable snake_case name used in trace-event payloads.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RateShock { .. } => "rate_shock",
            FaultKind::ProducerStall { .. } => "producer_stall",
            FaultKind::ConsumerSlowdown { .. } => "consumer_slowdown",
            FaultKind::TimerDrift { .. } => "timer_drift",
            FaultKind::DroppedWakeup { .. } => "dropped_wakeup",
            FaultKind::PoolSqueeze { .. } => "pool_squeeze",
        }
    }

    /// Target pair, or [`NO_TARGET`] when the fault is not pair-scoped.
    pub fn pair(&self) -> u32 {
        match *self {
            FaultKind::RateShock { pair, .. }
            | FaultKind::ProducerStall { pair }
            | FaultKind::ConsumerSlowdown { pair, .. } => pair,
            _ => NO_TARGET,
        }
    }

    /// Target core, or [`NO_TARGET`] when the fault is not core-scoped.
    pub fn core(&self) -> u32 {
        match *self {
            FaultKind::TimerDrift { core, .. } | FaultKind::DroppedWakeup { core } => core,
            _ => NO_TARGET,
        }
    }

    /// The fault's scalar parameter as traced at injection time (factor,
    /// delay, or requested units; zero when parameterless).
    pub fn param(&self) -> u64 {
        match *self {
            FaultKind::RateShock { factor_x1000, .. }
            | FaultKind::ConsumerSlowdown { factor_x1000, .. } => factor_x1000 as u64,
            FaultKind::TimerDrift { delay_ns, .. } => delay_ns,
            FaultKind::PoolSqueeze { units } => units as u64,
            FaultKind::ProducerStall { .. } | FaultKind::DroppedWakeup { .. } => 0,
        }
    }

    /// Whether the fault rewrites the production trace (vs. being
    /// interpreted at runtime).
    pub fn is_workload(&self) -> bool {
        matches!(
            self,
            FaultKind::RateShock { .. } | FaultKind::ProducerStall { .. }
        )
    }
}

/// One scheduled fault: active over `[start_ns, end_ns)` sim-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Plan-unique id, echoed by `FaultInjected`/`FaultRecovered` events.
    pub id: u32,
    /// Window start, integer sim nanoseconds.
    pub start_ns: u64,
    /// Window end (exclusive), integer sim nanoseconds.
    pub end_ns: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, sorted by `(start_ns, id)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// Inputs [`FaultPlan::expand`] scales its windows and targets by.
#[derive(Debug, Clone, Copy)]
pub struct ExpandEnv {
    /// Run horizon in sim nanoseconds.
    pub horizon_ns: u64,
    /// Number of producer-consumer pairs.
    pub pairs: u32,
    /// Number of cores.
    pub cores: u32,
    /// Total units in the elastic global pool (B₀·M), for sizing
    /// squeezes. Zero when the strategy has no pool.
    pub pool_total: u64,
}

/// Canonical fault scenarios the chaos sweep iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScenario {
    /// No faults; the control row of every chaos table.
    Baseline,
    /// One producer bursts at 3–5× its nominal rate.
    RateShock,
    /// One producer stalls, then dumps the backlog at once.
    ProducerStall,
    /// One consumer's service time inflates 2–4×.
    ConsumerSlowdown,
    /// One core's timers fire late.
    TimerDrift,
    /// One core's scheduled wakeups are swallowed.
    DroppedWakeup,
    /// The global pool transiently loses 40–70% of its units.
    PoolSqueeze,
    /// One of each fault kind, staggered across the horizon.
    Chaos,
    /// Correlated overload: *every* producer rate-shocks 4–6×
    /// simultaneously in one shared mid-run window — the flash-crowd
    /// shape the fleet supervisor's escalation exists for
    /// (DESIGN.md §15).
    FlashCrowd,
    /// Correlated capacity loss: three staggered, overlapping pool
    /// squeezes of 25–40% each, so the pool drains in waves instead of
    /// one step.
    CascadingSqueeze,
}

impl FaultScenario {
    /// Every *chaos-sweep* scenario, in canonical (output) order.
    ///
    /// The correlated overload scenarios ([`FaultScenario::FlashCrowd`],
    /// [`FaultScenario::CascadingSqueeze`]) are deliberately excluded:
    /// the chaos sweep's grid — and therefore `chaos.json` and its
    /// golden digests — is pinned to this list. They are reachable via
    /// [`Self::correlated`], the overload sweep, and [`Self::from_name`].
    pub fn all() -> [FaultScenario; 8] {
        [
            FaultScenario::Baseline,
            FaultScenario::RateShock,
            FaultScenario::ProducerStall,
            FaultScenario::ConsumerSlowdown,
            FaultScenario::TimerDrift,
            FaultScenario::DroppedWakeup,
            FaultScenario::PoolSqueeze,
            FaultScenario::Chaos,
        ]
    }

    /// The correlated overload scenarios (overload sweep only; not part
    /// of [`Self::all`]).
    pub fn correlated() -> [FaultScenario; 2] {
        [FaultScenario::FlashCrowd, FaultScenario::CascadingSqueeze]
    }

    /// Stable display / filter name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScenario::Baseline => "baseline",
            FaultScenario::RateShock => "rate_shock",
            FaultScenario::ProducerStall => "producer_stall",
            FaultScenario::ConsumerSlowdown => "consumer_slowdown",
            FaultScenario::TimerDrift => "timer_drift",
            FaultScenario::DroppedWakeup => "dropped_wakeup",
            FaultScenario::PoolSqueeze => "pool_squeeze",
            FaultScenario::Chaos => "chaos",
            FaultScenario::FlashCrowd => "flash_crowd",
            FaultScenario::CascadingSqueeze => "cascading_squeeze",
        }
    }

    /// Inverse of [`Self::name`], used by trace replay to re-expand a
    /// recorded cell's fault plan from its `CellMeta` scenario field.
    /// Covers the correlated scenarios too, so overload-sweep exports
    /// replay even though [`Self::all`] excludes them.
    pub fn from_name(name: &str) -> Option<FaultScenario> {
        FaultScenario::all()
            .into_iter()
            .chain(FaultScenario::correlated())
            .find(|s| s.name() == name)
    }
}

/// FNV-1a over a byte string; used to derive a per-scenario RNG stream
/// from the run seed so scenarios never share draws.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// The zero-fault plan.
    pub fn empty() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Wraps explicit faults, sorting by `(start_ns, id)`.
    pub fn new(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| (f.start_ns, f.id));
        FaultPlan { faults }
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The schedule, sorted by `(start_ns, id)`.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Expands a scenario into a concrete plan. Pure in
    /// `(scenario, seed, env)`: the RNG stream is derived from the seed
    /// and the scenario name, windows scale with the horizon, and all
    /// arithmetic is integer.
    pub fn expand(scenario: FaultScenario, seed: u64, env: &ExpandEnv) -> FaultPlan {
        if matches!(scenario, FaultScenario::Baseline) || env.horizon_ns == 0 {
            return FaultPlan::empty();
        }
        let mut rng = SimRng::new(seed ^ fnv1a(scenario.name().as_bytes()));
        match scenario {
            FaultScenario::FlashCrowd => return expand_flash_crowd(&mut rng, env),
            FaultScenario::CascadingSqueeze => return expand_cascading_squeeze(&mut rng, env),
            _ => {}
        }
        let kinds: Vec<fn(&mut SimRng, &ExpandEnv) -> FaultKind> = match scenario {
            FaultScenario::Baseline => unreachable!(),
            FaultScenario::RateShock => vec![gen_rate_shock],
            FaultScenario::ProducerStall => vec![gen_producer_stall],
            FaultScenario::ConsumerSlowdown => vec![gen_consumer_slowdown],
            FaultScenario::TimerDrift => vec![gen_timer_drift],
            FaultScenario::DroppedWakeup => vec![gen_dropped_wakeup],
            FaultScenario::PoolSqueeze => vec![gen_pool_squeeze],
            FaultScenario::Chaos => vec![
                gen_rate_shock,
                gen_producer_stall,
                gen_consumer_slowdown,
                gen_timer_drift,
                gen_dropped_wakeup,
                gen_pool_squeeze,
            ],
            FaultScenario::FlashCrowd | FaultScenario::CascadingSqueeze => {
                unreachable!("expanded above")
            }
        };
        let lanes = kinds.len() as u64;
        let mut faults = Vec::with_capacity(kinds.len());
        for (i, gen) in kinds.iter().enumerate() {
            // Stagger windows across lanes so chaos faults overlap only
            // mildly; a single-kind scenario gets the whole mid-run lane.
            let lane = env.horizon_ns / lanes;
            let lane_start = lane * i as u64;
            // Start 20–40% into the lane, run for 25–40% of it: the fault
            // both starts and clears well inside the run, so recovery is
            // observable before the end-of-run flush.
            let start_ns = lane_start + lane / 5 + rng.next_below(lane / 5 + 1);
            let dur = lane / 4 + rng.next_below(lane * 3 / 20 + 1);
            let end_ns = (start_ns + dur).min(env.horizon_ns.saturating_sub(1));
            let kind = gen(&mut rng, env);
            if end_ns <= start_ns {
                continue;
            }
            faults.push(Fault {
                id: i as u32,
                start_ns,
                end_ns,
                kind,
            });
        }
        FaultPlan::new(faults)
    }

    /// Applies every workload fault targeting `pair` to its production
    /// times, in schedule order. Transformations move timestamps but
    /// never add or remove items; the result is re-sorted and clamped to
    /// `[0, horizon)` so it stays a valid trace.
    pub fn apply_workload_faults(&self, pair: u32, times: &mut [SimTime], horizon: SimTime) {
        let mut touched = false;
        for f in &self.faults {
            if f.kind.pair() != pair || !f.kind.is_workload() {
                continue;
            }
            touched = true;
            let (s, e) = (f.start_ns, f.end_ns);
            match f.kind {
                FaultKind::RateShock { factor_x1000, .. } => {
                    let k = factor_x1000.max(1000) as u128;
                    for t in times.iter_mut() {
                        let ns = t.as_nanos();
                        if ns >= s && ns < e {
                            let compressed = ((ns - s) as u128 * 1000 / k) as u64;
                            *t = SimTime::from_nanos(s + compressed);
                        }
                    }
                }
                FaultKind::ProducerStall { .. } => {
                    let release = e.min(horizon.as_nanos().saturating_sub(1));
                    for t in times.iter_mut() {
                        let ns = t.as_nanos();
                        if ns >= s && ns < e {
                            *t = SimTime::from_nanos(release);
                        }
                    }
                }
                _ => unreachable!("is_workload filtered"),
            }
        }
        if touched {
            times.sort_unstable();
        }
    }
}

fn gen_rate_shock(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    FaultKind::RateShock {
        pair: rng.next_below(env.pairs.max(1) as u64) as u32,
        factor_x1000: 3000 + 500 * rng.next_below(5) as u32,
    }
}

fn gen_producer_stall(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    FaultKind::ProducerStall {
        pair: rng.next_below(env.pairs.max(1) as u64) as u32,
    }
}

fn gen_consumer_slowdown(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    FaultKind::ConsumerSlowdown {
        pair: rng.next_below(env.pairs.max(1) as u64) as u32,
        factor_x1000: 2000 + 500 * rng.next_below(5) as u32,
    }
}

fn gen_timer_drift(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    // A few milliseconds of drift: comparable to the Δ=25ms slot width
    // at the suite's horizons, but bounded so huge horizons don't push
    // every fire past end-of-run.
    let base = (env.horizon_ns / 100).clamp(1_000_000, 10_000_000);
    FaultKind::TimerDrift {
        core: rng.next_below(env.cores.max(1) as u64) as u32,
        delay_ns: base + rng.next_below(base / 2 + 1),
    }
}

fn gen_dropped_wakeup(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    FaultKind::DroppedWakeup {
        core: rng.next_below(env.cores.max(1) as u64) as u32,
    }
}

fn gen_pool_squeeze(rng: &mut SimRng, env: &ExpandEnv) -> FaultKind {
    let frac = 40 + rng.next_below(31); // 40–70% of the pool
    FaultKind::PoolSqueeze {
        units: (env.pool_total * frac / 100) as u32,
    }
}

/// Flash crowd: one shared window 30–40% into the run, 25–35% of the
/// horizon long, in which *every* producer rate-shocks 4–6× while
/// *every* consumer's service time inflates 30–50× (the surge evicts
/// working sets and convoys the serving side onto its slow path — the
/// degradation that turns a flash crowd into genuine overload rather
/// than a burst the drains absorb: combined demand exceeds a dedicated
/// core). All pairs share the window edges — the correlation is the
/// point.
fn expand_flash_crowd(rng: &mut SimRng, env: &ExpandEnv) -> FaultPlan {
    let h = env.horizon_ns;
    let start_ns = h * 3 / 10 + rng.next_below(h / 10 + 1);
    let dur = h / 4 + rng.next_below(h / 10 + 1);
    let end_ns = (start_ns + dur).min(h.saturating_sub(1));
    if end_ns <= start_ns {
        return FaultPlan::empty();
    }
    let pairs = env.pairs.max(1);
    let mut faults: Vec<Fault> = (0..pairs)
        .map(|p| Fault {
            id: p,
            start_ns,
            end_ns,
            kind: FaultKind::RateShock {
                pair: p,
                factor_x1000: 4000 + 500 * rng.next_below(5) as u32,
            },
        })
        .collect();
    faults.extend((0..pairs).map(|p| Fault {
        id: pairs + p,
        start_ns,
        end_ns,
        kind: FaultKind::ConsumerSlowdown {
            pair: p,
            factor_x1000: 30000 + 5000 * rng.next_below(5) as u32,
        },
    }));
    FaultPlan::new(faults)
}

/// Cascading squeeze: three pool squeezes of 25–40% each whose windows
/// are staggered one sixth of the horizon apart but last about two
/// sixths, so each wave lands before the previous one recovers.
fn expand_cascading_squeeze(rng: &mut SimRng, env: &ExpandEnv) -> FaultPlan {
    let h = env.horizon_ns;
    let step = h / 6;
    let mut faults = Vec::new();
    for k in 0..3u64 {
        let start_ns = h / 5 + k * step + rng.next_below(step / 4 + 1);
        let dur = step * 2 + rng.next_below(step / 2 + 1);
        let end_ns = (start_ns + dur).min(h.saturating_sub(1));
        if end_ns <= start_ns {
            continue;
        }
        let frac = 25 + rng.next_below(16); // 25–40% of the pool each
        faults.push(Fault {
            id: k as u32,
            start_ns,
            end_ns,
            kind: FaultKind::PoolSqueeze {
                units: (env.pool_total * frac / 100) as u32,
            },
        });
    }
    FaultPlan::new(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ExpandEnv {
        ExpandEnv {
            horizon_ns: 1_000_000_000,
            pairs: 4,
            cores: 2,
            pool_total: 100,
        }
    }

    #[test]
    fn baseline_is_empty() {
        assert!(FaultPlan::expand(FaultScenario::Baseline, 1, &env()).is_empty());
    }

    #[test]
    fn expansion_is_deterministic_per_seed_and_scenario() {
        for sc in FaultScenario::all() {
            let a = FaultPlan::expand(sc, 7, &env());
            let b = FaultPlan::expand(sc, 7, &env());
            assert_eq!(a, b, "{}", sc.name());
        }
        let a = FaultPlan::expand(FaultScenario::Chaos, 1, &env());
        let b = FaultPlan::expand(FaultScenario::Chaos, 2, &env());
        assert_ne!(a, b, "different seeds must differ");
    }

    #[test]
    fn windows_are_sorted_inside_horizon_and_targets_in_range() {
        let e = env();
        for sc in FaultScenario::all() {
            let plan = FaultPlan::expand(sc, 13, &e);
            let mut prev = 0;
            for f in plan.faults() {
                assert!(f.start_ns >= prev, "sorted by start");
                prev = f.start_ns;
                assert!(f.start_ns < f.end_ns);
                assert!(f.end_ns < e.horizon_ns);
                let p = f.kind.pair();
                assert!(p == NO_TARGET || p < e.pairs);
                let c = f.kind.core();
                assert!(c == NO_TARGET || c < e.cores);
            }
        }
        let chaos = FaultPlan::expand(FaultScenario::Chaos, 13, &e);
        assert_eq!(chaos.len(), 6, "one fault per kind");
    }

    #[test]
    fn correlated_scenarios_stay_out_of_the_chaos_grid() {
        // `all()` is pinned to 8: chaos.json's grid (and its digests)
        // depend on it. The correlated scenarios resolve by name only.
        assert_eq!(FaultScenario::all().len(), 8);
        for sc in FaultScenario::correlated() {
            assert!(!FaultScenario::all().contains(&sc));
            assert_eq!(FaultScenario::from_name(sc.name()), Some(sc));
        }
    }

    #[test]
    fn flash_crowd_shocks_every_pair_in_one_shared_window() {
        let e = env();
        let plan = FaultPlan::expand(FaultScenario::FlashCrowd, 7, &e);
        assert_eq!(plan.len(), 2 * e.pairs as usize);
        let first = plan.faults()[0];
        let mut shocked = std::collections::BTreeSet::new();
        let mut slowed = std::collections::BTreeSet::new();
        for f in plan.faults() {
            assert_eq!((f.start_ns, f.end_ns), (first.start_ns, first.end_ns));
            assert!(f.end_ns < e.horizon_ns);
            match f.kind {
                FaultKind::RateShock { pair, factor_x1000 } => {
                    assert!((4000..=6000).contains(&factor_x1000));
                    shocked.insert(pair);
                }
                FaultKind::ConsumerSlowdown { pair, factor_x1000 } => {
                    assert!((30000..=50000).contains(&factor_x1000));
                    slowed.insert(pair);
                }
                other => panic!("flash crowd = shock + slowdown, got {other:?}"),
            }
        }
        assert_eq!(shocked.len(), e.pairs as usize, "every producer surges");
        assert_eq!(slowed.len(), e.pairs as usize, "every consumer degrades");
        assert_eq!(
            plan,
            FaultPlan::expand(FaultScenario::FlashCrowd, 7, &e),
            "deterministic per seed"
        );
    }

    #[test]
    fn cascading_squeeze_windows_overlap_in_waves() {
        let e = env();
        let plan = FaultPlan::expand(FaultScenario::CascadingSqueeze, 7, &e);
        assert_eq!(plan.len(), 3);
        for w in plan.faults().windows(2) {
            assert!(
                w[1].start_ns < w[0].end_ns,
                "each wave must land before the previous recovers"
            );
        }
        for f in plan.faults() {
            match f.kind {
                FaultKind::PoolSqueeze { units } => {
                    assert!((25..=40).contains(&(units as u64 * 100 / e.pool_total)));
                }
                other => panic!("cascading squeeze emits pool squeezes only, got {other:?}"),
            }
        }
    }

    #[test]
    fn rate_shock_compresses_without_losing_items() {
        let plan = FaultPlan::new(vec![Fault {
            id: 0,
            start_ns: 100,
            end_ns: 200,
            kind: FaultKind::RateShock {
                pair: 0,
                factor_x1000: 4000,
            },
        }]);
        let mut times: Vec<SimTime> = [50, 100, 140, 199, 250]
            .iter()
            .map(|&n| SimTime::from_nanos(n))
            .collect();
        plan.apply_workload_faults(0, &mut times, SimTime::from_nanos(1000));
        let ns: Vec<u64> = times.iter().map(|t| t.as_nanos()).collect();
        assert_eq!(ns, vec![50, 100, 110, 124, 250]);
        // Other pairs untouched.
        let mut other = vec![SimTime::from_nanos(150)];
        plan.apply_workload_faults(1, &mut other, SimTime::from_nanos(1000));
        assert_eq!(other, vec![SimTime::from_nanos(150)]);
    }

    #[test]
    fn stall_defers_window_to_release_point() {
        let plan = FaultPlan::new(vec![Fault {
            id: 0,
            start_ns: 100,
            end_ns: 300,
            kind: FaultKind::ProducerStall { pair: 2 },
        }]);
        let mut times: Vec<SimTime> = [50, 120, 250, 299, 310]
            .iter()
            .map(|&n| SimTime::from_nanos(n))
            .collect();
        plan.apply_workload_faults(2, &mut times, SimTime::from_nanos(1000));
        let ns: Vec<u64> = times.iter().map(|t| t.as_nanos()).collect();
        assert_eq!(ns, vec![50, 300, 300, 300, 310]);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stall_release_clamps_inside_horizon() {
        let plan = FaultPlan::new(vec![Fault {
            id: 0,
            start_ns: 500,
            end_ns: 2_000,
            kind: FaultKind::ProducerStall { pair: 0 },
        }]);
        let mut times = vec![SimTime::from_nanos(600)];
        plan.apply_workload_faults(0, &mut times, SimTime::from_nanos(1000));
        assert_eq!(times, vec![SimTime::from_nanos(999)]);
    }
}
