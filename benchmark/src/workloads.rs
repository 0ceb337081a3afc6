//! The four workloads, the measurement loop around them, and the
//! correctness checks every run must pass.
//!
//! Every workload makes its inputs from the seed alone (fleet
//! generation and fault expansion happen in the benchmark, before any
//! timing), does one untimed warm-up rep, then times reps round-robin
//! across its strategies until the time budget is spent, so slow drift
//! on the host spreads over all strategies instead of landing on one.
//! Simulated cells run one at a time on this thread.

use crate::alloc::{self, AllocCount};
use crate::host;
use crate::spans::Spans;
use crate::stats::median;
use pc_bench::oracle;
use pc_core::{
    Experiment, ExperimentBuilder, OverloadConfig, PairId, PairMetrics, RunMetrics, StrategyKind,
};
use pc_faults::{ExpandEnv, FaultPlan, FaultScenario};
use pc_power::{account_cores, GovernorKind, PowerModel};
use pc_queues::elastic::Overflow;
use pc_queues::{ElasticBuffer, GlobalPool};
use pc_runtime::{NativeHarness, NativeRunReport};
use pc_sim::{ArrivalCalendar, QueueStats, SimDuration, SimTime};
use pc_trace::{PlanetConfig, Trace, WorldCupConfig};
use pc_trace_events::Recorder;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_m5", "fleet_m1000", "flash_crowd_m100", "native_pbpl"];

/// Set-up runs at least this many times, and keeps repeating until
/// [`SETUP_MIN_TIME`] has passed (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 50;

/// Offset `ExperimentBuilder::run` adds to its seed before generating a
/// World-Cup workload; pre-generating with the same offset reproduces
/// the fleet it would generate itself, bit for bit.
const WORKLOAD_SEED_OFFSET: u64 = 0x7ace;

/// Seed of the flash-crowd fault plan (see [`SimWorkload::plan`]).
const FLASH_PLAN_SEED: u64 = 1;

/// Latency every isolated `record_latency` replay item is given.
const REPLAY_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Native warm-up run length.
const NATIVE_WARMUP: SimDuration = SimDuration::from_secs(1);

/// Recorded and unrecorded reps the traced pass alternates to time
/// event recording; the medians of the two sides are subtracted.
const RECORD_PAIRS: usize = 3;

/// Everything one workload run measured.
pub struct Outcome {
    /// Values of the catalog metrics this run produced, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Breakdown lines (`name`, value, unit) printed and saved beside
    /// the catalog metrics, e.g. per-strategy times.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Names of the values and detail lines that are a pure function of
    /// the seed: the same inputs give them bit for bit on every run.
    pub exact: Vec<String>,
    /// Correctness checks.
    pub checks: Checks,
    /// Items offered to the system across the timed reps.
    pub attempted: u64,
    /// Items neither consumed nor ledgered as shed.
    pub failed: u64,
    /// Timed reps (cells, or native runs).
    pub reps: usize,
    /// Spans of the traced pass (empty unless tracing).
    pub spans: Spans,
}

/// Named pass/fail checks; a check seen several times passes only if
/// it passed every time, and keeps the first failure's detail.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(&'static str, bool, String)>,
}

impl Checks {
    /// Records one evaluation of check `name`.
    pub fn require(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        match self.results.iter_mut().find(|(n, ..)| *n == name) {
            Some(entry) => {
                if !ok && entry.1 {
                    entry.1 = false;
                    entry.2 = detail();
                }
            }
            None => {
                let detail = if ok { String::new() } else { detail() };
                self.results.push((name, ok, detail));
            }
        }
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|(_, ok, _)| *ok)
    }

    /// `(name, passed, detail of the first failure)` per check.
    pub fn results(&self) -> &[(&'static str, bool, String)] {
        &self.results
    }
}

/// Where a simulated workload's arrivals come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// One World-Cup trace, phase-shifted one Mth further per pair
    /// (§VI-A of the paper).
    WorldCup(WorldCupConfig),
    /// The heterogeneous planet fleet of the scaling experiments.
    Planet(PlanetConfig),
}

/// A simulated workload: geometry, inputs and the strategies it runs.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Producer-consumer pairs M.
    pub pairs: usize,
    /// Cores.
    pub cores: usize,
    /// Base buffer capacity B₀.
    pub buffer: usize,
    /// Coordination shards.
    pub shards: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Input generator.
    pub source: Source,
    /// `(key, strategy)` cells of one round; keys name result lines.
    pub strategies: Vec<(&'static str, StrategyKind)>,
    /// Runs the flash-crowd fault plan under overload control, and
    /// records, oracle-checks and digests every rep.
    pub flash_crowd: bool,
}

fn evaluated() -> Vec<(&'static str, StrategyKind)> {
    vec![
        ("mutex", StrategyKind::Mutex),
        ("sem", StrategyKind::Sem),
        ("bp", StrategyKind::Bp),
        ("pbpl", StrategyKind::pbpl_default()),
    ]
}

impl SimWorkload {
    /// The paper's Fig. 9 point: 5 pairs on 2 cores, B₀ = 25.
    pub fn paper_m5(horizon: SimDuration) -> SimWorkload {
        SimWorkload {
            pairs: 5,
            cores: 2,
            buffer: 25,
            shards: 1,
            horizon,
            source: Source::WorldCup(WorldCupConfig::paper_default()),
            strategies: evaluated(),
            flash_crowd: false,
        }
    }

    /// The scale sweep's heaviest point: 1000 pairs on 100 cores.
    pub fn fleet_m1000(horizon: SimDuration) -> SimWorkload {
        SimWorkload {
            pairs: 1000,
            cores: 100,
            buffer: 25,
            shards: 8,
            horizon,
            source: Source::Planet(PlanetConfig::scale_default()),
            strategies: evaluated(),
            flash_crowd: false,
        }
    }

    /// The overload sweep's fleet point: a flash crowd over 100 pairs
    /// on 10 cores, PBPL under standard overload control.
    pub fn flash_crowd_m100(horizon: SimDuration) -> SimWorkload {
        SimWorkload {
            pairs: 100,
            cores: 10,
            buffer: 25,
            shards: 1,
            horizon,
            source: Source::Planet(PlanetConfig::scale_default()),
            strategies: vec![("pbpl_overload", StrategyKind::pbpl_default())],
            flash_crowd: true,
        }
    }

    fn end(&self) -> SimTime {
        SimTime::ZERO + self.horizon
    }

    /// One trace per pair, exactly as `ExperimentBuilder::run` would
    /// generate them for `seed`.
    pub fn generate(&self, seed: u64) -> Vec<Trace> {
        match &self.source {
            Source::WorldCup(cfg) => {
                let mut cfg = cfg.clone();
                cfg.horizon = self.end();
                let base = cfg.generate(seed.wrapping_add(WORKLOAD_SEED_OFFSET));
                (0..self.pairs)
                    .map(|i| base.phase_shift(i as f64 / self.pairs as f64))
                    .collect()
            }
            Source::Planet(cfg) => {
                let mut cfg = cfg.clone();
                cfg.base.horizon = self.end();
                cfg.traces(seed, self.pairs)
            }
        }
    }

    /// The fault plan (empty unless this is the flash crowd). The plan
    /// does not vary with the run's seed: every seed meets the same
    /// surge, so runs on different seeds differ only in their fleets.
    pub fn plan(&self) -> FaultPlan {
        if !self.flash_crowd {
            return FaultPlan::empty();
        }
        let env = ExpandEnv {
            horizon_ns: self.horizon.as_nanos(),
            pairs: self.pairs as u32,
            cores: self.cores as u32,
            pool_total: (self.buffer * self.pairs) as u64,
        };
        FaultPlan::expand(FaultScenario::FlashCrowd, FLASH_PLAN_SEED, &env)
    }

    /// The cell's builder over pre-generated inputs.
    pub fn builder(
        &self,
        strategy: &StrategyKind,
        seed: u64,
        fleet: &Arc<Vec<Trace>>,
        plan: &FaultPlan,
    ) -> ExperimentBuilder {
        let builder = Experiment::builder()
            .pairs(self.pairs)
            .cores(self.cores)
            .duration(self.horizon)
            .strategy(strategy.clone())
            .shared_traces(Arc::clone(fleet))
            .seed(seed)
            .buffer_capacity(self.buffer)
            .shards(self.shards);
        if self.flash_crowd {
            builder
                .faults(plan.clone())
                .overload(OverloadConfig::standard())
        } else {
            builder
        }
    }

    /// Each pair's arrivals as the simulator pops them: truncated to
    /// the horizon, reshaped by the plan's workload faults.
    pub fn arrivals<'a>(&self, fleet: &'a [Trace], plan: &FaultPlan) -> Vec<Cow<'a, [SimTime]>> {
        let end = self.end();
        fleet
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let times = &t.times()[..t.times().partition_point(|&x| x < end)];
                if plan.is_empty() {
                    Cow::Borrowed(times)
                } else {
                    let mut owned = times.to_vec();
                    plan.apply_workload_faults(i as u32, &mut owned, end);
                    Cow::Owned(owned)
                }
            })
            .collect()
    }
}

/// Merges the per-pair arrival streams through an [`ArrivalCalendar`],
/// one pending arrival per pair as the simulator files them; returns
/// the pops.
pub fn calendar_replay(pairs: &[Cow<'_, [SimTime]>]) -> u64 {
    let mut cal = ArrivalCalendar::new();
    let mut next = vec![1usize; pairs.len()];
    let mut seq = 0u64;
    for (i, p) in pairs.iter().enumerate() {
        if let Some(t) = p.first() {
            cal.set(i, t.as_nanos(), seq);
            seq += 1;
        }
    }
    while let Some((_, _, source)) = cal.pop() {
        let s = black_box(source) as usize;
        if let Some(t) = pairs[s].get(next[s]) {
            cal.set(s, t.as_nanos(), seq);
            seq += 1;
            next[s] += 1;
        }
    }
    cal.popped()
}

/// Pushes every arrival through a B₀-sized [`ElasticBuffer`] per pair,
/// draining whenever it is full; returns the items drained.
pub fn elastic_replay(pairs: &[Cow<'_, [SimTime]>], buffer: usize) -> u64 {
    let pool = GlobalPool::new(buffer * pairs.len());
    let mut out = Vec::with_capacity(buffer);
    let mut drained = 0u64;
    for p in pairs {
        let mut buf =
            ElasticBuffer::new(Arc::clone(&pool), buffer).expect("the pool holds B₀ per pair");
        for &t in p.iter() {
            if let Err(Overflow(t)) = buf.push(t) {
                drained += buf.drain_into(&mut out) as u64;
                black_box(&out);
                out.clear();
                buf.push(t).expect("an empty buffer accepts an item");
            }
        }
        drained += buf.drain_into(&mut out) as u64;
        out.clear();
    }
    drained
}

/// Records one latency per arrival into per-pair [`PairMetrics`];
/// returns the latencies recorded.
pub fn record_latency_replay(pairs: &[Cow<'_, [SimTime]>]) -> u64 {
    let mut recorded = 0u64;
    for (i, p) in pairs.iter().enumerate() {
        let mut m = PairMetrics::new(PairId(i));
        for &t in p.iter() {
            m.record_latency(t, t + REPLAY_LATENCY);
        }
        recorded += black_box(&m).total_latency.as_nanos() / REPLAY_LATENCY.as_nanos();
    }
    recorded
}

/// Re-derives a cell's energy from its core reports with the default
/// power model and governor of `ExperimentBuilder`.
fn rederive_energy(m: &RunMetrics) -> f64 {
    account_cores(&m.core_reports, &PowerModel::exynos_like(), || {
        GovernorKind::Oracle.build()
    })
    .energy_j
}

/// What must repeat exactly when the same cell runs again.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    energy_bits: u64,
    items: (u64, u64, u64),
    wakeups: u64,
    invocations: (u64, u64, u64),
    slot_fires: u64,
    latency_ns: u64,
    scheduler: QueueStats,
}

impl Fingerprint {
    fn of(m: &RunMetrics) -> Fingerprint {
        Fingerprint {
            energy_bits: m.energy.energy_j.to_bits(),
            items: (m.items_produced, m.items_consumed, m.items_shed),
            wakeups: m.energy.wakeups,
            invocations: (
                m.pairs.iter().map(|p| p.invocations).sum(),
                m.scheduled_wakeups(),
                m.overflow_wakeups(),
            ),
            slot_fires: m.slot_fires,
            latency_ns: m.pairs.iter().map(|p| p.total_latency.as_nanos()).sum(),
            scheduler: m.scheduler,
        }
    }
}

/// One executed cell.
struct Rep {
    metrics: RunMetrics,
    /// `Experiment::run` wall time.
    run: Duration,
    /// Oracle replay time (recorded cells only).
    check: Duration,
    /// Digest time (recorded cells only).
    digest: Duration,
    events: u64,
    dropped: u64,
    violations: usize,
    digest_value: Option<u64>,
    allocs: AllocCount,
}

impl Rep {
    /// The wall time the end-to-end metric charges: the run, plus the
    /// oracle and digest for recorded cells.
    fn charged(&self) -> Duration {
        self.run + self.check + self.digest
    }
}

/// One strategy's accumulation over a run.
struct Cell {
    key: &'static str,
    strategy: StrategyKind,
    charged_ns: Vec<f64>,
    first: Option<(Fingerprint, Option<u64>)>,
    /// Scalars of the first rep (see [`summarize`]).
    summary: BTreeMap<&'static str, f64>,
}

/// Scalars of one cell that the metrics and detail lines draw on.
fn summarize(m: &RunMetrics, horizon: SimDuration) -> BTreeMap<&'static str, f64> {
    let invocations: u64 = m.pairs.iter().map(|p| p.invocations).sum();
    let occupancy: u64 = m.pairs.iter().map(|p| p.occupancy_sum).sum();
    let samples: u64 = m.pairs.iter().map(|p| p.samples).sum();
    let intervals: usize = m.core_reports.iter().map(|r| r.timeline.len()).sum();
    BTreeMap::from([
        ("arrivals", m.scheduler.arrivals_popped as f64),
        ("produced", m.items_produced as f64),
        ("consumed", m.items_consumed as f64),
        ("shed", m.items_shed as f64),
        ("power_mw", m.extra_power_mw()),
        ("wakeups_per_s", m.wakeups_per_sec()),
        ("usage_ms_per_s", m.usage_ms_per_sec()),
        ("latency_mean_ms", m.mean_latency().as_secs_f64() * 1e3),
        (
            "latency_p99_ms",
            m.latency_percentile(99.0)
                .map_or(0.0, |d| d.as_secs_f64() * 1e3),
        ),
        ("invocations", invocations as f64),
        (
            "invocations_per_s",
            invocations as f64 / horizon.as_secs_f64(),
        ),
        ("scheduled_wakeups", m.scheduled_wakeups() as f64),
        ("overflow_wakeups", m.overflow_wakeups() as f64),
        ("slot_fires", m.slot_fires as f64),
        ("mean_capacity", m.mean_capacity()),
        ("mean_batch", ratio(occupancy as f64, samples as f64)),
        ("wheel_scheduled", m.scheduler.scheduled as f64),
        ("wheel_cancelled", m.scheduler.cancelled as f64),
        ("wheel_cascades", m.scheduler.cascades as f64),
        ("intervals", intervals as f64),
    ])
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `setup` at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_TIME`] has passed. `setup` returns its value and the
/// time of its generation and fault-expansion steps. Returns the last
/// value and every rep's step times. The previous value is dropped
/// before the next rep starts, so memory holds one copy at a time.
fn repeat_setup<T>(mut setup: impl FnMut() -> (T, Duration, Duration)) -> (T, Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut gen, mut expand) = (Vec::new(), Vec::new());
    let mut last = None;
    while gen.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_MIN_TIME && gen.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let (value, g, e) = setup();
        gen.push(g.as_secs_f64());
        expand.push(e.as_secs_f64());
        last = Some(value);
    }
    (last.expect("set-up ran at least once"), gen, expand)
}

/// Median total set-up time over the reps.
fn setup_s(gen: &[f64], expand: &[f64]) -> f64 {
    let totals: Vec<f64> = gen.iter().zip(expand).map(|(g, e)| g + e).collect();
    median(&totals)
}

/// How long the untraced reps run: all of the budget in an untraced
/// run, half of it in a traced one (the traced pass follows).
fn untraced_budget(seconds: f64, trace: bool) -> Duration {
    Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds })
}

/// Items neither consumed nor ledgered as shed.
fn lost(produced: u64, consumed: u64, shed: u64) -> u64 {
    produced.saturating_sub(consumed + shed)
}

struct SimRun<'a> {
    w: &'a SimWorkload,
    seed: u64,
    fleet: Arc<Vec<Trace>>,
    plan: FaultPlan,
    checks: Checks,
}

impl SimRun<'_> {
    fn run_rep(&self, cell: &Cell, record: bool, count_allocs: bool, spans: &mut Spans) -> Rep {
        let builder = self
            .w
            .builder(&cell.strategy, self.seed, &self.fleet, &self.plan);
        let recorder = record.then(Recorder::new);
        let builder = match &recorder {
            Some(r) => builder.record_events(r.handle()),
            None => builder,
        };
        let name = Some(cell.key);
        let counter = count_allocs.then(alloc::start);
        let (metrics, run) = spans.time("sim.run", name, || builder.run());
        let allocs = counter.map(|c| c.stop()).unwrap_or_default();
        let mut rep = Rep {
            metrics,
            run,
            check: Duration::ZERO,
            digest: Duration::ZERO,
            events: 0,
            dropped: 0,
            violations: 0,
            digest_value: None,
            allocs,
        };
        if let Some(recorder) = recorder {
            let log = recorder.take();
            let (report, check) = spans.time("oracle.check", name, || oracle::check(&log));
            let (digest, took) = spans.time("trace_events.digest", name, || log.digest());
            rep.check = check;
            rep.digest = took;
            rep.events = log.events.len() as u64;
            rep.dropped = log.dropped;
            rep.violations = report.violations.len();
            rep.digest_value = Some(digest);
        }
        rep
    }

    /// Checks one rep against the invariants and against the cell's
    /// first rep; the first rep also has its energy re-derived.
    fn validate(&mut self, cell: &mut Cell, rep: &Rep, spans: &mut Spans) {
        let m = &rep.metrics;
        let key = cell.key;
        self.checks
            .require("all_items_consumed", m.all_items_consumed(), || {
                format!(
                    "{key}: produced {} != consumed {} + shed {}",
                    m.items_produced, m.items_consumed, m.items_shed
                )
            });
        self.checks
            .require("ledger_balanced", m.scheduler.ledger_balanced(), || {
                format!("{key}: scheduler ledger {:?}", m.scheduler)
            });
        if rep.digest_value.is_some() {
            self.checks.require(
                "oracle_clean",
                rep.violations == 0 && rep.dropped == 0,
                || {
                    format!(
                        "{key}: {} violations, {} dropped events",
                        rep.violations, rep.dropped
                    )
                },
            );
        }
        let fp = Fingerprint::of(m);
        match &cell.first {
            Some((first, first_digest)) => {
                self.checks.require("reps_identical", *first == fp, || {
                    format!("{key}: rep differs from the first: {fp:?} vs {first:?}")
                });
                if let (Some(a), Some(b)) = (first_digest, rep.digest_value) {
                    self.checks.require("digest_identical", *a == b, || {
                        format!("{key}: digest {b:#x} != first {a:#x}")
                    });
                }
            }
            None => {
                let (energy, _) = spans.time("power.account", Some(key), || rederive_energy(m));
                self.checks.require(
                    "energy_rederived",
                    energy.to_bits() == m.energy.energy_j.to_bits(),
                    || {
                        format!(
                            "{key}: account_cores gives {energy} J, the run reported {} J",
                            m.energy.energy_j
                        )
                    },
                );
                cell.summary = summarize(m, self.w.horizon);
                cell.first = Some((fp, rep.digest_value));
            }
        }
    }
}

/// Runs a simulated workload: set-up, warm-up, about `seconds` of
/// timed reps (half of it when tracing, followed by the traced pass).
pub fn run_sim(w: &SimWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut spans = Spans::new(trace);
    let root = spans.enter("workload", None);

    let setup = spans.enter("setup", None);
    let ((fleet, plan), gen_s, expand_s) = repeat_setup(|| {
        let (fleet, gen) = spans.time("trace.generate", None, || w.generate(seed));
        let (plan, expand) = spans.time("faults.expand", None, || w.plan());
        ((fleet, plan), gen, expand)
    });
    spans.exit(setup);

    let fleet = Arc::new(fleet);
    let mut run = SimRun {
        w,
        seed,
        fleet: Arc::clone(&fleet),
        plan: plan.clone(),
        checks: Checks::default(),
    };
    let mut cells: Vec<Cell> = w
        .strategies
        .iter()
        .map(|(key, strategy)| Cell {
            key,
            strategy: strategy.clone(),
            charged_ns: Vec::new(),
            first: None,
            summary: BTreeMap::new(),
        })
        .collect();

    let warm = spans.enter("warmup", None);
    let rep = run.run_rep(&cells[0], w.flash_crowd, false, &mut spans);
    run.validate(&mut cells[0], &rep, &mut spans);
    drop(rep);
    spans.exit(warm);

    let timed = spans.enter("timed", None);
    let budget = untraced_budget(seconds, trace);
    let min_rounds = if trace { 1 } else { 2 };
    let start = Instant::now();
    let (mut reps, mut rounds, mut attempted, mut failed) = (0, 0, 0, 0);
    // Starts another round only if it should end within the budget, so
    // a workload with long rounds does not overshoot by most of one.
    while rounds < min_rounds || start.elapsed() + start.elapsed() / rounds <= budget {
        for cell in &mut cells {
            let rep = run.run_rep(cell, w.flash_crowd, false, &mut spans);
            cell.charged_ns.push(rep.charged().as_nanos() as f64);
            let m = &rep.metrics;
            attempted += m.items_produced;
            failed += lost(m.items_produced, m.items_consumed, m.items_shed);
            run.validate(cell, &rep, &mut spans);
            reps += 1;
        }
        rounds += 1;
    }
    spans.exit(timed);

    let arrivals = w.arrivals(&fleet, &plan);
    let (pops, calendar) = spans.time("sim.calendar_replay", None, || calendar_replay(&arrivals));
    for cell in &cells {
        let popped = cell.summary["arrivals"];
        run.checks
            .require("calendar_pops", pops as f64 == popped, || {
                format!(
                    "{}: calendar replay popped {pops}, the run popped {popped}",
                    cell.key
                )
            });
    }

    let mut values = BTreeMap::new();
    let mut detail = Vec::new();
    let arrivals_per_round: f64 = cells.iter().map(|c| c.summary["arrivals"]).sum();
    let charged: f64 = cells.iter().map(|c| median(&c.charged_ns)).sum();
    let ns_per_arrival = charged / arrivals_per_round;
    let pbpl = cells
        .iter()
        .find(|c| c.key.starts_with("pbpl"))
        .expect("every workload runs PBPL")
        .summary
        .clone();
    values.insert("ns_per_arrival", ns_per_arrival);
    values.insert("setup_s", setup_s(&gen_s, &expand_s));
    values.insert("wakeups_per_s", pbpl["wakeups_per_s"]);
    values.insert("latency_mean_ms", pbpl["latency_mean_ms"]);
    values.insert("delivered_share", pbpl["consumed"] / pbpl["produced"]);
    // Everything the simulator computes is exact per seed; only the
    // host's timings and the rep counts vary between runs.
    let mut exact: Vec<String> = ["wakeups_per_s", "latency_mean_ms", "delivered_share"]
        .map(String::from)
        .into();
    for cell in &cells {
        let k = cell.key;
        let s = &cell.summary;
        detail.push((
            format!("ns_per_arrival.{k}"),
            median(&cell.charged_ns) / s["arrivals"],
            "ns",
        ));
        detail.push((format!("reps.{k}"), cell.charged_ns.len() as f64, "count"));
        for (name, unit) in [
            ("arrivals", "count"),
            ("power_mw", "mW"),
            ("wakeups_per_s", "1/s"),
            ("usage_ms_per_s", "ms/s"),
            ("latency_mean_ms", "ms"),
            ("latency_p99_ms", "ms"),
            ("shed", "count"),
            ("wheel_scheduled", "count"),
            ("wheel_cascades", "count"),
        ] {
            detail.push((format!("{name}.{k}"), s[name], unit));
            exact.push(format!("{name}.{k}"));
        }
    }

    if trace {
        let traced = spans.enter("traced", None);
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |k: &'static str, v: f64| *sums.entry(k).or_default() += v;
        for cell in &mut cells {
            let rep = run.run_rep(cell, w.flash_crowd, true, &mut spans);
            run.validate(cell, &rep, &mut spans);
            let (energy, account) = spans.time("power.account", Some(cell.key), || {
                rederive_energy(&rep.metrics)
            });
            black_box(energy);
            let s = &cell.summary;
            let intervals = s["intervals"];
            add("traced_ns", rep.charged().as_nanos() as f64);
            add("allocs", rep.allocs.allocs as f64);
            add("alloc_bytes", rep.allocs.bytes as f64);
            add("account_ns", account.as_nanos() as f64);
            add("intervals", intervals);
            for k in ["wheel_scheduled", "wheel_cancelled", "wheel_cascades"] {
                add(k, s[k]);
            }
            let k = cell.key;
            detail.push((
                format!("traced_ns_per_arrival.{k}"),
                rep.charged().as_nanos() as f64 / s["arrivals"],
                "ns",
            ));
            detail.push((
                format!("allocs_per_arrival.{k}"),
                rep.allocs.allocs as f64 / s["arrivals"],
                "allocs/arrival",
            ));
            detail.push((
                format!("account_ns_per_interval.{k}"),
                ratio(account.as_nanos() as f64, intervals),
                "ns",
            ));
            if w.flash_crowd {
                // Both sides run without the allocation counter, so the
                // difference is the cost of recording alone.
                let ns = |d: Duration| d.as_nanos() as f64;
                let (mut recorded, mut plain, mut check, mut digest) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                for _ in 0..RECORD_PAIRS {
                    let with = run.run_rep(cell, true, false, &mut spans);
                    run.validate(cell, &with, &mut spans);
                    let without = run.run_rep(cell, false, false, &mut spans);
                    run.validate(cell, &without, &mut spans);
                    recorded.push(ns(with.run));
                    plain.push(ns(without.run));
                    check.push(ns(with.check));
                    digest.push(ns(with.digest));
                }
                add("record_ns", median(&recorded) - median(&plain));
                add("check_ns", median(&check));
                add("digest_ns", median(&digest));
                add("events", rep.events as f64);
                add("dropped", rep.dropped as f64);
                add("violations", rep.violations as f64);
            }
        }
        let (drained, elastic) = spans.time("queues.elastic_replay", None, || {
            elastic_replay(&arrivals, w.buffer)
        });
        let (recorded, record) = spans.time("metrics.record_latency_replay", None, || {
            record_latency_replay(&arrivals)
        });
        run.checks
            .require("replay_counts", drained == pops && recorded == pops, || {
                format!("calendar {pops}, elastic {drained}, record_latency {recorded}")
            });
        spans.exit(traced);

        let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
        let per_arrival = |k: &str| get(k) / arrivals_per_round;
        values.insert("generate_s", median(&gen_s));
        values.insert("expand_s", median(&expand_s));
        values.insert(
            "calendar_ns_per_pop",
            ratio(calendar.as_nanos() as f64, pops as f64),
        );
        values.insert("calendar_pops", pops as f64);
        for k in ["wheel_scheduled", "wheel_cancelled", "wheel_cascades"] {
            values.insert(k, get(k));
        }
        values.insert("wheel_events_per_arrival", per_arrival("wheel_scheduled"));
        values.insert("allocs_per_arrival", per_arrival("allocs"));
        values.insert("alloc_bytes_per_arrival", per_arrival("alloc_bytes"));
        for k in [
            "invocations",
            "overflow_wakeups",
            "scheduled_wakeups",
            "slot_fires",
            "mean_capacity",
            "mean_batch",
            "invocations_per_s",
        ] {
            values.insert(k, pbpl[k]);
        }
        values.insert("busy_ms_per_s", pbpl["usage_ms_per_s"]);
        values.insert(
            "elastic_ns_per_item",
            ratio(elastic.as_nanos() as f64, drained as f64),
        );
        values.insert(
            "record_latency_ns_per_item",
            ratio(record.as_nanos() as f64, recorded as f64),
        );
        values.insert(
            "account_ns_per_interval",
            ratio(get("account_ns"), get("intervals")),
        );
        values.insert("intervals", get("intervals"));
        values.insert("events_per_arrival", per_arrival("events"));
        values.insert("record_ns_per_arrival", per_arrival("record_ns"));
        values.insert(
            "digest_ns_per_event",
            ratio(get("digest_ns"), get("events")),
        );
        values.insert("dropped", get("dropped"));
        values.insert("check_ns_per_event", ratio(get("check_ns"), get("events")));
        values.insert("violations", get("violations"));
        values.insert(
            "trace_overhead_share",
            per_arrival("traced_ns") / ns_per_arrival - 1.0,
        );
    }
    spans.exit(root);
    values.insert("span_coverage", spans.root_coverage());
    values.insert("peak_rss_mb", host::peak_rss_mb());

    Outcome {
        values,
        detail,
        exact,
        checks: run.checks,
        attempted,
        failed,
        reps,
        spans,
    }
}

/// The native workload: one PBPL pair on one core, replaying a
/// World-Cup trace in real time on real threads.
#[derive(Debug, Clone)]
pub struct NativeWorkload {
    /// Workload template; its horizon is the run length.
    pub trace: WorldCupConfig,
    /// Base buffer capacity B₀.
    pub buffer: usize,
}

impl NativeWorkload {
    /// The `native_pbpl` workload.
    pub fn pbpl() -> NativeWorkload {
        NativeWorkload {
            trace: WorldCupConfig::paper_default(),
            buffer: 25,
        }
    }

    /// The harness for one open-loop run of `duration` wall time: the
    /// replay schedule does not slow down when the consumer does.
    pub fn harness(&self, seed: u64, duration: SimDuration) -> NativeHarness {
        NativeHarness {
            strategy: StrategyKind::pbpl_default(),
            pairs: 1,
            cores: 1,
            duration,
            time_scale: 1.0,
            trace: self.trace.clone(),
            buffer_capacity: self.buffer,
            seed,
            ..NativeHarness::default()
        }
    }

    /// The trace the harness replays for `seed` over `duration`.
    pub fn generate(&self, seed: u64, duration: SimDuration) -> Trace {
        let mut cfg = self.trace.clone();
        cfg.horizon = SimTime::ZERO + duration;
        cfg.generate(seed.wrapping_add(WORKLOAD_SEED_OFFSET))
    }
}

/// One native run with its process CPU time.
fn native_run(
    h: NativeHarness,
    spans: &mut Spans,
    count_allocs: bool,
) -> (NativeRunReport, u64, AllocCount) {
    let counter = count_allocs.then(alloc::start);
    let cpu = host::process_cpu_ns();
    let (report, _) = spans.time("runtime.harness", Some("pbpl"), || h.run());
    let cpu = host::process_cpu_ns() - cpu;
    (report, cpu, counter.map(|c| c.stop()).unwrap_or_default())
}

fn check_native(checks: &mut Checks, r: &NativeRunReport) {
    let shed: u64 = r.pairs.iter().map(|p| p.items_shed).sum();
    checks.require(
        "native_conserved",
        r.items_produced() == r.items_consumed() && shed == 0,
        || {
            format!(
                "produced {} != consumed {} (shed {shed})",
                r.items_produced(),
                r.items_consumed()
            )
        },
    );
}

/// Runs the native workload for about `seconds` of wall time (two runs
/// of half that when tracing: one untraced, one traced).
pub fn run_native(w: &NativeWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut spans = Spans::new(trace);
    let root = spans.enter("workload", None);
    let duration = SimDuration::from_millis(untraced_budget(seconds, trace).as_millis() as u64);
    let mut checks = Checks::default();

    let setup = spans.enter("setup", None);
    let (replayed, gen_s, expand_s) = repeat_setup(|| {
        let (trace, gen) = spans.time("trace.generate", None, || w.generate(seed, duration));
        (trace, gen, Duration::ZERO)
    });
    spans.exit(setup);

    let warm = spans.enter("warmup", None);
    let (warm_report, _, _) = native_run(w.harness(seed, NATIVE_WARMUP), &mut spans, false);
    check_native(&mut checks, &warm_report);
    spans.exit(warm);

    let timed = spans.enter("timed", None);
    let (report, cpu_ns, _) = native_run(w.harness(seed, duration), &mut spans, false);
    check_native(&mut checks, &report);
    spans.exit(timed);

    let arrivals = [Cow::Borrowed(replayed.times())];
    let (pops, calendar) = spans.time("sim.calendar_replay", None, || calendar_replay(&arrivals));
    let produced = report.items_produced();
    checks.require("calendar_pops", pops == produced, || {
        format!("calendar replay popped {pops}, the harness produced {produced}")
    });

    let sum = |f: fn(&pc_runtime::PairStats) -> u64| report.pairs.iter().map(f).sum::<u64>() as f64;
    let invocations = sum(|p| p.invocations);
    let ns_per_arrival = cpu_ns as f64 / produced as f64;
    let mut values = BTreeMap::from([
        ("ns_per_arrival", ns_per_arrival),
        ("setup_s", setup_s(&gen_s, &expand_s)),
        ("wakeups_per_s", report.wakeups_per_sec()),
        ("latency_mean_ms", report.mean_latency().as_secs_f64() * 1e3),
        (
            "delivered_share",
            report.items_consumed() as f64 / produced as f64,
        ),
    ]);
    let detail = vec![
        (
            "cpu_ms_per_s".to_string(),
            cpu_ns as f64 / 1e6 / report.wall_secs,
            "ms/s",
        ),
        ("wall_s".to_string(), report.wall_secs, "s"),
        ("arrivals".to_string(), produced as f64, "count"),
        (
            "latency_max_ms".to_string(),
            report
                .pairs
                .iter()
                .map(|p| p.latency_max.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
            "ms",
        ),
    ];

    if trace {
        let traced = spans.enter("traced", None);
        let (traced_report, traced_cpu, allocs) =
            native_run(w.harness(seed, duration), &mut spans, true);
        check_native(&mut checks, &traced_report);
        let (drained, elastic) = spans.time("queues.elastic_replay", None, || {
            elastic_replay(&arrivals, w.buffer)
        });
        let (recorded, record) = spans.time("metrics.record_latency_replay", None, || {
            record_latency_replay(&arrivals)
        });
        checks.require("replay_counts", drained == pops && recorded == pops, || {
            format!("calendar {pops}, elastic {drained}, record_latency {recorded}")
        });
        spans.exit(traced);

        let traced_produced = traced_report.items_produced() as f64;
        values.insert("generate_s", median(&gen_s));
        values.insert(
            "calendar_ns_per_pop",
            ratio(calendar.as_nanos() as f64, pops as f64),
        );
        values.insert("calendar_pops", pops as f64);
        values.insert("allocs_per_arrival", allocs.allocs as f64 / traced_produced);
        values.insert(
            "alloc_bytes_per_arrival",
            allocs.bytes as f64 / traced_produced,
        );
        values.insert("invocations", invocations);
        values.insert("overflow_wakeups", sum(|p| p.overflows));
        values.insert("scheduled_wakeups", sum(|p| p.scheduled));
        values.insert(
            "slot_fires",
            report.manager_fires.iter().sum::<u64>() as f64,
        );
        values.insert(
            "elastic_ns_per_item",
            ratio(elastic.as_nanos() as f64, drained as f64),
        );
        values.insert(
            "mean_batch",
            ratio(report.items_consumed() as f64, invocations),
        );
        values.insert(
            "record_latency_ns_per_item",
            ratio(record.as_nanos() as f64, recorded as f64),
        );
        values.insert("invocations_per_s", invocations / report.wall_secs);
        values.insert("busy_ms_per_s", report.usage_ms_per_sec());
        values.insert(
            "trace_overhead_share",
            traced_cpu as f64 / traced_produced / ns_per_arrival - 1.0,
        );
        // The native runtime has no fault plan, wheel, capacity
        // sampling, energy accounting or recorded event stream here.
        for k in [
            "expand_s",
            "wheel_scheduled",
            "wheel_cancelled",
            "wheel_cascades",
            "wheel_events_per_arrival",
            "mean_capacity",
            "account_ns_per_interval",
            "intervals",
            "events_per_arrival",
            "record_ns_per_arrival",
            "digest_ns_per_event",
            "dropped",
            "check_ns_per_event",
            "violations",
        ] {
            values.insert(k, 0.0);
        }
    }
    spans.exit(root);
    values.insert("span_coverage", spans.root_coverage());
    values.insert("peak_rss_mb", host::peak_rss_mb());

    // Real threads and timers: nothing here repeats exactly.
    Outcome {
        values,
        detail,
        exact: Vec::new(),
        checks,
        attempted: produced,
        failed: lost(produced, report.items_consumed(), 0),
        reps: 1,
        spans,
    }
}

/// Runs workload `name` (one of [`WORKLOADS`]) at its full size.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match name {
        "paper_m5" => run_sim(
            &SimWorkload::paper_m5(SimDuration::from_secs(50)),
            seed,
            seconds,
            trace,
        ),
        "fleet_m1000" => run_sim(
            &SimWorkload::fleet_m1000(SimDuration::from_secs(10)),
            seed,
            seconds,
            trace,
        ),
        "flash_crowd_m100" => run_sim(
            &SimWorkload::flash_crowd_m100(SimDuration::from_secs(10)),
            seed,
            seconds,
            trace,
        ),
        "native_pbpl" => run_native(&NativeWorkload::pbpl(), seed, seconds, trace),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};

    fn assert_complete(o: &Outcome, name: &str) {
        for (check, ok, detail) in o.checks.results() {
            assert!(ok, "{name}: check {check} failed: {detail}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                o.values.contains_key(d.name),
                "{name}: no value for {}",
                d.name
            );
        }
        assert!(o.attempted > 0 && o.failed == 0, "{name}");
        assert!(
            !o.spans.spans().is_empty(),
            "{name}: traced runs record spans"
        );
    }

    /// Pre-generating the paper fleet and sharing it must not change a
    /// single bit against `ExperimentBuilder` generating it from
    /// `.trace(cfg)`.
    #[test]
    fn pregenerated_paper_fleet_matches_generation_in_the_run() {
        let horizon = SimDuration::from_millis(300);
        let w = SimWorkload::paper_m5(horizon);
        let fleet = Arc::new(w.generate(7));
        for (key, strategy) in &w.strategies {
            let shared = w.builder(strategy, 7, &fleet, &FaultPlan::empty()).run();
            let own = Experiment::builder()
                .pairs(w.pairs)
                .cores(w.cores)
                .duration(horizon)
                .strategy(strategy.clone())
                .trace(WorldCupConfig::paper_default())
                .seed(7)
                .buffer_capacity(w.buffer)
                .run();
            assert!(shared.items_produced > 0, "{key}");
            assert_eq!(Fingerprint::of(&shared), Fingerprint::of(&own), "{key}");
        }
    }

    #[test]
    fn isolated_replays_count_every_arrival() {
        let w = SimWorkload::paper_m5(SimDuration::from_millis(200));
        let fleet = w.generate(3);
        let arrivals = w.arrivals(&fleet, &FaultPlan::empty());
        let total: u64 = arrivals.iter().map(|a| a.len() as u64).sum();
        assert!(total > 0);
        assert_eq!(calendar_replay(&arrivals), total);
        assert_eq!(elastic_replay(&arrivals, w.buffer), total);
        assert_eq!(record_latency_replay(&arrivals), total);
    }

    #[test]
    fn short_sim_workloads_pass_their_checks() {
        let cases = [
            (
                "paper_m5",
                SimWorkload::paper_m5(SimDuration::from_millis(200)),
            ),
            (
                "fleet_m1000",
                SimWorkload::fleet_m1000(SimDuration::from_millis(20)),
            ),
            (
                "flash_crowd_m100",
                SimWorkload::flash_crowd_m100(SimDuration::from_millis(400)),
            ),
        ];
        for (name, w) in cases {
            let o = run_sim(&w, 5, 0.01, true);
            assert_complete(&o, name);
            assert!(o.values["span_coverage"] > 0.9, "{name}");
        }
    }

    #[test]
    fn flash_crowd_sheds_and_stays_clean() {
        let w = SimWorkload::flash_crowd_m100(SimDuration::from_millis(400));
        let o = run_sim(&w, 5, 0.01, false);
        assert!(o.checks.all_passed(), "{:?}", o.checks.results());
        assert!(
            o.values["delivered_share"] < 1.0,
            "the flash crowd must shed"
        );
    }

    #[test]
    fn short_native_workload_passes_its_checks() {
        let o = run_native(&NativeWorkload::pbpl(), 5, 0.6, true);
        assert_complete(&o, "native_pbpl");
        assert_eq!(o.values["delivered_share"], 1.0);
    }
}
