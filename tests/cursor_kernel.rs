//! The simulator files decision points, not arrivals (DESIGN.md §14):
//! a run that must see every arrival (a recorded one) files each
//! arrival as a point, and any other run files only the arrivals at
//! which a consumer has to act and plays Mutex's and Sem's wake
//! sessions inside the event that opened them. Both must give the same
//! `RunMetrics`, energy bits included; only the count of points popped
//! and the wheel counters differ, and an unrecorded run never schedules
//! more wheel events than a recorded one.

use pc_bench::exp::Protocol;
use pc_bench::sweep::{execute, Family};
use pcpower::core::{Experiment, PbplConfig, RunMetrics, StrategyKind};
use pcpower::faults::{ExpandEnv, Fault, FaultKind, FaultPlan, FaultScenario};
use pcpower::power::PowerModel;
use pcpower::sim::{SimDuration, SimTime};
use pcpower::trace::{Trace, WorldCupConfig};
use pcpower::trace_events::Recorder;

/// `m` as JSON, without the counters that depend on how many arrivals
/// were filed and how many drains a wake session folded: the points
/// popped, and the wheel events scheduled, popped, cascaded and left
/// pending.
fn comparable(m: &RunMetrics) -> String {
    let mut m = m.clone();
    let s = &mut m.scheduler;
    s.points_popped = 0;
    s.scheduled = 0;
    s.popped = 0;
    s.cascades = 0;
    s.pending_at_teardown = 0;
    serde_json::to_string(&m).expect("metrics serialise")
}

fn assert_same(label: &str, every_arrival: &RunMetrics, points: &RunMetrics) {
    assert_eq!(
        every_arrival.energy.energy_j.to_bits(),
        points.energy.energy_j.to_bits(),
        "{label}: energy bits"
    );
    assert_eq!(comparable(every_arrival), comparable(points), "{label}");
    assert_eq!(
        every_arrival.scheduler.points_popped, every_arrival.scheduler.arrivals_popped,
        "{label}: a recorded run files every arrival"
    );
    assert!(
        points.scheduler.scheduled <= every_arrival.scheduler.scheduled,
        "{label}: a folded wake session schedules no more than its drains"
    );
    assert!(points.scheduler.ledger_balanced(), "{label}: ledger");
}

/// Runs `family` at a short horizon, recorded (every arrival a point)
/// and unrecorded, and compares every cell.
fn family_matches(family: Family, duration_ms: u64) {
    let mut protocol = Protocol::from_vars(&|_: &str| None, duration_ms, 1).unwrap();
    protocol.threads = 2;
    let cells = family.cells(&protocol);
    let (recorded, _) = execute(&protocol, &cells, true);
    let (unrecorded, _) = execute(&protocol, &cells, false);
    for (a, b) in recorded.iter().zip(&unrecorded) {
        assert!(a.log.is_some() && b.log.is_none());
        assert_same(&a.meta.label(), &a.metrics, &b.metrics);
    }
}

#[test]
fn every_suite_cell_matches_when_every_arrival_is_a_point() {
    family_matches(Family::Suite, 300);
}

#[test]
fn every_chaos_cell_matches_when_every_arrival_is_a_point() {
    family_matches(Family::Chaos, 300);
}

#[test]
fn every_scale_cell_matches_when_every_arrival_is_a_point() {
    family_matches(Family::Scale, 100);
}

fn strategies() -> Vec<StrategyKind> {
    let period = SimDuration::from_millis(5);
    let mut degraded = PbplConfig::default();
    degraded.degrade.enabled = true;
    vec![
        StrategyKind::BusyWait,
        StrategyKind::Yield,
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::Pbp { period },
        StrategyKind::Spbp { period },
        StrategyKind::pbpl_default(),
        StrategyKind::Pbpl(degraded),
    ]
}

/// A short fleet with every stamp rounded down to `grid` ns: many
/// arrivals share an instant with their neighbours, with other pairs'
/// arrivals, and with drain ends and timer fires.
fn tied_fleet(pairs: usize, end: SimTime, seed: u64, grid: u64) -> Vec<Trace> {
    let mut cfg = WorldCupConfig::quick_test();
    cfg.horizon = end;
    let base = cfg.generate(seed);
    (0..pairs)
        .map(|i| {
            let shifted = base.phase_shift(i as f64 / pairs as f64);
            let times = shifted
                .times()
                .iter()
                .map(|t| SimTime::from_nanos(t.as_nanos() / grid * grid))
                .collect();
            Trace::new(times, end)
        })
        .collect()
}

#[test]
fn same_time_order_matches_on_a_tied_fleet() {
    // Three pairs a core, and five, whose decision points and pending
    // drains cut folded wake sessions short.
    for (pairs, cores) in [(6, 2), (10, 2)] {
        let power = PowerModel::exynos_like();
        tied_fleet_matches(pairs, cores, 100_000, power, &strategies());
    }
}

#[test]
fn folded_wake_sessions_match_where_drains_end_on_arrivals() {
    // Every cost a multiple of the fleet's 10 µs grid, so drain ends
    // meet arrivals of the draining pair and of its neighbours.
    let power = PowerModel {
        item_cpu: SimDuration::from_micros(10),
        sync_op_cpu: SimDuration::ZERO,
        dispatch_cpu: SimDuration::from_micros(10),
        sleep_entry: SimDuration::from_micros(30),
        ..PowerModel::exynos_like()
    };
    let item_driven = [StrategyKind::Mutex, StrategyKind::Sem];
    tied_fleet_matches(10, 2, 10_000, power, &item_driven);
}

/// Short slowdown windows on pairs 0 and 1, every 6 ms: folded wake
/// sessions run into their edges.
fn slowdowns(duration: SimDuration) -> FaultPlan {
    let period = 6_000_000;
    let windows = duration.as_nanos() / period;
    let faults = (0..2 * windows)
        .map(|w| {
            let start_ns = (w / 2) * period + (w % 2) * 1_000_000;
            Fault {
                id: w as u32,
                start_ns,
                end_ns: start_ns + 300_000,
                kind: FaultKind::ConsumerSlowdown {
                    pair: (w % 2) as u32,
                    factor_x1000: 3000,
                },
            }
        })
        .collect();
    FaultPlan::new(faults)
}

/// Runs every strategy of `strategies` on a tied fleet of `pairs` on
/// `cores`, with and without faults, recorded and unrecorded.
fn tied_fleet_matches(
    pairs: usize,
    cores: usize,
    grid: u64,
    power: PowerModel,
    strategies: &[StrategyKind],
) {
    let duration = SimDuration::from_millis(600);
    let end = SimTime::ZERO + duration;
    for (seed, capacity) in [(3, 8), (11, 1), (5, 25)] {
        let fleet = tied_fleet(pairs, end, seed, grid);
        let env = ExpandEnv {
            horizon_ns: duration.as_nanos(),
            pairs: pairs as u32,
            cores: cores as u32,
            pool_total: (capacity * pairs) as u64,
        };
        let plans = [
            FaultPlan::empty(),
            FaultPlan::expand(FaultScenario::Chaos, seed, &env),
            FaultPlan::expand(FaultScenario::DroppedWakeup, seed, &env),
            slowdowns(duration),
        ];
        for strategy in strategies {
            for plan in &plans {
                let build = || {
                    Experiment::builder()
                        .pairs(pairs)
                        .cores(cores)
                        .duration(duration)
                        .strategy(strategy.clone())
                        .traces(fleet.clone())
                        .power(power.clone())
                        .buffer_capacity(capacity)
                        .faults(plan.clone())
                        .seed(seed)
                };
                let recorder = Recorder::new();
                let every = build().record_events(recorder.handle()).run();
                let points = build().run();
                let label = format!(
                    "{} {pairs}x{cores} grid {grid} seed {seed} B0 {capacity} faults {}",
                    strategy.name(),
                    plan.len()
                );
                assert_same(&label, &every, &points);
                assert!(
                    points.scheduler.points_popped <= every.scheduler.points_popped,
                    "{label}: a decision point is an arrival"
                );
            }
        }
    }
}

/// Asserts that the unrecorded run of an item-driven cell folded its
/// wake sessions: at most a tenth of the recorded run's wheel events.
fn assert_folded(label: &str, every_arrival: &RunMetrics, points: &RunMetrics) {
    let (every, folded) = (&every_arrival.scheduler, &points.scheduler);
    assert!(
        every.ledger_balanced() && folded.ledger_balanced(),
        "{label}"
    );
    assert!(
        folded.scheduled * 10 <= every.scheduled,
        "{label}: {} wheel events unrecorded, {} recorded",
        folded.scheduled,
        every.scheduled
    );
}

#[test]
fn mutex_and_sem_fold_their_wake_sessions() {
    // The paper's Fig. 9 geometry: 5 pairs on 2 cores, B0 = 25.
    for strategy in [StrategyKind::Mutex, StrategyKind::Sem] {
        let build = || {
            Experiment::builder()
                .pairs(5)
                .cores(2)
                .buffer_capacity(25)
                .trace(WorldCupConfig::paper_default())
                .duration(SimDuration::from_secs(5))
                .strategy(strategy.clone())
                .seed(1)
        };
        let recorder = Recorder::new();
        let every = build().record_events(recorder.handle()).run();
        let points = build().run();
        assert_folded(&format!("{} m5", strategy.name()), &every, &points);
    }
    // The scale sweep's m100 cells: 10 pairs share each core.
    let mut protocol = Protocol::from_vars(&|_: &str| None, 1000, 1).unwrap();
    protocol.threads = 2;
    let cells: Vec<_> = Family::Scale
        .cells(&protocol)
        .into_iter()
        .filter(|c| Family::Scale.cell_name(c) == "m100")
        .filter(|c| matches!(c.strategy.as_str(), "Mutex" | "Sem"))
        .collect();
    assert_eq!(cells.len(), 2);
    let (recorded, _) = execute(&protocol, &cells, true);
    let (unrecorded, _) = execute(&protocol, &cells, false);
    for (a, b) in recorded.iter().zip(&unrecorded) {
        assert_folded(&a.meta.label(), &a.metrics, &b.metrics);
    }
}

#[test]
fn decision_points_track_invocations_on_an_m1000_cell() {
    // Only a consumer's actions are popped: every BP point fills a
    // buffer, every Mutex/Sem point wakes an idle consumer, and PBPL's
    // points are its overflows, a subset of its invocations.
    let mut protocol = Protocol::from_vars(&|_: &str| None, 200, 1).unwrap();
    protocol.threads = 2;
    let cells: Vec<_> = Family::Scale
        .cells(&protocol)
        .into_iter()
        .filter(|c| Family::Scale.cell_name(c) == "m1000")
        .collect();
    assert_eq!(cells.len(), 4);
    let (runs, _) = execute(&protocol, &cells, false);
    for run in &runs {
        let m = &run.metrics;
        let invocations: u64 = m.pairs.iter().map(|p| p.invocations).sum();
        let points = m.scheduler.points_popped;
        let label = run.meta.label();
        assert!(points > 0, "{label}");
        assert!(
            m.scheduler.arrivals_popped > 5 * points,
            "{label}: points skip arrivals"
        );
        match run.meta.strategy.as_str() {
            "BP" => assert_eq!(points, invocations, "{label}"),
            _ => assert!(
                points as f64 <= 1.25 * invocations as f64,
                "{label}: {points} points for {invocations} invocations"
            ),
        }
    }
}
