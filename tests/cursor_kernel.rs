//! The simulator files decision points, not arrivals (DESIGN.md §14):
//! a run that must see every arrival (a recorded one) files each
//! arrival as a point, and any other run files only the arrivals at
//! which a consumer has to act. Both must give the same `RunMetrics`,
//! energy bits included; only the count of points popped differs.

use pc_bench::exp::Protocol;
use pc_bench::sweep::{execute, Family};
use pcpower::core::{Experiment, PbplConfig, RunMetrics, StrategyKind};
use pcpower::faults::{ExpandEnv, FaultPlan, FaultScenario};
use pcpower::sim::{SimDuration, SimTime};
use pcpower::trace::{Trace, WorldCupConfig};
use pcpower::trace_events::Recorder;

/// `m` as JSON, without the point counter — the one field that
/// depends on how many arrivals were filed.
fn comparable(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.scheduler.points_popped = 0;
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

/// A short fleet with every stamp rounded down to 100 µs: many arrivals
/// share an instant with their neighbours, with other pairs' arrivals,
/// and with drain ends and timer fires.
fn tied_fleet(pairs: usize, end: SimTime, seed: u64) -> Vec<Trace> {
    let mut cfg = WorldCupConfig::quick_test();
    cfg.horizon = end;
    let base = cfg.generate(seed);
    (0..pairs)
        .map(|i| {
            let shifted = base.phase_shift(i as f64 / pairs as f64);
            let grid = 100_000;
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
    let (pairs, cores) = (6, 2);
    let duration = SimDuration::from_millis(600);
    let end = SimTime::ZERO + duration;
    for (seed, capacity) in [(3, 8), (11, 1), (5, 25)] {
        let fleet = tied_fleet(pairs, end, seed);
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
        ];
        for strategy in strategies() {
            for plan in &plans {
                let build = || {
                    Experiment::builder()
                        .pairs(pairs)
                        .cores(cores)
                        .duration(duration)
                        .strategy(strategy.clone())
                        .traces(fleet.clone())
                        .buffer_capacity(capacity)
                        .faults(plan.clone())
                        .seed(seed)
                };
                let recorder = Recorder::new();
                let every = build().record_events(recorder.handle()).run();
                let points = build().run();
                let label = format!(
                    "{} seed {seed} B0 {capacity} faults {}",
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
