//! `Protocol::run` runs the strategy it is given, whatever its label can
//! express: the analysis binaries (`ablations`, `check_claims`,
//! `correlations`) sweep PBPL variants that differ only in fields the
//! label drops, and each must run as itself, not as the label's
//! canonical strategy.

use pc_bench::exp::Protocol;
use pc_core::{Experiment, PbplConfig, PredictorKind, RunMetrics, StrategyKind};
use pc_sim::SimDuration;
use pc_trace::{PlanetConfig, WorldCupConfig};

fn protocol() -> Protocol {
    Protocol {
        duration: SimDuration::from_millis(200),
        replicates: 2,
        base_seed: 11,
        trace: WorldCupConfig::quick_test(),
        planet: PlanetConfig::quick_test(),
        threads: 2,
        trace_cap: 1024,
    }
}

/// The strategy run directly on the simulator, replicate `k`.
fn direct(p: &Protocol, strategy: &StrategyKind, k: u64) -> RunMetrics {
    Experiment::builder()
        .pairs(5)
        .cores(2)
        .duration(p.duration)
        .strategy(strategy.clone())
        .seed(p.base_seed + k)
        .buffer_capacity(25)
        .trace(p.trace.clone())
        .run()
}

fn pbpl(cfg: PbplConfig) -> StrategyKind {
    StrategyKind::Pbpl(cfg)
}

#[test]
fn protocol_run_matches_a_direct_run_of_the_given_strategy() {
    let p = protocol();
    let variants = [
        StrategyKind::Bp,
        StrategyKind::pbpl_default(),
        pbpl(PbplConfig {
            latching: false,
            ..PbplConfig::default()
        }),
        pbpl(PbplConfig {
            piggyback: false,
            ..PbplConfig::default()
        }),
        pbpl(PbplConfig {
            predictor: PredictorKind::Ewma { alpha: 0.3 },
            ..PbplConfig::default()
        }),
        pbpl(PbplConfig {
            slot: SimDuration::from_millis(10),
            ..PbplConfig::default()
        }),
        pbpl(PbplConfig {
            latching: false,
            resizing: false,
            ..PbplConfig::default()
        }),
    ];
    for strategy in &variants {
        let runs = p.run(strategy.clone(), 5, 2, 25);
        assert_eq!(runs.len(), p.replicates);
        for (k, run) in runs.iter().enumerate() {
            let want = direct(&p, strategy, k as u64);
            assert_eq!(
                run.energy.energy_j.to_bits(),
                want.energy.energy_j.to_bits(),
                "{strategy:?} replicate {k}"
            );
            assert_eq!(run.items_consumed, want.items_consumed, "{strategy:?}");
            assert_eq!(run.slot_fires, want.slot_fires, "{strategy:?}");
        }
    }
}

#[test]
fn disabling_latching_changes_the_run() {
    let p = protocol();
    let full = p.run(StrategyKind::pbpl_default(), 5, 2, 25);
    let no_latch = p.run(
        pbpl(PbplConfig {
            latching: false,
            ..PbplConfig::default()
        }),
        5,
        2,
        25,
    );
    assert_ne!(
        full[0].energy.energy_j.to_bits(),
        no_latch[0].energy.energy_j.to_bits()
    );
}
