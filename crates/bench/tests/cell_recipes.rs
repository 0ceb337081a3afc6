//! Every label the analysis family adds is a complete recipe: the
//! ablations sweep PBPL variants that differ only in fields the plain
//! `PBPL` label drops, and the ω sweep scales the wakeup energy, so each
//! cell must run as exactly the config its label names — checked here
//! against configs spelled out independently of the label registry.

use pc_bench::exp::Protocol;
use pc_bench::oracle::CellMeta;
use pc_bench::replay::{label, run_cell, Condition};
use pc_bench::sweep::Family;
use pc_core::{Experiment, PbplConfig, PredictorKind, RunMetrics, StrategyKind};
use pc_power::{account_cores, GovernorKind, PowerModel};
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

fn pbpl(edit: fn(&mut PbplConfig)) -> StrategyKind {
    let mut cfg = PbplConfig::default();
    edit(&mut cfg);
    StrategyKind::Pbpl(cfg)
}

/// What each new base label must run.
fn base(name: &str) -> StrategyKind {
    match name {
        "Mutex" => StrategyKind::Mutex,
        "BP" => StrategyKind::Bp,
        "PBPL" => StrategyKind::pbpl_default(),
        "PBPL(-latch)" => pbpl(|c| c.latching = false),
        "PBPL(-piggy)" => pbpl(|c| c.piggyback = false),
        "PBPL(fixed)" => pbpl(|c| c.resizing = false),
        "PBPL(-both)" => pbpl(|c| {
            c.latching = false;
            c.resizing = false;
        }),
        "PBPL(ewma)" => pbpl(|c| c.predictor = PredictorKind::Ewma { alpha: 0.35 }),
        "PBPL(holt)" => pbpl(|c| {
            c.predictor = PredictorKind::Holt {
                alpha: 0.5,
                beta: 0.25,
            }
        }),
        "PBPL(kalman)" => pbpl(|c| c.predictor = PredictorKind::Kalman { q: 4.0e5, r: 4.0e6 }),
        "PBPL(d=10ms)" => pbpl(|c| c.slot = SimDuration::from_millis(10)),
        "PBPL(d=50ms)" => pbpl(|c| c.slot = SimDuration::from_millis(50)),
        other => panic!("no expectation for {other}"),
    }
}

/// A label's base strategy and wakeup-energy factor.
fn expected(label: &str) -> (StrategyKind, f64) {
    for (suffix, factor) in [
        ("(omega*0.25)", 0.25),
        ("(omega*0.5)", 0.5),
        ("(omega*2)", 2.0),
        ("(omega*4)", 4.0),
    ] {
        if let Some(name) = label.strip_suffix(suffix) {
            return (base(name), factor);
        }
    }
    (base(label), 1.0)
}

/// The cell run directly on the simulator, with the power model scaled
/// by `factor`.
fn direct(meta: &CellMeta, strategy: &StrategyKind, factor: f64) -> RunMetrics {
    let mut power = PowerModel::exynos_like();
    power.wakeup_energy_j *= factor;
    Experiment::builder()
        .pairs(meta.pairs as usize)
        .cores(meta.cores as usize)
        .duration(SimDuration::from_nanos(meta.duration_ns))
        .strategy(strategy.clone())
        .seed(meta.seed)
        .buffer_capacity(meta.buffer as usize)
        .trace(WorldCupConfig::quick_test())
        .power(power)
        .run()
}

fn cells(experiment: &str) -> Vec<CellMeta> {
    Family::Analysis
        .cells(&protocol())
        .into_iter()
        .filter(|c| c.experiment == experiment)
        .collect()
}

#[test]
fn every_ablation_and_omega_cell_matches_a_direct_run() {
    let cells: Vec<CellMeta> = ["ablation_pbpl", "sensitivity_omega"]
        .into_iter()
        .flat_map(cells)
        .collect();
    assert_eq!(cells.len(), (9 + 4 * 3) * 2);
    for meta in &cells {
        let (strategy, factor) = expected(&meta.strategy);
        let condition = if factor == 1.0 {
            Condition::Plain
        } else {
            Condition::WakeupScale(factor)
        };
        assert_eq!(label(&strategy, condition).unwrap(), meta.strategy);
        let (run, _) = run_cell(meta, None, None).unwrap();
        let want = direct(meta, &strategy, factor);
        let cell = meta.label();
        assert_eq!(
            run.energy.energy_j.to_bits(),
            want.energy.energy_j.to_bits(),
            "{cell}"
        );
        assert_eq!(run.items_consumed, want.items_consumed, "{cell}");
        assert_eq!(run.slot_fires, want.slot_fires, "{cell}");
    }
}

#[test]
fn disabling_latching_changes_the_run() {
    let cells = cells("ablation_pbpl");
    let no_latch = cells.iter().find(|c| c.strategy == "PBPL(-latch)").unwrap();
    let full = CellMeta {
        strategy: "PBPL".to_string(),
        ..no_latch.clone()
    };
    let energy = |meta| run_cell(meta, None, None).unwrap().0.energy.energy_j;
    assert_ne!(energy(&full).to_bits(), energy(no_latch).to_bits());
}

/// The governor only accounts a finished timeline, so re-accounting a
/// cell's core reports under the menu governor is the menu-governor run
/// itself — which is what lets the analysis family skip those re-runs.
#[test]
fn menu_reaccounting_equals_a_menu_governor_run() {
    for meta in cells("fig09_five_consumers")
        .iter()
        .filter(|c| matches!(c.strategy.as_str(), "Mutex" | "BP" | "PBPL"))
    {
        let (run, _) = run_cell(meta, None, None).unwrap();
        let reaccounted = account_cores(&run.core_reports, &PowerModel::exynos_like(), || {
            GovernorKind::Menu.build()
        });
        let menu = Experiment::builder()
            .pairs(meta.pairs as usize)
            .cores(meta.cores as usize)
            .duration(SimDuration::from_nanos(meta.duration_ns))
            .strategy(base(&meta.strategy))
            .seed(meta.seed)
            .buffer_capacity(meta.buffer as usize)
            .trace(WorldCupConfig::quick_test())
            .governor(GovernorKind::Menu)
            .run();
        assert_eq!(
            reaccounted.energy_j.to_bits(),
            menu.energy.energy_j.to_bits(),
            "{}",
            meta.label()
        );
        assert_ne!(
            reaccounted.energy_j.to_bits(),
            run.energy.energy_j.to_bits(),
            "the menu governor must cost something"
        );
    }
}
