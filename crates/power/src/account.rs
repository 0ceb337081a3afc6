//! Energy accounting: integrating a core's idle/active timeline into
//! joules and watts.
//!
//! This module is the simulation's oscilloscope. The paper measured
//! `P = V²/R` across a series resistor and reported the *increase* in
//! power while an experiment ran; we integrate the same quantity from
//! first principles:
//!
//! ```text
//! E = Σ active spans · P_active
//!   + Σ idle spans   · P(C-state chosen by the governor)
//!   + wakeups · ω
//! ```
//!
//! and report both total watts and "extra" watts over the all-idle
//! baseline, which is what Figures 4, 9, 10 and 11 plot.

use crate::governor::IdleGovernor;
use crate::model::PowerModel;
use pc_sim::core::CoreReport;
use pc_sim::{CoreState, SimDuration};
use serde::{Deserialize, Serialize};

/// Integrated energy figures for one or more cores over a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Run length.
    pub duration: SimDuration,
    /// Total energy, joules (cores only, no board baseline).
    pub energy_j: f64,
    /// Energy attributable to wakeup transitions alone, joules.
    pub wakeup_energy_j: f64,
    /// Total wakeups across the accounted cores.
    pub wakeups: u64,
    /// Total active time across cores.
    pub active_time: SimDuration,
    /// Total idle time across cores.
    pub idle_time: SimDuration,
    /// Time spent resident in each ladder state, by index, across cores.
    pub cstate_residency: Vec<SimDuration>,
    /// Energy the same cores would draw sleeping in the deepest state for
    /// the whole run, joules — the subtraction baseline.
    pub floor_energy_j: f64,
}

impl EnergyReport {
    /// Mean power over the run, watts.
    #[cfg(test)]
    fn avg_power_w(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.energy_j / self.duration.as_secs_f64()
        }
    }

    /// The paper's headline metric: mean power *above* the all-idle
    /// floor, in milliwatts.
    pub fn extra_power_mw(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            (self.energy_j - self.floor_energy_j) / self.duration.as_secs_f64() * 1e3
        }
    }

    /// Wakeups per second across the accounted cores.
    pub fn wakeups_per_sec(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.wakeups as f64 / self.duration.as_secs_f64()
        }
    }

    /// Merges per-core reports (summing energies and counts; the duration
    /// must match).
    pub fn merge(mut reports: Vec<EnergyReport>) -> EnergyReport {
        let mut total = reports.pop().expect("merge needs at least one report");
        for r in reports {
            assert_eq!(r.duration, total.duration, "mismatched run lengths");
            total.energy_j += r.energy_j;
            total.wakeup_energy_j += r.wakeup_energy_j;
            total.wakeups += r.wakeups;
            total.active_time += r.active_time;
            total.idle_time += r.idle_time;
            total.floor_energy_j += r.floor_energy_j;
            for (a, b) in total
                .cstate_residency
                .iter_mut()
                .zip(r.cstate_residency.iter())
            {
                *a += *b;
            }
        }
        total
    }
}

/// Integrates one core's finished timeline under `model`, with `governor`
/// choosing the C-state of each idle interval in order.
pub(crate) fn account_core(
    report: &CoreReport,
    model: &PowerModel,
    governor: &mut dyn IdleGovernor,
) -> EnergyReport {
    let mut energy = 0.0;
    let mut residency = vec![SimDuration::ZERO; model.ladder.len()];
    for iv in &report.timeline {
        match iv.state {
            CoreState::Active => {
                energy += iv.len().as_secs_f64() * model.active_power_w;
            }
            CoreState::Idle => {
                let idx = governor.select(&model.ladder, iv.len());
                energy += model
                    .ladder
                    .idle_energy(idx, iv.len(), model.active_power_w);
                residency[idx] += iv.len();
            }
        }
    }
    let wakeup_energy = report.wakeups as f64 * model.wakeup_energy_j;
    energy += wakeup_energy;
    let floor = report.duration.as_secs_f64() * model.deep_idle_power_w();
    EnergyReport {
        duration: report.duration,
        energy_j: energy,
        wakeup_energy_j: wakeup_energy,
        wakeups: report.wakeups,
        active_time: report.active_time,
        idle_time: report.idle_time(),
        cstate_residency: residency,
        floor_energy_j: floor,
    }
}

/// Accounts a set of cores with a fresh governor per core (governors are
/// per-core in real `cpuidle` too) and merges the result.
pub fn account_cores<G, F>(
    reports: &[CoreReport],
    model: &PowerModel,
    mut make_governor: F,
) -> EnergyReport
where
    G: IdleGovernor,
    F: FnMut() -> G,
{
    assert!(!reports.is_empty(), "need at least one core report");
    let per_core: Vec<EnergyReport> = reports
        .iter()
        .map(|r| {
            let mut g = make_governor();
            account_core(r, model, &mut g)
        })
        .collect();
    EnergyReport::merge(per_core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{MenuGovernor, OracleGovernor};
    use pc_sim::{Core, CoreId, SimTime};

    fn run_core(spans: &[(u64, u64)], end_us: u64) -> CoreReport {
        let mut c = Core::new(CoreId(0));
        for &(s, e) in spans {
            c.add_active_span(SimTime::from_micros(s), SimTime::from_micros(e));
        }
        c.finish(SimTime::from_micros(end_us))
    }

    #[test]
    fn idle_core_draws_floor_power() {
        let model = PowerModel::exynos_like();
        let report = run_core(&[], 1_000_000); // 1s fully idle
        let e = account_core(&report, &model, &mut OracleGovernor);
        assert_eq!(e.wakeups, 0);
        // One long idle interval lands in the deepest state.
        assert!((e.avg_power_w() - model.deep_idle_power_w()).abs() < 0.001);
        assert!(e.extra_power_mw() < 1.0);
    }

    #[test]
    fn active_core_draws_active_power() {
        let model = PowerModel::exynos_like();
        let report = run_core(&[(0, 1_000_000)], 1_000_000);
        let e = account_core(&report, &model, &mut OracleGovernor);
        // One wakeup's ω on top of pure active power.
        let expected = model.active_power_w + model.wakeup_energy_j;
        assert!((e.avg_power_w() - expected).abs() < 1e-9);
    }

    #[test]
    fn more_wakeups_cost_more_energy() {
        let model = PowerModel::exynos_like();
        // Same total active time (10ms) split as 1 vs 100 spans over 1s.
        let single = run_core(&[(0, 10_000)], 1_000_000);
        let spans: Vec<(u64, u64)> = (0..100).map(|k| (k * 10_000, k * 10_000 + 100)).collect();
        let many = run_core(&spans, 1_000_000);
        let e1 = account_core(&single, &model, &mut OracleGovernor);
        let e100 = account_core(&many, &model, &mut OracleGovernor);
        assert_eq!(e1.wakeups, 1);
        assert_eq!(e100.wakeups, 100);
        assert!(e100.energy_j > e1.energy_j);
        // Wakeup energy accounts for ≥ the ω difference.
        assert!(e100.wakeup_energy_j - e1.wakeup_energy_j >= 99.0 * model.wakeup_energy_j - 1e-12);
    }

    #[test]
    fn grouped_idle_reaches_deeper_states() {
        // The paper's Figure 1: grouped activity ⇒ longer idle gaps ⇒
        // deeper C-states ⇒ less idle energy.
        let model = PowerModel::exynos_like();
        // Fragmented: active 100us every 400us (idle gaps 300us → C2).
        let frag: Vec<(u64, u64)> = (0..2500).map(|k| (k * 400, k * 400 + 100)).collect();
        // Grouped: same active total (250ms) in one span, one huge idle.
        let grouped = run_core(&[(0, 250_000)], 1_000_000);
        let frag = run_core(&frag, 1_000_000);
        let ef = account_core(&frag, &model, &mut OracleGovernor);
        let eg = account_core(&grouped, &model, &mut OracleGovernor);
        assert_eq!(ef.active_time, eg.active_time);
        assert!(eg.energy_j < ef.energy_j);
        // Residency: grouped run sits almost entirely in the deepest state.
        let deep = *eg.cstate_residency.last().unwrap();
        assert!(deep > eg.idle_time.mul_f64(0.99));
    }

    #[test]
    fn oracle_beats_menu_on_irregular_idles() {
        let model = PowerModel::exynos_like();
        // Alternating long and short idles defeat the averaging predictor.
        let mut spans = Vec::new();
        let mut t = 0u64;
        for k in 0..200 {
            spans.push((t, t + 50));
            t += 50 + if k % 2 == 0 { 5_000 } else { 40 };
        }
        let report = run_core(&spans, t + 1000);
        let oracle = account_core(&report, &model, &mut OracleGovernor);
        let menu = account_core(&report, &model, &mut MenuGovernor::new());
        assert!(oracle.energy_j <= menu.energy_j);
    }

    #[test]
    fn merge_sums_cores() {
        let model = PowerModel::exynos_like();
        let a = account_core(&run_core(&[(0, 100)], 1000), &model, &mut OracleGovernor);
        let b = account_core(&run_core(&[(500, 700)], 1000), &model, &mut OracleGovernor);
        let sum_energy = a.energy_j + b.energy_j;
        let merged = EnergyReport::merge(vec![a, b]);
        assert_eq!(merged.wakeups, 2);
        assert!((merged.energy_j - sum_energy).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn merge_rejects_unequal_durations() {
        let model = PowerModel::exynos_like();
        let a = account_core(&run_core(&[], 1000), &model, &mut OracleGovernor);
        let b = account_core(&run_core(&[], 2000), &model, &mut OracleGovernor);
        EnergyReport::merge(vec![a, b]);
    }

    #[test]
    fn account_cores_helper() {
        let model = PowerModel::exynos_like();
        let reports = vec![run_core(&[(0, 100)], 1000), run_core(&[], 1000)];
        let merged = account_cores::<OracleGovernor, _>(&reports, &model, || OracleGovernor);
        assert_eq!(merged.wakeups, 1);
    }
}
