//! The system power model: everything needed to turn a core activity
//! timeline into joules.
//!
//! The paper's formal model (§IV-A) deliberately simplifies to two states
//! — idle and active — plus a per-wakeup cost ω (Eq. 3). The
//! [`PowerModel`] keeps that structure but grounds each constant in the
//! platform the paper measured (an Arndale Exynos-5 board):
//!
//! * active power per core while executing,
//! * a C-state ladder for idle power (collapsing to a single idle power
//!   if accounting uses only the deepest state),
//! * the wakeup transition energy ω,
//! * the CPU time charged per consumed item (which converts item counts
//!   into active-span lengths), and
//! * per-synchronisation-operation CPU overhead for the lock-based
//!   strategies (what makes Mutex/Sem burn more usage than batchers at
//!   equal item counts, §III-C).

use crate::cstate::CStateLadder;
use pc_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Calibrated power/energy constants for the simulated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Power drawn by one core while executing, watts.
    pub active_power_w: f64,
    /// Idle-state ladder.
    pub ladder: CStateLadder,
    /// Energy of one idle→active transition (the paper's ω), joules.
    ///
    /// Accounting note: ω models the *architectural* wake path (interrupt
    /// dispatch, scheduler, cache refill) and is charged once per wakeup;
    /// the C-state ladder separately charges each idle visit's
    /// *hardware* entry/exit latency at active power. The two costs are
    /// physically distinct and both scale with the wakeup count, so the
    /// paper's single ω corresponds to their sum under this model.
    pub wakeup_energy_j: f64,
    /// CPU time to process one data item.
    pub item_cpu: SimDuration,
    /// Extra CPU time per synchronisation operation (lock/unlock +
    /// condvar signal, or sem wait/post) charged per item by the
    /// item-at-a-time strategies.
    pub sync_op_cpu: SimDuration,
    /// CPU time charged per consumer activation (scheduling + cache
    /// warm-up), independent of batch size.
    pub dispatch_cpu: SimDuration,
    /// Tail window after an item-driven consumer runs dry before its
    /// thread is truly asleep (condvar re-check under lock, futex path,
    /// idle-governor entry). Arrivals inside this window are picked up
    /// without a fresh sleep/wake cycle, which is what keeps a blocking
    /// consumer's wakeups at per-burst rather than per-item granularity.
    pub sleep_entry: SimDuration,
    /// Board baseline power with all measured cores idle-deep, watts.
    /// Subtracted when reporting the paper's "extra watts" metric.
    pub baseline_w: f64,
}

impl PowerModel {
    /// Calibration for the paper's platform class (dual Cortex-A15):
    /// ~1.6 W per active core, ~80 mW deep idle, ω = 120 µJ, 2 µs of CPU
    /// per item, 400 ns per lock round-trip, 5 µs dispatch overhead.
    pub fn exynos_like() -> Self {
        PowerModel {
            active_power_w: 1.6,
            ladder: CStateLadder::exynos_like(),
            wakeup_energy_j: 120e-6,
            item_cpu: SimDuration::from_micros(2),
            sync_op_cpu: SimDuration::from_nanos(400),
            dispatch_cpu: SimDuration::from_micros(5),
            sleep_entry: SimDuration::from_micros(30),
            baseline_w: 2.4,
        }
    }

    /// The power of the deepest idle state, watts.
    pub(crate) fn deep_idle_power_w(&self) -> f64 {
        self.ladder
            .states()
            .last()
            .expect("ladder is non-empty by construction")
            .power_w
    }

    /// CPU time for a batch of `n` items consumed in one activation.
    pub fn batch_cpu(&self, n: u64) -> SimDuration {
        self.dispatch_cpu.saturating_add(self.item_cpu * n)
    }

    /// Energy to process `x` items, joules — the paper's `e(x)` term in
    /// the ρ cost function (Eq. 8).
    pub fn item_energy_j(&self, x: f64) -> f64 {
        self.item_cpu.as_secs_f64() * self.active_power_w * x.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exynos_constants_sane() {
        let m = PowerModel::exynos_like();
        assert!(m.active_power_w > m.deep_idle_power_w());
        // ω must dwarf per-item energy — the premise of batching.
        assert!(m.wakeup_energy_j > 10.0 * m.item_energy_j(1.0));
    }

    #[test]
    fn batch_cpu_amortises_dispatch() {
        let m = PowerModel::exynos_like();
        let one_batch = m.batch_cpu(100);
        let hundred_singles = m.batch_cpu(1) * 100;
        assert!(one_batch < hundred_singles);
    }

    #[test]
    fn item_energy_linear_and_clamped() {
        let m = PowerModel::exynos_like();
        let e1 = m.item_energy_j(1.0);
        let e10 = m.item_energy_j(10.0);
        assert!((e10 - 10.0 * e1).abs() < 1e-15);
        assert_eq!(m.item_energy_j(-5.0), 0.0);
    }

    #[test]
    fn zero_items_zero_marginal_cost() {
        let m = PowerModel::exynos_like();
        assert_eq!(m.batch_cpu(0), m.dispatch_cpu);
        assert_eq!(m.item_energy_j(0.0), 0.0);
    }

    #[test]
    fn batch_cpu_is_dispatch_plus_per_item_time() {
        let m = PowerModel::exynos_like();
        assert_eq!(m.batch_cpu(3), SimDuration::from_micros(5 + 3 * 2));
        assert_eq!(m.batch_cpu(7), m.dispatch_cpu + m.item_cpu * 7);
    }

    #[test]
    fn deep_idle_power_is_the_last_ladder_state() {
        let m = PowerModel::exynos_like();
        let states = m.ladder.states();
        assert_eq!(m.deep_idle_power_w(), states[states.len() - 1].power_w);
        assert!(states.iter().all(|s| s.power_w >= m.deep_idle_power_w()));
    }

    #[test]
    fn exynos_calibration_matches_its_documented_constants() {
        let m = PowerModel::exynos_like();
        assert_eq!(m.active_power_w, 1.6);
        assert_eq!(m.wakeup_energy_j, 120e-6);
        assert_eq!(m.item_cpu, SimDuration::from_micros(2));
        assert_eq!(m.sync_op_cpu, SimDuration::from_nanos(400));
        assert_eq!(m.dispatch_cpu, SimDuration::from_micros(5));
        // Extra watts are reported above the board baseline.
        assert!(m.baseline_w > m.active_power_w);
    }
}
