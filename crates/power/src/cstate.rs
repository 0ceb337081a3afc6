//! C-state ladders (§II of the paper).
//!
//! "C-states are modes at which the CPU operates, differing mainly in
//! their power consumption … generally start at C0 which indicates the
//! CPU is fully active, and gradually increase the number (C1, C2, …)".
//! A [`CStateLadder`] is an ordered list of idle states with three
//! parameters each, mirroring how Linux `cpuidle` describes them:
//!
//! * `power_w` — power drawn while resident in the state;
//! * `transition` — entry+exit latency paid once per visit;
//! * `target_residency` — the minimum stay for the state to be worth
//!   entering (below it, a shallower state costs less energy).

use pc_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One idle state of a core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CState {
    /// Human-readable name (`"C1"`, `"C2"`, …).
    pub name: String,
    /// Power drawn while resident, watts.
    pub power_w: f64,
    /// Combined entry+exit transition latency.
    pub transition: SimDuration,
    /// Minimum residency for the state to pay off.
    pub target_residency: SimDuration,
}

/// An ordered ladder of idle states, shallowest first. Deeper states draw
/// less power but cost more to enter and leave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CStateLadder {
    states: Vec<CState>,
}

impl CStateLadder {
    /// Builds a ladder from shallowest to deepest.
    ///
    /// Panics if empty, or if power levels are not strictly decreasing
    /// with depth, or target residencies not non-decreasing — those
    /// orderings are what makes governor logic well-defined.
    pub fn new(states: Vec<CState>) -> Self {
        assert!(!states.is_empty(), "ladder needs at least one state");
        for w in states.windows(2) {
            assert!(
                w[1].power_w < w[0].power_w,
                "deeper states must draw less power"
            );
            assert!(
                w[1].target_residency >= w[0].target_residency,
                "deeper states must not have shorter target residency"
            );
        }
        CStateLadder { states }
    }

    /// A ladder calibrated to the paper's platform class (Exynos 5 dual
    /// Cortex-A15 under Linaro's power manager): a WFI-like shallow state
    /// and two progressively deeper states down to ~80 mW per core.
    pub fn exynos_like() -> Self {
        CStateLadder::new(vec![
            CState {
                name: "C1-WFI".into(),
                power_w: 0.35,
                transition: SimDuration::from_micros(5),
                target_residency: SimDuration::from_micros(20),
            },
            CState {
                name: "C2-core-gated".into(),
                power_w: 0.15,
                transition: SimDuration::from_micros(80),
                target_residency: SimDuration::from_micros(300),
            },
            CState {
                name: "C3-core-off".into(),
                power_w: 0.08,
                transition: SimDuration::from_micros(150),
                target_residency: SimDuration::from_millis(1),
            },
        ])
    }

    /// The idle states, shallowest first.
    pub fn states(&self) -> &[CState] {
        &self.states
    }

    /// Number of idle states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Ladders are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The deepest state whose target residency fits within `idle_len`,
    /// or the shallowest state if none fits. Returns the index.
    pub(crate) fn deepest_fitting(&self, idle_len: SimDuration) -> usize {
        let mut pick = 0;
        for (i, s) in self.states.iter().enumerate() {
            if s.target_residency <= idle_len {
                pick = i;
            } else {
                break;
            }
        }
        pick
    }

    /// Energy (joules) spent idling for `idle_len` in state `index`,
    /// including the transition cost modelled as `transition` time spent
    /// at `active_power_w`.
    pub(crate) fn idle_energy(
        &self,
        index: usize,
        idle_len: SimDuration,
        active_power_w: f64,
    ) -> f64 {
        let s = &self.states[index];
        let resident = idle_len.saturating_sub(s.transition);
        resident.as_secs_f64() * s.power_w
            + s.transition.min(idle_len).as_secs_f64() * active_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exynos_ladder_is_valid() {
        let ladder = CStateLadder::exynos_like();
        assert_eq!(ladder.len(), 3);
        assert!(ladder.states()[0].power_w > ladder.states()[2].power_w);
    }

    #[test]
    fn deepest_fitting_boundaries() {
        let ladder = CStateLadder::exynos_like();
        // Shorter than every residency → shallowest.
        assert_eq!(ladder.deepest_fitting(SimDuration::from_micros(1)), 0);
        // Exactly C2's residency → C2.
        assert_eq!(ladder.deepest_fitting(SimDuration::from_micros(300)), 1);
        // Long idle → deepest.
        assert_eq!(ladder.deepest_fitting(SimDuration::from_secs(1)), 2);
    }

    #[test]
    fn idle_energy_prefers_deep_state_for_long_idle() {
        let ladder = CStateLadder::exynos_like();
        let long_idle = SimDuration::from_millis(10);
        let shallow = ladder.idle_energy(0, long_idle, 1.6);
        let deep = ladder.idle_energy(2, long_idle, 1.6);
        assert!(deep < shallow, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn idle_energy_prefers_shallow_state_for_short_idle() {
        let ladder = CStateLadder::exynos_like();
        let short_idle = SimDuration::from_micros(30);
        let shallow = ladder.idle_energy(0, short_idle, 1.6);
        let deep = ladder.idle_energy(2, short_idle, 1.6);
        assert!(
            shallow < deep,
            "transition cost should dominate: shallow {shallow} vs deep {deep}"
        );
    }

    #[test]
    fn idle_energy_clamps_transition_to_interval() {
        let ladder = CStateLadder::exynos_like();
        // Idle shorter than the deep transition: no negative residency.
        let tiny = SimDuration::from_micros(10);
        let e = ladder.idle_energy(2, tiny, 1.6);
        assert!(e > 0.0 && e.is_finite());
    }

    #[test]
    #[should_panic(expected = "less power")]
    fn non_decreasing_power_rejected() {
        CStateLadder::new(vec![
            CState {
                name: "a".into(),
                power_w: 0.1,
                transition: SimDuration::ZERO,
                target_residency: SimDuration::ZERO,
            },
            CState {
                name: "b".into(),
                power_w: 0.2,
                transition: SimDuration::ZERO,
                target_residency: SimDuration::ZERO,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ladder_rejected() {
        CStateLadder::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "shorter target residency")]
    fn shrinking_residency_rejected() {
        CStateLadder::new(vec![
            CState {
                name: "a".into(),
                power_w: 0.2,
                transition: SimDuration::ZERO,
                target_residency: SimDuration::from_micros(50),
            },
            CState {
                name: "b".into(),
                power_w: 0.1,
                transition: SimDuration::ZERO,
                target_residency: SimDuration::from_micros(10),
            },
        ]);
    }

    #[test]
    fn idle_energy_charges_transition_at_active_power() {
        let ladder = CStateLadder::exynos_like();
        // C2 over 1 ms: 80 µs of transition at 1.6 W, 920 µs at 0.15 W.
        let e = ladder.idle_energy(1, SimDuration::from_millis(1), 1.6);
        let expected = 80e-6 * 1.6 + 920e-6 * 0.15;
        assert!((e - expected).abs() < 1e-12, "{e} vs {expected}");
        // An idle shorter than the transition is all transition.
        let short = ladder.idle_energy(2, SimDuration::from_micros(10), 1.6);
        assert!((short - 10e-6 * 1.6).abs() < 1e-12);
    }

    #[test]
    fn deepest_fitting_never_gets_shallower_with_longer_idle() {
        let ladder = CStateLadder::exynos_like();
        let mut prev = 0;
        for us in (0..3000).step_by(10) {
            let pick = ladder.deepest_fitting(SimDuration::from_micros(us));
            assert!(pick >= prev, "{us} µs picked {pick} after {prev}");
            assert!(pick < ladder.len());
            prev = pick;
        }
        assert_eq!(prev, ladder.len() - 1);
    }

    #[test]
    fn single_state_ladder_always_picks_its_state() {
        let ladder = CStateLadder::new(vec![CState {
            name: "only".into(),
            power_w: 0.2,
            transition: SimDuration::from_micros(1),
            target_residency: SimDuration::from_millis(5),
        }]);
        assert!(!ladder.is_empty());
        assert_eq!(ladder.len(), 1);
        for idle in [SimDuration::ZERO, SimDuration::from_secs(1)] {
            assert_eq!(ladder.deepest_fitting(idle), 0);
        }
    }
}
