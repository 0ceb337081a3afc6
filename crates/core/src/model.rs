//! The paper's formal objects (§IV-B), as executable definitions.
//!
//! These are not used on the algorithm hot path — the simulator and the
//! core manager maintain their own incremental state — but they give the
//! test suite and the analysis binaries an independent, literal
//! transcription of Equations 1–4 and 7 to validate against.

use pc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies a producer-consumer pair (the paper indexes producers,
/// consumers and buffers by the same `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PairId(pub usize);

/// Identifies a consumer; by the paper's one-to-one assumption this is
/// interchangeable with its [`PairId`].
pub(crate) type ConsumerId = PairId;

/// Eq. 1 — γᵢ(τₘ₋₁, τₘ): the number of items produced in
/// `[from, to)`. `times` must be sorted.
pub fn gamma_count(times: &[SimTime], from: SimTime, to: SimTime) -> usize {
    debug_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    let lo = times.partition_point(|&t| t < from);
    let hi = times.partition_point(|&t| t < to);
    hi.saturating_sub(lo)
}

/// One consumer invocation for objective evaluation: when it ran, on
/// which core, and for how long it kept the core busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invocation {
    /// The invoked consumer.
    pub consumer: ConsumerId,
    /// Core the consumer is mapped to (the paper's `f(cᵢ)`).
    pub core: usize,
    /// Invocation instant τᵢⱼ.
    pub at: SimTime,
    /// How long the invocation keeps the core active.
    pub busy: SimDuration,
}

/// Eqs. 3–4 — the wakeup objective: counts invocations that find their
/// core idle, i.e. Σᵢ Σⱼ w(τᵢⱼ)/ω. Invocations on the same core whose
/// busy windows overlap or abut share a single wakeup, exactly like
/// [`pc_sim::Core`]'s span merging.
pub fn wakeup_objective(invocations: &[Invocation], cores: usize) -> u64 {
    let mut by_core: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); cores];
    for inv in invocations {
        assert!(inv.core < cores, "invocation on unknown core {}", inv.core);
        by_core[inv.core].push((inv.at, inv.at + inv.busy));
    }
    let mut wakeups = 0;
    for spans in &mut by_core {
        spans.sort();
        let mut busy_until: Option<SimTime> = None;
        for &(start, end) in spans.iter() {
            match busy_until {
                Some(t) if start <= t => {
                    busy_until = Some(t.max(end));
                }
                _ => {
                    wakeups += 1;
                    busy_until = Some(end);
                }
            }
        }
    }
    wakeups
}

/// Eq. 7 — the alignment objective: Σ |τᵢⱼ − g(τᵢⱼ)| for a slot function
/// `g`. Zero iff every invocation sits exactly on a slot boundary.
pub fn alignment_objective<G>(invocations: &[Invocation], g: G) -> SimDuration
where
    G: Fn(SimTime) -> SimTime,
{
    invocations
        .iter()
        .map(|inv| {
            let s = g(inv.at);
            debug_assert!(s <= inv.at, "g must return a slot at or before τ");
            inv.at.saturating_since(s)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    fn inv(core: usize, at: u64, busy: u64) -> Invocation {
        Invocation {
            consumer: PairId(0),
            core,
            at: t(at),
            busy: d(busy),
        }
    }

    #[test]
    fn gamma_counts_half_open_interval() {
        let times = [t(10), t(20), t(30)];
        assert_eq!(gamma_count(&times, t(10), t(30)), 2);
        assert_eq!(gamma_count(&times, t(0), t(100)), 3);
        assert_eq!(gamma_count(&times, t(30), t(30)), 0);
        assert_eq!(gamma_count(&times, t(31), t(100)), 0);
    }

    #[test]
    fn separate_invocations_cost_separate_wakeups() {
        // The paper's Fig. 6(a): 8 spread-out invocations = 8 wakeups.
        let invs: Vec<_> = (0..8).map(|k| inv(0, k * 1000, 10)).collect();
        assert_eq!(wakeup_objective(&invs, 1), 8);
    }

    #[test]
    fn grouped_invocations_share_wakeups() {
        // Fig. 6(b): invocations aligned to 3 slots = 3 wakeups, because
        // consumers at the same slot run back to back.
        let mut invs = Vec::new();
        for slot in [0u64, 1000, 2000] {
            invs.push(inv(0, slot, 10));
            invs.push(inv(0, slot + 10, 10)); // latched right behind
            invs.push(inv(0, slot + 20, 10));
        }
        assert_eq!(wakeup_objective(&invs, 1), 3);
    }

    #[test]
    fn cores_do_not_share_wakeups() {
        let invs = vec![inv(0, 0, 10), inv(1, 0, 10)];
        assert_eq!(wakeup_objective(&invs, 2), 2);
    }

    #[test]
    fn overlap_merges_even_unsorted_input() {
        let invs = vec![inv(0, 100, 50), inv(0, 0, 120)];
        assert_eq!(wakeup_objective(&invs, 1), 1);
    }

    #[test]
    fn alignment_zero_when_on_slots() {
        let delta = 1000;
        let g = move |time: SimTime| SimTime::from_micros((time.as_nanos() / 1000) / delta * delta);
        let invs = vec![inv(0, 0, 1), inv(0, 1000, 1), inv(0, 3000, 1)];
        assert_eq!(alignment_objective(&invs, g), SimDuration::ZERO);
    }

    #[test]
    fn alignment_sums_offsets() {
        let delta = 1000;
        let g = move |time: SimTime| SimTime::from_micros((time.as_nanos() / 1000) / delta * delta);
        let invs = vec![inv(0, 250, 1), inv(0, 1900, 1)];
        assert_eq!(alignment_objective(&invs, g), d(250 + 900));
    }

    #[test]
    #[should_panic(expected = "unknown core")]
    fn invocation_on_missing_core_panics() {
        wakeup_objective(&[inv(3, 0, 1)], 2);
    }
}
