//! The reservation cost function ρ and slot selection (§V-C
//! "Reservation").
//!
//! Eq. 8:  ρ(sⱼ) = (w(sⱼ) + e(r̂·(sⱼ−sᵢ))) / (r̂·(sⱼ−sᵢ))
//!
//! where `w` is the wakeup cost (zero when the core is already scheduled
//! to be awake at sⱼ — that is what *latching* means) and `e(x)` is the
//! energy to process `x` items. ρ is cost *per item*, giving "consumers
//! perspective on the tradeoff between latching on a slot with a low
//! predicted number of items versus reserving a new slot with a high
//! predicted number of items".
//!
//! Selection backtracks from the predicted buffer-full slot
//! `g(sᵢ + B/r̂)` toward the present, stopping as soon as ρ stops
//! improving; the core manager's reservation index makes each backtrack
//! step O(log n) ([`crate::CoreManager::latest_reserved_in`]).

use crate::manager::CoreManager;
use crate::model::ConsumerId;
use crate::slot::{SlotIndex, SlotTrack};
use pc_power::PowerModel;
use pc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Energy constants entering ρ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// ω — energy of one core wakeup, joules.
    pub wakeup_energy_j: f64,
    /// Energy to process one item, joules (e is linear: `e(x) = x·this`).
    pub item_energy_j: f64,
}

impl CostModel {
    /// Derives the cost constants from a platform power model.
    pub fn from_power_model(m: &PowerModel) -> Self {
        CostModel {
            wakeup_energy_j: m.wakeup_energy_j,
            item_energy_j: m.item_energy_j(1.0),
        }
    }

    /// Eq. 8 for a slot predicted to hold `items` items. `needs_wakeup`
    /// is false when the slot already has a reservation (the core will be
    /// awake — w = 0). Returns `+∞` for non-positive item counts: waking
    /// for nothing has unbounded per-item cost.
    pub fn rho(&self, needs_wakeup: bool, items: f64) -> f64 {
        if items <= 0.0 {
            return f64::INFINITY;
        }
        let w = if needs_wakeup {
            self.wakeup_energy_j
        } else {
            0.0
        };
        (w + self.item_energy_j * items) / items
    }
}

/// The outcome of slot selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotChoice {
    /// The chosen slot.
    pub slot: SlotIndex,
    /// Items predicted to be buffered when the slot fires.
    pub predicted_items: f64,
    /// Whether the choice latches onto an existing reservation.
    pub latched: bool,
    /// True when the predicted rate fills the buffer before even the
    /// next slot — the §V-C trigger for requesting more buffer space.
    pub rate_overrun: bool,
}

/// Selects the reservation slot for a consumer on `manager`'s core.
///
/// ```
/// use pc_core::{select_slot, CoreManager, CostModel, PairId, SlotTrack};
/// use pc_sim::{SimDuration, SimTime};
///
/// let track = SlotTrack::new(SimDuration::from_millis(25));
/// let mut mgr = CoreManager::new(track);
/// let cost = CostModel { wakeup_energy_j: 120e-6, item_energy_j: 3.2e-6 };
/// // A neighbour already reserved slot 2; at 2000 items/s a 50-item
/// // buffer fills in 25ms, so slot 2 is on the way — latch onto it.
/// mgr.reserve(2, PairId(9));
/// let choice = select_slot(&track, &mgr, &cost, SimTime::from_millis(30),
///                          2_000.0, 50, SimDuration::from_millis(100), true,
///                          Some(PairId(0)));
/// assert_eq!(choice.slot, 2);
/// assert!(choice.latched);
/// ```
///
/// * `now` — current time (the invocation instant sᵢ).
/// * `rate` — predicted rate r̂ (items/second).
/// * `capacity` — current buffer capacity Bᵢ.
/// * `max_latency` — upper bound on how far ahead the consumer may sleep
///   (its maximum acceptable response latency).
/// * `latching` — when false (ablation), reservations by others are
///   ignored and every slot is costed with a full wakeup.
/// * `selecting` — the consumer doing the selection: its *own* pending
///   reservation is not a latch target (waking for yourself alone still
///   costs ω).
///
/// Note on the latency bound: wakeups only happen on slot boundaries, so
/// a `max_latency` smaller than the gap to the next slot still yields
/// the next slot — Δ is the floor on achievable latency (which is why
/// the paper derives Δ *from* the latency requirements).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list for Eq. 8
pub fn select_slot(
    track: &SlotTrack,
    manager: &CoreManager,
    cost: &CostModel,
    now: SimTime,
    rate: f64,
    capacity: usize,
    max_latency: SimDuration,
    latching: bool,
    selecting: Option<ConsumerId>,
) -> SlotChoice {
    let has_latch = |slot: SlotIndex| match selecting {
        Some(me) => manager.has_reservation_excluding(slot, me),
        None => manager.has_reservation(slot),
    };
    let latest_latch = |after: SlotIndex, upto: SlotIndex| match selecting {
        Some(me) => manager.latest_reserved_in_excluding(after, upto, me),
        None => manager.latest_reserved_in(after, upto),
    };
    let earliest = track.next_slot_after(now);
    let deadline_slot = track
        .slot_index(now.saturating_add(max_latency))
        .max(earliest);

    if rate <= 0.0 {
        // Nothing predicted: sleep as long as the latency bound allows
        // (an empty wakeup there will re-estimate), but grab a latch on
        // the way if one exists.
        let slot = if latching {
            latest_latch(earliest - 1, deadline_slot).unwrap_or(deadline_slot)
        } else {
            deadline_slot
        };
        return SlotChoice {
            slot,
            predicted_items: 0.0,
            latched: latching && has_latch(slot),
            rate_overrun: false,
        };
    }

    // Predicted buffer-full instant and its slot, g(sᵢ + B/r̂).
    let fill_at = now.saturating_add(SimDuration::from_secs_f64(capacity as f64 / rate));
    let fill_slot = track.slot_index(fill_at);
    let rate_overrun = fill_slot < earliest;
    let candidate = fill_slot.clamp(earliest, deadline_slot);

    let items_at = |slot: SlotIndex| -> f64 {
        rate * track.slot_start(slot).saturating_since(now).as_secs_f64()
    };

    let candidate_needs_wakeup = !(latching && has_latch(candidate));
    let mut best = SlotChoice {
        slot: candidate,
        predicted_items: items_at(candidate),
        latched: !candidate_needs_wakeup,
        rate_overrun,
    };
    let mut best_rho = cost.rho(candidate_needs_wakeup, best.predicted_items);

    if latching {
        // Backtrack across reserved slots only — unreserved slots earlier
        // than the candidate are dominated (same wakeup cost, fewer
        // items). Stop as soon as ρ stops improving.
        let mut upto = candidate.saturating_sub(1);
        while let Some(slot) = latest_latch(earliest.saturating_sub(1), upto) {
            let items = items_at(slot);
            let rho = cost.rho(false, items);
            if rho < best_rho {
                best = SlotChoice {
                    slot,
                    predicted_items: items,
                    latched: true,
                    rate_overrun,
                };
                best_rho = rho;
            } else {
                break;
            }
            if slot == 0 {
                break;
            }
            upto = slot - 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CoreManager;
    use crate::model::PairId;

    fn setup() -> (SlotTrack, CoreManager, CostModel) {
        let track = SlotTrack::new(SimDuration::from_millis(1));
        let manager = CoreManager::new(track);
        let cost = CostModel {
            wakeup_energy_j: 120e-6,
            item_energy_j: 3.2e-6,
        };
        (track, manager, cost)
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn rho_matches_equation() {
        let (_, _, cost) = setup();
        // (ω + e·x)/x with x = 10.
        let expected = (120e-6 + 3.2e-6 * 10.0) / 10.0;
        assert!((cost.rho(true, 10.0) - expected).abs() < 1e-18);
        // Latched slot: pure per-item energy.
        assert!((cost.rho(false, 10.0) - 3.2e-6).abs() < 1e-18);
    }

    #[test]
    fn rho_infinite_for_zero_items() {
        let (_, _, cost) = setup();
        assert!(cost.rho(true, 0.0).is_infinite());
        assert!(cost.rho(false, -1.0).is_infinite());
    }

    #[test]
    fn rho_decreases_with_items_when_waking() {
        let (_, _, cost) = setup();
        assert!(cost.rho(true, 1.0) > cost.rho(true, 10.0));
        assert!(cost.rho(true, 10.0) > cost.rho(true, 100.0));
    }

    #[test]
    fn no_reservations_picks_buffer_full_slot() {
        let (track, manager, cost) = setup();
        // rate 5000/s, capacity 25 → fills in 5ms → slot at t+5ms.
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(15)));
        assert!(!choice.latched);
        assert!(!choice.rate_overrun);
        assert!((choice.predicted_items - 25.0).abs() < 1.0);
    }

    #[test]
    fn latches_to_reservation_before_fill_slot() {
        let (track, mut manager, cost) = setup();
        manager.reserve(track.slot_index(ms(13)), PairId(9));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(13)));
        assert!(choice.latched);
        // 3ms of buffering at 5000/s.
        assert!((choice.predicted_items - 15.0).abs() < 1.0);
    }

    #[test]
    fn prefers_latest_of_several_reservations() {
        let (track, mut manager, cost) = setup();
        manager.reserve(track.slot_index(ms(11)), PairId(7));
        manager.reserve(track.slot_index(ms(14)), PairId(8));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            None,
        );
        // Both latches cost e per item; the later one buffers more items
        // per invocation (the paper's buffer-utilization objective), and
        // the backtracking stop rule lands on it first.
        assert_eq!(choice.slot, track.slot_index(ms(14)));
        assert!(choice.latched);
    }

    #[test]
    fn latching_disabled_ignores_reservations() {
        let (track, mut manager, cost) = setup();
        manager.reserve(track.slot_index(ms(13)), PairId(9));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            false,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(15)));
        assert!(!choice.latched);
    }

    #[test]
    fn rate_overrun_flagged_and_clamped_to_next_slot() {
        let (track, manager, cost) = setup();
        // 100k/s with capacity 25 fills in 250us < Δ = 1ms.
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            100_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            None,
        );
        assert!(choice.rate_overrun);
        assert_eq!(choice.slot, track.next_slot_after(ms(10)));
    }

    #[test]
    fn latency_bound_caps_sleep() {
        let (track, manager, cost) = setup();
        // 10 items/s with capacity 100 would fill in 10s; latency bound
        // is 5ms.
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            10.0,
            100,
            SimDuration::from_millis(5),
            true,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(15)));
    }

    #[test]
    fn zero_rate_sleeps_to_deadline() {
        let (track, manager, cost) = setup();
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            0.0,
            25,
            SimDuration::from_millis(8),
            true,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(18)));
        assert_eq!(choice.predicted_items, 0.0);
    }

    #[test]
    fn zero_rate_still_latches() {
        let (track, mut manager, cost) = setup();
        manager.reserve(track.slot_index(ms(12)), PairId(3));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            0.0,
            25,
            SimDuration::from_millis(8),
            true,
            None,
        );
        assert_eq!(choice.slot, track.slot_index(ms(12)));
        assert!(choice.latched);
    }

    #[test]
    fn own_reservation_is_not_a_latch_target() {
        let (track, mut manager, cost) = setup();
        // Only MY old reservation sits before the fill slot: latching to
        // it would not save a wakeup, so the fill-based candidate wins.
        manager.reserve(track.slot_index(ms(13)), PairId(0));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            Some(PairId(0)),
        );
        assert_eq!(choice.slot, track.slot_index(ms(15)));
        assert!(!choice.latched);
        // But someone else's reservation at the same slot is a latch.
        manager.reserve(track.slot_index(ms(13)), PairId(1));
        let choice = select_slot(
            &track,
            &manager,
            &cost,
            ms(10),
            5_000.0,
            25,
            SimDuration::from_millis(50),
            true,
            Some(PairId(0)),
        );
        assert_eq!(choice.slot, track.slot_index(ms(13)));
        assert!(choice.latched);
    }

    #[test]
    fn choice_never_in_past_or_beyond_deadline() {
        let (track, mut manager, cost) = setup();
        manager.reserve(2, PairId(1)); // ancient reservation
        for rate in [0.0, 10.0, 1000.0, 1e6] {
            let now = ms(100);
            let choice = select_slot(
                &track,
                &manager,
                &cost,
                now,
                rate,
                25,
                SimDuration::from_millis(20),
                true,
                None,
            );
            assert!(track.slot_start(choice.slot) > now, "rate {rate}");
            assert!(
                track.slot_start(choice.slot) <= ms(120),
                "rate {rate}: slot {} too far",
                choice.slot
            );
        }
    }
}
