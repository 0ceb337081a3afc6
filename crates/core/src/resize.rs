//! Dynamic buffer sizing decisions (§V-C "Dynamic buffer resizing").
//!
//! After reserving a slot the consumer *downsizes* its buffer "such that
//! it is only sufficient to accommodate the predicted items and not
//! more": Bᵢ = r̂ⱼ₊₁ · (τᵢⱼ₊₁ − τᵢⱼ). A consumer whose predicted rate
//! cannot be served by any slot *upsizes* "according to the space
//! available": Bᵢ = min(B_g − ΣB_q, r̂ⱼ₊₁·(τᵢⱼ₊₁ − τᵢⱼ)) — the pool
//! minimum is enforced by [`pc_queues::ElasticBuffer::grow_to`] itself.
//!
//! This module computes the *target* capacities; the elastic buffer
//! applies them against the pool.

use pc_sim::SimTime;

/// Items predicted to accumulate between `now` and `slot_start` at rate
/// `rate` — the r̂·(τ_next − τ_now) term shared by both sizing formulas.
pub(crate) fn predicted_fill(rate: f64, now: SimTime, slot_start: SimTime) -> f64 {
    rate.max(0.0) * slot_start.saturating_since(now).as_secs_f64()
}

/// The capacity target for the interval to the reserved slot.
///
/// `margin` scales the prediction — 1.0 is the paper's exact formula,
/// larger values add slack against prediction error (an ablation knob).
/// The result is never below 1.
pub(crate) fn capacity_target(predicted_items: f64, margin: f64) -> usize {
    (predicted_items * margin.max(0.0)).ceil().max(1.0) as usize
}

/// Decides the resize action for a consumer that has just reserved a
/// slot: the target it should shrink or grow to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResizePlan {
    /// Shrink toward the target, releasing pool units.
    Shrink(usize),
    /// Grow toward the target, borrowing pool units (best-effort).
    Grow(usize),
    /// Capacity already matches the target.
    Keep,
}

/// Plans the resize from `current` capacity to fit `predicted_items` with
/// `margin`.
pub(crate) fn plan_resize(current: usize, predicted_items: f64, margin: f64) -> ResizePlan {
    let target = capacity_target(predicted_items, margin);
    use std::cmp::Ordering::*;
    match target.cmp(&current) {
        Less => ResizePlan::Shrink(target),
        Greater => ResizePlan::Grow(target),
        Equal => ResizePlan::Keep,
    }
}

/// Upsize target when the predicted rate overruns every acceptable slot
/// (the `rate_overrun` flag from slot selection): enough capacity to
/// survive until `slot_start` at the predicted rate, with margin.
pub(crate) fn overrun_target(rate: f64, now: SimTime, slot_start: SimTime, margin: f64) -> usize {
    capacity_target(predicted_fill(rate, now, slot_start), margin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn predicted_fill_matches_formula() {
        // 5000/s over 5ms = 25 items.
        assert!((predicted_fill(5000.0, ms(10), ms(15)) - 25.0).abs() < 1e-9);
        assert_eq!(predicted_fill(5000.0, ms(15), ms(10)), 0.0, "past slot");
        assert_eq!(predicted_fill(-10.0, ms(0), ms(10)), 0.0, "negative rate");
    }

    #[test]
    fn capacity_target_rounds_up_with_floor() {
        assert_eq!(capacity_target(24.2, 1.0), 25);
        assert_eq!(capacity_target(0.0, 1.0), 1);
        assert_eq!(capacity_target(10.0, 1.2), 12);
    }

    #[test]
    fn plan_directions() {
        assert_eq!(plan_resize(50, 25.0, 1.0), ResizePlan::Shrink(25));
        assert_eq!(plan_resize(20, 25.0, 1.0), ResizePlan::Grow(25));
        assert_eq!(plan_resize(25, 25.0, 1.0), ResizePlan::Keep);
    }

    #[test]
    fn overrun_target_covers_next_slot() {
        // 100k/s for 1ms = 100 items.
        assert_eq!(overrun_target(100_000.0, ms(10), ms(11), 1.0), 100);
        assert_eq!(overrun_target(100_000.0, ms(10), ms(11), 1.5), 150);
    }

    #[test]
    fn capacity_target_never_drops_below_one() {
        assert_eq!(capacity_target(100.0, 0.0), 1);
        assert_eq!(capacity_target(100.0, -2.0), 1, "negative margin clamps");
        assert_eq!(capacity_target(0.3, 1.0), 1);
    }

    #[test]
    fn fill_is_zero_at_the_slot_boundary() {
        assert_eq!(predicted_fill(5000.0, ms(15), ms(15)), 0.0);
        assert_eq!(overrun_target(5000.0, ms(15), ms(15), 1.0), 1);
    }

    #[test]
    fn empty_buffer_grows_to_the_prediction() {
        assert_eq!(plan_resize(0, 0.0, 1.0), ResizePlan::Grow(1));
        assert_eq!(plan_resize(0, 40.0, 1.25), ResizePlan::Grow(50));
        assert_eq!(plan_resize(1, 0.0, 1.0), ResizePlan::Keep);
    }
}
