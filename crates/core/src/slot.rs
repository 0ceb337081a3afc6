//! The slot track (§V-A).
//!
//! "We begin with interpreting time as a track with periodic slots …
//! denoted as the slot size Δ. The default slot size is equal to the
//! minimum of all maximum acceptable response latencies defined by the
//! producer-consumer pairs."
//!
//! A [`SlotTrack`] is pure arithmetic over that track: slot indices,
//! slot start times, and the paper's `g(τ)` (Eq. 6) — the closest slot
//! at or before an instant.

use pc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Index of a slot on the track. Slot `k` starts at `origin + k·Δ`.
pub(crate) type SlotIndex = u64;

/// Periodic slot arithmetic.
///
/// ```
/// use pc_core::SlotTrack;
/// use pc_sim::{SimDuration, SimTime};
///
/// let track = SlotTrack::new(SimDuration::from_millis(25));
/// let t = SimTime::from_millis(60);
/// assert_eq!(track.g(t), SimTime::from_millis(50));      // Eq. 6
/// assert_eq!(track.next_slot_after(t), 3);               // fires at 75ms
/// assert_eq!(track.misalignment(t), SimDuration::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotTrack {
    delta: SimDuration,
    origin: SimTime,
}

impl SlotTrack {
    /// A track with slot size `delta` starting at time zero.
    ///
    /// Panics if `delta` is zero.
    pub fn new(delta: SimDuration) -> Self {
        Self::with_origin(delta, SimTime::ZERO)
    }

    /// A track with slot size `delta` whose slot 0 begins at `origin`.
    pub(crate) fn with_origin(delta: SimDuration, origin: SimTime) -> Self {
        assert!(!delta.is_zero(), "slot size Δ must be nonzero");
        SlotTrack { delta, origin }
    }

    /// The slot size Δ.
    pub fn delta(&self) -> SimDuration {
        self.delta
    }

    /// Index of the slot containing `t` (i.e. the slot whose start is
    /// `g(t)`). Times before the origin clamp to slot 0.
    pub fn slot_index(&self, t: SimTime) -> SlotIndex {
        t.saturating_since(self.origin).as_nanos() / self.delta.as_nanos()
    }

    /// Start time of slot `idx`.
    pub fn slot_start(&self, idx: SlotIndex) -> SimTime {
        self.origin + self.delta * idx
    }

    /// Eq. 6 — `g(τ) = inf { s ∈ S | s ≤ τ }`: the latest slot start at
    /// or before `τ`.
    pub fn g(&self, t: SimTime) -> SimTime {
        self.slot_start(self.slot_index(t))
    }

    /// Index of the first slot whose start is strictly after `t`.
    pub fn next_slot_after(&self, t: SimTime) -> SlotIndex {
        self.slot_index(t) + 1
    }

    /// Eq. 7 contribution — `|τ − g(τ)|` for one invocation.
    pub fn misalignment(&self, t: SimTime) -> SimDuration {
        t.saturating_since(self.g(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn index_and_start_roundtrip() {
        let track = SlotTrack::new(ms(1));
        for idx in [0u64, 1, 7, 1000] {
            assert_eq!(track.slot_index(track.slot_start(idx)), idx);
        }
    }

    #[test]
    fn g_is_latest_slot_at_or_before() {
        let track = SlotTrack::new(ms(1));
        assert_eq!(track.g(at_ms(0)), at_ms(0));
        assert_eq!(track.g(SimTime::from_micros(999)), at_ms(0));
        assert_eq!(track.g(at_ms(1)), at_ms(1));
        assert_eq!(track.g(SimTime::from_micros(2500)), at_ms(2));
    }

    #[test]
    fn g_never_exceeds_argument() {
        let track = SlotTrack::new(SimDuration::from_micros(700));
        for k in 0..5000u64 {
            let t = SimTime::from_micros(k * 13);
            assert!(track.g(t) <= t);
            assert!(t.saturating_since(track.g(t)) < track.delta());
        }
    }

    #[test]
    fn next_slot_after_is_strictly_later() {
        let track = SlotTrack::new(ms(1));
        assert_eq!(track.next_slot_after(at_ms(0)), 1);
        assert_eq!(track.next_slot_after(SimTime::from_micros(1700)), 2);
    }

    #[test]
    fn origin_offsets_track() {
        let track = SlotTrack::with_origin(ms(1), at_ms(5));
        assert_eq!(track.slot_start(0), at_ms(5));
        assert_eq!(track.g(at_ms(6)), at_ms(6));
        // Times before the origin clamp to slot 0.
        assert_eq!(track.slot_index(at_ms(1)), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_delta_panics() {
        SlotTrack::new(SimDuration::ZERO);
    }

    #[test]
    fn misalignment_is_the_offset_into_the_slot() {
        let track = SlotTrack::new(ms(2));
        assert_eq!(track.misalignment(at_ms(4)), SimDuration::ZERO);
        assert_eq!(
            track.misalignment(SimTime::from_micros(5300)),
            SimDuration::from_micros(1300)
        );
    }

    #[test]
    fn consecutive_slot_starts_are_delta_apart() {
        let track = SlotTrack::with_origin(SimDuration::from_micros(750), at_ms(3));
        for idx in 0..100u64 {
            assert_eq!(
                track.slot_start(idx + 1) - track.slot_start(idx),
                track.delta()
            );
        }
    }

    #[test]
    fn g_is_idempotent_and_monotone() {
        let track = SlotTrack::new(SimDuration::from_micros(300));
        let mut prev = SimTime::ZERO;
        for k in 0..3000u64 {
            let t = SimTime::from_micros(k * 7);
            assert_eq!(track.g(track.g(t)), track.g(t));
            assert!(track.g(t) >= prev);
            prev = track.g(t);
        }
    }

    #[test]
    fn next_slot_starts_after_the_argument() {
        let track = SlotTrack::new(SimDuration::from_micros(900));
        for k in 0..2000u64 {
            let t = SimTime::from_micros(k * 11);
            let next = track.slot_start(track.next_slot_after(t));
            assert!(next > t);
            assert!(next.saturating_since(t) <= track.delta());
        }
    }
}
