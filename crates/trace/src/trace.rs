//! The [`Trace`] container: an ordered sequence of production instants
//! for one producer, with the manipulations the evaluation needs.
//!
//! §VI-A: "The producers use the web server log data set … with different
//! phase shifts, namely, each consumer is shifted one *M*th further into
//! the dataset" — [`Trace::phase_shift`] implements exactly that
//! rotation.

use pc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// An ordered sequence of item production times υ₁ ≤ υ₂ ≤ … for one
/// producer over a finite horizon.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    times: Vec<SimTime>,
    horizon: SimTime,
}

impl Trace {
    /// Wraps sorted timestamps into a trace over `[0, horizon)`.
    ///
    /// Panics if the times are unsorted or reach past the horizon.
    pub fn new(times: Vec<SimTime>, horizon: SimTime) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times must be sorted"
        );
        if let Some(&last) = times.last() {
            assert!(last < horizon, "trace extends past its horizon");
        }
        Trace { times, horizon }
    }

    /// The production timestamps.
    #[inline]
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// The `idx`-th production timestamp, if any: a bounds-checked load
    /// with no slice round-trip or cloning.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<SimTime> {
        self.times.get(idx).copied()
    }

    /// Consumes the trace, returning its timestamps without cloning.
    pub fn into_times(self) -> Vec<SimTime> {
        self.times
    }

    /// Number of items produced.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The horizon (run length) of the trace.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Mean production rate over the horizon, items/second.
    pub fn mean_rate(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            return 0.0;
        }
        self.times.len() as f64 / self.horizon.as_secs_f64()
    }

    /// Rotates the trace `fraction` of the way into itself: items before
    /// the cut wrap to the end, preserving the inter-arrival structure
    /// while decorrelating phases across consumers (§VI-A's "shifted one
    /// Mth further into the dataset").
    pub fn phase_shift(&self, fraction: f64) -> Trace {
        if self.times.is_empty() {
            return self.clone();
        }
        let fraction = fraction.rem_euclid(1.0);
        let cut = SimDuration::from_secs_f64(self.horizon.as_secs_f64() * fraction);
        let cut_time = SimTime::ZERO + cut;
        let split = self.times.partition_point(|&t| t < cut_time);
        let mut shifted: Vec<SimTime> = Vec::with_capacity(self.times.len());
        // Items at/after the cut move left by `cut`.
        shifted.extend(self.times[split..].iter().map(|&t| t - cut));
        // Items before the cut wrap around: + (horizon − cut).
        let wrap = self.horizon.saturating_since(cut_time);
        shifted.extend(self.times[..split].iter().map(|&t| t + wrap));
        Trace::new(shifted, self.horizon)
    }

    /// Number of items produced in `[from, to)` — the paper's γ (Eq. 1)
    /// restricted to this producer.
    pub fn count_between(&self, from: SimTime, to: SimTime) -> usize {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        hi - lo
    }

    /// Iterator over inter-arrival gaps.
    #[cfg(test)]
    pub(crate) fn interarrivals(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.times.windows(2).map(|w| w[1] - w[0])
    }

    /// Truncates the trace to a shorter horizon.
    pub fn truncate(&self, horizon: SimTime) -> Trace {
        let n = self.times.partition_point(|&t| t < horizon);
        Trace {
            times: self.times[..n].to_vec(),
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_trace() -> Trace {
        Trace::new(vec![t(100), t(200), t(250), t(700), t(900)], t(1000))
    }

    #[test]
    fn basic_accessors() {
        let tr = sample_trace();
        assert_eq!(tr.len(), 5);
        assert!(!tr.is_empty());
        assert_eq!(tr.horizon(), t(1000));
        assert!((tr.mean_rate() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_rejected() {
        Trace::new(vec![t(5), t(3)], t(10));
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn past_horizon_rejected() {
        Trace::new(vec![t(5)], t(5));
    }

    #[test]
    fn count_between_is_gamma() {
        let tr = sample_trace();
        assert_eq!(tr.count_between(t(0), t(1000)), 5);
        assert_eq!(tr.count_between(t(100), t(250)), 2); // 100, 200
        assert_eq!(tr.count_between(t(250), t(250)), 0);
        assert_eq!(tr.count_between(t(901), t(1000)), 0);
    }

    #[test]
    fn phase_shift_preserves_count_and_horizon() {
        let tr = sample_trace();
        for f in [0.0, 0.1, 0.25, 0.5, 0.9] {
            let shifted = tr.phase_shift(f);
            assert_eq!(shifted.len(), tr.len(), "fraction {f}");
            assert_eq!(shifted.horizon(), tr.horizon());
            assert!(shifted.times().windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn phase_shift_half_rotates() {
        let tr = sample_trace();
        let shifted = tr.phase_shift(0.5);
        // Items ≥ 500ms (700, 900) move to 200, 400; items < 500ms wrap
        // to 600, 700, 750.
        assert_eq!(shifted.times(), &[t(200), t(400), t(600), t(700), t(750)]);
    }

    #[test]
    fn phase_shift_zero_is_identity() {
        let tr = sample_trace();
        assert_eq!(tr.phase_shift(0.0), tr);
        assert_eq!(tr.phase_shift(1.0), tr, "full rotation wraps to identity");
    }

    #[test]
    fn phase_shift_empty_trace() {
        let tr = Trace::new(vec![], t(100));
        assert_eq!(tr.phase_shift(0.3).len(), 0);
    }

    #[test]
    fn truncate_shortens() {
        let tr = sample_trace();
        let short = tr.truncate(t(300));
        assert_eq!(short.len(), 3);
        assert_eq!(short.horizon(), t(300));
    }

    #[test]
    fn interarrivals_gaps() {
        let tr = sample_trace();
        let gaps: Vec<_> = tr.interarrivals().collect();
        assert_eq!(gaps[0], SimDuration::from_millis(100));
        assert_eq!(gaps[1], SimDuration::from_millis(50));
        assert_eq!(gaps.len(), 4);
    }

    #[test]
    fn mean_rate_empty_horizon() {
        let tr = Trace::new(vec![], SimTime::ZERO);
        assert_eq!(tr.mean_rate(), 0.0);
    }

    #[test]
    fn get_matches_times() {
        let tr = sample_trace();
        for (i, &at) in tr.times().iter().enumerate() {
            assert_eq!(tr.get(i), Some(at));
        }
        assert_eq!(tr.get(tr.len()), None);
    }

    #[test]
    fn into_times_returns_every_timestamp() {
        let tr = sample_trace();
        let expected = tr.times().to_vec();
        assert_eq!(tr.into_times(), expected);
    }

    #[test]
    fn negative_fraction_wraps_like_its_complement() {
        let tr = sample_trace();
        assert_eq!(tr.phase_shift(-0.5), tr.phase_shift(0.5));
        assert_eq!(tr.phase_shift(1.25), tr.phase_shift(0.25));
    }

    #[test]
    fn phase_shifts_compose() {
        let tr = sample_trace();
        let quarter = tr.phase_shift(0.25);
        assert_eq!(quarter.times(), &[t(0), t(450), t(650), t(850), t(950)]);
        assert_eq!(quarter.phase_shift(0.25), tr.phase_shift(0.5));
    }

    #[test]
    fn truncate_past_the_horizon_keeps_every_item() {
        let tr = sample_trace();
        let long = tr.truncate(t(2000));
        assert_eq!(long.times(), tr.times());
        assert_eq!(long.horizon(), t(2000));
        assert!((long.mean_rate() - 2.5).abs() < 1e-9);
    }
}
