//! Per-run metric collection — every quantity §VI-B lists, plus latency.
//!
//! * Power (mW over baseline) and wakeups/s come from `pc-power`.
//! * *Upper-bound wakeups* — "the number of wakeups we estimate
//!   internally in the batch processing based implementations": here the
//!   per-pair split into scheduled / overflow / item-triggered
//!   invocations.
//! * *Average buffer size* — mean allocated capacity, sampled at every
//!   invocation (visible dynamic-resizing effect).
//! * *Number of buffer overflows.*

use crate::model::PairId;
use pc_power::{EnergyReport, MeterSample};
use pc_sim::core::CoreReport;
use pc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Counters for one producer-consumer pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairMetrics {
    /// Which pair.
    pub pair: PairId,
    /// Items the producer emitted.
    pub items_produced: u64,
    /// Items the consumer processed.
    pub items_consumed: u64,
    /// Total consumer invocations (the paper's kᵢ).
    pub invocations: u64,
    /// Invocations triggered by a scheduled timer/slot.
    pub scheduled_wakeups: u64,
    /// Invocations forced by a full buffer ("unscheduled wakeups").
    pub overflow_wakeups: u64,
    /// Invocations triggered by item arrival (Mutex/Sem style).
    pub item_wakeups: u64,
    /// Arrivals rejected by the admission controller (DESIGN.md §15).
    /// Always 0 with overload control disabled; shed items still count
    /// into `items_produced`, so conservation over a run is
    /// `items_produced == items_consumed + items_shed`.
    pub items_shed: u64,
    /// Overload windows this pair entered (admission trips, including
    /// supervisor escalations).
    pub overload_windows: u64,
    /// Consumed items whose response latency exceeded the overload
    /// deadline. Only counted while overload control is enabled (the
    /// deadline is undefined otherwise).
    pub deadline_misses: u64,
    /// Sum of item response latencies (production → consumption).
    pub total_latency: SimDuration,
    /// Worst single-item latency.
    pub max_latency: SimDuration,
    /// Σ buffer capacity sampled at each invocation (for the mean).
    pub capacity_sum: u64,
    /// Σ buffer occupancy at each drain (for the mean batch size).
    pub occupancy_sum: u64,
    /// Number of capacity/occupancy samples (= invocations that drained).
    pub samples: u64,
    /// Systematic sample of item latencies (nanoseconds) for percentile
    /// estimates: every k-th latency is kept, with k growing so the
    /// reservoir stays bounded.
    pub latency_sample_ns: Vec<u64>,
    /// Stride counter for the systematic sampler.
    latency_stride: u64,
    /// Items seen since the last kept sample.
    latency_since_kept: u64,
}

/// Upper bound on kept latency samples per pair.
const LATENCY_RESERVOIR: usize = 2048;

impl PairMetrics {
    /// Fresh counters for `pair`.
    pub fn new(pair: PairId) -> Self {
        PairMetrics {
            pair,
            items_produced: 0,
            items_consumed: 0,
            invocations: 0,
            scheduled_wakeups: 0,
            overflow_wakeups: 0,
            item_wakeups: 0,
            items_shed: 0,
            overload_windows: 0,
            deadline_misses: 0,
            total_latency: SimDuration::ZERO,
            max_latency: SimDuration::ZERO,
            capacity_sum: 0,
            occupancy_sum: 0,
            samples: 0,
            latency_sample_ns: Vec::new(),
            latency_stride: 1,
            latency_since_kept: 0,
        }
    }

    /// Records a drained batch: `n` items, buffer capacity at the time,
    /// and the per-item latencies folded in by the caller.
    pub(crate) fn record_drain(&mut self, n: u64, capacity: usize) {
        self.items_consumed += n;
        self.capacity_sum += capacity as u64;
        self.occupancy_sum += n;
        self.samples += 1;
    }

    /// Records one item's response latency.
    pub fn record_latency(&mut self, produced: SimTime, consumed: SimTime) {
        let lat = consumed.saturating_since(produced);
        self.total_latency += lat;
        self.max_latency = self.max_latency.max(lat);
        // Systematic sampling: keep every k-th latency, doubling k (and
        // thinning the reservoir) whenever it fills. Deterministic, so
        // runs stay bit-reproducible.
        self.latency_since_kept += 1;
        if self.latency_since_kept >= self.latency_stride {
            self.latency_since_kept = 0;
            self.latency_sample_ns.push(lat.as_nanos());
            if self.latency_sample_ns.len() >= LATENCY_RESERVOIR {
                // Drop every other sample and double the stride.
                let mut keep = false;
                self.latency_sample_ns.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.latency_stride *= 2;
            }
        }
    }

    /// Mean item latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.items_consumed == 0 {
            SimDuration::ZERO
        } else {
            self.total_latency / self.items_consumed
        }
    }

    /// Mean buffer capacity over invocations ("average buffer size").
    pub fn mean_capacity(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.capacity_sum as f64 / self.samples as f64
        }
    }

    /// Approximate latency percentile (`p` in 0..=100) from the
    /// systematic sample. `None` when no latencies were recorded.
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        if self.latency_sample_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latency_sample_ns.clone();
        sorted.sort_unstable();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(SimDuration::from_nanos(sorted[rank]))
    }

    /// Mean items per drain (batch size).
    pub fn mean_batch(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.samples as f64
        }
    }
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Display name of the strategy (paper figure label).
    pub strategy: String,
    /// Run length.
    pub duration: SimDuration,
    /// Per-pair counters.
    pub pairs: Vec<PairMetrics>,
    /// Finalised per-core activity records.
    pub core_reports: Vec<CoreReport>,
    /// Integrated energy.
    pub energy: EnergyReport,
    /// PowerTop-style aggregate (wakeups/s, usage ms/s).
    pub meter: MeterSample,
    /// Total items consumed across pairs.
    pub items_consumed: u64,
    /// Total items produced across pairs.
    pub items_produced: u64,
    /// Total arrivals shed by the admission controller (0 unless
    /// overload control is enabled; see DESIGN.md §15).
    pub items_shed: u64,
    /// PBPL only: slot deadlines the core managers actually dispatched
    /// (the paper's internally counted "upper bound" on scheduled CPU
    /// wakeups — one fire may serve a whole latch group). Zero for other
    /// strategies.
    pub slot_fires: u64,
    /// Deterministic event-scheduler operation counters (DESIGN.md §13).
    /// A pure function of `(seed, config)` like every other field here;
    /// exported to the `BENCH_*` sidecars so performance PRs can show
    /// op-count changes alongside host-dependent timings.
    pub scheduler: pc_sim::QueueStats,
}

impl RunMetrics {
    /// Core wakeups per second (the paper's primary proxy for power).
    pub fn wakeups_per_sec(&self) -> f64 {
        self.meter.wakeups_per_sec
    }

    /// CPU usage, ms/s (summed over cores, PowerTop-style).
    pub fn usage_ms_per_sec(&self) -> f64 {
        self.meter.usage_ms_per_sec
    }

    /// Extra power over the all-idle baseline, milliwatts.
    pub fn extra_power_mw(&self) -> f64 {
        self.energy.extra_power_mw()
    }

    /// Total scheduled wakeups across pairs (the §VI-C "upper bound").
    pub fn scheduled_wakeups(&self) -> u64 {
        self.pairs.iter().map(|p| p.scheduled_wakeups).sum()
    }

    /// Total buffer-overflow (unscheduled) wakeups across pairs.
    pub fn overflow_wakeups(&self) -> u64 {
        self.pairs.iter().map(|p| p.overflow_wakeups).sum()
    }

    /// Mean buffer capacity across pairs, weighted by samples.
    pub fn mean_capacity(&self) -> f64 {
        let (sum, n) = self.pairs.iter().fold((0u64, 0u64), |(s, n), p| {
            (s + p.capacity_sum, n + p.samples)
        });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Mean item latency across pairs.
    pub fn mean_latency(&self) -> SimDuration {
        let total: SimDuration = self.pairs.iter().map(|p| p.total_latency).sum();
        if self.items_consumed == 0 {
            SimDuration::ZERO
        } else {
            total / self.items_consumed
        }
    }

    /// Approximate latency percentile across all pairs (merged samples).
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        let mut merged: Vec<u64> = self
            .pairs
            .iter()
            .flat_map(|pair| pair.latency_sample_ns.iter().copied())
            .collect();
        if merged.is_empty() {
            return None;
        }
        merged.sort_unstable();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (merged.len() - 1) as f64).round() as usize;
        Some(SimDuration::from_nanos(merged[rank]))
    }

    /// Worst item latency across pairs.
    pub fn max_latency(&self) -> SimDuration {
        self.pairs
            .iter()
            .map(|p| p.max_latency)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total deadline misses across pairs (overload runs only).
    pub fn deadline_misses(&self) -> u64 {
        self.pairs.iter().map(|p| p.deadline_misses).sum()
    }

    /// Sanity check: every produced item was consumed or ledgered as
    /// shed (the run drains buffers at the end; shed is 0 unless
    /// overload control is enabled).
    pub fn all_items_consumed(&self) -> bool {
        self.items_produced == self.items_consumed + self.items_shed
            && self
                .pairs
                .iter()
                .all(|p| p.items_produced == p.items_consumed + p.items_shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_recording_accumulates() {
        let mut m = PairMetrics::new(PairId(0));
        m.record_drain(10, 25);
        m.record_drain(20, 50);
        assert_eq!(m.items_consumed, 30);
        assert_eq!(m.mean_capacity(), 37.5);
        assert_eq!(m.mean_batch(), 15.0);
    }

    #[test]
    fn latency_tracking() {
        let mut m = PairMetrics::new(PairId(0));
        m.record_latency(SimTime::from_micros(10), SimTime::from_micros(40));
        m.record_latency(SimTime::from_micros(20), SimTime::from_micros(30));
        m.items_consumed = 2;
        assert_eq!(m.mean_latency(), SimDuration::from_micros(20));
        assert_eq!(m.max_latency, SimDuration::from_micros(30));
    }

    #[test]
    fn empty_metrics_are_zero_not_nan() {
        let m = PairMetrics::new(PairId(3));
        assert_eq!(m.mean_latency(), SimDuration::ZERO);
        assert_eq!(m.mean_capacity(), 0.0);
        assert_eq!(m.mean_batch(), 0.0);
    }

    #[test]
    fn latency_percentiles_from_reservoir() {
        let mut m = PairMetrics::new(PairId(0));
        for k in 1..=1000u64 {
            m.record_latency(SimTime::ZERO, SimTime::from_micros(k));
        }
        m.items_consumed = 1000;
        let p50 = m.latency_percentile(50.0).unwrap();
        let p99 = m.latency_percentile(99.0).unwrap();
        assert!(
            p50 >= SimDuration::from_micros(400) && p50 <= SimDuration::from_micros(600),
            "p50 {p50}"
        );
        assert!(p99 >= SimDuration::from_micros(950), "p99 {p99}");
        assert!(p99 <= m.max_latency);
    }

    #[test]
    fn reservoir_stays_bounded() {
        let mut m = PairMetrics::new(PairId(0));
        for k in 0..100_000u64 {
            m.record_latency(SimTime::ZERO, SimTime::from_nanos(k));
        }
        assert!(m.latency_sample_ns.len() <= 2048);
        assert!(m.latency_percentile(50.0).is_some());
    }

    #[test]
    fn empty_percentile_is_none() {
        let m = PairMetrics::new(PairId(7));
        assert!(m.latency_percentile(99.0).is_none());
    }

    #[test]
    fn latency_clamps_negative() {
        let mut m = PairMetrics::new(PairId(0));
        // consumed before produced (cannot happen, but must not panic)
        m.record_latency(SimTime::from_micros(50), SimTime::from_micros(40));
        assert_eq!(m.total_latency, SimDuration::ZERO);
    }
}
