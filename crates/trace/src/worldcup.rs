//! A synthetic stand-in for the 1998 World Cup web-access log.
//!
//! The paper drives all experiments with request timestamps from the
//! WC'98 site log \[Arlitt & Jin\], chosen because it "exhibits sporadic
//! changes in the rate of production of items" (§III-B). The log itself
//! is ~1.3 billion requests of archived HTTP traffic and is not bundled
//! here; instead we synthesise a trace with the same qualitative
//! structure, well documented in the web-traffic literature for this very
//! dataset:
//!
//! 1. **A slow diurnal baseline** — load swings over the day; compressed
//!    here into the experiment horizon as a low-frequency sinusoid.
//! 2. **Flash crowds** — match kick-offs produced sharp multi-x surges;
//!    modelled as randomly placed bursts with fast exponential decay.
//! 3. **Short-range burstiness** — modelled by modulating the rate with
//!    a small Markov chain (MMPP-style multipliers).
//! 4. **Request clusters** — a web page load issues one request per
//!    embedded object, so server-side arrivals come in tight trains of
//!    ~tens of requests separated by microseconds. This structure is
//!    load-bearing for the paper's results: it is why a blocking
//!    (Mutex/Sem) consumer wakes once per *cluster* rather than once per
//!    item, putting its wakeup count in the same regime as batch
//!    processing (Fig. 9 shows Mutex only slightly above BP).
//!
//! Cluster *starts* are drawn from the time-varying intensity λ(t) by
//! thinning (Lewis & Shedler) — a true non-homogeneous Poisson process —
//! and each start is expanded into a geometrically-sized train. Output is
//! deterministic per seed.

use crate::trace::Trace;
use pc_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic World-Cup-like workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldCupConfig {
    /// Run length of the trace.
    pub horizon: SimTime,
    /// Long-run mean arrival rate (items/second).
    pub mean_rate: f64,
    /// Peak-to-trough ratio of the diurnal baseline (≥ 1).
    pub diurnal_swing: f64,
    /// Number of diurnal cycles across the horizon.
    pub diurnal_cycles: f64,
    /// Expected number of flash-crowd bursts over the horizon.
    pub bursts: usize,
    /// Burst peak multiplier over the baseline.
    pub burst_amplitude: f64,
    /// Mean burst decay time constant.
    pub burst_decay: SimDuration,
    /// MMPP modulation states as `(multiplier, mean sojourn)`.
    pub modulation: Vec<(f64, SimDuration)>,
    /// Mean number of requests per cluster (geometric; 1.0 disables
    /// clustering). `mean_rate` counts *items*, not clusters.
    pub cluster_size_mean: f64,
    /// Mean gap between consecutive requests inside a cluster
    /// (exponential).
    pub cluster_gap: SimDuration,
}

impl WorldCupConfig {
    /// The calibration used by the paper-reproduction experiments:
    /// 50-second horizon, ~8 000 items/s mean with bursts reaching
    /// several times that — rates at which the paper's buffer sizes
    /// (25–100) fill in fractions of a millisecond to a few milliseconds.
    pub fn paper_default() -> Self {
        WorldCupConfig {
            horizon: SimTime::from_secs(50),
            mean_rate: 1_860.0,
            diurnal_swing: 6.0,
            diurnal_cycles: 1.5,
            bursts: 12,
            burst_amplitude: 2.5,
            burst_decay: SimDuration::from_millis(600),
            modulation: vec![
                (0.5, SimDuration::from_millis(400)),
                (1.0, SimDuration::from_millis(300)),
                (1.7, SimDuration::from_millis(150)),
            ],
            cluster_size_mean: 12.0,
            cluster_gap: SimDuration::from_micros(4),
        }
    }

    /// A small, fast configuration for unit tests and doc examples:
    /// 100 ms horizon at a few thousand items/s.
    pub fn quick_test() -> Self {
        WorldCupConfig {
            horizon: SimTime::from_millis(100),
            mean_rate: 5_000.0,
            diurnal_swing: 2.0,
            diurnal_cycles: 1.0,
            bursts: 2,
            burst_amplitude: 3.0,
            burst_decay: SimDuration::from_millis(10),
            modulation: vec![
                (0.6, SimDuration::from_millis(5)),
                (1.6, SimDuration::from_millis(3)),
            ],
            cluster_size_mean: 5.0,
            cluster_gap: SimDuration::from_micros(4),
        }
    }

    /// Generates the trace for `seed`. The same `(config, seed)` always
    /// produces the identical trace.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.mean_rate > 0.0, "mean rate must be positive");
        assert!(self.diurnal_swing >= 1.0, "diurnal swing must be ≥ 1");
        assert!(self.cluster_size_mean >= 1.0, "cluster mean must be ≥ 1");
        let mut rng = SimRng::new(seed ^ 0x57C0_97D8_43A1_11E5);
        let horizon_s = self.horizon.as_secs_f64();
        // λ(t) below drives cluster *starts*; scale the target rate down
        // so the expected item count still matches `mean_rate`.
        let cluster_rate = self.mean_rate / self.cluster_size_mean;

        // Place the flash crowds.
        let bursts: Vec<(f64, f64)> = (0..self.bursts)
            .map(|_| {
                let at = rng.uniform(0.0, horizon_s);
                let amp = self.burst_amplitude * rng.uniform(0.5, 1.5);
                (at, amp)
            })
            .collect();
        let decay_s = self.burst_decay.as_secs_f64().max(1e-6);

        // Pre-draw the MMPP modulation timeline.
        let modulation = self.modulation_timeline(&mut rng, horizon_s);

        // The deterministic intensity shape, before normalisation.
        let shape = |t: f64, modulation_factor: f64| -> f64 {
            let phase = 2.0 * std::f64::consts::PI * self.diurnal_cycles * t / horizon_s;
            // Oscillates between 1 and `diurnal_swing`.
            let diurnal = 1.0 + (self.diurnal_swing - 1.0) * 0.5 * (1.0 + phase.sin());
            let mut burst_factor = 1.0;
            for &(at, amp) in &bursts {
                if t >= at {
                    burst_factor += amp * (-(t - at) / decay_s).exp();
                }
            }
            diurnal * burst_factor * modulation_factor
        };

        // One pass over a fine grid yields both the normalisation
        // integral (so the expected count matches mean_rate · horizon)
        // and the running maximum for the thinning majorant.
        let grid = 4096;
        let mut integral = 0.0;
        let mut shape_max: f64 = 0.0;
        for k in 0..grid {
            let t = (k as f64 + 0.5) / grid as f64 * horizon_s;
            let v = shape(t, modulation_at(&modulation, t));
            integral += v * horizon_s / grid as f64;
            shape_max = shape_max.max(v);
        }
        // The majorant must also cover the exact burst-onset instants and
        // modulation switch points (true peaks a fixed grid can straddle),
        // plus headroom for residual discretisation error.
        for &(at, _) in &bursts {
            if at < horizon_s {
                shape_max = shape_max.max(shape(at, modulation_at(&modulation, at)));
            }
        }
        for &(at, _) in &modulation {
            if at < horizon_s {
                shape_max = shape_max.max(shape(at, modulation_at(&modulation, at)));
            }
        }
        let scale = cluster_rate * horizon_s / integral;
        let lambda_max = shape_max * scale * 1.10;

        // Thinning algorithm over cluster starts; each accepted start is
        // expanded into a geometric train of requests.
        let mut times = Vec::with_capacity((self.mean_rate * horizon_s) as usize);
        let gap_s = self.cluster_gap.as_secs_f64().max(1e-9);
        let mut t = 0.0;
        while t < horizon_s {
            t += rng.exponential(lambda_max);
            if t >= horizon_s {
                break;
            }
            let lambda = shape(t, modulation_at(&modulation, t)) * scale;
            if rng.next_f64() < lambda / lambda_max {
                // Cluster size uniform in [0.5, 1.5]·mean: web page loads
                // have a characteristic object count; a bounded spread
                // keeps the tail from dwarfing any sanely-sized buffer.
                let size = if self.cluster_size_mean <= 1.0 {
                    1
                } else {
                    let lo = (self.cluster_size_mean * 0.5).max(1.0);
                    let hi = self.cluster_size_mean * 1.5;
                    rng.uniform(lo, hi + 1.0).floor().max(1.0) as u64
                };
                let mut at = t;
                for k in 0..size {
                    if k > 0 {
                        at += rng.exponential(1.0 / gap_s);
                    }
                    if at >= horizon_s {
                        break;
                    }
                    times.push(SimTime::from_nanos((at * 1e9) as u64));
                }
            }
        }
        // Cluster trains from nearby starts can interleave; restore order.
        // Nanosecond collisions are kept — simultaneous items are valid.
        times.sort_unstable();
        Trace::new(times, self.horizon)
    }

    /// Draws the MMPP state timeline: `(switch_time_s, multiplier)`,
    /// sorted by time.
    fn modulation_timeline(&self, rng: &mut SimRng, horizon_s: f64) -> Vec<(f64, f64)> {
        if self.modulation.is_empty() {
            return vec![(0.0, 1.0)];
        }
        let mut timeline = Vec::new();
        let mut t = 0.0;
        let mut state = 0usize;
        while t < horizon_s {
            timeline.push((t, self.modulation[state].0));
            let sojourn = self.modulation[state].1.as_secs_f64().max(1e-6);
            t += rng.exponential(1.0 / sojourn);
            if self.modulation.len() > 1 {
                let mut next = rng.next_below(self.modulation.len() as u64 - 1) as usize;
                if next >= state {
                    next += 1;
                }
                state = next;
            }
        }
        timeline
    }
}

fn modulation_at(timeline: &[(f64, f64)], t: f64) -> f64 {
    match timeline.binary_search_by(|probe| {
        probe
            .0
            .partial_cmp(&t)
            .expect("modulation times are finite")
    }) {
        Ok(i) => timeline[i].1,
        Err(0) => timeline.first().map(|s| s.1).unwrap_or(1.0),
        Err(i) => timeline[i - 1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items/second in each consecutive `window` up to the horizon.
    fn window_rates(trace: &Trace, window: SimDuration) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut start = SimTime::ZERO;
        while start < trace.horizon() {
            let end = start.saturating_add(window).min(trace.horizon());
            rates.push(trace.count_between(start, end) as f64 / end.since(start).as_secs_f64());
            start = end;
        }
        rates
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorldCupConfig::quick_test();
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorldCupConfig::quick_test();
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn mean_rate_is_calibrated() {
        // Use a second-long horizon so cluster-count noise averages out.
        let cfg = WorldCupConfig {
            horizon: SimTime::from_secs(2),
            ..WorldCupConfig::quick_test()
        };
        let trace = cfg.generate(7);
        let rate = trace.mean_rate();
        assert!(
            (rate - cfg.mean_rate).abs() < cfg.mean_rate * 0.25,
            "rate {rate} vs target {}",
            cfg.mean_rate
        );
    }

    #[test]
    fn clustering_produces_tight_trains() {
        let cfg = WorldCupConfig {
            horizon: SimTime::from_secs(1),
            ..WorldCupConfig::quick_test()
        };
        let trace = cfg.generate(21);
        // With mean cluster size 5 and 4us internal gaps, a large share
        // of inter-arrivals must be sub-20us even though the mean gap is
        // ~200us.
        let tight = trace
            .interarrivals()
            .filter(|g| *g < SimDuration::from_micros(20))
            .count();
        assert!(
            tight as f64 > 0.5 * trace.len() as f64,
            "tight gaps {tight} of {}",
            trace.len()
        );
    }

    #[test]
    fn cluster_mean_of_one_disables_clustering() {
        let cfg = WorldCupConfig {
            cluster_size_mean: 1.0,
            horizon: SimTime::from_secs(1),
            ..WorldCupConfig::quick_test()
        };
        let trace = cfg.generate(23);
        let tight = trace
            .interarrivals()
            .filter(|g| *g < SimDuration::from_micros(20))
            .count();
        assert!(
            (tight as f64) < 0.35 * trace.len() as f64,
            "unclustered trace should rarely have tight gaps: {tight} of {}",
            trace.len()
        );
    }

    #[test]
    fn times_sorted_strict_and_within_horizon() {
        let cfg = WorldCupConfig::quick_test();
        let trace = cfg.generate(11);
        assert!(trace.times().windows(2).all(|w| w[0] < w[1]));
        assert!(trace.times().iter().all(|&t| t < cfg.horizon));
    }

    #[test]
    fn rate_is_sporadic_not_constant() {
        // The property the paper uses the dataset for: windowed rates
        // must swing substantially.
        let cfg = WorldCupConfig::quick_test();
        let trace = cfg.generate(13);
        let rates = window_rates(&trace, SimDuration::from_millis(10));
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 2.0 * min.max(1.0),
            "windowed rates should swing: min {min}, max {max}"
        );
    }

    #[test]
    fn paper_default_scale() {
        let cfg = WorldCupConfig::paper_default();
        // Generating 50s at 8k/s is ~400k items; keep the test fast by
        // truncating the config horizon.
        let short = WorldCupConfig {
            horizon: SimTime::from_secs(2),
            ..cfg
        };
        let trace = short.generate(3);
        let rate = trace.mean_rate();
        assert!(rate > 600.0 && rate < 5_000.0, "rate {rate}");
    }

    #[test]
    fn empty_modulation_falls_back_to_unity() {
        let cfg = WorldCupConfig {
            modulation: vec![],
            ..WorldCupConfig::quick_test()
        };
        let trace = cfg.generate(5);
        assert!(!trace.is_empty());
    }
}
