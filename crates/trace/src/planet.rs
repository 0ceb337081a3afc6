//! Planet-scale multi-pair workload for the large-M scaling experiments.
//!
//! The paper's evaluation stops at M = 5 producer-consumer pairs; the
//! scaling study (DESIGN.md §11) pushes the coordination layer to
//! M = 100 and M = 1000. A hundred identical copies of the World-Cup
//! trace would be an unrealistically homogeneous load, so this module
//! synthesises a *fleet* of per-pair traces with the structure of a
//! geo-distributed service:
//!
//! 1. **Heterogeneous per-pair rates** — service instances never see
//!    equal load. Pair *i* gets a deterministic weight from a
//!    golden-ratio hash, mapped onto a log-uniform spread
//!    `[1, rate_spread]` and normalised so the *expected* per-pair mean
//!    stays [`PlanetConfig::mean_rate`] regardless of the spread.
//! 2. **Desynchronised diurnal baselines** — time zones: pair *i*'s
//!    diurnal sinusoid is phase-shifted by `i / pairs` of the horizon,
//!    so the fleet-wide load is much flatter than any single pair's.
//! 3. **Flash-crowd pairs** — every [`PlanetConfig::flash_every`]-th
//!    pair carries flash-crowd bursts (kick-offs, breaking news); the
//!    rest see only baseline + short-range burstiness. Spikes are rare
//!    but violent, exactly the case that stresses the elastic pool's
//!    rebalancing.
//!
//! Generation is deterministic per `(config, seed, pairs)`: each pair
//! derives its own sub-seed with a SplitMix64 finaliser, so traces are
//! independent of each other and of the pair count of *other* runs.
//! That independence is what lets [`PlanetConfig::traces`] generate the
//! pairs on every available core and still return the same fleet, bit
//! for bit, as a one-pair-at-a-time loop.

use crate::trace::Trace;
use crate::worldcup::WorldCupConfig;
use pc_sim::{SimDuration, SimTime};

/// Configuration of the planet-scale fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetConfig {
    /// Per-pair trace template: horizon, diurnal shape, modulation and
    /// clustering. Its `mean_rate` and `bursts` fields are overridden
    /// per pair.
    pub base: WorldCupConfig,
    /// Expected per-pair mean arrival rate (items/second).
    pub mean_rate: f64,
    /// Heaviest-to-lightest pair rate ratio (log-uniform; ≥ 1, where 1
    /// means a homogeneous fleet).
    pub rate_spread: f64,
    /// Every `flash_every`-th pair (0, k, 2k, …) is a flash-crowd pair;
    /// `usize::MAX` disables flash crowds entirely.
    pub flash_every: usize,
    /// Flash-crowd burst count for flash pairs over the horizon.
    pub flash_bursts: usize,
    /// Flash-crowd peak multiplier over the pair's baseline.
    pub flash_amplitude: f64,
}

impl PlanetConfig {
    /// The calibration used by the `scale` suite: a 10-second horizon,
    /// ~900 items/s per pair with a 6× rate spread, and one pair in
    /// five carrying 3 violent flash crowds. At M = 1000 this is
    /// ~9 M items per replicate — large enough to stress the per-core
    /// reservation books and the pool, small enough to sweep in CI.
    pub fn scale_default() -> Self {
        let base = WorldCupConfig {
            horizon: SimTime::from_secs(10),
            diurnal_swing: 4.0,
            diurnal_cycles: 1.0,
            bursts: 0,
            burst_amplitude: 4.0,
            burst_decay: SimDuration::from_millis(250),
            cluster_size_mean: 8.0,
            ..WorldCupConfig::paper_default()
        };
        PlanetConfig {
            base,
            mean_rate: 900.0,
            rate_spread: 6.0,
            flash_every: 5,
            flash_bursts: 3,
            flash_amplitude: 4.0,
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn quick_test() -> Self {
        PlanetConfig {
            base: WorldCupConfig::quick_test(),
            mean_rate: 3_000.0,
            rate_spread: 4.0,
            flash_every: 3,
            flash_bursts: 2,
            flash_amplitude: 3.0,
        }
    }

    /// Deterministic weight of pair `i` in `[0, 1)` (golden-ratio hash —
    /// low-discrepancy, so small fleets already cover the spread).
    fn weight(i: usize) -> f64 {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = splitmix64((i as u64).wrapping_mul(GOLDEN));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Mean rate of pair `i`: log-uniform over `[r/√spread·c, r·√spread·c]`
    /// with the normaliser `c = ln(spread)/(spread − 1) · √spread` chosen
    /// so the expectation over uniform weights is exactly `mean_rate`.
    pub(crate) fn pair_rate(&self, i: usize) -> f64 {
        assert!(self.rate_spread >= 1.0, "rate spread must be ≥ 1");
        if self.rate_spread == 1.0 {
            return self.mean_rate;
        }
        let s = self.rate_spread;
        // E[s^u] over u ~ U[0,1) is (s − 1)/ln s; divide it back out.
        let norm = s.ln() / (s - 1.0);
        self.mean_rate * s.powf(Self::weight(i)) * norm
    }

    /// Whether pair `i` carries flash-crowd bursts.
    pub(crate) fn is_flash_pair(&self, i: usize) -> bool {
        self.flash_every != usize::MAX && i.is_multiple_of(self.flash_every.max(1))
    }

    /// Generates the per-pair trace fleet for `seed`, one worker per
    /// available core. The same `(config, seed, pairs)` always produces
    /// the identical fleet, whatever the core count, and pair `i`'s trace
    /// does not depend on `pairs` beyond its phase shift.
    pub fn traces(&self, seed: u64, pairs: usize) -> Vec<Trace> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.traces_on(seed, pairs, cores)
    }

    /// [`Self::traces`] on `workers` threads (clamped to `1..=pairs`):
    /// each takes a contiguous run of pairs, the calling thread the
    /// first. Workers return the unshifted traces and the calling thread
    /// applies the phase shifts in pair order, so the fleet's final
    /// buffers are allocated on the caller's thread, as in a serial loop.
    pub(crate) fn traces_on(&self, seed: u64, pairs: usize, workers: usize) -> Vec<Trace> {
        let workers = workers.clamp(1, pairs.max(1));
        let generate = |w: usize| -> Vec<Trace> {
            (w * pairs / workers..(w + 1) * pairs / workers)
                .map(|i| self.unshifted_pair_trace(seed, i))
                .collect()
        };
        let chunks: Vec<Vec<Trace>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || generate(w)))
                .collect();
            std::iter::once(generate(0))
                .chain(
                    spawned
                        .into_iter()
                        .map(|h| h.join().expect("fleet generation worker panicked")),
                )
                .collect()
        });
        chunks
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(i, trace)| Self::time_zone(trace, i, pairs))
            .collect()
    }

    /// Generates pair `i`'s trace alone: the serial reference
    /// [`Self::traces`] must match, and a probe of single pairs out of
    /// a large fleet.
    #[cfg(test)]
    pub(crate) fn pair_trace(&self, seed: u64, i: usize, pairs: usize) -> Trace {
        Self::time_zone(self.unshifted_pair_trace(seed, i), i, pairs)
    }

    /// Pair `i`'s trace before its time-zone rotation: a function of
    /// `(config, seed, i)` alone.
    fn unshifted_pair_trace(&self, seed: u64, i: usize) -> Trace {
        let mut cfg = self.base.clone();
        cfg.mean_rate = self.pair_rate(i);
        if self.is_flash_pair(i) {
            cfg.bursts = self.flash_bursts;
            cfg.burst_amplitude = self.flash_amplitude;
        } else {
            cfg.bursts = 0;
        }
        let sub_seed = splitmix64(seed ^ splitmix64(0x9D2C_5680_i64 as u64 ^ i as u64));
        cfg.generate(sub_seed)
    }

    /// Time zones: rotates pair `i`'s diurnal phase `i / pairs` of the
    /// way around the clock.
    fn time_zone(trace: Trace, i: usize, pairs: usize) -> Trace {
        trace.phase_shift(i as f64 / pairs.max(1) as f64)
    }
}

/// SplitMix64 finaliser: a bijective avalanche mix, the standard way to
/// derive independent sub-seeds from `(seed, index)`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_pair() {
        let cfg = PlanetConfig::quick_test();
        assert_eq!(cfg.traces(42, 4), cfg.traces(42, 4));
        assert_ne!(cfg.traces(1, 4), cfg.traces(2, 4));
    }

    #[test]
    fn pair_traces_do_not_depend_on_fleet_size_except_phase() {
        let cfg = PlanetConfig::quick_test();
        // Same pair index, same fleet size → identical; the phase shift
        // is the only pairs-dependent input.
        assert_eq!(cfg.pair_trace(7, 2, 8), cfg.pair_trace(7, 2, 8));
    }

    #[test]
    fn rates_are_heterogeneous_but_calibrated() {
        let cfg = PlanetConfig::quick_test();
        let rates: Vec<f64> = (0..64).map(|i| cfg.pair_rate(i)).collect();
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 2.0 * min,
            "fleet should be heterogeneous: min {min}, max {max}"
        );
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (mean - cfg.mean_rate).abs() < 0.2 * cfg.mean_rate,
            "fleet mean {mean} vs target {}",
            cfg.mean_rate
        );
    }

    #[test]
    fn spread_of_one_is_homogeneous() {
        let cfg = PlanetConfig {
            rate_spread: 1.0,
            ..PlanetConfig::quick_test()
        };
        assert!((0..16).all(|i| cfg.pair_rate(i) == cfg.mean_rate));
    }

    #[test]
    fn flash_pairs_follow_stride() {
        let cfg = PlanetConfig::quick_test();
        assert!(cfg.is_flash_pair(0));
        assert!(!cfg.is_flash_pair(1));
        assert!(cfg.is_flash_pair(cfg.flash_every));
        let off = PlanetConfig {
            flash_every: usize::MAX,
            ..cfg
        };
        assert!((0..8).all(|i| !off.is_flash_pair(i)));
    }

    #[test]
    fn fleet_traces_are_nonempty_and_within_horizon() {
        let cfg = PlanetConfig::quick_test();
        let fleet = cfg.traces(11, 6);
        assert_eq!(fleet.len(), 6);
        for t in &fleet {
            assert!(!t.is_empty());
            assert!(t.times().iter().all(|&at| at < cfg.base.horizon));
        }
    }

    #[test]
    fn pair_rates_stay_inside_the_spread() {
        let cfg = PlanetConfig::quick_test();
        let s = cfg.rate_spread;
        let norm = s.ln() / (s - 1.0);
        let (lo, hi) = (cfg.mean_rate * norm, cfg.mean_rate * s * norm);
        for i in 0..256 {
            let r = cfg.pair_rate(i);
            assert!(r >= lo && r < hi, "pair {i}: {r} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn fleet_size_only_rotates_a_pair_trace() {
        let cfg = PlanetConfig::quick_test();
        let small = cfg.pair_trace(7, 2, 4);
        let large = cfg.pair_trace(7, 2, 8);
        assert_eq!(small.len(), large.len());
        assert_eq!(small.horizon(), large.horizon());
        assert_eq!(cfg.traces(7, 4)[2], small);
    }

    #[test]
    fn zero_flash_stride_makes_every_pair_a_flash_pair() {
        let cfg = PlanetConfig {
            flash_every: 0,
            ..PlanetConfig::quick_test()
        };
        assert!((0..8).all(|i| cfg.is_flash_pair(i)));
    }

    /// FNV-1a over every pair's length and timestamps, in pair order.
    fn fleet_digest(fleet: &[Trace]) -> u64 {
        let words = fleet.iter().flat_map(|trace| {
            std::iter::once(trace.len() as u64).chain(trace.times().iter().map(|t| t.as_nanos()))
        });
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn scale_fleet_digest_is_pinned() {
        // Taken from the serial generator this parallel one replaced.
        let fleet = PlanetConfig::scale_default().traces(1, 100);
        let arrivals: usize = fleet.iter().map(Trace::len).sum();
        assert_eq!(
            (arrivals, fleet_digest(&fleet)),
            (927_106, 0xa204_a52a_a2c1_0734)
        );
    }

    #[test]
    fn any_worker_count_yields_the_serial_fleet() {
        let cfg = PlanetConfig::quick_test();
        for pairs in [0, 1, 2, 3, 7, 64] {
            let serial: Vec<Trace> = (0..pairs).map(|i| cfg.pair_trace(5, i, pairs)).collect();
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    cfg.traces_on(5, pairs, workers),
                    serial,
                    "{pairs} pairs on {workers} workers"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate spread")]
    fn spread_below_one_panics() {
        let cfg = PlanetConfig {
            rate_spread: 0.5,
            ..PlanetConfig::quick_test()
        };
        cfg.pair_rate(0);
    }
}
