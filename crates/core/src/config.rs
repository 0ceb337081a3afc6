//! Strategy and algorithm configuration.

use crate::predict::{Ewma, Holt, Kalman, MovingAverage, RatePredictor};
use pc_sim::{SimDuration, TimerModel};
use serde::{Deserialize, Serialize};

/// Which rate predictor a PBPL consumer runs (§V-C uses the moving
/// average; EWMA and Kalman are our ablations, the latter named by the
/// paper as future work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// h-step moving average (the paper's estimator).
    MovingAverage {
        /// Window length h.
        history: usize,
    },
    /// Exponentially weighted moving average.
    Ewma {
        /// Smoothing factor in (0, 1].
        alpha: f64,
    },
    /// Scalar Kalman filter (process noise `q`, measurement noise `r`).
    Kalman {
        /// Process noise variance.
        q: f64,
        /// Measurement noise variance.
        r: f64,
    },
    /// Holt double-exponential smoothing (level `alpha`, trend `beta`) —
    /// extrapolates ramps instead of lagging them.
    Holt {
        /// Level smoothing factor in (0, 1].
        alpha: f64,
        /// Trend smoothing factor in (0, 1].
        beta: f64,
    },
}

impl PredictorKind {
    /// Instantiates the predictor with a prior rate estimate.
    pub fn build(&self, prior: f64) -> Box<dyn RatePredictor> {
        match *self {
            PredictorKind::MovingAverage { history } => {
                Box::new(MovingAverage::new(history, prior))
            }
            PredictorKind::Ewma { alpha } => Box::new(Ewma::new(alpha, prior)),
            PredictorKind::Kalman { q, r } => Box::new(Kalman::new(q, r, prior)),
            PredictorKind::Holt { alpha, beta } => Box::new(Holt::new(alpha, beta, prior)),
        }
    }
}

/// Graceful-degradation policy for PBPL under injected faults
/// (DESIGN.md §10). Default-off: with `enabled == false` every knob is
/// inert and PBPL behaves bit-identically to the vanilla algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// Master switch; when false the watchdog never observes anything.
    pub enabled: bool,
    /// Consecutive overflow wakeups of one consumer that trip its
    /// prediction-error watchdog into degraded mode.
    pub overflow_threshold: u32,
    /// Multiplier applied to `resize_margin` while degraded (headroom
    /// against the rate the predictor is demonstrably underestimating).
    pub margin_boost: f64,
    /// Consecutive scheduled wakeups required to leave degraded mode.
    pub recovery_wakes: u32,
    /// Bounded retries of a pool-starved grow request before accepting
    /// the current (squeezed) capacity as the new target.
    pub grow_retries: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            enabled: false,
            overflow_threshold: 2,
            margin_boost: 1.75,
            recovery_wakes: 4,
            grow_retries: 3,
        }
    }
}

/// Deadline-aware overload-control policy (DESIGN.md §15): a per-pair
/// admission controller that sheds arrivals once the consumer's
/// measured service lag exceeds the deadline, plus a strategy-agnostic
/// fleet supervisor that kicks stuck pairs and escalates shedding
/// fleet-wide under correlated overload.
///
/// Default-off and inert by construction: with `enabled == false` the
/// simulation allocates no overload state, schedules no supervisor
/// ticks and takes identical branches to a build without the subsystem
/// — `results/suite.json`, `results/chaos.json`, `results/scale.json`
/// and the golden fixtures are byte-identical either way.
///
/// All admission arithmetic is integer nanoseconds/counts, so shed
/// decisions are bit-deterministic per seed. The admission test is
/// *measured*, not estimated: an arrival's service lag is how far `now`
/// trails the pair's service horizon (its consumer's busy spell or its
/// core's, whichever ends later) — an item admitted while the lag
/// already exceeds `deadline` cannot start service inside the deadline,
/// so admitting it only manufactures a guaranteed miss. Admission trips
/// when the lag exceeds `deadline` for `trip_arrivals` consecutive
/// arrivals, and clears when it falls below `clear_pct`% of the
/// deadline for `clear_arrivals` consecutive arrivals (the same
/// trip/restore hysteresis shape as `DegradeConfig`). Buffered-but-
/// unserved work that never occupies a core (a wedged consumer) is the
/// supervisor's job, not admission's: see `stuck_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Master switch; when false every other knob is inert.
    pub enabled: bool,
    /// Response-latency deadline D an admitted item must still be able
    /// to meet.
    pub deadline: SimDuration,
    /// Consecutive over-deadline arrivals that trip a pair into
    /// overload.
    pub trip_arrivals: u32,
    /// Consecutive under-threshold arrivals that clear a pair's
    /// overload window.
    pub clear_arrivals: u32,
    /// Clear threshold as a percentage of the deadline (hysteresis gap:
    /// clearing requires the age estimate to drop well below the trip
    /// point, not merely back to it).
    pub clear_pct: u32,
    /// Fleet-supervisor tick period.
    pub supervisor_period: SimDuration,
    /// Supervisor ticks without consume progress (while items are
    /// buffered) after which a pair counts as stuck and gets an
    /// emergency drain.
    pub stuck_ticks: u32,
    /// Percentage of pairs simultaneously in overload that escalates
    /// shedding fleet-wide; de-escalation happens when the self-tripped
    /// share falls below half this.
    pub escalate_pct: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            deadline: SimDuration::from_millis(100),
            trip_arrivals: 4,
            clear_arrivals: 8,
            clear_pct: 50,
            supervisor_period: SimDuration::from_millis(50),
            stuck_ticks: 2,
            escalate_pct: 50,
        }
    }
}

impl OverloadConfig {
    /// The canonical enabled configuration used by the overload sweep.
    /// Cells labelled `…(overload)` always run exactly this, which is
    /// what lets the replay tooling rebuild an overload cell from its
    /// strategy label alone (DESIGN.md §12, §15). The deadline sits at
    /// 50 ms: comfortably above the latency a *healthy* batching
    /// consumer accrues by design (PBPL holds items up to Δ = 25 ms per
    /// slot, so nominal service lag peaks around one slot), yet far
    /// below the unbounded busy-horizon lag a saturated core builds
    /// once a correlated surge outruns it. The 10 ms supervisor tick
    /// makes stuck detection react within a bench-length run.
    pub fn standard() -> Self {
        OverloadConfig {
            enabled: true,
            deadline: SimDuration::from_millis(50),
            supervisor_period: SimDuration::from_millis(10),
            ..OverloadConfig::default()
        }
    }
}

/// Configuration of the paper's algorithm (PBPL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PbplConfig {
    /// Slot size Δ. The paper defaults this to the minimum of the
    /// consumers' maximum response latencies.
    pub slot: SimDuration,
    /// Each consumer's maximum acceptable response latency (bounds how
    /// far ahead it may reserve).
    pub max_latency: SimDuration,
    /// Rate predictor.
    pub predictor: PredictorKind,
    /// Group-latching on shared slots (§V-A). Disabling it degrades PBPL
    /// to per-consumer periodic batching — the key ablation.
    pub latching: bool,
    /// Opportunistic piggyback drains on an already-awake core — our
    /// reading of §V-A's "latch onto previously scheduled CPU wake-ups"
    /// extended to *any* wake (including overflow wakes). Disable to get
    /// the paper's literal reservation-only latching.
    pub piggyback: bool,
    /// Dynamic buffer resizing against the global pool (§V-C).
    pub resizing: bool,
    /// Margin multiplier on predicted fill when sizing buffers
    /// (1.0 = the paper's exact formula).
    pub resize_margin: f64,
    /// Fraction of B₀ below which downsizing never goes. Rate prediction
    /// is blind to sub-slot burst structure (request clusters), so a
    /// buffer shrunk to the *average* fill would overflow on every
    /// burst; the floor keeps one burst's worth of headroom. The paper's
    /// reported mean allocation (43 of 50) corresponds to ≈ 0.8.
    pub min_capacity_frac: f64,
    /// Graceful degradation under faults (off by default; see
    /// `DegradeConfig`).
    pub degrade: DegradeConfig,
}

impl Default for PbplConfig {
    fn default() -> Self {
        PbplConfig {
            slot: SimDuration::from_millis(25),
            max_latency: SimDuration::from_millis(100),
            predictor: PredictorKind::MovingAverage { history: 8 },
            latching: true,
            piggyback: true,
            resizing: true,
            resize_margin: 1.15,
            min_capacity_frac: 0.55,
            degrade: DegradeConfig::default(),
        }
    }
}

/// One of the producer-consumer implementations under study: the seven
/// from §III plus the paper's PBPL (§V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Busy-waiting consumer (BW).
    BusyWait,
    /// Busy-waiting with voluntary yields (Yield).
    Yield,
    /// Mutex + condition variables, item at a time (Mutex).
    Mutex,
    /// Two semaphores over a circular buffer, item at a time (Sem).
    Sem,
    /// Batch processing: wake when the buffer is full (BP).
    Bp,
    /// Periodic batch processing via `nanosleep` (PBP).
    Pbp {
        /// Batch period (the paper uses 100 µs in §III).
        period: SimDuration,
    },
    /// Signal-driven periodic batch processing (SPBP).
    Spbp {
        /// Batch period.
        period: SimDuration,
    },
    /// The paper's contribution: periodic batch processing with latching.
    Pbpl(PbplConfig),
}

impl StrategyKind {
    /// PBPL with default parameters.
    pub fn pbpl_default() -> Self {
        StrategyKind::Pbpl(PbplConfig::default())
    }

    /// PBPL with the graceful-degradation watchdog enabled (default
    /// thresholds); everything else identical to [`Self::pbpl_default`].
    pub fn pbpl_degraded() -> Self {
        StrategyKind::Pbpl(PbplConfig {
            degrade: DegradeConfig {
                enabled: true,
                ..DegradeConfig::default()
            },
            ..PbplConfig::default()
        })
    }

    /// The §III periodic strategies' timer models: PBP suffers
    /// `nanosleep` jitter, SPBP rides accurate signals, everything else
    /// is driven by data or slots.
    pub(crate) fn timer_model(&self) -> TimerModel {
        match self {
            StrategyKind::Pbp { .. } => TimerModel::nanosleep_like(),
            StrategyKind::Spbp { .. } => TimerModel::sigalrm_like(),
            // The PBPL core manager arms precise per-core timers
            // (hrtimer-class), same class as SPBP.
            StrategyKind::Pbpl(_) => TimerModel::sigalrm_like(),
            _ => TimerModel::Perfect,
        }
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::BusyWait => "BW",
            StrategyKind::Yield => "Yield",
            StrategyKind::Mutex => "Mutex",
            StrategyKind::Sem => "Sem",
            StrategyKind::Bp => "BP",
            StrategyKind::Pbp { .. } => "PBP",
            StrategyKind::Spbp { .. } => "SPBP",
            StrategyKind::Pbpl(_) => "PBPL",
        }
    }

    /// Whether this strategy consumes in batches (BP/PBP/SPBP/PBPL).
    pub fn is_batching(&self) -> bool {
        matches!(
            self,
            StrategyKind::Bp
                | StrategyKind::Pbp { .. }
                | StrategyKind::Spbp { .. }
                | StrategyKind::Pbpl(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_kinds_build() {
        for kind in [
            PredictorKind::MovingAverage { history: 4 },
            PredictorKind::Ewma { alpha: 0.4 },
            PredictorKind::Kalman { q: 1.0, r: 10.0 },
            PredictorKind::Holt {
                alpha: 0.5,
                beta: 0.2,
            },
        ] {
            let p = kind.build(500.0);
            assert_eq!(p.rate(), 500.0, "prior must flow through");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(StrategyKind::BusyWait.name(), "BW");
        assert_eq!(StrategyKind::pbpl_default().name(), "PBPL");
        assert_eq!(
            StrategyKind::Pbp {
                period: SimDuration::from_micros(100)
            }
            .name(),
            "PBP"
        );
    }

    #[test]
    fn batching_classification() {
        assert!(!StrategyKind::Mutex.is_batching());
        assert!(!StrategyKind::Sem.is_batching());
        assert!(StrategyKind::Bp.is_batching());
        assert!(StrategyKind::pbpl_default().is_batching());
    }

    #[test]
    fn timer_models_differ_pbp_vs_spbp() {
        let pbp = StrategyKind::Pbp {
            period: SimDuration::from_micros(100),
        };
        let spbp = StrategyKind::Spbp {
            period: SimDuration::from_micros(100),
        };
        assert_ne!(pbp.timer_model(), spbp.timer_model());
        assert_eq!(StrategyKind::Mutex.timer_model(), TimerModel::Perfect);
    }

    #[test]
    fn default_config_sane() {
        let cfg = PbplConfig::default();
        assert!(cfg.latching && cfg.resizing);
        assert!(cfg.max_latency >= cfg.slot);
        assert!(!cfg.degrade.enabled, "degradation is opt-in");
    }

    #[test]
    fn overload_is_opt_in_and_standard_is_canonical() {
        let default = OverloadConfig::default();
        assert!(!default.enabled, "overload control is opt-in");
        let standard = OverloadConfig::standard();
        assert!(standard.enabled);
        // standard() is the single config behind every `…(overload)`
        // label, so the sweep-relevant thresholds are pinned here: a
        // silent change would invalidate recorded traces' replayability.
        assert_eq!(standard.deadline, SimDuration::from_millis(50));
        assert_eq!(standard.supervisor_period, SimDuration::from_millis(10));
        assert_eq!(standard.trip_arrivals, default.trip_arrivals);
        assert_eq!(standard.clear_arrivals, default.clear_arrivals);
        assert_eq!(standard.clear_pct, default.clear_pct);
        assert_eq!(standard.stuck_ticks, default.stuck_ticks);
        assert_eq!(standard.escalate_pct, default.escalate_pct);
        assert!(default.clear_pct < 100, "clear threshold below trip point");
        assert!(default.deadline > SimDuration::ZERO);
    }

    #[test]
    fn degraded_pbpl_differs_only_in_degrade_flag() {
        let (vanilla, degraded) = (StrategyKind::pbpl_default(), StrategyKind::pbpl_degraded());
        let (StrategyKind::Pbpl(v), StrategyKind::Pbpl(mut d)) = (vanilla, degraded) else {
            unreachable!()
        };
        assert!(d.degrade.enabled);
        d.degrade.enabled = false;
        assert_eq!(v, d);
    }
}
