//! # pc-core — the paper's contribution: PBPL and its baselines
//!
//! Implements §IV (formal model) and §V (the power-aware multiple
//! producer-consumer algorithm) of *Power-efficient Multiple
//! Producer-Consumer* (IPDPS 2014), plus simulation behaviours for all
//! seven §III baselines, and the experiment driver used by every
//! figure/table reproduction.
//!
//! * [`model`] — the formal objects of §IV-B: γ (Eq. 1), the wakeup cost
//!   function w (Eq. 3), the wakeup objective (Eq. 4) and the slot
//!   alignment objective (Eq. 7), used by tests and analyses.
//! * [`slot`] — the slot track: Δ, slot indexing, g(τ) (Eq. 6).
//! * [`predict`] — rate predictors: the paper's moving average, plus EWMA
//!   and the scalar Kalman filter the paper names as future work (§VIII).
//! * [`cost`] — the reservation cost function ρ (Eq. 8) and the
//!   backtracking slot selection of §V-C.
//! * [`manager`] — the per-core slot reservation manager of §V-B.
//! * [`resize`] — dynamic buffer sizing decisions of §V-C.
//! * [`config`] — strategy and experiment configuration.
//! * [`strategy`] — the eight consumer behaviours (BW, Yield, Mutex, Sem,
//!   BP, PBP, SPBP, PBPL) as simulation models.
//! * [`pbpl`] — one consumer's §V-C decisions (predict, select, resize,
//!   watchdog) as a clock-free machine the simulator and the native
//!   runtime share.
//! * [`sim`] — the multi-pair, multi-core discrete-event system (kernel,
//!   per-strategy handlers, fault and overload layers) and the
//!   [`Experiment`] builder.
//! * [`metrics`] — per-run metric collection.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod manager;
pub mod metrics;
pub mod model;
pub mod pbpl;
pub mod predict;
pub mod resize;
pub mod sim;
pub mod slot;
pub mod strategy;

pub use config::{OverloadConfig, PbplConfig, PredictorKind, StrategyKind};
pub use cost::{select_slot, CostModel, SlotChoice};
pub use manager::CoreManager;
pub use metrics::{PairMetrics, RunMetrics};
pub use model::{gamma_count, wakeup_objective, ConsumerId, PairId};
pub use pbpl::PbplConsumer;
pub use predict::{Ewma, Holt, Kalman, MovingAverage, RatePredictor};
pub use sim::{Experiment, ExperimentBuilder};
pub use slot::SlotTrack;
