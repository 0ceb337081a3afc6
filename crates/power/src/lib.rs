//! # pc-power — CPU power modelling and energy accounting
//!
//! Substitute for the paper's measurement rig (an Agilent Infiniium scope
//! sampling the voltage drop across a supply-line resistor, plus
//! PowerTop). Given the per-core idle/active timelines produced by
//! `pc-sim`, this crate computes:
//!
//! * `cstate` — a C-state ladder (power level, entry/exit latency,
//!   target residency) with an Exynos-5-like calibration.
//! * `governor` — idle-state selection: an oracle governor (deepest
//!   state whose residency fits the actual idle interval) and a
//!   menu-governor-like predictive one for ablations.
//! * `model` — the [`PowerModel`]: ladder + wakeup energy + per-item
//!   processing cost + board baseline.
//! * `account` — integration of a core timeline into joules, average
//!   watts, per-C-state residency and the paper's "extra watts over
//!   baseline" metric.
//! * `meter` — a PowerTop-like sampler producing wakeups/s and usage
//!   (ms/s) series over windows.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod account;
mod cstate;
mod governor;
mod meter;
mod model;

pub use account::{account_cores, EnergyReport};
pub use governor::GovernorKind;
pub use meter::{Meter, MeterSample};
pub use model::PowerModel;
