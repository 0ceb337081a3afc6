//! # pc-trace — workload trace generation
//!
//! The paper drives every experiment with the 1998 World Cup web-access
//! log [Arlitt & Jin], valued purely for its "sporadic changes in the
//! rate of production". That dataset is not redistributable here, so this
//! crate synthesises traces with the same qualitative structure (see
//! [`WorldCupConfig`]) and provides the trace manipulations the
//! evaluation needs (per-consumer phase shifts, §VI-A).
//!
//! * [`WorldCupConfig`] — the World-Cup-'98-like generator: diurnal
//!   baseline × flash-crowd bursts × MMPP noise, deterministic per seed.
//! * [`PlanetConfig`] — planet-scale fleets of per-pair traces for the
//!   large-M scaling experiments: heterogeneous rates, time-zone phase
//!   shifts, flash-crowd pairs.
//! * [`Trace`] — the trace container: timestamps, phase shifting,
//!   truncation.
//! * [`parse_timestamp_lines`], [`parse_common_log`] and [`to_trace`] —
//!   ingestion of *real* logs (timestamp-per-line or Common Log Format)
//!   for anyone who has the actual WC'98 dataset.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod io;
mod planet;
mod trace;
mod worldcup;

pub use io::{parse_common_log, parse_timestamp_lines, to_trace, ReplayOptions};
pub use planet::PlanetConfig;
pub use trace::Trace;
pub use worldcup::WorldCupConfig;
