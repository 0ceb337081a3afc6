//! # pc-sim — deterministic discrete-event simulation engine
//!
//! This crate is the experimental substrate that replaces the physical
//! testbed of the paper *Power-efficient Multiple Producer-Consumer*
//! (Medhat, Bonakdarpour, Fischmeister — IPDPS 2014): an Arndale Exynos-5
//! board measured with an oscilloscope. Instead of a board we provide a
//! deterministic simulation of a multicore machine:
//!
//! * `time` — nanosecond-resolution simulated time ([`SimTime`]) and
//!   durations ([`SimDuration`]) with checked/saturating arithmetic.
//! * [`event`] — a cancellable priority event queue ([`EventQueue`]) with
//!   stable FIFO ordering for simultaneous events.
//! * `arrival` — the arrival-calendar merge front-end
//!   ([`ArrivalCalendar`]): pre-sorted per-source workload arrivals
//!   merged in O(log M) per item, popped by the engine in one
//!   `(time, seq)` total order with the wheel (DESIGN.md §14).
//! * `engine` — a thin driver ([`Engine`]) combining the queue with a
//!   monotonic clock, used by higher-level system models.
//! * [`core`] — per-core activity accounting ([`Core`]): merged active
//!   spans, wakeup counting and an idle/active interval timeline that the
//!   `pc-power` crate integrates into energy figures.
//! * `rng` — a tiny, fully deterministic SplitMix64/xoshiro256** RNG with
//!   the distributions the workload models need (uniform, exponential,
//!   normal), so simulations are bit-reproducible across runs and platforms.
//! * `timer` — timer inaccuracy models. The paper's PBP vs SPBP gap is
//!   caused purely by `nanosleep()` jitter versus `SIGALRM` accuracy; the
//!   [`timer::TimerModel`] reproduces that mechanism.
//!
//! The engine is intentionally *not* generic over threads: simulations are
//! single-threaded and deterministic, which is what makes the paper's
//! metrics (wakeups, idle residency, alignment costs) exactly measurable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arrival;
pub mod core;
mod engine;
pub mod event;
pub mod model;
mod rng;
mod time;
mod timer;

pub use crate::arrival::ArrivalCalendar;
pub use crate::core::{Core, CoreId, CoreState};
pub use crate::engine::{Engine, Popped};
pub use crate::event::{EventId, EventQueue, QueueStats};
pub use crate::rng::SimRng;
pub use crate::time::{SimDuration, SimTime};
pub use crate::timer::TimerModel;
