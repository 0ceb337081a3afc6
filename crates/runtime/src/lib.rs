//! # pc-runtime — the strategies on real OS threads
//!
//! The simulator (`pc-core::sim`) reproduces the paper's *power*
//! numbers deterministically; this crate demonstrates that the algorithms
//! are real, runnable concurrent code. Producers replay a workload trace
//! in (scaled) wall-clock time against consumer threads implementing each
//! §III strategy and PBPL, with instrumentation that counts the paper's
//! PowerTop metrics — thread wakeups and CPU usage — directly from the
//! blocking primitives.
//!
//! * `clock` — wall-clock pacing: idle absolute-deadline sleeps, the
//!   run's stop signal that ends replay sleeps, the core manager's
//!   `timerfd` slot timer, sleep-then-spin deadlines (the SPBP trick),
//!   thread CPU time, and replay scaling.
//! * `counters` — wakeup/usage/latency accounting shared by all
//!   strategy threads.
//! * `manager` — the native PBPL core-manager thread: one kernel timer
//!   per core, armed at the earliest reserved slot and re-armed by
//!   whoever moves that slot; the thread wakes only when it expires, and
//!   then wakes whole latch groups.
//! * `strategy` — one spawn function per strategy (BW, Yield, Mutex,
//!   Sem, BP, PBP, SPBP, PBPL).
//! * `harness` — spawn/collect machinery returning a
//!   [`NativeRunReport`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock;
mod counters;
mod harness;
mod manager;
mod strategy;

pub use counters::PairStats;
pub use harness::{Lateness, NativeHarness, NativeRunReport, RoleCpu, RoleWakes};
