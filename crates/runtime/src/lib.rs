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
//! * `clock` — precise wall-clock pacing: sleep-then-spin deadlines
//!   (the SPBP trick) and trace replay scaling.
//! * `counters` — wakeup/usage/latency accounting shared by all
//!   strategy threads.
//! * `manager` — the native PBPL core-manager thread: one armed
//!   deadline per core, re-targeted when earlier reservations arrive,
//!   waking whole latch groups per timer fire.
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
pub use harness::{NativeHarness, NativeRunReport};
