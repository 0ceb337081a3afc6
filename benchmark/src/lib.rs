//! # pc-benchmark — one reproducible benchmark of the simulator and the
//! native runtime
//!
//! Four workloads (see [`workloads`]), a fixed catalog of end-to-end and
//! per-layer metrics ([`catalog`]), a traced pass that records spans
//! around every layer call ([`spans`]), and the parent-versus-change
//! verdicts of `compare` ([`compare`]). `README.md` beside this crate
//! explains how to run it and how to read its output.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod catalog;
pub mod compare;
pub mod host;
pub mod spans;
pub mod stats;
pub mod workloads;
