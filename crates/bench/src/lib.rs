//! # pc-bench — experiment runners and microbenches
//!
//! One sweep runner (`sweep FAMILY`, see [`sweep`]) runs every paper
//! figure and table ([`suite`]), the chaos, scale and overload
//! extensions, and the statistics, ablations and claims self-check
//! ([`analysis`]); every cell is a [`oracle::CellMeta`] header run through
//! [`replay::run_cell`], so every exported cell replays by
//! construction. Criterion microbenches for the data-structure
//! substrates live in `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod chaos;
pub mod exp;
pub mod oracle;
pub mod overload;
pub mod replay;
pub mod scale;
pub mod suite;
pub mod sweep;
