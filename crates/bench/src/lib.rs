//! # pc-bench — experiment runners and microbenches
//!
//! One sweep runner (`sweep FAMILY`, see [`sweep`]) runs every paper
//! figure and table ([`suite`]) and the chaos, scale and overload
//! extensions; every cell is a [`oracle::CellMeta`] header run through
//! [`replay::run_cell`], so every exported cell replays by
//! construction. Criterion microbenches for the data-structure
//! substrates live in `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod exp;
pub mod oracle;
pub mod overload;
pub mod replay;
pub mod scale;
pub mod suite;
pub mod sweep;
