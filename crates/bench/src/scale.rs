//! The scale family: large-M scaling (DESIGN.md §11).
//!
//! The paper's evaluation stops at M = 5 pairs; this family drives the
//! per-core reservation books and the one global pool with the
//! planet-scale workload from `pc_trace::planet` at M ∈ {10, 100, 1000},
//! and `results/scale.json` must be a pure function of `(seed, config)`
//! — **never** of the worker-thread count, which the CI family matrix
//! byte-compares the file across.

use crate::exp::{evaluated_strategies, print_header, Protocol};
use crate::replay::Condition;
use crate::sweep::{print_rows, Block, CellReport, CellRun, GridPoint};
use serde::Serialize;

/// The scaling grid: cores grow with M (10 pairs per core, as in the
/// paper's 5-pairs-on-2-cores ratio), buffer fixed at the paper's
/// B₀ = 25; the four §VI implementations at every point. Blocks are
/// named `scale_m{M}`, and `m{M}` is the `--filter` name.
pub fn blocks(protocol: &Protocol) -> Vec<Block> {
    let strategies: Vec<_> = evaluated_strategies()
        .into_iter()
        .map(|s| (s, Condition::Plain))
        .collect();
    [(10, 2), (100, 10), (1000, 100)]
        .into_iter()
        .map(|(pairs, cores)| Block {
            experiment: format!("scale_m{pairs}"),
            point: GridPoint {
                pairs,
                cores,
                buffer: 25,
            },
            workload: protocol.planet_workload(),
            scenario: "",
            strategies: strategies.clone(),
        })
        .collect()
}

/// `results/scale.json`.
#[derive(Serialize)]
pub struct ScaleReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    workload_mean_rate: f64,
    workload_rate_spread: f64,
    cells: Vec<CellReport>,
}

/// Prints one table per point and builds `results/scale.json`.
pub fn report(protocol: &Protocol, runs: &[CellRun]) -> ScaleReport {
    for point in runs.chunk_by(|a, b| a.meta.pairs == b.meta.pairs) {
        print_header(&format!("scale m{0} (M={0})", point[0].meta.pairs));
        print_rows(point);
    }
    ScaleReport {
        schema_version: 1,
        duration_ms: protocol.duration.as_nanos() / 1_000_000,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        workload_mean_rate: protocol.planet.mean_rate,
        workload_rate_spread: protocol.planet.rate_spread,
        cells: runs.iter().map(CellReport::of).collect(),
    }
}
