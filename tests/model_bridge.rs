//! Trace-to-model bridge (DESIGN.md §12): the reservation-protocol
//! model checker runs against constants harvested from a *real*
//! recorded execution, not hand-picked toys. A pool-squeeze chaos cell
//! is re-run through the replayer, `ModelConfig::from_trace` reads B₀,
//! the pool total, the geometry, the slot range and the squeeze
//! schedule out of the event stream, and the bounded checker then
//! explores every interleaving of the scaled-down instance:
//!
//! * the faithful protocol must come out clean (and *discover* both
//!   `sometimes` properties — consumption and full squeeze recovery),
//! * the floor-skipping rebalance bug must be caught with a
//!   counterexample path ending in the buggy action.

use pc_bench::oracle::CellMeta;
use pc_bench::replay::rerecord;
use pcpower::sim::model::{BookAction, ModelConfig, ReservationModel};
use stateright::Checker;

fn squeeze_cell() -> CellMeta {
    CellMeta {
        experiment: "bridge_pool_squeeze".to_string(),
        strategy: "PBPL(degraded)".to_string(),
        pairs: 5,
        cores: 2,
        buffer: 25,
        seed: 9,
        duration_ns: 60_000_000,
        workload: "worldcup_quick".to_string(),
        scenario: "pool_squeeze".to_string(),
        period_ns: 0,
        events: 0,
        dropped: 0,
        digest: 0,
    }
}

#[test]
fn model_constants_come_from_the_recorded_trace() {
    let log = rerecord(&squeeze_cell()).expect("bridge cell replays");
    let raw = ModelConfig::from_trace(&log.events);
    assert_eq!(raw.pairs, 5);
    assert_eq!(raw.cores, 2);
    assert_eq!(raw.b0, 25);
    assert_eq!(raw.pool_total, 125, "chaos pool is B₀·M");
    assert_eq!(raw.floor, 14, "⌈0.55·25⌉, PbplConfig's floor ratio");
    assert!(
        !raw.squeezes.is_empty(),
        "pool_squeeze scenario must contribute a squeeze schedule"
    );
    assert!(raw.slots >= 2, "PBPL cells reserve real slots");
}

#[test]
fn checked_protocol_instance_from_trace_is_clean() {
    let log = rerecord(&squeeze_cell()).expect("bridge cell replays");
    let cfg = ModelConfig::from_trace(&log.events).scaled();
    assert!(!cfg.squeezes.is_empty());
    let result = Checker::bounded(14, 300_000).check(&ReservationModel::new(cfg));
    assert!(
        result.is_clean(),
        "violations: {:?} (explored {} states)",
        result.violations,
        result.states_explored
    );
    assert!(result.states_explored > 500, "space too small to mean much");
}

#[test]
fn broken_rebalance_is_caught_on_the_trace_derived_instance() {
    let log = rerecord(&squeeze_cell()).expect("bridge cell replays");
    let cfg = ModelConfig::from_trace(&log.events).scaled().broken();
    let result = Checker::bounded(14, 300_000).check(&ReservationModel::new(cfg));
    let v = result
        .violation("capacity respects floor")
        .expect("floor-skipping rebalance must be caught");
    assert!(
        matches!(v.path.last(), Some(BookAction::DegradedRebalance { .. })),
        "counterexample must end in the buggy action, got {:?}",
        v.path.last()
    );
    let state = v.state.as_ref().expect("always-violations carry the state");
    let floor = 2; // ⌈0.55·3⌉ on the scaled instance
    assert!(state.capacity.iter().any(|&c| c < floor));
}
