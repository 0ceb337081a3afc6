//! Per-role CPU attribution must account for the run's CPU.
//!
//! This file holds a single test so that it owns its process: the
//! process CPU clock then sees the native run and nothing else.

use pc_core::StrategyKind;
use pc_runtime::NativeHarness;
use pc_sim::SimDuration;
use pc_trace::WorldCupConfig;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// Linux clock id of the whole process's CPU time (all threads).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a kernel constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[test]
fn roles_cover_process_cpu() {
    // One PBPL pair on one core replaying the paper's WorldCup workload
    // in real time: the shape of the benchmark's `native_pbpl` run.
    let harness = NativeHarness {
        strategy: StrategyKind::pbpl_default(),
        pairs: 1,
        cores: 1,
        duration: SimDuration::from_secs(2),
        trace: WorldCupConfig::paper_default(),
        seed: 5,
        ..NativeHarness::default()
    };
    let before = process_cpu();
    let report = harness.run();
    let process = process_cpu() - before;
    let roles = report.cpu;
    assert_eq!(report.items_produced(), report.items_consumed());
    assert!(
        roles.total() * 10 >= process * 9,
        "roles {roles:?} = {:?} cover under 90% of process CPU {process:?}",
        roles.total()
    );
    assert!(
        roles.total() <= process,
        "roles {roles:?} exceed {process:?}"
    );
}
