//! The strategies on real OS threads: replay a bursty trace in wall-clock
//! time and count *actual* thread wakeups and CPU busy time, strategy by
//! strategy, with each thread role's CPU time (producer / consumer / PBPL
//! core manager, from `getrusage(RUSAGE_THREAD)`) and OS wakes (every
//! return from a blocking call, work or not).
//!
//! This is the `pc-runtime` crate in action — the same algorithms the
//! simulator measures for power, demonstrated as runnable concurrent
//! code with PBPL's core-manager threads arming real timers.
//!
//! ```sh
//! cargo run --release --example native_threads
//! ```

use pcpower::core::StrategyKind;
use pcpower::runtime::NativeHarness;
use pcpower::sim::{SimDuration, SimTime};
use pcpower::trace::WorldCupConfig;

fn main() {
    let trace = WorldCupConfig {
        horizon: SimTime::from_secs(2),
        mean_rate: 3_000.0,
        ..WorldCupConfig::quick_test()
    };
    println!("native run: 4 pairs, 2 s wall time, ~3000 items/s/pair\n");
    println!(
        "{:>6} | {:>9} | {:>11} | {:>12} | {:>11} | {:>11} | {:>20} | {:>17}",
        "impl",
        "items",
        "wakeups/s",
        "usage ms/s",
        "mean lat",
        "sched/ovfl",
        "cpu ms prod/cons/mgr",
        "wakes prod/cons/mgr"
    );

    let strategies = vec![
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::Pbp {
            period: SimDuration::from_millis(10),
        },
        StrategyKind::Spbp {
            period: SimDuration::from_millis(10),
        },
        StrategyKind::pbpl_default(),
    ];

    for strategy in strategies {
        let report = NativeHarness {
            strategy,
            pairs: 4,
            cores: 2,
            duration: SimDuration::from_secs(2),
            time_scale: 1.0,
            trace: trace.clone(),
            buffer_capacity: 25,
            seed: 42,
            ..NativeHarness::default()
        }
        .run();
        let sched: u64 = report.pairs.iter().map(|p| p.scheduled).sum();
        let ovfl: u64 = report.pairs.iter().map(|p| p.overflows).sum();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:>6} | {:>9} | {:>11.1} | {:>12.2} | {:>11} | {:>5}/{:<5} | {:>6.1}/{:>6.1}/{:>6.1} | {:>5}/{:>5}/{:>5}",
            report.strategy,
            report.items_consumed(),
            report.wakeups_per_sec(),
            report.usage_ms_per_sec(),
            format!("{}", report.mean_latency()),
            sched,
            ovfl,
            ms(report.cpu.producer),
            ms(report.cpu.consumer),
            ms(report.cpu.manager),
            report.wakes.producer,
            report.wakes.consumer,
            report.wakes.manager,
        );
        assert_eq!(report.items_produced(), report.items_consumed());
    }

    println!("\nwakeups here are measured at the blocking primitives of real threads —");
    println!("the same quantity PowerTop attributes per process in the paper's setup.");
}
