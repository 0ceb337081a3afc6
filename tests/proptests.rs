//! Property-based integration tests (proptest): invariants that must
//! hold for *arbitrary* workloads and operation sequences, not just the
//! calibrated ones.

use pcpower::core::{Experiment, SlotTrack, StrategyKind};
use pcpower::queues::{ElasticBuffer, GlobalPool};
use pcpower::sim::{SimDuration, SimTime};
use pcpower::trace::Trace;
use proptest::prelude::*;
use std::sync::Arc;

fn arbitrary_trace(max_items: usize, horizon_ms: u64) -> impl Strategy<Value = Trace> {
    prop::collection::vec(0..horizon_ms * 1_000_000, 0..max_items).prop_map(move |mut ns| {
        ns.sort_unstable();
        let times = ns.into_iter().map(SimTime::from_nanos).collect();
        Trace::new(times, SimTime::from_millis(horizon_ms))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_trace_is_fully_consumed_by_every_strategy(
        trace in arbitrary_trace(400, 50),
        strategy_idx in 0usize..4,
    ) {
        let strategy = match strategy_idx {
            0 => StrategyKind::Mutex,
            1 => StrategyKind::Bp,
            2 => StrategyKind::Spbp { period: SimDuration::from_millis(5) },
            _ => StrategyKind::pbpl_default(),
        };
        let n = trace.len() as u64;
        let m = Experiment::builder()
            .pairs(1)
            .cores(1)
            .duration(SimDuration::from_millis(50))
            .strategy(strategy)
            .traces(vec![trace])
            .buffer_capacity(16)
            .run();
        prop_assert_eq!(m.items_produced, n);
        prop_assert!(m.all_items_consumed());
        for r in &m.core_reports {
            prop_assert!(r.validate().is_ok());
        }
    }

    #[test]
    fn runs_are_reproducible_for_any_seed(seed in 0u64..10_000) {
        let run = || Experiment::builder()
            .pairs(2)
            .cores(2)
            .duration(SimDuration::from_millis(60))
            .strategy(StrategyKind::pbpl_default())
            .trace(pcpower::trace::WorldCupConfig::quick_test())
            .seed(seed)
            .run();
        let a = run();
        let b = run();
        prop_assert_eq!(a.items_consumed, b.items_consumed);
        prop_assert_eq!(a.energy.energy_j.to_bits(), b.energy.energy_j.to_bits());
    }

    #[test]
    fn pool_units_conserved_under_arbitrary_ops(
        ops in prop::collection::vec((0u8..5, 1usize..60), 1..200)
    ) {
        let total = 120usize;
        let pool = GlobalPool::new(total);
        let mut bufs: Vec<ElasticBuffer<u8>> = (0..3)
            .map(|_| ElasticBuffer::new(Arc::clone(&pool), 20).expect("fits"))
            .collect();
        let mut sink = Vec::new();
        for (op, arg) in ops {
            let b = &mut bufs[arg % 3];
            match op {
                0 => { b.grow_to(arg); }
                1 => { b.shrink_to(arg % 40); }
                2 => { let _ = b.push(0); }
                3 => { b.pop(); }
                // Batch drain: exercises the segment free list (emptied
                // segments recycled, later pushes reuse them) under the
                // same conservation assertions as the item ops.
                _ => { sink.clear(); b.drain_into(&mut sink); }
            }
            let held: usize = bufs.iter().map(|b| b.capacity()).sum();
            prop_assert_eq!(held + pool.available(), total);
            for b in &bufs {
                prop_assert!(b.len() <= b.capacity());
            }
        }
        drop(bufs);
        prop_assert_eq!(pool.available(), total);
    }

    #[test]
    fn traced_elastic_ops_replay_clean(
        ops in prop::collection::vec((0u8..7, 1usize..60), 1..200)
    ) {
        // Random interleavings of grow/shrink/push/pop/drain/destroy/create
        // over traced elastic buffers: the direct conservation check must
        // hold at every step, and the recorded `Buffer*` event stream
        // must replay clean through the oracle (conservation after every
        // transaction, no double-free, grants within requests).
        use pcpower::trace_events::Recorder;
        let total = 120usize;
        let pool = GlobalPool::new(total);
        let recorder = Recorder::new();
        let mut next_owner = 0u32;
        let make = |pool: &Arc<GlobalPool>, next_owner: &mut u32| {
            let mut b = ElasticBuffer::<u8>::new(Arc::clone(pool), 20)?;
            b.set_trace(recorder.handle(), *next_owner);
            *next_owner += 1;
            Some(b)
        };
        let mut bufs: Vec<Option<ElasticBuffer<u8>>> = (0..3)
            .map(|_| make(&pool, &mut next_owner))
            .collect();
        for (op, arg) in ops {
            let k = arg % 3;
            match (op, bufs[k].as_mut()) {
                (0, Some(b)) => { b.grow_to(arg); }
                (1, Some(b)) => { b.shrink_to(arg % 40); }
                (2, Some(b)) => { let _ = b.push(0); }
                (3, Some(b)) => { b.pop(); }
                (4, Some(b)) => { let mut out = Vec::new(); b.drain_into(&mut out); }
                (5, _) => { bufs[k] = None; } // destroy
                (_, slot) => {
                    if slot.is_none() {
                        bufs[k] = make(&pool, &mut next_owner); // recreate
                    }
                }
            }
            let held: usize = bufs.iter().flatten().map(|b| b.capacity()).sum();
            prop_assert_eq!(held + pool.available(), total);
        }
        drop(bufs);
        prop_assert_eq!(pool.available(), total);
        let log = recorder.take();
        prop_assert_eq!(log.dropped, 0);
        prop_assert!(!log.events.is_empty());
        let report = pc_bench::oracle::check(&log);
        prop_assert!(report.is_clean(), "oracle violations: {:?}", report.violations);
    }

    #[test]
    fn any_fault_plan_preserves_item_and_pool_conservation(
        scenario_idx in 0usize..8,
        seed in 0u64..10_000,
    ) {
        // Arbitrary fault interleavings — any scenario, any expansion
        // seed — may reshape arrivals, stall producers, slow consumers,
        // drop wakeups, drift timers and squeeze the pool, but they must
        // never lose an item or a pool unit: the run flushes clean and
        // the recorded trace replays clean through the extended oracle
        // (item conservation, squeeze-aware pool conservation, paired
        // fault windows).
        use pcpower::faults::{ExpandEnv, FaultPlan, FaultScenario};
        use pcpower::trace_events::Recorder;
        let (pairs, cores, buffer) = (3usize, 2usize, 25usize);
        let duration = SimDuration::from_millis(60);
        let scenario = FaultScenario::all()[scenario_idx];
        let plan = FaultPlan::expand(scenario, seed, &ExpandEnv {
            horizon_ns: duration.as_nanos(),
            pairs: pairs as u32,
            cores: cores as u32,
            pool_total: (buffer * pairs) as u64,
        });
        let recorder = Recorder::new();
        let m = Experiment::builder()
            .pairs(pairs)
            .cores(cores)
            .duration(duration)
            .strategy(StrategyKind::pbpl_degraded())
            .trace(pcpower::trace::WorldCupConfig::quick_test())
            .seed(seed)
            .buffer_capacity(buffer)
            .faults(plan)
            .record_events(recorder.handle())
            .run();
        prop_assert!(m.all_items_consumed(),
            "{}: {} produced, {} consumed",
            scenario.name(), m.items_produced, m.items_consumed);
        let log = recorder.take();
        prop_assert_eq!(log.dropped, 0);
        let report = pc_bench::oracle::check(&log);
        prop_assert!(report.is_clean(),
            "{} seed {}: oracle violations: {:?}",
            scenario.name(), seed, report.violations);
    }

    #[test]
    fn overload_control_keeps_the_shed_ledger_balanced_for_any_scenario(
        scenario_idx in 0usize..10,
        seed in 0u64..10_000,
    ) {
        // Overload control changes the conservation law to
        // `produced == consumed + shed` — for *any* fault scenario
        // (including the correlated ones built to trip it) and any
        // expansion seed, the ledger must balance, every
        // `OverloadEntered` must pair with an `OverloadCleared` whose
        // shed count matches the `ItemShed` events in the window
        // (the oracle enforces both), and the recording must replay
        // bit-identically through the executable replay path from its
        // `CellMeta` recipe alone (the `(overload)` label carries the
        // whole overload config).
        use pc_bench::oracle::CellMeta;
        use pc_bench::replay::{first_divergence, rerecord};
        use pcpower::core::OverloadConfig;
        use pcpower::faults::{ExpandEnv, FaultPlan, FaultScenario};
        use pcpower::trace_events::{Recorder, TraceEvent};
        let scenarios: Vec<FaultScenario> = FaultScenario::correlated()
            .into_iter()
            .chain(FaultScenario::all())
            .collect();
        let scenario = scenarios[scenario_idx];
        let (pairs, cores, buffer) = (5usize, 2usize, 25usize);
        let duration = SimDuration::from_millis(250);
        let plan = FaultPlan::expand(scenario, seed, &ExpandEnv {
            horizon_ns: duration.as_nanos(),
            pairs: pairs as u32,
            cores: cores as u32,
            pool_total: (buffer * pairs) as u64,
        });
        let recorder = Recorder::bounded(pcpower::trace_events::DEFAULT_RECORDER_CAPACITY);
        let m = Experiment::builder()
            .pairs(pairs)
            .cores(cores)
            .duration(duration)
            .strategy(StrategyKind::pbpl_default())
            .trace(pcpower::trace::WorldCupConfig::quick_test())
            .seed(seed)
            .buffer_capacity(buffer)
            .faults(plan)
            .overload(OverloadConfig::standard())
            .record_events(recorder.handle())
            .run();
        prop_assert_eq!(m.items_produced, m.items_consumed + m.items_shed,
            "{} seed {}: {} produced != {} consumed + {} shed",
            scenario.name(), seed, m.items_produced, m.items_consumed, m.items_shed);
        prop_assert!(m.all_items_consumed());
        let log = recorder.take();
        prop_assert_eq!(log.dropped, 0);
        let entered = log.events.iter()
            .filter(|e| matches!(e.kind, TraceEvent::OverloadEntered { .. })).count();
        let cleared = log.events.iter()
            .filter(|e| matches!(e.kind, TraceEvent::OverloadCleared { .. })).count();
        prop_assert_eq!(entered, cleared, "windows must pair up");
        let shed_events = log.events.iter()
            .filter(|e| matches!(e.kind, TraceEvent::ItemShed { .. })).count();
        prop_assert_eq!(shed_events as u64, m.items_shed);
        let report = pc_bench::oracle::check(&log);
        prop_assert!(report.is_clean(),
            "{} seed {}: oracle violations: {:?}",
            scenario.name(), seed, report.violations);
        let meta = CellMeta {
            experiment: "proptest_overload".to_string(),
            strategy: "PBPL(overload)".to_string(),
            pairs: pairs as u64,
            cores: cores as u64,
            buffer: buffer as u64,
            seed,
            duration_ns: duration.as_nanos(),
            workload: "worldcup_quick".to_string(),
            scenario: scenario.name().to_string(),
            period_ns: 0,
            events: log.events.len() as u64,
            dropped: log.dropped,
            digest: log.digest(),
        };
        let rerun = rerecord(&meta);
        prop_assert!(rerun.is_ok(), "rerun failed: {:?}", rerun.as_ref().err());
        let rerun = rerun.unwrap();
        let recorded: Vec<_> = log.events.iter().collect();
        let replayed: Vec<_> = rerun.events.iter().collect();
        prop_assert!(first_divergence(&recorded, &replayed).is_none(),
            "{} seed {}: replay diverged", scenario.name(), seed);
        prop_assert_eq!(rerun.digest(), log.digest());
    }

    #[test]
    fn slot_g_properties(delta_us in 1u64..100_000, t_ns in 0u64..10_000_000_000) {
        let track = SlotTrack::new(SimDuration::from_micros(delta_us));
        let t = SimTime::from_nanos(t_ns);
        let g = track.g(t);
        // Eq. 6: g(t) ≤ t, on the slot grid, within Δ of t.
        prop_assert!(g <= t);
        prop_assert!(t.saturating_since(g) < SimDuration::from_micros(delta_us));
        prop_assert_eq!(track.slot_start(track.slot_index(t)), g);
        // Idempotence: g(g(t)) = g(t).
        prop_assert_eq!(track.g(g), g);
    }

    #[test]
    fn phase_shift_is_a_permutation(
        trace in arbitrary_trace(200, 40),
        numer in 0u64..8,
    ) {
        let fraction = numer as f64 / 8.0;
        let shifted = trace.phase_shift(fraction);
        prop_assert_eq!(shifted.len(), trace.len());
        prop_assert_eq!(shifted.horizon(), trace.horizon());
        prop_assert!(shifted.times().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(shifted.times().iter().all(|&t| t < trace.horizon()));
    }
}
