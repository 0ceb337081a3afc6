//! Property-based equivalence of the arrival-calendar merge front-end
//! (`Engine::file_point` + `next_merged_before`, DESIGN.md §14)
//! against the retired all-through-the-wheel design.
//!
//! The reference engine below schedules every workload arrival as an
//! ordinary wheel event, as the simulator did before the calendar
//! existed. The front-end engine files the same arrivals as decision
//! points and pops the merged stream. The two must agree on *every*
//! observable, over arbitrary interleavings of per-source sorted
//! arrival streams, dynamic timers landing on the same instants (exact
//! `(time, seq)` ties are the fragile invariant), timer cancellations,
//! and early deadlines:
//!
//! * pop order — time, payload kind, and source/timer identity;
//! * trace digests — both engines stamp a recorder and the FNV digests
//!   of the recorded streams must match bit-for-bit;
//! * `QueueStats` — the front end's wheel ledger balances, and its
//!   wheel and point totals equal the reference's wheel-only ledger.
//!
//! A second property files only some arrivals — each source acts at
//! every `stride`-th one — so most points carry no seq and take their
//! same-time order from the arrival times and the births of the
//! timers. The popped stream must be the reference's with the skipped
//! arrivals left out, and at every pop the engine must say which
//! same-time skipped arrivals the reference popped first.

use pc_sim::{ArrivalTimes, Engine, Popped, SimTime};
use pc_trace_events::{Recorder, TraceEvent};
use proptest::prelude::*;
use std::rc::Rc;

/// What the reference engine carries through the wheel. The front-end
/// engine carries only `Timer` payloads — its arrivals ride the
/// calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefEv {
    Arrival(u32),
    Timer(u32),
}

/// One interleaving script: per-source arrival streams plus a timer
/// action decided at every pop.
#[derive(Debug, Clone)]
struct Script {
    /// `gaps[s]` are source `s`'s inter-arrival gaps (ns, may be 0 —
    /// repeated timestamps within one source are legal).
    gaps: Vec<Vec<u64>>,
    /// Per-pop timer action, consumed round-robin: `None` = no timer,
    /// `Some((offset, cancel))` schedules a timer `offset` ns after the
    /// current clock and immediately cancels it if `cancel` — cancelled
    /// timers leave dead husks the merged peek must drain past.
    timers: Vec<Option<(u64, bool)>>,
}

fn script_strategy() -> impl Strategy<Value = Script> {
    // Gaps on a coarse grid so sources collide on exact nanoseconds
    // (and timers below land on the same grid): FIFO-by-seq tie order
    // across the calendar/wheel boundary is the point of the test.
    let gaps = prop::collection::vec(
        prop::collection::vec((0u64..12).prop_map(|k| k * 256), 1..40),
        1..12,
    );
    let timers = prop::collection::vec(
        prop_oneof![
            Just(None),
            Just(None),
            ((0u64..12).prop_map(|k| k * 256), any::<bool>()).prop_map(Some),
        ],
        1..64,
    );
    (gaps, timers).prop_map(|(gaps, timers)| Script { gaps, timers })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn front_end_matches_all_through_wheel_reference(script in script_strategy()) {
        let end = SimTime::from_nanos(1 << 14);
        let sources = script.gaps.len();

        let front_rec = Recorder::bounded(1 << 16);
        let mut front: Engine<u32> = Engine::new(7);
        front.set_trace(front_rec.handle());

        let refr_rec = Recorder::bounded(1 << 16);
        let mut refr: Engine<RefEv> = Engine::new(7);
        refr.set_trace(refr_rec.handle());

        // Cursor state, shared by both drivers.
        let mut next_idx = vec![0usize; sources];
        let mut cursor_time = vec![0u64; sources];
        let arrival_at = |s: usize, idx: usize, base: u64| -> Option<u64> {
            script.gaps[s].get(idx).map(|g| base + g)
        };
        // Arm each source's first arrival on both engines, in the same
        // order so the shared-counter seq assignment matches.
        for s in 0..sources {
            if let Some(at) = arrival_at(s, 0, 0) {
                if at < end.as_nanos() {
                    front.file_point(SimTime::from_nanos(at), s as u32, 0);
                    refr.schedule_at(SimTime::from_nanos(at), RefEv::Arrival(s as u32));
                }
            }
        }

        let mut timer_cursor = 0usize;
        let mut next_timer_id = 0u32;
        let mut pops = 0usize;
        loop {
            let got = front.next_merged_before(end);
            let want = refr.next_before(end);
            match (got, want) {
                (None, None) => break,
                (Some((ft, fp)), Some((rt, rp))) => {
                    prop_assert_eq!(ft, rt, "pop time diverged at pop {}", pops);
                    let fp = match fp {
                        Popped::Point(s) => RefEv::Arrival(s),
                        Popped::Timer(k) => RefEv::Timer(k),
                    };
                    prop_assert_eq!(fp, rp, "pop payload diverged at pop {}", pops);
                    prop_assert_eq!(front.now(), refr.now(), "clocks diverged");
                    match fp {
                        RefEv::Arrival(s) => {
                            let s = s as usize;
                            front_rec.handle().record(|| TraceEvent::Produce { pair: s as u32 });
                            refr_rec.handle().record(|| TraceEvent::Produce { pair: s as u32 });
                            // Advance the source cursor and arm the next
                            // arrival at the same program point on both
                            // engines, as `System::produce` does.
                            cursor_time[s] = ft.as_nanos();
                            next_idx[s] += 1;
                            if let Some(at) = arrival_at(s, next_idx[s], cursor_time[s]) {
                                if at < end.as_nanos() {
                                    let idx = next_idx[s] as u32;
                                    front.file_point(SimTime::from_nanos(at), s as u32, idx);
                                    refr.schedule_at(
                                        SimTime::from_nanos(at),
                                        RefEv::Arrival(s as u32),
                                    );
                                }
                            }
                        }
                        RefEv::Timer(k) => {
                            front_rec.handle().record(|| TraceEvent::Wakeup { pair: k });
                            refr_rec.handle().record(|| TraceEvent::Wakeup { pair: k });
                        }
                    }
                    // Dynamic timer action: same decision on both sides.
                    if let Some(&Some((offset, cancel))) = script.timers.get(timer_cursor) {
                        let at = ft.as_nanos() + offset;
                        if at < end.as_nanos() {
                            let k = next_timer_id;
                            next_timer_id += 1;
                            let fid = front.schedule_at(SimTime::from_nanos(at), k);
                            let rid = refr.schedule_at(SimTime::from_nanos(at), RefEv::Timer(k));
                            if cancel {
                                prop_assert!(front.cancel(fid));
                                prop_assert!(refr.cancel(rid));
                            }
                        }
                    }
                    timer_cursor = (timer_cursor + 1) % script.timers.len();
                }
                (got, want) => {
                    prop_assert!(false, "pop presence diverged: {:?} vs {:?}", got, want);
                }
            }
            pops += 1;
            prop_assert_eq!(front.pending(), refr.pending(), "pending diverged");
        }

        // Trace digests: identical clock stamps and payloads.
        let front_log = front_rec.take();
        let refr_log = refr_rec.take();
        prop_assert_eq!(front_log.dropped, 0);
        prop_assert_eq!(refr_log.dropped, 0);
        prop_assert_eq!(front_log.digest(), refr_log.digest(), "trace digests diverged");

        // QueueStats: the wheel ledger balances, and wheel + calendar
        // totals equal the reference's wheel-only totals.
        let fs = front.queue_stats();
        let rs = refr.queue_stats();
        prop_assert!(fs.ledger_balanced(), "front-end ledger out of balance: {:?}", fs);
        prop_assert!(rs.ledger_balanced(), "reference ledger out of balance: {:?}", rs);
        prop_assert_eq!(
            fs.popped + fs.points_popped,
            rs.popped,
            "total popped diverged"
        );
        prop_assert_eq!(fs.cancelled, rs.cancelled);
        prop_assert_eq!(front.pending() as u64, rs.pending_at_teardown);
        // Arrivals that popped before `end` did so from the calendar,
        // never the wheel: the front-end wheel saw only timers.
        prop_assert_eq!(fs.scheduled, u64::from(next_timer_id));
    }
}

/// Each source's arrival times, as absolute nanoseconds.
struct Times(Vec<Vec<u64>>);

impl ArrivalTimes for Times {
    fn arrival_ns(&self, source: u32, idx: u32) -> u64 {
        self.0[source as usize][idx as usize]
    }
}

fn strided_strategy() -> impl Strategy<Value = (Script, Vec<usize>)> {
    // Timers never land on the instant they are scheduled at: no
    // simulator event does, and the same-time order relies on it.
    let gaps = prop::collection::vec(
        prop::collection::vec((0u64..12).prop_map(|k| k * 256), 1..40),
        1..10,
    );
    let timers = prop::collection::vec(
        prop_oneof![
            Just(None),
            ((1u64..12).prop_map(|k| k * 256), any::<bool>()).prop_map(Some),
            ((1u64..12).prop_map(|k| k * 256), Just(false)).prop_map(Some),
        ],
        1..64,
    );
    // One stride per possible source.
    let strides = prop::collection::vec(1usize..5, 10..11);
    (gaps, timers, strides).prop_map(|(gaps, timers, strides)| (Script { gaps, timers }, strides))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn strided_points_keep_the_reference_order(input in strided_strategy()) {
        check_strided(&input.0, &input.1);
    }
}

/// Drives the reference and the strided point engine in lockstep.
fn check_strided(script: &Script, strides: &[usize]) {
    let end = 1u64 << 14;
    let sources = script.gaps.len();
    let times: Vec<Vec<u64>> = script
        .gaps
        .iter()
        .map(|g| {
            g.iter()
                .scan(0, |t, gap| {
                    *t += gap;
                    Some(*t)
                })
                .take_while(|&t| t < end)
                .collect()
        })
        .collect();
    // Source `s` acts at every `strides[s]`-th arrival and at its last.
    let is_point =
        |s: usize, j: usize| (j + 1).is_multiple_of(strides[s]) || j + 1 == times[s].len();
    let next_point = |s: usize, from: usize| (from..times[s].len()).find(|&j| is_point(s, j));

    let mut pts: Engine<u32> = Engine::new(7);
    pts.set_arrival_times(Rc::new(Times(times.clone())));
    let mut refr: Engine<RefEv> = Engine::new(7);
    // Both file each source's first arrival (or point) at set-up.
    for (s, stamps) in times.iter().enumerate() {
        if let Some(&at) = stamps.first() {
            refr.schedule_at(SimTime::from_nanos(at), RefEv::Arrival(s as u32));
        }
        if let Some(j) = next_point(s, 0) {
            pts.file_point(SimTime::from_nanos(stamps[j]), s as u32, j as u32);
        }
    }
    let mut popped = vec![0usize; sources];
    let (mut timer_cursor, mut next_timer_id) = (0usize, 0u32);
    let deadline = SimTime::from_nanos(end);
    while let Some((rt, rp)) = refr.next_before(deadline) {
        if let RefEv::Arrival(s) = rp {
            let s = s as usize;
            if !is_point(s, popped[s]) {
                // Skipped by the point engine: nothing happens.
                popped[s] += 1;
                let j = popped[s];
                if let Some(&at) = times[s].get(j) {
                    refr.schedule_at(SimTime::from_nanos(at), RefEv::Arrival(s as u32));
                }
                continue;
            }
        }
        let (pt, pp) = pts
            .next_merged_before(deadline)
            .expect("the point engine pops too");
        assert_eq!(pt, rt);
        let pp = match pp {
            Popped::Point(s) => RefEv::Arrival(s),
            Popped::Timer(k) => RefEv::Timer(k),
        };
        assert_eq!(pp, rp);
        // Same-time skipped arrivals: the engine must know which of
        // them the reference popped before this event.
        for s in 0..sources {
            for (j, &t) in times[s].iter().enumerate() {
                let is_current = rp == RefEv::Arrival(s as u32) && j == popped[s];
                if t == rt.as_nanos() && !is_current {
                    assert_eq!(
                        pts.precedes_current(s as u32, j as u32),
                        j < popped[s],
                        "source {} arrival {} against {:?} at {}",
                        s,
                        j,
                        rp,
                        rt
                    );
                }
            }
        }
        // The handler's timers, then the arrival's successor.
        if let Some(&Some((offset, cancel))) = script.timers.get(timer_cursor) {
            let at = rt.as_nanos() + offset;
            if at < end {
                let k = next_timer_id;
                next_timer_id += 1;
                let pid = pts.schedule_at(SimTime::from_nanos(at), k);
                let rid = refr.schedule_at(SimTime::from_nanos(at), RefEv::Timer(k));
                if cancel {
                    assert!(pts.cancel(pid));
                    assert!(refr.cancel(rid));
                }
            }
        }
        timer_cursor = (timer_cursor + 1) % script.timers.len();
        if let RefEv::Arrival(s) = rp {
            let s = s as usize;
            popped[s] += 1;
            let j = popped[s];
            if let Some(&at) = times[s].get(j) {
                refr.schedule_at(SimTime::from_nanos(at), RefEv::Arrival(s as u32));
            }
            if let Some(p) = next_point(s, j) {
                pts.file_point(SimTime::from_nanos(times[s][p]), s as u32, p as u32);
            }
        }
    }
    assert_eq!(pts.next_merged_before(deadline), None);
}

/// Deterministic spot check of the one asymmetry the proptest cannot
/// pin: a deadline landing *between* the calendar head and the wheel
/// head must leave both engines' clocks untouched and pop nothing.
#[test]
fn deadline_between_heads_pops_nothing() {
    let mut front: Engine<u32> = Engine::new(1);
    front.file_point(SimTime::from_nanos(5_000), 0, 0);
    front.schedule_at(SimTime::from_nanos(2_000), 9);
    // Wheel head (2 µs) pops; calendar head (5 µs) is past the deadline.
    let (t, ev) = front
        .next_merged_before(SimTime::from_nanos(3_000))
        .unwrap();
    assert_eq!((t.as_nanos(), ev), (2_000, Popped::Timer(9)));
    assert_eq!(front.next_merged_before(SimTime::from_nanos(3_000)), None);
    assert_eq!(
        front.now(),
        SimTime::from_nanos(2_000),
        "clock must not move on a miss"
    );
    assert_eq!(front.pending(), 1);
    let stats = front.queue_stats();
    assert_eq!(stats.points_popped, 0);
    assert_eq!(
        stats.pending_at_teardown, 0,
        "the pending point is not a wheel event"
    );
    assert!(stats.ledger_balanced());
}
