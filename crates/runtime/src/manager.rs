//! The native PBPL core-manager thread (§V-B on real threads).
//!
//! One manager thread per (virtual) core owns the core's slot
//! reservation book and a single armed deadline: the earliest reserved
//! slot. Consumers reserve slots through the shared handle; if a new
//! reservation is earlier than the armed deadline the manager is nudged
//! through its condvar and re-arms — the same cancel/re-arm dance the
//! simulator's `ensure_scheduled` performs. At each slot deadline the
//! manager releases every due consumer's wake semaphore: one timer
//! expiry, many consumer invocations — group latching in the flesh.
//!
//! The book, waker table and buffer table sit behind one mutex. The
//! armed deadline is coordinated through a separate generation counter
//! (`arm`) so reserve/shutdown never race the scan-then-wait window.

use crate::clock::ReplayClock;
use parking_lot::{Condvar, Mutex};
use pc_core::{CoreManager, PairId, SlotTrack};
use pc_queues::{ElasticBuffer, Semaphore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;

struct State {
    book: CoreManager,
    wakers: HashMap<usize, Arc<Semaphore>>,
    /// Consumers' buffers, for the piggyback occupancy check.
    buffers: HashMap<usize, Arc<Mutex<ElasticBuffer<Instant>>>>,
}

/// Shared handle to one core's slot-reservation manager.
pub struct NativeCoreManager {
    track: SlotTrack,
    state: Mutex<State>,
    /// Arm-generation counter: bumped (under its lock) by every reserve
    /// and by shutdown, so the run loop can tell whether its book scan
    /// went stale before it parked on the condvar.
    arm: Mutex<u64>,
    nudge: Condvar,
    clock: ReplayClock,
    stop: AtomicBool,
    slot_fires: AtomicU64,
}

impl NativeCoreManager {
    /// Creates a manager over `track`, pacing slots with `clock`.
    pub fn new(track: SlotTrack, clock: ReplayClock) -> Arc<Self> {
        Arc::new(NativeCoreManager {
            track,
            state: Mutex::new(State {
                book: CoreManager::new(track),
                wakers: HashMap::new(),
                buffers: HashMap::new(),
            }),
            arm: Mutex::new(0),
            nudge: Condvar::new(),
            clock,
            stop: AtomicBool::new(false),
            slot_fires: AtomicU64::new(0),
        })
    }

    /// Bumps the arm generation and wakes the manager thread. Called
    /// after any change that can move the earliest deadline.
    fn bump(&self) {
        let mut gen = self.arm.lock();
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.nudge.notify_all();
    }

    /// Registers the semaphore a consumer waits on.
    pub fn register(&self, consumer: usize, waker: Arc<Semaphore>) {
        self.state.lock().wakers.insert(consumer, waker);
    }

    /// Registers the consumer's buffer so slot fires can piggyback
    /// neighbours with meaningful batches (§V-A group latching — same
    /// rule as the simulator: occupancy ≥ capacity/8).
    pub fn register_buffer(&self, consumer: usize, buffer: Arc<Mutex<ElasticBuffer<Instant>>>) {
        self.state.lock().buffers.insert(consumer, buffer);
    }

    /// Reserves `slot` for `consumer`, nudging the manager thread in
    /// case the new slot is earlier than the armed one.
    pub fn reserve(&self, slot: u64, consumer: usize) {
        self.state.lock().book.reserve(slot, PairId(consumer));
        self.bump();
    }

    /// Runs a read-only query against the reservation book (used by the
    /// consumer's slot selection).
    pub fn with_book<R>(&self, f: impl FnOnce(&CoreManager) -> R) -> R {
        f(&self.state.lock().book)
    }

    /// Number of slot deadlines that actually fired.
    pub fn slot_fires(&self) -> u64 {
        self.slot_fires.load(Ordering::Relaxed)
    }

    /// Signals the manager thread to exit after waking all waiters.
    pub fn shutdown(&self) {
        // Order matters: stop is set before the generation bump, so the
        // run loop — which re-checks stop under the arm lock after
        // validating its generation snapshot — can never park after
        // shutdown has begun.
        self.stop.store(true, Ordering::SeqCst);
        // Release buffer handles so the consumers' elastic buffers drop
        // (and return their pool units) once the pair handles go away.
        self.state.lock().buffers.clear();
        self.bump();
    }

    /// One slot fire: take the due list, then piggyback fullish
    /// neighbours while the core is awake anyway.
    fn dispatch(&self, slot: u64) {
        let mut wakers: Vec<Arc<Semaphore>> = Vec::new();
        {
            let mut st = self.state.lock();
            let due = st.book.take_due(slot);
            wakers.extend(due.iter().filter_map(|c| st.wakers.get(&c.0).cloned()));
            if !wakers.is_empty() {
                // The core is awake anyway: piggyback neighbours whose
                // batches are worth a dispatch.
                for (&other, buffer) in st.buffers.iter() {
                    if due.contains(&PairId(other)) {
                        continue;
                    }
                    let worth = buffer
                        .try_lock()
                        .map(|b| b.len() * 8 >= b.capacity() && !b.is_empty())
                        .unwrap_or(false);
                    if worth {
                        if let Some(w) = st.wakers.get(&other) {
                            wakers.push(Arc::clone(w));
                        }
                    }
                }
                self.slot_fires.fetch_add(1, Ordering::Relaxed);
            }
        }
        for w in wakers {
            w.release(1);
        }
    }

    /// The manager thread body: arm the earliest reserved slot, wait,
    /// and dispatch. Returns when
    /// [`NativeCoreManager::shutdown`] is called.
    pub fn run(self: &Arc<Self>) {
        loop {
            // Snapshot the generation, then scan. If anything bumps the
            // generation between snapshot and wait, the re-check below
            // sends us back around instead of parking on a stale scan.
            let snapshot = *self.arm.lock();
            let next = self.state.lock().book.first_reserved();
            let mut gen = self.arm.lock();
            if *gen != snapshot {
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match next {
                None => {
                    // Nothing reserved: doze until a reservation arrives.
                    self.nudge.wait_for(&mut gen, Duration::from_millis(20));
                }
                Some(slot) => {
                    let deadline = self.clock.wall_deadline(self.track.slot_start(slot));
                    let timed_out = self.nudge.wait_until(&mut gen, deadline).timed_out();
                    if !timed_out {
                        // Nudged: a new (possibly earlier) reservation or
                        // shutdown; re-evaluate.
                        continue;
                    }
                    drop(gen);
                    self.dispatch(slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_sim::SimDuration;
    use std::thread;
    use std::time::Instant;

    fn track_ms(delta: u64) -> SlotTrack {
        SlotTrack::new(SimDuration::from_millis(delta))
    }

    #[test]
    fn fires_reserved_slot_and_wakes_consumer() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let sem = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&sem));
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        // Reserve slot 2 (t = 20ms).
        mgr.reserve(2, 0);
        let got = sem.acquire_timeout(Duration::from_millis(500));
        assert!(got.is_some(), "consumer must be woken at its slot");
        assert_eq!(mgr.slot_fires(), 1);
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn earlier_reservation_preempts_armed_slot() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let far = Arc::new(Semaphore::new(0));
        let near = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&far));
        mgr.register(1, Arc::clone(&near));
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        mgr.reserve(30, 0); // t = 300ms
        thread::sleep(Duration::from_millis(5));
        mgr.reserve(3, 1); // t = 30ms — earlier, must preempt
        let t0 = Instant::now();
        assert!(near.acquire_timeout(Duration::from_millis(500)).is_some());
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "near slot must fire promptly, not after the far one"
        );
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn group_wake_releases_all_due_consumers() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(5), clock);
        let sems: Vec<Arc<Semaphore>> = (0..3).map(|_| Arc::new(Semaphore::new(0))).collect();
        for (i, s) in sems.iter().enumerate() {
            mgr.register(i, Arc::clone(s));
        }
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        for i in 0..3 {
            mgr.reserve(4, i); // all latch slot 4 (t = 20ms)
        }
        for s in &sems {
            assert!(s.acquire_timeout(Duration::from_millis(500)).is_some());
        }
        assert_eq!(mgr.slot_fires(), 1, "one timer fire served all three");
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn every_consumer_queries_the_whole_book() {
        // One book per core: a consumer's slot selection sees every
        // other consumer's reservation, so it can latch onto any of them.
        let mgr = NativeCoreManager::new(track_ms(10), ReplayClock::start(1.0));
        mgr.reserve(4, 0);
        mgr.reserve(4, 1);
        mgr.reserve(9, 2);
        mgr.with_book(|book| {
            assert_eq!(book.pending(), 3);
            assert_eq!(book.first_reserved(), Some(4));
            assert!(book.has_reservation_excluding(4, PairId(0)));
            assert!(!book.has_reservation_excluding(9, PairId(2)));
            assert_eq!(book.latest_reserved_in_excluding(0, 10, PairId(2)), Some(4));
            assert_eq!(book.take_count_at(4), 2);
        });
    }

    #[test]
    fn earliest_slot_fires_first_when_reserved_before_the_loop() {
        // Both reservations exist before the run loop's first scan; it
        // must arm the earlier slot, whoever reserved it.
        let mgr = NativeCoreManager::new(track_ms(10), ReplayClock::start(1.0));
        let far = Arc::new(Semaphore::new(0));
        let near = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&far));
        mgr.register(1, Arc::clone(&near));
        mgr.reserve(40, 0); // t = 400ms
        mgr.reserve(3, 1); // t = 30ms
        let t0 = Instant::now();
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        assert!(near.acquire_timeout(Duration::from_millis(500)).is_some());
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "the earlier slot must not wait behind the later one"
        );
        assert!(
            far.acquire_timeout(Duration::from_millis(1)).is_none(),
            "the far slot is not due yet"
        );
        assert_eq!(mgr.slot_fires(), 1);
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn each_distinct_slot_costs_one_fire() {
        let mgr = NativeCoreManager::new(track_ms(5), ReplayClock::start(1.0));
        let sems: Vec<Arc<Semaphore>> = (0..3).map(|_| Arc::new(Semaphore::new(0))).collect();
        for (i, s) in sems.iter().enumerate() {
            mgr.register(i, Arc::clone(s));
        }
        mgr.reserve(4, 0);
        mgr.reserve(6, 1);
        mgr.reserve(4, 2);
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        for s in &sems {
            assert!(s.acquire_timeout(Duration::from_millis(500)).is_some());
        }
        assert_eq!(mgr.slot_fires(), 2, "slots 4 and 6, one fire each");
        mgr.with_book(|book| assert_eq!(book.pending(), 0));
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn slot_fire_piggybacks_fullish_neighbour() {
        use pc_queues::GlobalPool;
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let due_sem = Arc::new(Semaphore::new(0));
        let neighbour_sem = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&due_sem));
        mgr.register(1, Arc::clone(&neighbour_sem));
        // Neighbour 1 has a half-full buffer but its own reservation is
        // far away; the fire for consumer 0 must carry it along.
        let pool = GlobalPool::new(50);
        let buffer = Arc::new(Mutex::new(
            ElasticBuffer::<Instant>::new(Arc::clone(&pool), 25).unwrap(),
        ));
        for _ in 0..12 {
            buffer.lock().push(Instant::now()).unwrap();
        }
        mgr.register_buffer(1, Arc::clone(&buffer));
        mgr.reserve(2, 0); // fires at 20ms
        mgr.reserve(1000, 1); // far future
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        assert!(due_sem
            .acquire_timeout(Duration::from_millis(500))
            .is_some());
        assert!(
            neighbour_sem
                .acquire_timeout(Duration::from_millis(100))
                .is_some(),
            "fullish neighbour must be piggybacked on the same fire"
        );
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn empty_neighbour_is_not_piggybacked() {
        use pc_queues::GlobalPool;
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let due_sem = Arc::new(Semaphore::new(0));
        let neighbour_sem = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&due_sem));
        mgr.register(1, Arc::clone(&neighbour_sem));
        let pool = GlobalPool::new(50);
        let buffer = Arc::new(Mutex::new(
            ElasticBuffer::<Instant>::new(Arc::clone(&pool), 25).unwrap(),
        ));
        mgr.register_buffer(1, Arc::clone(&buffer));
        mgr.reserve(2, 0);
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        assert!(due_sem
            .acquire_timeout(Duration::from_millis(500))
            .is_some());
        assert!(
            neighbour_sem
                .acquire_timeout(Duration::from_millis(50))
                .is_none(),
            "an empty buffer is not worth a dispatch"
        );
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn shutdown_terminates_idle_manager() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        thread::sleep(Duration::from_millis(10));
        mgr.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn shutdown_terminates_manager_with_pending_work() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        mgr.reserve(100_000, 2); // far-future reservation
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        thread::sleep(Duration::from_millis(10));
        mgr.shutdown();
        runner.join().unwrap();
    }
}
