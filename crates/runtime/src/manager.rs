//! The native PBPL core-manager thread (§V-B on real threads).
//!
//! One manager thread per (virtual) core owns the core's slot
//! reservation book and one kernel timer, a [`SlotTimer`], armed at the
//! book's earliest reserved slot. The manager wakes only when that timer
//! expires. Any thread whose reservation changes the earliest slot
//! re-arms the timer under the book's lock — the cancel/re-arm dance the
//! simulator's `ensure_scheduled` performs — and re-arming never wakes
//! the manager. At each expiry the manager dispatches every slot whose
//! wall deadline has passed, releasing each due consumer's wake
//! semaphore (one timer expiry, many consumer invocations — group
//! latching in the flesh), then re-arms for the next slot.
//!
//! The book, the waker and buffer tables and the stop flag sit behind
//! one mutex, and every timer setting is made under it, so the armed
//! expiry always matches the book. Shutdown sets the flag and fires the
//! timer under that lock: a reservation after it cannot re-arm the
//! timer past the shutdown.

use crate::clock::{ReplayClock, SlotTimer};
use parking_lot::Mutex;
use pc_core::{CoreManager, PairId, SlotTrack};
use pc_queues::{ElasticBuffer, Semaphore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct State {
    book: CoreManager,
    wakers: HashMap<usize, Arc<Semaphore>>,
    /// Consumers' buffers, for the piggyback occupancy check.
    buffers: HashMap<usize, Arc<Mutex<ElasticBuffer<Instant>>>>,
    /// Set by [`NativeCoreManager::shutdown`].
    stopped: bool,
}

/// Shared handle to one core's slot-reservation manager.
pub(crate) struct NativeCoreManager {
    track: SlotTrack,
    state: Mutex<State>,
    /// Armed at the wall deadline of the book's earliest slot (disarmed
    /// when the book is empty); set only under the `state` lock.
    timer: SlotTimer,
    clock: ReplayClock,
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
                stopped: false,
            }),
            timer: SlotTimer::new(),
            clock,
            slot_fires: AtomicU64::new(0),
        })
    }

    /// The wall instant `slot` starts.
    fn deadline(&self, slot: u64) -> Instant {
        self.clock.wall_deadline(self.track.slot_start(slot))
    }

    /// Registers the semaphore a consumer waits on.
    pub(crate) fn register(&self, consumer: usize, waker: Arc<Semaphore>) {
        self.state.lock().wakers.insert(consumer, waker);
    }

    /// Registers the consumer's buffer so slot fires can piggyback
    /// neighbours with meaningful batches (§V-A group latching — same
    /// rule as the simulator: occupancy ≥ capacity/8).
    pub(crate) fn register_buffer(
        &self,
        consumer: usize,
        buffer: Arc<Mutex<ElasticBuffer<Instant>>>,
    ) {
        self.state.lock().buffers.insert(consumer, buffer);
    }

    /// Reserves `slot` for `consumer`, replacing its previous
    /// reservation. If that moves the book's earliest slot, the timer is
    /// re-armed for it; the manager thread is not woken.
    pub fn reserve(&self, slot: u64, consumer: usize) {
        let mut st = self.state.lock();
        let first = st.book.first_reserved();
        st.book.reserve(slot, PairId(consumer));
        let now_first = st.book.first_reserved();
        if now_first != first && !st.stopped {
            self.timer.arm(now_first.map(|s| self.deadline(s)));
        }
    }

    /// Runs a read-only query against the reservation book (used by the
    /// consumer's slot selection).
    pub(crate) fn with_book<R>(&self, f: impl FnOnce(&CoreManager) -> R) -> R {
        f(&self.state.lock().book)
    }

    /// Number of slot deadlines that actually fired.
    pub fn slot_fires(&self) -> u64 {
        self.slot_fires.load(Ordering::Relaxed)
    }

    /// Makes the manager thread exit at once, whatever its book holds.
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock();
        st.stopped = true;
        // Release buffer handles so the consumers' elastic buffers drop
        // (and return their pool units) once the pair handles go away.
        st.buffers.clear();
        self.timer.fire();
    }

    /// One expiry: dispatch every slot whose deadline has passed, then
    /// arm the timer for the next one. Each slot fire takes the slot's
    /// due list and piggybacks fullish neighbours while the core is
    /// awake anyway; the wakers to release are appended to `wakers`.
    fn dispatch_due(&self, st: &mut State, wakers: &mut Vec<Arc<Semaphore>>) {
        let now = Instant::now();
        let mut next = st.book.first_reserved();
        while let Some(slot) = next.filter(|&s| self.deadline(s) <= now) {
            let due = st.book.take_due(slot);
            let before = wakers.len();
            wakers.extend(due.iter().filter_map(|c| st.wakers.get(&c.0).cloned()));
            if wakers.len() > before {
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
            next = st.book.first_reserved();
        }
        self.timer.arm(next.map(|s| self.deadline(s)));
    }

    /// The manager thread body: block on the timer, dispatch what is
    /// due, repeat. Returns, after [`NativeCoreManager::shutdown`], the
    /// number of times the thread woke from the timer.
    pub fn run(&self) -> u64 {
        let mut wakes = 0;
        let mut wakers: Vec<Arc<Semaphore>> = Vec::new();
        loop {
            self.timer.wait();
            wakes += 1;
            {
                let mut st = self.state.lock();
                if st.stopped {
                    return wakes;
                }
                self.dispatch_due(&mut st, &mut wakers);
            }
            for w in wakers.drain(..) {
                w.release(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_sim::SimDuration;
    use std::thread;
    use std::time::Duration;

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
    fn moving_the_earliest_slot_later_costs_no_wake() {
        let clock = ReplayClock::start(1.0);
        let mgr = NativeCoreManager::new(track_ms(10), clock);
        let sem = Arc::new(Semaphore::new(0));
        mgr.register(0, Arc::clone(&sem));
        let runner = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.run())
        };
        mgr.reserve(2, 0); // t = 20ms
        mgr.reserve(6, 0); // replaced: t = 60ms
        assert!(sem.acquire_timeout(Duration::from_millis(500)).is_some());
        assert!(Instant::now() >= clock.wall_deadline(track_ms(10).slot_start(6)));
        mgr.shutdown();
        let wakes = runner.join().unwrap();
        assert_eq!(mgr.slot_fires(), 1);
        assert_eq!(wakes, 2, "one expiry for slot 6, one for the shutdown");
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
