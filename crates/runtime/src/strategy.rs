//! The eight §III/§V consumer strategies on real OS threads.
//!
//! Each pair gets a producer thread that replays its trace against a
//! [`ReplayClock`] and a consumer thread implementing the strategy; PBPL
//! pairs additionally share a per-core [`NativeCoreManager`] thread and a
//! [`GlobalPool`]. Wakeups are counted at the blocking primitives (each
//! reported "this call blocked" is one thread sleep/wake cycle — the
//! PowerTop unit), usage via [`PairCounters::busy_timer`].

use crate::clock::ReplayClock;
use crate::counters::PairCounters;
use crate::manager::NativeCoreManager;
use parking_lot::{Condvar, Mutex};
use pc_core::{CostModel, PairId, PbplConfig, PbplConsumer};
use pc_queues::elastic::Overflow;
use pc_queues::semqueue::SemQueueConsumer;
use pc_queues::{spsc_ring, ElasticBuffer, GlobalPool, MutexQueue, SemQueue, Semaphore};
use pc_sim::SimTime;
use pc_trace::Trace;
use pc_trace_events::{TraceEvent, TraceHandle, Trigger as TraceTrigger};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long blocking consumers wait before re-checking the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Handle to one running pair (producer + consumer threads).
pub(crate) struct PairHandle {
    /// Shared counters for this pair.
    pub counters: Arc<PairCounters>,
    threads: Vec<JoinHandle<()>>,
    /// Wake hook used at shutdown (strategy-specific).
    waker: Option<Arc<Semaphore>>,
}

impl PairHandle {
    /// Joins the pair's threads (call after raising the stop flag).
    pub fn join(mut self) {
        if let Some(w) = self.waker.take() {
            w.release(1);
        }
        for t in self.threads.drain(..) {
            t.join().expect("strategy thread panicked");
        }
    }
}

/// Everything shared a pair needs at spawn time.
pub(crate) struct PairContext {
    /// Index of this pair.
    pub index: usize,
    /// The production timestamps to replay.
    pub trace: Trace,
    /// Replay pacing.
    pub clock: ReplayClock,
    /// Cooperative stop flag (set after the horizon elapses).
    pub stop: Arc<AtomicBool>,
    /// Base buffer capacity B₀.
    pub capacity: usize,
    /// PBPL only: this pair's core manager.
    pub manager: Option<Arc<NativeCoreManager>>,
    /// PBPL only: the shared global pool.
    pub pool: Option<Arc<GlobalPool>>,
    /// PBPL only: algorithm parameters.
    pub pbpl: Option<PbplConfig>,
    /// PBPL only: cost constants for ρ.
    pub cost: CostModel,
    /// Structured event-trace handle (disabled by default). Native
    /// emissions are stamped with replay-clock *sim* time, which is
    /// wall-derived — native traces support conservation checks, not
    /// bit-deterministic digests.
    pub trace_events: TraceHandle,
}

/// A pair's instrumentation, shared by its threads: the counters, and
/// trace events stamped with the replay clock's current sim time.
#[derive(Clone)]
struct Tap {
    counters: Arc<PairCounters>,
    events: TraceHandle,
    clock: ReplayClock,
    pair: u32,
}

impl Tap {
    fn new(ctx: &PairContext) -> Self {
        Tap {
            counters: Arc::new(PairCounters::new()),
            events: ctx.trace_events.clone(),
            clock: ctx.clock,
            pair: ctx.index as u32,
        }
    }

    fn emit(&self, make: impl FnOnce(u32) -> TraceEvent) {
        let pair = self.pair;
        self.events
            .record_at(self.clock.now_sim().as_nanos(), || make(pair));
    }

    /// One blocked-then-woken consumer thread (the PowerTop unit).
    fn wakeup(&self) {
        self.counters.add_wakeup();
        self.emit(|pair| TraceEvent::Wakeup { pair });
    }

    /// One invocation drained `batch` from a buffer of `capacity`.
    fn invoke(&self, trigger: TraceTrigger, batch: &[Instant], capacity: usize) {
        self.emit(|pair| TraceEvent::Invoke {
            pair,
            trigger,
            batch: batch.len() as u64,
            capacity: capacity as u64,
        });
        self.counters.consume(batch);
    }

    /// The consumer's final drain at shutdown.
    fn flush(&self, batch: &[Instant]) {
        self.counters.consume(batch);
        if !batch.is_empty() {
            self.emit(|pair| TraceEvent::Flush {
                pair,
                drained: batch.len() as u64,
            });
        }
    }

    fn handle(self, threads: Vec<JoinHandle<()>>, waker: Option<Arc<Semaphore>>) -> PairHandle {
        PairHandle {
            counters: self.counters,
            threads,
            waker,
        }
    }
}

/// Spawns `ctx`'s producer: replays its trace (taken out of `ctx`) and
/// hands each item's wall-clock stamp to `push`.
fn spawn_producer<F>(ctx: &mut PairContext, tap: &Tap, mut push: F) -> JoinHandle<()>
where
    F: FnMut(Instant) + Send + 'static,
{
    let trace = std::mem::replace(&mut ctx.trace, Trace::new(Vec::new(), SimTime::ZERO));
    let (stop, tap) = (Arc::clone(&ctx.stop), tap.clone());
    thread::spawn(move || {
        for &t in trace.times() {
            if !tap.clock.sleep_until_sim_or_stop(t, &stop, STOP_POLL) {
                break;
            }
            push(Instant::now());
            tap.counters.add_produced(1);
            tap.emit(|pair| TraceEvent::Produce { pair });
        }
    })
}

/// Spawns the busy-wait (BW) or yielding (Yield) pair.
pub(crate) fn spawn_busy(mut ctx: PairContext, yielding: bool) -> PairHandle {
    let tap = Tap::new(&ctx);
    // The ring here is plumbing, not the strategy's measured buffer: a
    // spinning consumer drains instantly, so the §III BW/Yield semantics
    // don't depend on B0. A roomy ring just keeps the producer's replay
    // timing honest.
    let (p, c) = spsc_ring::<Instant>(ctx.capacity.max(1024));
    let producer = spawn_producer(&mut ctx, &tap, move |at| {
        // Spin until space; the consumer spins too, so space appears fast.
        let mut v = at;
        while let Err(back) = p.push(v) {
            v = back;
            std::hint::spin_loop();
        }
    });
    let (ctap, stop) = (tap.clone(), ctx.stop);
    let consumer = thread::spawn(move || {
        let _busy = ctap.counters.busy_timer(); // busy for its whole life
        loop {
            match c.pop() {
                Some(at) => ctap.invoke(TraceTrigger::Item, &[at], 0),
                None => {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if yielding {
                        thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    });
    tap.handle(vec![producer, consumer], None)
}

/// The session-draining consumer endpoint: both the Mutex and Sem queues
/// expose the same batched blocking surface
/// ([`MutexQueue::pop_timeout_drain`] /
/// [`SemQueueConsumer::pop_timeout_drain`]), so one consumer loop serves
/// both.
trait ItemEndpoint: Send + 'static {
    /// Blocks (up to `timeout`) for the first item, then drains the whole
    /// session into `out` in one synchronisation transaction. Returns
    /// `Some((count, blocked))` or `None` on timeout.
    fn pop_session(&self, timeout: Duration, out: &mut Vec<Instant>) -> Option<(usize, bool)>;
    fn is_empty(&self) -> bool;
}

impl ItemEndpoint for Arc<MutexQueue<Instant>> {
    fn pop_session(&self, timeout: Duration, out: &mut Vec<Instant>) -> Option<(usize, bool)> {
        MutexQueue::pop_timeout_drain(self, timeout, out)
    }
    fn is_empty(&self) -> bool {
        MutexQueue::is_empty(self)
    }
}

impl ItemEndpoint for SemQueueConsumer<Instant> {
    fn pop_session(&self, timeout: Duration, out: &mut Vec<Instant>) -> Option<(usize, bool)> {
        SemQueueConsumer::pop_timeout_drain(self, timeout, out)
    }
    fn is_empty(&self) -> bool {
        SemQueueConsumer::is_empty(self)
    }
}

/// Spawns the Mutex strategy pair (bounded queue, condvars, item at a
/// time).
pub(crate) fn spawn_mutex(ctx: PairContext) -> PairHandle {
    let q = Arc::new(MutexQueue::<Instant>::new(ctx.capacity));
    let qp = Arc::clone(&q);
    spawn_item_pair(ctx, move |at| qp.push(at), q)
}

/// Spawns the Sem strategy pair (two semaphores over a circular buffer).
pub(crate) fn spawn_sem(ctx: PairContext) -> PairHandle {
    let (qp, qc) = SemQueue::<Instant>::new(ctx.capacity);
    spawn_item_pair(ctx, move |at| qp.push(at), qc)
}

/// An item-driven pair with the §III consumer loop: block for the first
/// item of a session (one thread wakeup), drain the rest of the session
/// in the same transaction, repeat — one lock (or semaphore
/// transaction) per session instead of one per item, without changing
/// the session semantics the wakeup/invocation counters observe.
fn spawn_item_pair<Q: ItemEndpoint, R>(
    mut ctx: PairContext,
    mut push: impl FnMut(Instant) -> R + Send + 'static,
    queue: Q,
) -> PairHandle {
    let tap = Tap::new(&ctx);
    let producer = spawn_producer(&mut ctx, &tap, move |at| {
        push(at);
    });
    let (ctap, stop, capacity) = (tap.clone(), ctx.stop, ctx.capacity);
    let consumer = thread::spawn(move || {
        let mut session: Vec<Instant> = Vec::with_capacity(capacity);
        loop {
            session.clear();
            match queue.pop_session(STOP_POLL, &mut session) {
                Some((_, blocked)) => {
                    if blocked {
                        ctap.wakeup();
                        ctap.counters.add_invocation(false, false);
                    }
                    let _busy = ctap.counters.busy_timer();
                    ctap.invoke(TraceTrigger::Item, &session, capacity);
                }
                None => {
                    if stop.load(Ordering::Relaxed) && queue.is_empty() {
                        break;
                    }
                }
            }
        }
    });
    tap.handle(vec![producer, consumer], None)
}

/// Shared buffer for the batching strategies: a mutex-guarded vector plus
/// a condvar the producer signals on "full" (BP) or "overflow"
/// (PBP/SPBP).
struct BatchBuffer {
    items: Mutex<Vec<Instant>>,
    signal: Condvar,
    capacity: usize,
}

impl BatchBuffer {
    fn new(capacity: usize) -> Self {
        BatchBuffer {
            items: Mutex::new(Vec::with_capacity(capacity)),
            signal: Condvar::new(),
            capacity,
        }
    }

    /// Pushes and reports whether the buffer is now at capacity.
    fn push(&self, at: Instant) -> bool {
        let mut items = self.items.lock();
        // The producer stalls while the consumer drains an overfull
        // buffer; with drain latencies in the microseconds this models
        // the paper's blocked producer without spinning.
        while items.len() >= self.capacity {
            drop(items);
            thread::yield_now();
            items = self.items.lock();
        }
        items.push(at);
        let full = items.len() >= self.capacity;
        drop(items);
        if full {
            self.signal.notify_one();
        }
        full
    }

    fn drain(&self, out: &mut Vec<Instant>) -> usize {
        let mut items = self.items.lock();
        let n = items.len();
        out.append(&mut items);
        n
    }
}

/// Spawns a batching pair's producer over a fresh [`BatchBuffer`].
fn spawn_batch_producer(ctx: &mut PairContext, tap: &Tap) -> (JoinHandle<()>, Arc<BatchBuffer>) {
    let buf = Arc::new(BatchBuffer::new(ctx.capacity));
    let bp = Arc::clone(&buf);
    let producer = spawn_producer(ctx, tap, move |at| {
        bp.push(at);
    });
    (producer, buf)
}

/// Spawns the BP pair: the consumer wakes only when the buffer fills.
pub(crate) fn spawn_bp(mut ctx: PairContext) -> PairHandle {
    let tap = Tap::new(&ctx);
    let (producer, buf) = spawn_batch_producer(&mut ctx, &tap);
    let (ctap, stop) = (tap.clone(), ctx.stop);
    let consumer = thread::spawn(move || {
        let mut batch = Vec::new();
        loop {
            {
                let mut items = buf.items.lock();
                while items.len() < buf.capacity {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    buf.signal.wait_for(&mut items, STOP_POLL);
                }
            }
            ctap.wakeup();
            batch.clear();
            let n = buf.drain(&mut batch);
            if n > 0 {
                ctap.counters.add_invocation(false, true); // every BP wake = overflow
                let _busy = ctap.counters.busy_timer();
                ctap.invoke(TraceTrigger::Overflow, &batch, buf.capacity);
            }
            if stop.load(Ordering::Relaxed) && n == 0 {
                break;
            }
        }
    });
    tap.handle(vec![producer, consumer], None)
}

/// Spawns a periodic batching pair. `precise` selects SPBP (spin-finish
/// timer) versus PBP (plain OS sleep with its jitter).
pub(crate) fn spawn_periodic(mut ctx: PairContext, period: SimTime, precise: bool) -> PairHandle {
    let tap = Tap::new(&ctx);
    let (producer, buf) = spawn_batch_producer(&mut ctx, &tap);
    let (ctap, stop) = (tap.clone(), ctx.stop);
    let consumer = thread::spawn(move || {
        let clock = ctap.clock;
        let mut batch = Vec::new();
        let mut next = period;
        loop {
            let deadline = clock.wall_deadline(next);
            // Wait out the period, but let a producer "full" signal break
            // in early (overflow handling, §III-A).
            let overflowed = {
                let mut items = buf.items.lock();
                if items.len() < buf.capacity {
                    if precise {
                        // SPBP: condvar until shortly before the deadline,
                        // then spin for signal-class accuracy.
                        let early = deadline - Duration::from_micros(200);
                        buf.signal.wait_until(&mut items, early);
                        let full = items.len() >= buf.capacity;
                        drop(items);
                        if !full {
                            crate::clock::precise_sleep_until(deadline);
                        }
                        full
                    } else {
                        // PBP: plain timed wait; whatever jitter the OS
                        // adds is the experiment.
                        !buf.signal.wait_until(&mut items, deadline).timed_out()
                            && items.len() >= buf.capacity
                    }
                } else {
                    true
                }
            };
            ctap.wakeup();
            batch.clear();
            buf.drain(&mut batch);
            ctap.counters.add_invocation(!overflowed, overflowed);
            let trigger = if overflowed {
                TraceTrigger::Overflow
            } else {
                TraceTrigger::Scheduled
            };
            {
                let _busy = ctap.counters.busy_timer();
                ctap.invoke(trigger, &batch, buf.capacity);
            }
            if !overflowed {
                next += period - SimTime::ZERO;
            }
            // Catch up if we fell behind a whole period.
            while clock.now_sim() > next {
                next += period - SimTime::ZERO;
            }
            if stop.load(Ordering::Relaxed) {
                batch.clear();
                buf.drain(&mut batch);
                ctap.flush(&batch);
                break;
            }
        }
    });
    tap.handle(vec![producer, consumer], None)
}

/// Spawns a PBPL pair: an elastic buffer against the shared pool, and a
/// consumer thread driving the shared [`PbplConsumer`] machine — rate
/// prediction, ρ-driven slot reservation through the core manager,
/// overrun upsizing and resizing, and (with `degrade.enabled`) the
/// prediction-error watchdog.
pub(crate) fn spawn_pbpl(mut ctx: PairContext) -> PairHandle {
    let cfg = ctx.pbpl.clone().expect("PBPL context requires a config");
    let manager = ctx
        .manager
        .clone()
        .expect("PBPL context requires a manager");
    let pool = ctx.pool.clone().expect("PBPL context requires a pool");
    let tap = Tap::new(&ctx);
    let min_cap =
        ((ctx.capacity as f64 * cfg.min_capacity_frac).ceil() as usize).clamp(1, ctx.capacity);
    let buffer = Arc::new(Mutex::new(
        ElasticBuffer::<Instant>::with_min(pool, ctx.capacity, min_cap)
            .expect("pool covers base reservations"),
    ));
    let waker = Arc::new(Semaphore::new(0));
    let overflowed = Arc::new(AtomicBool::new(false));
    manager.register(ctx.index, Arc::clone(&waker));
    manager.register_buffer(ctx.index, Arc::clone(&buffer));

    let (bp, pw, pov) = (
        Arc::clone(&buffer),
        Arc::clone(&waker),
        Arc::clone(&overflowed),
    );
    let producer = spawn_producer(&mut ctx, &tap, move |at| {
        let mut v = at;
        loop {
            let mut buf = bp.lock();
            match buf.push(v) {
                Ok(()) => return,
                Err(Overflow(back)) => {
                    v = back;
                    drop(buf);
                    // Unscheduled wakeup: the buffer is full before
                    // the reserved slot. Signal once per overflow
                    // episode — re-signalling on every retry would
                    // pile permits onto the semaphore and make the
                    // consumer spin through phantom wakeups.
                    if !pov.swap(true, Ordering::AcqRel) {
                        pw.release(1);
                    }
                    thread::yield_now();
                }
            }
        }
    });

    let (ctap, stop, cwaker) = (tap.clone(), ctx.stop, Arc::clone(&waker));
    let (index, base_capacity, cost) = (ctx.index, ctx.capacity, ctx.cost);
    let consumer = thread::spawn(move || {
        let mut machine = PbplConsumer::new(PairId(index), &cfg, cost, cfg.degrade.enabled);
        // Plans against the core's book and reserves the chosen slot.
        // Lock order: book, then buffer — the manager's dispatch takes
        // the book lock first and only `try_lock`s buffers, and
        // producers take only the buffer lock.
        let plan = |machine: &mut PbplConsumer, now, allow_shrink| {
            let choice = manager.with_book(|book| {
                let mut buf = buffer.lock();
                let max_latency = cfg.max_latency;
                machine.plan(
                    now,
                    book,
                    &mut buf,
                    base_capacity,
                    max_latency,
                    allow_shrink,
                )
            });
            manager.reserve(choice.slot, index);
        };
        // Bootstrap reservation so the manager has something to arm.
        plan(&mut machine, ctap.clock.now_sim(), true);
        let mut batch: Vec<Instant> = Vec::new();
        loop {
            if cwaker.acquire_timeout(STOP_POLL).is_some() {
                let now = ctap.clock.now_sim();
                ctap.wakeup();
                let was_overflow = overflowed.swap(false, Ordering::AcqRel);
                ctap.counters.add_invocation(!was_overflow, was_overflow);
                let _busy = ctap.counters.busy_timer();
                batch.clear();
                let capacity = {
                    let mut buf = buffer.lock();
                    buf.drain_into(&mut batch);
                    buf.capacity()
                };
                let trigger = if was_overflow {
                    TraceTrigger::Overflow
                } else {
                    TraceTrigger::Scheduled
                };
                ctap.invoke(trigger, &batch, capacity);
                // The §V-C consumer loop: observe, then predict, select,
                // resize and reserve.
                machine.invoke(batch.len() as u64, now, was_overflow);
                plan(&mut machine, now, !was_overflow);
            }
            if stop.load(Ordering::Relaxed) {
                // Final drain, after a quiet poll or while being woken
                // repeatedly — take any stragglers and exit rather than
                // waiting for a quiet window.
                batch.clear();
                buffer.lock().drain_into(&mut batch);
                ctap.flush(&batch);
                return;
            }
        }
    });
    tap.handle(vec![producer, consumer], Some(waker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_core::SlotTrack;
    use pc_power::PowerModel;
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;

    fn test_ctx(index: usize, horizon_ms: u64) -> (PairContext, Arc<AtomicBool>) {
        let cfg = WorldCupConfig {
            horizon: SimTime::from_millis(horizon_ms),
            mean_rate: 2_000.0,
            ..WorldCupConfig::quick_test()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = PairContext {
            index,
            trace: cfg.generate(7 + index as u64),
            clock: ReplayClock::start(1.0),
            stop: Arc::clone(&stop),
            capacity: 25,
            manager: None,
            pool: None,
            pbpl: None,
            cost: CostModel::from_power_model(&PowerModel::exynos_like()),
            trace_events: TraceHandle::disabled(),
        };
        (ctx, stop)
    }

    fn run_pair(
        spawn: impl FnOnce(PairContext) -> PairHandle,
        horizon_ms: u64,
    ) -> crate::counters::PairStats {
        let (ctx, stop) = test_ctx(0, horizon_ms);
        let clock = ctx.clock;
        let handle = spawn(ctx);
        let counters = Arc::clone(&handle.counters);
        crate::clock::precise_sleep_until(
            clock.wall_deadline(SimTime::from_millis(horizon_ms + 30)),
        );
        stop.store(true, Ordering::SeqCst);
        handle.join();
        counters.snapshot()
    }

    #[test]
    fn mutex_pair_consumes_everything() {
        let s = run_pair(spawn_mutex, 150);
        assert!(s.items_produced > 0);
        assert_eq!(s.items_produced, s.items_consumed);
        assert!(s.wakeups > 0);
        assert!(
            s.wakeups < s.items_consumed,
            "bursts must coalesce: {} wakeups for {} items",
            s.wakeups,
            s.items_consumed
        );
    }

    #[test]
    fn sem_pair_consumes_everything() {
        let s = run_pair(spawn_sem, 150);
        assert_eq!(s.items_produced, s.items_consumed);
    }

    #[test]
    fn busy_wait_pair_zero_wakeups() {
        let s = run_pair(|ctx| spawn_busy(ctx, false), 100);
        assert_eq!(s.items_produced, s.items_consumed);
        assert_eq!(s.wakeups, 0);
        assert!(s.busy >= SimDuration::from_millis(80), "busy {}", s.busy);
    }

    #[test]
    fn bp_pair_batches_at_capacity() {
        let s = run_pair(spawn_bp, 200);
        assert_eq!(s.items_produced, s.items_consumed);
        assert!(s.overflows > 0, "BP wakes are overflows");
        // Mean batch ≈ capacity (final partial drain allowed).
        let mean_batch = s.items_consumed as f64 / s.invocations.max(1) as f64;
        assert!(mean_batch > 15.0, "mean batch {mean_batch}");
    }

    #[test]
    fn periodic_pair_scheduled_wakes() {
        let s = run_pair(
            |ctx| spawn_periodic(ctx, SimTime::from_millis(10), true),
            200,
        );
        assert_eq!(s.items_produced, s.items_consumed);
        assert!(s.scheduled > 0, "periodic fires must be scheduled");
    }

    #[test]
    fn pbpl_pair_end_to_end() {
        let clock = ReplayClock::start(1.0);
        let track = SlotTrack::new(SimDuration::from_millis(10));
        let manager = NativeCoreManager::new(track, clock);
        let mgr_thread = {
            let m = Arc::clone(&manager);
            thread::spawn(move || m.run())
        };
        let pool = GlobalPool::new(25 * 2);
        let (mut ctx, stop) = test_ctx(0, 200);
        ctx.clock = clock;
        ctx.manager = Some(Arc::clone(&manager));
        ctx.pool = Some(Arc::clone(&pool));
        ctx.pbpl = Some(PbplConfig {
            slot: SimDuration::from_millis(10),
            max_latency: SimDuration::from_millis(50),
            ..PbplConfig::default()
        });
        let handle = spawn_pbpl(ctx);
        let counters = Arc::clone(&handle.counters);
        crate::clock::precise_sleep_until(clock.wall_deadline(SimTime::from_millis(260)));
        stop.store(true, Ordering::SeqCst);
        handle.join();
        manager.shutdown();
        mgr_thread.join().unwrap();
        let s = counters.snapshot();
        assert!(s.items_produced > 0);
        assert_eq!(s.items_produced, s.items_consumed);
        assert!(s.scheduled > 0, "slot wakes must fire");
        assert!(
            s.invocations < s.items_consumed,
            "PBPL must batch: {} invocations for {} items",
            s.invocations,
            s.items_consumed
        );
        // Pool conservation after teardown: buffer dropped inside the
        // threads? The buffer lives in Arc<Mutex<..>> dropped with the
        // handle; by now all clones are gone.
        assert_eq!(pool.available(), pool.total());
    }
}
