//! The eight §III/§V consumer strategies on real OS threads.
//!
//! Each pair gets a producer thread that replays its trace against a
//! [`ReplayClock`] and a consumer thread implementing the strategy; PBPL
//! pairs additionally share a per-core [`NativeCoreManager`] thread and a
//! [`GlobalPool`]. Wakeups are counted at the blocking primitives (each
//! reported "this call blocked" is one thread sleep/wake cycle — the
//! PowerTop unit), usage via [`PairCounters::busy_timer`]. Every thread
//! reports its own CPU time and OS wake count as it exits, and each
//! producer how late it ran against its replay schedule. An item's
//! latency runs from its scheduled wall deadline, as in the simulator,
//! so time a producer spends parked behind a full buffer counts too.
//!
//! A pair stops one way whatever its strategy: the stop signal ends the
//! producer's replay, and [`PairHandle::join`] joins the producer and
//! then closes the pair's buffer. The close wakes the consumer through
//! the strategy's own primitive, and the consumer finishes once its
//! buffer is closed and empty, so its last drain follows both the stop
//! and the last push. No thread polls for the stop.

use crate::clock::{thread_cpu, ReplayClock, StopSignal};
use crate::counters::PairCounters;
use crate::manager::NativeCoreManager;
use parking_lot::{Condvar, Mutex};
use pc_core::{CostModel, PairId, PbplConfig, PbplConsumer};
use pc_queues::elastic::Overflow;
use pc_queues::semqueue::{SemQueueConsumer, SemQueueProducer};
use pc_queues::{spsc_ring, ElasticBuffer, GlobalPool, MutexQueue, SemQueue, Semaphore};
use pc_sim::SimTime;
use pc_trace::Trace;
use pc_trace_events::{TraceEvent, TraceHandle, Trigger as TraceTrigger};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Closes a pair's buffer (see [`Sink::close`]).
type Close = Box<dyn FnOnce() + Send>;

/// Handle to one running pair (producer + consumer threads).
pub(crate) struct PairHandle {
    /// Shared counters for this pair.
    pub counters: Arc<PairCounters>,
    /// Reports its share of the [`PairExit`] (no consumer fields) and
    /// hands back the close of the pair's buffer.
    producer: JoinHandle<(PairExit, Close)>,
    /// Reports the consumer thread's CPU time and wakes.
    consumer: JoinHandle<(Duration, u64)>,
}

/// What a pair's threads report as they exit.
pub(crate) struct PairExit {
    /// Producer thread CPU time.
    pub producer_cpu: Duration,
    /// Consumer thread CPU time.
    pub consumer_cpu: Duration,
    /// Producer thread returns from blocking calls: replay sleeps that
    /// waited, and parks on a full buffer.
    pub producer_wakes: u64,
    /// Consumer thread returns from blocking waits, the one the close
    /// ends included.
    pub consumer_wakes: u64,
    /// Per produced item: push instant minus scheduled wall deadline, ns
    /// (unsorted).
    pub lateness_ns: Vec<u64>,
}

impl PairHandle {
    /// Joins the pair's threads (call after raising the stop flag): the
    /// producer, then the consumer, which the close of the buffer in
    /// between lets finish.
    pub fn join(self) -> PairExit {
        let (producer, close) = self.producer.join().expect("producer thread panicked");
        close();
        let (consumer_cpu, consumer_wakes) =
            self.consumer.join().expect("consumer thread panicked");
        PairExit {
            consumer_cpu,
            consumer_wakes,
            ..producer
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
    /// Stop signal (raised after the horizon elapses).
    pub stop: Arc<StopSignal>,
    /// Base buffer capacity B₀.
    pub capacity: usize,
    /// PBPL only: this pair's core manager.
    pub manager: Option<Arc<NativeCoreManager>>,
    /// PBPL only: the pair's elastic buffer (see [`pbpl_buffer`]).
    pub buffer: Option<ElasticBuffer<Instant>>,
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

/// A pair's instrumentation and stop signal, shared by its threads: the
/// counters, trace events stamped with the replay clock's current sim
/// time, and the signal that ends the replay.
#[derive(Clone)]
struct Tap {
    counters: Arc<PairCounters>,
    events: TraceHandle,
    clock: ReplayClock,
    pair: u32,
    stop: Arc<StopSignal>,
}

impl Tap {
    fn new(ctx: &PairContext) -> Self {
        Tap {
            counters: Arc::new(PairCounters::new()),
            events: ctx.trace_events.clone(),
            clock: ctx.clock,
            pair: ctx.index as u32,
            stop: Arc::clone(&ctx.stop),
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

    fn handle(
        self,
        producer: JoinHandle<(PairExit, Close)>,
        consumer: JoinHandle<(Duration, u64)>,
    ) -> PairHandle {
        PairHandle {
            counters: self.counters,
            producer,
            consumer,
        }
    }
}

/// The producer's end of a pair's buffer.
trait Sink: Send + 'static {
    /// Pushes an item stamped with its wall deadline; returns how many
    /// times the producer parked on a full buffer.
    fn push(&self, at: Instant) -> u64;
    /// Closes the buffer after the last push. The consumer's wait ends
    /// through the strategy's own primitive, and the consumer finishes
    /// once the buffer is closed and empty.
    fn close(self);
}

/// A push closure and a close closure.
impl<P, C> Sink for (P, C)
where
    P: Fn(Instant) -> u64 + Send + 'static,
    C: FnOnce() + Send + 'static,
{
    fn push(&self, at: Instant) -> u64 {
        (self.0)(at)
    }
    fn close(self) {
        (self.1)()
    }
}

/// Spawns `ctx`'s producer: replays its trace (taken out of `ctx`),
/// sleeping until each item's wall deadline, and pushes each item into
/// `sink` stamped with that deadline. When the replay ends it hands the
/// sink's close back to [`PairHandle::join`].
fn spawn_producer(
    ctx: &mut PairContext,
    tap: &Tap,
    sink: impl Sink,
) -> JoinHandle<(PairExit, Close)> {
    let trace = std::mem::replace(&mut ctx.trace, Trace::new(Vec::new(), SimTime::ZERO));
    let tap = tap.clone();
    thread::spawn(move || {
        let mut lateness_ns = Vec::with_capacity(trace.len());
        let mut wakes = 0;
        for &t in trace.times() {
            let due = tap.clock.wall_deadline(t);
            match tap.stop.sleep_until(due) {
                Some(slept) => wakes += slept,
                None => break,
            }
            let late = Instant::now().saturating_duration_since(due);
            lateness_ns.push(late.as_nanos().min(u64::MAX as u128) as u64);
            wakes += sink.push(due);
            tap.counters.add_produced(1);
            tap.emit(|pair| TraceEvent::Produce { pair });
        }
        let exit = PairExit {
            producer_cpu: thread_cpu(),
            consumer_cpu: Duration::ZERO,
            producer_wakes: wakes,
            consumer_wakes: 0,
            lateness_ns,
        };
        let close: Close = Box::new(move || sink.close());
        (exit, close)
    })
}

/// Spawns a consumer thread running `body`, which returns its wake
/// count; the handle yields the thread's CPU time and that count.
fn spawn_consumer(body: impl FnOnce() -> u64 + Send + 'static) -> JoinHandle<(Duration, u64)> {
    thread::spawn(move || {
        let wakes = body();
        (thread_cpu(), wakes)
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
    let closed = Arc::new(AtomicBool::new(false));
    let push = move |at| {
        // Spin until space; the consumer spins too, so space appears fast.
        let mut v = at;
        while let Err(back) = p.push(v) {
            v = back;
            std::hint::spin_loop();
        }
        0
    };
    let pclosed = Arc::clone(&closed);
    let close = move || pclosed.store(true, Ordering::Release);
    let producer = spawn_producer(&mut ctx, &tap, (push, close));
    let ctap = tap.clone();
    let consumer = spawn_consumer(move || {
        let _busy = ctap.counters.busy_timer(); // busy for its whole life
        loop {
            // Read before the pop, so an empty pop after it is final.
            let closed = closed.load(Ordering::Acquire);
            match c.pop() {
                Some(at) => ctap.invoke(TraceTrigger::Item, &[at], 0),
                None => {
                    if closed {
                        return 0; // it never blocks
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
    tap.handle(producer, consumer)
}

impl Sink for Arc<MutexQueue<Instant>> {
    fn push(&self, at: Instant) -> u64 {
        u64::from(MutexQueue::push(self, at))
    }
    fn close(self) {
        MutexQueue::close(&self);
    }
}

impl Sink for SemQueueProducer<Instant> {
    fn push(&self, at: Instant) -> u64 {
        u64::from(SemQueueProducer::push(self, at))
    }
    fn close(self) {
        SemQueueProducer::close(self);
    }
}

/// The session-draining consumer endpoint: both the Mutex and Sem queues
/// expose the same batched blocking surface ([`MutexQueue::pop_drain`] /
/// [`SemQueueConsumer::pop_drain`]), so one consumer loop serves both.
trait ItemEndpoint: Send + 'static {
    /// Blocks for the first item, then drains the whole session into
    /// `out` in one synchronisation transaction. Returns `Some((count,
    /// blocked))`, or `None` once the queue is closed and empty.
    fn pop_session(&self, out: &mut Vec<Instant>) -> Option<(usize, bool)>;
}

impl ItemEndpoint for Arc<MutexQueue<Instant>> {
    fn pop_session(&self, out: &mut Vec<Instant>) -> Option<(usize, bool)> {
        MutexQueue::pop_drain(self, out)
    }
}

impl ItemEndpoint for SemQueueConsumer<Instant> {
    fn pop_session(&self, out: &mut Vec<Instant>) -> Option<(usize, bool)> {
        SemQueueConsumer::pop_drain(self, out)
    }
}

/// Spawns the Mutex strategy pair (bounded queue, condvars, item at a
/// time).
pub(crate) fn spawn_mutex(ctx: PairContext) -> PairHandle {
    let q = Arc::new(MutexQueue::<Instant>::new(ctx.capacity));
    spawn_item_pair(ctx, Arc::clone(&q), q)
}

/// Spawns the Sem strategy pair (two semaphores over a circular buffer).
pub(crate) fn spawn_sem(ctx: PairContext) -> PairHandle {
    let (qp, qc) = SemQueue::<Instant>::new(ctx.capacity);
    spawn_item_pair(ctx, qp, qc)
}

/// An item-driven pair with the §III consumer loop: block for the first
/// item of a session (one thread wakeup), drain the rest of the session
/// in the same transaction, repeat — one lock (or semaphore
/// transaction) per session instead of one per item, without changing
/// the session semantics the wakeup/invocation counters observe.
fn spawn_item_pair(mut ctx: PairContext, sink: impl Sink, queue: impl ItemEndpoint) -> PairHandle {
    let tap = Tap::new(&ctx);
    let producer = spawn_producer(&mut ctx, &tap, sink);
    let (ctap, capacity) = (tap.clone(), ctx.capacity);
    let consumer = spawn_consumer(move || {
        let mut session: Vec<Instant> = Vec::with_capacity(capacity);
        let mut wakes = 0;
        loop {
            session.clear();
            let popped = queue.pop_session(&mut session);
            wakes += 1;
            let Some((_, blocked)) = popped else {
                return wakes; // closed and empty
            };
            if blocked {
                ctap.wakeup();
                ctap.counters.add_invocation(false, false);
            }
            let _busy = ctap.counters.busy_timer();
            ctap.invoke(TraceTrigger::Item, &session, capacity);
        }
    });
    tap.handle(producer, consumer)
}

/// Shared buffer for the batching strategies: a mutex-guarded vector, a
/// condvar the producer signals on "full" (BP) or "overflow" (PBP/SPBP)
/// and on the close, and one the consumer signals after each drain.
struct BatchBuffer {
    items: Mutex<Vec<Instant>>,
    /// Set by the close, under the `items` lock, so a consumer waiting
    /// on `signal` cannot miss it.
    closed: AtomicBool,
    signal: Condvar,
    space: Condvar,
    capacity: usize,
}

impl BatchBuffer {
    fn new(capacity: usize) -> Self {
        BatchBuffer {
            items: Mutex::new(Vec::with_capacity(capacity)),
            closed: AtomicBool::new(false),
            signal: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Whether the close has happened. Acquire pairs with the close's
    /// Release store, so a consumer that reads `true` outside the lock
    /// and then drains sees every item pushed before the close.
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Pushes, signalling the consumer if the buffer is now at
    /// capacity; returns how many times the producer parked.
    fn push(&self, at: Instant) -> u64 {
        let mut items = self.items.lock();
        // The producer parks while the buffer is full, until the
        // consumer's next drain: this models the paper's blocked
        // producer without spinning.
        let mut parks = 0;
        while items.len() >= self.capacity {
            self.space.wait(&mut items);
            parks += 1;
        }
        items.push(at);
        let full = items.len() >= self.capacity;
        drop(items);
        if full {
            self.signal.notify_one();
        }
        parks
    }

    fn drain(&self, out: &mut Vec<Instant>) -> usize {
        let mut items = self.items.lock();
        let n = items.len();
        out.append(&mut items);
        drop(items);
        self.space.notify_one();
        n
    }
}

impl Sink for Arc<BatchBuffer> {
    fn push(&self, at: Instant) -> u64 {
        BatchBuffer::push(self, at)
    }
    fn close(self) {
        let items = self.items.lock();
        self.closed.store(true, Ordering::Release);
        drop(items);
        self.signal.notify_one();
    }
}

/// Spawns a batching pair's producer over a fresh [`BatchBuffer`].
fn spawn_batch_producer(
    ctx: &mut PairContext,
    tap: &Tap,
) -> (JoinHandle<(PairExit, Close)>, Arc<BatchBuffer>) {
    let buf = Arc::new(BatchBuffer::new(ctx.capacity));
    let producer = spawn_producer(ctx, tap, Arc::clone(&buf));
    (producer, buf)
}

/// Spawns the BP pair: the consumer wakes only when the buffer fills.
pub(crate) fn spawn_bp(mut ctx: PairContext) -> PairHandle {
    let tap = Tap::new(&ctx);
    let (producer, buf) = spawn_batch_producer(&mut ctx, &tap);
    let ctap = tap.clone();
    let consumer = spawn_consumer(move || {
        let mut batch = Vec::new();
        let mut wakes = 0;
        loop {
            // Read before the drain, so the drain after a close is final.
            let closed = {
                let mut items = buf.items.lock();
                while items.len() < buf.capacity && !buf.is_closed() {
                    buf.signal.wait(&mut items);
                    wakes += 1;
                }
                buf.is_closed()
            };
            batch.clear();
            buf.drain(&mut batch);
            if closed {
                ctap.flush(&batch);
                return wakes;
            }
            ctap.wakeup();
            ctap.counters.add_invocation(false, true); // every BP wake = overflow
            let _busy = ctap.counters.busy_timer();
            ctap.invoke(TraceTrigger::Overflow, &batch, buf.capacity);
        }
    });
    tap.handle(producer, consumer)
}

/// Spawns a periodic batching pair. `precise` selects SPBP (spin-finish
/// timer) versus PBP (plain OS sleep with its jitter).
pub(crate) fn spawn_periodic(mut ctx: PairContext, period: SimTime, precise: bool) -> PairHandle {
    let tap = Tap::new(&ctx);
    let (producer, buf) = spawn_batch_producer(&mut ctx, &tap);
    let ctap = tap.clone();
    let consumer = spawn_consumer(move || {
        let clock = ctap.clock;
        let mut batch = Vec::new();
        let mut next = period;
        let mut wakes = 0;
        loop {
            let deadline = clock.wall_deadline(next);
            // Wait out the period, but let a producer "full" signal break
            // in early (overflow handling, §III-A); the close does too.
            let overflowed = {
                let mut items = buf.items.lock();
                if items.len() < buf.capacity && !buf.is_closed() {
                    // One wait per period: the condvar (SPBP then spins).
                    wakes += 1;
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
            // Read before the drain, so the drain after a close is final.
            let closed = buf.is_closed();
            batch.clear();
            buf.drain(&mut batch);
            if closed {
                ctap.flush(&batch);
                return wakes;
            }
            ctap.wakeup();
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
        }
    });
    tap.handle(producer, consumer)
}

/// A PBPL pair's elastic buffer of base capacity `capacity`, taken from
/// `pool`. Every pair's buffer must exist before any pair starts: a
/// running consumer may grow its buffer into the pool, and would take
/// the base share of a pair not yet created.
pub(crate) fn pbpl_buffer(
    pool: &Arc<GlobalPool>,
    capacity: usize,
    cfg: &PbplConfig,
) -> ElasticBuffer<Instant> {
    let min_cap = ((capacity as f64 * cfg.min_capacity_frac).ceil() as usize).clamp(1, capacity);
    ElasticBuffer::with_min(Arc::clone(pool), capacity, min_cap)
        .expect("pool covers base reservations")
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
    let buffer = ctx.buffer.take().expect("PBPL context requires a buffer");
    let buffer = Arc::new(Mutex::new(buffer));
    let tap = Tap::new(&ctx);
    let waker = Arc::new(Semaphore::new(0));
    // Set by the producer when it finds the buffer full, cleared by the
    // consumer's drain; both only under the buffer lock.
    let overflowed = Arc::new(AtomicBool::new(false));
    // Set by the close, before it releases the waker.
    let closed = Arc::new(AtomicBool::new(false));
    // Signalled after every drain; a producer facing a full buffer parks
    // on it, under the buffer lock.
    let space = Arc::new(Condvar::new());
    manager.register(ctx.index, Arc::clone(&waker));
    manager.register_buffer(ctx.index, Arc::clone(&buffer));

    let (bp, pw, pov, pspace, pcounters) = (
        Arc::clone(&buffer),
        Arc::clone(&waker),
        Arc::clone(&overflowed),
        Arc::clone(&space),
        Arc::clone(&tap.counters),
    );
    let push = move |at| {
        let mut buf = bp.lock();
        let (mut v, mut parks) = (at, 0);
        while let Err(Overflow(back)) = buf.push(v) {
            v = back;
            // Unscheduled wakeup: the buffer is full before the reserved
            // slot. Signal once per overflow episode — re-signalling on
            // every retry would pile permits onto the semaphore and make
            // the consumer spin through phantom wakeups — then park
            // until a drain makes room. The consumer cannot finish while
            // this producer is running, so a drain always comes.
            if parks == 0 {
                pcounters.add_overflow_episode();
            }
            if !pov.swap(true, Ordering::AcqRel) {
                pw.release(1);
            }
            pspace.wait(&mut buf);
            parks += 1;
        }
        parks
    };
    let (pclosed, pwaker) = (Arc::clone(&closed), Arc::clone(&waker));
    let close = move || {
        pclosed.store(true, Ordering::Release);
        pwaker.release(1);
    };
    let producer = spawn_producer(&mut ctx, &tap, (push, close));

    let (ctap, cwaker) = (tap.clone(), waker);
    let (index, base_capacity, cost) = (ctx.index, ctx.capacity, ctx.cost);
    let consumer = spawn_consumer(move || {
        let mut machine = PbplConsumer::new(PairId(index), &cfg, cost, cfg.degrade.enabled);
        // Plans against the core's book and reserves the chosen slot.
        // Lock order: book, then buffer — the manager's dispatch takes
        // the book lock first and only `try_lock`s buffers, and
        // producers take only the buffer lock.
        let plan = |machine: &mut PbplConsumer, now, allow_shrink| {
            let choice = manager.with_book(|book| {
                let mut buf = buffer.lock();
                let max_latency = cfg.max_latency;
                let occupancy = buf.len();
                machine.plan(
                    now,
                    book,
                    buf.ledger_mut(),
                    occupancy,
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
        let mut wakes = 0;
        loop {
            // Permits come from slot fires, overflow signals and the
            // close.
            cwaker.acquire();
            wakes += 1;
            if closed.load(Ordering::Acquire) {
                // Final drain, whatever woke us: the producer is done, so
                // this takes the last items.
                batch.clear();
                buffer.lock().drain_into(&mut batch);
                space.notify_one();
                ctap.flush(&batch);
                return wakes;
            }
            let now = ctap.clock.now_sim();
            ctap.wakeup();
            let _busy = ctap.counters.busy_timer();
            batch.clear();
            // The flag is read and cleared in the drain's critical
            // section: cleared before it, a producer retrying in between
            // would find the buffer still full and signal a second,
            // phantom overflow.
            let (was_overflow, capacity) = {
                let mut buf = buffer.lock();
                buf.drain_into(&mut batch);
                (overflowed.swap(false, Ordering::AcqRel), buf.capacity())
            };
            space.notify_one();
            ctap.counters.add_invocation(!was_overflow, was_overflow);
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
    });
    tap.handle(producer, consumer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_core::SlotTrack;
    use pc_power::PowerModel;
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;

    fn test_ctx(index: usize, horizon_ms: u64) -> (PairContext, Arc<StopSignal>) {
        let cfg = WorldCupConfig {
            horizon: SimTime::from_millis(horizon_ms),
            mean_rate: 2_000.0,
            ..WorldCupConfig::quick_test()
        };
        let stop = Arc::new(StopSignal::new());
        let ctx = PairContext {
            index,
            trace: cfg.generate(7 + index as u64),
            clock: ReplayClock::start(1.0),
            stop: Arc::clone(&stop),
            capacity: 25,
            manager: None,
            buffer: None,
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
        stop.sleep_until(clock.wall_deadline(SimTime::from_millis(horizon_ms + 30)));
        stop.raise();
        handle.join();
        counters.snapshot()
    }

    type Spawn = fn(PairContext) -> PairHandle;

    /// One spawn function per native strategy, by name.
    fn every_strategy() -> [(&'static str, Spawn); 6] {
        [
            ("busy", |ctx| spawn_busy(ctx, false)),
            ("mutex", spawn_mutex),
            ("sem", spawn_sem),
            ("bp", spawn_bp),
            ("spbp", |ctx| {
                spawn_periodic(ctx, SimTime::from_millis(10), true)
            }),
            ("pbpl", spawn_pbpl),
        ]
    }

    #[test]
    fn stop_mid_replay_conserves_items() {
        // Raise the stop flag while the producer is still replaying a
        // dense run of arrivals, often parked on a full buffer: the item
        // in flight must still be consumed, for every strategy.
        for (name, spawn) in every_strategy() {
            let (mut ctx, stop) = test_ctx(0, 200);
            // 200 000 arrivals 1 µs apart: 200 ms of replay.
            let times = (0..200_000).map(SimTime::from_micros).collect();
            ctx.trace = Trace::new(times, SimTime::from_millis(200));
            let manager =
                NativeCoreManager::new(SlotTrack::new(SimDuration::from_millis(10)), ctx.clock);
            let mgr_thread = {
                let m = Arc::clone(&manager);
                thread::spawn(move || m.run())
            };
            ctx.manager = Some(Arc::clone(&manager));
            ctx.buffer = Some(pbpl_buffer(
                &GlobalPool::new(25),
                25,
                &PbplConfig::default(),
            ));
            ctx.pbpl = Some(PbplConfig::default());
            let handle = spawn(ctx);
            let counters = Arc::clone(&handle.counters);
            while counters.snapshot().items_produced < 1_000 {
                thread::yield_now();
            }
            stop.raise();
            handle.join();
            manager.shutdown();
            mgr_thread.join().unwrap();
            let s = counters.snapshot();
            assert!(s.items_produced < 200_000, "{name}: replay ended first");
            assert_eq!(s.items_produced, s.items_consumed, "{name}");
        }
    }

    /// A manager on a 10 ms track and its running thread.
    fn start_manager(clock: ReplayClock) -> (Arc<NativeCoreManager>, JoinHandle<u64>) {
        let manager = NativeCoreManager::new(SlotTrack::new(SimDuration::from_millis(10)), clock);
        let m = Arc::clone(&manager);
        (manager, thread::spawn(move || m.run()))
    }

    #[test]
    fn stop_reaches_sleeping_threads_promptly() {
        // Each producer sits in a 30 s inter-arrival gap when the stop
        // rises; the pair, every thread joined, must be back within
        // 100 ms, whatever the strategy.
        let limit = Duration::from_millis(100);
        for (name, spawn) in every_strategy() {
            let (mut ctx, stop) = test_ctx(0, 10);
            let gap = vec![SimTime::ZERO, SimTime::from_secs(30)];
            ctx.trace = Trace::new(gap, SimTime::from_secs(31));
            let (manager, mgr_thread) = start_manager(ctx.clock);
            ctx.manager = Some(Arc::clone(&manager));
            ctx.buffer = Some(pbpl_buffer(
                &GlobalPool::new(25),
                25,
                &PbplConfig::default(),
            ));
            ctx.pbpl = Some(PbplConfig::default());
            let handle = spawn(ctx);
            let counters = Arc::clone(&handle.counters);
            while counters.snapshot().items_produced < 1 {
                thread::yield_now();
            }
            let t0 = Instant::now();
            stop.raise();
            handle.join();
            assert!(
                t0.elapsed() < limit,
                "{name}: joined after {:?}",
                t0.elapsed()
            );
            manager.shutdown();
            mgr_thread.join().unwrap();
            assert_eq!(counters.snapshot().items_produced, 1, "{name}");
        }
        // A manager whose book is empty has its timer disarmed; shutdown
        // must still end its wait at once.
        let (idle, idle_thread) = start_manager(ReplayClock::start(1.0));
        idle.with_book(|book| assert_eq!(book.pending(), 0));
        let t0 = Instant::now();
        idle.shutdown();
        assert_eq!(idle_thread.join().unwrap(), 1, "woken by shutdown alone");
        assert!(t0.elapsed() < limit, "manager took {:?}", t0.elapsed());
    }

    #[test]
    fn a_pair_stopped_before_its_first_arrival_moves_nothing() {
        // The stop rises while the producer waits for an arrival 30 s
        // out: the close reaches a consumer whose buffer never held an
        // item, and every strategy's consumer must take it as the end.
        for (name, spawn) in every_strategy() {
            let (mut ctx, stop) = test_ctx(0, 10);
            ctx.trace = Trace::new(vec![SimTime::from_secs(30)], SimTime::from_secs(31));
            let (manager, mgr_thread) = start_manager(ctx.clock);
            ctx.manager = Some(Arc::clone(&manager));
            ctx.buffer = Some(pbpl_buffer(
                &GlobalPool::new(25),
                25,
                &PbplConfig::default(),
            ));
            ctx.pbpl = Some(PbplConfig::default());
            let handle = spawn(ctx);
            let counters = Arc::clone(&handle.counters);
            stop.raise();
            let exit = handle.join();
            manager.shutdown();
            mgr_thread.join().unwrap();
            let s = counters.snapshot();
            assert_eq!((s.items_produced, s.items_consumed), (0, 0), "{name}");
            assert!(exit.lateness_ns.is_empty(), "{name}");
        }
    }

    #[test]
    fn batch_buffer_producer_parks_until_a_drain() {
        let buf = Arc::new(BatchBuffer::new(2));
        let at = Instant::now();
        assert_eq!(buf.push(at), 0);
        assert_eq!(buf.push(at), 0);
        let producer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || buf.push(at))
        };
        thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(buf.drain(&mut out), 2);
        assert_eq!(producer.join().unwrap(), 1, "one park, ended by the drain");
        assert_eq!(buf.drain(&mut out), 1);
        assert!(!buf.is_closed());
        Sink::close(Arc::clone(&buf));
        assert!(buf.is_closed());
    }

    #[test]
    fn idle_consumers_wake_only_for_items_and_the_close() {
        // Four arrivals 250 ms apart against B0 = 25: a Mutex or Sem
        // consumer returns from one wait per item and one for the close
        // of its buffer; a BP consumer, whose buffer never fills, only
        // from the close. A timed wait that re-checks a stop flag would
        // add a dozen returns to every gap.
        let spawns: [(&str, Spawn, u64); 3] = [
            ("mutex", spawn_mutex, 4 + 1),
            ("sem", spawn_sem, 4 + 1),
            ("bp", spawn_bp, 1),
        ];
        for (name, spawn, max_wakes) in spawns {
            let (mut ctx, stop) = test_ctx(0, 10);
            let times = (0..4).map(|k| SimTime::from_millis(250 * k)).collect();
            ctx.trace = Trace::new(times, SimTime::from_millis(1_000));
            let last = ctx.clock.wall_deadline(SimTime::from_millis(800));
            let handle = spawn(ctx);
            let counters = Arc::clone(&handle.counters);
            assert!(stop.sleep_until(last).is_some());
            while counters.snapshot().items_produced < 4 {
                thread::yield_now(); // a loaded host may run late
            }
            stop.raise();
            let exit = handle.join();
            assert_eq!(counters.snapshot().items_consumed, 4, "{name}");
            assert!(
                exit.consumer_wakes <= max_wakes,
                "{name}: {} consumer wakes for 4 items",
                exit.consumer_wakes
            );
        }
    }

    #[test]
    fn parked_producer_wait_counts_toward_latency() {
        // 5 000 arrivals all due at t = 0 against a 25-item buffer: the
        // producer parks behind the full buffer again and again and
        // pushes most items well after they were due. Item latency runs
        // from the deadline, so each item's push lateness is part of it.
        let (mut ctx, stop) = test_ctx(0, 10);
        ctx.trace = Trace::new(vec![SimTime::ZERO; 5_000], SimTime::from_millis(1));
        let (manager, mgr_thread) = start_manager(ctx.clock);
        ctx.manager = Some(Arc::clone(&manager));
        ctx.buffer = Some(pbpl_buffer(
            &GlobalPool::new(25),
            25,
            &PbplConfig::default(),
        ));
        ctx.pbpl = Some(PbplConfig::default());
        let handle = spawn_pbpl(ctx);
        let counters = Arc::clone(&handle.counters);
        while counters.snapshot().items_produced < 5_000 {
            thread::yield_now();
        }
        stop.raise();
        let exit = handle.join();
        manager.shutdown();
        mgr_thread.join().unwrap();
        let s = counters.snapshot();
        assert_eq!(s.items_consumed, 5_000);
        assert!(s.overflow_episodes > 0, "the producer never parked");
        assert!(exit.producer_wakes > 0, "parks are producer wakes");
        let late: u64 = exit.lateness_ns.iter().sum();
        assert!(
            s.latency_sum.as_nanos() >= late,
            "latency sum {} ns leaves out push lateness {late} ns",
            s.latency_sum.as_nanos()
        );
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
        let cfg = PbplConfig {
            slot: SimDuration::from_millis(10),
            max_latency: SimDuration::from_millis(50),
            ..PbplConfig::default()
        };
        ctx.buffer = Some(pbpl_buffer(&pool, 25, &cfg));
        ctx.pbpl = Some(cfg);
        let handle = spawn_pbpl(ctx);
        let counters = Arc::clone(&handle.counters);
        stop.sleep_until(clock.wall_deadline(SimTime::from_millis(260)));
        stop.raise();
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
