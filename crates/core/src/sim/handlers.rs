//! One handler per strategy family (§III, §V). Each owns its per-pair
//! state and reacts to arrivals, its own timer events and the fleet
//! supervisor's emergency drains; [`Handler`] is the single place a run
//! dispatches on the strategy.

use super::kernel::{Ev, Kernel, Layer};
use super::pbpl::PbplHandler;
use crate::strategy::{item_driven_work, YIELD_IDLE_PER_TICK, YIELD_TICK};
use pc_queues::elastic::Overflow;
use pc_queues::ElasticBuffer;
use pc_sim::{SimDuration, SimTime, TimerModel};
use pc_trace_events::{TraceEvent, Trigger};

/// The strategy family a run executes.
pub(super) enum Handler {
    /// BW and Yield: spinning consumers that observe items immediately.
    Busy { yielding: bool },
    /// Mutex and Sem: item-driven wakes.
    Item(ItemHandler),
    /// BP, PBP and SPBP: a fixed batch buffer per pair.
    Batch(BatchHandler),
    /// The paper's algorithm.
    Pbpl(PbplHandler),
}

impl Handler {
    /// Strategy-specific work before the first arrival.
    pub fn setup(&mut self, k: &mut Kernel, l: &mut impl Layer) {
        match self {
            Handler::Busy { yielding } => {
                let mut occupied = vec![false; k.cores.len()];
                for p in &k.pairs {
                    occupied[p.core] = true;
                }
                let busy = YIELD_TICK.saturating_sub(YIELD_IDLE_PER_TICK);
                for c in (0..k.cores.len()).filter(|&c| occupied[c]) {
                    if *yielding {
                        let mut t = SimTime::ZERO;
                        while t < k.end {
                            let span_end = (t + busy).min(k.end);
                            k.cores[c].add_active_span(t, span_end);
                            t += YIELD_TICK;
                        }
                    } else {
                        k.cores[c].add_active_span(SimTime::ZERO, k.end);
                    }
                    k.core_busy_until[c] = k.end;
                }
            }
            Handler::Item(_) => {}
            Handler::Batch(h) => h.setup(k),
            Handler::Pbpl(h) => h.setup(k, l),
        }
    }

    /// An admitted arrival for pair `i` at `t` (the engine clock).
    #[inline]
    pub fn produce(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        match self {
            Handler::Busy { .. } => {
                let metrics = &mut k.pairs[i].metrics;
                metrics.items_consumed += 1;
                metrics.record_latency(t, t);
                k.trace.record(|| TraceEvent::Invoke {
                    pair: i as u32,
                    trigger: Trigger::Item,
                    batch: 1,
                    capacity: 0,
                });
            }
            Handler::Item(h) => h.produce(i, t, k, l),
            Handler::Batch(h) => h.produce(i, t, k, l),
            Handler::Pbpl(h) => h.produce(i, t, k, l),
        }
    }

    /// The handler's own timer events.
    pub fn timer(&mut self, ev: Ev, now: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        match (self, ev) {
            (Handler::Item(h), Ev::DrainDone { pair }) => h.drain_done(pair, now, k, l),
            (Handler::Batch(h), Ev::TimerFire { pair }) => h.fire(pair, now, k, l),
            (Handler::Pbpl(h), Ev::SlotWake { core, slot }) => h.slot_wake(core, slot, now, k, l),
            (_, ev) => unreachable!("{ev:?} is not armed by this strategy"),
        }
    }

    /// The fleet supervisor's strategy-appropriate kick for a stuck pair:
    /// whatever the pair buffers gets force-dispatched now.
    pub(crate) fn emergency_drain(
        &mut self,
        i: usize,
        now: SimTime,
        k: &mut Kernel,
        l: &mut impl Layer,
    ) {
        match self {
            Handler::Busy { .. } => {}
            Handler::Item(h) => h.wake_if_idle(i, now, k, l),
            Handler::Batch(h) => {
                if !h.buffers[i].is_empty() {
                    k.batch_drain(i, now, Trigger::Overflow, &mut h.buffers[i], l);
                }
            }
            Handler::Pbpl(h) => h.emergency_drain(i, now, k, l),
        }
    }

    /// Re-arms `core`'s slot timer after a dropped-wakeup fault clears.
    pub(crate) fn rearm(&mut self, core: usize, now: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        if let Handler::Pbpl(h) = self {
            h.ensure_scheduled(core, now, k, l);
        }
    }

    /// Items currently buffered at pair `i`.
    pub fn occupancy(&self, i: usize) -> u64 {
        match self {
            Handler::Busy { .. } => 0,
            Handler::Item(h) => h.pairs[i].backlog.len() as u64,
            Handler::Batch(h) => h.buffers[i].len() as u64,
            Handler::Pbpl(h) => h.pairs[i].buffer.len() as u64,
        }
    }

    /// The end of pair `i`'s consumer busy spell (item-driven strategies;
    /// the batching ones occupy the core directly).
    pub fn busy_until(&self, i: usize) -> SimTime {
        match self {
            Handler::Item(h) => h.pairs[i].busy_until,
            _ => SimTime::ZERO,
        }
    }

    /// Moves pair `i`'s buffered items into `out` (end-of-run flush).
    pub(crate) fn drain_leftovers(&mut self, i: usize, out: &mut Vec<SimTime>) {
        match self {
            Handler::Busy { .. } => {}
            Handler::Item(h) => out.append(&mut h.pairs[i].backlog),
            Handler::Batch(h) => _ = h.buffers[i].drain_into(out),
            Handler::Pbpl(h) => _ = h.pairs[i].buffer.drain_into(out),
        }
    }

    /// Slot timers that fired (PBPL's core managers).
    pub fn slot_fires(&self) -> u64 {
        match self {
            Handler::Pbpl(h) => h.managers.iter().map(|m| m.scheduled_wakeups()).sum(),
            _ => 0,
        }
    }
}

/// Item-driven consumer state of one pair (Mutex, Sem).
#[derive(Default)]
pub(super) struct ItemPair {
    /// Items awaiting the consumer. Capacity is advisory only: the real
    /// producer would block, which is invisible to consumer-side power
    /// (§IV assumes producers are external processes).
    backlog: Vec<SimTime>,
    /// Consumer-side busy horizon.
    busy_until: SimTime,
    drain_pending: bool,
}

/// Mutex and Sem: the consumer wakes per arrival cluster.
pub(super) struct ItemHandler {
    pub sync_factor: f64,
    pub pairs: Vec<ItemPair>,
}

impl ItemHandler {
    fn produce(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &impl Layer) {
        // The engine clock just advanced to this arrival's timestamp, so
        // `t` *is* `now` — reusing it keeps the per-item path free of
        // engine reads (same in the other `produce` handlers).
        self.pairs[i].backlog.push(t);
        self.wake_if_idle(i, t, k, l);
    }

    /// Wakes pair `i`'s consumer for its backlog unless it is busy. A
    /// pending DrainDone owns the wake session: at an exact tie
    /// (now == busy_until) the continuation event drains this item
    /// without a fresh thread wakeup.
    fn wake_if_idle(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        let pair = &self.pairs[i];
        if !pair.backlog.is_empty() && now >= pair.busy_until && !pair.drain_pending {
            let metrics = &mut k.pairs[i].metrics;
            metrics.item_wakeups += 1;
            metrics.invocations += 1;
            self.drain(i, now, k, l);
        }
    }

    fn drain(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        let pair = &mut self.pairs[i];
        let n = pair.backlog.len() as u64;
        k.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger: Trigger::Item,
            batch: n,
            capacity: k.base_capacity as u64,
        });
        k.scratch.clear();
        k.scratch.append(&mut pair.backlog);
        // The sleep-entry tail is part of the wake session: the thread
        // re-checks the queue before truly blocking, so arrivals in this
        // window extend the session instead of causing a fresh wakeup.
        let work = l
            .inflate(i, item_driven_work(&k.power, n, self.sync_factor))
            .saturating_add(k.power.sleep_entry);
        let end = k.finish_drain(i, now, work, k.base_capacity, l);
        pair.busy_until = end;
        if !pair.drain_pending {
            pair.drain_pending = true;
            k.engine.schedule_at(end, Ev::DrainDone { pair: i });
        }
    }

    fn drain_done(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        self.pairs[i].drain_pending = false;
        if !self.pairs[i].backlog.is_empty() {
            // Same wake session: the core span abuts the previous one, so
            // no wakeup or invocation is counted.
            self.drain(i, now, k, l);
        }
    }
}

/// BP, PBP and SPBP: a fixed-size batch buffer per pair, drained when
/// full (BP) or on a periodic timer with overflow handling (PBP/SPBP).
pub(super) struct BatchHandler {
    /// The batch period; `None` is BP.
    pub period: Option<SimDuration>,
    pub timer: TimerModel,
    pub buffers: Vec<ElasticBuffer<SimTime>>,
    /// Each pair's absolute next nominal fire instant (periodic only).
    pub anchors: Vec<SimTime>,
}

impl BatchHandler {
    fn setup(&mut self, k: &mut Kernel) {
        let Some(period) = self.period else { return };
        for i in 0..self.buffers.len() {
            self.anchors[i] = SimTime::ZERO + period;
            let fire = self.timer.fire_time(SimTime::ZERO + period, k.engine.rng());
            k.engine.schedule_at(fire, Ev::TimerFire { pair: i });
        }
    }

    #[inline]
    fn produce(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &impl Layer) {
        let buffer = &mut self.buffers[i];
        if self.period.is_none() {
            buffer
                .push(t)
                .unwrap_or_else(|_| unreachable!("BP drains at full, before overflow"));
            if buffer.is_full() {
                // "The consumer waits until the buffer is full": the
                // producer signals it — in the paper's terms every BP
                // wakeup is an overflow.
                k.batch_drain(i, t, Trigger::Overflow, buffer, l);
            }
        } else if let Err(Overflow(item)) = buffer.push(t) {
            // Buffer filled before the period expired: unscheduled wakeup
            // ("it requires logic to handle the overflow of the buffer
            // before a period expires", §III-A).
            k.batch_drain(i, t, Trigger::Overflow, buffer, l);
            buffer
                .push(item)
                .unwrap_or_else(|_| unreachable!("buffer was just drained"));
        }
    }

    fn fire(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        let core = k.pairs[i].core;
        // A dropped-wakeup fault on the pair's core swallows the drain
        // but not the clock: the timer chain survives the outage and
        // overflow handling covers the backlog meanwhile.
        if !l.swallow_wake(core) {
            k.batch_drain(i, now, Trigger::Scheduled, &mut self.buffers[i], l);
        }
        let period = self
            .period
            .expect("TimerFire only armed for periodic strategies");
        // Both periodic strategies target the same nominal grid ("the
        // consumer processes the batch within fixed time intervals",
        // §III-A); the only difference is how accurately the timer hits
        // it — nanosleep jitter for PBP, signal accuracy for SPBP. That
        // isolation mirrors the paper's attribution of the PBP/SPBP gap
        // entirely to timer accuracy.
        let anchor = &mut self.anchors[i];
        *anchor = anchor.saturating_add(period);
        // If jitter pushed us past whole periods, skip them.
        while *anchor <= now {
            *anchor = anchor.saturating_add(period);
        }
        let fire = self
            .timer
            .fire_time(*anchor, k.engine.rng())
            .max(now.saturating_add(SimDuration::from_nanos(1)))
            .saturating_add(l.timer_delay(core));
        if fire < k.end {
            k.engine.schedule_at(fire, Ev::TimerFire { pair: i });
        }
    }
}
