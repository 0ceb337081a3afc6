//! One handler per strategy family (§III, §V). Each owns its per-pair
//! state, acts at its pairs' decision points and its own timer events,
//! names the arrival at which each pair next has to act, and answers the
//! fleet supervisor's emergency drains; [`Handler`] is the single place
//! a run dispatches on the strategy.

use super::kernel::{Ev, Kernel, Layer};
use super::pbpl::PbplHandler;
use crate::strategy::{item_driven_work, YIELD_IDLE_PER_TICK, YIELD_TICK};
use pc_queues::ElasticCapacity;
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

    /// Pair `i`'s decision point: its next arrival, admitted, at `t`
    /// (the engine clock). The arrival is not in the buffer yet.
    #[inline]
    pub fn arrive(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        match self {
            Handler::Busy { .. } => {
                k.include(i);
                k.consume_instantly(i);
                k.trace.record(|| TraceEvent::Invoke {
                    pair: i as u32,
                    trigger: Trigger::Item,
                    batch: 1,
                    capacity: 0,
                });
            }
            Handler::Item(h) => {
                k.include(i);
                h.wake_if_idle(i, t, k, l);
            }
            Handler::Batch(h) => h.arrive(i, t, k, l),
            Handler::Pbpl(h) => h.arrive(i, t, k, l),
        }
    }

    /// The arrival at which pair `i` next has to act, if any, when not
    /// every arrival is a point: an idle item-driven consumer's next
    /// arrival (a busy one acts at its drain-done event), the arrival
    /// that fills a BP buffer or overflows a PBP, SPBP or PBPL buffer at
    /// its current capacity, and none for the spinning consumers.
    pub fn next_point(&self, i: usize, k: &Kernel) -> Option<usize> {
        let pair = &k.pairs[i];
        match self {
            Handler::Busy { .. } => None,
            Handler::Item(h) => (!h.pairs[i].drain_pending).then_some(pair.tail),
            Handler::Batch(h) => {
                let fills = usize::from(h.period.is_none());
                Some(pair.head + h.capacities[i].capacity() - fills)
            }
            Handler::Pbpl(h) => Some(pair.head + h.pairs[i].ledger.capacity()),
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
                if k.len(i) > 0 {
                    let capacity = h.capacities[i].capacity();
                    k.batch_drain(i, now, Trigger::Overflow, capacity, l);
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

    /// The end of pair `i`'s consumer busy spell (item-driven strategies;
    /// the batching ones occupy the core directly).
    pub fn busy_until(&self, i: usize) -> SimTime {
        match self {
            Handler::Item(h) => h.pairs[i].busy_until,
            _ => SimTime::ZERO,
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

/// Item-driven consumer state of one pair (Mutex, Sem). Its backlog is
/// the pair's buffer in the kernel. Capacity is advisory only: the real
/// producer would block, which is invisible to consumer-side power (§IV
/// assumes producers are external processes).
#[derive(Default)]
pub(super) struct ItemPair {
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
    /// Wakes pair `i`'s consumer for its backlog unless it is busy. A
    /// pending DrainDone owns the wake session: at an exact tie
    /// (now == busy_until) the continuation event drains this item
    /// without a fresh thread wakeup.
    fn wake_if_idle(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        let pair = &self.pairs[i];
        if now >= pair.busy_until && !pair.drain_pending && k.len(i) > 0 {
            let metrics = &mut k.pairs[i].metrics;
            metrics.item_wakeups += 1;
            metrics.invocations += 1;
            self.drain(i, now, k, l);
        }
    }

    fn drain(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        let n = k.len(i) as u64;
        k.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger: Trigger::Item,
            batch: n,
            capacity: k.base_capacity as u64,
        });
        let work = self.work(i, n, k, l);
        let mut end = k.finish_drain(i, now, work, k.base_capacity, l);
        let idle = !k.every_arrival && self.fold(i, &mut end, k, l);
        let pair = &mut self.pairs[i];
        pair.busy_until = end;
        if !idle && !pair.drain_pending {
            pair.drain_pending = true;
            k.engine.schedule_at(end, Ev::DrainDone { pair: i });
        }
    }

    /// The consumer's service time for a drain of `n` items. The
    /// sleep-entry tail is part of the wake session: the thread
    /// re-checks the queue before truly blocking, so arrivals in this
    /// window extend the session instead of causing a fresh wakeup.
    fn work(&self, i: usize, n: u64, k: &Kernel, l: &impl Layer) -> SimDuration {
        l.inflate(i, item_driven_work(&k.power, n, self.sync_factor))
            .saturating_add(k.power.sleep_entry)
    }

    /// Plays the rest of pair `i`'s wake session inside the event being
    /// handled, in a run that files decision points only; `end` is where
    /// the session's drain ends. While arrivals came in before it, they
    /// drain as the session's continuation at `end`, which moves `end`
    /// on, exactly as a `DrainDone` at `end` would. Returns whether the
    /// session ended idle at `end`. Otherwise a `DrainDone` at `end`
    /// takes over, because something else may act there first: another
    /// pair on the core, a layer event, the end of the run, or an arrival
    /// of the pair due at `end` itself. The fold also stops short of a
    /// continuation whose drain would end on an arrival: a `DrainDone`
    /// scheduled now would meet that arrival in another same-time order
    /// than the one the continuation's own `DrainDone` schedules.
    fn fold(&self, i: usize, end: &mut SimTime, k: &mut Kernel, l: &impl Layer) -> bool {
        let tail = k.pairs[i].tail;
        let (mut next, tie) = k.arrival_from(i, tail, *end);
        if tie {
            return false;
        }
        if next == tail {
            return true;
        }
        let horizon = self.horizon(i, k, l);
        while *end <= k.end && *end < horizon {
            let work = self.work(i, (next - k.pairs[i].tail) as u64, k, l);
            let drain_end = end.saturating_add(work);
            let (after, tie) = k.arrival_from(i, next, drain_end);
            if tie {
                return false;
            }
            k.catch_up(i, next);
            *end = k.finish_drain(i, *end, work, k.base_capacity, l);
            debug_assert_eq!(*end, drain_end, "the core stayed the pair's");
            if after == next {
                return true;
            }
            next = after;
        }
        false
    }

    /// The first instant at which something other than pair `i` may act
    /// on its core: another pair's pending `DrainDone` or decision
    /// point, or a layer event.
    fn horizon(&self, i: usize, k: &Kernel, l: &impl Layer) -> SimTime {
        let core = k.pairs[i].core;
        k.pairs_by_core[core]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| {
                let p = &self.pairs[j];
                if p.drain_pending {
                    p.busy_until
                } else {
                    k.engine.point_at(j as u32).unwrap_or(SimTime::MAX)
                }
            })
            .fold(l.steady_until(k.engine.now()), SimTime::min)
    }

    fn drain_done(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        self.pairs[i].drain_pending = false;
        if k.len(i) > 0 {
            // Same wake session: the core span abuts the previous one, so
            // no wakeup or invocation is counted.
            self.drain(i, now, k, l);
        } else {
            // Idle: the next arrival is the pair's decision point.
            k.touch(i);
        }
    }
}

/// BP, PBP and SPBP: a fixed-size batch buffer per pair, drained when
/// full (BP) or on a periodic timer with overflow handling (PBP/SPBP).
pub(super) struct BatchHandler {
    /// The batch period; `None` is BP.
    pub period: Option<SimDuration>,
    pub timer: TimerModel,
    /// Each pair's buffer capacity, accounted against the pool.
    pub capacities: Vec<ElasticCapacity>,
    /// Each pair's absolute next nominal fire instant (periodic only).
    pub anchors: Vec<SimTime>,
}

impl BatchHandler {
    fn setup(&mut self, k: &mut Kernel) {
        let Some(period) = self.period else { return };
        for i in 0..self.capacities.len() {
            self.anchors[i] = SimTime::ZERO + period;
            let fire = self.timer.fire_time(SimTime::ZERO + period, k.engine.rng());
            k.engine.schedule_at(fire, Ev::TimerFire { pair: i });
        }
    }

    #[inline]
    fn arrive(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &impl Layer) {
        let capacity = self.capacities[i].capacity();
        if self.period.is_none() {
            k.include(i);
            if k.len(i) >= capacity {
                // "The consumer waits until the buffer is full": the
                // producer signals it — in the paper's terms every BP
                // wakeup is an overflow.
                k.batch_drain(i, t, Trigger::Overflow, capacity, l);
            }
        } else {
            if k.len(i) >= capacity {
                // Buffer filled before the period expired: unscheduled
                // wakeup ("it requires logic to handle the overflow of
                // the buffer before a period expires", §III-A).
                k.batch_drain(i, t, Trigger::Overflow, capacity, l);
            }
            k.include(i);
        }
    }

    fn fire(&mut self, i: usize, now: SimTime, k: &mut Kernel, l: &mut impl Layer) {
        let core = k.pairs[i].core;
        // A dropped-wakeup fault on the pair's core swallows the drain
        // but not the clock: the timer chain survives the outage and
        // overflow handling covers the backlog meanwhile.
        if !l.swallow_wake(core) {
            let capacity = self.capacities[i].capacity();
            k.batch_drain(i, now, Trigger::Scheduled, capacity, l);
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
