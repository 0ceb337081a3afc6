//! The strategy-independent core of a run: the engine, the cores, each
//! pair's arrival cursor and metrics, the shared drain tail, and the
//! teardown that turns core timelines into energy (DESIGN.md §3).
//!
//! Optional layers reach the run only through [`Layer`] hooks. A run
//! without faults or overload control is a `Sim<()>`, whose hooks are
//! the trait's empty defaults: the layers are never built, and no
//! branch on them is compiled into the run.

use super::handlers::Handler;
use crate::metrics::{PairMetrics, RunMetrics};
use crate::slot::SlotIndex;
use crate::strategy::{batch_work, YIELD_DVFS_FACTOR};
use pc_power::{account_cores, GovernorKind, Meter, PowerModel};
use pc_queues::{ElasticBuffer, GlobalPool};
use pc_sim::{Core, Engine, Popped, SimDuration, SimTime};
use pc_trace::Trace;
use pc_trace_events::{TraceEvent, TraceHandle, Trigger};
use std::sync::Arc;

/// Simulation events routed through the timer wheel. Workload arrivals
/// are *not* events: they ride the engine's arrival calendar
/// ([`pc_sim::ArrivalCalendar`], DESIGN.md §14) and surface as
/// [`Popped::Arrival`] in the main loop, keyed by pair index.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    /// An item-driven consumer finishes its current drain window.
    DrainDone { pair: usize },
    /// A PBP/SPBP periodic timer fires for `pair`.
    TimerFire { pair: usize },
    /// A PBPL core manager's armed slot fires on `core`.
    SlotWake { core: usize, slot: SlotIndex },
    /// Fault `f` of the active plan becomes effective.
    FaultStart { f: usize },
    /// Fault `f`'s window closes; its effects are rolled back.
    FaultEnd { f: usize },
    /// The fleet supervisor's periodic check fires (DESIGN.md §15).
    SupervisorTick,
}

/// A pair's arrival cursor into its fleet trace, core assignment and
/// metrics; strategy state lives in the handler.
pub(super) struct Pair {
    pub next_idx: usize,
    pub core: usize,
    pub metrics: PairMetrics,
}

/// An optional layer's hooks into the kernel and the handlers. Every
/// hook defaults to "no layer": `()` is the empty layer, and `(A, B)`
/// runs both, `A`'s hooks first.
pub(super) trait Layer {
    /// Schedules the layer's own events before the run starts.
    fn arm(&mut self, _k: &mut Kernel) {}
    /// Service time for `work` on `pair`'s consumer.
    fn inflate(&self, _pair: usize, work: SimDuration) -> SimDuration {
        work
    }
    /// Extra delay on timers armed for `core`.
    fn timer_delay(&self, _core: usize) -> SimDuration {
        SimDuration::ZERO
    }
    /// Whether `core`'s timer hardware is dead (nothing may be armed).
    fn timer_dead(&self, _core: usize) -> bool {
        false
    }
    /// Swallows (and counts) a timer wake on a dead `core`.
    fn swallow_wake(&mut self, _core: usize) -> bool {
        false
    }
    /// Whether the arrival of `pair` at `t` is admitted.
    fn admit(&mut self, _pair: usize, _t: SimTime, _k: &mut Kernel, _h: &Handler) -> bool {
        true
    }
    /// How many of `items` (production stamps) served at `end` were late.
    fn deadline_misses(&self, _end: SimTime, _items: &[SimTime]) -> u64 {
        0
    }
    /// Fault `f` opens.
    fn fault_start(&mut self, _f: usize, _k: &mut Kernel) {}
    /// Fault `f` closes; returns a core whose slot timer must re-arm.
    fn fault_end(&mut self, _f: usize, _k: &mut Kernel) -> Option<usize> {
        None
    }
    /// Faults still open (force-recovered at teardown).
    fn open_faults(&self) -> Vec<usize> {
        Vec::new()
    }
    /// A supervisor tick; returns the stuck pairs to emergency-drain.
    fn supervisor_tick(&mut self, _now: SimTime, _k: &mut Kernel, _h: &Handler) -> Vec<usize> {
        Vec::new()
    }
    /// Schedules the next supervisor tick after `now`.
    fn rearm_supervisor(&mut self, _now: SimTime, _k: &mut Kernel) {}
    /// Force-clears every open overload window at teardown.
    fn close_windows(&mut self, _k: &mut Kernel) {}
}

impl Layer for () {}

impl<A: Layer, B: Layer> Layer for (A, B) {
    fn arm(&mut self, k: &mut Kernel) {
        self.0.arm(k);
        self.1.arm(k);
    }
    fn inflate(&self, pair: usize, work: SimDuration) -> SimDuration {
        self.1.inflate(pair, self.0.inflate(pair, work))
    }
    fn timer_delay(&self, core: usize) -> SimDuration {
        self.0.timer_delay(core) + self.1.timer_delay(core)
    }
    fn timer_dead(&self, core: usize) -> bool {
        self.0.timer_dead(core) || self.1.timer_dead(core)
    }
    fn swallow_wake(&mut self, core: usize) -> bool {
        self.0.swallow_wake(core) || self.1.swallow_wake(core)
    }
    fn admit(&mut self, pair: usize, t: SimTime, k: &mut Kernel, h: &Handler) -> bool {
        self.0.admit(pair, t, k, h) && self.1.admit(pair, t, k, h)
    }
    fn deadline_misses(&self, end: SimTime, items: &[SimTime]) -> u64 {
        self.0.deadline_misses(end, items) + self.1.deadline_misses(end, items)
    }
    fn fault_start(&mut self, f: usize, k: &mut Kernel) {
        self.0.fault_start(f, k);
        self.1.fault_start(f, k);
    }
    fn fault_end(&mut self, f: usize, k: &mut Kernel) -> Option<usize> {
        self.0.fault_end(f, k).or(self.1.fault_end(f, k))
    }
    fn open_faults(&self) -> Vec<usize> {
        [self.0.open_faults(), self.1.open_faults()].concat()
    }
    fn supervisor_tick(&mut self, now: SimTime, k: &mut Kernel, h: &Handler) -> Vec<usize> {
        let stuck = self.0.supervisor_tick(now, k, h);
        [stuck, self.1.supervisor_tick(now, k, h)].concat()
    }
    fn rearm_supervisor(&mut self, now: SimTime, k: &mut Kernel) {
        self.0.rearm_supervisor(now, k);
        self.1.rearm_supervisor(now, k);
    }
    fn close_windows(&mut self, k: &mut Kernel) {
        self.0.close_windows(k);
        self.1.close_windows(k);
    }
}

/// Engine, cores and per-pair cursors: everything every strategy shares.
pub(super) struct Kernel {
    pub strategy: &'static str,
    pub power: PowerModel,
    pub governor: GovernorKind,
    pub end: SimTime,
    /// One production trace per pair, possibly shared with other runs
    /// and longer than the run: arrivals at or past `end` are never
    /// scheduled, which substitutes for physical truncation.
    pub fleet: Arc<Vec<Trace>>,
    pub engine: Engine<Ev>,
    pub cores: Vec<Core>,
    pub core_busy_until: Vec<SimTime>,
    pub pairs: Vec<Pair>,
    /// Per-pair base buffer capacity B₀.
    pub base_capacity: usize,
    /// Items of the drain in progress, staged for latency recording.
    pub scratch: Vec<SimTime>,
    /// The batching strategies' global pool, for pool-aware layers.
    pub pool: Option<Arc<GlobalPool>>,
    pub trace: TraceHandle,
}

impl Kernel {
    /// Claims `core` for `work` starting no earlier than `now`; returns
    /// the end of the span actually occupied.
    #[inline]
    pub(crate) fn occupy_core(&mut self, core: usize, now: SimTime, work: SimDuration) -> SimTime {
        let start = now.max(self.core_busy_until[core]);
        let end = start.saturating_add(work);
        self.cores[core].add_active_span(start, end);
        self.core_busy_until[core] = end;
        end
    }

    #[inline]
    pub fn schedule_next_produce(&mut self, i: usize) {
        if let Some(t) = self.fleet[i].get(self.pairs[i].next_idx) {
            if t < self.end {
                // Arrivals bypass the timer wheel: the calendar files the
                // pair's cursor head under a wheel-shared sequence number,
                // so the merged pop order is identical to the retired
                // one-wheel-event-per-item design (DESIGN.md §14).
                self.engine.schedule_arrival(t, i as u32);
            }
        }
    }

    /// Occupies the pair's core for `work`, then records the latencies of
    /// everything staged in `scratch` plus the drain sample. Returns the
    /// span end. Shared tail of every drain path.
    pub(crate) fn finish_drain(
        &mut self,
        i: usize,
        now: SimTime,
        work: SimDuration,
        capacity: usize,
        l: &impl Layer,
    ) -> SimTime {
        let core = self.pairs[i].core;
        let end = self.occupy_core(core, now, work);
        let metrics = &mut self.pairs[i].metrics;
        metrics.deadline_misses += l.deadline_misses(end, &self.scratch);
        for &t in &self.scratch {
            metrics.record_latency(t, end);
        }
        metrics.record_drain(self.scratch.len() as u64, capacity);
        end
    }

    /// Drains a batching pair's `buffer` on a `trigger`ed wake, occupies
    /// the core, and records metrics. Returns the batch size.
    pub(crate) fn batch_drain(
        &mut self,
        i: usize,
        now: SimTime,
        trigger: Trigger,
        buffer: &mut ElasticBuffer<SimTime>,
        l: &impl Layer,
    ) -> u64 {
        let metrics = &mut self.pairs[i].metrics;
        metrics.invocations += 1;
        match trigger {
            Trigger::Scheduled => metrics.scheduled_wakeups += 1,
            _ => metrics.overflow_wakeups += 1,
        }
        let capacity = buffer.capacity();
        self.scratch.clear();
        let n = buffer.drain_into(&mut self.scratch) as u64;
        self.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger,
            batch: n,
            capacity: capacity as u64,
        });
        let work = l.inflate(i, batch_work(&self.power, n));
        self.finish_drain(i, now, work, capacity, l);
        n
    }
}

/// One run: the kernel, the strategy's handler and the optional layers.
pub(super) struct Sim<L> {
    pub k: Kernel,
    pub h: Handler,
    pub l: L,
}

impl<L: Layer> Sim<L> {
    pub fn run(mut self) -> RunMetrics {
        // Layer events first (fault window edges, then the supervisor's
        // first tick), then the strategy's own, then the first arrivals.
        self.l.arm(&mut self.k);
        self.h.setup(&mut self.k, &mut self.l);
        for i in 0..self.k.pairs.len() {
            self.k.schedule_next_produce(i);
        }
        while let Some((t, popped)) = self.k.engine.next_merged_before(self.k.end) {
            match popped {
                Popped::Arrival(pair) => self.produce(pair as usize, t),
                Popped::Timer(ev) => self.handle(ev),
            }
        }
        self.k.engine.advance_to(self.k.end);
        // Faults still active at end-of-run recover now, *before* the
        // flush and buffer teardown: squeezed pool units go back and the
        // `FaultRecovered` events precede every `BufferDestroy`, so the
        // oracle's conservation ledger balances at each step. Overload
        // windows still open force-clear next, so every
        // `OverloadEntered` gets its `OverloadCleared`.
        for f in self.l.open_faults() {
            self.fault_end(f);
        }
        self.l.close_windows(&mut self.k);
        self.finish()
    }

    /// Handles a popped workload arrival for `pair` at time `t` (the
    /// engine clock already sits at `t`). This is the hot path — at
    /// fleet scale 85–95 % of all pops land here — so it takes the
    /// popped timestamp directly instead of re-reading the cursor or
    /// the engine clock.
    fn produce(&mut self, pair: usize, t: SimTime) {
        let k = &mut self.k;
        debug_assert_eq!(
            k.fleet[pair].get(k.pairs[pair].next_idx),
            Some(t),
            "arrival time must match the pair's cursor head"
        );
        k.pairs[pair].next_idx += 1;
        k.pairs[pair].metrics.items_produced += 1;
        k.trace.record(|| TraceEvent::Produce { pair: pair as u32 });
        // Admission control (DESIGN.md §15): a shed item still counts as
        // produced (the `Produce` event above already fired) but never
        // reaches the strategy — conservation becomes
        // `produced == consumed + shed`. The calendar pop ledger is
        // untouched: the arrival was popped either way, and the next one
        // is scheduled below exactly as for an admitted item.
        if self.l.admit(pair, t, k, &self.h) {
            self.h.produce(pair, t, k, &mut self.l);
        } else {
            k.pairs[pair].metrics.items_shed += 1;
            k.trace
                .record(|| TraceEvent::ItemShed { pair: pair as u32 });
        }
        k.schedule_next_produce(pair);
    }

    fn handle(&mut self, ev: Ev) {
        let now = self.k.engine.now();
        match ev {
            Ev::FaultStart { f } => self.l.fault_start(f, &mut self.k),
            Ev::FaultEnd { f } => self.fault_end(f),
            Ev::SupervisorTick => {
                for i in self.l.supervisor_tick(now, &mut self.k, &self.h) {
                    self.h.emergency_drain(i, now, &mut self.k, &mut self.l);
                }
                self.l.rearm_supervisor(now, &mut self.k);
            }
            _ => self.h.timer(ev, now, &mut self.k, &mut self.l),
        }
    }

    /// Closes fault `f`; a dropped-wakeup recovery re-arms its core's
    /// timer from the reservation book, which stayed consistent
    /// throughout.
    fn fault_end(&mut self, f: usize) {
        if let Some(core) = self.l.fault_end(f, &mut self.k) {
            let now = self.k.engine.now();
            self.h.rearm(core, now, &mut self.k, &mut self.l);
        }
    }

    /// End-of-run flush, energy accounting and the scheduler-ledger check.
    fn finish(self) -> RunMetrics {
        let Sim { mut k, mut h, l } = self;
        let end = k.end;
        // Account for items still buffered so the conservation invariant
        // (produced == consumed + shed) holds. No wakeups or core spans
        // are charged — the run is over.
        let mut leftovers = Vec::new();
        for (i, pair) in k.pairs.iter_mut().enumerate() {
            leftovers.clear();
            h.drain_leftovers(i, &mut leftovers);
            if !leftovers.is_empty() {
                for &t in &leftovers {
                    pair.metrics.record_latency(t, end);
                }
                pair.metrics.deadline_misses += l.deadline_misses(end, &leftovers);
                pair.metrics.items_consumed += leftovers.len() as u64;
                k.trace.record(|| TraceEvent::Flush {
                    pair: i as u32,
                    drained: leftovers.len() as u64,
                });
            }
        }

        let slot_fires = h.slot_fires();
        let reports: Vec<_> = k.cores.into_iter().map(|c| c.finish(end)).collect();
        let governor = k.governor;
        let mut energy = account_cores(&reports, &k.power, || governor.build());
        if matches!(h, Handler::Busy { yielding: true }) {
            // §III-C: DVFS steps the clock down under constant yielding;
            // discount the active-time energy accordingly.
            let active_secs: f64 = reports.iter().map(|r| r.active_time.as_secs_f64()).sum();
            energy.energy_j -= active_secs * k.power.active_power_w * (1.0 - YIELD_DVFS_FACTOR);
        }
        let meter = Meter::aggregate(&reports);
        let items_consumed = k.pairs.iter().map(|p| p.metrics.items_consumed).sum();
        let items_produced = k.pairs.iter().map(|p| p.metrics.items_produced).sum();
        let items_shed: u64 = k.pairs.iter().map(|p| p.metrics.items_shed).sum();
        let mut scheduler = k.engine.queue_stats();
        // Stamped by the Sim at teardown, like the engine stamps the
        // arrival-calendar counters: sheds happen after the pop, so they
        // sit outside the ledger equation but ride the same struct.
        scheduler.items_shed = items_shed;
        // Every scheduled event (wheel + calendar) must be accounted for:
        // popped, cancelled, or still pending at teardown (events past
        // `end`, e.g. a DrainDone continuation of the final drain).
        // Silent losses would mean the wheel dropped work.
        assert!(
            scheduler.ledger_balanced(),
            "scheduler event ledger out of balance: {scheduler:?}"
        );
        let pairs = k.pairs.into_iter().map(|p| p.metrics).collect();
        // Buffers go last, in pair order: their `BufferDestroy` events
        // close the trace.
        drop(h);
        RunMetrics {
            strategy: k.strategy.to_string(),
            duration: end.saturating_since(SimTime::ZERO),
            pairs,
            core_reports: reports,
            energy,
            meter,
            items_consumed,
            items_produced,
            items_shed,
            slot_fires,
            scheduler,
        }
    }
}
