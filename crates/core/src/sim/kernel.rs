//! The strategy-independent core of a run: the engine, the cores, each
//! pair's cursor over its arrivals and its metrics, the shared drain
//! tail, and the teardown that turns core timelines into energy
//! (DESIGN.md §3).
//!
//! A pair's buffer is a run `[head, tail)` of its pre-sorted arrival
//! array, so the stamps are never copied. The calendar holds one
//! *decision point* per pair — the arrival at which its handler next has
//! to act — and the arrivals before it join the buffer when something
//! looks at it ([`Kernel::sync`]) or when the point pops. A run that
//! must see every arrival (a recorded one, or one whose layers admit
//! each item) files every arrival as a point.
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
use pc_queues::GlobalPool;
use pc_sim::{ArrivalTimes, Core, Engine, Popped, SimDuration, SimTime};
use pc_trace::Trace;
use pc_trace_events::{TraceEvent, TraceHandle, Trigger};
use std::rc::Rc;
use std::sync::Arc;

/// Simulation events routed through the timer wheel. Workload arrivals
/// are *not* events: each pair's next decision point rides the engine's
/// arrival calendar ([`pc_sim::ArrivalCalendar`], DESIGN.md §14) and
/// surfaces as [`Popped::Point`] in the main loop, keyed by pair index.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    /// An item-driven consumer finishes a drain window that its wake
    /// session could not fold into the event that opened it.
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

/// A pair's cursor over its fleet trace, its core assignment and its
/// metrics; strategy state lives in the handler.
pub(super) struct Pair {
    /// First arrival not yet consumed.
    pub head: usize,
    /// First arrival not yet in the buffer: `[head, tail)`, less `shed`,
    /// is what the pair holds.
    pub tail: usize,
    /// Arrivals before the end of the run; the rest are never taken in.
    limit: usize,
    /// Σ stamps (ns) of the buffered arrivals.
    stamps: u128,
    /// Shed arrivals inside `[head, tail)`, ascending.
    shed: Vec<usize>,
    /// The arrival filed as the pair's pending decision point.
    point: Option<usize>,
    /// Whether the pair waits in `Kernel::refile`.
    refile: bool,
    pub core: usize,
    pub metrics: PairMetrics,
}

impl Pair {
    /// A pair on `core` whose trace has `limit` arrivals before the end.
    pub fn new(core: usize, limit: usize, metrics: PairMetrics) -> Self {
        Pair {
            head: 0,
            tail: 0,
            limit,
            stamps: 0,
            shed: Vec::new(),
            point: None,
            refile: false,
            core,
            metrics,
        }
    }

    /// Empties the buffer: everything in it is consumed.
    fn empty(&mut self) {
        self.head = self.tail;
        self.stamps = 0;
        self.shed.clear();
    }
}

/// The fleet's arrival times, for the engine's same-time order.
struct FleetTimes(Arc<Vec<Trace>>);

impl ArrivalTimes for FleetTimes {
    fn arrival_ns(&self, source: u32, idx: u32) -> u64 {
        self.0[source as usize].times()[idx as usize].as_nanos()
    }
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
    /// Whether the layer decides on each arrival; every arrival is then
    /// a decision point.
    fn admits(&self) -> bool {
        false
    }
    /// The first instant at or after `now` at which one of the layer's
    /// events may fire: a wake session folds only the drains that end
    /// before it. Never, for a layer without events.
    fn steady_until(&self, _now: SimTime) -> SimTime {
        SimTime::MAX
    }
    /// Whether the arrival of `pair` at `t` is admitted.
    fn admit(&mut self, _pair: usize, _t: SimTime, _k: &mut Kernel, _h: &Handler) -> bool {
        true
    }
    /// The latency past which a served item counts as a deadline miss.
    fn deadline(&self) -> Option<SimDuration> {
        None
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
    fn supervisor_tick(&mut self, _now: SimTime, _k: &mut Kernel) -> Vec<usize> {
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
    fn admits(&self) -> bool {
        self.0.admits() || self.1.admits()
    }
    fn steady_until(&self, now: SimTime) -> SimTime {
        self.0.steady_until(now).min(self.1.steady_until(now))
    }
    fn admit(&mut self, pair: usize, t: SimTime, k: &mut Kernel, h: &Handler) -> bool {
        self.0.admit(pair, t, k, h) && self.1.admit(pair, t, k, h)
    }
    fn deadline(&self) -> Option<SimDuration> {
        self.0.deadline().or(self.1.deadline())
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
    fn supervisor_tick(&mut self, now: SimTime, k: &mut Kernel) -> Vec<usize> {
        let stuck = self.0.supervisor_tick(now, k);
        [stuck, self.1.supervisor_tick(now, k)].concat()
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
    /// taken in, which substitutes for physical truncation.
    pub fleet: Arc<Vec<Trace>>,
    pub engine: Engine<Ev>,
    pub cores: Vec<Core>,
    pub core_busy_until: Vec<SimTime>,
    pub pairs: Vec<Pair>,
    /// Pair indices hosted on each core (fixed assignment).
    pub pairs_by_core: Vec<Vec<usize>>,
    /// Per-pair base buffer capacity B₀.
    pub base_capacity: usize,
    /// Whether every arrival is a decision point (stride 1); set from
    /// the run by `Sim::run`.
    pub every_arrival: bool,
    /// Pairs whose decision point may have moved, in the order touched.
    pub refile: Vec<usize>,
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

    /// Queues pair `i` to re-file its decision point after the event
    /// being handled: its buffer drained or its capacity changed.
    #[inline]
    pub fn touch(&mut self, i: usize) {
        if !self.pairs[i].refile {
            self.pairs[i].refile = true;
            self.refile.push(i);
        }
    }

    /// Takes arrivals up to `to` (exclusive) into pair `i`'s buffer.
    #[inline]
    pub fn catch_up(&mut self, i: usize, to: usize) {
        let pair = &mut self.pairs[i];
        for t in &self.fleet[i].times()[pair.tail..to] {
            pair.stamps += u128::from(t.as_nanos());
        }
        pair.metrics.items_produced += (to - pair.tail) as u64;
        pair.tail = to;
    }

    /// Pair `i`'s first arrival at or after `t` before the end, scanning
    /// from arrival `from`, and whether it is due exactly at `t`.
    #[inline]
    pub fn arrival_from(&self, i: usize, from: usize, t: SimTime) -> (usize, bool) {
        let times = &self.fleet[i].times()[..self.pairs[i].limit];
        let mut a = from;
        while a < times.len() && times[a] < t {
            a += 1;
        }
        (a, times.get(a) == Some(&t))
    }

    /// Takes the next arrival into pair `i`'s buffer.
    #[inline]
    pub fn include(&mut self, i: usize) {
        let to = self.pairs[i].tail + 1;
        self.catch_up(i, to);
    }

    /// Sheds pair `i`'s next arrival: it counts as produced and shed but
    /// never joins the buffer.
    fn shed(&mut self, i: usize) {
        let pair = &mut self.pairs[i];
        pair.shed.push(pair.tail);
        pair.tail += 1;
        pair.metrics.items_produced += 1;
        pair.metrics.items_shed += 1;
    }

    /// Brings pair `i`'s buffer up to the event being handled: it takes
    /// in every arrival that pops before that event when every arrival
    /// is a point — all earlier ones, and at the current instant those
    /// the same-time order puts first. Never past the pending point,
    /// which has not popped.
    pub fn sync(&mut self, i: usize) {
        let pair = &mut self.pairs[i];
        let bound = pair.point.unwrap_or(pair.limit);
        if pair.tail >= bound {
            return;
        }
        let times = self.fleet[i].times();
        let now = self.engine.now().as_nanos();
        while pair.tail < bound {
            let t = times[pair.tail].as_nanos();
            if t > now || (t == now && !self.engine.precedes_current(i as u32, pair.tail as u32)) {
                break;
            }
            pair.stamps += u128::from(t);
            pair.tail += 1;
            pair.metrics.items_produced += 1;
        }
    }

    /// Items pair `i` holds now.
    #[inline]
    pub fn len(&mut self, i: usize) -> usize {
        self.sync(i);
        let pair = &self.pairs[i];
        pair.tail - pair.head - pair.shed.len()
    }

    /// Consumes pair `i`'s buffer at `end`: folds the items' latencies
    /// (their sum is `n·end − Σ stamps`, the largest is the first item's,
    /// and the reservoir reads only its sampled positions) and deadline
    /// misses into the metrics, and empties the buffer. Returns `n`.
    fn consume(&mut self, i: usize, end: SimTime, l: &impl Layer) -> u64 {
        let pair = &mut self.pairs[i];
        let (head, items) = (pair.head, &self.fleet[i].times()[pair.head..pair.tail]);
        let shed = &pair.shed;
        let n = (items.len() - shed.len()) as u64;
        let end_ns = end.as_nanos();
        let total = u128::from(n) * u128::from(end_ns) - pair.stamps;
        // The k-th buffered item, skipping shed ones; k never decreases.
        let (mut skipped, mut next_shed) = (0, 0);
        let lat = |k: u64| {
            let mut at = k as usize + skipped;
            while next_shed < shed.len() && shed[next_shed] <= head + at {
                skipped += 1;
                next_shed += 1;
                at += 1;
            }
            end_ns - items[at].as_nanos()
        };
        let metrics = &mut pair.metrics;
        metrics.record_latencies(n, SimDuration::from_nanos(total as u64), lat);
        if let Some(cutoff) = l.deadline().and_then(|d| end_ns.checked_sub(d.as_nanos())) {
            // Items produced before `end − deadline` waited longer.
            let late = items.partition_point(|t| t.as_nanos() < cutoff);
            let shed_late = shed.iter().take_while(|&&s| s < head + late).count();
            metrics.deadline_misses += (late - shed_late) as u64;
        }
        pair.empty();
        n
    }

    /// Consumes pair `i`'s buffer as each item arrived (the spinning
    /// consumers'): zero latency, no drain sample. Returns `n`.
    pub fn consume_instantly(&mut self, i: usize) -> u64 {
        let n = self.len(i) as u64;
        let pair = &mut self.pairs[i];
        pair.metrics.record_latencies(n, SimDuration::ZERO, |_| 0);
        pair.metrics.items_consumed += n;
        pair.empty();
        n
    }

    /// Occupies the pair's core for `work`, then consumes the pair's
    /// buffer at the span's end and records the drain sample. Returns
    /// the span end. Shared tail of every drain path.
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
        let n = self.consume(i, end, l);
        self.pairs[i].metrics.record_drain(n, capacity);
        self.touch(i);
        end
    }

    /// Drains a batching pair of `capacity` on a `trigger`ed wake,
    /// occupies the core, and records metrics. Returns the batch size.
    pub(crate) fn batch_drain(
        &mut self,
        i: usize,
        now: SimTime,
        trigger: Trigger,
        capacity: usize,
        l: &impl Layer,
    ) -> u64 {
        let n = self.len(i) as u64;
        let metrics = &mut self.pairs[i].metrics;
        metrics.invocations += 1;
        match trigger {
            Trigger::Scheduled => metrics.scheduled_wakeups += 1,
            _ => metrics.overflow_wakeups += 1,
        }
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

    /// Files, moves or withdraws the decision point of every touched
    /// pair: its next arrival when every arrival is a point, otherwise
    /// the arrival its handler names. Files nothing past the end.
    fn refile(&mut self, h: &Handler) {
        let touched = std::mem::take(&mut self.refile);
        for &i in &touched {
            self.pairs[i].refile = false;
            let want = if self.every_arrival {
                Some(self.pairs[i].tail)
            } else {
                h.next_point(i, self)
            };
            let pair = &mut self.pairs[i];
            let want = want.filter(|&a| a < pair.limit);
            if want == pair.point {
                continue;
            }
            debug_assert!(
                want.is_none_or(|a| a >= pair.tail),
                "points never move backwards"
            );
            pair.point = want;
            match want {
                Some(a) => {
                    let t = self.fleet[i].times()[a];
                    self.engine.file_point(t, i as u32, a as u32);
                }
                None => self.engine.withdraw_point(i as u32),
            }
        }
        self.refile = touched;
        self.refile.clear();
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
        // Every arrival is a point when the run records `Produce` events
        // or a layer decides on each item; otherwise the engine orders
        // points that skipped arrivals by the arrival times.
        let k = &mut self.k;
        k.every_arrival = k.trace.is_enabled() || self.l.admits();
        if !k.every_arrival {
            let times = FleetTimes(Arc::clone(&k.fleet));
            k.engine.set_arrival_times(Rc::new(times));
        }
        // Layer events first (fault window edges, then the supervisor's
        // first tick), then the strategy's own, then the first points in
        // pair order.
        self.l.arm(&mut self.k);
        self.h.setup(&mut self.k, &mut self.l);
        for i in 0..self.k.pairs.len() {
            self.k.touch(i);
        }
        self.k.refile.sort_unstable();
        self.k.refile(&self.h);
        while let Some((t, popped)) = self.k.engine.next_merged_before(self.k.end) {
            match popped {
                Popped::Point(pair) => self.point(pair as usize, t),
                Popped::Timer(ev) => self.handle(ev),
            }
            self.k.refile(&self.h);
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

    /// Handles pair `pair`'s decision point, its arrival at `t` (the
    /// engine clock already sits at `t`). The arrivals it skipped join
    /// the buffer first; then the arrival is produced, offered to
    /// admission control and handed to the strategy.
    fn point(&mut self, pair: usize, t: SimTime) {
        let k = &mut self.k;
        let a = k.pairs[pair].point.expect("a popped point was filed");
        debug_assert_eq!(k.fleet[pair].get(a), Some(t), "the point's time");
        k.catch_up(pair, a);
        k.trace.record(|| TraceEvent::Produce { pair: pair as u32 });
        // Admission control (DESIGN.md §15): a shed item still counts as
        // produced (the `Produce` event above already fired) but never
        // reaches the strategy — conservation becomes
        // `produced == consumed + shed`.
        if self.l.admit(pair, t, k, &self.h) {
            self.h.arrive(pair, t, k, &mut self.l);
        } else {
            k.shed(pair);
            k.trace
                .record(|| TraceEvent::ItemShed { pair: pair as u32 });
        }
        k.pairs[pair].point = None;
        k.touch(pair);
    }

    fn handle(&mut self, ev: Ev) {
        let now = self.k.engine.now();
        match ev {
            Ev::FaultStart { f } => self.l.fault_start(f, &mut self.k),
            Ev::FaultEnd { f } => self.fault_end(f),
            Ev::SupervisorTick => {
                for i in self.l.supervisor_tick(now, &mut self.k) {
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
        let Sim { mut k, h, l } = self;
        let end = k.end;
        // Every arrival before the end has arrived. Account for the items
        // still buffered so the conservation invariant (produced ==
        // consumed + shed) holds. No wakeups or core spans are charged —
        // the run is over. The spinning consumers took theirs as they
        // came.
        let spinning = matches!(h, Handler::Busy { .. });
        for i in 0..k.pairs.len() {
            k.catch_up(i, k.pairs[i].limit);
            if spinning {
                k.consume_instantly(i);
                continue;
            }
            let drained = k.consume(i, end, &l);
            if drained > 0 {
                k.pairs[i].metrics.items_consumed += drained;
                k.trace.record(|| TraceEvent::Flush {
                    pair: i as u32,
                    drained,
                });
            }
        }
        debug_assert_eq!(
            k.engine.pending() as u64,
            k.engine.queue_stats().pending_at_teardown,
            "every point before the end popped"
        );

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
        // Stamped by the Sim at teardown, which owns the cursors: the
        // arrivals taken in, those consumed, and those left (none — the
        // flush consumed them). Sheds happen after the consume, so they
        // sit outside the ledger equation but ride the same struct.
        scheduler.arrivals_scheduled = k.pairs.iter().map(|p| p.limit as u64).sum();
        scheduler.arrivals_popped = k.pairs.iter().map(|p| p.head as u64).sum();
        scheduler.pending_at_teardown += k
            .pairs
            .iter()
            .map(|p| (p.limit - p.head) as u64)
            .sum::<u64>();
        scheduler.items_shed = items_shed;
        // Every scheduled event must be accounted for: popped, cancelled,
        // or still pending at teardown (events past `end`, e.g. a
        // DrainDone continuation of the final drain), and every arrival
        // consumed. Silent losses would mean the wheel dropped work.
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
