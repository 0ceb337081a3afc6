//! The PBPL handler (§V): per-pair elastic capacities and
//! [`PbplConsumer`] machines, the per-core slot managers and their
//! timers, group latching's piggyback drains, and the degraded-floor
//! rebalance across neighbours. A pair's items are its run in the
//! kernel; every operation that reads their count brings the run up to
//! the event being handled first.

use super::kernel::{Ev, Kernel, Layer};
use crate::manager::CoreManager;
use crate::model::PairId;
use crate::pbpl::PbplConsumer;
use crate::slot::SlotIndex;
use pc_queues::ElasticCapacity;
use pc_sim::event::EventId;
use pc_sim::{SimDuration, SimTime, TimerModel};
use pc_trace_events::{TraceEvent, Trigger};

/// One PBPL pair: its buffer's capacity, its decision machine and its
/// latency bound.
pub(super) struct PbplPair {
    pub ledger: ElasticCapacity,
    pub machine: PbplConsumer,
    /// This consumer's maximum acceptable response latency (§IV-A);
    /// bounds how far ahead it may reserve.
    pub max_latency: SimDuration,
}

pub(super) struct PbplHandler {
    /// Opportunistic drains on an already-awake core (`latching &&
    /// piggyback`).
    pub piggyback: bool,
    pub timer: TimerModel,
    pub managers: Vec<CoreManager>,
    /// Each core's armed slot timer.
    pub slot_timer: Vec<Option<(EventId, SlotIndex)>>,
    pub pairs: Vec<PbplPair>,
}

impl PbplHandler {
    pub fn setup(&mut self, k: &mut Kernel, l: &mut impl Layer) {
        for i in 0..self.pairs.len() {
            self.plan(i, SimTime::ZERO, true, k, l);
        }
    }

    /// Post-drain planning: the machine predicts, picks a slot and
    /// resizes; the handler traces the choice, reserves it and re-arms
    /// the core timer.
    fn plan(&mut self, i: usize, now: SimTime, allow_shrink: bool, k: &mut Kernel, l: &impl Layer) {
        if self.pairs[i].machine.degraded() {
            self.restore_floor(i, k);
        }
        let core = k.pairs[i].core;
        let occupancy = k.len(i);
        let pair = &mut self.pairs[i];
        let choice = pair.machine.plan(
            now,
            &self.managers[core],
            &mut pair.ledger,
            occupancy,
            k.base_capacity,
            pair.max_latency,
            allow_shrink,
        );
        k.touch(i);
        k.trace.record(|| TraceEvent::SlotSelect {
            pair: i as u32,
            core: core as u32,
            slot: choice.slot,
            latched: choice.latched,
            rate_overrun: choice.rate_overrun,
        });
        self.managers[core].reserve(choice.slot, PairId(i));
        self.ensure_scheduled(core, now, k, l);
    }

    /// Degraded floor: reclaim the pair's base entitlement while the
    /// watchdog is tripped. A buffer shrunk to the inter-burst average
    /// is what turns the next cluster into a run of consecutive
    /// overflows, and because slot selection already plans with
    /// `capacity.max(base)`, restoring the entitlement never delays this
    /// pair's scheduled wakeups — it only converts overflows back.
    fn restore_floor(&mut self, i: usize, k: &mut Kernel) {
        let base = k.base_capacity;
        let mut cap = {
            let ledger = &mut self.pairs[i].ledger;
            if ledger.capacity() < base {
                ledger.grow_to(base)
            } else {
                ledger.capacity()
            }
        };
        while cap < base {
            // Emergency rebalance: the pool is dry (inflated post-burst
            // predictors keep every pair in grow-wanting mode, so nothing
            // ever comes back), and this pair is demonstrably overflowing
            // below its fair share B₀. Reclaim the deficit from the
            // *most* over-provisioned neighbour — every victim keeps at
            // least its own entitlement, so its wakeups are never brought
            // forward past the fair-share plan, and modestly-sized
            // neighbours (whose headroom is their burst protection) are
            // left alone for as long as possible. A neighbour that is
            // *actively* overflowing keeps its surplus; one merely sitting
            // out the watchdog's recovery window is fair game — its
            // headroom is idle while this pair is drowning.
            let mut victim: Option<(usize, usize)> = None;
            for (j, p) in self.pairs.iter().enumerate() {
                if j == i || p.machine.overflowing() {
                    continue;
                }
                let surplus = p.ledger.capacity().saturating_sub(base);
                if surplus > 0 && victim.is_none_or(|(s, _)| surplus > s) {
                    victim = Some((surplus, j));
                }
            }
            let Some((surplus, j)) = victim else { break };
            let give = surplus.min(base - cap);
            let occupancy = k.len(j);
            let ledger = &mut self.pairs[j].ledger;
            ledger.shrink_to(ledger.capacity() - give, occupancy);
            k.touch(j);
            let regrown = self.pairs[i].ledger.grow_to(base);
            if regrown == cap {
                // The victim's occupancy floor blocked the shrink; no
                // progress is possible this plan.
                break;
            }
            cap = regrown;
        }
    }

    fn invoke(&mut self, i: usize, now: SimTime, trigger: Trigger, k: &mut Kernel, l: &impl Layer) {
        let capacity = self.pairs[i].ledger.capacity();
        let n = k.batch_drain(i, now, trigger, capacity, l);
        let overflow = trigger == Trigger::Overflow;
        self.pairs[i].machine.invoke(n, now, overflow);
        self.plan(i, now, !overflow, k, l);
    }

    /// The pair's decision point: at capacity, the arrival overflows the
    /// buffer, which drains before it joins.
    #[inline]
    pub fn arrive(&mut self, i: usize, t: SimTime, k: &mut Kernel, l: &impl Layer) {
        if k.len(i) < self.pairs[i].ledger.capacity() {
            k.include(i);
            return;
        }
        self.invoke(i, t, Trigger::Overflow, k, l);
        k.include(i);
        // The overflow woke the core regardless; let neighbours latch
        // onto it (§V-A group latching) and re-arm the slot timer.
        // The overflowing consumer itself just drained — excluding it
        // avoids a zero-dt double invocation when its buffer is tiny.
        let core = k.pairs[i].core;
        self.piggyback(core, t, Some(i), k, l);
        self.ensure_scheduled(core, t, k, l);
    }

    pub(crate) fn slot_wake(
        &mut self,
        core: usize,
        slot: SlotIndex,
        now: SimTime,
        k: &mut Kernel,
        l: &mut impl Layer,
    ) {
        self.slot_timer[core] = None;
        if l.swallow_wake(core) {
            // The scheduled wakeup is swallowed: no dispatch, no re-arm.
            // Reservations stay in the book; recovery (or overflow wakes
            // meanwhile, or the end-of-run flush) picks them back up.
            return;
        }
        for consumer in self.managers[core].take_due(slot) {
            self.invoke(consumer.0, now, Trigger::Scheduled, k, l);
        }
        self.piggyback(core, now, None, k, l);
        self.ensure_scheduled(core, now, k, l);
    }

    /// The supervisor's kick: drain now and trip the watchdog, so the
    /// following plans run with the boosted margin and the floor.
    pub(crate) fn emergency_drain(
        &mut self,
        i: usize,
        now: SimTime,
        k: &mut Kernel,
        l: &impl Layer,
    ) {
        if k.len(i) > 0 {
            self.pairs[i].machine.force_degraded();
            self.invoke(i, now, Trigger::Overflow, k, l);
        }
    }

    /// Group latching on an already-awake core: "if the CPU is already
    /// awake at a specific point in time, then it is beneficial to
    /// schedule consumers to be invoked at that same time" (§V-A). Any
    /// consumer on this core that has accumulated a meaningful batch
    /// drains now for free — w = 0 in ρ — which both cancels its own
    /// pending wakeup (its re-reservation moves a full buffer-fill into
    /// the future) and lets it shrink toward an empty-buffer prediction,
    /// feeding the pool that bursting neighbours draw on.
    fn piggyback(
        &mut self,
        core: usize,
        now: SimTime,
        exclude: Option<usize>,
        k: &mut Kernel,
        l: &impl Layer,
    ) {
        if !self.piggyback {
            return;
        }
        for n in 0..k.pairs_by_core[core].len() {
            let i = k.pairs_by_core[core][n];
            // Skip the excluded pair and batches not worth a dispatch.
            if Some(i) == exclude || k.len(i) * 8 < self.pairs[i].ledger.capacity() {
                continue;
            }
            self.invoke(i, now, Trigger::Scheduled, k, l);
        }
    }

    /// Arms (or re-targets) the core's single timer at its earliest
    /// reserved slot — "the core manager will schedule the next slot with
    /// at least one reservation" (§V-B).
    pub fn ensure_scheduled(&mut self, core: usize, now: SimTime, k: &mut Kernel, l: &impl Layer) {
        if l.timer_dead(core) {
            // The core's timer hardware is "dead" for the fault window:
            // nothing new gets armed (an already-armed timer is swallowed
            // at fire time). Recovery re-enters here.
            return;
        }
        let want = self.managers[core].first_reserved();
        match (self.slot_timer[core], want) {
            (Some((_, s)), Some(w)) if s == w => {}
            (current, Some(w)) => {
                if let Some((id, _)) = current {
                    k.engine.cancel(id);
                }
                let nominal = self.managers[core].track().slot_start(w);
                let fire = self
                    .timer
                    .fire_time(nominal, k.engine.rng())
                    .max(now.saturating_add(SimDuration::from_nanos(1)))
                    .saturating_add(l.timer_delay(core));
                // A slot past the end of the run is never armed; the
                // end-of-run flush drains whatever would have been
                // batched there.
                self.slot_timer[core] = (fire < k.end).then(|| {
                    (
                        k.engine.schedule_at(fire, Ev::SlotWake { core, slot: w }),
                        w,
                    )
                });
            }
            (Some((id, _)), None) => {
                k.engine.cancel(id);
                self.slot_timer[core] = None;
            }
            (None, None) => {}
        }
    }
}
