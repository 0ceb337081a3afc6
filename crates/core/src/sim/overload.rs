//! The overload-control layer (DESIGN.md §15): deadline-aware
//! admission with ledgered load shedding, the deadline-miss count, and
//! the fleet supervisor. Built only when [`OverloadConfig::enabled`];
//! it reaches the run only through the [`Layer`] hooks.

use super::handlers::Handler;
use super::kernel::{Ev, Kernel, Layer};
use crate::config::OverloadConfig;
use pc_sim::{SimDuration, SimTime};
use pc_trace_events::{TraceEvent, TraceHandle};

/// Per-pair admission-controller state. All integer arithmetic at
/// integer sim-time: the decision sequence is a pure function of the
/// arrival stream, never of wall-clock or float accumulation.
#[derive(Default)]
struct AdmissionState {
    /// Consecutive over-deadline arrivals (trip counter).
    consec_over: u32,
    /// Consecutive under-threshold arrivals (clear counter).
    consec_under: u32,
    /// Whether the pair is currently shedding.
    in_overload: bool,
    /// Whether the open window was forced by the fleet supervisor
    /// (escalation) rather than tripped by this pair's own estimator.
    escalated: bool,
    /// Items shed in the open window; reported by `OverloadCleared` so
    /// the oracle can cross-check it against the `ItemShed` count.
    shed_in_window: u64,
}

impl AdmissionState {
    /// Opens a window on `pair` (its `occupancy` items buffered), with
    /// `shed` items already counted against it.
    fn open(&mut self, pair: usize, k: &mut Kernel, occupancy: u64, escalated: bool, shed: u64) {
        self.in_overload = true;
        self.escalated = escalated;
        self.consec_over = 0;
        self.consec_under = 0;
        self.shed_in_window = shed;
        k.pairs[pair].metrics.overload_windows += 1;
        k.trace.record(|| TraceEvent::OverloadEntered {
            pair: pair as u32,
            occupancy,
            escalated,
        });
    }

    /// Closes `pair`'s window and reports its shed tally.
    fn clear(&mut self, pair: usize, trace: &TraceHandle) {
        self.in_overload = false;
        self.escalated = false;
        self.consec_over = 0;
        self.consec_under = 0;
        let shed = std::mem::take(&mut self.shed_in_window);
        trace.record(|| TraceEvent::OverloadCleared {
            pair: pair as u32,
            shed,
        });
    }
}

/// Runtime state of the overload-control layer.
pub(super) struct OverloadRuntime {
    cfg: OverloadConfig,
    admission: Vec<AdmissionState>,
    /// Fleet-wide escalation latch: while set, per-pair windows cannot
    /// clear (arrivals keep shedding) until the supervisor de-escalates.
    fleet_shed: bool,
    /// `items_consumed` per pair at the previous supervisor tick.
    last_consumed: Vec<u64>,
    /// Consecutive ticks without consume progress while items buffered.
    stuck_ticks: Vec<u32>,
}

impl OverloadRuntime {
    pub fn new(cfg: OverloadConfig, pairs: usize) -> Self {
        OverloadRuntime {
            cfg,
            admission: (0..pairs).map(|_| AdmissionState::default()).collect(),
            fleet_shed: false,
            last_consumed: vec![0; pairs],
            stuck_ticks: vec![0; pairs],
        }
    }
}

impl Layer for OverloadRuntime {
    /// The fleet supervisor: one periodic wheel event.
    fn arm(&mut self, k: &mut Kernel) {
        self.rearm_supervisor(SimTime::ZERO, k);
    }

    /// Admission decision for one arrival: applies the trip/clear
    /// hysteresis over the measured service lag — the gap from `t` to
    /// the later of the consumer's own busy spell and its core's busy
    /// horizon — and emits the window-edge events. An item admitted
    /// while the lag already exceeds the deadline cannot *start* service
    /// inside the deadline — shedding it sheds a guaranteed miss, never
    /// viable work.
    fn admits(&self) -> bool {
        true
    }

    fn admit(&mut self, i: usize, t: SimTime, k: &mut Kernel, h: &Handler) -> bool {
        let horizon = h.busy_until(i).max(k.core_busy_until[k.pairs[i].core]);
        let lag_ns = horizon.saturating_since(t).as_nanos();
        let cfg = self.cfg;
        let st = &mut self.admission[i];
        let deadline_ns = cfg.deadline.as_nanos();
        if st.in_overload {
            // Clear hysteresis: the lag must sit well below the
            // deadline (clear_pct of it) for clear_arrivals consecutive
            // arrivals. A *self-tripped* window clears on that measured
            // recovery alone — holding it hostage to the fleet latch
            // would deadlock (de-escalation needs the self-tripped
            // share to fall, which needs clears). Only *escalated*
            // windows stay latched while the fleet sheds: their pairs
            // never tripped, so their low lag says nothing about the
            // correlated overload that opened them.
            if lag_ns <= deadline_ns.saturating_mul(cfg.clear_pct as u64) / 100 {
                st.consec_under += 1;
            } else {
                st.consec_under = 0;
            }
            if st.consec_under >= cfg.clear_arrivals && !(self.fleet_shed && st.escalated) {
                st.clear(i, &k.trace);
                true
            } else {
                st.shed_in_window += 1;
                false
            }
        } else {
            if lag_ns > deadline_ns {
                st.consec_over += 1;
            } else {
                st.consec_over = 0;
            }
            if st.consec_over >= cfg.trip_arrivals {
                // The tripping arrival itself is shed.
                let occupancy = k.len(i) as u64;
                st.open(i, k, occupancy, false, 1);
                false
            } else {
                true
            }
        }
    }

    fn deadline(&self) -> Option<SimDuration> {
        Some(self.cfg.deadline)
    }

    /// Fleet-supervisor tick: detect stuck pairs (no consume progress
    /// across `stuck_ticks` ticks while items sit buffered) for the
    /// handler's emergency drain; escalate shedding fleet-wide when the
    /// self-tripped share reaches `escalate_pct` of the fleet,
    /// de-escalate at half that.
    fn supervisor_tick(&mut self, _now: SimTime, k: &mut Kernel) -> Vec<usize> {
        let m = k.pairs.len();
        let cfg = self.cfg;
        let mut stuck = Vec::new();
        let mut tripped = 0usize;
        for i in 0..m {
            let consumed = k.pairs[i].metrics.items_consumed;
            if k.len(i) > 0 && consumed == self.last_consumed[i] {
                self.stuck_ticks[i] += 1;
            } else {
                self.stuck_ticks[i] = 0;
            }
            self.last_consumed[i] = consumed;
            if self.stuck_ticks[i] >= cfg.stuck_ticks {
                self.stuck_ticks[i] = 0;
                stuck.push(i);
            }
            let st = &self.admission[i];
            if st.in_overload && !st.escalated {
                tripped += 1;
            }
        }
        // Correlated-overload escalation. Only self-tripped windows
        // count toward the census, so escalation cannot sustain itself;
        // the latch opens again once the underlying overload drains.
        if !self.fleet_shed && m > 1 && tripped * 100 >= cfg.escalate_pct as usize * m {
            self.fleet_shed = true;
            for (i, st) in self.admission.iter_mut().enumerate() {
                if !st.in_overload {
                    let occupancy = k.len(i) as u64;
                    st.open(i, k, occupancy, true, 0);
                }
            }
        } else if self.fleet_shed && tripped * 100 * 2 < cfg.escalate_pct as usize * m {
            self.fleet_shed = false;
            for (i, st) in self.admission.iter_mut().enumerate() {
                if st.in_overload && st.escalated {
                    st.clear(i, &k.trace);
                }
            }
        }
        stuck
    }

    fn rearm_supervisor(&mut self, now: SimTime, k: &mut Kernel) {
        let next = now.saturating_add(self.cfg.supervisor_period);
        if next < k.end {
            k.engine.schedule_at(next, Ev::SupervisorTick);
        }
    }

    fn close_windows(&mut self, k: &mut Kernel) {
        for (i, st) in self.admission.iter_mut().enumerate() {
            if st.in_overload {
                st.clear(i, &k.trace);
            }
        }
    }
}
