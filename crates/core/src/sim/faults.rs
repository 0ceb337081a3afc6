//! The fault-injection layer (DESIGN.md §10): a [`FaultPlan`]'s runtime
//! faults fire as events at their integer sim-time window edges and act
//! on the run only through the [`Layer`] hooks. Workload faults were
//! applied to the production traces at build time; their edges only
//! mark the window for observers. Built only for a non-empty plan.

use super::kernel::{Ev, Kernel, Layer};
use pc_faults::{Fault, FaultKind, FaultPlan};
use pc_sim::{SimDuration, SimTime};
use pc_trace_events::TraceEvent;

/// Runtime state of the active fault plan.
pub(super) struct FaultRuntime {
    faults: Vec<Fault>,
    /// Whether each fault is currently effective.
    active: Vec<bool>,
    /// Per-pair consumer service-time multiplier, fixed-point ×1000: the
    /// largest factor among the pair's open slowdown windows.
    work_x1000: Vec<u64>,
    /// Per-core additional timer-fire delay, nanoseconds.
    timer_delay_ns: Vec<u64>,
    /// Per-core count of active dropped-wakeup faults.
    drop_wake: Vec<u32>,
    /// Per-core wakeups swallowed while dropped (reported on recovery).
    swallowed: Vec<u64>,
    /// Per-fault pool units actually squeezed away (`pool_squeeze`), so
    /// recovery repays exactly what was granted.
    squeezed: Vec<usize>,
}

impl FaultRuntime {
    pub fn new(plan: &FaultPlan, pairs: usize, cores: usize) -> Self {
        FaultRuntime {
            faults: plan.faults().to_vec(),
            active: vec![false; plan.len()],
            work_x1000: vec![1000; pairs],
            timer_delay_ns: vec![0; cores],
            drop_wake: vec![0; cores],
            swallowed: vec![0; cores],
            squeezed: vec![0; plan.len()],
        }
    }

    /// Re-derives `pair`'s service-time multiplier from the open
    /// `ConsumerSlowdown` windows, so overlapping windows compose: the
    /// slowest one applies until the last of them closes.
    fn refresh_slowdown(&mut self, pair: u32) {
        let Some(x) = self.work_x1000.get_mut(pair as usize) else {
            return;
        };
        *x = self
            .faults
            .iter()
            .zip(&self.active)
            .filter_map(|(fault, &on)| match fault.kind {
                FaultKind::ConsumerSlowdown {
                    pair: p,
                    factor_x1000,
                } if on && p == pair => Some(factor_x1000.max(1000) as u64),
                _ => None,
            })
            .max()
            .unwrap_or(1000);
    }

    /// Traces a window edge with its effective parameter and the pool's
    /// availability after it (`u64::MAX` when the strategy has no pool;
    /// the oracle skips pool accounting on that sentinel).
    fn trace_edge(&self, f: usize, k: &Kernel, param: u64, opened: bool) {
        let fault = self.faults[f];
        let pool_available = k.pool.as_ref().map_or(u64::MAX, |p| p.available() as u64);
        let (id, pair, core) = (fault.id, fault.kind.pair(), fault.kind.core());
        k.trace.record(|| {
            let kind = fault.kind.name().to_string();
            if opened {
                TraceEvent::FaultInjected {
                    id,
                    kind,
                    pair,
                    core,
                    param,
                    pool_available,
                }
            } else {
                TraceEvent::FaultRecovered {
                    id,
                    kind,
                    pair,
                    core,
                    param,
                    pool_available,
                }
            }
        });
    }
}

impl Layer for FaultRuntime {
    fn arm(&mut self, k: &mut Kernel) {
        // Both edges are plain events at integer sim-time. Edges at or
        // past end-of-run are swept up by the teardown recovery.
        for (f, fault) in self.faults.iter().enumerate() {
            if fault.start_ns >= fault.end_ns {
                continue;
            }
            let start = SimTime::from_nanos(fault.start_ns);
            if start < k.end {
                k.engine.schedule_at(start, Ev::FaultStart { f });
                let end = SimTime::from_nanos(fault.end_ns);
                if end < k.end {
                    k.engine.schedule_at(end, Ev::FaultEnd { f });
                }
            }
        }
    }

    /// Applies the pair's service-time inflation (integer ×1000 fixed
    /// point; exact identity at the nominal 1000).
    fn inflate(&self, pair: usize, work: SimDuration) -> SimDuration {
        match self.work_x1000[pair] {
            1000 => work,
            x => SimDuration::from_nanos(((work.as_nanos() as u128 * x as u128) / 1000) as u64),
        }
    }

    /// The next window edge at or after `now`: an edge may change a
    /// consumer's service time.
    fn steady_until(&self, now: SimTime) -> SimTime {
        let now = now.as_nanos();
        self.faults
            .iter()
            .flat_map(|fault| [fault.start_ns, fault.end_ns])
            .filter(|&edge| edge >= now)
            .min()
            .map_or(SimTime::MAX, SimTime::from_nanos)
    }

    fn timer_delay(&self, core: usize) -> SimDuration {
        SimDuration::from_nanos(self.timer_delay_ns[core])
    }

    fn timer_dead(&self, core: usize) -> bool {
        self.drop_wake[core] > 0
    }

    fn swallow_wake(&mut self, core: usize) -> bool {
        let dead = self.drop_wake[core] > 0;
        if dead {
            self.swallowed[core] += 1;
        }
        dead
    }

    /// A fault window opens: make its effect live and trace the
    /// injection. Targets outside the run's pair/core range are ignored
    /// (arbitrary plans in property tests), but still traced.
    fn fault_start(&mut self, f: usize, k: &mut Kernel) {
        self.active[f] = true;
        let kind = self.faults[f].kind;
        let mut param = kind.param();
        match kind {
            FaultKind::RateShock { .. } | FaultKind::ProducerStall { .. } => {}
            FaultKind::ConsumerSlowdown { pair, .. } => self.refresh_slowdown(pair),
            FaultKind::TimerDrift { core, delay_ns } => {
                if let Some(d) = self.timer_delay_ns.get_mut(core as usize) {
                    *d = d.saturating_add(delay_ns);
                }
            }
            FaultKind::DroppedWakeup { core } => {
                if let Some(c) = self.drop_wake.get_mut(core as usize) {
                    *c += 1;
                }
            }
            // Best-effort: grab what the pool has, up to the request;
            // consumers degrade to their current capacity meanwhile.
            FaultKind::PoolSqueeze { units } => {
                let granted = k.pool.as_ref().map_or(0, |p| p.try_reserve(units as usize));
                self.squeezed[f] += granted;
                param = granted as u64;
            }
        }
        self.trace_edge(f, k, param, true);
    }

    /// A fault window closes: roll its effect back and trace the
    /// recovery. Returns the core to re-arm when its last dropped-wakeup
    /// window closed.
    fn fault_end(&mut self, f: usize, k: &mut Kernel) -> Option<usize> {
        self.active[f] = false;
        let kind = self.faults[f].kind;
        let mut param = kind.param();
        let mut rearm_core = None;
        match kind {
            FaultKind::RateShock { .. } | FaultKind::ProducerStall { .. } => {}
            FaultKind::ConsumerSlowdown { pair, .. } => self.refresh_slowdown(pair),
            FaultKind::TimerDrift { core, delay_ns } => {
                if let Some(d) = self.timer_delay_ns.get_mut(core as usize) {
                    *d = d.saturating_sub(delay_ns);
                }
            }
            FaultKind::DroppedWakeup { core } => {
                if let Some(c) = self.drop_wake.get_mut(core as usize) {
                    *c = c.saturating_sub(1);
                    param = self.swallowed[core as usize];
                    if *c == 0 {
                        self.swallowed[core as usize] = 0;
                        rearm_core = Some(core as usize);
                    }
                }
            }
            FaultKind::PoolSqueeze { .. } => {
                let granted = std::mem::take(&mut self.squeezed[f]);
                param = granted as u64;
                if granted > 0 {
                    k.pool
                        .as_ref()
                        .expect("squeeze granted implies a pool")
                        .release(granted);
                }
            }
        }
        self.trace_edge(f, k, param, false);
        // Dropped-wakeup recovery: the timer re-arms at the earliest
        // reservation; past slots fire immediately (now + 1ns) and
        // dispatch in order, so no reservation is ever stranded.
        rearm_core
    }

    fn open_faults(&self) -> Vec<usize> {
        (0..self.faults.len()).filter(|&f| self.active[f]).collect()
    }
}
