//! Per-core activity accounting.
//!
//! The paper's formal model (§IV-B) reduces a core to two states — *idle*
//! and *active* — and charges a wakeup cost ω for every idle→active
//! transition (Eq. 3). [`Core`] implements exactly that model as an online
//! accumulator: system models report *active spans* (`[start, end)`
//! intervals during which the core executes consumer work), the core
//! merges overlapping/adjacent spans, counts a **wakeup** whenever a span
//! begins after a genuine idle gap, and records the full idle/active
//! timeline that `pc-power` later integrates into energy.

use crate::time::{SimDuration, SimTime};
use pc_trace_events::{TraceEvent, TraceHandle};
use serde::{Deserialize, Serialize};

/// Index of a CPU core in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub usize);

/// The two-state core model of the paper (§IV-A "Simplified power model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreState {
    /// The core is powered down to some C-state.
    Idle,
    /// The core is executing.
    Active,
}

/// One maximal interval of the core timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateInterval {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// State held throughout the interval.
    pub state: CoreState,
}

impl StateInterval {
    /// Length of the interval.
    pub fn len(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Online activity accumulator for one core.
///
/// Active spans must be reported with non-decreasing start times, which a
/// discrete-event simulation provides naturally. Overlapping or adjacent
/// spans merge; a span starting strictly after the current activity ends
/// closes an idle gap and counts one wakeup.
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    /// Current open active span, if the core has ever been woken.
    open: Option<(SimTime, SimTime)>,
    /// Completed timeline (idle gaps and closed active spans), in order.
    timeline: Vec<StateInterval>,
    wakeups: u64,
    active_total: SimDuration,
    last_span_start: SimTime,
    trace: TraceHandle,
}

impl Core {
    /// Creates an idle core at time zero.
    pub fn new(id: CoreId) -> Self {
        Core {
            id,
            open: None,
            timeline: Vec::new(),
            wakeups: 0,
            active_total: SimDuration::ZERO,
            last_span_start: SimTime::ZERO,
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches an event-trace handle; accepted spans are emitted as
    /// [`TraceEvent::CoreSpan`] events.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Reports that the core executes during `[start, end)`.
    ///
    /// Panics if `start` precedes the start of a previously reported span
    /// (event-ordered callers cannot trigger this) or if `end < start`.
    pub fn add_active_span(&mut self, start: SimTime, end: SimTime) {
        assert!(end >= start, "active span ends before it starts");
        assert!(
            start >= self.last_span_start,
            "active spans must be reported in start order"
        );
        self.last_span_start = start;
        if start == end {
            return;
        }
        let wakeup;
        match self.open {
            None => {
                // First activity ever: idle from t=0 until start.
                if start > SimTime::ZERO {
                    self.timeline.push(StateInterval {
                        start: SimTime::ZERO,
                        end: start,
                        state: CoreState::Idle,
                    });
                }
                self.wakeups += 1;
                wakeup = true;
                self.open = Some((start, end));
            }
            Some((ostart, oend)) => {
                if start <= oend {
                    // Overlaps or abuts the open span: extend (latch — no
                    // new wakeup, the core is already awake).
                    self.open = Some((ostart, oend.max(end)));
                    wakeup = false;
                } else {
                    // Genuine idle gap.
                    self.close_open_span();
                    self.timeline.push(StateInterval {
                        start: oend,
                        end: start,
                        state: CoreState::Idle,
                    });
                    self.wakeups += 1;
                    wakeup = true;
                    self.open = Some((start, end));
                }
            }
        }
        self.trace.record(|| TraceEvent::CoreSpan {
            core: self.id.0 as u32,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            wakeup,
        });
    }

    fn close_open_span(&mut self) {
        if let Some((s, e)) = self.open.take() {
            self.timeline.push(StateInterval {
                start: s,
                end: e,
                state: CoreState::Active,
            });
            self.active_total += e.since(s);
        }
    }

    /// End of the currently known activity, i.e. the earliest time the
    /// core could go idle. `None` if the core was never woken.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.open.map(|(_, e)| e)
    }

    /// Number of idle→active transitions so far.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Total active time over closed spans plus the open span.
    pub fn active_time(&self) -> SimDuration {
        match self.open {
            Some((s, e)) => self.active_total + e.since(s),
            None => self.active_total,
        }
    }

    /// Finalises the timeline at `end_of_run`, closing the open span and
    /// appending the trailing idle interval. Returns the complete
    /// timeline. The core must not be used afterwards.
    pub fn finish(mut self, end_of_run: SimTime) -> CoreReport {
        if let Some((s, e)) = self.open {
            // Clip the open span to the end of the run if it overruns.
            let e = e.min(end_of_run).max(s);
            self.open = Some((s, e));
        }
        self.close_open_span();
        let tail_start = self
            .timeline
            .last()
            .map(|iv| iv.end)
            .unwrap_or(SimTime::ZERO);
        if tail_start < end_of_run {
            self.timeline.push(StateInterval {
                start: tail_start,
                end: end_of_run,
                state: CoreState::Idle,
            });
        }
        CoreReport {
            id: self.id,
            wakeups: self.wakeups,
            active_time: self.active_total,
            duration: end_of_run.saturating_since(SimTime::ZERO),
            timeline: self.timeline,
        }
    }
}

/// The finalised activity record of one core over a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreReport {
    /// Which core this describes.
    pub id: CoreId,
    /// Idle→active transitions over the run.
    pub wakeups: u64,
    /// Total time spent active.
    pub active_time: SimDuration,
    /// Length of the run.
    pub duration: SimDuration,
    /// Complete alternating idle/active timeline covering `[0, duration)`.
    pub timeline: Vec<StateInterval>,
}

impl CoreReport {
    /// Total idle time.
    pub fn idle_time(&self) -> SimDuration {
        self.duration.saturating_sub(self.active_time)
    }

    /// Wakeups per second of run time.
    pub fn wakeups_per_sec(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.wakeups as f64 / self.duration.as_secs_f64()
        }
    }

    /// CPU usage in the paper's PowerTop unit: milliseconds of execution
    /// per second of wall time.
    pub fn usage_ms_per_sec(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.active_time.as_secs_f64() * 1e3 / self.duration.as_secs_f64()
        }
    }

    /// Iterator over the idle intervals of the timeline.
    #[cfg(test)]
    fn idle_intervals(&self) -> impl Iterator<Item = &StateInterval> {
        self.timeline
            .iter()
            .filter(|iv| iv.state == CoreState::Idle)
    }

    /// Validates internal consistency: contiguous coverage of `[0, end)`,
    /// alternating bookkeeping, and totals matching the timeline. Used by
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let mut cursor = SimTime::ZERO;
        let mut active = SimDuration::ZERO;
        for iv in &self.timeline {
            if iv.start != cursor {
                return Err(format!(
                    "gap at {cursor}: next interval starts {}",
                    iv.start
                ));
            }
            if iv.is_empty() {
                return Err(format!("empty interval at {}", iv.start));
            }
            if iv.state == CoreState::Active {
                active += iv.len();
            }
            cursor = iv.end;
        }
        let expected_end = SimTime::ZERO + self.duration;
        if cursor != expected_end {
            return Err(format!(
                "timeline ends at {cursor}, run ends at {expected_end}"
            ));
        }
        if active != self.active_time {
            return Err(format!(
                "active total mismatch: timeline {active}, counter {}",
                self.active_time
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn single_span_counts_one_wakeup() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(10), t(20));
        assert_eq!(c.wakeups(), 1);
        let r = c.finish(t(100));
        assert_eq!(r.wakeups, 1);
        assert_eq!(r.active_time, SimDuration::from_micros(10));
        r.validate().unwrap();
        assert_eq!(r.timeline.len(), 3); // idle, active, idle
    }

    #[test]
    fn overlapping_spans_merge_without_new_wakeup() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(10), t(20));
        c.add_active_span(t(15), t(30)); // overlaps
        c.add_active_span(t(30), t(35)); // abuts
        assert_eq!(c.wakeups(), 1);
        let r = c.finish(t(100));
        assert_eq!(r.active_time, SimDuration::from_micros(25));
        r.validate().unwrap();
    }

    #[test]
    fn gap_counts_new_wakeup_and_idle_interval() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(10), t(20));
        c.add_active_span(t(50), t(60));
        assert_eq!(c.wakeups(), 2);
        let r = c.finish(t(100));
        r.validate().unwrap();
        let idles: Vec<_> = r.idle_intervals().collect();
        assert_eq!(idles.len(), 3);
        assert_eq!(idles[1].start, t(20));
        assert_eq!(idles[1].end, t(50));
    }

    #[test]
    fn never_woken_core_is_fully_idle() {
        let c = Core::new(CoreId(3));
        let r = c.finish(t(1000));
        assert_eq!(r.wakeups, 0);
        assert_eq!(r.active_time, SimDuration::ZERO);
        assert_eq!(r.idle_time(), SimDuration::from_micros(1000));
        r.validate().unwrap();
        assert_eq!(r.timeline.len(), 1);
    }

    #[test]
    fn zero_length_span_is_ignored() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(10), t(10));
        assert_eq!(c.wakeups(), 0);
        let r = c.finish(t(50));
        assert_eq!(r.active_time, SimDuration::ZERO);
        r.validate().unwrap();
    }

    #[test]
    fn open_span_clipped_to_end_of_run() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(90), t(200));
        let r = c.finish(t(100));
        assert_eq!(r.active_time, SimDuration::from_micros(10));
        r.validate().unwrap();
    }

    #[test]
    fn metrics_per_second() {
        let mut c = Core::new(CoreId(0));
        // 4 wakeups over 2 seconds, 100ms active each.
        for k in 0..4u64 {
            let start = SimTime::from_millis(k * 500);
            c.add_active_span(start, start + SimDuration::from_millis(100));
        }
        let r = c.finish(SimTime::from_secs(2));
        assert!((r.wakeups_per_sec() - 2.0).abs() < 1e-9);
        assert!((r.usage_ms_per_sec() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "start order")]
    fn out_of_order_spans_panic() {
        let mut c = Core::new(CoreId(0));
        c.add_active_span(t(50), t(60));
        c.add_active_span(t(10), t(20));
    }

    #[test]
    fn busy_until_reflects_open_span() {
        let mut c = Core::new(CoreId(0));
        assert_eq!(c.busy_until(), None);
        c.add_active_span(t(10), t(25));
        assert_eq!(c.busy_until(), Some(t(25)));
        c.add_active_span(t(20), t(40));
        assert_eq!(c.busy_until(), Some(t(40)));
    }
}
