//! Wakeup and usage instrumentation for native strategy threads.
//!
//! The paper measures its software metrics with PowerTop: *wakeups/s*
//! (how often a process's thread goes from blocked to runnable) and
//! *usage ms/s*. Native threads can count both directly: every blocking
//! primitive in `pc-queues` reports whether a call actually blocked — one
//! genuine sleep/wake cycle — and a [`UsageTimer`] accumulates busy time
//! around each drain.
//!
//! Item latency runs from the item's scheduled wall deadline to its
//! drain, the simulator's definition. In an open-loop replay that counts
//! the time a stalled producer pushed late, which a push-instant stamp
//! would leave out.

use pc_sim::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared counters for one producer-consumer pair. All methods are
/// callable from any thread.
#[derive(Debug, Default)]
pub(crate) struct PairCounters {
    items_produced: AtomicU64,
    items_consumed: AtomicU64,
    /// Consumer thread blocked→runnable transitions.
    wakeups: AtomicU64,
    /// Consumer invocations (wake sessions / batch drains).
    invocations: AtomicU64,
    /// Invocations triggered by a scheduled timer or slot.
    scheduled: AtomicU64,
    /// Invocations forced by a full buffer.
    overflows: AtomicU64,
    /// Producer pushes that found the buffer full and had to wait, one
    /// per push however many retries it took (PBPL only).
    overflow_episodes: AtomicU64,
    /// Nanoseconds of consumer busy time.
    busy_ns: AtomicU64,
    /// Sum of item latencies, nanoseconds.
    latency_sum_ns: AtomicU64,
    /// Maximum item latency, nanoseconds.
    latency_max_ns: AtomicU64,
}

impl PairCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records items emitted by the producer.
    pub(crate) fn add_produced(&self, n: u64) {
        self.items_produced.fetch_add(n, Ordering::Relaxed);
    }

    /// Records items drained by the consumer.
    pub(crate) fn add_consumed(&self, n: u64) {
        self.items_consumed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one consumer thread wakeup.
    pub(crate) fn add_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one invocation, classified like the paper's §VI metrics.
    pub(crate) fn add_invocation(&self, scheduled: bool, overflow: bool) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        if scheduled {
            self.scheduled.fetch_add(1, Ordering::Relaxed);
        }
        if overflow {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one producer overflow episode.
    pub(crate) fn add_overflow_episode(&self) {
        self.overflow_episodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one item's latency: due at `due`, drained at
    /// `consumed_at`.
    pub(crate) fn add_latency(&self, due: Instant, consumed_at: Instant) {
        let ns = consumed_at
            .saturating_duration_since(due)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.latency_sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.latency_max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a drained batch, each item stamped with its scheduled
    /// wall deadline: every item consumed now.
    pub fn consume(&self, batch: &[Instant]) {
        let now = Instant::now();
        self.add_consumed(batch.len() as u64);
        for &due in batch {
            self.add_latency(due, now);
        }
    }

    /// Starts a busy-time measurement; accumulated on drop.
    pub(crate) fn busy_timer(&self) -> UsageTimer<'_> {
        UsageTimer {
            sink: &self.busy_ns,
            start: Instant::now(),
        }
    }

    /// A consistent snapshot (relaxed reads; exact once threads joined).
    pub fn snapshot(&self) -> PairStats {
        PairStats {
            items_produced: self.items_produced.load(Ordering::Relaxed),
            items_consumed: self.items_consumed.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
            scheduled: self.scheduled.load(Ordering::Relaxed),
            overflows: self.overflows.load(Ordering::Relaxed),
            overflow_episodes: self.overflow_episodes.load(Ordering::Relaxed),
            busy: SimDuration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            latency_sum: SimDuration::from_nanos(self.latency_sum_ns.load(Ordering::Relaxed)),
            latency_max: SimDuration::from_nanos(self.latency_max_ns.load(Ordering::Relaxed)),
            items_shed: 0,
        }
    }
}

/// RAII busy-time accumulator from [`PairCounters::busy_timer`].
pub(crate) struct UsageTimer<'a> {
    sink: &'a AtomicU64,
    start: Instant,
}

impl Drop for UsageTimer<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.sink.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Snapshot of one pair's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairStats {
    /// Items the producer emitted.
    pub items_produced: u64,
    /// Items the consumer drained.
    pub items_consumed: u64,
    /// Consumer thread wakeups.
    pub wakeups: u64,
    /// Consumer invocations.
    pub invocations: u64,
    /// Scheduled (timer/slot) invocations.
    pub scheduled: u64,
    /// Overflow-forced invocations.
    pub overflows: u64,
    /// PBPL only: producer pushes that found the buffer full and had to
    /// wait for a drain. Each overflow invocation ends one episode, so
    /// `overflows` ≤ `overflow_episodes` ≤ `overflows` + 1 (the last
    /// episode may meet the stop flag instead).
    pub overflow_episodes: u64,
    /// Total consumer busy time.
    pub busy: SimDuration,
    /// Sum of item latencies, each from the item's scheduled wall
    /// deadline to its drain.
    pub latency_sum: SimDuration,
    /// Worst item latency.
    pub latency_max: SimDuration,
    /// Always 0: the native runtime has no admission control, so it
    /// never sheds. Kept because the `benchmark/` package's native
    /// conservation check reads it.
    pub items_shed: u64,
}

impl PairStats {
    /// Mean item latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.items_consumed == 0 {
            SimDuration::ZERO
        } else {
            self.latency_sum / self.items_consumed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate() {
        let c = PairCounters::new();
        c.add_produced(10);
        c.add_consumed(7);
        c.add_wakeup();
        c.add_invocation(true, false);
        c.add_invocation(false, true);
        c.add_overflow_episode();
        let s = c.snapshot();
        assert_eq!(s.overflow_episodes, 1);
        assert_eq!(s.items_produced, 10);
        assert_eq!(s.items_consumed, 7);
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.invocations, 2);
        assert_eq!(s.scheduled, 1);
        assert_eq!(s.overflows, 1);
    }

    #[test]
    fn busy_timer_measures() {
        let c = PairCounters::new();
        {
            let _t = c.busy_timer();
            std::thread::sleep(Duration::from_millis(5));
        }
        let busy = c.snapshot().busy;
        assert!(busy >= SimDuration::from_millis(4), "busy {busy}");
    }

    #[test]
    fn latency_tracks_sum_and_max() {
        let c = PairCounters::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(100);
        let t2 = t0 + Duration::from_micros(300);
        c.add_latency(t0, t1);
        c.add_latency(t0, t2);
        c.add_consumed(2);
        let s = c.snapshot();
        assert_eq!(s.mean_latency(), SimDuration::from_micros(200));
        assert_eq!(s.latency_max, SimDuration::from_micros(300));
    }

    #[test]
    fn reversed_latency_clamps_to_zero() {
        let c = PairCounters::new();
        let t0 = Instant::now();
        c.add_latency(t0 + Duration::from_millis(1), t0);
        assert_eq!(c.snapshot().latency_sum, SimDuration::ZERO);
    }

    #[test]
    fn concurrent_updates_sum() {
        let c = std::sync::Arc::new(PairCounters::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add_produced(1);
                    c.add_wakeup();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.items_produced, 40_000);
        assert_eq!(s.wakeups, 40_000);
    }

    #[test]
    fn fresh_counters_snapshot_to_zero() {
        let s = PairCounters::new().snapshot();
        assert_eq!(s.items_produced + s.items_consumed + s.wakeups, 0);
        assert_eq!(
            s.invocations + s.scheduled + s.overflows + s.overflow_episodes + s.items_shed,
            0
        );
        assert_eq!(s.busy, SimDuration::ZERO);
        assert_eq!(s.latency_max, SimDuration::ZERO);
        assert_eq!(s.mean_latency(), SimDuration::ZERO, "no items, no latency");
    }

    #[test]
    fn consume_counts_the_batch_and_its_latency() {
        let c = PairCounters::new();
        let now = Instant::now();
        let earlier = now.checked_sub(Duration::from_millis(2)).unwrap_or(now);
        c.consume(&[earlier, now]);
        let s = c.snapshot();
        assert_eq!(s.items_consumed, 2);
        assert!(
            s.latency_max
                >= SimDuration::from_nanos(now.saturating_duration_since(earlier).as_nanos() as u64)
        );
        assert!(s.latency_sum >= s.latency_max);
        c.consume(&[]);
        assert_eq!(c.snapshot().items_consumed, 2);
    }

    #[test]
    fn an_invocation_can_be_both_scheduled_and_an_overflow() {
        let c = PairCounters::new();
        c.add_invocation(true, true);
        c.add_invocation(false, false);
        let s = c.snapshot();
        assert_eq!((s.invocations, s.scheduled, s.overflows), (2, 1, 1));
    }

    #[test]
    fn latency_max_keeps_the_largest_sample() {
        let c = PairCounters::new();
        let t0 = Instant::now();
        c.add_latency(t0, t0 + Duration::from_micros(500));
        c.add_latency(t0, t0 + Duration::from_micros(50));
        c.add_consumed(2);
        let s = c.snapshot();
        assert_eq!(s.latency_max, SimDuration::from_micros(500));
        assert_eq!(s.latency_sum, SimDuration::from_micros(550));
        assert_eq!(s.mean_latency(), SimDuration::from_micros(275));
    }
}
