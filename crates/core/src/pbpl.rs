//! PBPL's per-consumer decisions (§V-C) as one clock-free machine.
//!
//! A [`PbplConsumer`] owns what one consumer decides with: its rate
//! predictor, the instant of its last invocation, the prediction-error
//! watchdog (DESIGN.md §10) and a pool-starved grow awaiting retry. It
//! reads no clock and emits no trace events. The caller feeds it each
//! invocation ([`PbplConsumer::invoke`]) and asks it for a plan against
//! a reservation book and the consumer's elastic buffer
//! ([`PbplConsumer::plan`]); the returned [`SlotChoice`] is the slot to
//! reserve. The simulator's PBPL handler and the native consumer thread
//! both drive this one machine.

use crate::config::{DegradeConfig, PbplConfig};
use crate::cost::{select_slot, CostModel, SlotChoice};
use crate::manager::CoreManager;
use crate::model::PairId;
use crate::predict::RatePredictor;
use crate::resize::{overrun_target, plan_resize, predicted_fill, ResizePlan};
use pc_queues::ElasticCapacity;
use pc_sim::{SimDuration, SimTime};

/// One PBPL consumer's decision state.
pub struct PbplConsumer {
    id: PairId,
    cost: CostModel,
    latching: bool,
    resizing: bool,
    resize_margin: f64,
    /// Watchdog knobs; `enabled` says whether the watchdog runs at all.
    degrade: DegradeConfig,
    predictor: Box<dyn RatePredictor>,
    last_invocation: SimTime,
    /// Consecutive overflow wakes since the last scheduled one.
    consec_overflow: u32,
    /// Consecutive scheduled wakes while degraded (exit counter).
    consec_scheduled: u32,
    degraded: bool,
    /// Bounded-retry pool admission: an unsatisfied grow target and how
    /// many more plans may retry it before accepting current capacity.
    pending_grow: Option<(usize, u32)>,
}

impl PbplConsumer {
    /// A fresh consumer `id` running `cfg`. `watchdog` turns the
    /// prediction-error watchdog on with `cfg.degrade`'s knobs; callers
    /// pass `cfg.degrade.enabled`, or true when a layer (overload
    /// control) reuses the watchdog as its degrade arm.
    pub fn new(id: PairId, cfg: &PbplConfig, cost: CostModel, watchdog: bool) -> Self {
        PbplConsumer {
            id,
            cost,
            latching: cfg.latching,
            resizing: cfg.resizing,
            resize_margin: cfg.resize_margin,
            degrade: DegradeConfig {
                enabled: watchdog,
                ..cfg.degrade
            },
            predictor: cfg.predictor.build(0.0),
            last_invocation: SimTime::ZERO,
            consec_overflow: 0,
            consec_scheduled: 0,
            degraded: false,
            pending_grow: None,
        }
    }

    /// Whether the watchdog has tripped.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the consumer's last wake was an overflow (the watchdog's
    /// "actively overflowing" test; always false without the watchdog).
    pub fn overflowing(&self) -> bool {
        self.consec_overflow > 0
    }

    /// Trips the watchdog from outside (a supervisor's emergency drain).
    pub(crate) fn force_degraded(&mut self) {
        self.degraded = true;
    }

    /// Input 1: the consumer was invoked at `now` and drained `batch`
    /// items, on its scheduled slot or on an `overflow`. Feeds the rate
    /// predictor and, when enabled, the watchdog: consecutive overflows
    /// trip degraded mode, consecutive scheduled wakes clear it.
    pub fn invoke(&mut self, batch: u64, now: SimTime, overflow: bool) {
        let dt = now.saturating_since(self.last_invocation);
        self.last_invocation = now;
        self.predictor.observe(batch, dt);
        if !self.degrade.enabled {
            return;
        }
        if overflow {
            self.consec_scheduled = 0;
            self.consec_overflow += 1;
            if self.consec_overflow >= self.degrade.overflow_threshold {
                self.degraded = true;
            }
        } else {
            self.consec_overflow = 0;
            if self.degraded {
                self.consec_scheduled += 1;
                if self.consec_scheduled >= self.degrade.recovery_wakes {
                    self.degraded = false;
                    self.consec_scheduled = 0;
                }
            }
        }
    }

    /// Input 2: plan the next wake at `now` — predict, pick a slot on
    /// `book` (Eq. 8 backtracking), and resize the buffer's `ledger`
    /// against its pool (never below the `occupancy` it holds).
    /// Returns the slot to reserve; its `rate_overrun` is the *initial*
    /// selection's flag, which is what triggered any upsizing.
    ///
    /// `allow_shrink` is false when planning after an overflow: the
    /// prediction just proved too low, so releasing capacity would invite
    /// the next overflow immediately — the paper's resizing exists to
    /// *convert* overflows into scheduled wakeups, not to multiply them.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        &mut self,
        now: SimTime,
        book: &CoreManager,
        ledger: &mut ElasticCapacity,
        occupancy: usize,
        base_capacity: usize,
        max_latency: SimDuration,
        allow_shrink: bool,
    ) -> SlotChoice {
        // Degraded mode: the estimator is demonstrably underestimating,
        // so size with a boosted margin and never give capacity back
        // until the exit criterion clears.
        let margin = if self.degraded {
            self.resize_margin * self.degrade.margin_boost
        } else {
            self.resize_margin
        };
        let allow_shrink = allow_shrink && !self.degraded;
        // Bounded-retry pool admission: a grow the squeezed pool denied
        // earlier is retried a few plans, then dropped — degrade to
        // current capacity rather than insist.
        if let Some((want, left)) = self.pending_grow {
            if ledger.capacity() >= want || left == 0 {
                self.pending_grow = None;
            } else {
                let got = ledger.grow_to(want);
                self.pending_grow = (got < want).then_some((want, left - 1));
            }
        }
        let rate = self.predictor.rate();
        let track = book.track();
        let (cost, latching, id) = (self.cost, self.latching, self.id);
        let select = |capacity| {
            select_slot(
                track,
                book,
                &cost,
                now,
                rate,
                capacity,
                max_latency,
                latching,
                Some(id),
            )
        };
        // Selection plans with the consumer's *entitlement* — at least
        // its fair share B₀ — not its currently-shrunk allocation:
        // downsized space is a loan to the pool that the resize below
        // reclaims before the predicted items arrive. Planning with the
        // shrunk size would collapse the fill horizon after every latch
        // and degrade PBPL into per-slot polling.
        let mut choice = select(ledger.capacity().max(base_capacity));
        let rate_overrun = choice.rate_overrun;
        if self.resizing {
            if choice.rate_overrun {
                // §V-C upsizing: the predicted rate cannot be served by
                // the current buffer before any slot — request space to
                // survive one slot past the earliest (the paper's
                // Bᵢ = min(pool, r̂·(τ_next − τ_now)), with one slot of
                // headroom so there is something left to batch) and
                // re-plan with what the pool granted.
                let next_start = track.slot_start(track.next_slot_after(now) + 1);
                let want = overrun_target(rate, now, next_start, margin);
                let granted = ledger.grow_to(want);
                if self.degrade.enabled && granted < want {
                    self.pending_grow = Some((want, self.degrade.grow_retries));
                }
                choice = select(granted);
            }
            // Size for the reservation *plus one slot of post-wake
            // refill*. Sizing to the reserved slot alone (the paper's
            // literal formula) interacts badly with latching: a latch
            // onto a near slot predicts few items, the buffer shrinks to
            // a handful, and the next burst overflows it.
            let predicted = predicted_fill(rate, now, track.slot_start(choice.slot + 1));
            // A zero prediction means the estimator has no signal yet (or
            // a genuinely silent producer); sizing to it would shrink the
            // buffer to nothing on bootstrap. Keep the allocation.
            if predicted > 0.0 {
                match plan_resize(ledger.capacity(), predicted, margin) {
                    ResizePlan::Shrink(target) if allow_shrink => {
                        ledger.shrink_to(target, occupancy);
                    }
                    ResizePlan::Grow(target) => {
                        ledger.grow_to(target);
                    }
                    ResizePlan::Shrink(_) | ResizePlan::Keep => {}
                }
            }
        }
        SlotChoice {
            rate_overrun,
            ..choice
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;
    use crate::manager::CoreManager;
    use crate::slot::SlotTrack;
    use pc_power::PowerModel;
    use pc_queues::{ElasticBuffer, GlobalPool};
    use std::sync::Arc;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A consumer whose predicted rate is its last observation alone, so
    /// each test steers the rate directly.
    fn consumer(watchdog: bool) -> PbplConsumer {
        let cfg = PbplConfig {
            predictor: PredictorKind::MovingAverage { history: 1 },
            ..PbplConfig::default()
        };
        let cost = CostModel::from_power_model(&PowerModel::exynos_like());
        PbplConsumer::new(PairId(0), &cfg, cost, watchdog)
    }

    fn book() -> CoreManager {
        CoreManager::new(SlotTrack::new(SimDuration::from_millis(25)))
    }

    fn buffer(pool: &Arc<GlobalPool>, base: usize) -> ElasticBuffer<u64> {
        ElasticBuffer::with_min(Arc::clone(pool), base, 1).expect("pool covers the base")
    }

    fn plan(
        c: &mut PbplConsumer,
        now: SimTime,
        buf: &mut ElasticBuffer<u64>,
        allow_shrink: bool,
    ) -> SlotChoice {
        let max_latency = SimDuration::from_millis(100);
        let occupancy = buf.len();
        c.plan(
            now,
            &book(),
            buf.ledger_mut(),
            occupancy,
            10,
            max_latency,
            allow_shrink,
        )
    }

    #[test]
    fn watchdog_trips_after_threshold_consecutive_overflows() {
        let mut c = consumer(true);
        let threshold = DegradeConfig::default().overflow_threshold;
        assert_eq!(threshold, 2);
        c.invoke(10, ms(1), true);
        c.invoke(10, ms(2), false); // a scheduled wake resets the run
        c.invoke(10, ms(3), true);
        assert!(!c.degraded(), "one overflow in a row is not a trend");
        c.invoke(10, ms(4), true);
        assert!(c.degraded(), "{threshold} consecutive overflows trip it");
        // Without the watchdog the same stream never trips.
        let mut off = consumer(false);
        for t in 1..10 {
            off.invoke(10, ms(t), true);
        }
        assert!(!off.degraded() && !off.overflowing());
    }

    #[test]
    fn watchdog_clears_after_recovery_wakes() {
        let mut c = consumer(true);
        c.invoke(10, ms(1), true);
        c.invoke(10, ms(2), true);
        assert!(c.degraded());
        let wakes = DegradeConfig::default().recovery_wakes as u64;
        for t in 0..wakes - 1 {
            c.invoke(10, ms(3 + t), false);
            assert!(c.degraded(), "cleared after only {} wakes", t + 1);
        }
        c.invoke(10, ms(3 + wakes), false);
        assert!(!c.degraded(), "{wakes} scheduled wakes clear it");
    }

    #[test]
    fn pool_starved_grow_is_retried_at_most_grow_retries_times() {
        // Two base-10 buffers drain a 20-unit pool dry.
        let pool = GlobalPool::new(20);
        let mut buf = buffer(&pool, 10);
        let hog = buffer(&pool, 10);
        let mut c = consumer(true);
        // 1000 items in 10 ms: the predicted rate overruns every slot,
        // so the plan asks for far more than the dry pool can give.
        c.invoke(1000, ms(10), false);
        let choice = plan(&mut c, ms(10), &mut buf, true);
        assert!(choice.rate_overrun);
        assert_eq!(buf.capacity(), 10, "the pool is dry");
        let retries = DegradeConfig::default().grow_retries;
        let (want, left) = c.pending_grow.expect("the denied grow is remembered");
        assert!(want > 10);
        assert_eq!(left, retries);
        // Silent intervals: no more overrun, only the pending retries.
        for k in 1..=retries {
            c.invoke(0, ms(10 + 10 * k as u64), false);
            plan(&mut c, ms(10 + 10 * k as u64), &mut buf, false);
            assert_eq!(c.pending_grow, Some((want, retries - k)));
        }
        // Retries exhausted: the next plan drops the request, so pool
        // units freed now are no longer claimed.
        drop(hog);
        c.invoke(0, ms(100), false);
        plan(&mut c, ms(100), &mut buf, false);
        assert_eq!(c.pending_grow, None);
        assert_eq!(buf.capacity(), 10, "exhausted retries claim nothing");
    }

    #[test]
    fn pending_grow_is_granted_once_the_pool_refills() {
        let pool = GlobalPool::new(20);
        let mut buf = buffer(&pool, 10);
        let hog = buffer(&pool, 10);
        let mut c = consumer(true);
        c.invoke(1000, ms(10), false);
        plan(&mut c, ms(10), &mut buf, true);
        assert!(c.pending_grow.is_some());
        drop(hog);
        c.invoke(0, ms(20), false);
        plan(&mut c, ms(20), &mut buf, false);
        assert_eq!(buf.capacity(), 20, "the retry takes what was freed");
    }

    #[test]
    fn no_shrink_after_an_overflow_or_while_degraded() {
        let pool = GlobalPool::new(100);
        // 10 items per 100 ms: the next slot needs far fewer than 50.
        let shrinkable = || {
            let mut c = consumer(true);
            c.invoke(10, ms(100), false);
            (c, buffer(&pool, 50))
        };
        let (mut c, mut buf) = shrinkable();
        plan(&mut c, ms(100), &mut buf, false);
        assert_eq!(buf.capacity(), 50, "no shrink right after an overflow");
        drop(buf);

        let (mut c, mut buf) = shrinkable();
        c.force_degraded();
        plan(&mut c, ms(100), &mut buf, true);
        assert_eq!(buf.capacity(), 50, "no shrink while degraded");
        drop(buf);

        let (mut c, mut buf) = shrinkable();
        plan(&mut c, ms(100), &mut buf, true);
        assert!(buf.capacity() < 50, "a healthy plan gives capacity back");
    }

    #[test]
    fn rate_overrun_grows_the_buffer_and_reselects() {
        let pool = GlobalPool::new(10_000);
        let mut buf = buffer(&pool, 10);
        let mut c = consumer(false);
        c.invoke(1000, ms(10), false);
        let book = book();
        let max_latency = SimDuration::from_millis(100);
        let initial = select_slot(
            book.track(),
            &book,
            &c.cost,
            ms(10),
            c.predictor.rate(),
            10,
            max_latency,
            true,
            Some(PairId(0)),
        );
        assert!(initial.rate_overrun);
        let choice = c.plan(ms(10), &book, buf.ledger_mut(), 0, 10, max_latency, true);
        assert!(choice.rate_overrun, "the initial selection's flag is kept");
        assert!(buf.capacity() > 10, "overrun upsizes against the pool");
        assert!(c.pending_grow.is_none(), "no pending grow without watchdog");
        assert!(
            choice.slot > initial.slot,
            "re-selection with the granted space sleeps longer: {} vs {}",
            choice.slot,
            initial.slot
        );
    }
}
