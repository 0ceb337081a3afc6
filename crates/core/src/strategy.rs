//! Strategy-specific constants and work models for the eight consumer
//! implementations (§III-A + §V), shared by the simulator in
//! [`crate::sim`].
//!
//! How each §III implementation maps onto simulation behaviour:
//!
//! * **BW** — the consumer spins; its core never idles. Modelled as one
//!   active span covering the whole run (wakeups ≈ 0, usage ≈ 1000 ms/s,
//!   power = full active power). Items are consumed the instant they are
//!   produced.
//! * **Yield** — like BW but `sched_yield()` cedes the CPU briefly every
//!   scheduler round, and the paper observed DVFS dropping the frequency
//!   under yielding ("slightly less power … attributed to DVFS setting
//!   the CPU frequency to a smaller value"). Modelled as a high-duty
//!   tick pattern plus [`YIELD_DVFS_FACTOR`] on active power.
//! * **Mutex** — item-at-a-time consumption guarded by a mutex and
//!   condvars. The consumer sleeps when the backlog is empty; the first
//!   item of a burst wakes it and it drains until empty, paying
//!   lock+signal overhead per item ([`MUTEX_SYNC_FACTOR`]).
//! * **Sem** — identical structure over a circular buffer with two
//!   semaphores; sem post/wait is cheaper than mutex+condvar round trips
//!   ([`SEM_SYNC_FACTOR`] < 1).
//! * **BP** — the consumer wakes only when the producer fills the buffer
//!   (every wakeup is, in the paper's terms, a buffer overflow), then
//!   drains the whole batch at batch cost.
//! * **PBP** — fixed-period batching on `nanosleep`, whose jitter causes
//!   extra overflows (§III-C); scheduled fires drift by the sleep model.
//! * **SPBP** — fixed-period batching on `SIGALRM`: an absolute-time
//!   schedule with microsecond-class jitter.
//! * **PBPL** — §V: slot track, per-core manager, rate prediction,
//!   latching and elastic buffers.

use pc_power::PowerModel;
use pc_sim::SimDuration;

/// Per-item synchronisation overhead multiplier for the Mutex strategy
/// (baseline: `PowerModel::sync_op_cpu` is calibrated as one mutex
/// lock/unlock + condvar signal round trip).
pub const MUTEX_SYNC_FACTOR: f64 = 1.0;

/// Per-item synchronisation overhead multiplier for the Sem strategy:
/// a futex-backed sem_post/sem_wait pair is measurably cheaper than a
/// mutex+condvar round trip.
pub const SEM_SYNC_FACTOR: f64 = 0.625;

/// Active-power multiplier for the Yield strategy: the paper attributes
/// Yield's slightly lower draw to DVFS stepping the clock down under
/// constant yielding.
pub const YIELD_DVFS_FACTOR: f64 = 0.88;

/// Period of the Yield strategy's occasional genuine idles. A yielding
/// thread on an otherwise-idle core mostly reacquires the CPU instantly;
/// only the odd scheduler round parks it briefly, so its wakeup count is
/// far below the item-driven implementations (the paper's Fig. 3 places
/// BW and Yield at the low-wakeup, high-power corner).
pub const YIELD_TICK: SimDuration = SimDuration::from_millis(25);

/// Idle share of each Yield tick (the voluntary yield window).
pub const YIELD_IDLE_PER_TICK: SimDuration = SimDuration::from_micros(100);

/// CPU time for an item-at-a-time drain of `n` items with the given
/// synchronisation factor (Mutex/Sem).
pub fn item_driven_work(model: &PowerModel, n: u64, sync_factor: f64) -> SimDuration {
    let per_item = model
        .item_cpu
        .saturating_add(model.sync_op_cpu.mul_f64(sync_factor));
    model.dispatch_cpu.saturating_add(per_item * n)
}

/// CPU time for a batched drain of `n` items (BP/PBP/SPBP/PBPL): one
/// dispatch, no per-item synchronisation.
pub fn batch_work(model: &PowerModel, n: u64) -> SimDuration {
    model.batch_cpu(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sem_cheaper_than_mutex() {
        let m = PowerModel::exynos_like();
        let mutex = item_driven_work(&m, 100, MUTEX_SYNC_FACTOR);
        let sem = item_driven_work(&m, 100, SEM_SYNC_FACTOR);
        assert!(sem < mutex);
    }

    #[test]
    fn batching_cheaper_than_item_driven() {
        let m = PowerModel::exynos_like();
        assert!(batch_work(&m, 100) < item_driven_work(&m, 100, SEM_SYNC_FACTOR));
    }

    #[test]
    fn empty_drain_costs_dispatch_only() {
        let m = PowerModel::exynos_like();
        assert_eq!(batch_work(&m, 0), m.dispatch_cpu);
        assert_eq!(item_driven_work(&m, 0, 1.0), m.dispatch_cpu);
    }

    #[test]
    fn yield_duty_cycle_mostly_busy() {
        let busy = YIELD_TICK.saturating_sub(YIELD_IDLE_PER_TICK);
        assert!(busy.as_secs_f64() / YIELD_TICK.as_secs_f64() > 0.95);
    }
}
