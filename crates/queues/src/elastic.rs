//! The PBPL elastic buffer and its shared global pool (§V-C).
//!
//! The paper pre-allocates a *global buffer* of size `B_g = B₀ × M` and
//! carves it into `M` per-consumer buffers whose walls are "elastic":
//!
//! * **Downsizing** — after reserving a slot, a consumer shrinks its
//!   buffer to just fit the items predicted to arrive before that slot
//!   (`Bᵢ = r̂ · (τ_next − τ_now)`), returning the excess to the pool.
//! * **Upsizing** — a consumer facing a production rate too high for any
//!   acceptable slot grows its buffer by whatever the pool can spare
//!   (`Bᵢ = min(B_g − ΣB_q, r̂ · (τ_next − τ_now))`).
//!
//! The paper notes the mechanism "is implemented using linked lists and
//! is, hence, not actual contiguous resizing". We honour that: an
//! [`ElasticBuffer`] is a FIFO over a chain of fixed-size segments, so
//! capacity changes never move items, and the accounting-level capacity
//! (in *items*) is what is borrowed from and returned to the
//! [`GlobalPool`] — one atomic counter, so conservation is one equation:
//! Σ capacities + available == total.

use pc_trace_events::{TraceEvent, TraceHandle};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Items per segment of an [`ElasticBuffer`]. Chosen so that a typical
/// paper-scale buffer (25–100 items) spans a handful of segments.
const SEGMENT_CAP: usize = 16;

/// Upper bound on recycled segments kept per buffer. Emptied segments go
/// to a free list instead of the allocator, so the steady-state
/// fill/drain cycle of a batching consumer allocates nothing; the bound
/// keeps a buffer that briefly grew huge from pinning that memory
/// forever.
const FREE_SEGMENTS_MAX: usize = 8;

/// The pre-allocated global capacity pool shared by all consumers on a
/// system (`B_g` in the paper).
#[derive(Debug)]
pub struct GlobalPool {
    total: usize,
    available: AtomicUsize,
}

impl GlobalPool {
    /// Creates a pool of `total` capacity units (items).
    pub fn new(total: usize) -> Arc<Self> {
        Arc::new(GlobalPool {
            total,
            available: AtomicUsize::new(total),
        })
    }

    /// Reserves up to `want` units, returning how many were granted
    /// (possibly zero). Never over-grants.
    pub fn try_reserve(&self, want: usize) -> usize {
        let mut cur = self.available.load(Ordering::Relaxed);
        loop {
            let grant = cur.min(want);
            if grant == 0 {
                return 0;
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - grant,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return grant,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reserves exactly `want` units or nothing. Returns whether the
    /// reservation succeeded.
    pub fn try_reserve_exact(&self, want: usize) -> bool {
        let mut cur = self.available.load(Ordering::Relaxed);
        loop {
            if cur < want {
                return false;
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - want,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Returns `units` to the pool.
    ///
    /// Panics if this would exceed the pool's total — that is always a
    /// double-release bug.
    pub fn release(&self, units: usize) {
        let prev = self.available.fetch_add(units, Ordering::AcqRel);
        assert!(
            prev + units <= self.total,
            "pool over-release: {prev} + {units} exceeds the total {}",
            self.total
        );
    }

    /// Units currently unreserved.
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Acquire)
    }

    /// The pool's fixed total (`B_g`).
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Error returned by [`ElasticBuffer::push`] when the buffer is at its
/// current capacity — the paper's *buffer overflow* condition, which
/// forces an unscheduled consumer wakeup.
#[derive(Debug, PartialEq, Eq)]
pub struct Overflow<T>(pub T);

/// The pool-accounted capacity of one elastic buffer: its current size
/// `Bᵢ`, its fair share `B₀` and its floor, borrowed from and returned to
/// a [`GlobalPool`], with the `Buffer*` trace events of each change.
///
/// The ledger holds no items. [`ElasticBuffer`] pairs it with segment
/// storage; the simulator pairs it with a run of its pair's pre-sorted
/// arrival array, so the items already in memory are not stored twice.
/// Operations whose floor depends on occupancy take it as an argument.
#[derive(Debug)]
pub struct ElasticCapacity {
    pool: Arc<GlobalPool>,
    /// Initial fair-share capacity (`B₀`); informational after creation.
    initial: usize,
    /// Hard lower bound on capacity.
    min_cap: usize,
    /// Current capacity in items, all accounted against the pool.
    cap: usize,
    /// Event-trace handle (disabled by default) and the pair index used
    /// as the `owner` field of emitted `Buffer*` events.
    trace: TraceHandle,
    owner: u32,
}

impl ElasticCapacity {
    /// Reserves `initial` units from `pool` for a buffer whose capacity
    /// never drops below `min_capacity`.
    ///
    /// Returns `None` if the pool cannot cover the initial reservation —
    /// construction is the only operation that demands exact units.
    pub fn with_min(pool: Arc<GlobalPool>, initial: usize, min_capacity: usize) -> Option<Self> {
        assert!(
            initial > 0,
            "elastic buffer initial capacity must be nonzero"
        );
        assert!(
            min_capacity >= 1 && min_capacity <= initial,
            "min capacity must be in 1..=initial"
        );
        if !pool.try_reserve_exact(initial) {
            return None;
        }
        Some(ElasticCapacity {
            pool,
            initial,
            min_cap: min_capacity,
            cap: initial,
            trace: TraceHandle::disabled(),
            owner: 0,
        })
    }

    /// Attaches an event-trace handle, tagging this buffer's pool
    /// transactions with `owner` (the pair index). Emits a
    /// [`TraceEvent::BufferCreate`] carrying the pool totals so a replay
    /// oracle can track conservation from this point on.
    pub fn set_trace(&mut self, trace: TraceHandle, owner: u32) {
        self.trace = trace;
        self.owner = owner;
        self.trace.record(|| TraceEvent::BufferCreate {
            owner,
            capacity: self.cap as u64,
            pool_available: self.pool.available() as u64,
            pool_total: self.pool.total() as u64,
        });
    }

    /// Current capacity in items (`Bᵢ`).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The initial fair-share capacity (`B₀`).
    pub fn base_capacity(&self) -> usize {
        self.initial
    }

    /// Requests growth to `target` total capacity, borrowing from the
    /// pool. Grants whatever the pool can spare (the paper's upsizing is explicitly
    /// best-effort: `min(B_g − ΣB_q, …)`). Returns the new capacity.
    pub fn grow_to(&mut self, target: usize) -> usize {
        if target > self.cap {
            let from = self.cap;
            self.cap += self.pool.try_reserve(target - self.cap);
            self.trace.record(|| TraceEvent::BufferGrow {
                owner: self.owner,
                from: from as u64,
                to: self.cap as u64,
                want: target as u64,
                pool_available: self.pool.available() as u64,
            });
        }
        self.cap
    }

    /// Shrinks toward `target` capacity, returning freed units to the
    /// pool. Capacity never drops below `min_capacity` nor below the
    /// `occupancy` the buffer holds. Returns the new capacity.
    pub fn shrink_to(&mut self, target: usize, occupancy: usize) -> usize {
        let floor = self.min_cap.max(occupancy).max(target);
        if self.cap > floor {
            let from = self.cap;
            let freed = self.cap - floor;
            self.cap = floor;
            self.pool.release(freed);
            self.trace.record(|| TraceEvent::BufferShrink {
                owner: self.owner,
                from: from as u64,
                to: self.cap as u64,
                pool_available: self.pool.available() as u64,
            });
        }
        self.cap
    }

    /// Handle to the pool this buffer draws from.
    pub fn pool(&self) -> &Arc<GlobalPool> {
        &self.pool
    }
}

impl Drop for ElasticCapacity {
    fn drop(&mut self) {
        self.pool.release(self.cap);
        self.trace.record(|| TraceEvent::BufferDestroy {
            owner: self.owner,
            released: self.cap as u64,
            pool_available: self.pool.available() as u64,
        });
    }
}

/// A FIFO buffer of elastic capacity, backed by segments so that resizing
/// never relocates items, with capacity units accounted against a
/// [`GlobalPool`] by its [`ElasticCapacity`].
///
/// The initial capacity `B₀` is a *fair share*, not a floor: the paper's
/// downsizing explicitly shrinks a buffer below its initial allocation so
/// that "the unused space in the buffer is granted to consumers suffering
/// from a high production rate" (§VI-C reports a mean allocation of 43
/// against B₀ = 50). The hard floor is `min_capacity` (default 1) plus
/// current occupancy.
/// ```
/// use pc_queues::{ElasticBuffer, GlobalPool};
/// use std::sync::Arc;
///
/// // The paper's setup: B_g = B0 * M with zero slack.
/// let pool = GlobalPool::new(50);
/// let mut slow = ElasticBuffer::<u32>::new(Arc::clone(&pool), 25).unwrap();
/// let mut fast = ElasticBuffer::<u32>::new(Arc::clone(&pool), 25).unwrap();
/// slow.shrink_to(10);                   // donate unused capacity
/// assert_eq!(fast.grow_to(40), 40);     // the burster borrows it
/// assert_eq!(pool.available(), 0);
/// ```
#[derive(Debug)]
pub struct ElasticBuffer<T> {
    ledger: ElasticCapacity,
    len: usize,
    segments: VecDeque<VecDeque<T>>,
    /// Recycled (empty) segments awaiting reuse, capped at
    /// [`FREE_SEGMENTS_MAX`]. Purely an allocation cache: it never
    /// affects FIFO order, occupancy, or pool accounting.
    free: Vec<VecDeque<T>>,
}

impl<T> ElasticBuffer<T> {
    /// Creates a buffer with initial capacity `initial` (reserved from
    /// `pool`) and a minimum capacity of 1.
    ///
    /// Returns `None` if the pool cannot cover the initial reservation —
    /// construction is the only operation that demands exact units.
    pub fn new(pool: Arc<GlobalPool>, initial: usize) -> Option<Self> {
        Self::with_min(pool, initial, 1)
    }

    /// Creates a buffer whose capacity never drops below `min_capacity`.
    pub fn with_min(pool: Arc<GlobalPool>, initial: usize, min_capacity: usize) -> Option<Self> {
        Some(ElasticBuffer {
            ledger: ElasticCapacity::with_min(pool, initial, min_capacity)?,
            len: 0,
            segments: VecDeque::new(),
            free: Vec::new(),
        })
    }

    /// Attaches an event-trace handle (see [`ElasticCapacity::set_trace`]).
    pub fn set_trace(&mut self, trace: TraceHandle, owner: u32) {
        self.ledger.set_trace(trace, owner);
    }

    /// The capacity ledger, for planners that resize against the pool
    /// (they pass the occupancy from [`len`](Self::len) themselves).
    pub fn ledger_mut(&mut self) -> &mut ElasticCapacity {
        &mut self.ledger
    }

    /// Current capacity in items (`Bᵢ`).
    pub fn capacity(&self) -> usize {
        self.ledger.capacity()
    }

    /// The initial fair-share capacity (`B₀`).
    pub fn base_capacity(&self) -> usize {
        self.ledger.base_capacity()
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity (the next push overflows).
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity()
    }

    /// Returns an emptied segment to the free list (or the allocator,
    /// past the cap).
    fn recycle(&mut self, segment: VecDeque<T>) {
        debug_assert!(segment.is_empty(), "only empty segments are recycled");
        if self.free.len() < FREE_SEGMENTS_MAX {
            self.free.push(segment);
        }
    }

    /// Takes a segment from the free list, falling back to a fresh
    /// allocation only when the list is empty.
    fn fresh_segment(&mut self) -> VecDeque<T> {
        self.free
            .pop()
            .unwrap_or_else(|| VecDeque::with_capacity(SEGMENT_CAP))
    }

    /// Pushes an item; reports [`Overflow`] at capacity.
    pub fn push(&mut self, value: T) -> Result<(), Overflow<T>> {
        if self.is_full() {
            return Err(Overflow(value));
        }
        let need_new_segment = self
            .segments
            .back()
            .map(|s| s.len() >= SEGMENT_CAP)
            .unwrap_or(true);
        if need_new_segment {
            let segment = self.fresh_segment();
            self.segments.push_back(segment);
        }
        self.segments
            .back_mut()
            .expect("just ensured a segment exists")
            .push_back(value);
        self.len += 1;
        Ok(())
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let front = self.segments.front_mut()?;
        let value = front.pop_front()?;
        if front.is_empty() {
            let emptied = self.segments.pop_front().expect("front exists");
            self.recycle(emptied);
        }
        self.len -= 1;
        Some(value)
    }

    /// Drains all items into `out` in FIFO order; returns the count.
    /// Emptied segments are recycled, so a batching consumer's
    /// steady-state fill/drain cycle stops touching the allocator.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let mut n = 0;
        out.reserve(self.len);
        while let Some(mut seg) = self.segments.pop_front() {
            n += seg.len();
            out.extend(seg.drain(..));
            self.recycle(seg);
        }
        self.len = 0;
        n
    }

    /// Requests growth to `target` total capacity (see
    /// [`ElasticCapacity::grow_to`]). Returns the new capacity.
    pub fn grow_to(&mut self, target: usize) -> usize {
        self.ledger.grow_to(target)
    }

    /// Shrinks toward `target` capacity, never below `min_capacity` nor
    /// the current occupancy. Returns the new capacity.
    pub fn shrink_to(&mut self, target: usize) -> usize {
        self.ledger.shrink_to(target, self.len)
    }

    /// Handle to the pool this buffer draws from.
    pub fn pool(&self) -> &Arc<GlobalPool> {
        self.ledger.pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_and_buffer(total: usize, base: usize) -> (Arc<GlobalPool>, ElasticBuffer<u64>) {
        let pool = GlobalPool::new(total);
        let buf = ElasticBuffer::new(Arc::clone(&pool), base).expect("base fits");
        (pool, buf)
    }

    #[test]
    fn pool_reserve_release_roundtrip() {
        let pool = GlobalPool::new(100);
        assert_eq!(pool.try_reserve(30), 30);
        assert_eq!(pool.available(), 70);
        assert_eq!(pool.try_reserve(100), 70, "partial grant");
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.try_reserve(1), 0);
        pool.release(100);
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn pool_exact_reservation() {
        let pool = GlobalPool::new(10);
        assert!(pool.try_reserve_exact(10));
        assert!(!pool.try_reserve_exact(1));
        pool.release(10);
        assert!(pool.try_reserve_exact(5));
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn pool_over_release_panics() {
        let pool = GlobalPool::new(5);
        pool.release(1);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn release_beyond_grants_panics() {
        let pool = GlobalPool::new(20);
        assert_eq!(pool.try_reserve(5), 5);
        pool.release(6);
    }

    #[test]
    fn failed_exact_reservation_takes_nothing() {
        let pool = GlobalPool::new(20);
        assert_eq!(pool.try_reserve(15), 15);
        assert!(!pool.try_reserve_exact(10));
        assert_eq!(pool.available(), 5, "a failed exact must not leak");
        assert!(pool.try_reserve_exact(5));
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn zero_unit_requests_change_nothing() {
        let pool = GlobalPool::new(3);
        assert_eq!(pool.try_reserve(0), 0);
        assert!(pool.try_reserve_exact(0));
        pool.release(0);
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.try_reserve(3), 3);
        assert!(pool.try_reserve_exact(0), "zero fits an empty pool");
        assert_eq!(pool.try_reserve(0), 0);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn racing_reservations_never_over_grant() {
        // Four threads hammer the one counter with best-effort and exact
        // reservations, releasing what they got. Every grant must fit
        // what was free, and the pool must end whole.
        let pool = GlobalPool::new(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held = 0usize;
                    for i in 0..5_000usize {
                        let want = (i * 7 + t * 13) % 24 + 1;
                        if i % 3 == 0 {
                            if pool.try_reserve_exact(want) {
                                held += want;
                            }
                        } else {
                            let got = pool.try_reserve(want);
                            assert!(got <= want, "over-grant: {got} > {want}");
                            held += got;
                        }
                        assert!(pool.available() <= pool.total());
                        if i % 2 == 1 {
                            pool.release(held);
                            held = 0;
                        }
                    }
                    pool.release(held);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no thread panicked");
        }
        assert_eq!(pool.available(), 64);
    }

    #[test]
    fn growth_is_capped_by_what_a_squeeze_left() {
        // The fault layer's squeeze takes units without a buffer owning
        // them; a buffer can then grow only into what is left, and gets
        // the rest once the squeeze repays.
        let (pool, mut buf) = pool_and_buffer(60, 20);
        let squeezed = pool.try_reserve(30);
        assert_eq!(squeezed, 30);
        assert_eq!(buf.grow_to(50), 30, "only 10 units were free");
        pool.release(squeezed);
        assert_eq!(buf.grow_to(50), 50);
        assert_eq!(pool.available(), 10);
        drop(buf);
        assert_eq!(pool.available(), 60);
    }

    #[test]
    fn buffer_construction_reserves_base() {
        let (pool, buf) = pool_and_buffer(50, 25);
        assert_eq!(buf.capacity(), 25);
        assert_eq!(pool.available(), 25);
    }

    #[test]
    fn buffer_construction_fails_without_units() {
        let pool = GlobalPool::new(10);
        assert!(ElasticBuffer::<u8>::new(Arc::clone(&pool), 25).is_none());
        assert_eq!(pool.available(), 10, "failed construction must not leak");
    }

    #[test]
    fn fifo_across_segments() {
        let (_pool, mut buf) = pool_and_buffer(200, 100);
        for i in 0..100u64 {
            buf.push(i).unwrap();
        }
        assert!(buf.is_full());
        for i in 0..100u64 {
            assert_eq!(buf.pop(), Some(i));
        }
        assert!(buf.is_empty());
        assert_eq!(buf.pop(), None);
    }

    #[test]
    fn overflow_at_capacity() {
        let (_pool, mut buf) = pool_and_buffer(10, 2);
        buf.push(1).unwrap();
        buf.push(2).unwrap();
        assert_eq!(buf.push(3), Err(Overflow(3)));
    }

    #[test]
    fn grow_converts_overflow_into_space() {
        let (pool, mut buf) = pool_and_buffer(50, 2);
        buf.push(1).unwrap();
        buf.push(2).unwrap();
        assert!(buf.push(3).is_err());
        assert_eq!(buf.grow_to(5), 5);
        buf.push(3).unwrap();
        assert_eq!(pool.available(), 45);
    }

    #[test]
    fn grow_is_best_effort() {
        let (pool, mut buf) = pool_and_buffer(30, 25);
        // Only 5 spare units exist.
        assert_eq!(buf.grow_to(100), 30);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn shrink_returns_units_and_respects_floors() {
        let (pool, mut buf) = pool_and_buffer(100, 25);
        buf.grow_to(60);
        assert_eq!(pool.available(), 40);
        for i in 0..30u64 {
            buf.push(i).unwrap();
        }
        // Occupancy floor: cannot shrink below 30 items.
        assert_eq!(buf.shrink_to(10), 30);
        assert_eq!(pool.available(), 70);
        // Drain, then only the min-capacity floor applies — B0 is a fair
        // share, not a floor (the paper's downsizing goes below it).
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert_eq!(buf.shrink_to(0), 1);
        assert_eq!(pool.available(), 99);
    }

    #[test]
    fn explicit_min_capacity_floor() {
        let pool = GlobalPool::new(100);
        let mut buf = ElasticBuffer::<u8>::with_min(Arc::clone(&pool), 25, 10).unwrap();
        assert_eq!(buf.shrink_to(0), 10);
        assert_eq!(pool.available(), 90);
    }

    #[test]
    fn drop_releases_everything() {
        let pool = GlobalPool::new(100);
        {
            let mut buf = ElasticBuffer::<u8>::new(Arc::clone(&pool), 25).unwrap();
            buf.grow_to(70);
            assert_eq!(pool.available(), 30);
        }
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn drain_into_preserves_order() {
        let (_pool, mut buf) = pool_and_buffer(100, 50);
        for i in 0..40u64 {
            buf.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(buf.drain_into(&mut out), 40);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn drain_recycles_segments_and_push_reuses_them() {
        let (_pool, mut buf) = pool_and_buffer(200, 100);
        for i in 0..100u64 {
            buf.push(i).unwrap();
        }
        let spanned = buf.segments.len();
        assert!(spanned > 1, "100 items must span several segments");
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert_eq!(
            buf.free.len(),
            spanned.min(FREE_SEGMENTS_MAX),
            "emptied segments land on the free list, capped"
        );
        // Refill: segments come back off the free list, not the
        // allocator — and FIFO semantics are untouched.
        let free_before = buf.free.len();
        for i in 0..(SEGMENT_CAP as u64 * 2) {
            buf.push(i).unwrap();
        }
        assert_eq!(buf.free.len(), free_before - 2, "two segments reused");
        for i in 0..(SEGMENT_CAP as u64 * 2) {
            assert_eq!(buf.pop(), Some(i));
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_recycles_emptied_front_segment() {
        let (_pool, mut buf) = pool_and_buffer(100, 50);
        for i in 0..(SEGMENT_CAP as u64 + 1) {
            buf.push(i).unwrap();
        }
        assert!(buf.free.is_empty());
        for i in 0..(SEGMENT_CAP as u64) {
            assert_eq!(buf.pop(), Some(i));
        }
        assert_eq!(buf.free.len(), 1, "front segment recycled when emptied");
        assert_eq!(buf.pop(), Some(SEGMENT_CAP as u64));
    }

    #[test]
    fn two_buffers_share_one_pool() {
        // The paper's exact scenario with B_g = B0·M and zero slack:
        // a slow consumer downsizes below its fair share and a fast one
        // borrows the freed units ("the walls … are elastic").
        let pool = GlobalPool::new(50);
        let mut a = ElasticBuffer::<u8>::new(Arc::clone(&pool), 25).unwrap();
        let mut b = ElasticBuffer::<u8>::new(Arc::clone(&pool), 25).unwrap();
        assert_eq!(pool.available(), 0);
        assert_eq!(b.grow_to(40), 25, "nothing to borrow yet");
        a.shrink_to(5);
        assert_eq!(pool.available(), 20);
        assert_eq!(b.grow_to(40), 40);
        assert_eq!(pool.available(), 5);
        // a can reclaim toward its share as far as the pool allows.
        assert_eq!(a.grow_to(25), 10);
        drop(a);
        drop(b);
        assert_eq!(pool.available(), 50);
    }

    #[test]
    fn conservation_invariant_under_churn() {
        let pool = GlobalPool::new(120);
        let mut bufs: Vec<ElasticBuffer<u8>> = (0..3)
            .map(|_| ElasticBuffer::new(Arc::clone(&pool), 20).unwrap())
            .collect();
        let mut step = 0usize;
        for round in 0..200 {
            for i in 0..bufs.len() {
                step += 1;
                let b = &mut bufs[i];
                match (round + i + step) % 4 {
                    0 => {
                        b.grow_to(b.capacity() + 7);
                    }
                    1 => {
                        b.shrink_to(b.capacity().saturating_sub(5));
                    }
                    2 => {
                        let _ = b.push(0);
                    }
                    _ => {
                        b.pop();
                    }
                }
                let held: usize = bufs.iter().map(|b| b.capacity()).sum();
                assert_eq!(held + pool.available(), 120, "units conserved");
            }
        }
    }
}
