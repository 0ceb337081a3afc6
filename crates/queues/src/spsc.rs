//! A lock-free single-producer/single-consumer bounded ring buffer.
//!
//! The paper's producer-consumer pairs are strictly one-to-one ("each
//! consumer is associated with one and only one producer"), so the queue
//! connecting them can be specialised to SPSC and made entirely lock-free:
//! one atomic per side, no CAS, no locks, wait-free push and pop.
//!
//! Design (the classic Lamport queue with cached indices):
//!
//! * `head` counts pops, `tail` counts pushes; both increase monotonically
//!   and are reduced modulo the capacity to index the slot array. The
//!   counters are never expected to wrap: that takes 2⁶⁴ operations on the
//!   64-bit targets this crate supports (a compile-time check below rejects
//!   32-bit builds, where 2³² items are reachable in minutes).
//! * The producer publishes a slot write with a `Release` store of `tail`;
//!   the consumer observes it with an `Acquire` load — and symmetrically
//!   for `head` when freeing slots.
//! * Each side caches the opposing index so the common case touches only
//!   one shared cache line; the cache is refreshed only when the queue
//!   looks full (producer) or empty (consumer).
//! * `head` and `tail` live on separate cache lines (`CachePadded`) to
//!   avoid false sharing between the two threads.

use crossbeam::utils::CachePadded;

// Monotonic-counter correctness relies on usize never wrapping within a
// process lifetime; only true for 64-bit targets.
#[cfg(not(target_pointer_width = "64"))]
compile_error!("pc-queues' SPSC ring requires a 64-bit target (monotonic index counters)");
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Number of items ever popped.
    head: CachePadded<AtomicUsize>,
    /// Number of items ever pushed.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer and consumer handles partition access so that a
// given slot is written by exactly one thread before being handed to the
// other via the Release/Acquire pair on `tail`/`head`.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Only one thread can be dropping the last Arc; relaxed is enough.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i % self.cap];
            // SAFETY: slots in [head, tail) hold initialised values that
            // were never popped.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The producing half of an SPSC ring. `!Clone`; owning it is the
/// capability to push.
pub struct SpscProducer<T> {
    inner: Arc<Inner<T>>,
    /// Producer's view of its own tail (exact).
    tail: Cell<usize>,
    /// Producer's stale view of the consumer's head.
    cached_head: Cell<usize>,
}

/// The consuming half of an SPSC ring. `!Clone`; owning it is the
/// capability to pop.
pub struct SpscConsumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer's view of its own head (exact).
    head: Cell<usize>,
    /// Consumer's stale view of the producer's tail.
    cached_tail: Cell<usize>,
}

// The Cells are per-handle scratch, and a handle is a unique capability,
// so handles may move across threads but not be shared.
unsafe impl<T: Send> Send for SpscProducer<T> {}
unsafe impl<T: Send> Send for SpscConsumer<T> {}

/// Creates a ring with room for exactly `capacity` items.
///
/// Panics if `capacity == 0`.
pub fn spsc_ring<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    assert!(capacity > 0, "SPSC ring capacity must be nonzero");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        buf,
        cap: capacity,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        SpscProducer {
            inner: Arc::clone(&inner),
            tail: Cell::new(0),
            cached_head: Cell::new(0),
        },
        SpscConsumer {
            inner,
            head: Cell::new(0),
            cached_tail: Cell::new(0),
        },
    )
}

impl<T> SpscProducer<T> {
    /// Attempts to push; returns the value back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.get();
        if tail - self.cached_head.get() == self.inner.cap {
            // Looks full; refresh the head snapshot.
            self.cached_head
                .set(self.inner.head.load(Ordering::Acquire));
            if tail - self.cached_head.get() == self.inner.cap {
                return Err(value);
            }
        }
        let slot = &self.inner.buf[tail % self.inner.cap];
        // SAFETY: slot indices in [head, head+cap) are exclusively ours
        // until published via the Release store below, and `tail` is below
        // `head + cap` by the check above.
        unsafe { (*slot.get()).write(value) };
        self.inner.tail.store(tail + 1, Ordering::Release);
        self.tail.set(tail + 1);
        Ok(())
    }

    /// Number of items currently buffered (exact from the producer's
    /// perspective, may lag pops by the consumer).
    pub fn len(&self) -> usize {
        self.tail.get() - self.inner.head.load(Ordering::Acquire)
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring appears full.
    pub fn is_full(&self) -> bool {
        self.len() == self.inner.cap
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }
}

impl<T> SpscConsumer<T> {
    /// Pops the oldest item, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.get();
        if head == self.cached_tail.get() {
            // Looks empty; refresh the tail snapshot.
            self.cached_tail
                .set(self.inner.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        let slot = &self.inner.buf[head % self.inner.cap];
        // SAFETY: the Acquire load of `tail` above proved the producer
        // initialised this slot; we take ownership before publishing the
        // slot as free with the Release store.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.inner.head.store(head + 1, Ordering::Release);
        self.head.set(head + 1);
        Some(value)
    }

    /// Pops up to `max` items into `out` and returns the count.
    ///
    /// The batch fast path: one availability check (refreshing the cached tail only when the
    /// stale view cannot satisfy `max`), at most two contiguous read
    /// runs across the wrap point, and a *single* `Release` store of
    /// `head` frees the whole batch for the producer.
    pub fn pop_chunk(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let head = self.head.get();
        let mut avail = self.cached_tail.get() - head;
        if avail < max {
            self.cached_tail
                .set(self.inner.tail.load(Ordering::Acquire));
            avail = self.cached_tail.get() - head;
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        let cap = self.inner.cap;
        out.reserve(n);
        let start = head % cap;
        let first = n.min(cap - start);
        // SAFETY: the Acquire load of `tail` proved the producer
        // initialised slots [head, head+n); we take ownership of each
        // before the Release store below publishes them as free.
        for k in 0..first {
            out.push(unsafe { (*self.inner.buf[start + k].get()).assume_init_read() });
        }
        for k in 0..(n - first) {
            out.push(unsafe { (*self.inner.buf[k].get()).assume_init_read() });
        }
        self.inner.head.store(head + n, Ordering::Release);
        self.head.set(head + n);
        n
    }

    /// Pops everything currently visible into `out`; returns the count.
    /// This is the batch-drain primitive the BP/PBP/SPBP/PBPL consumers
    /// are built on (a [`SpscConsumer::pop_chunk`] with no size limit).
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        self.pop_chunk(out, usize::MAX)
    }

    /// Number of items currently buffered (exact from the consumer's
    /// perspective, may lag pushes by the producer).
    pub fn len(&self) -> usize {
        self.inner.tail.load(Ordering::Acquire) - self.head.get()
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::Backoff;
    use std::thread;

    /// Debug builds scale the cross-thread stress iteration counts down
    /// tenfold: the unoptimised spin loops otherwise dominate the whole
    /// workspace test run. Release builds keep the full counts.
    const fn stress_n(release: u64) -> u64 {
        if cfg!(debug_assertions) {
            release / 10
        } else {
            release
        }
    }

    #[test]
    fn fifo_single_thread() {
        let (p, c) = spsc_ring(4);
        assert!(c.pop().is_none());
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (p, c) = spsc_ring(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        assert!(p.is_full());
        c.pop().unwrap();
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
    }

    #[test]
    fn capacity_one_alternates() {
        let (p, c) = spsc_ring(1);
        for i in 0..100 {
            p.push(i).unwrap();
            assert_eq!(p.push(i), Err(i));
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn len_views_agree_when_quiescent() {
        let (p, c) = spsc_ring(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        assert_eq!(p.len(), 5);
        assert_eq!(c.len(), 5);
        c.pop();
        assert_eq!(c.len(), 4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.capacity(), 8);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn drain_into_takes_everything() {
        let (p, c) = spsc_ring(16);
        for i in 0..10 {
            p.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(c.drain_into(&mut out), 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(c.is_empty());
    }

    #[test]
    fn wraparound_many_times() {
        let (p, c) = spsc_ring(3);
        for i in 0..1000 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn drops_remaining_items() {
        // Detect double-drop / leak with a counting guard.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let (p, c) = spsc_ring(8);
            for _ in 0..5 {
                assert!(p.push(Guard).is_ok());
            }
            drop(c.pop()); // one popped and dropped
                           // p, c dropped here with 4 items inside
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn pop_chunk_respects_max_and_order() {
        let (p, c) = spsc_ring::<u32>(8);
        for v in 1..=5 {
            p.push(v).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(c.pop_chunk(&mut out, 0), 0);
        assert_eq!(c.pop_chunk(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(c.pop_chunk(&mut out, 100), 3);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(c.pop_chunk(&mut out, 1), 0);
    }

    #[test]
    fn batched_ops_wrap_around() {
        // Drive the cursors far past several wrap points with push runs
        // and chunk pops deliberately misaligned to the capacity.
        let (p, c) = spsc_ring::<u64>(7);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        let mut out = Vec::new();
        for round in 0..200u64 {
            for _ in 0..(round % 5) + 1 {
                if p.push(next_in).is_err() {
                    break;
                }
                next_in += 1;
            }
            out.clear();
            let popped = c.pop_chunk(&mut out, (round % 4 + 1) as usize);
            assert_eq!(popped, out.len());
            for &v in &out {
                assert_eq!(v, next_out, "FIFO across wrap");
                next_out += 1;
            }
        }
        out.clear();
        c.drain_into(&mut out);
        for v in out {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out, "every pushed item popped exactly once");
    }

    #[test]
    fn two_thread_stress_no_loss_no_dup() {
        const N: u64 = stress_n(40_000);
        let (p, c) = spsc_ring(64);
        let producer = thread::spawn(move || {
            let mut backoff = Backoff::new();
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => {
                            backoff.reset();
                            break;
                        }
                        Err(back) => {
                            v = back;
                            backoff.snooze();
                        }
                    }
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            let mut sum = 0u128;
            let mut backoff = Backoff::new();
            while expected < N {
                if let Some(v) = c.pop() {
                    assert_eq!(v, expected, "items must arrive in order");
                    sum += v as u128;
                    expected += 1;
                    backoff.reset();
                } else {
                    backoff.snooze();
                }
            }
            sum
        });
        producer.join().unwrap();
        let sum = consumer.join().unwrap();
        assert_eq!(sum, (N as u128 - 1) * N as u128 / 2);
    }

    #[test]
    fn two_thread_batch_drain_stress() {
        const N: u64 = stress_n(25_000);
        let (p, c) = spsc_ring(25); // the paper's small buffer size
        let producer = thread::spawn(move || {
            let mut backoff = Backoff::new();
            for i in 0..N {
                let mut v = i;
                while let Err(back) = p.push(v) {
                    v = back;
                    backoff.snooze();
                }
                backoff.reset();
            }
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            let mut out = Vec::new();
            let mut backoff = Backoff::new();
            while (got.len() as u64) < N {
                out.clear();
                if c.drain_into(&mut out) > 0 {
                    got.extend_from_slice(&out);
                    backoff.reset();
                } else {
                    backoff.snooze();
                }
            }
            got
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.len() as u64, N);
        assert!(got.windows(2).all(|w| w[0] + 1 == w[1]), "strictly ordered");
    }

    #[test]
    fn two_thread_batched_api_stress() {
        // Chunked pops under real concurrency: no loss, no duplication,
        // strict order, across many wrap points.
        const N: u64 = stress_n(30_000);
        const BATCH: usize = 17; // misaligned to the capacity on purpose
        let (p, c) = spsc_ring(64);
        let producer = thread::spawn(move || {
            let mut backoff = Backoff::new();
            for i in 0..N {
                let mut v = i;
                while let Err(back) = p.push(v) {
                    v = back;
                    backoff.snooze();
                }
                backoff.reset();
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            let mut out = Vec::new();
            let mut backoff = Backoff::new();
            while expected < N {
                out.clear();
                if c.pop_chunk(&mut out, BATCH) == 0 {
                    backoff.snooze();
                    continue;
                }
                backoff.reset();
                for &v in &out {
                    assert_eq!(v, expected, "strict order across batches");
                    expected += 1;
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = spsc_ring::<u8>(0);
    }
}
