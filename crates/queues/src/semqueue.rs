//! The **Sem** implementation's queue (§III-A): "a circular buffer and two
//! semaphores used for synchronizing emptiness and fullness of the
//! buffer."
//!
//! Composition: an `items` semaphore counts filled slots, a `slots`
//! semaphore counts free slots, and the circular buffer itself is our
//! lock-free SPSC ring — safe because the paper's pairs are strictly
//! one producer to one consumer, and the semaphores enforce the bounds
//! before the ring is touched, so ring operations can never fail.

use crate::semaphore::Semaphore;
use crate::spsc::{spsc_ring, SpscConsumer, SpscProducer};
use std::sync::Arc;
use std::time::Duration;

struct Shared {
    items: Semaphore,
    slots: Semaphore,
    capacity: usize,
}

/// Producer half of a [`SemQueue`].
pub struct SemQueueProducer<T> {
    shared: Arc<Shared>,
    ring: SpscProducer<T>,
}

/// Consumer half of a [`SemQueue`].
pub struct SemQueueConsumer<T> {
    shared: Arc<Shared>,
    ring: SpscConsumer<T>,
}

/// Namespace type: construct with [`SemQueue::new`], which returns the two
/// halves.
pub struct SemQueue<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T> SemQueue<T> {
    /// Creates a semaphore-synchronised circular buffer of `capacity`
    /// items and returns its two endpoint handles.
    #[allow(clippy::new_ret_no_self)] // constructor returns the endpoint pair
    pub fn new(capacity: usize) -> (SemQueueProducer<T>, SemQueueConsumer<T>) {
        assert!(capacity > 0, "SemQueue capacity must be nonzero");
        let (rp, rc) = spsc_ring(capacity);
        let shared = Arc::new(Shared {
            items: Semaphore::new(0),
            slots: Semaphore::new(capacity),
            capacity,
        });
        (
            SemQueueProducer {
                shared: Arc::clone(&shared),
                ring: rp,
            },
            SemQueueConsumer { shared, ring: rc },
        )
    }
}

impl<T> SemQueueProducer<T> {
    /// Pushes, blocking while the buffer is full. Returns `true` if the
    /// call blocked.
    pub fn push(&self, value: T) -> bool {
        let blocked = self.shared.slots.acquire();
        self.ring
            .push(value)
            .unwrap_or_else(|_| unreachable!("slots semaphore guarantees a free slot"));
        self.shared.items.release(1);
        blocked
    }

    /// Attempts to push without blocking.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        if !self.shared.slots.try_acquire() {
            return Err(value);
        }
        self.ring
            .push(value)
            .unwrap_or_else(|_| unreachable!("slots semaphore guarantees a free slot"));
        self.shared.items.release(1);
        Ok(())
    }

    /// Pushes as many items from `items` as there are free slots, without
    /// blocking, and returns the count (a prefix of the slice).
    ///
    /// One `slots` batch-take, one ring `SpscProducer::push_slice` and
    /// one `items` batch-release — three synchronisation points for the
    /// whole batch instead of three per item.
    pub fn push_slice(&self, items: &[T]) -> usize
    where
        T: Copy,
    {
        if items.is_empty() {
            return 0;
        }
        let granted = self.shared.slots.try_acquire_many(items.len());
        if granted == 0 {
            return 0;
        }
        let pushed = self.ring.push_slice(&items[..granted]);
        debug_assert_eq!(pushed, granted, "slots semaphore counted these slots");
        self.shared.items.release(pushed);
        pushed
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> SemQueueConsumer<T> {
    /// Pops, blocking while empty. Returns `(value, blocked)`.
    pub fn pop(&self) -> (T, bool) {
        let blocked = self.shared.items.acquire();
        let v = self
            .ring
            .pop()
            .unwrap_or_else(|| unreachable!("items semaphore guarantees an item"));
        self.shared.slots.release(1);
        (v, blocked)
    }

    /// Attempts to pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        if !self.shared.items.try_acquire() {
            return None;
        }
        let v = self
            .ring
            .pop()
            .unwrap_or_else(|| unreachable!("items semaphore guarantees an item"));
        self.shared.slots.release(1);
        Some(v)
    }

    /// Pops with a deadline.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<(T, bool)> {
        let blocked = self.shared.items.acquire_timeout(timeout)?;
        let v = self
            .ring
            .pop()
            .unwrap_or_else(|| unreachable!("items semaphore guarantees an item"));
        self.shared.slots.release(1);
        Some((v, blocked))
    }

    /// Waits until at least one item is present, then drains every item
    /// currently accounted for into `out`. Returns `(count, blocked)`.
    /// This is the batch wait-and-drain the **BP** strategy uses when the
    /// producer signals a full buffer.
    #[cfg(test)]
    fn wait_drain(&self, out: &mut Vec<T>) -> (usize, bool) {
        let (taken, blocked) = self.shared.items.acquire_many(self.shared.capacity);
        let popped = self.ring.pop_chunk(out, taken);
        debug_assert_eq!(popped, taken, "items semaphore counted these");
        self.shared.slots.release(taken);
        (taken, blocked)
    }

    /// Blocks (up to `timeout`) for the first item, then drains every
    /// item currently accounted for into `out` in the same transaction.
    /// Returns `Some((count, blocked))` on success, `None` on timeout.
    ///
    /// The consumer-side batch primitive matching
    /// [`MutexQueue::pop_timeout_drain`](crate::MutexQueue::pop_timeout_drain):
    /// one semaphore wait, one non-blocking batch-take of the rest, one
    /// ring `SpscConsumer::pop_chunk` and one `slots` batch-release per
    /// session.
    pub fn pop_timeout_drain(&self, timeout: Duration, out: &mut Vec<T>) -> Option<(usize, bool)> {
        let blocked = self.shared.items.acquire_timeout(timeout)?;
        let taken = 1 + self
            .shared
            .items
            .try_acquire_many(self.shared.capacity.saturating_sub(1));
        let popped = self.ring.pop_chunk(out, taken);
        debug_assert_eq!(popped, taken, "items semaphore counted these");
        self.shared.slots.release(taken);
        Some((taken, blocked))
    }

    /// Number of buffered items (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the buffer appears empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_basic() {
        let (p, c) = SemQueue::new(4);
        p.push(1);
        p.push(2);
        assert_eq!(c.pop().0, 1);
        assert_eq!(c.pop().0, 2);
    }

    #[test]
    fn try_paths_respect_bounds() {
        let (p, c) = SemQueue::new(2);
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        assert_eq!(p.try_push(3), Err(3));
        assert_eq!(c.try_pop(), Some(1));
        assert_eq!(c.try_pop(), Some(2));
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn pop_timeout_expires_when_empty() {
        let (_p, c) = SemQueue::<u8>::new(1);
        assert!(c.pop_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wait_drain_batches() {
        let (p, c) = SemQueue::new(8);
        for i in 0..6 {
            p.push(i);
        }
        let mut out = Vec::new();
        let (n, blocked) = c.wait_drain(&mut out);
        assert_eq!(n, 6);
        assert!(!blocked);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn producer_blocks_at_capacity() {
        let (p, c) = SemQueue::new(1);
        p.push(1);
        let producer = thread::spawn(move || {
            let blocked = p.push(2);
            (p, blocked)
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(c.pop().0, 1);
        let (_p, blocked) = producer.join().unwrap();
        assert!(blocked);
        assert_eq!(c.pop().0, 2);
    }

    #[test]
    fn push_slice_respects_free_slots() {
        let (p, c) = SemQueue::<u32>::new(4);
        assert_eq!(p.push_slice(&[]), 0);
        assert_eq!(p.push_slice(&[1, 2, 3]), 3);
        assert_eq!(p.push_slice(&[4, 5, 6]), 1, "clips at capacity");
        assert_eq!(p.push_slice(&[7]), 0);
        let mut out = Vec::new();
        let (n, _) = c.wait_drain(&mut out);
        assert_eq!(n, 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pop_timeout_drain_takes_session() {
        let (p, c) = SemQueue::<u32>::new(8);
        assert_eq!(p.push_slice(&[1, 2, 3, 4, 5]), 5);
        let mut out = Vec::new();
        let (n, blocked) = c
            .pop_timeout_drain(Duration::from_millis(10), &mut out)
            .expect("items present");
        assert_eq!(n, 5);
        assert!(!blocked);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert!(c
            .pop_timeout_drain(Duration::from_millis(5), &mut out)
            .is_none());
        // The slots must have been returned: the queue accepts a full
        // batch again.
        assert_eq!(p.push_slice(&[9; 8]), 8);
    }

    #[test]
    fn cross_thread_stress_ordered() {
        const N: u64 = if cfg!(debug_assertions) {
            2_000
        } else {
            20_000
        };
        let (p, c) = SemQueue::new(25);
        let producer = thread::spawn(move || {
            for i in 0..N {
                p.push(i);
            }
        });
        let consumer = thread::spawn(move || {
            for i in 0..N {
                assert_eq!(c.pop().0, i);
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}
