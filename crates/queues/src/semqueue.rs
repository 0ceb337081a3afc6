//! The **Sem** implementation's queue (§III-A): "a circular buffer and two
//! semaphores used for synchronizing emptiness and fullness of the
//! buffer."
//!
//! Composition: an `items` semaphore counts filled slots, a `slots`
//! semaphore counts free slots, and the circular buffer itself is our
//! lock-free SPSC ring — safe because the paper's pairs are strictly
//! one producer to one consumer, and the semaphores enforce the bounds
//! before the ring is touched, so ring operations can never fail.
//!
//! Closing the queue ([`SemQueueProducer::close`]) releases one extra
//! `items` permit with no item behind it. A consumer that takes it finds
//! the ring empty, which is how [`SemQueueConsumer::pop_drain`] learns of
//! the close; it hands the permit back so every later call sees it too.

use crate::semaphore::Semaphore;
use crate::spsc::{spsc_ring, SpscConsumer, SpscProducer};
use std::sync::Arc;

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

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Closes the queue after the last push (it takes the producer, so
    /// none can follow): a consumer blocked in
    /// [`SemQueueConsumer::pop_drain`] wakes, and once the queue is
    /// empty every `pop_drain` returns `None`.
    pub fn close(self) {
        self.shared.items.release(1);
    }
}

impl<T> SemQueueConsumer<T> {
    /// Pops, blocking while empty. Returns `(value, blocked)`.
    ///
    /// Panics on a closed, empty queue, where it would wait forever.
    pub fn pop(&self) -> (T, bool) {
        let blocked = self.shared.items.acquire();
        let v = self
            .ring
            .pop()
            .unwrap_or_else(|| panic!("pop on a closed, empty SemQueue"));
        self.shared.slots.release(1);
        (v, blocked)
    }

    /// Attempts to pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        if !self.shared.items.try_acquire() {
            return None;
        }
        let Some(v) = self.ring.pop() else {
            // The close permit: hand it back.
            self.shared.items.release(1);
            return None;
        };
        self.shared.slots.release(1);
        Some(v)
    }

    /// Blocks for the first item, then drains every item currently
    /// accounted for into `out` in the same transaction. Returns
    /// `Some((count, blocked))`, or `None` once the queue is closed and
    /// empty.
    ///
    /// The consumer-side batch primitive matching
    /// [`MutexQueue::pop_drain`](crate::MutexQueue::pop_drain): one
    /// semaphore wait, one non-blocking batch-take of the rest, one ring
    /// `SpscConsumer::pop_chunk` and one `slots` batch-release per
    /// session.
    pub fn pop_drain(&self, out: &mut Vec<T>) -> Option<(usize, bool)> {
        let blocked = self.shared.items.acquire();
        // Up to `capacity` items and the close permit.
        let taken = 1 + self.shared.items.try_acquire_many(self.shared.capacity);
        let popped = self.ring.pop_chunk(out, taken);
        self.shared.slots.release(popped);
        if popped < taken {
            // The close permit: hand it back for the next call.
            self.shared.items.release(taken - popped);
        }
        (popped > 0).then_some((popped, blocked))
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
    use std::time::Duration;

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
    fn pop_drain_takes_the_session_and_ends_once_closed_and_empty() {
        let (p, c) = SemQueue::<u32>::new(4);
        for i in 1..=4 {
            p.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(c.pop_drain(&mut out), Some((4, false)));
        assert_eq!(out, vec![1, 2, 3, 4]);
        // The slots came back: a full queue's worth fits again, and the
        // items pushed before the close still drain after it.
        for i in 5..=8 {
            assert_eq!(p.try_push(i), Ok(()));
        }
        p.close();
        out.clear();
        assert_eq!(c.pop_drain(&mut out), Some((4, false)));
        assert_eq!(out, vec![5, 6, 7, 8]);
        assert_eq!(c.pop_drain(&mut out), None);
        assert_eq!(c.pop_drain(&mut out), None, "closed stays closed");
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn pop_drain_wakes_on_push_and_on_close() {
        let (p, c) = SemQueue::new(4);
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            let mut sessions = Vec::new();
            while let Some(session) = c.pop_drain(&mut out) {
                sessions.push(session);
            }
            (sessions, out)
        });
        thread::sleep(Duration::from_millis(20));
        p.push(7);
        thread::sleep(Duration::from_millis(20));
        p.close();
        let (sessions, out) = consumer.join().unwrap();
        assert_eq!(sessions.len(), 1, "one session, then the close");
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn pop_drain_frees_room_for_a_blocked_producer() {
        let (p, c) = SemQueue::new(2);
        p.push(1);
        p.push(2);
        let producer = thread::spawn(move || {
            let blocked = p.push(3);
            (p, blocked)
        });
        thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(c.pop_drain(&mut out), Some((2, false)));
        let (_p, blocked) = producer.join().unwrap();
        assert!(blocked, "producer must report it blocked");
        assert_eq!(c.pop_drain(&mut out), Some((1, false)));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn try_pop_hands_back_the_close_permit() {
        let (p, c) = SemQueue::<u32>::new(4);
        p.push(1);
        p.close();
        assert_eq!(c.try_pop(), Some(1), "items before the close still pop");
        assert_eq!(c.try_pop(), None);
        assert_eq!(c.try_pop(), None, "the close permit came back");
        assert_eq!(c.pop_drain(&mut Vec::new()), None);
    }

    #[test]
    #[should_panic(expected = "closed, empty")]
    fn pop_on_a_closed_empty_queue_panics() {
        let (p, c) = SemQueue::<u32>::new(4);
        p.close();
        c.pop();
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
