//! The **Mutex** implementation's queue (§III-A): a bounded queue guarded
//! by a mutex, with condition variables signalling "data available" to the
//! consumer and "space available" to the producer.
//!
//! Unlike the other §III implementations this one is deliberately *not* a
//! circular buffer — the paper notes the Mutex variant "uses a mutex to
//! ensure mutually exclusive concurrent access to a non-circular buffer" —
//! so we use a `VecDeque` under the lock.
//!
//! Blocking operations report whether they blocked, which the native
//! runtime converts into the paper's wakeups/s metric.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// A bounded multi-capability queue guarded by a mutex and two condvars.
pub struct MutexQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
    /// Set by [`MutexQueue::close`]; written and read only under
    /// `inner`'s lock, which orders it (so `Relaxed` suffices) and keeps
    /// a waiter from missing it between its check and its wait.
    closed: AtomicBool,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> MutexQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MutexQueue capacity must be nonzero");
        MutexQueue {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            closed: AtomicBool::new(false),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Pushes, blocking while full. Returns `true` if the call blocked.
    pub fn push(&self, value: T) -> bool {
        let mut q = self.inner.lock();
        let mut blocked = false;
        while q.len() == self.capacity {
            blocked = true;
            self.not_full.wait(&mut q);
        }
        q.push_back(value);
        drop(q);
        self.not_empty.notify_one();
        blocked
    }

    /// Attempts to push without blocking; hands the value back when full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut q = self.inner.lock();
        if q.len() == self.capacity {
            return Err(value);
        }
        q.push_back(value);
        drop(q);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops, blocking while empty. Returns `(value, blocked)`.
    pub fn pop(&self) -> (T, bool) {
        let mut q = self.inner.lock();
        let mut blocked = false;
        while q.is_empty() {
            blocked = true;
            self.not_empty.wait(&mut q);
        }
        let v = q.pop_front().expect("non-empty by loop condition");
        drop(q);
        self.not_full.notify_one();
        (v, blocked)
    }

    /// Attempts to pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut q = self.inner.lock();
        let v = q.pop_front()?;
        drop(q);
        self.not_full.notify_one();
        Some(v)
    }

    /// Blocks for the first item, then drains *everything* queued into
    /// `out` in the same lock acquisition. Returns `Some((count,
    /// blocked))`, or `None` once the queue is closed and empty.
    ///
    /// This is the consumer-side batch primitive: where a
    /// [`MutexQueue::pop`]-then-[`MutexQueue::try_pop`] loop pays one
    /// lock per item, a session costs exactly one lock here.
    pub fn pop_drain(&self, out: &mut Vec<T>) -> Option<(usize, bool)> {
        let mut q = self.inner.lock();
        let mut blocked = false;
        while q.is_empty() {
            if self.closed.load(Ordering::Relaxed) {
                return None;
            }
            blocked = true;
            self.not_empty.wait(&mut q);
        }
        let n = q.len();
        out.extend(q.drain(..));
        drop(q);
        self.not_full.notify_all();
        Some((n, blocked))
    }

    /// Closes the queue: a consumer blocked in [`MutexQueue::pop_drain`]
    /// wakes, and once the queue is empty every `pop_drain` returns
    /// `None`. Call it after the last push.
    pub fn close(&self) {
        let q = self.inner.lock();
        self.closed.store(true, Ordering::Relaxed);
        drop(q);
        self.not_empty.notify_all();
    }

    /// Takes everything currently queued into `out`, without blocking.
    /// Returns the count. This is what batching consumers call after a
    /// wakeup.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut q = self.inner.lock();
        let n = q.len();
        out.extend(q.drain(..));
        drop(q);
        if n > 0 {
            self.not_full.notify_all();
        }
        n
    }

    /// Current length (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty (racy; diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = MutexQueue::new(4);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop().0, 1);
        assert_eq!(q.pop().0, 2);
        assert_eq!(q.pop().0, 3);
    }

    #[test]
    fn try_push_full() {
        let q = MutexQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn try_pop_empty() {
        let q: MutexQueue<u8> = MutexQueue::new(2);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(MutexQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.push(42);
        let (v, blocked) = consumer.join().unwrap();
        assert_eq!(v, 42);
        assert!(blocked, "consumer must report it blocked");
    }

    #[test]
    fn push_blocks_until_pop() {
        let q = Arc::new(MutexQueue::new(1));
        q.push(1);
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop().0, 1);
        assert!(producer.join().unwrap(), "producer must report it blocked");
        assert_eq!(q.pop().0, 2);
    }

    #[test]
    fn drain_into_empties_queue() {
        let q = MutexQueue::new(8);
        for i in 0..5 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.drain_into(&mut out), 0);
    }

    #[test]
    fn pop_drain_takes_the_session_and_ends_once_closed_and_empty() {
        let q = MutexQueue::<u32>::new(8);
        for i in 0..5 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_drain(&mut out), Some((5, false)));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // Items pushed before the close still drain after it.
        q.push(5);
        q.close();
        assert_eq!(q.pop_drain(&mut out), Some((1, false)));
        assert_eq!(q.pop_drain(&mut out), None);
        assert_eq!(q.pop_drain(&mut out), None, "closed stays closed");
    }

    #[test]
    fn pop_drain_wakes_on_push_and_on_close() {
        let q = Arc::new(MutexQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            let mut sessions = Vec::new();
            while let Some(session) = q2.pop_drain(&mut out) {
                sessions.push(session);
            }
            (sessions, out)
        });
        thread::sleep(Duration::from_millis(20));
        q.push(7);
        thread::sleep(Duration::from_millis(20));
        q.close();
        let (sessions, out) = consumer.join().unwrap();
        assert_eq!(sessions.len(), 1, "one session, then the close");
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn close_before_any_push_ends_a_blocked_pop_drain() {
        let q = Arc::new(MutexQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop_drain(&mut Vec::new()));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_drain_frees_room_for_a_blocked_producer() {
        let q = Arc::new(MutexQueue::new(2));
        q.push(1);
        q.push(2);
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(3));
        thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(q.pop_drain(&mut out), Some((2, false)));
        assert!(producer.join().unwrap(), "producer must report it blocked");
        assert_eq!(q.pop_drain(&mut out), Some((1, false)));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn producer_consumer_stress() {
        const N: u64 = if cfg!(debug_assertions) {
            2_000
        } else {
            20_000
        };
        let q = Arc::new(MutexQueue::new(25));
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 0..N {
                qp.push(i);
            }
        });
        let qc = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let mut prev = None;
            for _ in 0..N {
                let (v, _) = qc.pop();
                if let Some(p) = prev {
                    assert!(v > p);
                }
                prev = Some(v);
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MutexQueue::<u8>::new(0);
    }
}
