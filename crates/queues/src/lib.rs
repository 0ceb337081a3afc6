//! # pc-queues — queues and buffers for producer-consumer strategies
//!
//! Every implementation studied in the paper (§III-A) sits on one of these
//! structures, and the PBPL algorithm (§V-C) additionally needs an elastic
//! buffer backed by a shared global pool. All of them are built from
//! scratch here:
//!
//! * `spsc` — a lock-free single-producer/single-consumer ring buffer
//!   (the paper's "circular buffer"; each consumer is paired with exactly
//!   one producer, so SPSC is the right specialisation).
//! * `semaphore` — a counting semaphore with blocking, timeout, and
//!   try acquisition, reporting whether a call blocked (the hook the
//!   native runtime uses to count thread wakeups).
//! * `bounded` — the **Mutex** implementation: a bounded queue guarded
//!   by a mutex with two condition variables.
//! * [`semqueue`] — the **Sem** implementation: a circular buffer
//!   synchronised by an *items* and a *slots* semaphore.
//! * [`elastic`] — the PBPL buffer: a segmented FIFO whose capacity can
//!   grow and shrink against a pre-allocated [`elastic::GlobalPool`]
//!   ("implemented using linked lists and is, hence, not actual contiguous
//!   resizing", §V-C).
//! * [`backoff`] — bounded spin-then-yield backoff shared by every spin
//!   site (tests, benches, the semaphore's spin-then-park fast path).
//!
//! The queues form the *native fast path* (DESIGN.md §9): a consumer
//! takes a whole session in one synchronisation transaction, not one per
//! item — `spsc::SpscConsumer::pop_chunk` on the ring,
//! [`MutexQueue::pop_drain`] and [`semqueue::SemQueueConsumer::pop_drain`]
//! on the blocking queues. That is the paper's amortisation argument
//! applied to the queue substrate itself. The blocking queues also
//! close: after the last push, `close` wakes a waiting consumer and
//! `pop_drain` returns `None` once the queue is empty, so a consumer
//! needs no timed wait to learn that its producer is done.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backoff;
mod bounded;
pub mod elastic;
mod semaphore;
pub mod semqueue;
mod spsc;

pub use backoff::Backoff;
pub use bounded::MutexQueue;
pub use elastic::{ElasticBuffer, ElasticCapacity, GlobalPool};
pub use semaphore::Semaphore;
pub use semqueue::SemQueue;
pub use spsc::spsc_ring;
