//! Property-based model checks: each queue is exercised with arbitrary
//! operation sequences against a `VecDeque` reference model, including
//! the batched `pop_chunk`/`drain` operations interleaved with
//! single-item ones (wrap-around at capacity boundaries falls out of
//! small capacities under long scripts).

use pc_queues::{spsc_ring, Backoff, ElasticBuffer, GlobalPool, MutexQueue, SemQueue};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Drain,
    /// Batched consumer op: pop up to this many items in one transaction.
    PopChunk(usize),
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..1000).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Drain),
            (0usize..50).prop_map(Op::PopChunk),
        ],
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spsc_matches_reference_model(capacity in 1usize..40, script in ops(300)) {
        let (p, c) = spsc_ring::<u32>(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in script {
            match op {
                Op::Push(v) => {
                    let pushed = p.push(v).is_ok();
                    let model_pushed = model.len() < capacity;
                    prop_assert_eq!(pushed, model_pushed, "push acceptance diverged");
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(c.pop(), model.pop_front());
                }
                Op::Drain => {
                    let mut out = Vec::new();
                    c.drain_into(&mut out);
                    let expected: Vec<u32> = model.drain(..).collect();
                    prop_assert_eq!(out, expected);
                }
                Op::PopChunk(max) => {
                    let mut out = Vec::new();
                    let n = c.pop_chunk(&mut out, max);
                    let expected: Vec<u32> =
                        model.drain(..max.min(model.len())).collect();
                    prop_assert_eq!(n, expected.len());
                    prop_assert_eq!(out, expected);
                }
            }
            prop_assert_eq!(c.len(), model.len());
            prop_assert_eq!(p.is_full(), model.len() == capacity);
        }
    }

    #[test]
    fn mutex_queue_matches_reference_model(capacity in 1usize..40, script in ops(300)) {
        let q = MutexQueue::<u32>::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in script {
            match op {
                Op::Push(v) => {
                    let pushed = q.try_push(v).is_ok();
                    let model_pushed = model.len() < capacity;
                    prop_assert_eq!(pushed, model_pushed);
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(q.try_pop(), model.pop_front());
                }
                Op::Drain => {
                    let mut out = Vec::new();
                    q.drain_into(&mut out);
                    let expected: Vec<u32> = model.drain(..).collect();
                    prop_assert_eq!(out, expected);
                }
                Op::PopChunk(_) => {
                    // MutexQueue's batched pop is the full session drain;
                    // a bounded chunk does not exist on this queue. The
                    // drain blocks on an empty queue, so it runs only
                    // when the model holds items.
                    if !model.is_empty() {
                        let mut out = Vec::new();
                        let session = q.pop_drain(&mut out);
                        prop_assert_eq!(session, Some((model.len(), false)));
                        let expected: Vec<u32> = model.drain(..).collect();
                        prop_assert_eq!(out, expected);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }

    #[test]
    fn sem_queue_matches_reference_model(capacity in 1usize..40, script in ops(300)) {
        let (p, c) = SemQueue::<u32>::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in script {
            match op {
                Op::Push(v) => {
                    let pushed = p.try_push(v).is_ok();
                    let model_pushed = model.len() < capacity;
                    prop_assert_eq!(pushed, model_pushed);
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(c.try_pop(), model.pop_front());
                }
                Op::Drain | Op::PopChunk(_) => {
                    // The session drain blocks on an empty open queue,
                    // so it runs only when the model holds items.
                    if !model.is_empty() {
                        let mut out = Vec::new();
                        let session = c.pop_drain(&mut out);
                        prop_assert_eq!(session, Some((model.len(), false)));
                        let expected: Vec<u32> = model.drain(..).collect();
                        prop_assert_eq!(out, expected);
                    }
                }
            }
        }
        // Closing after the last push: what is left drains in one
        // session, then every drain reports the close.
        p.close();
        let mut out = Vec::new();
        let expected = (!model.is_empty()).then_some((model.len(), false));
        prop_assert_eq!(c.pop_drain(&mut out), expected);
        prop_assert_eq!(out, model.drain(..).collect::<Vec<u32>>());
        prop_assert_eq!(c.pop_drain(&mut Vec::new()), None);
    }

    #[test]
    fn elastic_buffer_matches_reference_model(
        base in 1usize..30,
        script in ops(200),
        resizes in prop::collection::vec((0usize..60, any::<bool>()), 0..40),
    ) {
        let pool = GlobalPool::new(200);
        let mut buf = ElasticBuffer::<u32>::new(Arc::clone(&pool), base).expect("fits");
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut resize_iter = resizes.into_iter();
        for (i, op) in script.into_iter().enumerate() {
            if i % 5 == 4 {
                if let Some((target, grow)) = resize_iter.next() {
                    if grow {
                        buf.grow_to(target);
                    } else {
                        buf.shrink_to(target);
                    }
                }
            }
            match op {
                Op::Push(v) => {
                    let had_room = model.len() < buf.capacity();
                    let pushed = buf.push(v).is_ok();
                    prop_assert_eq!(pushed, had_room, "push acceptance diverged");
                    if pushed {
                        model.push_back(v);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(buf.pop(), model.pop_front());
                }
                Op::Drain | Op::PopChunk(_) => {
                    let mut out = Vec::new();
                    buf.drain_into(&mut out);
                    let expected: Vec<u32> = model.drain(..).collect();
                    prop_assert_eq!(out, expected);
                }
            }
            prop_assert_eq!(buf.len(), model.len());
            prop_assert!(buf.len() <= buf.capacity());
            prop_assert_eq!(buf.capacity() + pool.available(), 200);
        }
    }
}

/// Concurrent SPSC linearity: a producer and consumer hammer the ring
/// with random pacing; the consumer must see exactly 0..n in order.
/// Debug builds scale the volume down tenfold — unoptimised spin loops
/// otherwise dominate the workspace test wall time.
#[test]
fn spsc_concurrent_ordering_many_capacities() {
    const N: u64 = if cfg!(debug_assertions) { 500 } else { 5_000 };
    for capacity in [1usize, 7, 25] {
        let (p, c) = spsc_ring::<u64>(capacity);
        let producer = std::thread::spawn(move || {
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
        let consumer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut backoff = Backoff::new();
            while next < N {
                if let Some(v) = c.pop() {
                    assert_eq!(v, next, "capacity {capacity}");
                    next += 1;
                    backoff.reset();
                } else {
                    backoff.snooze();
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}

/// Same linearity check over the batched consumer endpoint: items in,
/// chunks out, strict order preserved across wrap points and ring
/// capacities deliberately misaligned to the chunk sizes.
#[test]
fn spsc_concurrent_batched_ordering() {
    const N: u64 = if cfg!(debug_assertions) { 500 } else { 5_000 };
    for (capacity, batch) in [(3usize, 2usize), (25, 17), (64, 64)] {
        let (p, c) = spsc_ring::<u64>(capacity);
        let producer = std::thread::spawn(move || {
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
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut next = 0u64;
            let mut backoff = Backoff::new();
            while next < N {
                out.clear();
                if c.pop_chunk(&mut out, batch) == 0 {
                    backoff.snooze();
                    continue;
                }
                backoff.reset();
                for &v in &out {
                    assert_eq!(v, next, "capacity {capacity} batch {batch}");
                    next += 1;
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}
