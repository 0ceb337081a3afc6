//! Property-based conservation check for the global pool and the
//! elastic buffers carved from it (§V-C).
//!
//! Arbitrary interleavings of buffer grows and shrinks, best-effort
//! squeezes (the fault layer's protocol), partial refills and buffer
//! drops must uphold, after *every* step:
//!
//! * **conservation** — Σ live buffer capacities + Σ squeezed units +
//!   pool available == pool total;
//! * **floors** — no live buffer's capacity is below its minimum;
//!
//! and once the squeezes are repaid and every buffer has dropped, the
//! pool is whole again. A second property holds the pool's grants to a
//! plain integer counter.

use pc_queues::{ElasticBuffer, GlobalPool};
use proptest::prelude::*;
use std::sync::Arc;

const BUFFERS: usize = 4;
const MIN_CAP: usize = 5;

#[derive(Debug, Clone)]
enum Op {
    /// Grow buffer `b` toward `target`.
    Grow { b: usize, target: usize },
    /// Shrink buffer `b` toward `target`.
    Shrink { b: usize, target: usize },
    /// Best-effort squeeze of up to `want` units into ledger `s`.
    Squeeze { s: usize, want: usize },
    /// Refill `frac`/8ths of squeeze ledger `s`'s holdings.
    Refill { s: usize, frac: usize },
    /// Drop buffer `b` (a no-op if it is already gone).
    Drop { b: usize },
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0..BUFFERS, 1usize..80).prop_map(|(b, target)| Op::Grow { b, target }),
            4 => (0..BUFFERS, 0usize..60).prop_map(|(b, target)| Op::Shrink { b, target }),
            3 => (0usize..3, 1usize..50).prop_map(|(s, want)| Op::Squeeze { s, want }),
            3 => (0usize..3, 1usize..9).prop_map(|(s, frac)| Op::Refill { s, frac }),
            1 => (0..BUFFERS).prop_map(|b| Op::Drop { b }),
        ],
        1..max,
    )
}

fn check(pool: &GlobalPool, buffers: &[Option<ElasticBuffer<u32>>], squeezed: &[usize]) {
    let live = buffers.iter().flatten();
    let caps: usize = live.clone().map(|b| b.capacity()).sum();
    prop_assert_eq!(
        caps + squeezed.iter().sum::<usize>() + pool.available(),
        pool.total(),
        "conservation"
    );
    for b in live {
        prop_assert!(
            b.capacity() >= MIN_CAP,
            "capacity {} below floor",
            b.capacity()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_conserves_under_interleavings(script in ops(120)) {
        let pool = GlobalPool::new(200);
        let mut buffers: Vec<Option<ElasticBuffer<u32>>> = (0..BUFFERS)
            .map(|_| Some(ElasticBuffer::with_min(Arc::clone(&pool), 20, MIN_CAP).expect("4×20 of 200 fits")))
            .collect();
        let mut squeezed = [0usize; 3];

        for op in script {
            match op {
                Op::Grow { b, target } => {
                    if let Some(buf) = &mut buffers[b] {
                        buf.grow_to(target);
                    }
                }
                Op::Shrink { b, target } => {
                    if let Some(buf) = &mut buffers[b] {
                        buf.shrink_to(target);
                    }
                }
                Op::Squeeze { s, want } => {
                    let before = pool.available();
                    let got = pool.try_reserve(want);
                    prop_assert_eq!(got, before.min(want), "best-effort grant is exact");
                    squeezed[s] += got;
                }
                Op::Refill { s, frac } => {
                    let back = squeezed[s] * frac / 8;
                    pool.release(back);
                    squeezed[s] -= back;
                }
                Op::Drop { b } => buffers[b] = None,
            }
            check(&pool, &buffers, &squeezed);
        }

        // Teardown: squeezes repay, buffers drop; the pool must end whole.
        for s in &mut squeezed {
            pool.release(std::mem::take(s));
        }
        check(&pool, &buffers, &squeezed);
        drop(buffers);
        prop_assert_eq!(pool.available(), pool.total(), "all units home after drop");
    }

    #[test]
    fn grants_match_a_plain_counter(
        script in prop::collection::vec((0u8..3, 0usize..70), 1..200),
    ) {
        // try_reserve grants min(want, free); try_reserve_exact grants
        // all or nothing; release gives back what the caller holds.
        let pool = GlobalPool::new(100);
        let (mut free, mut held) = (100usize, 0usize);
        for (op, n) in script {
            match op {
                0 => {
                    let got = pool.try_reserve(n);
                    prop_assert_eq!(got, n.min(free));
                    free -= got;
                    held += got;
                }
                1 => {
                    let ok = pool.try_reserve_exact(n);
                    prop_assert_eq!(ok, n <= free);
                    if ok {
                        free -= n;
                        held += n;
                    }
                }
                _ => {
                    let back = n.min(held);
                    pool.release(back);
                    free += back;
                    held -= back;
                }
            }
            prop_assert_eq!(pool.available(), free);
            prop_assert_eq!(free + held, pool.total());
        }
    }
}
