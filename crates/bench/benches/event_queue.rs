//! Event-scheduler microbench: the hierarchical timer wheel
//! (`pc_sim::EventQueue`, DESIGN.md §13) against the binary-heap +
//! tombstone design it replaced, at 10⁴–10⁶ pending timers.
//!
//! Two workloads per backlog size, both modelled on what `Sim::run`
//! actually does:
//!
//! * `churn` — steady state: with N timers pending, repeatedly pop the
//!   earliest and schedule a replacement a pseudo-random offset ahead
//!   (a Produce pops, schedules the next arrival). O(log N) per op on
//!   the heap, O(1) amortised on the wheel — this is where a planet
//!   fleet's backlog lives.
//! * `cancel_heavy` — schedule N, cancel half in FIFO order, drain the
//!   rest: the slot-reservation pattern (PBPL latch cancels) that drove
//!   the heap's tombstone compaction.
//!
//! A third scenario races the *arrival* path specifically (DESIGN.md
//! §14): M pre-sorted per-source streams merged to exhaustion, with
//! each popped arrival immediately replaced by its source's next — the
//! exact access pattern of `System::schedule_next_produce`. `winner_`
//! is the retired winner tree (every pop and every refill replays the
//! source's leaf-to-root path, comparing keys read through an index);
//! `calendar_` is the loser-tree `ArrivalCalendar` the engine now uses
//! (one branch-free replay per pop-and-refill), at M ∈ {10, 100, 1000}
//! matching the scale sweep's fleet sizes.
//!
//! The heap model mirrors `crates/sim/tests/wheel_model.rs`, and the
//! winner tree the pre-loser-tree calendar — each a retired
//! implementation reduced to its semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pc_sim::{ArrivalCalendar, EventQueue, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Tombstone floor of the retired heap design (see wheel_model.rs).
const COMPACT_FLOOR: usize = 64;

/// The pre-wheel queue: BinaryHeap + tombstones + periodic compaction.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    tombstones: HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            tombstones: HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    fn schedule(&mut self, at: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live += 1;
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.tombstones.insert(seq);
        self.live -= 1;
        if self.tombstones.len() >= COMPACT_FLOOR && self.tombstones.len() * 2 > self.heap.len() {
            let tombstones = std::mem::take(&mut self.tombstones);
            self.heap = self
                .heap
                .drain()
                .filter(|Reverse((_, s))| !tombstones.contains(s))
                .collect();
        }
    }

    fn pop(&mut self) -> Option<u64> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if self.tombstones.remove(&seq) {
                continue;
            }
            self.live -= 1;
            return Some(at);
        }
        None
    }
}

/// Deterministic splitmix64 step for arrival offsets — no external RNG,
/// same stream for both backends.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Churned pops+schedules per iteration.
const CHURN_OPS: u64 = 10_000;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for &pending in &[10_000usize, 100_000, 1_000_000] {
        group.throughput(Throughput::Elements(CHURN_OPS));
        group.bench_with_input(
            BenchmarkId::new("wheel_churn", pending),
            &pending,
            |b, &n| {
                // Build the backlog once; each iteration churns on top of it.
                let mut q = EventQueue::new();
                let mut rng = 42u64;
                for i in 0..n {
                    q.schedule(SimTime::from_nanos(mix(&mut rng) % 1_000_000_000), i);
                }
                b.iter(|| {
                    for i in 0..CHURN_OPS {
                        let (t, _) = q.pop().expect("backlog never empties");
                        let dt = mix(&mut rng) % 1_000_000;
                        q.schedule(SimTime::from_nanos(t.as_nanos() + dt), i as usize);
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("heap_churn", pending),
            &pending,
            |b, &n| {
                let mut q = HeapQueue::new();
                let mut rng = 42u64;
                for _ in 0..n {
                    q.schedule(mix(&mut rng) % 1_000_000_000);
                }
                b.iter(|| {
                    for _ in 0..CHURN_OPS {
                        let t = q.pop().expect("backlog never empties");
                        let dt = mix(&mut rng) % 1_000_000;
                        q.schedule(t + dt);
                    }
                });
            },
        );

        group.throughput(Throughput::Elements(pending as u64));
        group.bench_with_input(
            BenchmarkId::new("wheel_cancel_heavy", pending),
            &pending,
            |b, &n| {
                b.iter(|| {
                    let mut q = EventQueue::new();
                    let mut rng = 7u64;
                    let mut ids = Vec::with_capacity(n);
                    for i in 0..n {
                        ids.push(q.schedule(SimTime::from_nanos(mix(&mut rng) % 1_000_000_000), i));
                    }
                    for id in ids.into_iter().step_by(2) {
                        q.cancel(id);
                    }
                    while q.pop().is_some() {}
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("heap_cancel_heavy", pending),
            &pending,
            |b, &n| {
                b.iter(|| {
                    let mut q = HeapQueue::new();
                    let mut rng = 7u64;
                    let mut ids = Vec::with_capacity(n);
                    for _ in 0..n {
                        ids.push(q.schedule(mix(&mut rng) % 1_000_000_000));
                    }
                    for id in ids.into_iter().step_by(2) {
                        q.cancel(id);
                    }
                    while q.pop().is_some() {}
                });
            },
        );
    }
    group.finish();
}

/// The pre-loser-tree arrival calendar: a winner tree whose internal
/// nodes hold the winning source of their subtree, keys kept per
/// source. Sized for `m` sources up front (the merge never grows).
struct WinnerTree {
    keys: Vec<(u64, u64)>,
    tree: Vec<u32>,
    cap: usize,
}

impl WinnerTree {
    const EMPTY: (u64, u64) = (u64::MAX, u64::MAX);
    const NONE: u32 = u32::MAX;

    fn new(m: usize) -> Self {
        let cap = m.next_power_of_two().max(2);
        let mut tree = vec![Self::NONE; 2 * cap];
        for (s, leaf) in tree[cap..cap + m].iter_mut().enumerate() {
            *leaf = s as u32;
        }
        WinnerTree {
            keys: vec![Self::EMPTY; m],
            tree,
            cap,
        }
    }

    fn key(&self, s: u32) -> (u64, u64) {
        if s == Self::NONE {
            Self::EMPTY
        } else {
            self.keys[s as usize]
        }
    }

    fn reseed(&mut self, s: usize) {
        let mut node = (self.cap + s) >> 1;
        while node >= 1 {
            let left = self.tree[node << 1];
            let right = self.tree[(node << 1) | 1];
            self.tree[node] = if self.key(right) < self.key(left) {
                right
            } else {
                left
            };
            node >>= 1;
        }
    }
}

/// The two calendars behind one merge driver.
trait Merge {
    fn set(&mut self, source: usize, at: u64, seq: u64);
    fn pop(&mut self) -> Option<usize>;
}

impl Merge for WinnerTree {
    fn set(&mut self, source: usize, at: u64, seq: u64) {
        self.keys[source] = (at, seq);
        self.reseed(source);
    }

    fn pop(&mut self) -> Option<usize> {
        let winner = self.tree[1];
        if self.key(winner) == Self::EMPTY {
            return None;
        }
        let s = winner as usize;
        self.keys[s] = Self::EMPTY;
        self.reseed(s);
        Some(s)
    }
}

impl Merge for ArrivalCalendar {
    fn set(&mut self, source: usize, at: u64, seq: u64) {
        ArrivalCalendar::set(self, source, at, seq);
    }

    fn pop(&mut self) -> Option<usize> {
        ArrivalCalendar::pop(self).map(|(_, _, s)| s as usize)
    }
}

/// Arrivals consumed per source in the merge scenario; total items per
/// iteration are `M × ARRIVALS_PER_SOURCE`.
const ARRIVALS_PER_SOURCE: u64 = 100;

/// Merges `m` deterministic sorted streams to exhaustion through `cal`:
/// popping an arrival arms that source's next, like the sim's produce
/// path does. Returns the arrivals popped.
fn merge_streams(mut cal: impl Merge, m: usize) -> u64 {
    let mut rng = 42u64;
    let mut cursor = vec![0u64; m];
    let mut remaining = vec![ARRIVALS_PER_SOURCE; m];
    let mut seq = 0u64;
    for (s, c) in cursor.iter_mut().enumerate() {
        *c = mix(&mut rng) % 4096;
        cal.set(s, *c, seq);
        seq += 1;
    }
    let mut popped = 0u64;
    while let Some(s) = cal.pop() {
        popped += 1;
        remaining[s] -= 1;
        if remaining[s] > 0 {
            cursor[s] += 1 + mix(&mut rng) % 4096;
            cal.set(s, cursor[s], seq);
            seq += 1;
        }
    }
    popped
}

fn bench_arrival_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_merge");
    group.sample_size(10);
    for &sources in &[10usize, 100, 1000] {
        let total = sources as u64 * ARRIVALS_PER_SOURCE;
        group.throughput(Throughput::Elements(total));
        group.bench_with_input(
            BenchmarkId::new("winner_merge", sources),
            &sources,
            |b, &m| b.iter(|| assert_eq!(merge_streams(WinnerTree::new(m), m), total)),
        );
        group.bench_with_input(
            BenchmarkId::new("calendar_merge", sources),
            &sources,
            |b, &m| b.iter(|| assert_eq!(merge_streams(ArrivalCalendar::new(), m), total)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_arrival_merge);
criterion_main!(benches);
