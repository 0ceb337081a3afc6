//! Native queue throughput sweep — the perf-trajectory benchmark.
//!
//! Pumps a fixed item count through each queue implementation on real
//! threads and reports items/s and ns/item per cell of
//! {strategy} × {pair count} × {batch size}:
//!
//! * `mutex` — the §III-A Mutex queue, one lock per item on both sides
//!   (the baseline the batched paths are measured against).
//! * `sem`   — the §III-A Sem queue, one semaphore transaction per item.
//! * `bp`    — BP-shaped batching on the Mutex queue: the producer still
//!   pushes item-at-a-time (a replayed arrival stream has no batches to
//!   offer), but the consumer takes the whole session in one lock via
//!   `pop_timeout_drain`. The queue capacity doubles as the batch bound.
//! * `spsc`  — the lock-free ring; batch 1 is `push`/`pop`, larger
//!   batches use `push_slice`/`pop_chunk` (one atomic store per batch).
//!
//! Output goes to `results/BENCH_throughput.json`. **Timings only**: like
//! `BENCH_suite.json` this file is host-dependent by nature and is
//! explicitly *outside* the determinism gate — nothing here may ever
//! feed into `results/suite.json`.
//!
//! Knobs: `--items N` / `PC_TP_ITEMS` (items per pair, a positive
//! integer, default 200 000; CI smoke uses 20 000; `--items` wins),
//! `--filter SUBSTR` (cell label substring), `--list` (print the
//! selected cell labels without running). A malformed knob or argument
//! exits 2 naming it.

use pc_bench::exp::{die, env_knob};
use pc_queues::{spsc_ring, Backoff, MutexQueue, SemQueue};
use serde::Serialize;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Consumers poll with this timeout so a stalled cell cannot hang the
/// whole sweep silently.
const POLL: Duration = Duration::from_millis(100);

#[derive(Serialize, Clone)]
struct Cell {
    strategy: &'static str,
    pairs: usize,
    batch: usize,
    items_total: u64,
    wall_ms: f64,
    /// Thread spawn + queue allocation cost, which the start barrier
    /// keeps *out* of `wall_ms`. Stamped so nobody mistakes a cell's
    /// measured window for its full cost (or vice versa) when comparing
    /// strategies whose setup differs.
    setup_ms: f64,
    items_per_sec: f64,
    ns_per_item: f64,
}

#[derive(Serialize)]
struct Report {
    /// v2: added `filters` (active `--filter`, empty = full sweep) —
    /// a checked-in sidecar can never masquerade as a full run. The
    /// `--items`/`PC_TP_ITEMS` knob was already stamped via
    /// `items_per_pair`.
    /// v3: per-cell `setup_ms` (spawn/alloc cost outside the timed
    /// window, previously unrecorded).
    /// v4: no per-cell `shards` column (its paced fleet cells are
    /// gone).
    schema_version: u32,
    items_per_pair: u64,
    filters: Vec<String>,
    note: &'static str,
    cells: Vec<Cell>,
}

/// Runs `pairs` producer/consumer thread pairs, each pumping `items`
/// values through its own queue endpoints built by `make`, and returns
/// the wall time from the start barrier to the last consumer finishing.
fn run_cell<P, C>(pairs: usize, items: u64, make: impl Fn() -> (P, C)) -> Duration
where
    P: FnMut(u64) + Send + 'static,
    C: FnMut(u64) -> u64 + Send + 'static,
{
    // Everyone (plus the timer) starts together so thread spawn cost
    // stays out of the measurement.
    let barrier = Arc::new(Barrier::new(2 * pairs + 1));
    let mut handles = Vec::with_capacity(2 * pairs);
    for _ in 0..pairs {
        let (mut produce, mut consume) = make();
        let b = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            b.wait();
            for i in 0..items {
                produce(i);
            }
        }));
        let b = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            b.wait();
            let got = consume(items);
            assert_eq!(got, items, "consumer lost items");
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("throughput worker panicked");
    }
    start.elapsed()
}

/// Mutex strategy: one lock acquisition per item on both endpoints.
fn cell_mutex(pairs: usize, items: u64) -> Duration {
    run_cell(pairs, items, || {
        let q = Arc::new(MutexQueue::<u64>::new(1024));
        let qp = Arc::clone(&q);
        (
            move |v| {
                qp.push(v);
            },
            move |n| {
                let mut got = 0u64;
                while got < n {
                    if q.pop_timeout(POLL).is_some() {
                        got += 1;
                    }
                }
                got
            },
        )
    })
}

/// Sem strategy: one items+slots semaphore transaction per item.
fn cell_sem(pairs: usize, items: u64) -> Duration {
    run_cell(pairs, items, || {
        let (qp, qc) = SemQueue::<u64>::new(1024);
        (
            move |v| {
                qp.push(v);
            },
            move |n| {
                let mut got = 0u64;
                while got < n {
                    if qc.pop_timeout(POLL).is_some() {
                        got += 1;
                    }
                }
                got
            },
        )
    })
}

/// BP-shaped batching: per-item producer, session-draining consumer.
/// The queue capacity bounds the batch, as the BP buffer does.
fn cell_bp(pairs: usize, items: u64, batch: usize) -> Duration {
    run_cell(pairs, items, move || {
        let q = Arc::new(MutexQueue::<u64>::new(batch));
        let qp = Arc::clone(&q);
        (
            move |v| {
                qp.push(v);
            },
            move |n| {
                let mut got = 0u64;
                let mut out = Vec::with_capacity(batch);
                while got < n {
                    out.clear();
                    if let Some((k, _)) = q.pop_timeout_drain(POLL, &mut out) {
                        got += k as u64;
                    }
                }
                got
            },
        )
    })
}

/// SPSC ring. Batch 1 exercises the single-item cached-cursor path;
/// larger batches the `push_slice`/`pop_chunk` pair. All stall loops
/// back off and yield — on a single-core host unbounded spinning would
/// just burn the peer's scheduler quantum.
fn cell_spsc(pairs: usize, items: u64, batch: usize) -> Duration {
    run_cell(pairs, items, move || {
        let (p, c) = spsc_ring::<u64>(1024.max(batch));
        let produce = move |v: u64| {
            if batch == 1 {
                let mut backoff = Backoff::new();
                let mut v = v;
                while let Err(back) = p.push(v) {
                    v = back;
                    backoff.snooze();
                }
            } else {
                // Stage a batch locally, ship it with one Release store.
                // The closure is called per item, so stage through a
                // thread-local buffer captured by the closure.
                STAGE.with(|s| {
                    let mut stage = s.borrow_mut();
                    stage.push(v);
                    // Flush on a full batch, and on the final item so a
                    // trailing partial batch is never stranded.
                    if stage.len() >= batch || v + 1 == items {
                        let mut backoff = Backoff::new();
                        let mut sent = 0;
                        while sent < stage.len() {
                            let k = p.push_slice(&stage[sent..]);
                            if k == 0 {
                                backoff.snooze();
                            } else {
                                sent += k;
                                backoff.reset();
                            }
                        }
                        stage.clear();
                    }
                });
            }
        };
        let consume = move |n: u64| {
            let mut got = 0u64;
            let mut backoff = Backoff::new();
            if batch == 1 {
                while got < n {
                    if c.pop().is_some() {
                        got += 1;
                        backoff.reset();
                    } else {
                        backoff.snooze();
                    }
                }
            } else {
                let mut out = Vec::with_capacity(batch);
                while got < n {
                    out.clear();
                    let k = c.pop_chunk(&mut out, batch);
                    if k == 0 {
                        backoff.snooze();
                    } else {
                        got += k as u64;
                        backoff.reset();
                    }
                }
            }
            got
        };
        (produce, consume)
    })
}

thread_local! {
    static STAGE: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn main() {
    let mut items = env_knob(&|name| std::env::var(name).ok(), "PC_TP_ITEMS", 200_000, 1)
        .unwrap_or_else(|e| die(&e));
    let mut filter = String::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--items" => {
                let value = args.next().unwrap_or_else(|| die("--items needs a value"));
                items = env_knob(&|_| Some(value.clone()), "--items", items, 1)
                    .unwrap_or_else(|e| die(&e));
            }
            "--filter" => filter = args.next().unwrap_or_else(|| die("--filter needs a value")),
            "--list" => list = true,
            other => die(&format!(
                "unknown argument {other:?}; usage: throughput [--items N] [--filter SUBSTR] [--list]"
            )),
        }
    }

    let pair_counts = [1usize, 2, 5, 10];
    // (strategy, batches): Mutex/Sem are defined per-item; BP's batch is
    // its buffer capacity; SPSC gets batch 1 as the unbatched reference.
    let plan: Vec<(&'static str, Vec<usize>)> = vec![
        ("mutex", vec![1]),
        ("sem", vec![1]),
        ("bp", vec![16, 64, 256]),
        ("spsc", vec![1, 16, 64, 256]),
    ];

    // (label, strategy, pairs, batch) in run order.
    let mut selected: Vec<(String, &'static str, usize, usize)> = Vec::new();
    for (strategy, batches) in &plan {
        for &batch in batches {
            for &pairs in &pair_counts {
                let label = format!("{strategy}/p{pairs}/b{batch}");
                if filter.is_empty() || label.contains(&filter) {
                    selected.push((label, strategy, pairs, batch));
                }
            }
        }
    }

    if list {
        for (label, ..) in &selected {
            println!("{label}");
        }
        return;
    }

    let mut cells = Vec::new();
    println!("{items} items per pair\n");
    println!(
        "{:<14} {:>5} {:>6} {:>12} {:>14} {:>10}",
        "strategy", "pairs", "batch", "wall_ms", "items/s", "ns/item"
    );
    for (_, strategy, pairs, batch) in &selected {
        let (pairs, batch) = (*pairs, *batch);
        let cell_started = Instant::now();
        let wall = match *strategy {
            "mutex" => cell_mutex(pairs, items),
            "sem" => cell_sem(pairs, items),
            "bp" => cell_bp(pairs, items, batch),
            _ => cell_spsc(pairs, items, batch),
        };
        // Everything the barrier fenced off the measurement: thread
        // spawn and queue allocation (plus join teardown noise).
        let setup = cell_started.elapsed().saturating_sub(wall);
        let total = items * pairs as u64;
        let secs = wall.as_secs_f64();
        let cell = Cell {
            strategy,
            pairs,
            batch,
            items_total: total,
            wall_ms: secs * 1e3,
            setup_ms: setup.as_secs_f64() * 1e3,
            items_per_sec: total as f64 / secs,
            ns_per_item: secs * 1e9 / total as f64,
        };
        println!(
            "{:<14} {:>5} {:>6} {:>12.2} {:>14.0} {:>10.1}",
            cell.strategy,
            cell.pairs,
            cell.batch,
            cell.wall_ms,
            cell.items_per_sec,
            cell.ns_per_item
        );
        cells.push(cell);
    }

    // Headline: the batched ring against the per-item Mutex baseline.
    let mutex_1 = cells
        .iter()
        .find(|c| c.strategy == "mutex" && c.pairs == 1)
        .map(|c| c.items_per_sec);
    let spsc_best = cells
        .iter()
        .filter(|c| c.strategy == "spsc" && c.pairs == 1 && c.batch > 1)
        .map(|c| c.items_per_sec)
        .fold(f64::NAN, f64::max);
    if let Some(base) = mutex_1 {
        if spsc_best.is_finite() {
            println!(
                "\nSPSC batched vs Mutex at 1 pair: {:.1}x ({:.0} vs {:.0} items/s)",
                spsc_best / base,
                spsc_best,
                base
            );
        }
    }

    pc_bench::exp::save_json(
        "BENCH_throughput",
        &Report {
            schema_version: 4,
            items_per_pair: items,
            filters: if filter.is_empty() {
                Vec::new()
            } else {
                vec![filter]
            },
            note: "wall-clock timings; host-dependent by design, outside the determinism gate",
            cells,
        },
    );
}
