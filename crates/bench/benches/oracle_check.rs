//! Replay oracle cost: `oracle::check` over one recorded flash-crowd
//! overload cell (the golden `overload_cell.jsonl` fixture, every event
//! family including sheds and fault windows), next to
//! `TraceLog::digest` over the same stream for scale.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pc_bench::oracle;
use pc_bench::replay::{fixture_dir, parse_export_file};
use std::hint::black_box;

fn bench_oracle(c: &mut Criterion) {
    let path = fixture_dir().join("overload_cell.jsonl");
    let cells = parse_export_file(&path.display().to_string()).expect("fixture parses");
    let log = cells[0].log();

    let mut group = c.benchmark_group("oracle_check");
    group.sample_size(20);
    group.throughput(Throughput::Elements(log.events.len() as u64));
    group.bench_function("check", |b| {
        b.iter(|| {
            let report = oracle::check(black_box(&log));
            assert!(report.is_clean());
            report
        })
    });
    group.bench_function("digest", |b| b.iter(|| black_box(&log).digest()));
    group.finish();
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
