//! Replay oracle cost: `oracle::check` over one recorded flash-crowd
//! overload cell (the golden `overload_cell.jsonl` fixture, every event
//! family including sheds and fault windows), next to
//! `TraceLog::digest` over the same stream for scale.
//!
//! `digest_bytewise` is the digest this one replaced, kept as the
//! reference: each event's canonical JSON (the bytes of `event_to_json`)
//! streamed through `serde_json::to_writer` into a byte-serial FNV-1a
//! sink, one xor-multiply per byte, then `\n`. It hashes the same bytes
//! to the same value (asserted below), so the gap to `digest` is what
//! the jump tables over constant JSON runs save (DESIGN.md §7a).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pc_bench::oracle;
use pc_bench::replay::{fixture_dir, parse_export_file};
use pc_trace_events::PackedEvents;
use std::hint::black_box;
use std::io;

/// Byte-serial 64-bit FNV-1a as an [`io::Write`] sink.
struct Fnv1a(u64);

impl io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The retired digest: every canonical line, byte by byte.
fn digest_bytewise(events: &PackedEvents) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    for ev in events {
        serde_json::to_writer(&mut hash, &ev).expect("hashing event JSON is infallible");
        io::Write::write_all(&mut hash, b"\n").expect("hashing is infallible");
    }
    hash.0
}

fn bench_oracle(c: &mut Criterion) {
    let path = fixture_dir().join("overload_cell.jsonl");
    let mut cells = parse_export_file(&path.display().to_string()).expect("fixture parses");
    let log = cells.remove(0).log;
    assert_eq!(digest_bytewise(&log.events), log.digest());

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
    group.bench_function("digest_bytewise", |b| {
        b.iter(|| digest_bytewise(black_box(&log.events)))
    });
    group.finish();
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
