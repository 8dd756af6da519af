//! Serialization throughput for the compact binary format (E7), and the
//! CRC every frame carries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use req_bench::bench_items;
use req_core::frame::crc32;
use req_core::{QuantileSketch, RankAccuracy, ReqSketch, SpaceUsage};

fn filled(n: usize) -> ReqSketch<u64> {
    let mut s = ReqSketch::<u64>::builder()
        .k(32)
        .rank_accuracy(RankAccuracy::HighRank)
        .seed(4)
        .build()
        .unwrap();
    for x in bench_items(n, 21) {
        s.update(x);
    }
    s
}

fn bench_serialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("serialization");

    for n in [10_000usize, 1_000_000] {
        let sketch = filled(n);
        let retained = sketch.retained();
        group.bench_with_input(
            BenchmarkId::new("to_bytes", format!("n{n}_retained{retained}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut s = sketch.clone();
                    black_box(s.to_bytes().len())
                })
            },
        );
        let bytes = sketch.clone().to_bytes();
        group.bench_with_input(
            BenchmarkId::new("from_bytes", format!("n{n}_retained{retained}")),
            &n,
            |b, _| b.iter(|| black_box(ReqSketch::<u64>::from_bytes(&bytes).unwrap().len())),
        );
    }

    group.finish();
}

/// `frame::crc32` at the sizes a served request checksums: an `ADDB`
/// frame of 1,000 values (8 KiB) and one node's `MERGESINCE` reply
/// (75 KiB).
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    for kib in [8usize, 75] {
        let data: Vec<u8> = (0..kib << 10).map(|i| (i * 167 + 13) as u8).collect();
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("crc32", format!("{kib}KiB")),
            &data,
            |b, data| b.iter(|| crc32(black_box(data))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_serialization, bench_crc32
}
criterion_main!(benches);
