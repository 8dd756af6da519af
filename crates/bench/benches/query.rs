//! Query latency: single rank queries, batched view queries, quantiles (E7).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use req_bench::bench_items;
use req_core::{QuantileSketch, RankAccuracy, ReqSketch};

const N: usize = 1_000_000;

fn filled_sketch(k: u32) -> ReqSketch<u64> {
    let items = bench_items(N, 11);
    let mut s = ReqSketch::<u64>::builder()
        .k(k)
        .rank_accuracy(RankAccuracy::HighRank)
        .seed(2)
        .build()
        .unwrap();
    for x in items {
        s.update(x);
    }
    s
}

fn bench_queries(c: &mut Criterion) {
    let sketch = filled_sketch(32);
    let probes = bench_items(256, 13);

    let mut group = c.benchmark_group("query");

    group.bench_function("rank_direct_scan", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(sketch.rank_direct(&probes[i]))
        })
    });

    // Reads of an unchanged sketch answer off the levels until they have
    // paid for a view, and 21 timed calls pay for less than one build.
    // Build it up front so the `*_cached_view` rows time the cached path.
    let _ = sketch.cached_view();
    group.bench_function("rank_cached_view", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(sketch.rank(&probes[i]))
        })
    });

    group.bench_function("sorted_view_build", |b| {
        b.iter(|| black_box(sketch.sorted_view().total_weight()))
    });

    let view = sketch.sorted_view();
    group.bench_function("rank_via_view", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(view.rank(&probes[i]))
        })
    });

    group.bench_function("quantile_via_view", |b| {
        let mut q = 0.0f64;
        b.iter(|| {
            q = (q + 0.137) % 1.0;
            black_box(view.quantile(q))
        })
    });

    group.bench_function("cdf_64_splits", |b| {
        let splits: Vec<u64> = (0..64).map(|i| i * (u64::MAX / 64)).collect();
        b.iter(|| black_box(view.cdf(&splits)))
    });

    // Repeated quantiles on an unchanged sketch: the cached view answers
    // every query after the first build, vs. rebuilding the view each time
    // (the pre-cache behaviour of `quantile`).
    group.bench_function("quantile_rebuild_per_query", |b| {
        let mut q = 0.0f64;
        b.iter(|| {
            q = (q + 0.137) % 1.0;
            black_box(sketch.sorted_view().quantile(0.25 + q * 0.5).cloned())
        })
    });

    group.bench_function("quantile_cached_view", |b| {
        let mut q = 0.0f64;
        b.iter(|| {
            q = (q + 0.137) % 1.0;
            black_box(sketch.quantile(0.25 + q * 0.5))
        })
    });

    group.bench_function("ranks_batch_256_probes", |b| {
        b.iter(|| black_box(sketch.ranks(&probes)))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_queries
}
criterion_main!(benches);
