//! Query latency: single rank queries, batched view queries, quantiles (E7),
//! and the served tenant's reads right after a write.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use req_bench::bench_items;
use req_core::{ConcurrentReqSketch, OrdF64, QuantileSketch, RankAccuracy, ReqSketch};
use req_service::TenantConfig;

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

/// Values written per `ADDB` in the served workload.
const WRITE: usize = 1_000;

/// The served tenant's shape: a default tenant (4 shards, k 32, HRA,
/// adaptive) fed 4M latency-like values in 1,000-value batches.
fn served_tenant() -> ConcurrentReqSketch<OrdF64> {
    let tenant = TenantConfig::for_key("api.latency").build().unwrap();
    for batch in latency_values(4_000_000, 17).chunks(WRITE) {
        tenant.update_batch(batch);
    }
    tenant
}

/// Exponentially distributed values with a 1 ms mean, in µs.
fn latency_values(n: usize, seed: u64) -> Vec<OrdF64> {
    bench_items(n, seed)
        .into_iter()
        .map(|x| OrdF64(-1_000.0 * (1.0 - (x >> 11) as f64 / (1u64 << 53) as f64).ln()))
        .collect()
}

/// One read timed right after an untimed 1,000-value write, the served
/// read phase: a quantile repeated at p99 (it starts from where p99 landed
/// before the write), a quantile at a q never asked before (it selects), and
/// a rank.
fn bench_reads_after_a_write(c: &mut Criterion) {
    let tenant = served_tenant();
    let top_up = latency_values(WRITE * 1_024, 19);
    let mut batches = top_up.chunks(WRITE).cycle();
    let mut write = || tenant.update_batch(batches.next().unwrap());

    let mut group = c.benchmark_group("query_after_write");
    group.sample_size(200);
    group.bench_function("tenant_quantile_repeated_q", |b| {
        b.iter_batched(
            &mut write,
            |()| tenant.quantile(0.99),
            BatchSize::PerIteration,
        )
    });
    let mut q = 0.0f64;
    group.bench_function("tenant_quantile_new_q", |b| {
        b.iter_batched(
            &mut write,
            |()| {
                q = (q + 0.618_033_988_749_895) % 1.0;
                tenant.quantile(0.25 + q / 2.0)
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("tenant_rank", |b| {
        b.iter_batched(
            &mut write,
            |()| tenant.rank(&OrdF64(1_500.0)),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_queries, bench_reads_after_a_write
}
criterion_main!(benches);
