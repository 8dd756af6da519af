//! The router's merged reads on the spread shape: one default tenant
//! spread over an in-process cluster of 2 nodes × 4 shards and fed 111,111
//! latency-like values, read through `Router::merged_quantile` with every
//! part unchanged, and right after a 1,000-value spread write.

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use req_bench::bench_items;
use req_cluster::Cluster;
use req_service::{RetryPolicy, TenantConfig};

const KEY: &str = "spread";
/// Values fed before the first timed read.
const VALUES: usize = 111_111;
/// Values per spread write.
const WRITE: usize = 1_000;
/// The `q` a dashboard polls, asked in turn.
const QS: [f64; 3] = [0.5, 0.99, 0.999];

/// Exponentially distributed values with a 1 ms mean, in µs.
fn latency_values(n: usize, seed: u64) -> Vec<f64> {
    bench_items(n, seed)
        .into_iter()
        .map(|x| -1_000.0 * (1.0 - (x >> 11) as f64 / (1u64 << 53) as f64).ln())
        .collect()
}

fn bench_router(c: &mut Criterion) {
    let mut cluster = Cluster::start(&["a", "b"], RetryPolicy::default()).unwrap();
    let router = cluster.router();
    router
        .create_spread(KEY, TenantConfig::for_key(KEY))
        .unwrap();
    for batch in latency_values(VALUES, 23).chunks(WRITE) {
        router.spread_add_batch(KEY, batch).unwrap();
    }

    let mut group = c.benchmark_group("router");
    group.sample_size(200);
    let mut i = 0;
    group.bench_function("merged_quantile_unchanged", |b| {
        b.iter(|| {
            i += 1;
            router.merged_quantile(KEY, QS[i % QS.len()]).unwrap()
        })
    });

    // One timed read right after each untimed write: every shard changed,
    // and the repeated q starts from where it landed before the write.
    let top_up = latency_values(WRITE * 1_024, 29);
    let mut batches = top_up.chunks(WRITE).cycle();
    let router = RefCell::new(router);
    group.bench_function("merged_quantile_after_spread_write", |b| {
        b.iter_batched(
            || {
                let batch = batches.next().unwrap();
                router.borrow_mut().spread_add_batch(KEY, batch).unwrap();
            },
            |()| black_box(router.borrow_mut().merged_quantile(KEY, 0.99).unwrap()),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
