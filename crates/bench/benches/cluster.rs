//! The router's merged reads on the spread shape: one default tenant
//! spread over 2 in-process primaries × 4 shards and fed 111,111
//! latency-like values, read through `Router::merged_quantile` with every
//! part unchanged, and right after a 1,000-value spread write.
//!
//! Each primary is a `QuantileService` served by `serve_evented`, behind a
//! `Router::new`, with no standby attached, so no standby poll (every
//! 2 ms) wakes during the timed reads. On a 2-vCPU host, over 20 runs each
//! way, that lowered the after-write row's median by about 43 µs, but its
//! run medians still spread from 290 to 506 µs, in two groups near 300 and
//! 420 µs; what spreads them is not known.

use std::cell::RefCell;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use req_bench::bench_items;
use req_cluster::Router;
use req_evented::{serve_evented, EventedHandle};
use req_service::tempdir::TempDir;
use req_service::{QuantileService, RetryPolicy, ServiceConfig, TenantConfig};

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

/// One primary on its own data directory, served on a loopback port.
fn primary(name: &str) -> (EventedHandle, TempDir) {
    let dir = TempDir::new(&format!("bench-cluster-{name}")).unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    (serve_evented(service, "127.0.0.1:0", 1).unwrap(), dir)
}

fn bench_router(c: &mut Criterion) {
    let nodes = [("a", primary("a")), ("b", primary("b"))];
    let routes: Vec<_> = (nodes.iter())
        .map(|(name, (server, _))| (name.to_string(), server.addr()))
        .collect();
    let mut router = Router::new(&routes, RetryPolicy::default());
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
