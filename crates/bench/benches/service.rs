//! The service tax: ingest/query through `req-service` vs the raw sketch.
//!
//! Three cuts:
//!
//! * `service_ingest` — 100k values in 1k batches into (a) a bare
//!   `ReqSketch<OrdF64>`, (b) the in-process service with its WAL on (every
//!   batch framed + checksummed + written + flushed), (c) the service with
//!   a snapshot every 32 records (checkpoint + rotate folded in).
//! * `service_query` — repeated `rank` against a warm tenant vs the bare
//!   sketch (the service path adds registry lookup + cached merged
//!   snapshot).
//! * `service_tcp` — full loopback round-trips (`RANK`, 1k-value `ADDB`)
//!   from the binary client against a live `serve_evented` server,
//!   measuring the wire + parse + execute overhead per request.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use req_bench::bench_items;
use req_core::{OrdF64, QuantileSketch, RankAccuracy, ReqSketch};
use req_evented::{serve_evented, ReqBinClient};
use req_service::tempdir::TempDir;
use req_service::{ClientApi, QuantileService, ServiceConfig, TenantConfig};

const N: usize = 100_000;
const BATCH: usize = 1_000;

static NEXT_KEY: AtomicU64 = AtomicU64::new(0);

fn values(seed: u64) -> Vec<OrdF64> {
    bench_items(N, seed)
        .into_iter()
        .map(|v| OrdF64(v as f64))
        .collect()
}

fn bare_sketch(seed: u64) -> ReqSketch<OrdF64> {
    ReqSketch::<OrdF64>::builder()
        .k(32)
        .rank_accuracy(RankAccuracy::HighRank)
        .seed(seed)
        .build()
        .unwrap()
}

fn open_service(dir: &std::path::Path, snapshot_every: u64) -> QuantileService {
    let mut cfg = ServiceConfig::new(dir);
    cfg.snapshot_every_records = snapshot_every;
    QuantileService::open(cfg).unwrap()
}

/// A fresh tenant key per iteration so every pass ingests into an empty
/// sketch, same as the bare-sketch arm.
fn fresh_key(service: &QuantileService) -> String {
    let key = format!("bench-{}", NEXT_KEY.fetch_add(1, Ordering::Relaxed));
    let tokens = ["K=32", "HRA", "SHARDS=1"];
    service
        .create(&key, TenantConfig::parse(&key, &tokens).unwrap())
        .unwrap();
    key
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_ingest");
    group.throughput(Throughput::Elements(N as u64));
    let items = values(7);

    group.bench_function("batch_100k/direct", |b| {
        b.iter(|| {
            let mut s = bare_sketch(1);
            for chunk in items.chunks(BATCH) {
                s.update_batch(black_box(chunk));
            }
            black_box(s.len())
        })
    });

    for (label, snapshot_every) in [("service_wal", 0u64), ("service_wal_snap32", 32)] {
        let dir = TempDir::new("bench-ingest").unwrap();
        let service = open_service(dir.path(), snapshot_every);
        group.bench_function(&format!("batch_100k/{label}"), |b| {
            b.iter(|| {
                let key = fresh_key(&service);
                for chunk in items.chunks(BATCH) {
                    service.add_batch(&key, black_box(chunk)).unwrap();
                }
                let n = service.stats(&key).unwrap().n;
                service.drop_key(&key).unwrap();
                black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_query");
    let items = values(11);

    let mut direct = bare_sketch(2);
    direct.update_batch(&items);
    group.bench_function("rank/direct", |b| {
        b.iter(|| black_box(direct.rank(&OrdF64(black_box(1e18)))))
    });

    let dir = TempDir::new("bench-query").unwrap();
    let service = open_service(dir.path(), 0);
    let key = fresh_key(&service);
    service.add_batch(&key, &items).unwrap();
    group.bench_function("rank/service", |b| {
        b.iter(|| black_box(service.rank(&key, black_box(1e18)).unwrap()))
    });
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_tcp");
    let dir = TempDir::new("bench-tcp").unwrap();
    let service = Arc::new(open_service(dir.path(), 0));
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
    let key = fresh_key(&service);
    let items: Vec<f64> = bench_items(N, 13).into_iter().map(|v| v as f64).collect();
    {
        let mut c = ReqBinClient::connect(handle.addr()).unwrap();
        for chunk in items.chunks(BATCH) {
            c.add_batch(&key, chunk).unwrap();
        }
    }

    let mut client = ReqBinClient::connect(handle.addr()).unwrap();
    group.bench_function("roundtrip/rank", |b| {
        b.iter(|| black_box(client.rank(&key, black_box(1e18)).unwrap()))
    });
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("roundtrip/addb_1k", |b| {
        b.iter(|| black_box(client.add_batch(&key, black_box(&items[..BATCH])).unwrap()))
    });
    group.finish();
    drop(client);
    handle.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_query, bench_tcp
}
criterion_main!(benches);
