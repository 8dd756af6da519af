//! Text vs binary over the one evented server, plus WAL group commit.
//!
//! Three cuts:
//!
//! * `evented_pipeline` — 512 commands per measurement against one
//!   `serve_evented` port: the text client paying one blocking round-trip
//!   each (`text_sequential`), then writing all 512 in one send and
//!   draining 512 replies (`text_pipelined`), and the binary client doing
//!   the same (`binary_pipelined`). `ping_512` isolates pure transport
//!   cost; `rank_512` carries a real query, whose execution (identical on
//!   every arm) dilutes the ratios.
//! * `evented_density` — one `PING` round-trip while 512 idle connections
//!   sit parked on the same single-loop server.
//! * `group_commit` — 16 writers × 16 `ADDB` each against an
//!   fsync-enabled service, whose WAL fsyncs go through group commit.
//!   The fsyncs-per-append ratio for BENCH.md is printed after the
//!   timing.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

use req_bench::bench_items;
use req_core::OrdF64;
use req_evented::{serve_evented, Client, ReqBinClient};
use req_service::{ClientApi, QuantileService, Request, ServiceConfig, TenantConfig, Text};

const PIPELINE_DEPTH: usize = 512;

fn open_service(dir: &std::path::Path) -> Arc<QuantileService> {
    Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap())
}

fn warm_tenant(service: &QuantileService, key: &str) {
    let tokens = ["K=32", "HRA", "SHARDS=1"];
    service
        .create(key, TenantConfig::parse(key, &tokens).unwrap())
        .unwrap();
    let items: Vec<OrdF64> = bench_items(100_000, 13)
        .into_iter()
        .map(|v| OrdF64(v as f64))
        .collect();
    for chunk in items.chunks(1_000) {
        service.add_batch(key, chunk).unwrap();
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("evented_pipeline");
    group.throughput(Throughput::Elements(PIPELINE_DEPTH as u64));

    let dir = req_service::tempdir::TempDir::new("bench-pipe").unwrap();
    let service = open_service(dir.path());
    warm_tenant(&service, "t");
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
    let ranks: Vec<Request> = (0..PIPELINE_DEPTH)
        .map(|i| Request::Rank {
            key: "t".into(),
            value: i as f64 * 39.0,
        })
        .collect();
    let pings: Vec<Request> = (0..PIPELINE_DEPTH).map(|_| Request::Ping).collect();

    let mut text_client = Client::<Text>::connect(handle.addr()).unwrap();
    group.bench_function("ping_512/text_sequential", |b| {
        b.iter(|| {
            for _ in 0..PIPELINE_DEPTH {
                text_client.ping().unwrap();
            }
        })
    });
    group.bench_function("rank_512/text_sequential", |b| {
        b.iter(|| {
            let mut last = 0;
            for i in 0..PIPELINE_DEPTH {
                last = text_client.rank("t", black_box(i as f64 * 39.0)).unwrap();
            }
            black_box(last)
        })
    });
    group.bench_function("rank_512/text_pipelined", |b| {
        b.iter(|| black_box(text_client.call_pipelined(black_box(&ranks)).unwrap()))
    });
    group.bench_function("ping_512/text_pipelined", |b| {
        b.iter(|| black_box(text_client.call_pipelined(black_box(&pings)).unwrap()))
    });

    let mut bin_client = ReqBinClient::connect(handle.addr()).unwrap();
    group.bench_function("rank_512/binary_pipelined", |b| {
        b.iter(|| black_box(bin_client.call_pipelined(black_box(&ranks)).unwrap()))
    });
    group.bench_function("ping_512/binary_pipelined", |b| {
        b.iter(|| black_box(bin_client.call_pipelined(black_box(&pings)).unwrap()))
    });

    group.finish();
    drop((text_client, bin_client));
    handle.shutdown();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("evented_density");

    // 512 parked connections on ONE loop thread, and latency holds.
    let dir = req_service::tempdir::TempDir::new("bench-dense").unwrap();
    let service = open_service(dir.path());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
    let mut parked: Vec<ReqBinClient> = (0..512)
        .map(|_| ReqBinClient::connect(handle.addr()).unwrap())
        .collect();
    for conn in parked.iter_mut() {
        conn.ping().unwrap(); // fully registered, not just SYN-accepted
    }
    let mut probe = ReqBinClient::connect(handle.addr()).unwrap();
    group.bench_function("ping/binary_512_idle_conns", |b| {
        b.iter(|| probe.ping().unwrap())
    });
    group.finish();
    drop(probe);
    drop(parked);
    handle.shutdown();
}

fn bench_group_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_commit");
    const WRITERS: usize = 16;
    const BATCHES: usize = 16;
    group.throughput(Throughput::Elements((WRITERS * BATCHES * 16) as u64));

    let dir = req_service::tempdir::TempDir::new("bench-gc").unwrap();
    let mut cfg = ServiceConfig::new(dir.path());
    cfg.fsync = true;
    let service = Arc::new(QuantileService::open(cfg).unwrap());
    for w in 0..WRITERS {
        let key = format!("t{w}");
        let tokens = ["K=16", "SHARDS=1"];
        service
            .create(&key, TenantConfig::parse(&key, &tokens).unwrap())
            .unwrap();
    }
    group.bench_function("addb/grouped", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for w in 0..WRITERS {
                    let service = &service;
                    scope.spawn(move || {
                        let key = format!("t{w}");
                        let vals: Vec<OrdF64> =
                            (0..16).map(|v| OrdF64((w * 16 + v) as f64)).collect();
                        for _ in 0..BATCHES {
                            service.add_batch(&key, &vals).unwrap();
                        }
                    });
                }
            });
        })
    });
    group.finish();
    let ratio = service.wal_syncs() as f64 / service.wal_appends() as f64;
    println!("addb/grouped: {ratio:.3} fsyncs per ADDB ({WRITERS} concurrent writers)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_density, bench_group_commit
}
criterion_main!(benches);
