//! Text vs binary over the one evented server, plus WAL group commit.
//!
//! Three cuts:
//!
//! * `evented_pipeline` — 512 commands per measurement against one
//!   `serve_evented` port: raw text lines paying one blocking round-trip
//!   each (`text_sequential`), then all 512 lines in one send and 512
//!   reply lines drained (`text_pipelined`), and the binary client
//!   pipelining the same (`binary_pipelined`). The text rows read reply
//!   lines without decoding them; the binary rows decode every reply.
//!   `ping_512` isolates pure transport cost; `rank_512` carries a real
//!   query, whose execution (identical on every arm) dilutes the ratios.
//! * `evented_density` — one `PING` round-trip while 512 idle connections
//!   sit parked on the same single-loop server.
//! * `group_commit` — 16 writers × 16 `ADDB` each against an
//!   fsync-enabled service, whose WAL fsyncs go through group commit.
//!   The fsyncs-per-append ratio for BENCH.md is printed after the
//!   timing.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use req_bench::bench_items;
use req_core::OrdF64;
use req_evented::{serve_evented, ReqBinClient};
use req_service::protocol::text;
use req_service::{ClientApi, QuantileService, Request, ServiceConfig, TenantConfig};

const PIPELINE_DEPTH: usize = 512;

/// A text connection: writes request lines and reads one reply line per
/// request, leaving the line undecoded.
struct TextConn {
    conn: BufReader<TcpStream>,
    line: String,
}

impl TextConn {
    fn connect(addr: std::net::SocketAddr) -> TextConn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        TextConn {
            conn: BufReader::new(stream),
            line: String::new(),
        }
    }

    /// Write `wire` (whole lines) in one send, then read `replies` lines;
    /// returns the bytes read.
    fn exchange(&mut self, wire: &[u8], replies: usize) -> usize {
        self.conn.get_mut().write_all(wire).unwrap();
        let mut read = 0;
        for _ in 0..replies {
            self.line.clear();
            read += self.conn.read_line(&mut self.line).unwrap();
            assert!(self.line.starts_with("OK"), "reply `{}`", self.line);
        }
        read
    }
}

/// Each request as its text line, and all of them as one buffer.
fn text_lines(reqs: &[Request]) -> (Vec<String>, String) {
    let lines: Vec<String> = reqs
        .iter()
        .map(|r| text::encode_request(r) + "\n")
        .collect();
    let all = lines.concat();
    (lines, all)
}

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

    let (rank_lines, rank_wire) = text_lines(&ranks);
    let (ping_lines, ping_wire) = text_lines(&pings);
    let mut text_conn = TextConn::connect(handle.addr());
    group.bench_function("ping_512/text_sequential", |b| {
        b.iter(|| {
            for line in &ping_lines {
                black_box(text_conn.exchange(line.as_bytes(), 1));
            }
        })
    });
    group.bench_function("rank_512/text_sequential", |b| {
        b.iter(|| {
            for line in &rank_lines {
                black_box(text_conn.exchange(black_box(line.as_bytes()), 1));
            }
        })
    });
    group.bench_function("rank_512/text_pipelined", |b| {
        b.iter(|| black_box(text_conn.exchange(black_box(rank_wire.as_bytes()), PIPELINE_DEPTH)))
    });
    group.bench_function("ping_512/text_pipelined", |b| {
        b.iter(|| black_box(text_conn.exchange(black_box(ping_wire.as_bytes()), PIPELINE_DEPTH)))
    });

    let mut bin_client = ReqBinClient::connect(handle.addr()).unwrap();
    group.bench_function("rank_512/binary_pipelined", |b| {
        b.iter(|| black_box(bin_client.call_pipelined(black_box(&ranks)).unwrap()))
    });
    group.bench_function("ping_512/binary_pipelined", |b| {
        b.iter(|| black_box(bin_client.call_pipelined(black_box(&pings)).unwrap()))
    });

    group.finish();
    drop((text_conn, bin_client));
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
