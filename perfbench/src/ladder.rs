//! The traced per-layer run.
//!
//! Every measurement here is a span around a call into one layer's public
//! function, on the same seeded inputs the end-to-end workloads use. The
//! ingest ladder pushes the `ingest` stream through each rung in turn —
//! `ReqSketch<u64>`, `ReqSketch<OrdF64>`, the tenant's
//! `ConcurrentReqSketch`, `QuantileService::add_batch`, `server::execute`,
//! and pipelined `ADDB`s over the evented loop — and reports each rung's
//! ns/value and its tax over the rung below. Rungs run in paired rounds
//! with a rotating order, so slow drift of the host hits every rung alike.

use std::sync::Arc;
use std::time::{Duration, Instant};

use req_cluster::Cluster;
use req_core::{merge_wire_parts, ConcurrentReqSketch, OrdF64, QuantileSketch, ReqSketch};
use req_evented::ReqBinClient;
use req_service::protocol::binary;
use req_service::tempdir::TempDir;
use req_service::{
    execute, ClientApi, QuantileService, Request, Response, RetryPolicy, ServiceConfig,
    TenantConfig,
};

use crate::inputs::{
    addb_frames, encode_schedule, ingest_values, replicated_batches, tenant_key, Dest, MixedInputs,
    FRAME_VALUES, INGEST_KEY, MIXED_READ_QS, SPREAD_KEY,
};
use crate::openloop;
use crate::report::RunResult;
use crate::stats::{median, Oracle};
use crate::trace::Tracer;
use crate::workloads::{
    create_request, mixed_session, pipeline, BenchError, Node, Params, MIXED_RATE,
};

/// Paired rounds of the ingest ladder.
const LADDER_ROUNDS: usize = 5;
/// Write-then-read repetitions for the snapshot rebuild probes.
const REBUILD_PROBES: usize = 200;
/// Calls per block when one call is too short to span on its own.
const BLOCK_CALLS: usize = 1_000;
/// Blocks of cached quantile reads.
const QUANTILE_BLOCKS: usize = 50;
/// Small `ADDB`s timed one by one.
const SMALL_WRITES: usize = 2_000;
/// Repetitions of the heavier single calls (merge, sketch parts).
const HEAVY_CALLS: usize = 100;
/// Appends per writer thread in the fsync probe.
const FSYNC_APPENDS: usize = 200;
/// `PING` round trips.
const PINGS: usize = 5_000;
/// `Router::call` / `ReqBinClient::call` pairs.
const ROUTER_PAIRS: usize = 500;
/// Full tail-and-apply replays of the `replicated` WAL.
const SHIP_REPLAYS: usize = 3;
/// Length of the `mixed` schedule replayed by the load-generator probes.
const LOADGEN_SPAN: Duration = Duration::from_secs(4);

/// One rung of the ingest ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    SketchU64,
    SketchF64,
    Concurrent,
    Service,
    Execute,
    Encode,
    Decode,
    Pipelined,
    PipelinedUntraced,
}

impl Rung {
    const ALL: [Rung; 9] = [
        Rung::SketchU64,
        Rung::SketchF64,
        Rung::Concurrent,
        Rung::Service,
        Rung::Execute,
        Rung::Encode,
        Rung::Decode,
        Rung::Pipelined,
        Rung::PipelinedUntraced,
    ];

    /// Name of the span around each call this rung times.
    fn call_span(self) -> &'static str {
        match self {
            Rung::SketchU64 => "core.ReqSketch<u64>::update_batch",
            Rung::SketchF64 => "core.ReqSketch<OrdF64>::update_batch",
            Rung::Concurrent => "core.ConcurrentReqSketch::update_batch",
            Rung::Service => "service.QuantileService::add_batch",
            Rung::Execute => "service.server::execute",
            Rung::Encode => "service.protocol::binary::encode_request",
            Rung::Decode => "service.protocol::binary::decode_request",
            Rung::Pipelined | Rung::PipelinedUntraced => "evented.ReqBinClient::call_pipelined",
        }
    }

    fn rung_span(self) -> &'static str {
        match self {
            Rung::SketchU64 => "ladder.core.sketch_u64",
            Rung::SketchF64 => "ladder.core.sketch_f64",
            Rung::Concurrent => "ladder.core.concurrent",
            Rung::Service => "ladder.service.add_batch",
            Rung::Execute => "ladder.service.execute",
            Rung::Encode => "ladder.service.codec.encode",
            Rung::Decode => "ladder.service.codec.decode",
            Rung::Pipelined => "ladder.evented.pipelined",
            Rung::PipelinedUntraced => "ladder.evented.pipelined_untraced",
        }
    }
}

/// Order-preserving integer key of an `f64`: the sign-flipped bit
/// pattern, whose unsigned order equals `f64::total_cmp`.
fn ordered_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The seeded stream in every form the rungs consume.
struct IngestInputs {
    keys: Vec<u64>,
    ordf: Vec<OrdF64>,
    frames: Vec<Request>,
    encoded: Vec<bytes::Bytes>,
}

/// Per-rung outcome of one round.
#[derive(Debug, Default, Clone, Copy)]
struct RungRun {
    /// Span-summed call time, ns.
    call_ns: u64,
    /// Wall time of the whole call loop, ns.
    wall_ns: u64,
    errors: u64,
}

fn tenant_builder() -> Result<req_core::ReqSketchBuilder, BenchError> {
    let cfg = TenantConfig::for_key(INGEST_KEY);
    Ok(ReqSketch::<OrdF64>::builder()
        .policy(cfg.policy()?)
        .high_rank_accuracy(cfg.hra)
        .schedule(cfg.schedule)
        .seed(cfg.seed))
}

fn run_rung(
    rung: Rung,
    input: &IngestInputs,
    tracer: &mut Tracer,
    arena: &mut Option<req_core::SketchStats>,
) -> Result<RungRun, BenchError> {
    let span = rung.call_span();
    let mut errors = 0u64;
    let before = tracer.total_ns(span);
    let outer = tracer.begin(rung.rung_span());
    let wall = Instant::now();
    match rung {
        Rung::SketchU64 => {
            let mut sketch: ReqSketch<u64> = tenant_builder()?.build()?;
            for chunk in input.keys.chunks(FRAME_VALUES) {
                tracer.span(span, || sketch.update_batch(chunk));
            }
            errors += u64::from(sketch.len() != input.keys.len() as u64);
        }
        Rung::SketchF64 => {
            let mut sketch: ReqSketch<OrdF64> = tenant_builder()?.build()?;
            for chunk in input.ordf.chunks(FRAME_VALUES) {
                tracer.span(span, || sketch.update_batch(chunk));
            }
            errors += u64::from(sketch.len() != input.ordf.len() as u64);
            arena.get_or_insert_with(|| sketch.stats());
        }
        Rung::Concurrent => {
            let sketch = TenantConfig::for_key(INGEST_KEY).build()?;
            for chunk in input.ordf.chunks(FRAME_VALUES) {
                tracer.span(span, || sketch.update_batch(chunk));
            }
            errors += u64::from(sketch.len() != input.ordf.len() as u64);
        }
        Rung::Service => {
            let dir = TempDir::new("ladder-service")?;
            let service = QuantileService::open(ServiceConfig::new(dir.path()))?;
            service.create(INGEST_KEY, TenantConfig::for_key(INGEST_KEY))?;
            for chunk in input.ordf.chunks(FRAME_VALUES) {
                let acked = tracer.span(span, || service.add_batch(INGEST_KEY, chunk));
                errors += u64::from(acked.ok() != Some(chunk.len() as u64));
            }
        }
        Rung::Execute => {
            let dir = TempDir::new("ladder-execute")?;
            let service = QuantileService::open(ServiceConfig::new(dir.path()))?;
            service.create(INGEST_KEY, TenantConfig::for_key(INGEST_KEY))?;
            let owned = input.frames.clone();
            for req in owned {
                let resp = tracer.span(span, || execute(&service, req));
                errors += u64::from(resp != Response::AddedBatch(FRAME_VALUES as u64));
            }
        }
        Rung::Encode => {
            let mut bytes = 0usize;
            for req in &input.frames {
                bytes += tracer.span(span, || binary::encode_request(req)).len();
            }
            errors += u64::from(bytes != input.encoded.iter().map(|b| b.len()).sum::<usize>());
        }
        Rung::Decode => {
            for frame in &input.encoded {
                let req = tracer.span(span, || {
                    binary::try_deframe(frame, 0).and_then(|d| match d {
                        Some((payload, _)) => binary::decode_request(payload),
                        None => Err(req_core::ReqError::CorruptBytes("short frame".into())),
                    })
                });
                errors += u64::from(!matches!(req, Ok(Request::AddBatch { .. })));
            }
        }
        Rung::Pipelined | Rung::PipelinedUntraced => {
            let node = Node::start("ladder-evented")?;
            let mut client = node.client()?;
            client.call(&create_request(INGEST_KEY))?.into_result()?;
            let t = Instant::now();
            let (acked, failed) = if rung == Rung::Pipelined {
                pipeline(&mut client, &input.frames, tracer)?
            } else {
                pipeline(&mut client, &input.frames, &mut Tracer::disabled())?
            };
            let wall_ns = t.elapsed().as_nanos() as u64;
            errors += failed + u64::from(acked != input.ordf.len() as u64);
            tracer.end(outer);
            let call_ns = tracer.total_ns(span) - before;
            return Ok(RungRun {
                call_ns: if rung == Rung::Pipelined {
                    call_ns
                } else {
                    wall_ns
                },
                wall_ns,
                errors,
            });
        }
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    tracer.end(outer);
    Ok(RungRun {
        call_ns: tracer.total_ns(span) - before,
        wall_ns,
        errors,
    })
}

/// Median of per-call span durations named `name`, in µs.
fn median_us(tracer: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tracer
        .durations(name)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&d)
}

/// The traced run: every per-layer metric, in `BENCHMARK.json` order.
pub fn run(p: &Params, tracer: &mut Tracer) -> Result<RunResult, BenchError> {
    let mut r = RunResult::default();
    let values = ingest_values(p.seed, &p.sizes);
    let n = values.len() as f64;
    let frames = addb_frames(INGEST_KEY, &values);
    let input = IngestInputs {
        keys: values.iter().map(|&v| ordered_key(v)).collect(),
        ordf: values.iter().map(|&v| OrdF64(v)).collect(),
        encoded: frames.iter().map(binary::encode_request).collect(),
        frames,
    };

    // Ingest ladder: paired rounds, rotating the rung order each round.
    let mut per_rung: Vec<Vec<RungRun>> = vec![Vec::new(); Rung::ALL.len()];
    let mut arena = None;
    for round in 0..LADDER_ROUNDS {
        for k in 0..Rung::ALL.len() {
            let i = (k + round) % Rung::ALL.len();
            per_rung[i].push(run_rung(Rung::ALL[i], &input, tracer, &mut arena)?);
        }
    }
    let ns_per_value = |rung: Rung| {
        let i = Rung::ALL
            .iter()
            .position(|&x| x == rung)
            .expect("listed rung");
        let v: Vec<f64> = per_rung[i].iter().map(|x| x.call_ns as f64 / n).collect();
        median(&v)
    };
    // Tax of a rung over the one below: the median of per-round
    // differences, so each difference pairs two rungs run back to back.
    let tax = |upper: Rung, lower: Rung| {
        let iu = Rung::ALL
            .iter()
            .position(|&x| x == upper)
            .expect("listed rung");
        let il = Rung::ALL
            .iter()
            .position(|&x| x == lower)
            .expect("listed rung");
        let d: Vec<f64> = per_rung[iu]
            .iter()
            .zip(&per_rung[il])
            .map(|(u, l)| (u.call_ns as f64 - l.call_ns as f64) / n)
            .collect();
        median(&d)
    };
    let rung_errors: u64 = per_rung.iter().flatten().map(|x| x.errors).sum();
    let arena = arena.expect("the f64 rung ran");

    // Evented loop counters come from the server's own METRICS exposition,
    // read right after the pipelined rungs (the first wire traffic here).
    let frames_per_wakeup = {
        let node = Node::start("ladder-metrics")?;
        let mut client = node.client()?;
        let text = client.metrics()?;
        exposition_value(&text, "evented_frames_per_wakeup{quantile=\"0.5\"}")
            .ok_or("METRICS lacks evented_frames_per_wakeup")?
    };

    let read_path = read_path_probes(p, tracer)?;
    let service = service_probes(p, tracer)?;
    let ping_rtt_us = ping_probe(tracer)?;
    let cluster = cluster_probes(p, tracer)?;
    let loadgen = loadgen_probes(p, tracer)?;

    let pipelined_untraced: Vec<f64> = per_rung[Rung::ALL.len() - 1]
        .iter()
        .map(|x| x.wall_ns as f64)
        .collect();
    let pipelined_traced: Vec<f64> = per_rung[Rung::ALL.len() - 2]
        .iter()
        .map(|x| x.wall_ns as f64)
        .collect();
    let overhead: Vec<f64> = pipelined_traced
        .iter()
        .zip(&pipelined_untraced)
        .map(|(t, u)| t / u)
        .collect();

    let samples = LADDER_ROUNDS as u64;
    r.metric(
        "core.arena.moves_per_value",
        arena.items_merge_moved as f64 / n,
        "count",
        0,
    );
    r.metric(
        "core.arena.sorted_per_value",
        arena.items_sorted as f64 / n,
        "count",
        0,
    );
    r.metric(
        "core.sketch_u64.ns_per_value",
        ns_per_value(Rung::SketchU64),
        "ns",
        samples,
    );
    r.metric(
        "core.sketch_f64.ns_per_value",
        ns_per_value(Rung::SketchF64),
        "ns",
        samples,
    );
    r.metric(
        "core.sketch_f64.tax_ns_per_value",
        tax(Rung::SketchF64, Rung::SketchU64),
        "ns",
        samples,
    );
    r.metric(
        "core.concurrent.ns_per_value",
        ns_per_value(Rung::Concurrent),
        "ns",
        samples,
    );
    r.metric(
        "core.concurrent.tax_ns_per_value",
        tax(Rung::Concurrent, Rung::SketchF64),
        "ns",
        samples,
    );
    r.metric(
        "core.concurrent.snapshot_rebuild_us",
        read_path.rebuild_us,
        "us",
        REBUILD_PROBES as u64,
    );
    r.metric(
        "core.view.build_us",
        read_path.view_us,
        "us",
        REBUILD_PROBES as u64,
    );
    r.metric(
        "core.concurrent.rebuilds_per_read",
        read_path.rebuilds_per_read,
        "count",
        read_path.reads,
    );
    r.metric(
        "core.merge.wire_parts_us",
        read_path.merge_us,
        "us",
        HEAVY_CALLS as u64,
    );
    r.metric(
        "service.add_batch.ns_per_value",
        ns_per_value(Rung::Service),
        "ns",
        samples,
    );
    r.metric(
        "service.add_batch.tax_ns_per_value",
        tax(Rung::Service, Rung::Concurrent),
        "ns",
        samples,
    );
    r.metric(
        "service.codec.encode_ns_per_value",
        ns_per_value(Rung::Encode),
        "ns",
        samples,
    );
    r.metric(
        "service.codec.decode_ns_per_value",
        ns_per_value(Rung::Decode),
        "ns",
        samples,
    );
    r.metric(
        "service.execute.ns_per_value",
        ns_per_value(Rung::Execute),
        "ns",
        samples,
    );
    r.metric(
        "service.execute.tax_ns_per_value",
        tax(Rung::Execute, Rung::Service),
        "ns",
        samples,
    );
    r.metric(
        "service.quantile_cached_ns",
        service.quantile_cached_ns,
        "ns",
        QUANTILE_BLOCKS as u64,
    );
    r.metric(
        "service.add_batch_small_us",
        service.add_small_us,
        "us",
        SMALL_WRITES as u64,
    );
    r.metric(
        "service.sketch_parts_us",
        service.sketch_parts_us,
        "us",
        HEAVY_CALLS as u64,
    );
    r.metric(
        "service.wal.fsyncs_per_append",
        service.fsyncs_per_append,
        "count",
        service.appends,
    );
    r.metric(
        "service.wal.fsync_us",
        service.fsync_us,
        "us",
        service.syncs,
    );
    r.metric(
        "evented.pipelined.ns_per_value",
        ns_per_value(Rung::Pipelined),
        "ns",
        samples,
    );
    r.metric(
        "evented.pipelined.tax_ns_per_value",
        tax(Rung::Pipelined, Rung::Execute),
        "ns",
        samples,
    );
    r.metric("evented.ping_rtt_us", ping_rtt_us, "us", PINGS as u64);
    r.metric(
        "evented.frames_per_wakeup_p50",
        frames_per_wakeup,
        "count",
        0,
    );
    r.metric(
        "cluster.router.tax_us",
        cluster.router_tax_us,
        "us",
        ROUTER_PAIRS as u64,
    );
    r.metric(
        "cluster.ship.tail_us_per_mb",
        cluster.tail_us_per_mb,
        "us",
        SHIP_REPLAYS as u64,
    );
    r.metric(
        "cluster.ship.apply_ns_per_value",
        cluster.apply_ns_per_value,
        "ns",
        SHIP_REPLAYS as u64,
    );
    r.metric(
        "loadgen.late_p99_us",
        loadgen.late_p99_us,
        "us",
        loadgen.sent,
    );
    r.metric("loadgen.sent_rate", loadgen.sent_rate, "1/s", loadgen.sent);
    r.metric(
        "loadgen.capacity_ops_per_s",
        loadgen.capacity,
        "1/s",
        loadgen.sent,
    );
    r.metric("trace.overhead_ratio", median(&overhead), "ratio", samples);

    // The ladder must account for the end-to-end ingest path. The
    // untraced rung is `ingest`'s bulk phase itself: the same frames sent
    // by the same `pipeline` into a fresh node, timed by wall clock as
    // `ingest` times `values_per_s`. The top rung's figure is instead the
    // sum of its `call_pipelined` spans. `trace.overhead_ratio` compares
    // the two wall times, so it is the cost of tracing; this ratio also
    // leaves out the loop between spans, so it checks that the rung's
    // spans cover the whole ingest path.
    let untraced_ns = median(&pipelined_untraced) / n;
    let accounted = ns_per_value(Rung::Pipelined) / untraced_ns;
    r.info("ingest.untraced_ns_per_value", untraced_ns, "ns", samples);
    r.info(
        "ladder.pipelined_over_untraced",
        accounted,
        "ratio",
        samples,
    );
    r.gate(
        "the pipelined rung accounts for untraced ingest within 15%",
        (0.85..=1.15).contains(&accounted),
        format!("{accounted:.3} of {untraced_ns:.1} ns/value"),
    );
    r.attempted = (LADDER_ROUNDS * Rung::ALL.len()) as u64 + loadgen.sent;
    r.failed = rung_errors + loadgen.failed;
    r.gate(
        "every ladder rung ingested every value without error",
        rung_errors == 0,
        format!("{rung_errors} errors over {LADDER_ROUNDS} rounds"),
    );
    r.gate(
        "every open-loop request was answered",
        loadgen.failed == 0,
        format!("{} failed of {}", loadgen.failed, loadgen.sent),
    );
    Ok(r)
}

/// Value of the first exposition sample whose series is `series`.
fn exposition_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
}

struct ReadPath {
    rebuild_us: f64,
    view_us: f64,
    rebuilds_per_read: f64,
    reads: u64,
    merge_us: f64,
}

/// Snapshot rebuild and view build on a `mixed`-sized tenant; rebuilds per
/// read while replaying `mixed`'s request sequence in process; the router's
/// merge of the `replicated` spread tenant's shards.
fn read_path_probes(p: &Params, tracer: &mut Tracer) -> Result<ReadPath, BenchError> {
    let inputs = MixedInputs::generate(p.seed, &p.sizes, MIXED_RATE, LOADGEN_SPAN);
    let tenants: Vec<ConcurrentReqSketch<OrdF64>> = (0..p.sizes.mixed_tenants)
        .map(|t| {
            let sketch = TenantConfig::for_key(&tenant_key(t)).build()?;
            for chunk in inputs.preload[t].chunks(FRAME_VALUES) {
                let chunk: Vec<OrdF64> = chunk.iter().map(|&v| OrdF64(v)).collect();
                sketch.update_batch(&chunk);
            }
            Ok(sketch)
        })
        .collect::<Result<_, BenchError>>()?;

    let hot = &tenants[0];
    let small: Vec<OrdF64> = inputs.preload[1][..16].iter().map(|&v| OrdF64(v)).collect();
    for _ in 0..REBUILD_PROBES {
        hot.update_batch(&small);
        let snap = tracer.span("core.ConcurrentReqSketch::cached_snapshot", || {
            hot.cached_snapshot()
        })?;
        tracer.span("core.ReqSketch::quantile(view build)", || {
            snap.quantile(0.99)
        });
    }

    let builds_before: u64 = tenants.iter().map(|t| t.snapshot_cache_stats().1).sum();
    let mut reads = 0u64;
    let replay = tracer.begin("core.mixed_replay");
    for op in &inputs.ops {
        let tenant = &tenants[op.tenant];
        match &op.req {
            Request::AddBatch { values, .. } => {
                let v: Vec<OrdF64> = values.iter().map(|&x| OrdF64(x)).collect();
                tenant.update_batch(&v);
            }
            Request::Quantile { q, .. } => {
                reads += 1;
                tenant.quantile(*q)?;
            }
            Request::Rank { value, .. } => {
                reads += 1;
                tenant.rank(&OrdF64(*value))?;
            }
            other => return Err(format!("unexpected mixed request {other:?}").into()),
        }
    }
    tracer.end(replay);
    let builds_after: u64 = tenants.iter().map(|t| t.snapshot_cache_stats().1).sum();

    // The spread tenant as two nodes hold it: values dealt round-robin.
    let spread: Vec<f64> = replicated_batches(p.seed, &p.sizes)
        .into_iter()
        .filter(|(dest, _)| *dest == Dest::Spread)
        .flat_map(|(_, v)| v)
        .collect();
    let mut parts = Vec::new();
    for node in 0..2 {
        let sketch = TenantConfig::for_key(SPREAD_KEY).build()?;
        let half: Vec<OrdF64> = spread
            .iter()
            .skip(node)
            .step_by(2)
            .map(|&v| OrdF64(v))
            .collect();
        for chunk in half.chunks(FRAME_VALUES / 2) {
            sketch.update_batch(chunk);
        }
        parts.extend(sketch.encode_shards());
    }
    for _ in 0..HEAVY_CALLS {
        let merged = tracer.span("core.merge_wire_parts", || {
            merge_wire_parts::<OrdF64, _>(&parts)
        })?;
        if merged.len() != spread.len() as u64 {
            return Err("merged spread sketch lost values".into());
        }
    }
    Ok(ReadPath {
        rebuild_us: median_us(tracer, "core.ConcurrentReqSketch::cached_snapshot"),
        view_us: median_us(tracer, "core.ReqSketch::quantile(view build)"),
        rebuilds_per_read: (builds_after - builds_before) as f64 / reads.max(1) as f64,
        reads,
        merge_us: median_us(tracer, "core.merge_wire_parts"),
    })
}

struct ServiceProbes {
    quantile_cached_ns: f64,
    add_small_us: f64,
    sketch_parts_us: f64,
    fsyncs_per_append: f64,
    fsync_us: f64,
    appends: u64,
    syncs: u64,
}

/// Single-call costs of the service API on a `mixed`-sized tenant, and the
/// durable mode's fsync cost under two writers.
fn service_probes(p: &Params, tracer: &mut Tracer) -> Result<ServiceProbes, BenchError> {
    let dir = TempDir::new("ladder-service-api")?;
    let service = QuantileService::open(ServiceConfig::new(dir.path()))?;
    let key = tenant_key(0);
    service.create(&key, TenantConfig::for_key(&key))?;
    let preload: Vec<OrdF64> = crate::rng::latency_values(p.seed, 7, p.sizes.mixed_preload)
        .into_iter()
        .map(OrdF64)
        .collect();
    for chunk in preload.chunks(FRAME_VALUES) {
        service.add_batch(&key, chunk)?;
    }
    service.quantile(&key, 0.99)?;
    let mut blocks = Vec::new();
    for _ in 0..QUANTILE_BLOCKS {
        let t = tracer.begin("service.QuantileService::quantile x1000");
        let start = Instant::now();
        for i in 0..BLOCK_CALLS {
            std::hint::black_box(service.quantile(&key, MIXED_READ_QS[i % 3])?);
        }
        blocks.push(start.elapsed().as_nanos() as f64 / BLOCK_CALLS as f64);
        tracer.end(t);
    }
    for chunk in preload.chunks(16).take(SMALL_WRITES) {
        tracer.span("service.QuantileService::add_batch(16)", || {
            service.add_batch(&key, chunk)
        })?;
    }
    for _ in 0..HEAVY_CALLS {
        tracer.span("service.QuantileService::sketch_parts", || {
            service.sketch_parts(&key)
        })?;
    }

    let dir = TempDir::new("ladder-fsync")?;
    let mut cfg = ServiceConfig::new(dir.path());
    cfg.fsync = true;
    let durable = QuantileService::open(cfg)?;
    durable.create(&key, TenantConfig::for_key(&key))?;
    let (appends0, syncs0) = (durable.wal_appends(), durable.wal_syncs());
    let span = tracer.begin("service.wal.fsync_two_writers");
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), BenchError> {
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let durable = &durable;
                let key = &key;
                let chunks: Vec<&[OrdF64]> = preload
                    .chunks(16)
                    .skip(w * FSYNC_APPENDS)
                    .take(FSYNC_APPENDS)
                    .collect();
                scope.spawn(move || -> Result<(), req_core::ReqError> {
                    for chunk in chunks {
                        durable.add_batch(key, chunk)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for w in writers {
            w.join().map_err(|_| "fsync writer panicked")??;
        }
        Ok(())
    })?;
    let wall_us = start.elapsed().as_nanos() as f64 / 1e3;
    tracer.end(span);
    let appends = durable.wal_appends() - appends0;
    let syncs = (durable.wal_syncs() - syncs0).max(1);
    Ok(ServiceProbes {
        quantile_cached_ns: median(&blocks),
        add_small_us: median_us(tracer, "service.QuantileService::add_batch(16)"),
        sketch_parts_us: median_us(tracer, "service.QuantileService::sketch_parts"),
        fsyncs_per_append: syncs as f64 / appends as f64,
        fsync_us: wall_us / syncs as f64,
        appends,
        syncs,
    })
}

/// Median `PING` round trip over the evented loop, µs.
fn ping_probe(tracer: &mut Tracer) -> Result<f64, BenchError> {
    let node = Node::start("ladder-ping")?;
    let mut client = node.client()?;
    for _ in 0..PINGS {
        tracer.span("evented.ReqBinClient::call(PING)", || client.ping())?;
    }
    Ok(median_us(tracer, "evented.ReqBinClient::call(PING)"))
}

struct ClusterProbes {
    router_tax_us: f64,
    tail_us_per_mb: f64,
    apply_ns_per_value: f64,
}

/// Router tax over a direct client on the same node, and the two halves
/// of WAL shipping (`tail` on the primary, `replicate_frames` on a
/// follower) over the `replicated` stream's WAL.
fn cluster_probes(p: &Params, tracer: &mut Tracer) -> Result<ClusterProbes, BenchError> {
    let batches = replicated_batches(p.seed, &p.sizes);
    let router_tax_us = {
        let mut cluster = Cluster::start(&["a", "b"], RetryPolicy::default())?;
        let router = cluster.router();
        let key = tenant_key(0);
        router.call(&create_request(&key))?.into_result()?;
        let addr = router
            .addr_of(router.node_for(&key))
            .ok_or("router has no address for its own node")?;
        let mut direct = ReqBinClient::connect_with(addr, RetryPolicy::default())?;
        for (i, (_, values)) in batches.iter().take(ROUTER_PAIRS).enumerate() {
            let req = Request::AddBatch {
                key: key.clone(),
                values: values.clone(),
                token: None,
            };
            // Alternate which side goes first so drift cancels.
            for side in [i % 2, 1 - i % 2] {
                let resp = if side == 0 {
                    tracer.span("cluster.Router::call", || router.call(&req))?
                } else {
                    tracer.span("evented.ReqBinClient::call(ADDB)", || direct.call(&req))?
                };
                resp.into_result()?;
            }
        }
        // Median of per-pair differences: each pair ran back to back.
        let diffs: Vec<f64> = tracer
            .durations("cluster.Router::call")
            .iter()
            .zip(tracer.durations("evented.ReqBinClient::call(ADDB)"))
            .map(|(&routed, direct)| (routed as f64 - direct as f64) / 1e3)
            .collect();
        median(&diffs)
    };

    let dir = TempDir::new("ladder-primary")?;
    let primary = QuantileService::open(ServiceConfig::new(dir.path()))?;
    let mut total_values = 0u64;
    for key in (0..=crate::inputs::REPLICATED_TENANTS).map(|i| match i {
        i if i < crate::inputs::REPLICATED_TENANTS => tenant_key(i),
        _ => SPREAD_KEY.to_string(),
    }) {
        primary.create(&key, TenantConfig::for_key(&key))?;
    }
    for (dest, values) in &batches {
        let key = match dest {
            Dest::Routed(i) => tenant_key(*i),
            Dest::Spread => SPREAD_KEY.to_string(),
        };
        let v: Vec<OrdF64> = values.iter().map(|&x| OrdF64(x)).collect();
        total_values += primary.add_batch(&key, &v)?;
    }
    let mut tail_rates = Vec::new();
    let mut apply_rates = Vec::new();
    for _ in 0..SHIP_REPLAYS {
        let dir = TempDir::new("ladder-follower")?;
        let follower = Arc::new(QuantileService::open(ServiceConfig::new(dir.path()))?);
        follower.set_follower(true);
        let (mut tail_ns, mut apply_ns, mut bytes) = (0u64, 0u64, 0usize);
        loop {
            let (gen, offset) = follower.wal_watermark();
            let t = Instant::now();
            let seg = tracer.span("service.QuantileService::tail", || {
                primary.tail(gen, offset, 1 << 20)
            })?;
            tail_ns += t.elapsed().as_nanos() as u64;
            if seg.frames.is_empty() {
                break;
            }
            bytes += seg.frames.len();
            let t = Instant::now();
            tracer.span("service.QuantileService::replicate_frames", || {
                follower.replicate_frames(&seg.frames)
            })?;
            apply_ns += t.elapsed().as_nanos() as u64;
        }
        let replicated: u64 = follower
            .list()
            .iter()
            .map(|k| follower.stats(k).map(|s| s.n))
            .sum::<Result<u64, _>>()?;
        if replicated != total_values {
            return Err(format!("follower holds {replicated} of {total_values} values").into());
        }
        tail_rates.push(tail_ns as f64 / 1e3 / (bytes as f64 / (1 << 20) as f64));
        apply_rates.push(apply_ns as f64 / total_values as f64);
    }
    Ok(ClusterProbes {
        router_tax_us,
        tail_us_per_mb: median(&tail_rates),
        apply_ns_per_value: median(&apply_rates),
    })
}

struct LoadgenProbes {
    late_p99_us: f64,
    sent_rate: f64,
    capacity: f64,
    sent: u64,
    failed: u64,
}

/// Closed-loop capacity of `mixed`'s request mix, and one open-loop
/// session at the frozen rate to show the generator keeps its schedule.
fn loadgen_probes(p: &Params, tracer: &mut Tracer) -> Result<LoadgenProbes, BenchError> {
    let inputs = MixedInputs::generate(p.seed, &p.sizes, MIXED_RATE, LOADGEN_SPAN);
    let capacity = {
        let node = Node::start("ladder-capacity")?;
        let mut client = node.client()?;
        for (i, preload) in inputs.preload.iter().enumerate() {
            let key = tenant_key(i);
            client.call(&create_request(&key))?.into_result()?;
            pipeline(
                &mut client,
                &addb_frames(&key, preload),
                &mut Tracer::disabled(),
            )?;
        }
        drop(client);
        let schedule = encode_schedule(&inputs.ops, req_service::client::fresh_client_id());
        let mut stream = node.connect()?;
        tracer.span("loadgen.openloop::closed_loop_rate", || {
            openloop::closed_loop_rate(&mut stream, &schedule)
        })?
    };
    let oracles: Vec<Oracle> = (0..p.sizes.mixed_tenants)
        .map(|t| Oracle::new(&inputs.final_values(t)))
        .collect();
    let session = mixed_session(&inputs, &oracles, tracer)?;
    let mut late: Vec<u64> = session.report.outcomes.iter().map(|o| o.late_ns).collect();
    late.sort_unstable();
    let failed = session
        .report
        .outcomes
        .iter()
        .filter(|o| matches!(o.response, Response::Err { .. }))
        .count() as u64;
    let sent = late.len() as u64;
    Ok(LoadgenProbes {
        late_p99_us: crate::stats::percentile(&late, 0.99) as f64 / 1e3,
        sent_rate: sent as f64 / session.report.elapsed.as_secs_f64(),
        capacity,
        sent,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_key_preserves_total_order() {
        let mut xs = vec![-1e300, -2.5, -0.0, 0.0, 1e-300, 1.0, 3.5, f64::INFINITY];
        xs.reverse();
        let mut by_key = xs.clone();
        by_key.sort_by_key(|&v| ordered_key(v));
        xs.sort_by(f64::total_cmp);
        assert_eq!(by_key, xs);
    }

    #[test]
    fn exposition_lookup() {
        let text = "# TYPE x summary\nx{quantile=\"0.5\"} 12\nx_count 3\n";
        assert_eq!(exposition_value(text, "x{quantile=\"0.5\"}"), Some(12.0));
        assert_eq!(exposition_value(text, "y"), None);
    }
}
