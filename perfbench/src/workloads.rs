//! The three end-to-end workloads, each against the real stack in
//! process: services on their own data directories, evented servers on
//! real TCP sockets, and the benchmark as the only client.
//!
//! Flush policy and load budget, every workload: `ServiceConfig::new`
//! defaults (`fsync` off — each WAL record is flushed to the OS — group
//! commit on); tenants with `TenantConfig::for_key` defaults (k=32, HRA,
//! adaptive schedule, 4 shards); one generator thread holding one
//! connection per server it talks to; one event loop per server.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use req_cluster::Cluster;
use req_core::{QuantileSketch, ReqError};
use req_evented::{serve_evented, EventedHandle, ReqBinClient};
use req_service::client::fresh_client_id;
use req_service::service::accuracy_epsilon;
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, QuantileService, Request, Response, RetryPolicy, ServiceConfig, TenantConfig,
    TenantStats,
};

use crate::inputs::{
    addb_frames, encode_schedule, replicated_batches, tenant_key, Dest, MixedInputs, Sizes,
    FRAME_VALUES, INGEST_KEY, MIXED_READ_QS, MIXED_WRITE_VALUES, REPLICATED_TENANTS, SPREAD_KEY,
    WINDOW_FRAMES,
};
use crate::openloop;
use crate::report::RunResult;
use crate::stats::{central_mean, grouped_percentile_us, Latencies, Oracle};
use crate::trace::Tracer;

/// Error type of a run that could not complete.
pub type BenchError = Box<dyn std::error::Error>;

/// Requests per second `mixed` offers, frozen. On a 2-vCPU x86-64 VM the
/// closed-loop capacity of its request mix was 15,000–24,000 req/s
/// (`loadgen.capacity_ops_per_s` in the traced run), and open-loop latency
/// climbed steeply from about 12,000 req/s; this is half that knee.
pub const MIXED_RATE: f64 = 6_000.0;
/// `mixed` runs its set-up and schedule this many times per run.
pub const MIXED_SESSIONS: usize = 3;
/// `ingest` and `replicated` run at least this many rounds, whatever the
/// time budget.
pub const MIN_ROUNDS: usize = 3;
/// Write-then-read pairs of the read phase after each `ingest` bulk load:
/// one 1,000-value `ADDB` frame, then one read. Each request is sent on
/// its own and timed alone; every read pays the snapshot rebuild that a
/// read right after a write pays. The write is a full frame, not a small
/// one, because the round trip of a small request is mostly the host
/// waking an idle vCPU, which on a shared 2-vCPU VM doubled between runs.
pub const INGEST_READS: usize = 128;
/// Scatter/gather reads after each `replicated` round.
pub const REPLICATED_MERGES: usize = 200;
/// Longest a standby may take to catch up before the run fails.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measuring time budget, seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Params {
    /// Full-size parameters for `seed` and `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Params {
        Params {
            seed,
            seconds,
            sizes: Sizes::FULL,
        }
    }
}

/// One service behind its own evented server on a fresh data directory.
pub struct Node {
    /// The service.
    pub service: Arc<QuantileService>,
    server: EventedHandle,
    // Dropped after the server, so the loop is gone before the directory.
    _dir: TempDir,
}

impl Node {
    /// Open a service with `ServiceConfig::new` defaults and serve it on
    /// one event loop.
    pub fn start(tag: &str) -> Result<Node, ReqError> {
        let dir = TempDir::new(tag)?;
        let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path()))?);
        let server = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1)?;
        Ok(Node {
            service,
            server,
            _dir: dir,
        })
    }

    /// A binary client on a new connection.
    pub fn client(&self) -> Result<ReqBinClient, ReqError> {
        ReqBinClient::connect_with(self.server.addr(), RetryPolicy::default())
    }

    /// A raw socket to the server.
    pub fn connect(&self) -> Result<TcpStream, ReqError> {
        let stream = TcpStream::connect(self.server.addr())?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }
}

/// `CREATE key` with server defaults.
pub fn create_request(key: &str) -> Request {
    Request::Create {
        key: key.to_string(),
        config: TenantConfig::for_key(key),
        token: None,
    }
}

fn expect(resp: Response, what: &str) -> Result<Response, ReqError> {
    match resp {
        Response::Err { kind, msg } => Err(kind.into_error(format!("{what}: {msg}"))),
        ok => Ok(ok),
    }
}

/// Send `frames` through `client` in pipelined windows; returns
/// `(values acknowledged, failed frames)`.
pub fn pipeline(
    client: &mut ReqBinClient,
    frames: &[Request],
    tracer: &mut Tracer,
) -> Result<(u64, u64), ReqError> {
    let mut acked = 0;
    let mut failed = 0;
    for window in frames.chunks(WINDOW_FRAMES) {
        let replies = tracer.span("evented.ReqBinClient::call_pipelined", || {
            client.call_pipelined(window)
        })?;
        for reply in replies {
            match reply {
                Response::AddedBatch(n) => acked += n,
                _ => failed += 1,
            }
        }
    }
    Ok((acked, failed))
}

/// Read requests that cycle over the `mixed` quantiles and `RANK` at the
/// oracle's probes.
fn read_cycle(key: &str, probes: &[f64], n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| match i % 4 {
            j if j < MIXED_READ_QS.len() => Request::Quantile {
                key: key.to_string(),
                q: MIXED_READ_QS[j],
            },
            _ => Request::Rank {
                key: key.to_string(),
                value: probes[(i / 4) % probes.len()],
            },
        })
        .collect()
}

/// Is `resp` a well-formed answer to read `req` on a tenant of `n` values?
fn read_ok(req: &Request, resp: &Response, n: u64) -> bool {
    match (req, resp) {
        (Request::Quantile { .. }, Response::Quantile(Some(v))) => v.is_finite(),
        (Request::Rank { .. }, Response::Rank(r)) => *r <= n,
        _ => false,
    }
}

/// Worst relative rank error of `key` at the oracle's probes, asked over
/// `client`.
fn rank_error(client: &mut impl ClientApi, key: &str, oracle: &Oracle) -> Result<f64, ReqError> {
    let mut worst = 0.0f64;
    for y in oracle.probes() {
        worst = worst.max(oracle.relative_error(y, client.rank(key, y)?));
    }
    Ok(worst)
}

/// The deterministic outputs of one round, compared across rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct State {
    acked: u64,
    n: u64,
    retained: u64,
    bytes: u64,
    wal_bytes: u64,
    rank_err_max: f64,
}

impl State {
    fn add(&mut self, stats: &TenantStats) {
        self.n += stats.n;
        self.retained += stats.retained;
        self.bytes += stats.bytes;
    }
}

/// Shared end of every workload: the accuracy and space figures, and the
/// gates that every round acknowledged and held every value, met the
/// tenant's ε, and ended in the same state.
fn finish_state(r: &mut RunResult, states: &[State], expected_n: u64) {
    let first = states[0];
    let eps = accuracy_epsilon(&TenantConfig::for_key(INGEST_KEY));
    r.info("rank_err_max", first.rank_err_max, "ratio", 0);
    r.info("retained_items", first.retained as f64, "count", 0);
    r.info("state_bytes", first.bytes as f64, "bytes", 0);
    r.info(
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        r.attempted,
    );
    r.gate(
        "values acknowledged equal values sent",
        states.iter().all(|s| s.acked == expected_n),
        format!(
            "expected {expected_n}, rounds saw {:?}",
            uniq(states.iter().map(|s| s.acked))
        ),
    );
    r.gate(
        "STATS n matches values sent",
        states.iter().all(|s| s.n == expected_n),
        format!(
            "expected {expected_n}, rounds saw {:?}",
            uniq(states.iter().map(|s| s.n))
        ),
    );
    r.gate(
        "rank_err_max within accuracy_epsilon",
        first.rank_err_max <= eps,
        format!("{} <= {eps}", first.rank_err_max),
    );
    r.gate(
        "every round ends in the same state",
        states.iter().all(|s| *s == first),
        format!("{} rounds, {expected_n} values each", states.len()),
    );
}

fn uniq(xs: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = xs.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// `ingest`: closed-loop bulk ingest of one durable tenant over the
/// evented loop, `ADDB` frames of 1,000 values pipelined 64 at a time;
/// then a read phase of single requests, each read right after a small
/// write. Repeated in fresh services until the time budget is spent.
pub fn ingest(p: &Params, tracer: &mut Tracer) -> Result<RunResult, BenchError> {
    let values = crate::inputs::ingest_values(p.seed, &p.sizes);
    let frames = addb_frames(INGEST_KEY, &values);
    let top_up = crate::inputs::ingest_top_up(p.seed, INGEST_READS * FRAME_VALUES);
    let read_phase: Vec<(Request, Request)> = top_up
        .chunks(FRAME_VALUES)
        .zip(read_cycle(
            INGEST_KEY,
            &Oracle::new(&values).probes(),
            INGEST_READS,
        ))
        .map(|(chunk, read)| (addb_frames(INGEST_KEY, chunk).remove(0), read))
        .collect();
    let total = (values.len() + top_up.len()) as u64;
    let oracle = Oracle::new(&[values.as_slice(), &top_up].concat());
    let mut r = RunResult::default();
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut writes = Vec::new();
    let mut read_lat = Vec::new();
    let mut states = Vec::new();
    let start = Instant::now();
    while states.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let round = tracer.begin("workload.ingest.round");
        let t = Instant::now();
        let node = Node::start("ingest")?;
        let mut client = node.client()?;
        expect(client.call(&create_request(INGEST_KEY))?, "CREATE")?;
        let wal0 = node.service.wal_watermark().1;
        setup.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let (mut acked, failed) = pipeline(&mut client, &frames, tracer)?;
        rates.push(acked as f64 / t.elapsed().as_secs_f64());
        let wal_bytes = node.service.wal_watermark().1 - wal0;
        r.attempted += frames.len() as u64;
        r.failed += failed;

        let mut round_writes = Latencies::default();
        let mut round_reads = Latencies::default();
        for (write, read) in &read_phase {
            r.attempted += 2;
            let t = Instant::now();
            let resp = tracer.span("evented.ReqBinClient::call(ADDB)", || client.call(write))?;
            round_writes.push(t.elapsed().as_nanos() as u64);
            match resp {
                Response::AddedBatch(n) if n == FRAME_VALUES as u64 => acked += n,
                _ => r.failed += 1,
            }
            let t = Instant::now();
            let resp = tracer.span("evented.ReqBinClient::call(read)", || client.call(read))?;
            round_reads.push(t.elapsed().as_nanos() as u64);
            if !read_ok(read, &resp, total) {
                r.failed += 1;
            }
        }
        writes.push(round_writes);
        read_lat.push(round_reads);

        let mut state = State {
            acked,
            wal_bytes,
            rank_err_max: rank_error(&mut client, INGEST_KEY, &oracle)?,
            ..State::default()
        };
        state.add(&client.stats(INGEST_KEY)?);
        states.push(state);
        tracer.end(round);
    }
    r.metric("setup_s", central_mean(&setup), "s", setup.len() as u64);
    r.metric(
        "values_per_s",
        central_mean(&rates),
        "1/s",
        rates.len() as u64,
    );
    push_latencies(&mut r, "write", &writes);
    push_latencies(&mut r, "read", &read_lat);
    r.info(
        "wal_bytes_per_value",
        states[0].wal_bytes as f64 / values.len() as f64,
        "bytes",
        0,
    );
    r.info("rounds", states.len() as f64, "count", 0);
    finish_state(&mut r, &states, total);
    Ok(r)
}

/// `<kind>_p50_us` (gated) and `<kind>_p99_us` (table only), each the
/// central mean over groups of samples (rounds, or one-second windows) of the
/// group's percentile. The p99s stay out of the JSON line: on a small
/// shared host they moved by more than any useful bound between runs.
fn push_latencies(r: &mut RunResult, kind: &str, groups: &[Latencies]) {
    let n = groups.iter().map(Latencies::len).sum::<usize>() as u64;
    let pct = |q| grouped_percentile_us(groups, q).unwrap_or(f64::NAN);
    r.metric(&format!("{kind}_p50_us"), pct(0.50), "us", n);
    r.info(&format!("{kind}_p99_us"), pct(0.99), "us", n);
}

/// One `mixed` session: fresh service, 64 preloaded tenants, then the
/// open-loop schedule over one connection.
pub struct MixedSession {
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Generator report.
    pub report: openloop::Report,
    /// End state.
    state: State,
}

/// Run one `mixed` session.
pub fn mixed_session(
    inputs: &MixedInputs,
    oracles: &[Oracle],
    tracer: &mut Tracer,
) -> Result<MixedSession, BenchError> {
    let schedule = encode_schedule(&inputs.ops, fresh_client_id());
    let t = Instant::now();
    let node = Node::start("mixed")?;
    {
        let mut client = node.client()?;
        for (i, preload) in inputs.preload.iter().enumerate() {
            let key = tenant_key(i);
            expect(client.call(&create_request(&key))?, "CREATE")?;
            let (acked, failed) = pipeline(&mut client, &addb_frames(&key, preload), tracer)?;
            if acked != preload.len() as u64 || failed > 0 {
                return Err(format!("preload of {key}: {acked} acked, {failed} failed").into());
            }
        }
    }
    let mut stream = node.connect()?;
    let setup_s = t.elapsed().as_secs_f64();

    let report = tracer.span("loadgen.openloop::run", || {
        openloop::run(&mut stream, &schedule)
    })?;
    drop(stream);

    let mut client = node.client()?;
    let mut state = State::default();
    for (i, oracle) in oracles.iter().enumerate() {
        let key = tenant_key(i);
        state.add(&client.stats(&key)?);
        state.rank_err_max = state
            .rank_err_max
            .max(rank_error(&mut client, &key, oracle)?);
    }
    Ok(MixedSession {
        setup_s,
        report,
        state,
    })
}

/// `mixed`: open-loop Poisson arrivals at a fixed rate over 64 preloaded
/// tenants, 90% reads and 10% small writes, each timed from its intended
/// send time. Runs [`MIXED_SESSIONS`] sessions of `seconds / sessions`.
pub fn mixed(p: &Params, tracer: &mut Tracer) -> Result<RunResult, BenchError> {
    let span = Duration::from_secs_f64((p.seconds / MIXED_SESSIONS as f64).max(0.2));
    let inputs = MixedInputs::generate(p.seed, &p.sizes, MIXED_RATE, span);
    let oracles: Vec<Oracle> = (0..p.sizes.mixed_tenants)
        .map(|t| Oracle::new(&inputs.final_values(t)))
        .collect();
    let expected_n: u64 = oracles.iter().map(Oracle::n).sum();
    let mut r = RunResult::default();
    let mut setup = Vec::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut late = Latencies::default();
    let preloaded: u64 = inputs.preload.iter().map(|v| v.len() as u64).sum();
    let mut write_values = 0u64;
    let mut elapsed = 0.0;
    let mut states = Vec::new();
    for _ in 0..MIXED_SESSIONS {
        let mut s = mixed_session(&inputs, &oracles, tracer)?;
        setup.push(s.setup_s);
        elapsed += s.report.elapsed.as_secs_f64();
        // One group of samples per second of the schedule.
        let windows = span.as_secs() as usize + 1;
        let mut session_reads = vec![Latencies::default(); windows];
        let mut session_writes = vec![Latencies::default(); windows];
        let mut session_values = 0;
        for (op, out) in inputs.ops.iter().zip(&s.report.outcomes) {
            r.attempted += 1;
            late.push(out.late_ns);
            let n = oracles[op.tenant].n();
            let w = op.due.as_secs() as usize;
            if op.is_write() {
                session_writes[w].push(out.latency_ns);
                match out.response {
                    Response::AddedBatch(k) if k == MIXED_WRITE_VALUES as u64 => {
                        session_values += k
                    }
                    _ => r.failed += 1,
                }
            } else {
                session_reads[w].push(out.latency_ns);
                if !read_ok(&op.req, &out.response, n) {
                    r.failed += 1;
                }
            }
        }
        reads.extend(session_reads);
        writes.extend(session_writes);
        write_values += session_values;
        s.state.acked = preloaded + session_values;
        states.push(s.state);
    }
    r.metric("setup_s", central_mean(&setup), "s", setup.len() as u64);
    r.metric(
        "values_per_s",
        write_values as f64 / elapsed,
        "1/s",
        write_values,
    );
    push_latencies(&mut r, "write", &writes);
    push_latencies(&mut r, "read", &reads);
    r.info(
        "loadgen.late_p99_us",
        late.percentile_us(0.99),
        "us",
        late.len() as u64,
    );
    r.info(
        "loadgen.sent_rate",
        late.len() as f64 / elapsed,
        "1/s",
        late.len() as u64,
    );
    r.info("offered_rate", MIXED_RATE, "1/s", 0);
    finish_state(&mut r, &states, expected_n);
    Ok(r)
}

/// `replicated`: two primaries with warm standbys behind a router. Bulk
/// `ADDB`s over 8 routed tenants plus a spread tenant, timed until both
/// standbys have caught up; then a closed loop of scatter/gather merged
/// quantiles. Repeated on fresh clusters until the time budget is spent.
pub fn replicated(p: &Params, tracer: &mut Tracer) -> Result<RunResult, BenchError> {
    let batches = replicated_batches(p.seed, &p.sizes);
    let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); REPLICATED_TENANTS + 1];
    for (dest, values) in &batches {
        let slot = match dest {
            Dest::Routed(i) => *i,
            Dest::Spread => REPLICATED_TENANTS,
        };
        per_tenant[slot].extend_from_slice(values);
    }
    let oracles: Vec<Oracle> = per_tenant.iter().map(|v| Oracle::new(v)).collect();
    let total: u64 = oracles.iter().map(Oracle::n).sum();
    let mut r = RunResult::default();
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut writes = Vec::new();
    let mut merges = Vec::new();
    let mut states = Vec::new();
    let mut lagging = Vec::new();
    let mut short_spread = Vec::new();
    let start = Instant::now();
    while states.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let round = tracer.begin("workload.replicated.round");
        let t = Instant::now();
        let mut cluster = Cluster::start(&["a", "b"], RetryPolicy::default())?;
        let router = cluster.router();
        for i in 0..REPLICATED_TENANTS {
            expect(router.call(&create_request(&tenant_key(i)))?, "CREATE")?;
        }
        router.create_spread(SPREAD_KEY, TenantConfig::for_key(SPREAD_KEY))?;
        setup.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut acked = 0u64;
        let mut round_writes = Latencies::default();
        for (dest, values) in &batches {
            r.attempted += 1;
            match dest {
                Dest::Routed(i) => {
                    let req = Request::AddBatch {
                        key: tenant_key(*i),
                        values: values.clone(),
                        token: None,
                    };
                    let tw = Instant::now();
                    let resp = tracer.span("cluster.Router::call", || router.call(&req))?;
                    round_writes.push(tw.elapsed().as_nanos() as u64);
                    match resp {
                        Response::AddedBatch(n) => acked += n,
                        _ => r.failed += 1,
                    }
                }
                Dest::Spread => {
                    match tracer.span("cluster.Router::spread_add_batch", || {
                        router.spread_add_batch(SPREAD_KEY, values)
                    }) {
                        Ok(n) => acked += n,
                        Err(_) => r.failed += 1,
                    }
                }
            }
        }
        tracer.span("cluster.Cluster::drain", || {
            cluster
                .drain("a", DRAIN_TIMEOUT)
                .and_then(|()| cluster.drain("b", DRAIN_TIMEOUT))
        })?;
        rates.push(acked as f64 / t.elapsed().as_secs_f64());
        writes.push(round_writes);

        let router = cluster.router();
        let mut round_merges = Latencies::default();
        for i in 0..REPLICATED_MERGES {
            r.attempted += 1;
            let q = MIXED_READ_QS[i % MIXED_READ_QS.len()];
            let t = Instant::now();
            let answer = tracer.span("cluster.Router::merged_quantile", || {
                router.merged_quantile(SPREAD_KEY, q)
            });
            round_merges.push(t.elapsed().as_nanos() as u64);
            if !matches!(answer, Ok(Some(v)) if v.is_finite()) {
                r.failed += 1;
            }
        }
        merges.push(round_merges);

        let mut state = State {
            acked,
            ..State::default()
        };
        for (i, oracle) in oracles.iter().take(REPLICATED_TENANTS).enumerate() {
            let key = tenant_key(i);
            state.add(&router.stats(&key)?);
            state.rank_err_max = state.rank_err_max.max(rank_error(router, &key, oracle)?);
        }
        let spread = router.merged_sketch(SPREAD_KEY)?;
        let spread_oracle = &oracles[REPLICATED_TENANTS];
        for y in spread_oracle.probes() {
            let err = spread_oracle.relative_error(y, spread.rank_f64(y));
            state.rank_err_max = state.rank_err_max.max(err);
        }
        for name in ["a", "b"] {
            let primary = cluster.primary_service(name)?;
            let standby = cluster.standby_service(name)?;
            for key in primary.list() {
                let stats = primary.stats(&key)?;
                if key == SPREAD_KEY {
                    state.add(&stats);
                }
                if standby.stats(&key)?.n != stats.n {
                    lagging.push(format!("round {} {name}/{key}", states.len()));
                }
            }
        }
        if spread.len() != spread_oracle.n() {
            short_spread.push(spread.len());
        }
        states.push(state);
        drop(cluster);
        tracer.end(round);
    }
    r.metric("setup_s", central_mean(&setup), "s", setup.len() as u64);
    r.metric(
        "values_per_s",
        central_mean(&rates),
        "1/s",
        rates.len() as u64,
    );
    push_latencies(&mut r, "write", &writes);
    push_latencies(&mut r, "read", &merges);
    // `merge_*` name the same scatter/gather reads `read_*` report here.
    let merge_n = merges.iter().map(Latencies::len).sum::<usize>() as u64;
    for (q, name) in [(0.50, "merge_p50_us"), (0.99, "merge_p99_us")] {
        let v = grouped_percentile_us(&merges, q).unwrap_or(f64::NAN);
        r.info(name, v, "us", merge_n);
    }
    r.info("rounds", states.len() as f64, "count", 0);
    r.gate(
        "standbys hold every acknowledged value",
        lagging.is_empty(),
        format!("lagging: {lagging:?}"),
    );
    r.gate(
        "merged spread tenant holds every spread value",
        short_spread.is_empty(),
        format!("short merges: {short_spread:?}"),
    );
    finish_state(&mut r, &states, total);
    Ok(r)
}
