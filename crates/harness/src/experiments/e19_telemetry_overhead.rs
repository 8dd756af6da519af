//! **E19 — telemetry overhead: the observability plane must be ~free.**
//!
//! PR 10 threads metric recording (atomic counters, gauges, ReqSketch-
//! backed latency histograms) through every hot path: WAL append/fsync,
//! group commit, the evented loop's wakeup drain, the shipper pump. This
//! experiment is the A/B proof that the instrumentation does not tax the
//! service: each workload runs as many back-to-back **pairs** of short
//! slices — one with the global registry recording (**on**), one frozen
//! (**off** — every site degrades to one relaxed atomic load) — and the
//! verdict is the median of the per-pair on/off ratios. Pairing is the
//! point: the two sides of a pair run milliseconds apart, so slow drift
//! (CPU frequency scaling, noisy neighbours on a shared box) hits both
//! sides alike and cancels in the ratio, where a coarse on-phase/
//! off-phase comparison swallows the drift whole.
//!
//! Workloads:
//!
//! * **`ingest`** — durable `add_batch` through the full service path
//!   (WAL append + apply), the most instrumented code in the tree;
//! * **`roundtrip`** — pipelined `ADDB` round trips through the evented
//!   binary server over real TCP, covering the loop's wakeup/frame
//!   telemetry on top of the service's.
//!
//! The verdict column is `overhead %` = (on − off) / off. BENCH.md
//! records the measured numbers; the acceptance bar is ≤ 3% on both
//! workloads (the scaled-down test in `tests/e19_overhead.rs`, alone in
//! its own binary, allows more headroom because CI machines are noisy).

use req_evented::{serve_evented, ReqBinClient};
use req_service::tempdir::TempDir;
use req_service::{
    Accuracy, ClientApi, QuantileService, Request, RetryPolicy, ServiceConfig, TenantConfig,
};
use std::sync::Arc;
use std::time::Instant;

use crate::table::Table;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Back-to-back on/off slice pairs per workload; the verdict is the
    /// median of the per-pair ratios.
    pub pairs: usize,
    /// `add_batch` calls per ingest slice.
    pub batches: usize,
    /// Values per batch.
    pub batch: usize,
    /// Wire round trips per roundtrip slice.
    pub roundtrips: usize,
    /// REQ section size for the tenants.
    pub k: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            pairs: 61,
            batches: 500,
            batch: 256,
            roundtrips: 4_000,
            k: 16,
        }
    }
}

fn tenant_config(k: u32) -> TenantConfig {
    TenantConfig {
        accuracy: Accuracy::K(k),
        hra: true,
        schedule: req_core::CompactionSchedule::Standard,
        shards: 2,
        seed: 7,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time `work` in back-to-back on/off slice pairs (side order flips per
/// pair), returning the median ns/op for (on, off) plus the median of
/// the per-pair on/off ratios. The ratio median is the verdict: the two
/// sides of a pair run milliseconds apart, so slow machine drift hits
/// both alike and cancels, where phase-level medians absorb it.
fn ab_pairs(pairs: usize, ops_per_slice: u64, mut work: impl FnMut()) -> (f64, f64, f64) {
    let registry = req_telemetry::global();
    let mut on = Vec::with_capacity(pairs);
    let mut off = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let mut ns = [0f64; 2]; // indexed by `enabled as usize`
        for &enabled in if pair % 2 == 0 {
            &[true, false]
        } else {
            &[false, true]
        } {
            registry.set_enabled(enabled);
            let start = Instant::now();
            work();
            ns[enabled as usize] = start.elapsed().as_nanos() as f64 / ops_per_slice as f64;
        }
        off.push(ns[0]);
        on.push(ns[1]);
        ratios.push(ns[1] / ns[0]);
    }
    registry.set_enabled(true);
    (median(on), median(off), median(ratios))
}

fn ingest_row(cfg: &Config) -> Vec<String> {
    let dir = TempDir::new("e19-ingest").expect("tempdir");
    let service = QuantileService::open(ServiceConfig::new(dir.path())).expect("open");
    service
        .create("e19.ingest", tenant_config(cfg.k))
        .expect("create");
    let values: Vec<req_core::OrdF64> = (0..cfg.batch)
        .map(|i| req_core::OrdF64((i as f64 * 1.618) % 10_000.0))
        .collect();
    let ops = (cfg.batches * cfg.batch) as u64;
    let (on, off, ratio) = ab_pairs(cfg.pairs, ops, || {
        for _ in 0..cfg.batches {
            service.add_batch("e19.ingest", &values).expect("ingest");
        }
    });
    row("ingest", ops, on, off, ratio)
}

fn roundtrip_row(cfg: &Config) -> Vec<String> {
    let dir = TempDir::new("e19-wire").expect("tempdir");
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).expect("open"));
    let server = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).expect("serve");
    let mut client =
        ReqBinClient::connect_with(server.addr(), RetryPolicy::default()).expect("connect");
    client
        .call(&Request::Create {
            key: "e19.wire".into(),
            config: tenant_config(cfg.k),
            token: None,
        })
        .expect("create")
        .into_result()
        .expect("create ok");
    let req = Request::AddBatch {
        key: "e19.wire".into(),
        values: (0..16).map(|i| i as f64).collect(),
        token: None,
    };
    let ops = cfg.roundtrips as u64;
    let (on, off, ratio) = ab_pairs(cfg.pairs, ops, || {
        for _ in 0..cfg.roundtrips {
            client
                .call(&req)
                .expect("roundtrip")
                .into_result()
                .expect("roundtrip ok");
        }
    });
    let cells = row("roundtrip", ops, on, off, ratio);
    server.shutdown();
    cells
}

fn row(workload: &str, ops: u64, on: f64, off: f64, ratio: f64) -> Vec<String> {
    vec![
        workload.to_string(),
        ops.to_string(),
        format!("{off:.0}"),
        format!("{on:.0}"),
        format!("{:+.2}", (ratio - 1.0) * 100.0),
    ]
}

/// Run E19. One row per workload.
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E19 telemetry overhead: {} back-to-back on/off slice pairs per workload \
             ({} × {}-value batches ingested per slice; {} wire round trips per slice), \
             verdict = median per-pair ratio",
            cfg.pairs, cfg.batches, cfg.batch, cfg.roundtrips
        ),
        &[
            "workload",
            "ops/slice",
            "ns/op off",
            "ns/op on",
            "overhead %",
        ],
    );
    t.row(ingest_row(cfg));
    t.row(roundtrip_row(cfg));
    t.note(
        "`off` freezes the global registry (every instrumentation site degrades to one \
         relaxed atomic load and an early return); `on` records counters, gauges, and \
         ReqSketch-backed latency histograms on every WAL append, fsync, evented wakeup, \
         and frame. `overhead %` = (median per-pair on/off ratio − 1); the acceptance \
         bar is ≤ 3% (BENCH.md records the measured runs).",
    );
    vec![t]
}
