//! The observability acceptance check: drive e18-style load through the
//! full stack — durable primary with fsync + group commit behind the
//! evented binary server, a follower pulling the WAL tail over TCP —
//! then ask the *wire* (`METRICS`/`EVENTS`) what happened. The series
//! the PR exists to expose must all be live and nonzero:
//!
//! * `service_wal_group_commit_coalesce` — appends acknowledged per
//!   leader fsync (the group-commit win, previously only in BENCH prose);
//! * `evented_frames_per_wakeup` — pipelining width per readiness
//!   wake-up, previously invisible outside the loop;
//! * `cluster_shipper_shipped_records_total` / `_gens_behind` — the
//!   shipper lag counters PR 9 kept in-process only.

use req_cluster::TailShipper;
use req_evented::{serve_evented, ReqBinClient};
use req_service::tempdir::TempDir;
use req_service::{
    Accuracy, ClientApi, QuantileService, Request, Response, RetryPolicy, ServiceConfig,
    TenantConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_retries: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        seed: 11,
    }
}

fn tenant_config() -> TenantConfig {
    TenantConfig {
        accuracy: Accuracy::K(16),
        hra: true,
        schedule: req_core::CompactionSchedule::Standard,
        shards: 2,
        seed: 99,
    }
}

/// The value of series `name` in a rendered exposition (first sample
/// line wins; quantile-labelled lines don't match a bare name).
fn series(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().expect("sample value parses"))
    })
}

#[test]
fn metrics_and_events_are_live_over_the_wire_under_load() {
    let pdir = TempDir::new("tel-p").unwrap();
    let fdir = TempDir::new("tel-f").unwrap();
    let mut pcfg = ServiceConfig::new(pdir.path());
    // The coalesce series only exists where WAL fsyncs run.
    pcfg.fsync = true;
    let primary = Arc::new(QuantileService::open(pcfg).unwrap());
    let follower = Arc::new(QuantileService::open(ServiceConfig::new(fdir.path())).unwrap());
    follower.set_follower(true);

    let server = serve_evented(Arc::clone(&primary), "127.0.0.1:0", 1).unwrap();
    let shipper = TailShipper::start(
        Arc::clone(&follower),
        server.addr(),
        fast_policy(),
        Duration::from_millis(1),
    );

    // e18-style load: concurrent writers, batched ingest, one snapshot.
    // Concurrency is what makes one leader fsync cover several appends.
    let mut setup = ReqBinClient::connect_with(server.addr(), fast_policy()).unwrap();
    setup
        .call(&Request::Create {
            key: "tel.load".into(),
            config: tenant_config(),
            token: None,
        })
        .unwrap()
        .into_result()
        .unwrap();
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut client = ReqBinClient::connect_with(addr, fast_policy()).unwrap();
                for batch in 0..40 {
                    let values: Vec<f64> = (0..64)
                        .map(|i| (w * 10_000 + batch * 64 + i) as f64)
                        .collect();
                    client
                        .call(&Request::AddBatch {
                            key: "tel.load".into(),
                            values,
                            token: None,
                        })
                        .unwrap()
                        .into_result()
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    match setup.call(&Request::Snapshot).unwrap() {
        Response::Snapshot(generation) => assert!(generation > 0),
        other => panic!("unexpected SNAPSHOT reply: {other:?}"),
    }

    // Let the shipper apply what the primary logged: one WAL record per
    // mutation — 1 CREATE + 4 writers × 40 batches = 161.
    let deadline = Instant::now() + Duration::from_secs(10);
    while shipper.shipped_records() < 161 {
        assert!(
            Instant::now() < deadline,
            "shipper stuck at {} records",
            shipper.shipped_records()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let text = setup.metrics().unwrap();
    // WAL + group commit: every series live, coalesce nonzero.
    assert!(
        series(&text, "service_wal_group_commit_coalesce_count").unwrap() > 0.0,
        "no group-commit coalesce samples in:\n{text}"
    );
    assert!(series(&text, "service_wal_append_micros_count").unwrap() > 0.0);
    assert!(series(&text, "service_wal_fsync_micros_count").unwrap() > 0.0);
    // Evented loop: frames-per-wakeup live, accepts counted.
    assert!(
        series(&text, "evented_frames_per_wakeup_count").unwrap() > 0.0,
        "no frames-per-wakeup samples in:\n{text}"
    );
    assert!(series(&text, "evented_accepts_total").unwrap() >= 5.0);
    // Shipper lag plane: records shipped over the wire, gauge present.
    assert!(
        series(&text, "cluster_shipper_shipped_records_total").unwrap() >= 161.0,
        "shipper counter missing or low in:\n{text}"
    );
    assert!(series(&text, "cluster_shipper_gens_behind").is_some());

    // The journal saw the snapshot rotation and the follower transition.
    let events = setup.events(256).unwrap();
    assert!(
        events.iter().any(|e| e.contains("snapshot_rotated")),
        "no snapshot_rotated event in {events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("follower_entered")),
        "no follower_entered event in {events:?}"
    );

    shipper.stop();
    server.shutdown();
}
