//! Replication over the real wire: byte-identity, rotation mirroring,
//! chaos on the replication socket, and the kill/promote failover plane.
//!
//! These tests run the full stack — evented binary server over TCP,
//! [`TailShipper`] pulling `TAIL` segments, `replicate_frames` replaying
//! them — and then reach *around* the wire to both data directories to
//! assert the invariant that defines this replication design: the
//! follower's durable state is **byte-identical** to the primary's at
//! every shipped watermark. Not "equivalent", not "close": the same WAL
//! bytes, the same snapshot bytes, the same serialized sketch state.

use req_cluster::{Cluster, TailShipper};
use req_core::QuantileSketch;
use req_evented::{serve_evented, serve_evented_with, EventedOptions};
use req_service::snapshot::{snapshot_path, wal_path};
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, FaultKind, FaultPlane, FaultSite, QuantileService, Request, Response, RetryPolicy,
    ServiceConfig, TenantConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open(dir: &std::path::Path) -> Arc<QuantileService> {
    Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap())
}

/// A client retry policy tuned for tests: fail fast, retry hard.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_retries: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        seed: 7,
    }
}

fn wait_caught_up(primary: &QuantileService, follower: &QuantileService, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    // Byte watermark AND applied-record count: the follower appends a
    // frame before applying it, so the byte watermark alone can match
    // while the last apply is still in flight on the shipper thread.
    while primary.wal_watermark() != follower.wal_watermark()
        || primary.records_in_generation() != follower.records_in_generation()
    {
        assert!(
            Instant::now() < deadline,
            "follower stuck at {:?}, primary at {:?}",
            follower.wal_watermark(),
            primary.wal_watermark()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn values(range: std::ops::Range<u64>) -> Vec<req_core::OrdF64> {
    range.map(|i| req_core::OrdF64(i as f64)).collect()
}

/// WAL-tail shipping over TCP reaches byte-identical durable state at
/// every shipped watermark, including across a primary snapshot
/// rotation (the follower mirrors the generation seal at the same
/// record index, so even the deterministic checkpoint shard-swap lines
/// up).
#[test]
fn wire_replication_is_byte_identical_across_rotation() {
    let pdir = TempDir::new("rep-p").unwrap();
    let fdir = TempDir::new("rep-f").unwrap();
    let primary = open(pdir.path());
    let follower = open(fdir.path());
    follower.set_follower(true);
    let server = serve_evented(Arc::clone(&primary), "127.0.0.1:0", 1).unwrap();
    let shipper = TailShipper::start(
        Arc::clone(&follower),
        server.addr(),
        fast_policy(),
        Duration::from_millis(1),
    );

    primary
        .create(
            "t",
            TenantConfig::parse("t", &["K=16", "SHARDS=2"]).unwrap(),
        )
        .unwrap();
    for step in 0..6u64 {
        primary
            .add_batch("t", &values(step * 1_500..(step + 1) * 1_500))
            .unwrap();
        if step == 2 {
            // Mid-stream rotation: snapshot + WAL generation seal.
            assert_eq!(primary.snapshot_now().unwrap(), 1);
        }
        wait_caught_up(&primary, &follower, Duration::from_secs(20));
        assert_eq!(
            follower.sketch_parts("t").unwrap(),
            primary.sketch_parts("t").unwrap(),
            "serialized sketch state diverged at step {step}"
        );
    }
    assert_eq!(shipper.lag(), (0, 0), "caught-up shipper must report so");
    shipper.stop();

    // Durable artifacts: every WAL generation and the snapshot are the
    // same bytes on both sides.
    for generation in 0..=1u64 {
        assert_eq!(
            std::fs::read(wal_path(pdir.path(), generation)).unwrap(),
            std::fs::read(wal_path(fdir.path(), generation)).unwrap(),
            "WAL generation {generation} diverged"
        );
    }
    assert_eq!(
        std::fs::read(snapshot_path(pdir.path(), 1)).unwrap(),
        std::fs::read(snapshot_path(fdir.path(), 1)).unwrap(),
        "snapshot bytes diverged"
    );

    // The follower restarts from its replicated directory like any
    // primary would — recovery accepts the shipped state wholesale.
    drop(follower);
    let reopened = open(fdir.path());
    assert_eq!(reopened.stats("t").unwrap().n, 9_000);
    assert_eq!(
        reopened.rank("t", 4_500.0).unwrap(),
        primary.rank("t", 4_500.0).unwrap()
    );
    server.shutdown();
}

/// Chaos on the replication socket: torn writes, dropped connections,
/// stalls, and injected latency between primary and follower. The
/// follower may fall behind (and must say so honestly via lag/error
/// counters), but it never applies garbage — every slice is validated
/// frame-by-frame before touching the WAL — and once the plane disarms
/// it converges to byte-identical state.
#[test]
fn chaos_on_replication_socket_converges_or_reports_lag() {
    let pdir = TempDir::new("chaos-p").unwrap();
    let fdir = TempDir::new("chaos-f").unwrap();
    let primary = open(pdir.path());
    let follower = open(fdir.path());
    follower.set_follower(true);
    let plane = Arc::new(
        FaultPlane::new(0xE18)
            .with(FaultSite::SockWrite, FaultKind::Torn, 1, 4)
            .with(FaultSite::SockRead, FaultKind::Error, 1, 7)
            .with(FaultSite::SockRead, FaultKind::Stall, 1, 5)
            .with(FaultSite::SockWrite, FaultKind::Delay(1), 1, 3),
    );
    let server = serve_evented_with(
        Arc::clone(&primary),
        "127.0.0.1:0",
        EventedOptions {
            loops: 1,
            faults: Some(Arc::clone(&plane)),
            ..EventedOptions::default()
        },
    )
    .unwrap();
    let shipper = TailShipper::start(
        Arc::clone(&follower),
        server.addr(),
        fast_policy(),
        Duration::from_millis(1),
    );

    primary.create("t", TenantConfig::for_key("t")).unwrap();
    for step in 0..10u64 {
        primary
            .add_batch("t", &values(step * 500..(step + 1) * 500))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // Mid-chaos honesty check: whatever prefix the follower has
        // applied is internally consistent — its count is a whole number
        // of replicated batches, and a rank probe agrees with it.
        let n = follower.stats("t").map(|s| s.n).unwrap_or(0);
        assert!(n <= (step + 1) * 500, "follower invented data: {n}");
        assert_eq!(n % 500, 0, "follower applied a partial batch: {n}");
        if n > 0 {
            // The shipper may land another batch between the two reads,
            // so the probe is monotone-consistent, not frozen-equal.
            let probed = follower.rank("t", f64::INFINITY).unwrap();
            assert!(
                probed >= n && probed.is_multiple_of(500),
                "rank {probed} vs n {n}"
            );
        }
    }
    assert!(plane.injected() > 0, "chaos plane never fired");

    // Disarm and let replication drain.
    plane.set_armed(false);
    wait_caught_up(&primary, &follower, Duration::from_secs(30));
    shipper.stop();
    assert_eq!(
        follower.sketch_parts("t").unwrap(),
        primary.sketch_parts("t").unwrap()
    );
    assert_eq!(
        std::fs::read(wal_path(pdir.path(), 0)).unwrap(),
        std::fs::read(wal_path(fdir.path(), 0)).unwrap()
    );
    server.shutdown();
}

/// Kill-the-primary failover through the router: drain, kill, promote,
/// then re-send the stamped in-flight mutation — it must apply exactly
/// once (the standby replicated the primary's dedup windows), and the
/// promoted node must answer queries for its keys.
#[test]
fn failover_promotes_standby_and_retries_are_exactly_once() {
    let mut cluster = Cluster::start(&["a", "b", "c"], fast_policy()).unwrap();

    // One tenant per node: pick keys until each node owns one.
    let mut keys: Vec<String> = Vec::new();
    for node in ["a", "b", "c"] {
        let key = (0..)
            .map(|i| format!("tenant-{i}"))
            .find(|k| cluster.router().node_for(k) == node)
            .unwrap();
        keys.push(key);
    }
    for key in &keys {
        let mut req = Request::Create {
            key: key.clone(),
            config: TenantConfig::for_key(key),
            token: None,
        };
        cluster.router().stamp(&mut req);
        cluster
            .router()
            .call_stamped(&req)
            .unwrap()
            .into_result()
            .unwrap();
        cluster
            .router()
            .call(&Request::AddBatch {
                key: key.clone(),
                values: (0..800).map(|i| i as f64).collect(),
                token: None,
            })
            .unwrap()
            .into_result()
            .unwrap();
    }

    // Stamp a mutation for the doomed node's tenant but don't send it
    // yet — this is the "in flight at the moment of death" request.
    let victim_key = keys
        .iter()
        .find(|k| cluster.router().node_for(k) == "b")
        .unwrap()
        .clone();
    let mut inflight = Request::AddBatch {
        key: victim_key.clone(),
        values: (800..1_000).map(|i| i as f64).collect(),
        token: None,
    };
    cluster.router().stamp(&mut inflight);
    // First delivery lands on the primary and replicates...
    cluster
        .router()
        .call_stamped(&inflight)
        .unwrap()
        .into_result()
        .unwrap();
    cluster.drain("b", Duration::from_secs(20)).unwrap();

    // ...then the primary dies and the standby takes over.
    cluster.kill_primary("b").unwrap();
    cluster.promote("b").unwrap();

    // The client, unsure whether its request survived, re-sends the
    // *same stamped request* — the replicated dedup window absorbs it.
    cluster
        .router()
        .call_stamped(&inflight)
        .unwrap()
        .into_result()
        .unwrap();
    let stats = match cluster
        .router()
        .call(&Request::Stats {
            key: victim_key.clone(),
        })
        .unwrap()
    {
        req_service::Response::Stats(s) => s,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(stats.n, 1_000, "retry after failover double-ingested");

    // Keys on surviving nodes were untouched by the failover.
    for key in keys.iter().filter(|k| *k != &victim_key) {
        let resp = cluster
            .router()
            .call(&Request::Rank {
                key: key.clone(),
                value: f64::INFINITY,
            })
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(resp, req_service::Response::Rank(800));
    }
}

/// A standby attached after the fact (e.g. replacing one consumed by a
/// promotion) starts empty and catches all the way up from generation 0.
#[test]
fn late_attached_standby_catches_up_from_scratch() {
    let mut cluster = Cluster::start(&["solo"], fast_policy()).unwrap();
    let key = "k".to_string();
    cluster
        .router()
        .call(&Request::Create {
            key: key.clone(),
            config: TenantConfig::for_key(&key),
            token: None,
        })
        .unwrap()
        .into_result()
        .unwrap();
    cluster
        .router()
        .call(&Request::AddBatch {
            key: key.clone(),
            values: (0..2_000).map(|i| i as f64).collect(),
            token: None,
        })
        .unwrap()
        .into_result()
        .unwrap();
    cluster.drain("solo", Duration::from_secs(20)).unwrap();
    cluster.kill_primary("solo").unwrap();
    cluster.promote("solo").unwrap();

    // The promoted node keeps ingesting; a brand-new standby attaches
    // and replays the whole history it missed.
    cluster
        .router()
        .call(&Request::AddBatch {
            key: key.clone(),
            values: (2_000..3_000).map(|i| i as f64).collect(),
            token: None,
        })
        .unwrap()
        .into_result()
        .unwrap();
    cluster.attach_standby("solo").unwrap();
    cluster.drain("solo", Duration::from_secs(20)).unwrap();
    let primary = cluster.primary_service("solo").unwrap();
    let standby = cluster.standby_service("solo").unwrap();
    assert_eq!(
        standby.sketch_parts(&key).unwrap(),
        primary.sketch_parts(&key).unwrap()
    );
    assert_eq!(standby.stats(&key).unwrap().n, 3_000);
}

/// A standby attached after two rotations pruned generation 0 starts from
/// its primary's newest snapshot and tails that generation's WAL: it
/// catches up, and its snapshot and WAL of that generation are the
/// primary's bytes.
#[test]
fn standby_attached_after_two_rotations_catches_up() {
    let mut cluster = Cluster::start(&["a", "b"], fast_policy()).unwrap();
    let spread = "spread";
    cluster
        .router()
        .create_spread(spread, TenantConfig::for_key(spread))
        .unwrap();
    let write = |cluster: &mut Cluster, i: u32| {
        let values: Vec<f64> = (0..1_000).map(|j| f64::from(i * 1_000 + j)).collect();
        assert_eq!(
            cluster.router().spread_add_batch(spread, &values).unwrap(),
            1_000
        );
    };
    for i in 0..2 {
        write(&mut cluster, i);
        // The first standby must hold a generation before the next
        // rotation prunes the one before it.
        for name in ["a", "b"] {
            cluster.drain(name, Duration::from_secs(20)).unwrap();
        }
        cluster.router().call(&Request::Snapshot).unwrap();
    }
    write(&mut cluster, 2);
    cluster.drain("a", Duration::from_secs(20)).unwrap();
    cluster.kill_primary("a").unwrap();
    cluster.promote("a").unwrap();
    cluster.attach_standby("a").unwrap();
    write(&mut cluster, 3);
    cluster.drain("a", Duration::from_secs(20)).unwrap();

    let primary = cluster.primary_service("a").unwrap();
    let standby = cluster.standby_service("a").unwrap();
    let g = primary.generation();
    assert_eq!(g, 2, "two rotations");
    assert_eq!(standby.generation(), g);
    for path in [snapshot_path, wal_path] {
        assert_eq!(
            std::fs::read(path(standby.data_dir(), g)).unwrap(),
            std::fs::read(path(primary.data_dir(), g)).unwrap(),
            "{:?} diverged",
            path(standby.data_dir(), g).file_name()
        );
    }
    assert_eq!(
        standby.sketch_parts(spread).unwrap(),
        primary.sketch_parts(spread).unwrap()
    );
}

/// A scatter/gather read that fails on one node still reads the reply it
/// asked every other node for: the next routed call on a surviving node's
/// connection gets its own answer, not a leftover `MERGE` reply. Once the
/// dead node's standby is promoted, the spread tenant reads whole again.
#[test]
fn failed_scatter_leaves_no_unread_reply() {
    let mut cluster = Cluster::start(&["a", "b"], fast_policy()).unwrap();
    let members = cluster.router().members().to_vec();
    let (first, second) = (&members[0], &members[1]);

    let spread = "spread";
    cluster
        .router()
        .create_spread(spread, TenantConfig::for_key(spread))
        .unwrap();
    let values: Vec<f64> = (0..1_000).map(f64::from).collect();
    assert_eq!(
        cluster.router().spread_add_batch(spread, &values).unwrap(),
        1_000
    );
    let routed = (0..)
        .map(|i| format!("routed-{i}"))
        .find(|k| cluster.router().node_for(k) == second.as_str())
        .unwrap();
    cluster
        .router()
        .call(&Request::Create {
            key: routed.clone(),
            config: TenantConfig::for_key(&routed),
            token: None,
        })
        .unwrap()
        .into_result()
        .unwrap();
    // Both connections are cached, so the next scatter sends on them.
    assert!(cluster
        .router()
        .merged_quantile(spread, 0.5)
        .unwrap()
        .is_some());

    // The first member dies after its standby caught up: a scatter finds
    // out only when it reads that node, after sending to the second.
    cluster.drain(first, Duration::from_secs(20)).unwrap();
    cluster.kill_primary(first).unwrap();
    assert!(cluster.router().merged_quantile(spread, 0.5).is_err());
    match cluster
        .router()
        .call(&Request::Stats {
            key: routed.clone(),
        })
        .unwrap()
    {
        Response::Stats(stats) => assert_eq!(stats.n, 0),
        Response::MergedSince(changed) => panic!(
            "routed STATS on `{second}` read a leftover MERGESINCE reply ({} parts)",
            changed.parts.len()
        ),
        other => panic!("routed STATS on `{second}` answered {other:?}"),
    }

    cluster.promote(first).unwrap();
    assert_eq!(cluster.router().merged_sketch(spread).unwrap().len(), 1_000);
    assert!(cluster
        .router()
        .merged_quantile(spread, 0.5)
        .unwrap()
        .is_some());
}
