//! The router's kept parts against a fresh gather.
//!
//! A router keeps the parts it gathered per spread key and asks each node
//! only for the shards whose version moved (`MERGESINCE`). A version is
//! the node's incarnation, the tenant's instance and the shard's epoch, and
//! epochs realign in three ways: a checkpoint restarts them at 0, a
//! `DROP`/`CREATE` starts a new tenant at 0, and a different service can
//! sit behind the same node name (a promoted standby) or address (a
//! restart). Each test below drives one of them until the epochs equal
//! those the router holds, then requires the kept read to equal what a
//! fresh [`Router`] reads, which gathers everything. The proptest
//! interleaves all of them with more spread keys than the router keeps.

use proptest::collection::vec;
use proptest::prelude::*;
use req_cluster::router::{GatherStats, KEPT_KEYS};
use req_cluster::{Cluster, Router};
use req_core::{OrdF64, ReqError};
use req_evented::serve_evented;
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, QuantileService, Request, RetryPolicy, ServiceConfig, ShardVersions, TenantConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const SPREAD: &str = "spread";
const WRITE: usize = 1_000;
const QS: [f64; 5] = [0.01, 0.25, 0.5, 0.99, 0.999];

fn policy() -> RetryPolicy {
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

/// The `i`th write of a stream: `WRITE` values from a range that `base`
/// picks, so streams with different bases answer differently.
fn batch(base: f64, i: usize) -> Vec<f64> {
    (0..WRITE)
        .map(|j| base + ((i * WRITE + j) * 7_919 % 100_003) as f64)
        .collect()
}

/// A router over `router`'s members at their current addresses, holding
/// nothing: every read of it gathers every part.
fn fresh(router: &Router) -> Router {
    let nodes: Vec<(String, SocketAddr)> = (router.members().iter())
        .map(|name| (name.clone(), router.addr_of(name).unwrap()))
        .collect();
    Router::new(&nodes, policy())
}

/// Quantiles at `QS` (as bits; `u64::MAX` for none), ranks at the
/// quantiles' answers, and the merged sketch's bytes, through `router`.
fn answers(router: &mut Router, key: &str) -> Result<Vec<u64>, ReqError> {
    let mut out = Vec::new();
    for q in QS {
        let answer = router.merged_quantile(key, q)?;
        out.push(answer.map_or(u64::MAX, f64::to_bits));
        out.push(router.merged_rank(key, answer.unwrap_or(0.0))?);
    }
    let sketch = router.merged_sketch(key)?.to_bytes();
    out.extend(sketch.iter().map(|&b| u64::from(b)));
    Ok(out)
}

/// The kept read of `key` equals a fresh gather's, bit for bit.
fn assert_reads_fresh(router: &mut Router, key: &str) {
    let want = answers(&mut fresh(router), key).unwrap();
    assert_eq!(answers(router, key).unwrap(), want, "key `{key}`");
}

/// Enough repeated reads that the kept parts' read cache builds a union
/// view, so a view that outlived its parts would be served.
fn warm(router: &mut Router, key: &str) {
    for i in 0..400 {
        router
            .merged_quantile(key, f64::from(i % 97) / 97.0)
            .unwrap();
    }
}

/// The versions `service` serves for `key`, as a holder would name them.
fn versions(service: &QuantileService, key: &str) -> ShardVersions {
    service.changed_shards(key, None).unwrap().versions()
}

fn spread_cluster(writes: usize, base: f64) -> Cluster {
    let mut cluster = Cluster::start(&["a", "b"], policy()).unwrap();
    let router = cluster.router();
    router
        .create_spread(SPREAD, TenantConfig::for_key(SPREAD))
        .unwrap();
    for i in 0..writes {
        router.spread_add_batch(SPREAD, &batch(base, i)).unwrap();
    }
    cluster
}

/// A standalone service whose spread tenant took `writes` writes from
/// `base`, not yet served.
fn other_service(writes: usize, base: f64) -> (Arc<QuantileService>, TempDir) {
    let dir = TempDir::new("router-cache-other").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    service
        .create(SPREAD, TenantConfig::for_key(SPREAD))
        .unwrap();
    for i in 0..writes {
        // The node's half of a spread write.
        let half: Vec<OrdF64> = (batch(base, i).into_iter().step_by(2))
            .map(OrdF64)
            .collect();
        service.add_batch(SPREAD, &half).unwrap();
    }
    (service, dir)
}

#[test]
fn a_checkpoint_that_realigns_epochs_is_read_afresh() {
    let mut cluster = spread_cluster(3, 0.0);
    warm(cluster.router(), SPREAD);
    let held = versions(&cluster.primary_service("a").unwrap(), SPREAD);
    cluster.router().call(&Request::Snapshot).unwrap();
    for i in 0..3 {
        let values = batch(1e6, i);
        cluster.router().spread_add_batch(SPREAD, &values).unwrap();
    }
    let now = versions(&cluster.primary_service("a").unwrap(), SPREAD);
    assert_eq!(
        now.epochs, held.epochs,
        "every shard is back at its held epoch"
    );
    assert_ne!(now.instance, held.instance);
    assert_reads_fresh(cluster.router(), SPREAD);
}

#[test]
fn a_recreated_tenant_that_realigns_epochs_is_read_afresh() {
    let mut cluster = spread_cluster(3, 0.0);
    warm(cluster.router(), SPREAD);
    let held = versions(&cluster.primary_service("a").unwrap(), SPREAD);
    for name in ["a", "b"] {
        cluster
            .primary_service(name)
            .unwrap()
            .drop_key(SPREAD)
            .unwrap();
    }
    let router = cluster.router();
    router
        .create_spread(SPREAD, TenantConfig::for_key(SPREAD))
        .unwrap();
    for i in 0..3 {
        router.spread_add_batch(SPREAD, &batch(1e6, i)).unwrap();
    }
    let now = versions(&cluster.primary_service("a").unwrap(), SPREAD);
    assert_eq!(now.epochs, held.epochs);
    assert_ne!(now.instance, held.instance);
    assert_reads_fresh(cluster.router(), SPREAD);
}

#[test]
fn a_repointed_node_with_realigned_epochs_is_read_afresh() {
    // A lagging standby promoted in a primary's place: the same tenant at
    // the same epochs, holding other values.
    let mut cluster = spread_cluster(3, 0.0);
    warm(cluster.router(), SPREAD);
    let (service, _dir) = other_service(3, 1e6);
    let other = serve_evented(service, "127.0.0.1:0", 1).unwrap();
    cluster.router().repoint("a", other.addr()).unwrap();
    assert_reads_fresh(cluster.router(), SPREAD);
    other.shutdown();
}

#[test]
fn a_node_restarted_at_its_address_is_read_afresh() {
    // No repoint and no error reaches the router: its connection redials
    // the same address, where another service now answers with the same
    // tenant instance and epochs. Only the incarnation tells them apart.
    let mut cluster = spread_cluster(3, 0.0);
    warm(cluster.router(), SPREAD);
    let addr = cluster.router().addr_of("a").unwrap();
    let held = versions(&cluster.primary_service("a").unwrap(), SPREAD);
    let (service, _dir) = other_service(3, 1e6);
    cluster.kill_primary("a").unwrap();
    let other = serve_evented(service, &addr.to_string(), 1).unwrap();
    let before = cluster.router().gather_stats();
    assert_reads_fresh(cluster.router(), SPREAD);
    let after = cluster.router().gather_stats();
    assert!(after.fetched >= before.fetched + held.epochs.len() as u64);
    other.shutdown();
}

#[test]
fn mismatched_parts_fail_on_the_first_gather_and_on_a_replacement() {
    // Node `a` holds 4 shards; node `b` one, so a new tenant on `b`
    // replaces exactly one kept part.
    let mut cluster = Cluster::start(&["a", "b"], policy()).unwrap();
    let hra = TenantConfig::for_key(SPREAD);
    let one = |hra_flag| TenantConfig {
        shards: 1,
        hra: hra_flag,
        ..hra.clone()
    };
    let a = cluster.primary_service("a").unwrap();
    let b = cluster.primary_service("b").unwrap();
    a.create(SPREAD, hra.clone()).unwrap();
    b.create(SPREAD, one(!hra.hra)).unwrap();
    for _ in 0..2 {
        assert!(matches!(
            cluster.router().merged_quantile(SPREAD, 0.5),
            Err(ReqError::IncompatibleMerge(_))
        ));
    }
    b.drop_key(SPREAD).unwrap();
    b.create(SPREAD, one(hra.hra)).unwrap();
    let router = cluster.router();
    router.spread_add_batch(SPREAD, &batch(0.0, 0)).unwrap();
    assert!(router.merged_quantile(SPREAD, 0.5).unwrap().is_some());
    let kept = router.gather_stats();

    b.drop_key(SPREAD).unwrap();
    b.create(SPREAD, one(!hra.hra)).unwrap();
    b.add_batch(SPREAD, &[OrdF64(1.0)]).unwrap();
    let router = cluster.router();
    for _ in 0..2 {
        assert!(matches!(
            router.merged_quantile(SPREAD, 0.5),
            Err(ReqError::IncompatibleMerge(_))
        ));
    }
    let first = router.gather_stats();
    assert_eq!(
        first.reused - kept.reused,
        4,
        "only `b`'s part was replaced"
    );
    assert_eq!(first.fetched - kept.fetched, 1 + 5);
}

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { key: usize, base: u64 },
    Snapshot,
    Recreate { key: usize },
    Failover { node: usize },
    Quantile { key: usize, q: u64 },
    Rank { key: usize, at: u64 },
    Sketch { key: usize },
}

fn op((kind, key, arg): (u8, usize, u64)) -> Op {
    match kind % 10 {
        0..=2 => Op::Write { key, base: arg % 4 },
        3 => Op::Snapshot,
        4 => Op::Recreate { key },
        5 => Op::Failover {
            node: (arg % 2) as usize,
        },
        6 | 7 => Op::Quantile {
            key,
            q: arg % 1_001,
        },
        8 => Op::Rank {
            key,
            at: arg % 500_000,
        },
        _ => Op::Sketch { key },
    }
}

/// Spread keys in play: more than the router keeps.
const KEYS: usize = KEPT_KEYS + 2;

fn key(i: usize) -> String {
    format!("spread-{i}")
}

/// Read through the kept router and through a fresh one; both must agree
/// bit for bit, errors included.
fn check(cluster: &mut Cluster, op: Op) {
    let read = |router: &mut Router| -> Result<Vec<u64>, ReqError> {
        Ok(match op {
            Op::Quantile { key: k, q } => {
                let q = q as f64 / 1_000.0;
                vec![router
                    .merged_quantile(&key(k), q)?
                    .map_or(u64::MAX, f64::to_bits)]
            }
            Op::Rank { key: k, at } => vec![router.merged_rank(&key(k), at as f64)?],
            Op::Sketch { key: k } => {
                let bytes = router.merged_sketch(&key(k))?.to_bytes();
                bytes.iter().map(|&b| u64::from(b)).collect()
            }
            _ => unreachable!("only reads are checked"),
        })
    };
    let want = read(&mut fresh(cluster.router()));
    // Twice: the second read reuses every part the first one kept.
    for _ in 0..2 {
        assert_eq!(read(cluster.router()), want, "{op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kept reads equal fresh gathers through writes, checkpoints,
    /// recreated tenants, failovers and more keys than the router keeps.
    #[test]
    fn kept_reads_equal_fresh_gathers(
        ops in vec((any::<u8>(), 0..KEYS, any::<u64>()), 16..40),
    ) {
        let mut cluster = Cluster::start(&["a", "b"], policy()).unwrap();
        for k in 0..KEYS {
            let router = cluster.router();
            router.create_spread(&key(k), TenantConfig::for_key(&key(k))).unwrap();
            router.spread_add_batch(&key(k), &batch(0.0, k)).unwrap();
        }
        let mut writes = 0;
        // A standby attached after a failover tails its primary from
        // generation 0, which a second rotation prunes: one SNAPSHOT per
        // case keeps every later failover possible.
        let mut snapshotted = false;
        for op in ops.into_iter().map(op) {
            match op {
                Op::Write { key: k, base } => {
                    writes += 1;
                    let values = batch(base as f64 * 1e6, writes);
                    cluster.router().spread_add_batch(&key(k), &values).unwrap();
                }
                Op::Snapshot if !snapshotted => {
                    snapshotted = true;
                    cluster.router().call(&Request::Snapshot).unwrap();
                }
                Op::Snapshot => {}
                Op::Recreate { key: k } => {
                    for name in ["a", "b"] {
                        cluster.primary_service(name).unwrap().drop_key(&key(k)).unwrap();
                    }
                    let router = cluster.router();
                    router.create_spread(&key(k), TenantConfig::for_key(&key(k))).unwrap();
                    router.spread_add_batch(&key(k), &batch(3e6, writes)).unwrap();
                }
                Op::Failover { node } => {
                    let name = ["a", "b"][node];
                    cluster.drain(name, Duration::from_secs(20)).unwrap();
                    cluster.kill_primary(name).unwrap();
                    cluster.promote(name).unwrap();
                    cluster.attach_standby(name).unwrap();
                }
                read => check(&mut cluster, read),
            }
        }
        let GatherStats { reused, fetched } = cluster.router().gather_stats();
        prop_assert!(reused > 0 && fetched > 0, "reused {} fetched {}", reused, fetched);
    }
}
