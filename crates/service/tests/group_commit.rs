//! Group commit: concurrent appenders coalesce onto shared fsyncs
//! without weakening durability.
//!
//! The contract under test: with `fsync: true` (WAL fsyncs always go
//! through group commit), (a) no acknowledged append is lost across a
//! restart (value-identity of answers), and (b) the number of physical
//! `fsync` calls is a small fraction of the number of appends when
//! writers overlap — ≥4x fewer under 16 concurrent writers, per the
//! acceptance bar.

use req_core::OrdF64;
use req_service::tempdir::TempDir;
use req_service::{QuantileService, ServiceConfig, TenantConfig};
use std::sync::Arc;

fn open(dir: &std::path::Path) -> QuantileService {
    let mut cfg = ServiceConfig::new(dir);
    cfg.fsync = true;
    QuantileService::open(cfg).unwrap()
}

fn hammer(service: &QuantileService, writers: u64, tenants: u64, batches_per_writer: u64) {
    std::thread::scope(|scope| {
        for w in 0..writers {
            let service = &service;
            scope.spawn(move || {
                let key = format!("t{}", w % tenants);
                for b in 0..batches_per_writer {
                    let base = (w * batches_per_writer + b) * 16;
                    let values: Vec<OrdF64> = (0..16).map(|i| OrdF64((base + i) as f64)).collect();
                    service.add_batch(&key, &values).unwrap();
                }
            });
        }
    });
}

#[test]
fn sixteen_writers_share_fsyncs_at_least_4x() {
    let dir = TempDir::new("gc").unwrap();
    let service = open(dir.path());
    // One tenant per writer: the per-tenant op lock serializes appends
    // within a tenant, so distinct tenants are what lets 16 appends be
    // in flight for one fsync to cover.
    for t in 0..16 {
        service
            .create(&format!("t{t}"), TenantConfig::for_key("t"))
            .unwrap();
    }
    // One writer at a time has no one to share an fsync with.
    assert_eq!(service.wal_syncs(), service.wal_appends());
    let before_appends = service.wal_appends();
    let before_syncs = service.wal_syncs();
    hammer(&service, 16, 16, 64);
    let appends = service.wal_appends() - before_appends;
    let syncs = service.wal_syncs() - before_syncs;
    assert_eq!(appends, 16 * 64);
    assert!(
        syncs * 4 <= appends,
        "group commit must cut fsyncs ≥4x under 16 writers: {syncs} syncs for {appends} appends"
    );
}

#[test]
fn grouped_commits_recover_value_identical() {
    // Grouped fsyncs over four tenants, then a restart: every probe must
    // answer as before — group commit may only change *when* fsyncs
    // happen, never what is durable once acknowledged.
    let probes: Vec<f64> = (0..64).map(|i| i as f64 * 257.0).collect();
    let answers = |service: &QuantileService| -> Vec<u64> {
        let mut got = Vec::new();
        for t in 0..4 {
            let key = format!("t{t}");
            assert_eq!(service.stats(&key).unwrap().n, 2 * 32 * 16);
            for &p in &probes {
                got.push(service.rank(&key, p).unwrap());
            }
        }
        got
    };
    let dir = TempDir::new("gc").unwrap();
    let want = {
        let service = open(dir.path());
        for t in 0..4 {
            service
                .create(&format!("t{t}"), TenantConfig::for_key("t"))
                .unwrap();
        }
        hammer(&service, 8, 4, 32);
        answers(&service)
    }; // dropped without snapshot: recovery is pure WAL replay
    let service = open(dir.path());
    assert!(service.recovery_report().records_replayed > 0);
    assert_eq!(answers(&service), want);
}

#[test]
fn grouped_restart_is_value_identical_to_itself() {
    // The strong identity proof for the grouped path: answers before a
    // "crash" (drop without snapshot) equal answers after recovery.
    let dir = TempDir::new("gc").unwrap();
    let probes: Vec<f64> = (0..64).map(|i| i as f64 * 199.0).collect();
    let want: Vec<u64> = {
        let service = open(dir.path());
        service.create("t", TenantConfig::for_key("t")).unwrap();
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let service = &service;
                scope.spawn(move || {
                    for b in 0..16 {
                        let base = (w * 16 + b) * 32;
                        let values: Vec<OrdF64> =
                            (0..32).map(|i| OrdF64((base + i) as f64)).collect();
                        service.add_batch("t", &values).unwrap();
                    }
                });
            }
        });
        probes
            .iter()
            .map(|&p| service.rank("t", p).unwrap())
            .collect()
    };
    let service = open(dir.path());
    let got: Vec<u64> = probes
        .iter()
        .map(|&p| service.rank("t", p).unwrap())
        .collect();
    assert_eq!(got, want, "recovered answers must be value-identical");
    assert_eq!(service.stats("t").unwrap().n, 8 * 16 * 32);
}

#[test]
fn group_commit_interleaves_with_snapshots() {
    // Rotation takes the gate exclusively while group-commit leaders run
    // under shared gate holds; hammering both must neither deadlock nor
    // lose records.
    let dir = TempDir::new("gc").unwrap();
    let service = Arc::new(open(dir.path()));
    service.create("t0", TenantConfig::for_key("t")).unwrap();
    service.create("t1", TenantConfig::for_key("t")).unwrap();
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let key = format!("t{}", w % 2);
                for b in 0..24 {
                    let base = (w * 24 + b) * 8;
                    let values: Vec<OrdF64> = (0..8).map(|i| OrdF64((base + i) as f64)).collect();
                    service.add_batch(&key, &values).unwrap();
                }
            });
        }
        let service = Arc::clone(&service);
        scope.spawn(move || {
            for _ in 0..6 {
                service.snapshot_now().unwrap();
            }
        });
    });
    let total = service.stats("t0").unwrap().n + service.stats("t1").unwrap().n;
    assert_eq!(total, 8 * 24 * 8);
    drop(service);
    let service = open(dir.path());
    let total = service.stats("t0").unwrap().n + service.stats("t1").unwrap().n;
    assert_eq!(total, 8 * 24 * 8, "snapshot+WAL recovery lost records");
}
