//! Crash-recovery properties.
//!
//! Two claims, proptested, plus probes of interrupted WAL rotations:
//!
//! 1. **WAL prefix integrity** — a WAL whose tail is truncated at an
//!    arbitrary byte, or corrupted by an arbitrary bit flip, replays to
//!    *exactly* the longest prefix of whole valid frames before the
//!    damage. Nothing after the damage is applied, nothing before it is
//!    lost.
//! 2. **Snapshot + replay ≡ fully streamed** — across HRA/LRA, both
//!    compaction schedules, and arbitrary batch/snapshot placements, a
//!    service that crashes (process drop, no shutdown hook) and recovers
//!    from snapshot + WAL tail answers rank/quantile/CDF queries
//!    **value-identically** to a twin service that executed the same ops
//!    and never crashed.

use proptest::collection::vec;
use proptest::prelude::*;

use std::io::Write as _;
use std::sync::Arc;

use req_core::OrdF64;
use req_service::snapshot::{wal_gens, wal_path};
use req_service::tempdir::TempDir;
use req_service::wal::{read_wal, WalRecord, WalWriter, WAL_MAGIC};
use req_service::{FaultKind, FaultPlane, FaultSite, QuantileService, ServiceConfig, TenantConfig};

fn records_from(batches: &[Vec<u64>]) -> Vec<WalRecord> {
    let mut records = vec![WalRecord::Create {
        key: "t".into(),
        config: TenantConfig::parse("t", &["K=8", "SHARDS=2"]).unwrap(),
        token: None,
    }];
    for batch in batches {
        records.push(WalRecord::AddBatch {
            key: "t".into(),
            values: batch.iter().map(|&v| OrdF64(v as f64)).collect(),
            token: None,
        });
    }
    records
}

/// The longest record prefix whose frames end at or before `boundary`.
fn expected_prefix(records: &[WalRecord], boundary: usize) -> (Vec<WalRecord>, u64) {
    let mut end = WAL_MAGIC.len();
    let mut keep = Vec::new();
    for rec in records {
        let next = end + rec.encode().len();
        if next > boundary {
            break;
        }
        end = next;
        keep.push(rec.clone());
    }
    (keep, end as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_wal_replays_to_exactly_the_last_valid_frame(
        batches in vec(vec(0u64..100_000, 1..60), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = TempDir::new("prop-trunc").unwrap();
        let path = dir.path().join("wal-test.log");
        let records = records_from(&batches);
        let mut w = WalWriter::create(&path).unwrap();
        for rec in &records {
            w.append(&rec.encode()).unwrap();
        }
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len() as usize;

        let cut = (cut_frac * full as f64) as usize;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();

        let replay = read_wal(&path).unwrap();
        if cut < WAL_MAGIC.len() {
            // Header gone: nothing replays, the whole remnant is damage.
            prop_assert!(replay.records.is_empty());
            prop_assert_eq!(replay.damaged_bytes, cut as u64);
        } else {
            let (want, valid_len) = expected_prefix(&records, cut);
            prop_assert_eq!(&replay.records, &want);
            prop_assert_eq!(replay.valid_len, valid_len);
            prop_assert_eq!(replay.damaged_bytes, cut as u64 - valid_len);
        }
    }

    #[test]
    fn bitflipped_wal_replays_to_exactly_the_frames_before_the_flip(
        batches in vec(vec(0u64..100_000, 1..60), 1..10),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let dir = TempDir::new("prop-flip").unwrap();
        let path = dir.path().join("wal-test.log");
        let records = records_from(&batches);
        let mut w = WalWriter::create(&path).unwrap();
        for rec in &records {
            w.append(&rec.encode()).unwrap();
        }
        drop(w);
        let mut raw = std::fs::read(&path).unwrap();
        let pos = ((flip_frac * raw.len() as f64) as usize).min(raw.len() - 1);
        raw[pos] ^= 1 << flip_bit;
        std::fs::write(&path, &raw).unwrap();

        let replay = read_wal(&path).unwrap();
        if pos < WAL_MAGIC.len() {
            prop_assert!(replay.records.is_empty(), "flip in magic must void the file");
        } else {
            // Frames wholly before the flipped byte replay; the flipped
            // frame and everything after it do not.
            let (want, valid_len) = expected_prefix(&records, pos + 1);
            prop_assert_eq!(&replay.records, &want);
            prop_assert_eq!(replay.valid_len, valid_len);
            prop_assert!(replay.damaged_bytes > 0);
        }
    }
}

/// Drive `service` through the scripted ops: CREATE, then the batches,
/// with a forced snapshot after batch `snap_at` (if in range).
fn run_ops(
    service: &QuantileService,
    key: &str,
    tokens: &[&str],
    batches: &[Vec<f64>],
    snap_at: usize,
) {
    service
        .create(key, TenantConfig::parse(key, tokens).unwrap())
        .unwrap();
    for (i, batch) in batches.iter().enumerate() {
        let values: Vec<OrdF64> = batch.iter().copied().map(OrdF64).collect();
        service.add_batch(key, &values).unwrap();
        if i == snap_at {
            service.snapshot_now().unwrap();
        }
    }
}

fn probe(service: &QuantileService, key: &str) -> (Vec<u64>, Vec<Option<f64>>, Vec<f64>) {
    let ranks = (0..40)
        .map(|i| service.rank(key, i as f64 * 2_499.0).unwrap())
        .collect();
    let quantiles = (0..=10)
        .map(|i| service.quantile(key, i as f64 / 10.0).unwrap())
        .collect();
    let cdf = service.cdf(key, &[10_000.0, 50_000.0, 90_000.0]).unwrap();
    (ranks, quantiles, cdf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite claim: snapshot + WAL replay equals the fully
    /// streamed service, value-identically, across HRA/LRA × schedules.
    #[test]
    fn crash_recovery_is_value_identical_to_uninterrupted(
        hra in any::<bool>(),
        adaptive in any::<bool>(),
        shards in 1u32..4,
        batches in vec(vec(0u64..100_000, 1..300), 2..8),
        snap_frac in 0.0f64..1.0,
    ) {
        let tokens = [
            "K=8",
            if hra { "HRA" } else { "LRA" },
            if adaptive { "SCHEDULE=adaptive" } else { "SCHEDULE=standard" },
            &format!("SHARDS={shards}"),
        ]
        .map(String::from);
        let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let batches: Vec<Vec<f64>> = batches
            .iter()
            .map(|b| b.iter().map(|&v| v as f64).collect())
            .collect();
        let snap_at = ((snap_frac * batches.len() as f64) as usize).min(batches.len() - 1);

        // Crashing timeline: ops, then process death (drop, no shutdown).
        let crash_dir = TempDir::new("prop-crash").unwrap();
        {
            let service = QuantileService::open(ServiceConfig::new(crash_dir.path())).unwrap();
            run_ops(&service, "t", &tokens, &batches, snap_at);
        }

        // Uninterrupted twin: same ops, still alive when probed.
        let ref_dir = TempDir::new("prop-ref").unwrap();
        let reference = QuantileService::open(ServiceConfig::new(ref_dir.path())).unwrap();
        run_ops(&reference, "t", &tokens, &batches, snap_at);

        // Recover the crashed instance and compare every query surface.
        let recovered = QuantileService::open(ServiceConfig::new(crash_dir.path())).unwrap();
        let report = recovered.recovery_report().clone();
        prop_assert_eq!(report.snapshot_gen, Some(1), "snapshot must be found");
        prop_assert_eq!(
            report.records_replayed,
            (batches.len() - 1 - snap_at.min(batches.len() - 1)) as u64,
            "replay must cover exactly the post-snapshot batches"
        );

        prop_assert_eq!(probe(&recovered, "t"), probe(&reference, "t"));
        prop_assert_eq!(
            recovered.stats("t").unwrap(),
            reference.stats("t").unwrap()
        );

        // And recovery is idempotent: crash again immediately, reopen,
        // still identical.
        drop(recovered);
        let again = QuantileService::open(ServiceConfig::new(crash_dir.path())).unwrap();
        prop_assert_eq!(probe(&again, "t"), probe(&reference, "t"));
    }

    /// Ingest *after* recovery also stays identical: the checkpoint swap
    /// unified durable and live state, so both timelines continue from
    /// the same coins.
    #[test]
    fn post_recovery_ingest_stays_identical(
        hra in any::<bool>(),
        batches in vec(vec(0u64..100_000, 1..200), 2..6),
        tail in vec(vec(0u64..100_000, 1..200), 1..4),
    ) {
        let tokens: Vec<&str> = if hra {
            vec!["K=8", "HRA", "SHARDS=2"]
        } else {
            vec!["K=8", "LRA", "SHARDS=2"]
        };
        let to_f = |bs: &[Vec<u64>]| -> Vec<Vec<f64>> {
            bs.iter()
                .map(|b| b.iter().map(|&v| v as f64).collect())
                .collect()
        };
        let batches = to_f(&batches);
        let tail = to_f(&tail);
        let snap_at = batches.len() - 1; // snapshot after the last prefix batch

        let crash_dir = TempDir::new("prop-tail-crash").unwrap();
        {
            let service = QuantileService::open(ServiceConfig::new(crash_dir.path())).unwrap();
            run_ops(&service, "t", &tokens, &batches, snap_at);
        }
        let ref_dir = TempDir::new("prop-tail-ref").unwrap();
        let reference = QuantileService::open(ServiceConfig::new(ref_dir.path())).unwrap();
        run_ops(&reference, "t", &tokens, &batches, snap_at);

        let recovered = QuantileService::open(ServiceConfig::new(crash_dir.path())).unwrap();
        for batch in &tail {
            let values: Vec<OrdF64> = batch.iter().copied().map(OrdF64).collect();
            recovered.add_batch("t", &values).unwrap();
            reference.add_batch("t", &values).unwrap();
        }
        prop_assert_eq!(probe(&recovered, "t"), probe(&reference, "t"));
        prop_assert_eq!(
            recovered.stats("t").unwrap(),
            reference.stats("t").unwrap()
        );
    }
}

/// A rotation that cannot create its new WAL generation must not strand
/// the writes acknowledged after it: a `snap-<g+1>` on disk would send
/// recovery past `wal-<g>`, where those writes land.
#[test]
fn failed_rotation_loses_no_acknowledged_write() {
    let dir = TempDir::new("rotate-fail").unwrap();
    {
        let service = QuantileService::open(ServiceConfig::new(dir.path())).unwrap();
        service.create("t", TenantConfig::for_key("t")).unwrap();
        service.add_batch("t", &[OrdF64(1.0), OrdF64(2.0)]).unwrap();
        // A directory where the next generation's WAL file goes.
        std::fs::create_dir(wal_path(dir.path(), 1)).unwrap();
        assert!(service.snapshot_now().is_err());
        assert_eq!(service.generation(), 0);
        let more = [OrdF64(3.0), OrdF64(4.0), OrdF64(5.0)];
        assert_eq!(service.add_batch("t", &more).unwrap(), 3);
    }
    std::fs::remove_dir(wal_path(dir.path(), 1)).unwrap();
    let service = QuantileService::open(ServiceConfig::new(dir.path())).unwrap();
    assert_eq!(service.stats("t").unwrap().n, 5);
}

/// A rotation that fails *after* creating its new WAL (here: the snapshot
/// write) leaves no generation that outranks the live one, and a crash in
/// that same window — an empty `wal-<g+1>` on disk, no `snap-<g+1>` —
/// recovers every record even when `wal-<g>` ends in torn bytes.
#[test]
fn interrupted_rotation_recovers_everything() {
    let dir = TempDir::new("rotate-interrupted").unwrap();
    let plane = Arc::new(FaultPlane::new(1).with(FaultSite::SnapWrite, FaultKind::Error, 1, 1));
    plane.set_armed(false);
    let mut cfg = ServiceConfig::new(dir.path());
    cfg.faults = Some(Arc::clone(&plane));
    {
        let service = QuantileService::open(cfg).unwrap();
        service.create("t", TenantConfig::for_key("t")).unwrap();
        service.add_batch("t", &[OrdF64(1.0), OrdF64(2.0)]).unwrap();
        plane.set_armed(true);
        assert!(service.snapshot_now().is_err());
        plane.set_armed(false);
        assert_eq!(service.generation(), 0);
        assert_eq!(wal_gens(dir.path()).unwrap(), vec![0]);
        service.add_batch("t", &[OrdF64(3.0)]).unwrap();
    }
    // The crash variant: a torn frame ends wal-0, and wal-1 holds only
    // its magic.
    let mut wal0 = std::fs::OpenOptions::new()
        .append(true)
        .open(wal_path(dir.path(), 0))
        .unwrap();
    wal0.write_all(&[64, 0, 0, 0, 0xDE, 0xAD]).unwrap();
    drop(wal0);
    std::fs::write(wal_path(dir.path(), 1), WAL_MAGIC).unwrap();

    let service = QuantileService::open(ServiceConfig::new(dir.path())).unwrap();
    assert_eq!(service.stats("t").unwrap().n, 3);
    assert_eq!(service.recovery_report().damaged_bytes, 6);
    service.add_batch("t", &[OrdF64(4.0)]).unwrap();
    drop(service);
    let service = QuantileService::open(ServiceConfig::new(dir.path())).unwrap();
    assert_eq!(service.stats("t").unwrap().n, 4);
    assert_eq!(service.recovery_report().damaged_bytes, 0);
}
