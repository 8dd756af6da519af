//! Chaos-plane and idempotency properties.
//!
//! Four claims, proptested or driven with injected faults:
//!
//! 1. **Backoff bounds** — [`RetryPolicy::backoff`] is deterministic per
//!    `(seed, attempt)` and always lands in `[cap/2, cap)` where
//!    `cap = min(base·2^attempt, max_backoff)` — jitter never exceeds the
//!    cap, never collapses below half of it.
//! 2. **Dedup window** — tokened retries behave exactly like an explicit
//!    model: fresh seqs apply once, in-window retries return the recorded
//!    outcome without re-ingesting, seqs older than the window are
//!    rejected as stale. The window survives crash + recovery, whether it
//!    was persisted by a snapshot's dedup frame or rebuilt from WAL
//!    replay.
//! 3. **Exactly-once under ambiguity** — a record that reached the WAL
//!    but whose fsync failed surfaces an error *and* applies; the
//!    client's retry of the same token dedups instead of double-counting.
//! 4. **Fault-plane recovery** — torn WAL appends roll back cleanly
//!    (retry-until-acked converges on a value-identical sketch), and a
//!    poisoned WAL degrades to read-only serving until a snapshot
//!    rotation heals it.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

use req_core::{OrdF64, ReqError};
use req_service::tempdir::TempDir;
use req_service::wal::{read_wal, WalWriter};
use req_service::{
    AppliedOutcome, FaultKind, FaultPlane, FaultSite, IdemToken, QuantileService, RetryPolicy,
    ServiceConfig, TenantConfig, WalRecord,
};
use std::sync::Arc;

fn tok(client_id: u64, seq: u64) -> Option<IdemToken> {
    Some(IdemToken { client_id, seq })
}

fn cfg(dir: &TempDir) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(dir.path());
    cfg.dedup_window = 8;
    cfg
}

fn create_t(service: &QuantileService) {
    service
        .create("t", TenantConfig::parse("t", &["K=8", "SHARDS=2"]).unwrap())
        .unwrap();
}

fn n_of(service: &QuantileService) -> u64 {
    service.stats("t").unwrap().n
}

// ---------------------------------------------------------------- backoff

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `backoff(attempt)` is deterministic and stays in `[cap/2, cap)`.
    #[test]
    fn backoff_is_deterministic_and_within_cap_bounds(
        seed in any::<u64>(),
        attempt in 0u32..40,
        base_us in 1u64..100_000,
        max_us in 1u64..5_000_000,
    ) {
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_micros(max_us),
            seed,
            ..RetryPolicy::default()
        };
        let cap = (base_us * 1_000)
            .saturating_mul(1u64 << attempt.min(32))
            .min(max_us * 1_000)
            .max(1);
        let got = policy.backoff(attempt).as_nanos() as u64;
        prop_assert!(got >= cap / 2, "backoff {got}ns below half the cap {cap}ns");
        prop_assert!(got < cap, "backoff {got}ns reached the cap {cap}ns");
        prop_assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
    }
}

// ------------------------------------------------------------------ dedup

/// What the dedup window should say about one incoming seq.
#[derive(Debug, PartialEq)]
enum Expect {
    Fresh,
    Duplicate(u64),
    Stale,
}

/// Reference model of one client's window: mirrors the service's
/// `ClientWindow` semantics from the outside.
struct Model {
    hi: u64,
    applied: BTreeMap<u64, u64>,
    window: u64,
}

impl Model {
    fn classify(&self, seq: u64) -> Expect {
        if let Some(&n) = self.applied.get(&seq) {
            Expect::Duplicate(n)
        } else if self.hi >= self.window && seq <= self.hi - self.window {
            Expect::Stale
        } else {
            Expect::Fresh
        }
    }

    fn record(&mut self, seq: u64, n: u64) {
        self.applied.insert(seq, n);
        self.hi = self.hi.max(seq);
        let floor = self.hi.saturating_sub(self.window);
        self.applied
            .retain(|&s, _| s > floor || self.hi < self.window);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The service's dedup window agrees with the explicit model on every
    /// op of an arbitrary (fresh / replayed / ancient) seq schedule, and
    /// the tenant's item count equals the model's fresh ingests only.
    #[test]
    fn dedup_window_agrees_with_the_reference_model(
        window in 2u64..10,
        seqs in vec(1u64..40, 1..48),
    ) {
        let dir = TempDir::new("chaos-dedup").unwrap();
        let mut svc_cfg = ServiceConfig::new(dir.path());
        svc_cfg.dedup_window = window;
        let service = QuantileService::open(svc_cfg).unwrap();
        create_t(&service);

        let mut model = Model { hi: 0, applied: BTreeMap::new(), window };
        let mut expected_n = 0u64;
        for &seq in &seqs {
            // Batch size varies with the seq so a wrongly re-applied
            // duplicate would shift the count detectably.
            let len = (seq % 3) + 1;
            let batch: Vec<OrdF64> = (0..len).map(|i| OrdF64((seq * 10 + i) as f64)).collect();
            let got = service.add_batch_with_token("t", &batch, tok(7, seq));
            match model.classify(seq) {
                Expect::Fresh => {
                    prop_assert_eq!(got.unwrap(), len);
                    model.record(seq, len);
                    expected_n += len;
                }
                Expect::Duplicate(n) => {
                    prop_assert_eq!(got.unwrap(), n, "retry of seq {} must echo the original count", seq);
                }
                Expect::Stale => {
                    let err = got.unwrap_err();
                    prop_assert!(
                        matches!(err, ReqError::InvalidParameter(_)),
                        "seq {} below the window must be rejected, got {:?}", seq, err
                    );
                }
            }
            prop_assert_eq!(n_of(&service), expected_n);
        }
    }

    /// Crash + recovery preserves the dedup window: retries of recent
    /// tokens still dedup, ancient ones still reject — regardless of
    /// whether a snapshot (dedup frame) or WAL replay carried the state.
    #[test]
    fn recovery_preserves_the_dedup_window(
        count in 9u64..24,
        snap_at in 0u64..24, // 0 = crash without any snapshot

    ) {
        let dir = TempDir::new("chaos-recover").unwrap();
        {
            let service = QuantileService::open(cfg(&dir)).unwrap();
            create_t(&service);
            for seq in 1..=count {
                let batch = [OrdF64(seq as f64)];
                service.add_batch_with_token("t", &batch, tok(9, seq)).unwrap();
                if snap_at == seq {
                    service.snapshot_now().unwrap();
                }
            }
            // Crash: drop with no shutdown hook.
        }
        let service = QuantileService::open(cfg(&dir)).unwrap();
        prop_assert_eq!(n_of(&service), count);

        // Recent retries echo their outcome without re-ingesting.
        for seq in (count - 3)..=count {
            let batch = [OrdF64(seq as f64)];
            prop_assert_eq!(
                service.add_batch_with_token("t", &batch, tok(9, seq)).unwrap(),
                1
            );
        }
        prop_assert_eq!(n_of(&service), count);

        // A seq at/below hi − window is unknowable → stale error.
        let stale = service.add_batch_with_token("t", &[OrdF64(1.0)], tok(9, 1));
        prop_assert!(matches!(stale, Err(ReqError::InvalidParameter(_))));

        // Fresh seqs continue where the client left off.
        prop_assert_eq!(
            service
                .add_batch_with_token("t", &[OrdF64(0.5)], tok(9, count + 1))
                .unwrap(),
            1
        );
        prop_assert_eq!(n_of(&service), count + 1);
    }
}

/// The three tokened verbs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verb {
    Create,
    Addb,
    Drop,
}

impl Verb {
    /// The key this verb succeeds on in [`exactly_once_service`]'s state
    /// whatever the verb under test did: `w` is never created there, `s`
    /// is never dropped.
    fn spare_key(self) -> &'static str {
        match self {
            Verb::Create => "w",
            Verb::Addb | Verb::Drop => "s",
        }
    }

    fn run(
        self,
        service: &QuantileService,
        key: &str,
        seq: u64,
    ) -> Result<AppliedOutcome, ReqError> {
        let token = tok(3, seq);
        match self {
            Verb::Create => service.create_with_token(
                key,
                TenantConfig::parse(key, &["K=8", "SHARDS=2"]).unwrap(),
                token,
            ),
            Verb::Addb => service
                .add_batch_with_token(key, &[OrdF64(1.0), OrdF64(2.0)], token)
                .map(AppliedOutcome::Added),
            Verb::Drop => service.drop_key_with_token(key, token),
        }
    }
}

/// Tenants `t` and `s` exist (created untokened); `u` and `w` do not.
fn exactly_once_service(dir: &TempDir) -> QuantileService {
    let service = QuantileService::open(cfg(dir)).unwrap();
    create_t(&service);
    service
        .create("s", TenantConfig::parse("s", &["K=8", "SHARDS=2"]).unwrap())
        .unwrap();
    service
}

/// Everything a wrongly applied mutation would move: the key set, the
/// spare tenant's count, and the WAL's end.
fn observable(service: &QuantileService) -> (Vec<String>, u64, (u64, u64)) {
    (
        service.list(),
        service.stats("s").unwrap().n,
        service.wal_watermark(),
    )
}

/// The exactly-once contract, verb by verb over CREATE/ADDB/DROP: an
/// in-window retry echoes the recorded outcome without re-applying; the
/// token reused for another verb fails with `InvalidParameter`; once the
/// window has moved past it, the token is stale for every verb. Each
/// refused call targets a key it would succeed on if applied, so only
/// the dedup window can be what refuses it.
#[test]
fn token_reuse_across_operation_kinds_is_rejected() {
    let verbs = [Verb::Create, Verb::Addb, Verb::Drop];
    for verb in verbs {
        let dir = TempDir::new("chaos-kinds").unwrap();
        let service = exactly_once_service(&dir);
        let (key, outcome) = match verb {
            Verb::Create => ("u", AppliedOutcome::Created),
            Verb::Addb => ("t", AppliedOutcome::Added(2)),
            Verb::Drop => ("t", AppliedOutcome::Dropped),
        };
        assert_eq!(verb.run(&service, key, 1).unwrap(), outcome, "{verb:?}");
        let after = observable(&service);
        let n_t = service.stats("t").map(|s| s.n).ok();

        // In-window retry: the recorded outcome, nothing re-applied.
        assert_eq!(
            verb.run(&service, key, 1).unwrap(),
            outcome,
            "{verb:?} retry"
        );
        assert_eq!(observable(&service), after, "{verb:?} retry re-applied");
        assert_eq!(service.stats("t").map(|s| s.n).ok(), n_t);

        // The same token on any other verb is refused.
        for other in verbs.into_iter().filter(|&v| v != verb) {
            let err = other.run(&service, other.spare_key(), 1).unwrap_err();
            assert!(
                matches!(err, ReqError::InvalidParameter(_)),
                "{verb:?} token reused as {other:?}: {err:?}"
            );
            assert_eq!(observable(&service), after, "{verb:?} as {other:?}");
        }

        // Fresh seqs 2..=9 push seq 1 below the 8-op window.
        for seq in 2..=9 {
            service
                .add_batch_with_token("s", &[OrdF64(seq as f64)], tok(3, seq))
                .unwrap();
        }
        let moved = observable(&service);
        for any in verbs {
            let err = any.run(&service, any.spare_key(), 1).unwrap_err();
            assert!(
                matches!(err, ReqError::InvalidParameter(_)),
                "stale {verb:?} token as {any:?}: {err:?}"
            );
            assert_eq!(observable(&service), moved, "stale {verb:?} as {any:?}");
        }
    }
}

// ------------------------------------------------------- wal v4 roundtrip

/// Tokened and tokenless records coexist in one WAL and replay intact —
/// the v4 format is a pure superset of v3.
#[test]
fn mixed_token_wal_replays_every_record_intact() {
    let dir = TempDir::new("chaos-walv4").unwrap();
    let path = dir.path().join("wal-1.log");
    let config = TenantConfig::parse("t", &["K=8", "SHARDS=2"]).unwrap();
    let records = vec![
        WalRecord::Create {
            key: "t".into(),
            config: config.clone(),
            token: IdemToken {
                client_id: u64::MAX,
                seq: 1,
            }
            .into(),
        },
        WalRecord::AddBatch {
            key: "t".into(),
            values: vec![OrdF64(1.0), OrdF64(2.0)],
            token: None,
        },
        WalRecord::AddBatch {
            key: "t".into(),
            values: vec![OrdF64(3.0)],
            token: tok(17, 2),
        },
        WalRecord::Drop {
            key: "t".into(),
            token: None,
        },
        WalRecord::Create {
            key: "t".into(),
            config,
            token: None,
        },
        WalRecord::Drop {
            key: "t".into(),
            token: tok(17, 3),
        },
    ];
    let mut w = WalWriter::create(&path).unwrap();
    for rec in &records {
        w.append(&rec.encode()).unwrap();
    }
    drop(w);
    let replay = read_wal(&path).unwrap();
    assert_eq!(replay.records, records);
    assert_eq!(replay.damaged_bytes, 0);
}

// ---------------------------------------------------------- exactly-once

/// A failed fsync *after* a complete append is ambiguous to the caller
/// but not to the service: the record is in the WAL, so it applies, and
/// the token retry returns the recorded outcome instead of re-ingesting.
#[test]
fn failed_fsync_after_append_applies_exactly_once() {
    let dir = TempDir::new("chaos-unsynced").unwrap();
    let plane = Arc::new(FaultPlane::new(11).with(FaultSite::WalSync, FaultKind::Error, 1, 1));
    plane.set_armed(false);
    let mut svc_cfg = cfg(&dir);
    svc_cfg.fsync = true;
    svc_cfg.faults = Some(plane.clone());
    let service = QuantileService::open(svc_cfg).unwrap();
    create_t(&service);

    plane.set_armed(true);
    let batch = [OrdF64(1.0), OrdF64(2.0), OrdF64(3.0)];
    let err = service
        .add_batch_with_token("t", &batch, tok(5, 1))
        .unwrap_err();
    assert!(matches!(err, ReqError::Io(_)), "{err:?}");
    assert_eq!(n_of(&service), 3, "appended record must apply");

    // The ambiguous client retries — and must not double-ingest.
    plane.set_armed(false);
    assert_eq!(
        service
            .add_batch_with_token("t", &batch, tok(5, 1))
            .unwrap(),
        3
    );
    assert_eq!(n_of(&service), 3);

    // The record reached the file, so a crashed replay also counts it once.
    drop(service);
    let mut reopen_cfg = cfg(&dir);
    reopen_cfg.fsync = true;
    let service = QuantileService::open(reopen_cfg).unwrap();
    assert_eq!(n_of(&service), 3);
    assert_eq!(
        service
            .add_batch_with_token("t", &batch, tok(5, 1))
            .unwrap(),
        3,
        "dedup window must survive the crash too"
    );
    assert_eq!(n_of(&service), 3);
}

// ------------------------------------------------------- faulted ingest

/// Retry-until-acked under torn WAL appends converges on a sketch
/// value-identical to an unfaulted twin — across several fault seeds.
#[test]
fn torn_appends_with_retries_converge_value_identically() {
    for seed in [1u64, 2, 3] {
        let faulty_dir = TempDir::new("chaos-torn-f").unwrap();
        let plane =
            Arc::new(FaultPlane::new(seed).with(FaultSite::WalWrite, FaultKind::Torn, 1, 3));
        let mut svc_cfg = cfg(&faulty_dir);
        svc_cfg.faults = Some(plane.clone());
        let faulty = QuantileService::open(svc_cfg).unwrap();

        let clean_dir = TempDir::new("chaos-torn-c").unwrap();
        let clean = QuantileService::open(cfg(&clean_dir)).unwrap();

        plane.set_armed(false);
        create_t(&faulty);
        plane.set_armed(true);
        create_t(&clean);

        let mut retries = 0u64;
        for i in 0..40u64 {
            let batch: Vec<OrdF64> = (0..1 + i % 5)
                .map(|j| OrdF64((i * 100 + j) as f64))
                .collect();
            let token = tok(1, i + 1);
            let mut attempts = 0;
            loop {
                match faulty.add_batch_with_token("t", &batch, token) {
                    Ok(n) => {
                        assert_eq!(n, batch.len() as u64);
                        break;
                    }
                    Err(ReqError::Io(_)) => {
                        retries += 1;
                        attempts += 1;
                        assert!(attempts < 100, "fault schedule never let seq {i} through");
                    }
                    Err(e) => panic!("unexpected error under torn appends: {e:?}"),
                }
            }
            clean.add_batch("t", &batch).unwrap();
        }
        assert!(
            retries > 0,
            "seed {seed} injected no faults — test is vacuous"
        );
        assert!(plane.injected() > 0);

        // Crash the faulted service; recovery must see only whole frames.
        drop(faulty);
        let recovered = QuantileService::open(cfg(&faulty_dir)).unwrap();
        assert_eq!(n_of(&recovered), n_of(&clean), "seed {seed}");
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                recovered.quantile("t", q).unwrap(),
                clean.quantile("t", q).unwrap(),
                "seed {seed}, q={q}"
            );
        }
    }
}

// ----------------------------------------------------------- degradation

/// A poisoned WAL writer (torn append whose rollback also fails) flips
/// the service to read-only: queries answer, mutations refuse, and the
/// next successful snapshot rotation heals it.
#[test]
fn poisoned_wal_degrades_to_read_only_until_snapshot_heals() {
    let dir = TempDir::new("chaos-ro").unwrap();
    let plane = Arc::new(
        FaultPlane::new(4)
            .with(FaultSite::WalWrite, FaultKind::Torn, 1, 1)
            .with(FaultSite::WalRollback, FaultKind::Error, 1, 1),
    );
    plane.set_armed(false);
    let mut svc_cfg = cfg(&dir);
    svc_cfg.faults = Some(plane.clone());
    let service = QuantileService::open(svc_cfg).unwrap();
    create_t(&service);
    service.add_batch("t", &[OrdF64(1.0), OrdF64(2.0)]).unwrap();

    plane.set_armed(true);
    let err = service.add_batch("t", &[OrdF64(3.0)]).unwrap_err();
    assert!(matches!(err, ReqError::Io(_)), "{err:?}");
    assert!(
        service.read_only(),
        "failed rollback must poison the writer"
    );
    assert_eq!(service.wal_poisoned(), 1);
    assert!(service.stats("t").unwrap().read_only);

    // Degraded mode: mutations refuse fast, queries still answer.
    plane.set_armed(false);
    let err = service.add_batch("t", &[OrdF64(4.0)]).unwrap_err();
    assert!(matches!(err, ReqError::Unavailable(_)), "{err:?}");
    let err = service.drop_key_with_token("t", tok(2, 1)).unwrap_err();
    assert!(matches!(err, ReqError::Unavailable(_)), "{err:?}");
    assert_eq!(service.rank("t", 10.0).unwrap(), 2);
    assert_eq!(n_of(&service), 2);

    // Healing: a snapshot rotation installs a fresh WAL writer.
    service.snapshot_now().unwrap();
    assert!(!service.read_only());
    service.add_batch("t", &[OrdF64(5.0)]).unwrap();
    assert_eq!(n_of(&service), 3);
    assert!(!service.stats("t").unwrap().read_only);

    // And the healed state is durable.
    drop(service);
    let recovered = QuantileService::open(cfg(&dir)).unwrap();
    assert_eq!(n_of(&recovered), 3);
}

/// Over the in-flight mutation limit, requests shed with `Busy` (no side
/// effect) instead of queueing — and every accepted batch still lands.
#[test]
fn over_limit_mutations_shed_with_busy() {
    let dir = TempDir::new("chaos-shed").unwrap();
    // Delay every WAL append ~1ms so in-flight windows overlap reliably.
    let plane = Arc::new(FaultPlane::new(6).with(FaultSite::WalWrite, FaultKind::Delay(1), 1, 1));
    let mut svc_cfg = cfg(&dir);
    svc_cfg.max_inflight_mutations = 1;
    svc_cfg.faults = Some(plane.clone());
    plane.set_armed(false);
    let service = Arc::new(QuantileService::open(svc_cfg).unwrap());
    create_t(&service);
    plane.set_armed(true);

    let threads = 8;
    let per_thread = 60u64;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let accepted: u64 = std::thread::scope(|scope| {
        (0..threads)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut ok = 0u64;
                    for i in 0..per_thread {
                        match service.add_batch("t", &[OrdF64(i as f64)]) {
                            Ok(1) => ok += 1,
                            Ok(n) => panic!("batch of 1 acked {n}"),
                            Err(ReqError::Busy(_)) => {}
                            Err(e) => panic!("only Busy may fail here: {e:?}"),
                        }
                    }
                    ok
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });

    let shed = service.shed_requests();
    assert_eq!(accepted + shed, threads as u64 * per_thread);
    assert!(shed > 0, "8 threads against limit 1 must shed");
    assert_eq!(
        n_of(&service),
        accepted,
        "a shed request must have no side effect"
    );
    assert_eq!(service.stats("t").unwrap().shed, shed);
}
