//! The durable quantile service: registry + WAL + snapshots, tied together.
//!
//! ## Write path
//!
//! `CREATE`, `ADDB` and `DROP` all pass one funnel, which holds in order:
//! an in-flight permit, the service **gate** (shared/read side — lets the
//! snapshotter quiesce writers), and for a tokened mutation its client's
//! **dedup window**, which answers a retry with the recorded outcome. Only
//! then does the verb log and apply: `ADDB` under the tenant's **op lock**
//! (keeps WAL order equal to apply order per tenant), `CREATE` and `DROP`
//! under the registry's map lock, each briefly holding the **WAL
//! appender**. The record is durable *before* the in-memory sketch sees it
//! — a crash between the two replays the record on recovery, landing on
//! the same state.
//!
//! ## Snapshot = checkpoint + rotate
//!
//! [`QuantileService::snapshot_now`] takes the gate exclusively (waiting
//! out in-flight mutations), creates `wal-<g+1>.log`, checkpoints every
//! tenant ([`req_core::ConcurrentReqSketch::checkpoint`] — which *swaps
//! the live shards onto their own serialization*, unifying durable and
//! in-memory state), writes `snap-<g+1>.snap` atomically, switches appends
//! to the new WAL, and deletes older generations. Queries keep running
//! throughout, except on a tenant while its own shards are swapped; only
//! writers pause.
//!
//! ## Recovery = latest valid snapshot + WAL tail
//!
//! [`QuantileService::open`] loads the newest snapshot that passes all its
//! checksums, rebuilds each tenant from its exact shard bytes (and
//! round-robin rotation), then replays every WAL generation ≥ the
//! snapshot's, tolerating a torn final frame (truncated before appending
//! resumes). Because checkpoints unified durable and live state, and WAL
//! replay re-applies the exact post-checkpoint batches in order, a
//! recovered service is **value-identical** to one that never crashed —
//! not merely within the sketch's error guarantee. Experiment E16 and the
//! `recovery` proptests assert this end to end. (The one degraded path:
//! if the newest snapshot itself is unreadable — bit rot, not a torn
//! write — recovery falls back to the retained previous generation and
//! replays both WAL files forward: no data is lost, but the fallback
//! replay never re-executes the lost checkpoint's RNG swap, so answers
//! are then merely within-guarantee rather than bit-identical.)
//!
//! ## Module map
//!
//! Here: the service type, recovery, the write funnel and the reads. The
//! WAL's fsync policy lives in [`crate::wal`], the dedup windows in
//! `dedup`, replication (`TAIL`, frame replay) in `follower`, and snapshot
//! orchestration beside the format in [`crate::snapshot`].

use parking_lot::RwLock;
use req_core::{ConcurrentReqSketch, OrdF64, ReqError};
use sketch_traits::SpaceUsage;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::{validate_key, Accuracy, ServiceConfig, TenantConfig};
use crate::dedup::{ClientWindow, DedupCheck, DedupTable};
use crate::protocol::binary::{MAX_MESSAGE_PAYLOAD, TAIL_REPLY_ENVELOPE};
use crate::protocol::IdemToken;
use crate::registry::{Registry, Tenant};
use crate::snapshot::{latest_valid, wal_gens, wal_path, AppliedOutcome};
use crate::wal::{
    encode_add_batch, encode_create, encode_drop, read_wal, LogOutcome, Wal, WalRecord, WalWriter,
    ADD_BATCH_MAX_OVERHEAD, WAL_MAGIC,
};

/// Take the data dir's exclusive OS lock on its `LOCK` file. Two live
/// services on one dir would tear each other's WAL frames and silently
/// lose acknowledged writes. The kernel drops the lock when its holder
/// exits, however it exits, so a restart never trips over the remains of
/// a crash, whatever pid it gets.
fn acquire_dir_lock(dir: &std::path::Path) -> Result<std::fs::File, ReqError> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join("LOCK"))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(ReqError::Io(format!(
            "data dir {} is locked by a live service — a second service on the same \
             directory would corrupt the WAL",
            dir.display()
        ))),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// Most values one `AddBatch` record may carry. Every record the primary
/// logs must be one a standby can fetch: a [`QuantileService::tail`]
/// reply carrying the record alone — [`TAIL_REPLY_ENVELOPE`] plus the
/// framed record, at most [`ADD_BATCH_MAX_OVERHEAD`] plus 8 bytes per
/// value — must fit one [`MAX_MESSAGE_PAYLOAD`] binary message, or the
/// shipper could never deframe it and would retry forever. (This also
/// keeps the record far inside the [`req_core::frame::MAX_FRAME_PAYLOAD`]
/// recovery reads.)
pub const MAX_BATCH_VALUES: usize =
    (MAX_MESSAGE_PAYLOAD - TAIL_REPLY_ENVELOPE - ADD_BATCH_MAX_OVERHEAD) / 8;

/// Refuse a quantile rank outside `[0, 1]` (NaN included) with the error
/// a served `QUANTILE` replies with. Every quantile entry point calls it
/// before touching a tenant, so a bad rank is reported before an unknown
/// key.
pub fn check_quantile_rank(q: f64) -> Result<(), ReqError> {
    if (0.0..=1.0).contains(&q) {
        Ok(())
    } else {
        Err(ReqError::InvalidParameter(format!(
            "quantile rank {q} outside [0, 1]"
        )))
    }
}

/// What [`QuantileService::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from, if any.
    pub snapshot_gen: Option<u64>,
    /// Snapshot generations that failed validation and were skipped.
    pub skipped_snapshots: Vec<u64>,
    /// WAL files replayed (≥ the snapshot generation).
    pub wal_files_replayed: usize,
    /// Records re-applied from those files.
    pub records_replayed: u64,
    /// Bytes discarded past the last valid frame (torn tail / corruption).
    pub damaged_bytes: u64,
}

/// Live per-tenant statistics (the `STATS` reply).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Items ingested.
    pub n: u64,
    /// Items retained across shards' merged snapshot.
    pub retained: u64,
    /// Heap footprint of the merged snapshot, bytes
    /// ([`SpaceUsage::size_bytes`]).
    pub bytes: u64,
    /// Section size `k` of the merged snapshot.
    pub k: u32,
    /// Ingest shard count.
    pub shards: u32,
    /// High-rank orientation?
    pub hra: bool,
    /// Adaptive schedule?
    pub adaptive: bool,
    /// Round-robin rotation (ops routed so far).
    pub rotation: u64,
    /// Service-wide: automatic snapshot attempts that failed.
    pub snapshot_failures: u64,
    /// Service-wide: times the WAL writer poisoned (entered read-only).
    pub wal_poisoned: u64,
    /// Service-wide: mutations shed under the in-flight limit.
    pub shed: u64,
    /// Service-wide: currently serving in read-only degraded mode?
    pub read_only: bool,
}

impl fmt::Display for TenantStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} retained={} bytes={} k={} shards={} orient={} schedule={} rotation={} \
             snapshot_failures={} wal_poisoned={} shed={} mode={}",
            self.n,
            self.retained,
            self.bytes,
            self.k,
            self.shards,
            if self.hra { "hra" } else { "lra" },
            if self.adaptive {
                "adaptive"
            } else {
                "standard"
            },
            self.rotation,
            self.snapshot_failures,
            self.wal_poisoned,
            self.shed,
            if self.read_only { "ro" } else { "rw" },
        )
    }
}

/// Releases one in-flight-mutation slot on drop (no-op when shedding is
/// disabled).
struct InflightPermit<'a> {
    counter: Option<&'a AtomicU64>,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.counter {
            c.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Cached handles into the global telemetry registry. Registration takes
/// the registry's name-table lock, so it happens once, in
/// [`QuantileService::open`] (cold path); the hot paths touch only the
/// handles' atomics/shard locks. The WAL's own series live on [`Wal`].
#[derive(Debug)]
pub(crate) struct ServiceTelemetry {
    pub(crate) snapshot_micros: req_telemetry::Histogram,
    mutations_shed: req_telemetry::Counter,
    dedup_hits: req_telemetry::Counter,
    dedup_misses: req_telemetry::Counter,
    dedup_stale: req_telemetry::Counter,
}

/// The durable, multi-tenant quantile service (in-process core; requests
/// reach it through [`crate::execute()`], which the `req-evented` server
/// calls for every message).
#[derive(Debug)]
pub struct QuantileService {
    pub(crate) cfg: ServiceConfig,
    pub(crate) registry: Registry,
    /// Writers hold `read()`, the snapshotter holds `write()` while it
    /// checkpoints + rotates — so a snapshot never splits a mutation's
    /// `[append → apply]` window.
    pub(crate) gate: RwLock<()>,
    /// The live generation's appender and its fsync policy.
    pub(crate) wal: Wal,
    pub(crate) gen: AtomicU64,
    /// Records in the live WAL generation (replayed + appended) — the
    /// deterministic trigger for `snapshot_every_records`.
    pub(crate) records_in_gen: AtomicU64,
    pub(crate) snapshots_written: AtomicU64,
    pub(crate) snapshot_failures: AtomicU64,
    /// Per-client idempotency windows (persisted via snapshot + WAL
    /// tokens, so retries dedup across crash recovery).
    pub(crate) dedup: DedupTable,
    /// Serving in read-only degraded mode (WAL writer poisoned)?
    /// Mutations get `Unavailable`; queries keep answering. Cleared when
    /// a snapshot rotation installs a fresh WAL writer.
    pub(crate) read_only: AtomicBool,
    /// Times the WAL writer poisoned (read-only entries, cumulative).
    wal_poisoned: AtomicU64,
    /// In-flight mutations right now (only tracked when shedding is on).
    inflight: AtomicU64,
    /// Mutations shed with `Busy` under `max_inflight_mutations`.
    shed: AtomicU64,
    /// Replication follower mode: client mutations are refused with
    /// `Unavailable` while [`Self::replicate_frames`] keeps applying the
    /// primary's shipped WAL frames; queries answer (bounded-lag reads).
    /// Promotion flips it off and the node starts accepting writes.
    pub(crate) follower: AtomicBool,
    recovery: RecoveryReport,
    pub(crate) telemetry: ServiceTelemetry,
    /// Drawn at every open, so the shard versions a versioned `MERGE`
    /// names ([`crate::ShardVersions`]) differ across restarts and between
    /// a primary and the standby promoted in its place.
    pub(crate) incarnation: u64,
    /// The data dir's OS lock, held while this file stays open.
    _dir_lock: std::fs::File,
}

impl QuantileService {
    /// Open (or create) the service rooted at `cfg.data_dir`, running
    /// crash recovery: load the latest valid snapshot, replay the WAL
    /// tail, truncate any torn frame, and resume the live generation.
    pub fn open(cfg: ServiceConfig) -> Result<Self, ReqError> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let dir_lock = acquire_dir_lock(&cfg.data_dir)?;
        // Sweep *.tmp stragglers from snapshots a crash interrupted
        // mid-write — rename never promoted them, and nothing else would
        // ever reclaim the space.
        for entry in std::fs::read_dir(&cfg.data_dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                let _ = std::fs::remove_file(&path);
            }
        }
        let registry = Registry::new();
        let dedup = DedupTable::new(cfg.dedup_window);
        let mut report = RecoveryReport::default();

        let (snap, skipped) = latest_valid(&cfg.data_dir)?;
        report.skipped_snapshots = skipped;
        let base_gen = match &snap {
            Some(data) => {
                report.snapshot_gen = Some(data.gen);
                data.gen
            }
            None => 0,
        };
        if let Some(data) = snap {
            dedup.restore(&data.dedup);
            for t in data.tenants {
                let sketch = ConcurrentReqSketch::from_checkpoint(&t.shards, t.rotation)?;
                registry.create_from_snapshot(Tenant::from_parts(t.key, t.config, sketch))?;
            }
        }

        // Replay every WAL generation from the snapshot point forward.
        // Normally that is exactly one file; older generations only join
        // in when the newest snapshot was skipped as invalid (rotation
        // keeps one prior generation around exactly for that fallback).
        let mut live_gen = base_gen;
        let mut live_valid_len = 0u64;
        let mut live_records = 0u64;
        let mut gens: Vec<u64> = wal_gens(&cfg.data_dir)?
            .into_iter()
            .filter(|&g| g >= base_gen)
            .collect();
        // A rotation interrupted between creating `wal-<g+1>` and writing
        // `snap-<g+1>` leaves that WAL empty above the snapshot point. It
        // holds no record; kept, it would make a torn `wal-<g>` tail look
        // like damage mid-history.
        while let Some(&g) = gens.last() {
            let path = wal_path(&cfg.data_dir, g);
            if g == base_gen || std::fs::metadata(&path)?.len() > WAL_MAGIC.len() as u64 {
                break;
            }
            let _ = std::fs::remove_file(&path);
            gens.pop();
        }
        for (i, &g) in gens.iter().enumerate() {
            let replay = read_wal(&wal_path(&cfg.data_dir, g))?;
            // Damage in the *final* generation is the expected torn tail
            // of the crash. A hole in an earlier generation with later
            // generations still to replay would silently skip records in
            // the middle of history — ordering is part of the state, so
            // refuse instead of applying the later files on top.
            if replay.damaged_bytes > 0 && i + 1 < gens.len() {
                return Err(ReqError::CorruptBytes(format!(
                    "WAL generation {g} is damaged mid-history ({} bytes) with {} later \
                     generation(s) present; refusing to replay past the hole",
                    replay.damaged_bytes,
                    gens.len() - i - 1
                )));
            }
            report.wal_files_replayed += 1;
            report.records_replayed += replay.records.len() as u64;
            report.damaged_bytes += replay.damaged_bytes;
            live_gen = g;
            live_valid_len = replay.valid_len;
            live_records = replay.records.len() as u64;
            for rec in replay.records {
                Self::apply(&registry, &dedup, rec)?;
            }
        }

        let wal_file = wal_path(&cfg.data_dir, live_gen);
        let mut writer = if gens.is_empty() {
            WalWriter::create(&wal_file)?
        } else {
            WalWriter::open_truncated(&wal_file, live_valid_len)?
        };
        writer.set_faults(cfg.faults.clone());

        let t = req_telemetry::global();
        let service = QuantileService {
            registry,
            dedup,
            gate: RwLock::new(()),
            wal: Wal::new(writer, cfg.fsync),
            gen: AtomicU64::new(live_gen),
            records_in_gen: AtomicU64::new(live_records),
            snapshots_written: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
            wal_poisoned: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            follower: AtomicBool::new(false),
            recovery: report,
            telemetry: ServiceTelemetry {
                snapshot_micros: t.histogram("service_snapshot_micros"),
                mutations_shed: t.counter("service_mutations_shed_total"),
                dedup_hits: t.counter("service_dedup_hits_total"),
                dedup_misses: t.counter("service_dedup_misses_total"),
                dedup_stale: t.counter("service_dedup_stale_rejects_total"),
            },
            incarnation: crate::client::fresh_client_id(),
            cfg,
            _dir_lock: dir_lock,
        };
        // If the crash interrupted a due snapshot, take it now — this
        // re-executes the checkpoint swap at the same record index the
        // uninterrupted timeline executed it, keeping recovery
        // value-identical even across that corner.
        service.maybe_snapshot();
        Ok(service)
    }

    /// Replay-side application of one WAL record (no logging, no gate).
    /// Tokens found on replayed records are re-recorded into the dedup
    /// windows, so a client retrying across the crash still dedups.
    pub(crate) fn apply(
        registry: &Registry,
        dedup: &DedupTable,
        rec: WalRecord,
    ) -> Result<(), ReqError> {
        let token = rec.token();
        let outcome = match rec {
            WalRecord::Create { key, config, .. } => {
                registry.create_with(&key, config, || Ok(()))?;
                AppliedOutcome::Created
            }
            WalRecord::AddBatch { key, values, .. } => {
                let tenant = registry.get(&key).ok_or_else(|| {
                    ReqError::CorruptBytes(format!("WAL ingests into unknown key `{key}`"))
                })?;
                tenant.sketch.update_batch(&values);
                AppliedOutcome::Added(values.len() as u64)
            }
            WalRecord::Drop { key, .. } => {
                registry.drop_with(&key, || Ok(()))?;
                AppliedOutcome::Dropped
            }
        };
        if let Some(token) = token {
            dedup.record_replayed(token, outcome);
        }
        Ok(())
    }

    /// What recovery found when this instance opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// This open's incarnation, the first part of every shard version it
    /// serves ([`crate::ShardVersions`]).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The directory holding this service's WAL and snapshot files.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.cfg.data_dir
    }

    /// The live WAL generation.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Relaxed)
    }

    /// Snapshots written by this instance.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written.load(Ordering::Relaxed)
    }

    /// Records in the live WAL generation.
    pub fn records_in_generation(&self) -> u64 {
        self.records_in_gen.load(Ordering::Relaxed)
    }

    pub(crate) fn tenant(&self, key: &str) -> Result<Arc<Tenant>, ReqError> {
        self.registry
            .get(key)
            .ok_or_else(|| ReqError::InvalidParameter(format!("no such key `{key}`")))
    }

    /// Log one frame through the [`Wal`]. A failed append that poisoned
    /// the writer trips read-only degraded mode (idempotent; counts first
    /// entries) until a rotation installs a fresh writer.
    pub(crate) fn append_wal(&self, frame: &[u8]) -> Result<LogOutcome, ReqError> {
        let logged = self.wal.append(frame);
        if logged.is_err() && self.wal.poisoned() && !self.read_only.swap(true, Ordering::SeqCst) {
            self.wal_poisoned.fetch_add(1, Ordering::Relaxed);
            req_telemetry::global().event(
                "wal_poisoned",
                format!(
                    "gen={} serving read-only until rotation heals the writer",
                    self.gen.load(Ordering::Relaxed)
                ),
            );
        }
        logged
    }

    /// Total WAL records appended by this instance (all generations).
    pub fn wal_appends(&self) -> u64 {
        self.wal.appends()
    }

    /// Physical WAL `fsync` calls issued by this instance. With
    /// `fsync: true`, group commit lets this trail [`Self::wal_appends`]
    /// when writers overlap; a lone writer pays one per append.
    pub fn wal_syncs(&self) -> u64 {
        self.wal.syncs()
    }

    /// Admission control for mutations: refuse in read-only mode, shed
    /// when the in-flight limit is hit; otherwise hand out a permit that
    /// releases its slot on drop.
    fn mutation_permit(&self) -> Result<InflightPermit<'_>, ReqError> {
        if self.follower.load(Ordering::SeqCst) {
            return Err(ReqError::Unavailable(
                "node is a replication follower; mutations apply on the primary — \
                 retry there (or here after promotion)"
                    .into(),
            ));
        }
        if self.read_only.load(Ordering::SeqCst) {
            return Err(ReqError::Unavailable(
                "service is read-only (WAL writer poisoned); queries still answer — \
                 mutations resume after the next successful snapshot rotation"
                    .into(),
            ));
        }
        let max = self.cfg.max_inflight_mutations;
        if max == 0 {
            return Ok(InflightPermit { counter: None });
        }
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        if now > max {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.telemetry.mutations_shed.inc();
            return Err(ReqError::Busy(format!(
                "load shed: {now} in-flight mutations exceed the limit of {max}; retry \
                 after backoff"
            )));
        }
        Ok(InflightPermit {
            counter: Some(&self.inflight),
        })
    }

    /// Resolve `token` against its client's **already locked** window.
    /// `Ok(None)` means fresh (proceed, then `record` under the same
    /// guard); `Ok(Some(outcome))` means duplicate (answer without
    /// re-applying). The caller holds the guard across the whole
    /// `[check → append → apply → record]`, so a racing retry of the
    /// same seq serializes behind it and then observes the duplicate.
    fn dedup_check(
        &self,
        win: Option<&ClientWindow>,
        token: Option<IdemToken>,
    ) -> Result<Option<AppliedOutcome>, ReqError> {
        let (Some(win), Some(token)) = (win, token) else {
            return Ok(None);
        };
        match win.check(token.seq, self.dedup.window) {
            DedupCheck::Fresh => {
                self.telemetry.dedup_misses.inc();
                Ok(None)
            }
            DedupCheck::Duplicate(outcome) => {
                self.telemetry.dedup_hits.inc();
                Ok(Some(outcome))
            }
            DedupCheck::Stale => {
                self.telemetry.dedup_stale.inc();
                req_telemetry::global().event("dedup_stale_reject", format!("token={token}"));
                Err(ReqError::InvalidParameter(format!(
                    "idempotency token {token} fell out of the {}-op dedup window; \
                     its outcome is unknowable",
                    self.dedup.window
                )))
            }
        }
    }

    /// The one exactly-once write path. In order: an in-flight permit, the
    /// gate (shared), and for a tokened mutation its client's dedup
    /// window, locked until the outcome is recorded so a racing retry of
    /// the same seq serializes behind it and then sees the duplicate. A
    /// duplicate answers with the recorded outcome if it was recorded for
    /// this verb (`outcome`'s variant; `Added(n)` echoes the recorded `n`)
    /// and fails otherwise. A fresh mutation runs `log_and_apply` — the
    /// verb's WAL append and in-memory apply — and records `outcome`; an
    /// append whose fsync failed is applied and recorded before its error
    /// surfaces, so the client's retry dedups. The gate and the window are
    /// released before the snapshot trigger: rotation takes the gate
    /// exclusively and locks every window, and neither lock is reentrant.
    fn exactly_once(
        &self,
        token: Option<IdemToken>,
        outcome: AppliedOutcome,
        log_and_apply: impl FnOnce() -> Result<LogOutcome, ReqError>,
    ) -> Result<AppliedOutcome, ReqError> {
        let _permit = self.mutation_permit()?;
        let log = {
            let _gate = self.gate.read();
            let win = token.map(|t| self.dedup.window_for(t.client_id));
            let mut win = win.as_ref().map(|w| w.lock());
            if let Some(recorded) = self.dedup_check(win.as_deref(), token)? {
                if std::mem::discriminant(&recorded) != std::mem::discriminant(&outcome) {
                    return Err(ReqError::InvalidParameter(format!(
                        "idempotency token {} was used for a different operation ({recorded:?})",
                        token.expect("dup implies token")
                    )));
                }
                return Ok(recorded);
            }
            let log = log_and_apply()?;
            self.records_in_gen.fetch_add(1, Ordering::Relaxed);
            if let (Some(win), Some(token)) = (win.as_deref_mut(), token) {
                win.record(token.seq, outcome, self.dedup.window);
            }
            log
        };
        self.maybe_snapshot();
        match log {
            LogOutcome::Logged => Ok(outcome),
            LogOutcome::LoggedUnsynced(e) => Err(e),
        }
    }

    /// Create tenant `key`. Fails if it exists; the configuration is
    /// validated (it must build and meet [`TenantConfig::check_new`]),
    /// logged, and only then applied.
    pub fn create(&self, key: &str, config: TenantConfig) -> Result<(), ReqError> {
        self.create_with_token(key, config, None).map(|_| ())
    }

    /// [`Self::create`] carrying an idempotency token: a retry of an
    /// already-applied `(client_id, seq)` returns the recorded outcome
    /// instead of `already exists`.
    pub fn create_with_token(
        &self,
        key: &str,
        config: TenantConfig,
        token: Option<IdemToken>,
    ) -> Result<AppliedOutcome, ReqError> {
        validate_key(key)?;
        self.exactly_once(token, AppliedOutcome::Created, || {
            config.check_new()?;
            let frame = encode_create(key, &config, &token);
            self.registry
                .create_with(key, config, || self.append_wal(&frame))
        })
    }

    /// Ingest a batch into `key`, returning how many values landed.
    /// Empty batches are a no-op (nothing logged); batches over
    /// [`MAX_BATCH_VALUES`] are rejected (chunk them) rather than logged
    /// as a record no standby could fetch in one `TAIL` reply.
    pub fn add_batch(&self, key: &str, values: &[OrdF64]) -> Result<u64, ReqError> {
        self.add_batch_with_token(key, values, None)
    }

    /// [`Self::add_batch`] carrying an idempotency token: a retry of an
    /// already-applied `(client_id, seq)` answers with the original count
    /// without ingesting the batch a second time.
    pub fn add_batch_with_token(
        &self,
        key: &str,
        values: &[OrdF64],
        token: Option<IdemToken>,
    ) -> Result<u64, ReqError> {
        if values.is_empty() {
            return Ok(0);
        }
        if values.len() > MAX_BATCH_VALUES {
            return Err(ReqError::InvalidParameter(format!(
                "batch of {} values exceeds the per-record limit {MAX_BATCH_VALUES}; \
                 split it into smaller ADDBs",
                values.len()
            )));
        }
        let added = AppliedOutcome::Added(values.len() as u64);
        let AppliedOutcome::Added(n) = self.exactly_once(token, added, || {
            let tenant = self.tenant(key)?;
            let _op = tenant.op_lock.lock();
            // Re-check under the op lock: a concurrent DROP may have
            // logged its record after we resolved the Arc; appending an
            // AddBatch after the tenant's Drop would poison every future
            // replay.
            if tenant.dropped.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(ReqError::InvalidParameter(format!("no such key `{key}`")));
            }
            let log = self.append_wal(&encode_add_batch(key, values, &token))?;
            tenant.sketch.update_batch(values);
            Ok(log)
        })?
        else {
            unreachable!("the funnel answers ADDB only with `Added`");
        };
        Ok(n)
    }

    /// Drop tenant `key` and its data.
    pub fn drop_key(&self, key: &str) -> Result<(), ReqError> {
        self.drop_key_with_token(key, None).map(|_| ())
    }

    /// [`Self::drop_key`] carrying an idempotency token: a retry of an
    /// already-applied `(client_id, seq)` returns the recorded outcome
    /// instead of `no such key`.
    pub fn drop_key_with_token(
        &self,
        key: &str,
        token: Option<IdemToken>,
    ) -> Result<AppliedOutcome, ReqError> {
        self.exactly_once(token, AppliedOutcome::Dropped, || {
            let frame = encode_drop(key, &token);
            self.registry.drop_with(key, || self.append_wal(&frame))
        })
    }

    /// Estimated rank `|{x ≤ v}|` for tenant `key`.
    pub fn rank(&self, key: &str, v: f64) -> Result<u64, ReqError> {
        self.tenant(key)?.sketch.rank(&OrdF64(v))
    }

    /// Estimated `q`-quantile for tenant `key`; `None` while empty.
    pub fn quantile(&self, key: &str, q: f64) -> Result<Option<f64>, ReqError> {
        check_quantile_rank(q)?;
        Ok(self.tenant(key)?.sketch.quantile(q)?.map(OrdF64::get))
    }

    /// Normalized CDF of tenant `key` at ascending `points`.
    pub fn cdf(&self, key: &str, points: &[f64]) -> Result<Vec<f64>, ReqError> {
        let split: Vec<OrdF64> = points.iter().copied().map(OrdF64).collect();
        if split.windows(2).any(|w| w[0] > w[1]) {
            return Err(ReqError::InvalidParameter(
                "CDF split points must be ascending".into(),
            ));
        }
        self.tenant(key)?.sketch.cdf(&split)
    }

    /// Live statistics for tenant `key`. `retained`, `bytes` and `k`
    /// describe the shards' merged snapshot, so this is the one served read
    /// that still merges (memoized until a shard changes).
    pub fn stats(&self, key: &str) -> Result<TenantStats, ReqError> {
        let tenant = self.tenant(key)?;
        let merged = tenant.sketch.cached_snapshot()?;
        Ok(TenantStats {
            n: tenant.sketch.len(),
            retained: merged.retained() as u64,
            bytes: merged.size_bytes() as u64,
            k: merged.k(),
            shards: tenant.config.shards,
            hra: tenant.config.hra,
            adaptive: tenant.config.schedule == req_core::CompactionSchedule::Adaptive,
            rotation: tenant.sketch.rotation(),
            snapshot_failures: self.snapshot_failures(),
            wal_poisoned: self.wal_poisoned.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            read_only: self.read_only.load(Ordering::SeqCst),
        })
    }

    /// Serving in read-only degraded mode right now?
    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Times the WAL writer poisoned (read-only entries, cumulative).
    pub fn wal_poisoned(&self) -> u64 {
        self.wal_poisoned.load(Ordering::Relaxed)
    }

    /// Mutations shed with `Busy` under the in-flight limit.
    pub fn shed_requests(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// All tenant keys, sorted.
    pub fn list(&self) -> Vec<String> {
        self.registry.keys_sorted()
    }
}

/// Free helper: an accuracy envelope for test assertions — the ε the
/// tenant's policy targets, or a conservative default for fixed-`k`.
pub fn accuracy_epsilon(config: &TenantConfig) -> f64 {
    match config.accuracy {
        Accuracy::EpsDelta(eps, _) => eps,
        Accuracy::K(_) => 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{binary, Response};
    use crate::snapshot::snapshot_path;
    use crate::tempdir::TempDir;
    use std::time::Duration;

    fn svc(dir: &std::path::Path) -> QuantileService {
        QuantileService::open(ServiceConfig::new(dir)).unwrap()
    }

    fn batch(range: std::ops::Range<u64>) -> Vec<OrdF64> {
        range.map(|i| OrdF64(i as f64)).collect()
    }

    #[test]
    fn create_ingest_query_cycle() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create(
            "lat",
            TenantConfig::parse("lat", &["K=16", "SHARDS=2"]).unwrap(),
        )
        .unwrap();
        assert_eq!(s.add_batch("lat", &batch(0..10_000)).unwrap(), 10_000);
        s.add_batch("lat", &[OrdF64(424_242.0)]).unwrap();
        let stats = s.stats("lat").unwrap();
        assert_eq!(stats.n, 10_001);
        assert!(stats.retained > 0 && stats.retained <= 10_001);
        let r = s.rank("lat", 5_000.0).unwrap();
        assert!((r as f64 - 5_001.0).abs() / 5_001.0 < 0.2, "rank {r}");
        let q = s.quantile("lat", 0.5).unwrap().unwrap();
        assert!((q - 5_000.0).abs() < 1_500.0, "median {q}");
        let cdf = s.cdf("lat", &[1_000.0, 9_000.0]).unwrap();
        assert!(cdf[0] < cdf[1]);
        assert_eq!(s.list(), vec!["lat".to_string()]);
        s.drop_key("lat").unwrap();
        assert!(s.rank("lat", 1.0).is_err());
    }

    #[test]
    fn shard_versions_name_one_state_per_address() {
        let cfg = || TenantConfig::parse("t", &["K=16", "SHARDS=2"]).unwrap();
        let parts = |c: &crate::ChangedShards| -> Vec<bool> {
            c.parts.iter().map(|(_, part)| part.is_some()).collect()
        };
        let (dir_a, dir_b) = (TempDir::new("svc").unwrap(), TempDir::new("svc").unwrap());
        let a = svc(dir_a.path());
        a.create("t", cfg()).unwrap();
        a.add_batch("t", &batch(0..1_000)).unwrap();
        let held = a.changed_shards("t", None).unwrap().versions();
        assert_eq!(
            parts(&a.changed_shards("t", Some(&held)).unwrap()),
            [false, false]
        );
        // `sketch_parts` is the nothing-held case.
        let whole = a.changed_shards("t", None).unwrap();
        let bytes: Vec<Vec<u8>> = whole.parts.into_iter().map(|(_, p)| p.unwrap()).collect();
        assert_eq!(a.sketch_parts("t").unwrap(), bytes);

        // Another service whose tenant took as many writes of other values
        // sits at the same instance and epochs: only the incarnation differs.
        let b = svc(dir_b.path());
        b.create("t", cfg()).unwrap();
        b.add_batch("t", &batch(5_000..6_000)).unwrap();
        let other = b.changed_shards("t", Some(&held)).unwrap();
        assert_eq!(
            (other.instance, other.versions().epochs),
            (held.instance, held.epochs.clone())
        );
        assert_ne!(other.incarnation, held.incarnation);
        assert_eq!(parts(&other), [true, true]);

        // One value moves one shard; a checkpoint renumbers the instance.
        a.add_batch("t", &batch(1..2)).unwrap();
        let moved = a.changed_shards("t", Some(&held)).unwrap();
        assert_eq!(parts(&moved), [true, false]);
        a.snapshot_now().unwrap();
        let checkpointed = a.changed_shards("t", Some(&held)).unwrap();
        assert_ne!(checkpointed.instance, held.instance);
        assert_eq!(parts(&checkpointed), [true, true]);
        drop(a);
        let reopened = svc(dir_a.path());
        assert_ne!(reopened.incarnation(), held.incarnation);
    }

    #[test]
    fn restart_replays_wal_to_same_answers() {
        let dir = TempDir::new("svc").unwrap();
        let probes: Vec<f64> = (0..20).map(|i| i as f64 * 997.0).collect();
        let want: Vec<u64> = {
            let s = svc(dir.path());
            s.create("t", TenantConfig::for_key("t")).unwrap();
            for c in 0..10 {
                s.add_batch("t", &batch(c * 2_000..(c + 1) * 2_000))
                    .unwrap();
            }
            probes.iter().map(|&p| s.rank("t", p).unwrap()).collect()
        }; // dropped without any snapshot: pure WAL replay
        let s = svc(dir.path());
        assert_eq!(s.recovery_report().records_replayed, 11);
        assert_eq!(s.recovery_report().snapshot_gen, None);
        let got: Vec<u64> = probes.iter().map(|&p| s.rank("t", p).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(s.stats("t").unwrap().n, 20_000);
    }

    #[test]
    fn snapshot_rotates_and_restart_uses_it() {
        let dir = TempDir::new("svc").unwrap();
        let want: Vec<u64>;
        {
            let s = svc(dir.path());
            s.create("t", TenantConfig::for_key("t")).unwrap();
            s.add_batch("t", &batch(0..5_000)).unwrap();
            let g = s.snapshot_now().unwrap();
            assert_eq!(g, 1);
            s.add_batch("t", &batch(5_000..8_000)).unwrap();
            // The previous generation survives one rotation (it is the
            // corrupt-snapshot fallback), then ages out on the next.
            assert!(wal_path(dir.path(), 0).exists());
            let g = s.snapshot_now().unwrap();
            assert_eq!(g, 2);
            assert!(!wal_path(dir.path(), 0).exists());
            assert!(wal_path(dir.path(), 1).exists());
            assert!(snapshot_path(dir.path(), 1).exists());
            s.add_batch("t", &batch(8_000..8_500)).unwrap();
            want = (0..10)
                .map(|i| s.rank("t", i as f64 * 777.0).unwrap())
                .collect();
        }
        let s = svc(dir.path());
        let report = s.recovery_report();
        assert_eq!(report.snapshot_gen, Some(2));
        assert_eq!(report.records_replayed, 1, "only the post-snapshot batch");
        let got: Vec<u64> = (0..10)
            .map(|i| s.rank("t", i as f64 * 777.0).unwrap())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_one_generation_without_data_loss() {
        let dir = TempDir::new("svc").unwrap();
        {
            let s = svc(dir.path());
            s.create("t", TenantConfig::for_key("t")).unwrap();
            s.add_batch("t", &batch(0..4_000)).unwrap();
            s.snapshot_now().unwrap(); // gen 1
            s.add_batch("t", &batch(4_000..6_000)).unwrap();
            s.snapshot_now().unwrap(); // gen 2; gen-1 files retained
            s.add_batch("t", &batch(6_000..7_000)).unwrap();
        }
        // Bit-rot the newest snapshot.
        let p2 = snapshot_path(dir.path(), 2);
        let mut raw = std::fs::read(&p2).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&p2, &raw).unwrap();

        let s = svc(dir.path());
        let report = s.recovery_report();
        assert_eq!(report.snapshot_gen, Some(1), "must fall back to gen 1");
        assert_eq!(report.skipped_snapshots, vec![2]);
        assert_eq!(report.wal_files_replayed, 2, "wal-1 then wal-2");
        // Nothing was lost: every batch is present.
        assert_eq!(s.stats("t").unwrap().n, 7_000);
    }

    #[test]
    fn double_open_is_refused_but_stale_locks_are_reclaimed() {
        let dir = TempDir::new("svc").unwrap();
        let first = svc(dir.path());
        let second = QuantileService::open(ServiceConfig::new(dir.path()));
        assert!(
            matches!(second, Err(ReqError::Io(_))),
            "live lock must refuse a second instance"
        );
        drop(first);
        let third = svc(dir.path()); // clean release → reacquire
        drop(third);
        // A crash leaves the lock behind with a dead pid: reclaimable.
        std::fs::write(dir.path().join("LOCK"), "999999999").unwrap();
        let fourth = QuantileService::open(ServiceConfig::new(dir.path()));
        assert!(fourth.is_ok(), "stale lock must not brick recovery");
        drop(fourth);
        // A restart that got its predecessor's pid (PID 1 in a container)
        // finds its own pid in the leftover file.
        std::fs::write(dir.path().join("LOCK"), std::process::id().to_string()).unwrap();
        let fifth = QuantileService::open(ServiceConfig::new(dir.path()));
        assert!(fifth.is_ok(), "own-pid leftover must not brick recovery");
    }

    #[test]
    fn oversized_batches_are_rejected_before_logging() {
        // The bound is exactly what one TAIL reply can carry around the
        // largest record.
        let reply = |n: usize| TAIL_REPLY_ENVELOPE + ADD_BATCH_MAX_OVERHEAD + 8 * n;
        assert!(reply(MAX_BATCH_VALUES) <= MAX_MESSAGE_PAYLOAD);
        assert!(reply(MAX_BATCH_VALUES + 1) > MAX_MESSAGE_PAYLOAD);
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        let before = s.wal_watermark();
        let token = Some(IdemToken {
            client_id: 3,
            seq: 1,
        });
        let err = s
            .add_batch_with_token("t", &batch(0..MAX_BATCH_VALUES as u64 + 1), token)
            .unwrap_err();
        assert!(matches!(err, ReqError::InvalidParameter(_)), "{err:?}");
        assert_eq!(s.wal_watermark(), before, "nothing logged");
        // Nor was the token recorded: its first accepted use applies.
        assert_eq!(s.add_batch_with_token("t", &batch(0..3), token).unwrap(), 3);
        assert_eq!(s.stats("t").unwrap().n, 3);
    }

    #[test]
    fn orphaned_tmp_snapshots_are_swept_on_open() {
        let dir = TempDir::new("svc").unwrap();
        let tmp = dir.path().join("snap-0000000009.snap.tmp");
        std::fs::write(&tmp, b"half-written").unwrap();
        let _s = svc(dir.path());
        assert!(!tmp.exists(), "open() must reclaim interrupted snapshots");
    }

    #[test]
    fn racing_drop_and_ingest_never_poison_the_wal() {
        // Hammer DROP/CREATE against concurrent ADDB on the same key; the
        // WAL must stay replayable (an AddBatch after its tenant's Drop
        // would make recovery fail forever).
        let dir = TempDir::new("svc").unwrap();
        {
            let s = svc(dir.path());
            s.create("k", TenantConfig::for_key("k")).unwrap();
            std::thread::scope(|scope| {
                let svc_ref = &s;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let _ = svc_ref.add_batch("k", &batch(0..50));
                    }
                });
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _ = svc_ref.drop_key("k");
                        let _ = svc_ref.create("k", TenantConfig::for_key("k"));
                    }
                });
            });
        }
        // The only acceptance: recovery replays cleanly.
        let s = svc(dir.path());
        assert!(s.recovery_report().records_replayed > 0);
    }

    #[test]
    fn record_count_trigger_snapshots_automatically() {
        let dir = TempDir::new("svc").unwrap();
        let mut cfg = ServiceConfig::new(dir.path());
        cfg.snapshot_every_records = 4;
        let s = QuantileService::open(cfg).unwrap();
        s.create("t", TenantConfig::for_key("t")).unwrap();
        for c in 0..7 {
            s.add_batch("t", &batch(c * 100..(c + 1) * 100)).unwrap();
        }
        // 8 records: trigger fired at 4 and 8.
        assert_eq!(s.snapshots_written(), 2);
        assert_eq!(s.generation(), 2);
        assert_eq!(s.records_in_generation(), 0);
    }

    #[test]
    fn empty_batch_is_not_logged() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        assert_eq!(s.add_batch("t", &[]).unwrap(), 0);
        assert_eq!(s.records_in_generation(), 1, "only the CREATE");
    }

    #[test]
    fn errors_surface_cleanly() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        assert!(s.rank("ghost", 1.0).is_err());
        assert!(s.add_batch("ghost", &batch(0..5)).is_err());
        assert!(s.drop_key("ghost").is_err());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        assert!(s.create("t", TenantConfig::for_key("t")).is_err());
        assert!(s.quantile("t", 1.5).is_err());
        assert!(s.cdf("t", &[3.0, 1.0]).is_err());
        assert!(s.create("bad key!", TenantConfig::for_key("x")).is_err());
        // An empty tenant answers quantile with None and rank 0.
        assert_eq!(s.quantile("t", 0.5).unwrap(), None);
        assert_eq!(s.rank("t", 10.0).unwrap(), 0);
    }

    #[test]
    fn stats_wire_roundtrip() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create(
            "t",
            TenantConfig::parse("t", &["K=8", "LRA", "SHARDS=3"]).unwrap(),
        )
        .unwrap();
        s.add_batch("t", &batch(0..1_000)).unwrap();
        let stats = s.stats("t").unwrap();
        let framed = binary::encode_response(&Response::Stats(stats.clone()));
        let (payload, _) = binary::try_deframe(&framed, 0).unwrap().unwrap();
        let Response::Stats(parsed) = binary::decode_response(payload).unwrap() else {
            panic!("not a STATS reply");
        };
        assert_eq!(parsed, stats);
        assert!(!parsed.hra);
        assert_eq!(parsed.shards, 3);
    }

    #[test]
    fn background_snapshotter_runs_and_stops() {
        let dir = TempDir::new("svc").unwrap();
        let s = Arc::new(svc(dir.path()));
        s.create("t", TenantConfig::for_key("t")).unwrap();
        s.add_batch("t", &batch(0..100)).unwrap();
        let snapper = s.spawn_snapshotter(Duration::from_millis(20));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.snapshots_written() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(s.snapshots_written() >= 1, "snapshotter never fired");
        drop(snapper); // must stop and join without hanging
        let after = s.snapshots_written();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(s.snapshots_written(), after, "thread kept running");
    }

    /// Pump the primary's WAL into the follower until the follower's
    /// watermark matches: the loop a TailShipper runs, inlined.
    fn catch_up(primary: &QuantileService, follower: &QuantileService) {
        loop {
            let (gen, len) = follower.wal_watermark();
            let seg = primary.tail(gen, len, 1 << 20).unwrap();
            if !seg.frames.is_empty() {
                follower.replicate_frames(&seg.frames).unwrap();
                continue;
            }
            if seg.sealed {
                follower.rotate_generation().unwrap();
                continue;
            }
            break;
        }
    }

    #[test]
    fn follower_refuses_mutations_until_promoted() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        s.set_follower(true);
        assert!(s.is_follower());
        let err = s.add_batch("t", &batch(1..2)).unwrap_err();
        assert!(matches!(err, ReqError::Unavailable(_)), "got {err:?}");
        assert!(s.create("u", TenantConfig::for_key("u")).is_err());
        // Bounded-lag reads keep answering on a follower.
        assert_eq!(s.rank("t", 1.0).unwrap(), 0);
        s.set_follower(false); // promotion
        s.add_batch("t", &batch(1..2)).unwrap();
        assert_eq!(s.stats("t").unwrap().n, 1);
    }

    #[test]
    fn replication_reaches_byte_identical_state() {
        let pdir = TempDir::new("svc-p").unwrap();
        let fdir = TempDir::new("svc-f").unwrap();
        let p = svc(pdir.path());
        let f = svc(fdir.path());
        f.set_follower(true);
        p.create(
            "t",
            TenantConfig::parse("t", &["K=16", "SHARDS=2"]).unwrap(),
        )
        .unwrap();
        for c in 0..8u64 {
            p.add_batch("t", &batch(c * 1_000..(c + 1) * 1_000))
                .unwrap();
            catch_up(&p, &f);
            // Byte identity at every shipped watermark: serialized shard
            // state (v3 bytes incl. RNG reseed draws) and the WAL file.
            assert_eq!(f.sketch_parts("t").unwrap(), p.sketch_parts("t").unwrap());
            assert_eq!(f.wal_watermark(), p.wal_watermark());
        }
        let p_wal = std::fs::read(wal_path(pdir.path(), 0)).unwrap();
        let f_wal = std::fs::read(wal_path(fdir.path(), 0)).unwrap();
        assert_eq!(p_wal, f_wal, "replicated WAL is not byte-identical");
        // Promote and verify the follower serves the same answers.
        f.set_follower(false);
        for probe in [0.0, 1_999.0, 4_000.5, 7_999.0] {
            assert_eq!(f.rank("t", probe).unwrap(), p.rank("t", probe).unwrap());
        }
        assert_eq!(f.stats("t").unwrap().n, 8_000);
    }

    #[test]
    fn replication_stays_identical_across_snapshot_rotation() {
        let pdir = TempDir::new("svc-p").unwrap();
        let fdir = TempDir::new("svc-f").unwrap();
        let p = svc(pdir.path());
        let f = svc(fdir.path());
        f.set_follower(true);
        p.create("t", TenantConfig::for_key("t")).unwrap();
        p.add_batch("t", &batch(0..5_000)).unwrap();
        // Primary rotates: checkpoint (shard swap) + new WAL generation.
        // The follower must mirror the seal at the same record index for
        // the deterministic shard-swap transition to line up.
        assert_eq!(p.snapshot_now().unwrap(), 1);
        p.add_batch("t", &batch(5_000..9_000)).unwrap();
        catch_up(&p, &f);
        assert_eq!(f.wal_watermark(), p.wal_watermark());
        assert_eq!(f.sketch_parts("t").unwrap(), p.sketch_parts("t").unwrap());
        for g in 0..=1u64 {
            let p_wal = std::fs::read(wal_path(pdir.path(), g)).unwrap();
            let f_wal = std::fs::read(wal_path(fdir.path(), g)).unwrap();
            assert_eq!(p_wal, f_wal, "generation {g} WAL diverged");
        }
        // The mirrored rotation also wrote a byte-identical snapshot.
        let p_snap = std::fs::read(snapshot_path(pdir.path(), 1)).unwrap();
        let f_snap = std::fs::read(snapshot_path(fdir.path(), 1)).unwrap();
        assert_eq!(p_snap, f_snap, "snapshot diverged");
    }

    #[test]
    fn tail_rejects_unknown_generation_and_bad_offsets() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        assert!(matches!(
            s.tail(7, 0, 1 << 20),
            Err(ReqError::InvalidParameter(_))
        ));
        assert!(matches!(
            s.tail(0, 3, 1 << 20), // inside the magic header
            Err(ReqError::InvalidParameter(_))
        ));
        assert!(matches!(
            s.tail(0, 1 << 40, 1 << 20), // past end of file
            Err(ReqError::InvalidParameter(_))
        ));
        // A fully caught-up cursor yields an empty, unsealed segment.
        let (gen, len) = s.wal_watermark();
        let seg = s.tail(gen, len, 1 << 20).unwrap();
        assert!(seg.frames.is_empty() && !seg.sealed);
        assert_eq!(seg.latest_gen, gen);
    }

    #[test]
    fn tail_always_ships_at_least_one_frame() {
        let dir = TempDir::new("svc").unwrap();
        let s = svc(dir.path());
        s.create("t", TenantConfig::for_key("t")).unwrap();
        s.add_batch("t", &batch(0..2_000)).unwrap(); // one big frame
        let seg = s.tail(0, 0, 1).unwrap(); // 1-byte budget
        assert!(
            !seg.frames.is_empty(),
            "an oversized frame must not wedge the stream"
        );
        // And the shipped bytes are whole frames: a follower applies them.
        let fdir = TempDir::new("svc-f").unwrap();
        let f = svc(fdir.path());
        f.set_follower(true);
        assert_eq!(f.replicate_frames(&seg.frames).unwrap(), 1);
    }

    #[test]
    fn configs_past_the_create_limit_still_replicate_and_recover() {
        // A new `CREATE` refuses these, but state written before the limit
        // existed may hold them: a standby applies them, and WAL replay and
        // snapshot load bring them back. The last one's `k` would size a
        // level buffer of tens of billions of items up front.
        let accuracies = [
            Accuracy::K(200_000),
            Accuracy::EpsDelta(0.0001, 0.05),
            Accuracy::K(4_278_190_096),
        ];
        let dir = TempDir::new("svc").unwrap();
        let mut keys = Vec::new();
        let mut frames = Vec::new();
        for (i, accuracy) in accuracies.into_iter().enumerate() {
            let key = format!("big{i}");
            let config = TenantConfig {
                accuracy,
                ..TenantConfig::for_key(&key)
            };
            assert!(config.check_new().is_err(), "{accuracy:?} is admitted");
            frames.extend_from_slice(&encode_create(&key, &config, &None));
            frames.extend_from_slice(&encode_add_batch(&key, &batch(0..1_000), &None));
            keys.push(key);
        }
        let ranks = |s: &QuantileService| -> Vec<u64> {
            keys.iter().map(|k| s.rank(k, 499.0).unwrap()).collect()
        };
        {
            let f = svc(dir.path());
            let config = TenantConfig {
                accuracy: accuracies[0],
                ..TenantConfig::for_key("big0")
            };
            assert!(matches!(
                f.create("big0", config),
                Err(ReqError::InvalidParameter(_))
            ));
            f.set_follower(true);
            assert_eq!(f.replicate_frames(&frames).unwrap(), 6);
            assert_eq!(ranks(&f), vec![500; 3]);
        }
        {
            let s = svc(dir.path());
            assert_eq!(s.recovery_report().records_replayed, 6);
            assert_eq!(s.recovery_report().damaged_bytes, 0);
            assert_eq!(ranks(&s), vec![500; 3]);
            assert_eq!(s.snapshot_now().unwrap(), 1);
        }
        let s = svc(dir.path());
        assert_eq!(s.recovery_report().snapshot_gen, Some(1));
        assert!(s.recovery_report().skipped_snapshots.is_empty());
        assert_eq!(ranks(&s), vec![500; 3]);
    }

    #[test]
    fn replicate_frames_guards_and_torn_tail_resumes_clean() {
        let pdir = TempDir::new("svc-p").unwrap();
        let fdir = TempDir::new("svc-f").unwrap();
        let p = svc(pdir.path());
        p.create("t", TenantConfig::for_key("t")).unwrap();
        p.add_batch("t", &batch(0..100)).unwrap();
        let seg = p.tail(0, 0, 1 << 20).unwrap();
        let f = svc(fdir.path());
        // Not a follower: refused outright, nothing applied.
        assert!(f.replicate_frames(&seg.frames).is_err());
        f.set_follower(true);
        // Torn stream: all but the last 3 bytes. The whole leading frames
        // apply; the torn one errors without corrupting anything.
        let torn = &seg.frames[..seg.frames.len() - 3];
        let applied = match f.replicate_frames(torn) {
            Ok(n) => n,
            Err(_) => {
                // Partial progress is durable; resume from the local
                // watermark and converge.
                let (gen, len) = f.wal_watermark();
                let rest = p.tail(gen, len, 1 << 20).unwrap();
                f.replicate_frames(&rest.frames).unwrap();
                2
            }
        };
        assert_eq!(applied, 2);
        assert_eq!(f.wal_watermark(), p.wal_watermark());
        assert_eq!(f.sketch_parts("t").unwrap(), p.sketch_parts("t").unwrap());
    }
}
