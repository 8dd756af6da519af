//! Snapshot store: full registry images built on binary format v3.
//!
//! A snapshot file freezes every tenant — configuration, round-robin
//! rotation, and each ingest shard's exact [`req_core::binary`] payload —
//! at one WAL rotation point. Layout:
//!
//! ```text
//! "REQSNAP1" | frame(header: gen u64 | tenant_count u32)
//!            | frame(tenant 0) | frame(tenant 1) | ...
//!            | [frame(0xDD | dedup table)]
//! ```
//!
//! The header is `(gen u64, tenant_count u32)` and each tenant frame one
//! [`TenantSnapshot`], both in their [`Packable`] layouts (the shared
//! rules are in [`req_core::binary`]); [`encode_snapshot`] and
//! [`decode_snapshot`] are the whole file codec. Frames (see
//! [`req_core::frame`]) make a half-written or bit-rotted snapshot
//! *detectably* invalid: the loader verifies every checksum and
//! [`latest_valid`] falls back to the newest snapshot that loads in full.
//!
//! The optional trailing *dedup frame* (first payload byte `0xDD`, then a
//! `Vec<DedupClientSnapshot>`) carries the per-client idempotency window —
//! every applied `(client, seq)` pair with its recorded reply — so
//! exactly-once retry semantics survive the WAL rotation a snapshot
//! performs. A snapshot with an empty window omits the frame entirely,
//! which keeps such files byte-identical to the pre-dedup (v3) layout; the
//! loader accepts both, and rejects an empty dedup frame, which no writer
//! produces.
//!
//! Writes go through a `*.tmp` + atomic-rename dance, so a crash mid-write
//! never shadows the previous good snapshot.
//!
//! The [`QuantileService`] methods that take snapshots live here too: the
//! record-count trigger, [`QuantileService::snapshot_now`], the follower's
//! [`QuantileService::rotate_generation`] and the background
//! [`Snapshotter`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use req_core::binary::{pack_counted, unpack_whole, Packable};
use req_core::frame::{read_frame, write_frame};
use req_core::{packable_struct, ReqError};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use crate::config::TenantConfig;
use crate::faults::{faulted_op, faulted_write, FaultPlane, FaultSite};
use crate::service::QuantileService;
use crate::wal::WalWriter;

/// Snapshot file magic.
pub const SNAP_MAGIC: &[u8; 8] = b"REQSNAP1";

/// First payload byte of the optional dedup frame.
const DEDUP_FRAME_TAG: u8 = 0xDD;

/// The reply recorded for one applied idempotent mutation — what a
/// duplicate retry of the same `(client, seq)` gets back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedOutcome {
    /// A `CREATE` landed.
    Created,
    /// An `ADDB` landed; how many values it ingested.
    Added(u64),
    /// A `DROP` landed.
    Dropped,
}

/// One client's idempotency window, as persisted in a snapshot: every
/// remembered `(seq, outcome)` pair, ascending by seq.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupClientSnapshot {
    /// The client identity.
    pub client_id: u64,
    /// Remembered applied sequence numbers with their recorded replies.
    pub entries: Vec<(u64, AppliedOutcome)>,
}

/// One tenant frozen at the snapshot's rotation point.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant key.
    pub key: String,
    /// Configuration (carries the seed — recovery rebuilds identically).
    pub config: TenantConfig,
    /// The sharded sketch's round-robin counter at checkpoint time.
    pub rotation: u64,
    /// Per-shard [`req_core::ReqSketch::to_bytes`] payloads.
    pub shards: Vec<Vec<u8>>,
}

/// A fully-loaded snapshot file.
#[derive(Debug)]
pub struct SnapshotData {
    /// WAL generation this snapshot begins (replay `wal-<gen>.log` on top).
    pub gen: u64,
    /// Tenants in key order.
    pub tenants: Vec<TenantSnapshot>,
    /// Per-client idempotency windows at checkpoint time (empty for
    /// pre-dedup snapshot files).
    pub dedup: Vec<DedupClientSnapshot>,
}

/// `snap-<gen>.snap` path under `dir`.
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:010}.snap"))
}

/// `wal-<gen>.log` path under `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:010}.log"))
}

/// Parse `<stem>-<gen 10 digits>.<ext>` names back into generations.
fn parse_gen(name: &str, stem: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(stem)?.strip_prefix('-')?;
    let digits = rest.strip_suffix(ext)?.strip_suffix('.')?;
    if digits.len() != 10 {
        return None;
    }
    digits.parse().ok()
}

/// Generations of every `snap-*.snap` (ascending).
pub fn snapshot_gens(dir: &Path) -> Result<Vec<u64>, ReqError> {
    list_gens(dir, "snap", "snap")
}

/// Generations of every `wal-*.log` (ascending).
pub fn wal_gens(dir: &Path) -> Result<Vec<u64>, ReqError> {
    list_gens(dir, "wal", "log")
}

fn list_gens(dir: &Path, stem: &str, ext: &str) -> Result<Vec<u64>, ReqError> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_gen(name, stem, ext) {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// `key | config | rotation u64 | shards Vec<Vec<u8>>`, with 1–256 shards.
impl Packable for TenantSnapshot {
    fn pack(&self, out: &mut BytesMut) {
        self.key.pack(out);
        self.config.pack(out);
        self.rotation.pack(out);
        self.shards.pack(out);
    }

    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        let t = TenantSnapshot {
            key: Packable::unpack(input)?,
            config: Packable::unpack(input)?,
            rotation: Packable::unpack(input)?,
            shards: Packable::unpack(input)?,
        };
        if t.shards.is_empty() || t.shards.len() > 256 {
            return Err(ReqError::CorruptBytes(format!(
                "snapshot tenant `{}` claims {} shards",
                t.key,
                t.shards.len()
            )));
        }
        Ok(t)
    }
}

/// `tag u8 | n u64`: tag 1 `Created`, 2 `Added(n)`, 3 `Dropped`; `n` is a
/// reserved zero for the two outcomes that carry no count.
impl Packable for AppliedOutcome {
    const MIN_PACKED_LEN: usize = 9;

    fn pack(&self, out: &mut BytesMut) {
        let (tag, n) = match *self {
            AppliedOutcome::Created => (1u8, 0),
            AppliedOutcome::Added(n) => (2, n),
            AppliedOutcome::Dropped => (3, 0),
        };
        tag.pack(out);
        n.pack(out);
    }

    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        let corrupt =
            |what: String| ReqError::CorruptBytes(format!("snapshot dedup table: {what}"));
        let tag = u8::unpack(input)?;
        let n = u64::unpack(input)?;
        match (tag, n) {
            (1, 0) => Ok(AppliedOutcome::Created),
            (2, n) => Ok(AppliedOutcome::Added(n)),
            (3, 0) => Ok(AppliedOutcome::Dropped),
            (1 | 3, n) => Err(corrupt(format!("nonzero reserved count {n}"))),
            (t, _) => Err(corrupt(format!("unknown outcome tag {t}"))),
        }
    }
}

packable_struct!(DedupClientSnapshot { client_id, entries });

/// A whole snapshot file's bytes: magic, header frame, one frame per
/// tenant, and the dedup frame when `dedup` is not empty.
pub fn encode_snapshot(
    gen: u64,
    tenants: &[TenantSnapshot],
    dedup: &[DedupClientSnapshot],
) -> Bytes {
    let mut out = BytesMut::new();
    out.put_slice(SNAP_MAGIC);
    let mut header = BytesMut::new();
    gen.pack(&mut header);
    (tenants.len() as u32).pack(&mut header);
    write_frame(&mut out, &header);
    for t in tenants {
        let mut payload = BytesMut::new();
        t.pack(&mut payload);
        write_frame(&mut out, &payload);
    }
    if !dedup.is_empty() {
        let mut payload = BytesMut::new();
        DEDUP_FRAME_TAG.pack(&mut payload);
        pack_counted(dedup, &mut payload);
        write_frame(&mut out, &payload);
    }
    out.freeze()
}

/// Decode and fully validate a snapshot file's bytes, as written by
/// [`encode_snapshot`].
pub fn decode_snapshot(mut input: Bytes) -> Result<SnapshotData, ReqError> {
    if input.chunk().get(..SNAP_MAGIC.len()) != Some(&SNAP_MAGIC[..]) {
        return Err(ReqError::CorruptBytes("bad snapshot magic".into()));
    }
    input.advance(SNAP_MAGIC.len());
    let (gen, count) = unpack_whole(read_frame(&mut input)?, <(u64, u32)>::unpack)?;
    let mut tenants = Vec::new();
    for _ in 0..count {
        tenants.push(unpack_whole(
            read_frame(&mut input)?,
            TenantSnapshot::unpack,
        )?);
    }
    // Anything after the tenants must be exactly one non-empty dedup
    // frame; pre-dedup (v3) files simply end here.
    let mut dedup = Vec::new();
    if input.has_remaining() {
        dedup = unpack_whole(read_frame(&mut input)?, |payload| {
            if u8::unpack(payload)? != DEDUP_FRAME_TAG {
                return Err(ReqError::CorruptBytes(
                    "snapshot dedup table: bad frame tag".into(),
                ));
            }
            Vec::<DedupClientSnapshot>::unpack(payload)
        })?;
        if dedup.is_empty() || input.has_remaining() {
            return Err(ReqError::CorruptBytes(
                "snapshot: an empty dedup table or bytes after it".into(),
            ));
        }
    }
    Ok(SnapshotData {
        gen,
        tenants,
        dedup,
    })
}

/// Write `snap-<gen>.snap` atomically (tmp + rename). With `fsync`, the
/// file is synced before the rename so the name never points at data the
/// OS hasn't persisted. `dedup` is the idempotency window to persist
/// (empty slices write the pre-dedup v3 layout); `faults` optionally
/// injects failures at the write/sync/rename sites.
pub fn write_snapshot(
    dir: &Path,
    gen: u64,
    tenants: &[TenantSnapshot],
    dedup: &[DedupClientSnapshot],
    fsync: bool,
    faults: Option<&FaultPlane>,
) -> Result<PathBuf, ReqError> {
    let out = encode_snapshot(gen, tenants, dedup);
    let final_path = snapshot_path(dir, gen);
    let tmp_path = final_path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp_path)?;
        faulted_write(faults, FaultSite::SnapWrite, &mut f, &out)?;
        f.flush()?;
        if fsync {
            faulted_op(faults, FaultSite::SnapSync)?;
            f.sync_data()?;
        }
    }
    faulted_op(faults, FaultSite::SnapRename)?;
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// Load and fully validate one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<SnapshotData, ReqError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    decode_snapshot(Bytes::from(raw))
}

/// The newest snapshot that loads in full, if any. Invalid candidates are
/// skipped (reported in the result), never deleted here.
pub fn latest_valid(dir: &Path) -> Result<(Option<SnapshotData>, Vec<u64>), ReqError> {
    let mut skipped = Vec::new();
    for gen in snapshot_gens(dir)?.into_iter().rev() {
        match load_snapshot(&snapshot_path(dir, gen)) {
            Ok(data) => return Ok((Some(data), skipped)),
            Err(_) => skipped.push(gen),
        }
    }
    Ok((None, skipped))
}

impl QuantileService {
    /// Take the record-count trigger if it is due — best-effort, like the
    /// background snapshotter. The mutation that tripped the trigger has
    /// already durably succeeded; surfacing a transient snapshot I/O error
    /// as *its* result would invite the client to retry (and double-ingest)
    /// an op that landed. A failed snapshot leaves the record counter at or
    /// above the threshold, so the next mutation retries it; failures are
    /// counted in [`Self::snapshot_failures`].
    pub(crate) fn maybe_snapshot(&self) {
        let every = self.cfg.snapshot_every_records;
        if every > 0
            && self.records_in_gen.load(Ordering::Relaxed) >= every
            && self.snapshot_now().is_err()
        {
            self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot attempts (record-count trigger) that failed; the explicit
    /// `SNAPSHOT` command still surfaces its error to the caller.
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::Relaxed)
    }

    /// Create `wal-<g+1>.log`, checkpoint every tenant into
    /// `snap-<g+1>.snap`, rotate to the new WAL, and delete generations
    /// older than the previous one. Returns the new generation.
    pub fn snapshot_now(&self) -> Result<u64, ReqError> {
        self.rotate(false)
    }

    /// [`Self::snapshot_now`] without the empty-generation early return:
    /// the rotation happens even when nothing new landed. A replication
    /// follower mirrors its primary's generation seals with this — the
    /// checkpoint's shard swap then executes at the *same record index*
    /// on both sides, which is what keeps follower state byte-identical
    /// to the primary across a primary snapshot rotation.
    pub fn rotate_generation(&self) -> Result<u64, ReqError> {
        self.rotate(true)
    }

    fn rotate(&self, force: bool) -> Result<u64, ReqError> {
        // Dropping the token (early return, error) records nothing.
        let timer = self.telemetry.snapshot_micros.begin();
        let new_gen;
        {
            // Quiesce writers. Another racer may have snapshotted while we
            // waited; if the live generation has no records, there is
            // nothing to fold in. (Unless we are read-only: then the
            // rotation itself is the point — it installs a fresh,
            // unpoisoned WAL writer. A forced rotation — a follower
            // mirroring a seal — always proceeds.)
            let _gate = self.gate.write();
            if !force
                && self.records_in_gen.load(Ordering::Relaxed) == 0
                && self.snapshots_written.load(Ordering::Relaxed) > 0
                && !self.read_only.load(Ordering::SeqCst)
            {
                return Ok(self.gen.load(Ordering::Relaxed));
            }
            new_gen = self.gen.load(Ordering::Relaxed) + 1;
            // The WAL comes first: `snap-<g+1>` sends recovery to
            // `wal-<g+1>` onward, so a snapshot whose WAL then failed would
            // strand later writes in `wal-<g>`. A failed snapshot keeps
            // `wal-<g>` live and removes the empty new one.
            let wal_file = wal_path(&self.cfg.data_dir, new_gen);
            let mut writer = WalWriter::create(&wal_file)?;
            writer.set_faults(self.cfg.faults.clone());
            if let Err(e) = self.checkpoint_to(new_gen) {
                let _ = std::fs::remove_file(&wal_file);
                return Err(e);
            }
            self.wal.install(writer);
            self.gen.store(new_gen, Ordering::Relaxed);
            self.records_in_gen.store(0, Ordering::Relaxed);
            self.snapshots_written.fetch_add(1, Ordering::Relaxed);
            let micros = self.telemetry.snapshot_micros.finish(timer);
            let telemetry = req_telemetry::global();
            telemetry.event("snapshot_rotated", format!("gen={new_gen} micros={micros}"));
            // The fresh writer is unpoisoned and the snapshot holds every
            // applied record — safe to exit read-only degraded mode.
            if self.read_only.swap(false, Ordering::SeqCst) {
                telemetry.event("wal_healed", format!("gen={new_gen} read-write restored"));
            }
        }
        // Generations before the *previous* one are now doubly shadowed;
        // delete them best-effort. The immediately-previous snapshot and
        // WAL are deliberately retained: if the snapshot just written
        // ever fails its checksums (bit rot), recovery falls back to
        // generation `new_gen - 1` and replays forward — without this,
        // one bad file would silently erase every snapshotted tenant.
        for g in snapshot_gens(&self.cfg.data_dir).unwrap_or_default() {
            if g + 1 < new_gen {
                let _ = std::fs::remove_file(snapshot_path(&self.cfg.data_dir, g));
            }
        }
        for g in wal_gens(&self.cfg.data_dir).unwrap_or_default() {
            if g + 1 < new_gen {
                let _ = std::fs::remove_file(wal_path(&self.cfg.data_dir, g));
            }
        }
        Ok(new_gen)
    }

    /// Checkpoint every tenant and write them, with the dedup windows, as
    /// `snap-<gen>.snap`. Runs under the exclusive gate.
    fn checkpoint_to(&self, gen: u64) -> Result<(), ReqError> {
        let tenants: Vec<TenantSnapshot> = self
            .registry
            .tenants_sorted()
            .iter()
            .map(|t| -> Result<TenantSnapshot, ReqError> {
                // The swap restarts every shard epoch: a new instance.
                let mut instance = t.instance.write();
                let shards = t.sketch.checkpoint();
                *instance = self.registry.next_instance();
                Ok(TenantSnapshot {
                    key: t.name.clone(),
                    config: t.config.clone(),
                    rotation: t.sketch.rotation(),
                    shards: shards?.into_iter().map(Vec::from).collect(),
                })
            })
            .collect::<Result<_, _>>()?;
        write_snapshot(
            &self.cfg.data_dir,
            gen,
            &tenants,
            &self.dedup.to_snapshot(),
            self.cfg.fsync,
            self.cfg.faults.as_deref(),
        )?;
        Ok(())
    }

    /// Spawn a background thread snapshotting every `interval` (when the
    /// live generation has records). The returned handle stops and joins
    /// the thread on drop.
    pub fn spawn_snapshotter(self: &Arc<Self>, interval: Duration) -> Snapshotter {
        let service = Arc::clone(self);
        let signal = Arc::new((StdMutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::spawn(move || {
            let (stop, wake) = &*thread_signal;
            let mut stopped = stop.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                let (guard, _timeout) = wake
                    .wait_timeout(stopped, interval)
                    .unwrap_or_else(|p| p.into_inner());
                stopped = guard;
                if *stopped {
                    return;
                }
                if service.records_in_generation() > 0 {
                    // Best-effort: an I/O error here must not kill the
                    // thread; the next tick retries.
                    let _ = service.snapshot_now();
                }
            }
        });
        Snapshotter {
            signal,
            handle: Some(handle),
        }
    }
}

/// Handle to the background snapshotter thread; stops it on drop.
#[derive(Debug)]
pub struct Snapshotter {
    signal: Arc<(StdMutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        let (stop, wake) = &*self.signal;
        *stop.lock().unwrap_or_else(|p| p.into_inner()) = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use req_core::ConcurrentReqSketch;

    fn sample_tenants() -> Vec<TenantSnapshot> {
        ["alpha", "beta"]
            .iter()
            .map(|key| {
                let config = TenantConfig::parse(key, &["K=8", "SHARDS=2"]).unwrap();
                let sketch = config.build().unwrap();
                for i in 0..5_000u64 {
                    sketch.update(req_core::OrdF64(i as f64));
                }
                TenantSnapshot {
                    key: key.to_string(),
                    config,
                    rotation: sketch.rotation(),
                    shards: sketch
                        .checkpoint()
                        .unwrap()
                        .into_iter()
                        .map(|b| b.to_vec())
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = TempDir::new("snap").unwrap();
        let tenants = sample_tenants();
        let path = write_snapshot(dir.path(), 3, &tenants, &[], false, None).unwrap();
        assert_eq!(path, snapshot_path(dir.path(), 3));
        let data = load_snapshot(&path).unwrap();
        assert_eq!(data.gen, 3);
        assert_eq!(data.tenants, tenants);
        // The shard payloads really are loadable sketches.
        let restored = ConcurrentReqSketch::<req_core::OrdF64>::from_checkpoint(
            &data.tenants[0].shards,
            data.tenants[0].rotation,
        )
        .unwrap();
        assert_eq!(restored.len(), 5_000);
    }

    #[test]
    fn truncation_and_bitflips_reject() {
        let dir = TempDir::new("snap").unwrap();
        let path = write_snapshot(dir.path(), 1, &sample_tenants(), &[], false, None).unwrap();
        let good = std::fs::read(&path).unwrap();
        for cut in [0, 4, 8, 12, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(load_snapshot(&path).is_err(), "cut {cut} accepted");
        }
        for byte in [8, 20, good.len() / 2, good.len() - 3] {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(load_snapshot(&path).is_err(), "flip at {byte} accepted");
        }
        std::fs::write(&path, &good).unwrap();
        assert!(load_snapshot(&path).is_ok());
    }

    #[test]
    fn latest_valid_skips_corrupt_generations() {
        let dir = TempDir::new("snap").unwrap();
        let tenants = sample_tenants();
        write_snapshot(dir.path(), 1, &tenants, &[], false, None).unwrap();
        write_snapshot(dir.path(), 2, &tenants[..1], &[], false, None).unwrap();
        // Corrupt generation 2; generation 1 must win.
        let p2 = snapshot_path(dir.path(), 2);
        let mut raw = std::fs::read(&p2).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&p2, &raw).unwrap();
        let (data, skipped) = latest_valid(dir.path()).unwrap();
        let data = data.unwrap();
        assert_eq!(data.gen, 1);
        assert_eq!(data.tenants.len(), 2);
        assert_eq!(skipped, vec![2]);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = TempDir::new("snap").unwrap();
        let (data, skipped) = latest_valid(dir.path()).unwrap();
        assert!(data.is_none());
        assert!(skipped.is_empty());
    }

    #[test]
    fn dedup_table_roundtrips_and_empty_table_stays_v3() {
        let dir = TempDir::new("snap").unwrap();
        let tenants = sample_tenants();
        let dedup = vec![
            DedupClientSnapshot {
                client_id: 42,
                entries: vec![
                    (7, AppliedOutcome::Created),
                    (8, AppliedOutcome::Added(1000)),
                    (9, AppliedOutcome::Dropped),
                ],
            },
            DedupClientSnapshot {
                client_id: u64::MAX,
                entries: vec![(1, AppliedOutcome::Added(1))],
            },
        ];
        let path = write_snapshot(dir.path(), 4, &tenants, &dedup, false, None).unwrap();
        let data = load_snapshot(&path).unwrap();
        assert_eq!(data.dedup, dedup);
        assert_eq!(data.tenants, tenants);

        // Empty window → byte-identical to a pre-dedup snapshot, which
        // loads with an empty table.
        let p_new = write_snapshot(dir.path(), 5, &tenants, &[], false, None).unwrap();
        let data = load_snapshot(&p_new).unwrap();
        assert!(data.dedup.is_empty());

        // A truncated or bit-flipped dedup frame rejects the whole file.
        let good = std::fs::read(&path).unwrap();
        for cut in [good.len() - 1, good.len() - 10] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(load_snapshot(&path).is_err(), "cut {cut} accepted");
        }
        let mut bad = good.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(load_snapshot(&path).is_err());
    }

    #[test]
    fn injected_faults_fail_writes_without_shadowing_the_previous_snapshot() {
        use crate::faults::{FaultKind, FaultPlane, FaultSite};
        let dir = TempDir::new("snap").unwrap();
        let tenants = sample_tenants();
        write_snapshot(dir.path(), 1, &tenants, &[], false, None).unwrap();

        for (site, kind) in [
            (FaultSite::SnapWrite, FaultKind::Torn),
            (FaultSite::SnapWrite, FaultKind::Error),
            (FaultSite::SnapSync, FaultKind::Error),
            (FaultSite::SnapRename, FaultKind::Error),
        ] {
            let plane = FaultPlane::new(1).with(site, kind, 1, 1);
            let err = write_snapshot(dir.path(), 2, &tenants, &[], true, Some(&plane));
            assert!(err.is_err(), "{site:?} {kind:?} did not fail");
            // Generation 2 must not exist as a *named* snapshot: the torn
            // bytes live only in the tmp file, so recovery still finds
            // generation 1 intact.
            let (data, skipped) = latest_valid(dir.path()).unwrap();
            assert_eq!(data.unwrap().gen, 1, "{site:?} {kind:?}");
            assert!(skipped.is_empty());
        }
        // Without the plane the same write goes through.
        write_snapshot(dir.path(), 2, &tenants, &[], true, None).unwrap();
        let (data, _) = latest_valid(dir.path()).unwrap();
        assert_eq!(data.unwrap().gen, 2);
    }

    #[test]
    fn gen_name_parsing_ignores_aliens() {
        let dir = TempDir::new("snap").unwrap();
        std::fs::write(dir.path().join("snap-0000000007.snap"), b"x").unwrap();
        std::fs::write(dir.path().join("wal-0000000003.log"), b"x").unwrap();
        std::fs::write(dir.path().join("snap-7.snap"), b"x").unwrap();
        std::fs::write(dir.path().join("notes.txt"), b"x").unwrap();
        assert_eq!(snapshot_gens(dir.path()).unwrap(), vec![7]);
        assert_eq!(wal_gens(dir.path()).unwrap(), vec![3]);
    }
}
