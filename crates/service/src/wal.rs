//! Append-only write-ahead log of checksummed record frames.
//!
//! Every mutation the service accepts — `CREATE`, `ADDB`, `DROP` —
//! is appended here *before* it is applied to the in-memory registry, as
//! one [`req_core::frame`] frame whose payload is a record tag and the
//! record's fields in their [`Packable`] layouts (the shared rules are in
//! [`req_core::binary`]). The file starts with an 8-byte magic so a stray
//! file is never mistaken for a log.
//!
//! ```text
//! "REQWAL1\n" | frame | frame | frame | ...
//! ```
//!
//! ## Record format v4: idempotency tokens
//!
//! Mutations that arrived with an [`IdemToken`] are logged with the
//! *tokenized* record tags (4–6), whose payload is the v3 payload with
//! `client_id u64 | seq u64` spliced in right after the tag:
//!
//! ```text
//! v3:  tag(1|2|3) | key | payload…
//! v4:  tag(4|5|6) | client_id u64 | seq u64 | key | payload…
//! ```
//!
//! Untokenized mutations still use tags 1–3, byte-identical to v3 — a
//! v4 reader replays v3 logs unchanged, and a v4 log without tokens *is*
//! a v3 log. Replay re-populates the per-client dedup window from the
//! tokens, which is what makes client retries exactly-once across
//! crash+recovery.
//!
//! ## Crash anatomy
//!
//! A killed process can leave at most one *torn* frame at the tail (the
//! write it was in the middle of). [`read_wal`] therefore replays frames
//! until the first invalid one and reports where the valid prefix ends;
//! recovery truncates the file there and resumes appending. A CRC failure
//! *before* the tail is genuine corruption: replay still stops (never
//! apply records after a hole — ordering is part of the state), and the
//! outcome marks the log damaged so the operator can see it.
//!
//! Records carry `f64` *bit patterns*, not rounded text, so replayed
//! ingest is exactly the original ingest.
//!
//! ## Durability
//!
//! Every append is flushed to the OS, which survives a crash of the
//! process. With the service's `fsync` setting on, an append counts as
//! logged only once an `fsync` covers it, and concurrent appenders share
//! one (group commit, the only fsync path).

use bytes::{Buf, Bytes, BytesMut};
use parking_lot::Mutex;
use req_core::binary::{pack_counted, unpack_whole, Packable};
use req_core::frame::{read_frame, write_frame, FRAME_HEADER_LEN};
use req_core::{OrdF64, ReqError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::config::{TenantConfig, MAX_KEY_LEN};
use crate::faults::{faulted_op, faulted_write, FaultPlane, FaultSite};
use crate::protocol::IdemToken;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// File magic; the trailing newline makes `head -c8` output readable.
pub const WAL_MAGIC: &[u8; 8] = b"REQWAL1\n";

/// Largest framed `AddBatch` record minus its values: frame header, tag,
/// idempotency token, a [`MAX_KEY_LEN`]-byte key with its length prefix,
/// and the value count. The record adds 8 bytes per value.
pub const ADD_BATCH_MAX_OVERHEAD: usize = FRAME_HEADER_LEN + 1 + 16 + 4 + MAX_KEY_LEN + 4;

const TAG_CREATE: u8 = 1;
const TAG_ADD_BATCH: u8 = 2;
const TAG_DROP: u8 = 3;
// v4: the same three records, carrying an idempotency token.
const TAG_CREATE_T: u8 = 4;
const TAG_ADD_BATCH_T: u8 = 5;
const TAG_DROP_T: u8 = 6;

/// One durable mutation, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A tenant was created with this exact configuration.
    Create {
        /// Tenant key.
        key: String,
        /// The resolved configuration (including seed).
        config: TenantConfig,
        /// The idempotency token the mutation arrived with, if any.
        token: Option<IdemToken>,
    },
    /// A batch of values was ingested into `key` (a single value is a
    /// one-element batch — the sketch's batch path is bit-identical to
    /// per-item ingest).
    AddBatch {
        /// Tenant key.
        key: String,
        /// Ingested values, in order.
        values: Vec<OrdF64>,
        /// The idempotency token the mutation arrived with, if any.
        token: Option<IdemToken>,
    },
    /// The tenant and its data were dropped.
    Drop {
        /// Tenant key.
        key: String,
        /// The idempotency token the mutation arrived with, if any.
        token: Option<IdemToken>,
    },
}

/// One record frame, `capacity` bytes reserved: the tag, the key, then
/// what `rest` appends. A tokenless record takes the v3 tag and stays
/// byte-identical to v3; a tokened one takes the v4 tag and carries the
/// token right after it.
fn record(
    (v3_tag, v4_tag): (u8, u8),
    token: &Option<IdemToken>,
    key: &str,
    capacity: usize,
    rest: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let mut out = BytesMut::with_capacity(capacity);
    write_frame(&mut out, |out| {
        match token {
            None => v3_tag.pack(out),
            Some(t) => {
                v4_tag.pack(out);
                t.pack(out);
            }
        }
        // Every record's key is the `String` layout, written from a `&str`.
        pack_counted(key.as_bytes(), out);
        rest(out);
    });
    out.freeze()
}

/// Encode a `Create` frame without building a [`WalRecord`].
pub fn encode_create(key: &str, config: &TenantConfig, token: &Option<IdemToken>) -> Bytes {
    record((TAG_CREATE, TAG_CREATE_T), token, key, 0, |out| {
        config.pack(out)
    })
}

/// Encode an `AddBatch` frame straight off the caller's slice — the hot
/// path appends without cloning the batch into an owned record.
pub fn encode_add_batch(key: &str, values: &[OrdF64], token: &Option<IdemToken>) -> Bytes {
    let capacity = ADD_BATCH_MAX_OVERHEAD - MAX_KEY_LEN + key.len() + 8 * values.len();
    record(
        (TAG_ADD_BATCH, TAG_ADD_BATCH_T),
        token,
        key,
        capacity,
        |out| pack_counted(values, out),
    )
}

/// Encode a `Drop` frame.
pub fn encode_drop(key: &str, token: &Option<IdemToken>) -> Bytes {
    record((TAG_DROP, TAG_DROP_T), token, key, 0, |_| {})
}

impl WalRecord {
    /// Encode into one checksummed frame ready for appending.
    pub fn encode(&self) -> Bytes {
        match self {
            WalRecord::Create { key, config, token } => encode_create(key, config, token),
            WalRecord::AddBatch { key, values, token } => encode_add_batch(key, values, token),
            WalRecord::Drop { key, token } => encode_drop(key, token),
        }
    }

    /// The token this record was logged with, if any.
    pub fn token(&self) -> Option<IdemToken> {
        match self {
            WalRecord::Create { token, .. }
            | WalRecord::AddBatch { token, .. }
            | WalRecord::Drop { token, .. } => *token,
        }
    }

    /// Decode one frame payload, borrowed — recovery feeds [`read_frame`]
    /// output straight through. Accepts both the v3 tags (1–3, tokenless)
    /// and the v4 tokenized tags (4–6).
    pub fn decode(payload: impl AsRef<[u8]>) -> Result<Self, ReqError> {
        unpack_whole(payload.as_ref(), |input| {
            let tag = u8::unpack(input)?;
            let token = match tag {
                TAG_CREATE_T | TAG_ADD_BATCH_T | TAG_DROP_T => Some(IdemToken::unpack(input)?),
                _ => None,
            };
            Ok(match tag {
                TAG_CREATE | TAG_CREATE_T => WalRecord::Create {
                    key: Packable::unpack(input)?,
                    config: Packable::unpack(input)?,
                    token,
                },
                TAG_ADD_BATCH | TAG_ADD_BATCH_T => WalRecord::AddBatch {
                    key: Packable::unpack(input)?,
                    values: Packable::unpack(input)?,
                    token,
                },
                TAG_DROP | TAG_DROP_T => WalRecord::Drop {
                    key: Packable::unpack(input)?,
                    token,
                },
                t => {
                    return Err(ReqError::CorruptBytes(format!(
                        "unknown WAL record tag {t}"
                    )))
                }
            })
        })
    }
}

/// The replayable content of one WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + whole valid frames) — the
    /// offset recovery truncates to before appending again.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn tail or corruption), if any.
    pub damaged_bytes: u64,
}

/// Read a WAL file, replaying to exactly the last valid frame.
///
/// Missing files read as empty-and-clean (a crash can land between
/// snapshot rename and new-WAL create). A file too short for — or not
/// carrying — the magic is treated as fully damaged: nothing replays,
/// `valid_len` is 0, and every byte counts as damage.
/// [`WalWriter::open_truncated`] treats any `valid_len` shorter than the
/// magic as "recreate the file from scratch".
pub fn read_wal(path: &Path) -> Result<WalReplay, ReqError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                records: Vec::new(),
                valid_len: 0,
                damaged_bytes: 0,
            })
        }
        Err(e) => return Err(e.into()),
    }
    if raw.len() < WAL_MAGIC.len() || &raw[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            damaged_bytes: raw.len() as u64,
        });
    }
    let total = raw.len() as u64;
    // Frames are read in place: a WAL can be the entire post-snapshot
    // history, and no payload is copied before it is decoded.
    let mut input = &raw[WAL_MAGIC.len()..];
    let mut records = Vec::new();
    let mut valid_len = WAL_MAGIC.len() as u64;
    while input.has_remaining() {
        let consumed_before = input.remaining();
        let payload = match read_frame(&mut input) {
            Ok(p) => p,
            Err(_) => break, // torn tail or corruption: stop replay here
        };
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break, // framing intact but content corrupt: stop
        }
        valid_len += (consumed_before - input.remaining()) as u64;
    }
    Ok(WalReplay {
        records,
        valid_len,
        damaged_bytes: total - valid_len,
    })
}

/// Appender for one WAL generation file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Bytes of whole, successfully appended frames (incl. magic) — the
    /// rollback point when an append fails partway.
    len: u64,
    /// Set when a failed append could not be rolled back; every further
    /// append refuses, so no acknowledged record can ever land *after*
    /// torn bytes (replay stops at the first invalid frame).
    poisoned: bool,
    /// Optional deterministic fault injection on the append/sync/rollback
    /// syscalls; `None` in production.
    faults: Option<Arc<FaultPlane>>,
}

impl WalWriter {
    /// Create (or truncate) a fresh WAL file with its magic header.
    pub fn create(path: &Path) -> Result<Self, ReqError> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.flush()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: WAL_MAGIC.len() as u64,
            poisoned: false,
            faults: None,
        })
    }

    /// Open an existing WAL for appending, discarding everything past the
    /// valid prefix `valid_len` (from [`read_wal`]). If the file is missing
    /// or its header is unusable (`valid_len` shorter than the magic), it
    /// is recreated fresh.
    pub fn open_truncated(path: &Path, valid_len: u64) -> Result<Self, ReqError> {
        if valid_len < WAL_MAGIC.len() as u64 || !path.exists() {
            return Self::create(path);
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len,
            poisoned: false,
            faults: None,
        };
        writer.file.seek(SeekFrom::End(0))?;
        Ok(writer)
    }

    /// Install a fault plane on this writer's append/sync/rollback sites.
    /// (Creation itself is never faulted: a writer that can't even write
    /// its magic is indistinguishable from a missing disk.)
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlane>>) {
        self.faults = faults;
    }

    /// Append one encoded frame and flush it to the OS. A single
    /// `write_all` of the whole frame keeps the torn-write window to one
    /// record; flushing (not fsyncing) makes the record survive a crash of
    /// the *process* — the OS-crash window is closed by the `fsync`
    /// service setting, through [`Self::sync_handle`].
    ///
    /// A failed append (e.g. `ENOSPC` after a partial write) is rolled
    /// back by truncating to the last whole frame; if even the rollback
    /// fails, the writer poisons itself and refuses further appends —
    /// otherwise later (acknowledged!) records would sit beyond torn
    /// bytes and be silently discarded by replay.
    pub fn append(&mut self, encoded: &[u8]) -> Result<(), ReqError> {
        if self.poisoned {
            return Err(ReqError::Io(format!(
                "WAL {} is poisoned by an earlier failed append",
                self.path.display()
            )));
        }
        let result = faulted_write(
            self.faults.as_deref(),
            FaultSite::WalWrite,
            &mut self.file,
            encoded,
        )
        .and_then(|()| self.file.flush());
        match result {
            Ok(()) => {
                self.len += encoded.len() as u64;
                Ok(())
            }
            Err(e) => {
                let rollback = faulted_op(self.faults.as_deref(), FaultSite::WalRollback)
                    .and_then(|()| self.file.set_len(self.len))
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
                if rollback.is_err() {
                    self.poisoned = true;
                }
                Err(e.into())
            }
        }
    }

    /// Has an unrecoverable append failure poisoned this writer? Once
    /// true, every append fails until the WAL is rotated (a snapshot
    /// starts a fresh generation) — the service surfaces this as
    /// read-only mode.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// A second fd onto the same open file, for syncing *outside* the
    /// appender lock: `sync_data` on the clone flushes every byte already
    /// written through the original fd (both share one kernel file
    /// description), so a group-commit leader can fsync a watermark while
    /// other appenders keep appending.
    pub fn sync_handle(&self) -> Result<File, ReqError> {
        Ok(self.file.try_clone()?)
    }

    /// Byte length of the file's valid prefix (magic + whole appended
    /// frames) — the watermark replication tails from.
    pub fn valid_len(&self) -> u64 {
        self.len
    }
}

/// Group-commit bookkeeping (under a `std` mutex — its condvar pairs
/// with it; the vendored `parking_lot` has no condvar).
#[derive(Debug, Default)]
struct SyncState {
    /// Highest append sequence a successful fsync has covered.
    synced: u64,
    /// Highest append sequence a *failed* fsync attempt covered — those
    /// appends' durability is unknown, so their waiters must error.
    failed_through: u64,
    /// An fsync leader is in flight; later appenders wait instead of
    /// issuing their own fsync.
    leader: bool,
}

/// What [`Wal::append`] achieved. `Logged` means the
/// record is durable per the config. `LoggedUnsynced` means the frame is
/// *fully in the WAL file* but the fsync failed — its durability across a
/// power cut is unknown, yet within this process (and after any crash
/// that preserves the written bytes) recovery replays it. The mutation
/// therefore **must still apply** and record its idempotency outcome
/// before surfacing the error, or a client retry would double-ingest.
#[derive(Debug)]
pub(crate) enum LogOutcome {
    Logged,
    LoggedUnsynced(ReqError),
}

/// The live WAL generation's appender with the service's one durability
/// policy. Every append is flushed to the OS. With `fsync` on, an append
/// is logged only once an `fsync` covers it, and concurrent appenders
/// share those fsyncs (group commit): one leader syncs on behalf of
/// everything appended before it took its watermark, while the others
/// wait for its result. One writer alone still pays one fsync per append.
#[derive(Debug)]
pub(crate) struct Wal {
    writer: Mutex<WalWriter>,
    fsync: bool,
    /// Monotonic append counter (never resets, even across WAL
    /// rotations); incremented under the `writer` lock, so sequence order
    /// equals file order.
    appends: AtomicU64,
    /// Physical `fsync` calls on the WAL — the group-commit win is
    /// `appends / syncs`.
    syncs: AtomicU64,
    sync_state: StdMutex<SyncState>,
    sync_cond: Condvar,
    append_micros: req_telemetry::Histogram,
    /// Monotonic tick driving 1-in-8 sampling of the append span: timing
    /// every append puts two clock reads and a sketch insert on the
    /// hottest path in the tree, and a uniform sample estimates the same
    /// latency distribution (counters elsewhere stay exact).
    append_ticks: AtomicU64,
    fsync_micros: req_telemetry::Histogram,
    /// Appends acknowledged per leader fsync — the group-commit win.
    coalesce: req_telemetry::Histogram,
}

impl Wal {
    /// Take over `writer` as the live generation; `fsync` is
    /// [`crate::ServiceConfig::fsync`].
    pub(crate) fn new(writer: WalWriter, fsync: bool) -> Self {
        let t = req_telemetry::global();
        Wal {
            writer: Mutex::new(writer),
            fsync,
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_state: StdMutex::new(SyncState::default()),
            sync_cond: Condvar::new(),
            append_micros: t.histogram("service_wal_append_micros"),
            append_ticks: AtomicU64::new(0),
            fsync_micros: t.histogram("service_wal_fsync_micros"),
            coalesce: t.histogram("service_wal_group_commit_coalesce"),
        }
    }

    /// Append one record and make it durable per the policy. Callers hold
    /// the service gate (shared) for the whole `[append → apply]` window,
    /// which is what lets group commit fsync through a cloned fd without
    /// racing a WAL rotation — rotation takes the gate exclusively.
    ///
    /// `Err` means the frame is **not** in the file (a failed write rolls
    /// the file back; a failed rollback poisons the writer — see
    /// [`Self::poisoned`] — and the torn bytes are exactly what recovery's
    /// torn-tail truncation discards). [`LogOutcome::LoggedUnsynced`]
    /// means the frame **is** in the file but its fsync failed — the
    /// caller must apply-and-record before surfacing the error.
    pub(crate) fn append(&self, frame: &[u8]) -> Result<LogOutcome, ReqError> {
        if self.append_ticks.fetch_add(1, Ordering::Relaxed) & 7 != 0 {
            return self.append_inner(frame);
        }
        let timer = self.append_micros.begin();
        let result = self.append_inner(frame);
        self.append_micros.finish(timer);
        result
    }

    fn append_inner(&self, frame: &[u8]) -> Result<LogOutcome, ReqError> {
        let seq;
        {
            let mut wal = self.writer.lock();
            wal.append(frame)?;
            // Under the writer lock: sequence order equals file order.
            seq = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
            if !self.fsync {
                return Ok(LogOutcome::Logged);
            }
        }
        Ok(match self.group_commit(seq) {
            Ok(()) => LogOutcome::Logged,
            Err(e) => LogOutcome::LoggedUnsynced(e),
        })
    }

    /// Wait until a successful fsync covers append sequence `seq`,
    /// becoming the fsync leader if nobody is. One leader syncs on behalf
    /// of every record appended before its watermark snapshot — under 16
    /// concurrent writers, one `fsync` typically acknowledges many
    /// appends (measured in BENCH.md).
    fn group_commit(&self, seq: u64) -> Result<(), ReqError> {
        let mut state = self.sync_state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            // Failure first: a failed attempt that covered us means our
            // record's durability is unknown — erring is the only honest
            // answer even if a later sync succeeds.
            if state.failed_through >= seq {
                return Err(ReqError::Io(
                    "WAL fsync failed; this append's durability is unknown".into(),
                ));
            }
            if state.synced >= seq {
                return Ok(());
            }
            if state.leader {
                state = self
                    .sync_cond
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
                continue;
            }
            state.leader = true;
            drop(state);
            // A one-scheduler-pass commit window: let concurrently
            // running appenders land their records before the watermark
            // snapshot, so one fsync acknowledges them all. Costs one
            // yield (~µs) when nobody else is runnable; multiplies
            // coalescing when writers overlap.
            std::thread::yield_now();
            // Snapshot the watermark *before* syncing: every append with
            // seq ≤ covered is in the file (both were serialized by the
            // wal lock), so one sync_data on the cloned fd covers them
            // all. Appends that land after this point simply wait for the
            // next leader.
            let (covered, handle, faults) = {
                let wal = self.writer.lock();
                let covered = self.appends.load(Ordering::Relaxed);
                (covered, wal.sync_handle(), wal.faults.clone())
            };
            let fsync_timer = self.fsync_micros.begin();
            let result = handle.and_then(|file| {
                faulted_op(faults.as_deref(), FaultSite::WalSync).map_err(ReqError::from)?;
                file.sync_data().map_err(ReqError::from)
            });
            self.fsync_micros.finish(fsync_timer);
            self.syncs.fetch_add(1, Ordering::Relaxed);
            state = self.sync_state.lock().unwrap_or_else(|p| p.into_inner());
            state.leader = false;
            match &result {
                Ok(()) => {
                    if covered > state.synced {
                        self.coalesce.observe(covered - state.synced);
                    }
                    state.synced = state.synced.max(covered);
                }
                Err(_) => state.failed_through = state.failed_through.max(covered),
            }
            self.sync_cond.notify_all();
            // Our own seq ≤ covered (we appended before snapshotting the
            // watermark), so the next loop iteration resolves us.
            result?;
        }
    }

    /// Switch appends to the next generation's writer. Rotation calls
    /// this under the exclusive service gate, so no append or fsync
    /// leader is in flight on the old file.
    pub(crate) fn install(&self, writer: WalWriter) {
        *self.writer.lock() = writer;
    }

    /// Has a failed append poisoned the live writer? See
    /// [`WalWriter::poisoned`].
    pub(crate) fn poisoned(&self) -> bool {
        self.writer.lock().poisoned()
    }

    /// Byte length of the live generation's valid prefix.
    pub(crate) fn valid_len(&self) -> u64 {
        self.writer.lock().valid_len()
    }

    /// Records appended since open (all generations).
    pub(crate) fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Physical `fsync` calls since open.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    fn tmp(name: &str) -> PathBuf {
        let dir = crate::tempdir::unique_dir("wal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        let token = Some(IdemToken {
            client_id: 11,
            seq: 5,
        });
        vec![
            WalRecord::Create {
                key: "a".into(),
                config: TenantConfig::for_key("a"),
                token: None,
            },
            WalRecord::AddBatch {
                key: "a".into(),
                values: (0..100).map(|i| OrdF64(i as f64 * 0.5)).collect(),
                token,
            },
            WalRecord::AddBatch {
                key: "a".into(),
                values: vec![OrdF64(f64::NAN), OrdF64(-0.0)],
                token: None,
            },
            WalRecord::Drop {
                key: "a".into(),
                token,
            },
        ]
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        for rec in sample_records() {
            let encoded = rec.encode();
            let mut input = &encoded[..];
            let payload = read_frame(&mut input).unwrap();
            let back = WalRecord::decode(payload).unwrap();
            // OrdF64 equality is total-order equality, so NaN and -0.0
            // must round-trip to the same bit patterns.
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn tokenless_records_are_byte_identical_to_v3() {
        // The v4 writer must emit exactly the v3 bytes when no token is
        // attached: tag 2, then key, then count, then bits — nothing else.
        let rec = WalRecord::AddBatch {
            key: "k".into(),
            values: vec![OrdF64(1.5)],
            token: None,
        };
        let framed = rec.encode();
        let payload = read_frame(&mut &framed[..]).unwrap();
        let mut want = BytesMut::new();
        want.put_u8(2); // v3 TAG_ADD_BATCH
        want.put_u32_le(1);
        want.put_slice(b"k");
        want.put_u32_le(1);
        want.put_u64_le(1.5f64.to_bits());
        assert_eq!(payload, &want[..]);
        // And a tokenized record is the same payload behind tag 5 + token.
        let rec_t = WalRecord::AddBatch {
            key: "k".into(),
            values: vec![OrdF64(1.5)],
            token: Some(IdemToken {
                client_id: 9,
                seq: 2,
            }),
        };
        let framed = rec_t.encode();
        let payload_t = read_frame(&mut &framed[..]).unwrap();
        assert_eq!(payload_t[0], 5);
        assert_eq!(&payload_t[17..], &want[1..]);
    }

    #[test]
    fn add_batch_overhead_bounds_the_largest_record() {
        let key = "k".repeat(MAX_KEY_LEN);
        let token = Some(IdemToken {
            client_id: 1,
            seq: 2,
        });
        let values = [OrdF64(1.0); 3];
        assert_eq!(
            encode_add_batch(&key, &values, &token).len(),
            ADD_BATCH_MAX_OVERHEAD + 8 * values.len()
        );
    }

    #[test]
    fn truncated_tokenized_records_reject() {
        let rec = WalRecord::Drop {
            key: "k".into(),
            token: Some(IdemToken {
                client_id: 1,
                seq: 2,
            }),
        };
        let framed = rec.encode();
        let payload = read_frame(&mut &framed[..]).unwrap();
        for cut in 0..payload.len() {
            let prefix = Bytes::copy_from_slice(&payload[..cut]);
            assert!(WalRecord::decode(prefix).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn injected_torn_append_rolls_back_and_injected_rollback_poisons() {
        use crate::faults::{FaultKind, FaultPlane, FaultSite};

        // Every append tears; the rollback still succeeds, so the writer
        // stays healthy and the file holds only whole frames.
        let path = tmp("chaos.log");
        let mut w = WalWriter::create(&path).unwrap();
        w.set_faults(Some(Arc::new(FaultPlane::new(5).with(
            FaultSite::WalWrite,
            FaultKind::Torn,
            1,
            1,
        ))));
        let rec = &sample_records()[1];
        assert!(w.append(&rec.encode()).is_err());
        assert!(!w.poisoned());
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.damaged_bytes, 0, "rollback must erase the tear");

        // Now fault the rollback too: the writer must poison and refuse.
        w.set_faults(Some(Arc::new(
            FaultPlane::new(5)
                .with(FaultSite::WalWrite, FaultKind::Torn, 1, 1)
                .with(FaultSite::WalRollback, FaultKind::Error, 1, 1),
        )));
        assert!(w.append(&rec.encode()).is_err());
        assert!(w.poisoned());
        let err = w.append(&rec.encode()).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The torn tail is on disk, but replay still stops cleanly.
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.damaged_bytes > 0);
    }

    #[test]
    fn append_then_read_replays_everything() {
        let path = tmp("clean.log");
        let mut w = WalWriter::create(&path).unwrap();
        let records = sample_records();
        for rec in &records {
            w.append(&rec.encode()).unwrap();
        }
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.damaged_bytes, 0);
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_replays_to_last_valid_frame() {
        let path = tmp("torn.log");
        let mut w = WalWriter::create(&path).unwrap();
        let records = sample_records();
        for rec in &records {
            w.append(&rec.encode()).unwrap();
        }
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len();
        let last = records.last().unwrap().encode().len() as u64;
        // Tear the last frame in half.
        let torn_at = full - last / 2;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_at)
            .unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, records[..records.len() - 1]);
        assert_eq!(replay.valid_len, full - last);
        assert_eq!(replay.damaged_bytes, torn_at - (full - last));
    }

    #[test]
    fn open_truncated_discards_torn_tail_and_appends_cleanly() {
        let path = tmp("resume.log");
        let mut w = WalWriter::create(&path).unwrap();
        let records = sample_records();
        for rec in &records[..2] {
            w.append(&rec.encode()).unwrap();
        }
        drop(w);
        // Simulate a torn write.
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&[0xAB; 5])
            .unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.damaged_bytes, 5);
        let mut w = WalWriter::open_truncated(&path, replay.valid_len).unwrap();
        w.append(&records[2].encode()).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, records[..3]);
        assert_eq!(replay.damaged_bytes, 0);
    }

    #[test]
    fn missing_and_alien_files_are_not_replayed() {
        let missing = tmp("never-created.log");
        let replay = read_wal(&missing).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);

        let alien = tmp("alien.log");
        std::fs::write(&alien, b"definitely not a WAL file").unwrap();
        let replay = read_wal(&alien).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.damaged_bytes > 0);
    }

    #[test]
    fn mid_file_bitflip_stops_replay_and_reports_damage() {
        let path = tmp("bitrot.log");
        let mut w = WalWriter::create(&path).unwrap();
        let records = sample_records();
        for rec in &records {
            w.append(&rec.encode()).unwrap();
        }
        drop(w);
        // Flip one payload bit inside the second frame.
        let first = records[0].encode().len();
        let mut raw = std::fs::read(&path).unwrap();
        let off = WAL_MAGIC.len() + first + 12;
        raw[off] ^= 1;
        std::fs::write(&path, &raw).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, records[..1], "replay must stop at the hole");
        assert!(replay.damaged_bytes > 0);
    }
}
