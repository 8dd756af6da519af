//! Replication: WAL-tail shipping (primary side) and frame replay
//! (follower side). See docs/ARCHITECTURE.md "Cluster layer".

use req_core::frame::{FrameHeader, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use req_core::ReqError;
use std::sync::atomic::Ordering;

use crate::protocol::binary::MAX_MESSAGE_PAYLOAD;
use crate::protocol::{ChangedShards, ShardVersions, TailSegment};
use crate::service::QuantileService;
use crate::snapshot::wal_path;
use crate::wal::{LogOutcome, WalRecord, WAL_MAGIC};

impl QuantileService {
    /// Switch follower mode on or off. A follower refuses client
    /// mutations with `Unavailable` (they belong on the primary) while
    /// [`Self::replicate_frames`] keeps applying shipped records; queries
    /// keep answering — that is the bounded-lag follower read. Promotion
    /// after a primary failure is `set_follower(false)`.
    pub fn set_follower(&self, follower: bool) {
        if self.follower.swap(follower, Ordering::SeqCst) != follower {
            req_telemetry::global().event(
                if follower {
                    "follower_entered"
                } else {
                    "follower_left"
                },
                format!("gen={}", self.gen.load(Ordering::Relaxed)),
            );
        }
    }

    /// Is this node currently a replication follower?
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// The live WAL generation and the byte length of its valid prefix —
    /// the exact position a fully caught-up follower's [`Self::tail`]
    /// cursor points at. Taken under the shared gate so the pair is never
    /// split by a rotation.
    pub fn wal_watermark(&self) -> (u64, u64) {
        let _gate = self.gate.read();
        (self.gen.load(Ordering::Relaxed), self.wal.valid_len())
    }

    /// Serve one slice of generation `gen`'s WAL for a replication
    /// follower: whole, CRC-valid, decodable frames starting at byte
    /// `offset` (0 resolves to the first frame after the file magic), at
    /// most `max_bytes` of them — but always at least one frame when one
    /// is available, so a frame larger than the budget cannot wedge the
    /// stream. A torn or rolled-back tail is *never* shipped: the
    /// follower sees exactly the bytes crash recovery would replay.
    ///
    /// Reads only the window it ships — `[start, start + max(budget, 8))`
    /// clipped to the file, extended just far enough to hold the first
    /// frame when that frame alone is longer — so a poll costs
    /// O(budget), not O(generation). It reads without the service gate:
    /// an append racing this read can only make the window's last frame
    /// incomplete, and incomplete frames are excluded the same way
    /// recovery excludes them. `sealed` reports whether `gen` has been
    /// rotated away (its file is final); the follower then mirrors the
    /// rotation via [`Self::rotate_generation`] and resumes from
    /// `gen + 1`.
    pub fn tail(&self, gen: u64, offset: u64, max_bytes: u32) -> Result<TailSegment, ReqError> {
        let file = match std::fs::File::open(wal_path(&self.cfg.data_dir, gen)) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ReqError::InvalidParameter(format!(
                    "WAL generation {gen} is not on disk (pruned or never written); \
                     re-seed the follower from a snapshot"
                )));
            }
            Err(e) => return Err(e.into()),
        };
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; WAL_MAGIC.len()];
        if read_at_most(&file, &mut magic, 0)? < magic.len() || magic != *WAL_MAGIC {
            return Err(ReqError::CorruptBytes(format!(
                "WAL generation {gen} has no valid magic header"
            )));
        }
        let start = if offset == 0 {
            WAL_MAGIC.len() as u64
        } else {
            offset
        };
        if start < WAL_MAGIC.len() as u64 || start > file_len {
            return Err(ReqError::InvalidParameter(format!(
                "tail offset {offset} outside generation {gen}'s {file_len} bytes"
            )));
        }
        let avail = file_len - start;
        let budget = (max_bytes as usize).min(MAX_MESSAGE_PAYLOAD - 4096);
        // At least one frame header, so even a tiny budget can see how
        // long the first frame is.
        let window = budget.max(FRAME_HEADER_LEN) as u64;
        let mut buf = vec![0u8; window.min(avail) as usize];
        let got = read_at_most(&file, &mut buf, start)?;
        buf.truncate(got);
        // The first frame ships whole even past the budget: read the rest
        // of it if the file holds it.
        if let Ok(Some(header)) = FrameHeader::parse(&buf, MAX_FRAME_PAYLOAD) {
            let first = header.frame_len() as u64;
            if first > buf.len() as u64 && first <= avail {
                let have = buf.len();
                buf.resize(first as usize, 0);
                let got = read_at_most(&file, &mut buf[have..], start + have as u64)?;
                buf.truncate(have + got);
            }
        }
        let mut shipped = 0usize;
        // Mirror recovery's stop conditions exactly: a frame must be
        // length-complete, CRC-clean, *and* decode to a record.
        while let Ok(payload) = req_core::frame::frame_payload(&buf[shipped..]) {
            if WalRecord::decode(payload).is_err() {
                break;
            }
            let consumed = FRAME_HEADER_LEN + payload.len();
            if shipped > 0 && shipped + consumed > budget {
                break;
            }
            shipped += consumed;
            if shipped >= budget {
                break;
            }
        }
        buf.truncate(shipped);
        // Load the live generation *after* reading the file: if a
        // rotation raced us, the file we read was already final.
        let latest_gen = self.gen.load(Ordering::Relaxed);
        Ok(TailSegment {
            gen,
            offset: start,
            sealed: gen < latest_gen,
            latest_gen,
            frames: buf,
        })
    }

    /// Follower-side replay of a [`TailSegment`]'s frames: append each
    /// frame to the local WAL **byte-for-byte** and apply its record, in
    /// the primary's `[append → apply]` order. Tokens on replicated
    /// records re-populate the dedup windows, so a client retrying a
    /// mutation against this node *after promotion* still dedups.
    /// Returns how many records were applied.
    ///
    /// The walk validates each frame before touching anything; it stops
    /// at the first invalid one with an error. Everything applied before
    /// the stop is durable and consistent — re-shipping from the local
    /// [`Self::wal_watermark`] resumes cleanly, so a torn or corrupted
    /// replication stream can delay convergence but never corrupt state.
    pub fn replicate_frames(&self, frames: &[u8]) -> Result<u64, ReqError> {
        if !self.is_follower() {
            return Err(ReqError::InvalidParameter(
                "replicate_frames on a non-follower node; demote it explicitly first".into(),
            ));
        }
        let _gate = self.gate.read();
        let mut at = 0usize;
        let mut applied = 0u64;
        while at < frames.len() {
            let payload = req_core::frame::frame_payload(&frames[at..])?;
            let rec = WalRecord::decode(payload)?;
            let frame_bytes = &frames[at..at + FRAME_HEADER_LEN + payload.len()];
            at += frame_bytes.len();
            // Same contract as the primary's mutation path: even when the
            // fsync outcome is unknown, a frame that reached the file
            // must be applied before the error surfaces, or the durable
            // and in-memory states would diverge.
            let log = self.append_wal(frame_bytes)?;
            Self::apply(&self.registry, &self.dedup, rec)?;
            self.records_in_gen.fetch_add(1, Ordering::Relaxed);
            applied += 1;
            if let LogOutcome::LoggedUnsynced(e) = log {
                return Err(e);
            }
        }
        Ok(applied)
    }

    /// The tenant's serialized per-shard sketches (binary v3):
    /// [`Self::changed_shards`] with nothing held, the parts a
    /// `MERGESINCE key -` reply carries.
    pub fn sketch_parts(&self, key: &str) -> Result<Vec<Vec<u8>>, ReqError> {
        Ok(self
            .changed_shards(key, None)?
            .parts
            .into_iter()
            .map(|(_, part)| part.expect("nothing is held"))
            .collect())
    }

    /// A versioned `MERGE`: the tenant's current [`ShardVersions`], with
    /// the serialized sketch of every shard whose version differs from
    /// `held`. A held version from another incarnation or instance names
    /// none of the current states, so then every shard is sent.
    ///
    /// The instance is read under the lock a checkpoint renumbers it
    /// under, and each shard's epoch is read and the shard encoded under
    /// one hold of its lock ([`req_core::ConcurrentReqSketch::encode_since`]),
    /// so a version always names the bytes sent with it. Encoding leaves
    /// the live RNGs and epochs untouched — the bytes are those a
    /// checkpoint would write — so serving merges never perturbs
    /// replication byte-identity.
    pub fn changed_shards(
        &self,
        key: &str,
        held: Option<&ShardVersions>,
    ) -> Result<ChangedShards, ReqError> {
        let tenant = self.tenant(key)?;
        let instance = tenant.instance.read();
        let held_epochs = match held {
            Some(held) if held.incarnation == self.incarnation && held.instance == *instance => {
                &held.epochs[..]
            }
            _ => &[],
        };
        let parts = tenant
            .sketch
            .encode_since(held_epochs)
            .into_iter()
            .map(|(epoch, part)| (epoch, part.map(Vec::from)))
            .collect();
        Ok(ChangedShards {
            incarnation: self.incarnation,
            instance: *instance,
            parts,
        })
    }
}

/// Fill `buf` from `file` at byte `pos` until it is full or the file
/// ends; returns how many bytes were read. A file that shrank since it
/// was measured (a rolled-back torn append) reads short, not as an error.
fn read_at_most(file: &std::fs::File, buf: &mut [u8], pos: u64) -> std::io::Result<usize> {
    use std::os::unix::fs::FileExt;
    let mut got = 0;
    while got < buf.len() {
        match file.read_at(&mut buf[got..], pos + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}
