//! Sharded concurrent ingestion.
//!
//! The REQ sketch's full mergeability (Theorem 3) is exactly what makes a
//! lock-sharded writer correct: each shard is an independent sketch of the
//! substream routed to it. Per-shard `parking_lot::Mutex`es keep the hot
//! update path to one uncontended lock in the common case.
//!
//! Reads need no merge at all. Algorithm 2's estimator is a sum over
//! levels, so `rank`/`quantile`/`cdf` answer from the union of every
//! shard's levels ([`crate::union`]) under the shard locks: the per-shard
//! errors add, and nothing is cloned or built per read. Repeated reads of an
//! unchanged sketch switch to a cached union view once they have spent what
//! building it costs (the ski-rental rule every sketch reads under, see
//! [`ReadCacheStats`]). A merged [`ConcurrentReqSketch::snapshot`] remains
//! for callers that want one ordinary sketch.
//!
//! All shards are derived from one builder configuration (policy,
//! orientation and [`crate::CompactionSchedule`]) with distinct seeds, so
//! snapshot merges are always compatible. A sharded writer is also where
//! the *adaptive*
//! schedule earns its keep: every `snapshot()` is a merge, and with
//! weight-adaptive compactors the merged snapshot sits at the same
//! space–accuracy point as a single sketch of the union stream — no
//! estimate-reconciliation special compactions per snapshot (see
//! [`crate::schedule`] and experiment E15).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::binary::Packable;
use crate::builder::ReqSketchBuilder;
use crate::error::ReqError;
use crate::merge::merge_balanced;
use crate::sketch::ReqSketch;
use crate::union::Union;
use crate::view::{ReadCache, ReadCacheStats};
use sketch_traits::QuantileSketch;

/// Memoized merged snapshot, keyed by the per-shard epochs it was built at.
#[derive(Debug)]
struct SnapshotCache<T> {
    snapshot: Option<Arc<ReqSketch<T>>>,
    epochs: Vec<u64>,
    hits: u64,
    builds: u64,
}

/// A thread-safe, sharded REQ sketch front-end.
///
/// ```
/// use req_core::{ConcurrentReqSketch, ReqSketch};
/// use sketch_traits::QuantileSketch;
///
/// let shared = ConcurrentReqSketch::<u64>::new(
///     ReqSketch::<u64>::builder().k(12).seed(1),
///     4,
/// ).unwrap();
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let shared = &shared;
///         scope.spawn(move || {
///             for i in 0..10_000u64 {
///                 shared.update(t * 10_000 + i);
///             }
///         });
///     }
/// });
/// let merged = shared.snapshot().unwrap();
/// assert_eq!(merged.len(), 40_000);
/// ```
#[derive(Debug)]
pub struct ConcurrentReqSketch<T> {
    shards: Vec<Mutex<ReqSketch<T>>>,
    next: AtomicUsize,
    snapshot_cache: Mutex<SnapshotCache<T>>,
    /// Locked after the shard locks, never before one.
    read_cache: ReadCache<T>,
}

impl<T: Ord + Clone> ConcurrentReqSketch<T> {
    /// Create `num_shards` shard sketches from one builder configuration.
    /// Each shard receives a distinct derived seed.
    pub fn new(builder: ReqSketchBuilder, num_shards: usize) -> Result<Self, ReqError> {
        if num_shards == 0 {
            return Err(ReqError::InvalidParameter(
                "num_shards must be positive".into(),
            ));
        }
        // Resolve the base configuration once so every shard shares the
        // policy and schedule (merge compatibility) while seeds differ.
        let base: ReqSketch<T> = builder.clone().build()?;
        let policy = base.policy();
        let accuracy = base.rank_accuracy();
        let schedule = base.compaction_schedule();
        let base_seed = base.seed();
        let shards = (0..num_shards)
            .map(|i| {
                Mutex::new(ReqSketch::with_policy_scheduled(
                    policy,
                    accuracy,
                    base_seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)),
                    schedule,
                ))
            })
            .collect();
        Ok(ConcurrentReqSketch {
            shards,
            next: AtomicUsize::new(0),
            snapshot_cache: Mutex::new(SnapshotCache {
                snapshot: None,
                epochs: Vec::new(),
                hits: 0,
                builds: 0,
            }),
            read_cache: ReadCache::new(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Route one item to a shard (round-robin). Threads that want zero
    /// routing contention can use [`Self::update_in_shard`] with a
    /// thread-local shard index instead.
    pub fn update(&self, item: T) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].lock().update(item);
    }

    /// Update a specific shard (`shard` is taken modulo the shard count).
    pub fn update_in_shard(&self, shard: usize, item: T) {
        let i = shard % self.shards.len();
        self.shards[i].lock().update(item);
    }

    /// Batched sharded ingest: the slice is split into up to `num_shards`
    /// contiguous pieces, each routed round-robin to a shard's
    /// [`QuantileSketch::update_batch`] fast path — one lock acquisition
    /// and one compaction cascade per piece instead of per item.
    pub fn update_batch(&self, items: &[T]) {
        if items.is_empty() {
            return;
        }
        let piece = items.len().div_ceil(self.shards.len());
        for chunk in items.chunks(piece) {
            let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
            self.shards[i].lock().update_batch(chunk);
        }
    }

    /// Batched ingest into a specific shard (`shard` taken modulo the shard
    /// count) — for writers that own a thread-local shard index.
    pub fn update_batch_in_shard(&self, shard: usize, items: &[T]) {
        if items.is_empty() {
            return;
        }
        let i = shard % self.shards.len();
        self.shards[i].lock().update_batch(items);
    }

    /// Total items ingested across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone every shard and merge along a balanced tree into one ordinary
    /// [`ReqSketch`] ready for querying. Ingestion may continue concurrently;
    /// the snapshot reflects each shard at the moment its lock was held.
    pub fn snapshot(&self) -> Result<ReqSketch<T>, ReqError> {
        let copies: Vec<ReqSketch<T>> = self.shards.iter().map(|s| s.lock().clone()).collect();
        Self::merge_copies(copies)
    }

    /// Shared snapshot assembly: balanced merge with an empty-sketch
    /// fallback carrying the shards' policy. Both [`Self::snapshot`] and
    /// [`Self::cached_snapshot`] build through here so the cached and
    /// uncached read paths cannot drift.
    fn merge_copies(copies: Vec<ReqSketch<T>>) -> Result<ReqSketch<T>, ReqError> {
        let policy = copies[0].policy();
        let accuracy = copies[0].rank_accuracy();
        Ok(merge_balanced(copies)?.unwrap_or_else(|| ReqSketch::with_policy(policy, accuracy, 0)))
    }

    /// Like [`Self::snapshot`], but memoized: the merged sketch is cached
    /// together with the per-shard [`ReqSketch::epoch`]s it was built from,
    /// and reused as long as no shard has been mutated since — for callers
    /// that want one merged sketch (its size, its `k`), which pay for the
    /// clone-and-merge only when data actually changed. Queries need no
    /// snapshot: [`Self::rank`] and friends read the shards in place.
    pub fn cached_snapshot(&self) -> Result<Arc<ReqSketch<T>>, ReqError> {
        let mut cache = self.snapshot_cache.lock();
        if let Some(snap) = &cache.snapshot {
            let unchanged = cache.epochs.len() == self.shards.len()
                && self
                    .shards
                    .iter()
                    .zip(cache.epochs.iter())
                    .all(|(shard, &epoch)| shard.lock().epoch() == epoch);
            if unchanged {
                let snap = Arc::clone(snap);
                cache.hits += 1;
                return Ok(snap);
            }
        }
        // Rebuild. Epoch and clone are taken under one lock hold per shard
        // so each tag matches the state it describes; a shard mutated after
        // its clone simply invalidates the cache on the next call.
        let mut epochs = Vec::with_capacity(self.shards.len());
        let mut copies = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let guard = shard.lock();
            epochs.push(guard.epoch());
            copies.push(guard.clone());
        }
        let snap = Arc::new(Self::merge_copies(copies)?);
        cache.snapshot = Some(Arc::clone(&snap));
        cache.epochs = epochs;
        cache.builds += 1;
        Ok(snap)
    }

    /// The round-robin routing counter. Together with the per-shard states
    /// this completes the sketch's *replayable* state: a restored sketch
    /// with the same rotation routes a replayed op sequence to the same
    /// shards the original did (see [`Self::from_checkpoint`]).
    pub fn rotation(&self) -> u64 {
        self.next.load(Ordering::Relaxed) as u64
    }

    /// Lifetime `(hits, builds)` of the merged-snapshot cache
    /// ([`Self::cached_snapshot`]). Reads never build merged snapshots.
    pub fn snapshot_cache_stats(&self) -> (u64, u64) {
        let cache = self.snapshot_cache.lock();
        (cache.hits, cache.builds)
    }

    /// Lifetime counters of the read cache behind `rank`/`quantile`/`cdf`.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.read_cache.stats()
    }

    /// Rank estimate `Σ_shards R̂(y)` over the union of the shards' levels.
    pub fn rank(&self, y: &T) -> Result<u64, ReqError> {
        Ok(self.ranks(std::slice::from_ref(y))?.remove(0))
    }

    /// Quantile of the union of the shards' levels; `q ≤ 0` (or NaN) and
    /// `q ≥ 1` answer the exact minimum and maximum.
    pub fn quantile(&self, q: f64) -> Result<Option<T>, ReqError> {
        Ok(self.quantiles(&[q])?.remove(0))
    }

    /// Batch rank estimates (`ys` need not be sorted).
    pub fn ranks(&self, ys: &[T]) -> Result<Vec<u64>, ReqError> {
        Ok(self.read(ys.len(), |i, union| union.rank(&ys[i])))
    }

    /// Batch quantile estimates (`qs` need not be sorted).
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<Option<T>>, ReqError> {
        Ok(self.read(qs.len(), |i, union| union.quantile(qs[i])))
    }

    /// Normalized CDF at ascending `split_points`.
    pub fn cdf(&self, split_points: &[T]) -> Result<Vec<f64>, ReqError> {
        debug_assert!(split_points.windows(2).all(|w| w[0] <= w[1]));
        Ok(self.read(split_points.len(), |i, union| {
            union.normalized_rank(&split_points[i])
        }))
    }

    /// Answer `m` points over the union of the shards under every shard
    /// lock (taken in index order, then the read cache's).
    fn read<R>(&self, m: usize, answer: impl FnMut(usize, &Union<'_, T>) -> R) -> Vec<R> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards: Vec<&ReqSketch<T>> = guards.iter().map(|g| &**g).collect();
        self.read_cache.read(&shards, m, answer)
    }
}

impl<T: Ord + Clone + Packable> ConcurrentReqSketch<T> {
    /// Serialize every shard into its own [`ReqSketch::to_bytes`] payload
    /// **and reload each shard from those exact bytes in place**.
    ///
    /// The swap is what makes durable state *equal to* live state rather
    /// than merely equivalent: `to_bytes` draws a fresh RNG seed into the
    /// encoding, so a sketch deserialized later flips different coins than
    /// the original would have. By continuing the live sketch *from its own
    /// serialization*, every coin flip after the checkpoint is identical on
    /// both sides — a replica restored via [`Self::from_checkpoint`] that
    /// replays the same subsequent ops lands on bit-identical shard states
    /// and answers value-identical queries. This is the foundation of the
    /// service layer's crash-recovery proof (experiment E16).
    ///
    /// The swap resets shard epochs, which could then realign with the
    /// tags of the memoized merged snapshot and of the read cache, so both
    /// caches forget their tags. That happens under the snapshot cache's
    /// lock and every shard lock, taken in the orders
    /// [`Self::cached_snapshot`] and the reads take them: no read or cached
    /// snapshot can see swapped shards next to a cache that still holds
    /// the old tags. Writers wait for the whole checkpoint.
    pub fn checkpoint(&self) -> Result<Vec<Bytes>, ReqError> {
        let mut snapshots = self.snapshot_cache.lock();
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        snapshots.snapshot = None;
        snapshots.epochs.clear();
        self.read_cache.clear();
        shards
            .iter_mut()
            .map(|shard| {
                let bytes = shard.to_bytes();
                **shard = ReqSketch::from_bytes(&bytes)?;
                Ok(bytes)
            })
            .collect()
    }

    /// Serialize every shard **read-only**: [`Self::encode_since`] with
    /// nothing held. Each shard is encoded in place under its lock, with the
    /// reseed drawn from a copy of its RNG, so — unlike [`Self::checkpoint`]
    /// — the live shards keep their exact RNG state and epochs, and nothing
    /// is cloned. The copy draws the seed the live RNG would draw next, so
    /// every byte is identical to what [`Self::checkpoint`] would produce
    /// from the same state. That makes this the right entry point wherever
    /// the sketch must be *observed* without being *perturbed*: serving wire
    /// `MERGE` queries, and probing primary/follower byte-identity in the
    /// replication tests — a probe that itself advanced the RNG would break
    /// the very identity it is checking.
    pub fn encode_shards(&self) -> Vec<Bytes> {
        self.encode_since(&[])
            .into_iter()
            .map(|(_, bytes)| bytes.expect("nothing is held"))
            .collect()
    }

    /// Every shard's [`ReqSketch::epoch`], with its encoding (as
    /// [`Self::encode_shards`] encodes it) unless `held[i]` is shard `i`'s
    /// epoch. The epoch is read and the shard encoded under one hold of its
    /// lock, so an epoch always names the bytes sent with it. Epochs name
    /// states only within one lineage of shards: [`Self::checkpoint`] and
    /// [`Self::from_checkpoint`] restart them at 0, so a caller that keeps
    /// encodings must also know which lineage they came from.
    pub fn encode_since(&self, held: &[u64]) -> Vec<(u64, Option<Bytes>)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let shard = s.lock();
                let epoch = shard.epoch();
                let bytes = (held.get(i) != Some(&epoch)).then(|| shard.to_bytes_unperturbed());
                (epoch, bytes)
            })
            .collect()
    }

    /// Rebuild a sharded sketch from [`Self::checkpoint`] output: one
    /// serialized shard per element of `parts`, plus the routing
    /// [`Self::rotation`] captured with them. The restored sketch is the
    /// live one's twin: replaying the same later operations on both lands
    /// on byte-identical shards (see [`Self::checkpoint`]).
    ///
    /// Shards are validated to share one configuration (policy, rank
    /// orientation, schedule) — per-shard payloads from different sketches
    /// are rejected as [`ReqError::CorruptBytes`] rather than silently
    /// producing a front-end whose snapshots can never merge.
    pub fn from_checkpoint<B: AsRef<[u8]>>(parts: &[B], rotation: u64) -> Result<Self, ReqError> {
        if parts.is_empty() {
            return Err(ReqError::CorruptBytes(
                "checkpoint carries zero shards".into(),
            ));
        }
        let shards: Vec<ReqSketch<T>> = parts
            .iter()
            .map(|p| ReqSketch::from_bytes(p.as_ref()))
            .collect::<Result<_, ReqError>>()?;
        let first = &shards[0];
        for (i, s) in shards.iter().enumerate().skip(1) {
            if s.policy() != first.policy()
                || s.rank_accuracy() != first.rank_accuracy()
                || s.compaction_schedule() != first.compaction_schedule()
            {
                return Err(ReqError::CorruptBytes(format!(
                    "checkpoint shard {i} disagrees with shard 0 on configuration"
                )));
            }
        }
        Ok(ConcurrentReqSketch {
            shards: shards.into_iter().map(Mutex::new).collect(),
            next: AtomicUsize::new(rotation as usize),
            snapshot_cache: Mutex::new(SnapshotCache {
                snapshot: None,
                epochs: Vec::new(),
                hits: 0,
                builds: 0,
            }),
            read_cache: ReadCache::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_traits::SpaceUsage;

    fn builder() -> ReqSketchBuilder {
        ReqSketch::<u64>::builder().k(12).seed(42)
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ConcurrentReqSketch::<u64>::new(builder(), 0).is_err());
    }

    #[test]
    fn single_shard_behaves_like_plain_sketch() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 1).unwrap();
        for i in 0..10_000 {
            c.update(i);
        }
        let snap = c.snapshot().unwrap();
        assert_eq!(snap.len(), 10_000);
        let r = snap.rank(&5_000);
        assert!((r as f64 - 5_001.0).abs() / 5_001.0 < 0.2);
    }

    #[test]
    fn multithreaded_ingest_counts_everything() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 8).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        c.update_in_shard(t as usize, t * 25_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.len(), 200_000);
        let snap = c.snapshot().unwrap();
        assert_eq!(snap.len(), 200_000);
        assert!(snap.retained() < 50_000);
        // The merged sketch keeps relative accuracy on the low tail.
        let r = snap.rank(&1_000);
        assert!(
            (r as f64 - 1_001.0).abs() / 1_001.0 < 0.25,
            "rank(1000) = {r}"
        );
    }

    #[test]
    fn encode_shards_matches_checkpoint_without_perturbing() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        for i in 0..10_000 {
            c.update(i);
        }
        // Read-only encoding is idempotent: the live RNG never advances.
        let first = c.encode_shards();
        let second = c.encode_shards();
        assert_eq!(first, second);
        // And it produces the exact bytes checkpoint would have — the
        // reseed is drawn from a copy of the shard's RNG, so it is the same.
        let checkpointed = c.checkpoint().unwrap();
        assert_eq!(first, checkpointed);
        // After the checkpoint swap, both views continue in lockstep.
        c.update(77);
        assert_eq!(c.encode_shards(), c.encode_shards());
    }

    #[test]
    fn encode_since_sends_only_the_shards_whose_epoch_moved() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        c.update_batch(&(0..10_000).collect::<Vec<_>>());
        let all = c.encode_since(&[]);
        let bytes: Vec<Bytes> = all.iter().map(|(_, b)| b.clone().unwrap()).collect();
        assert_eq!(bytes, c.encode_shards());
        let held: Vec<u64> = all.iter().map(|(epoch, _)| *epoch).collect();
        assert!(c.encode_since(&held).iter().all(|(_, b)| b.is_none()));
        c.update_in_shard(2, 77);
        let since = c.encode_since(&held);
        let sent: Vec<usize> = (0..4).filter(|&i| since[i].1.is_some()).collect();
        assert_eq!(sent, vec![2]);
        assert_eq!(since[2].1.as_ref(), Some(&c.encode_shards()[2]));
        assert_ne!(since[2].0, held[2]);
    }

    #[test]
    fn round_robin_spreads_items() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        for i in 0..1_000 {
            c.update(i);
        }
        for shard in &c.shards {
            let len = shard.lock().len();
            assert_eq!(len, 250);
        }
    }

    #[test]
    fn batch_ingest_spreads_across_shards_and_counts() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        let items: Vec<u64> = (0..100_000).collect();
        c.update_batch(&items);
        assert_eq!(c.len(), 100_000);
        for shard in &c.shards {
            assert_eq!(shard.lock().len(), 25_000);
        }
        let snap = c.snapshot().unwrap();
        assert_eq!(snap.len(), 100_000);
        let r = snap.rank(&50_000);
        assert!((r as f64 - 50_001.0).abs() / 50_001.0 < 0.2, "rank {r}");
    }

    #[test]
    fn multithreaded_batch_ingest_counts_everything() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 8).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                scope.spawn(move || {
                    let items: Vec<u64> = (0..25_000u64).map(|i| t * 25_000 + i).collect();
                    for chunk in items.chunks(1000) {
                        c.update_batch_in_shard(t as usize, chunk);
                    }
                });
            }
        });
        assert_eq!(c.len(), 200_000);
        assert_eq!(c.snapshot().unwrap().len(), 200_000);
    }

    #[test]
    fn cached_snapshot_reuses_until_a_shard_mutates() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        c.update_batch(&(0..10_000u64).collect::<Vec<_>>());
        let a = c.cached_snapshot().unwrap();
        let b = c.cached_snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "unchanged shards must share a snapshot"
        );
        assert_eq!(c.snapshot_cache_stats(), (1, 1));
        c.update(42);
        let d = c.cached_snapshot().unwrap();
        assert!(
            !Arc::ptr_eq(&a, &d),
            "mutation must invalidate the snapshot"
        );
        assert_eq!(d.len(), 10_001);
        assert_eq!(c.snapshot_cache_stats(), (1, 2));
    }

    #[test]
    fn concurrent_queries_answer_from_cached_snapshot() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        c.update_batch(&(0..50_000u64).collect::<Vec<_>>());
        let r = c.rank(&25_000).unwrap();
        assert!((r as f64 - 25_001.0).abs() / 25_001.0 < 0.2);
        assert!(c.quantile(0.5).unwrap().is_some());
        let qs = c.quantiles(&[0.1, 0.9]).unwrap();
        assert_eq!(qs.len(), 2);
        let cdf = c.cdf(&[10_000, 40_000]).unwrap();
        assert!(cdf[0] < cdf[1]);
        // All four query calls read the shards in place: no merged snapshot
        // is built, and the union view at most once.
        assert_eq!(c.snapshot_cache_stats(), (0, 0));
        let stats = c.read_cache_stats();
        assert!(stats.builds <= 1, "{stats:?}");
        assert_eq!(stats.direct + stats.cached, 6);
    }

    /// Four shards whose levels hold cold runs, warm runs and raw tails.
    fn layered(c: &ConcurrentReqSketch<u64>) {
        let items: Vec<u64> = (0..60_000u64)
            .map(|i| i.wrapping_mul(7_919) % 9_973)
            .collect();
        for (i, chunk) in items.chunks(997).enumerate() {
            c.update_batch_in_shard(i, chunk);
        }
        for &x in &items[..333] {
            c.update(x);
        }
    }

    fn epochs(c: &ConcurrentReqSketch<u64>) -> Vec<u64> {
        c.shards.iter().map(|s| s.lock().epoch()).collect()
    }

    #[test]
    fn reads_never_change_shard_state() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        let twin = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        layered(&c);
        layered(&twin);
        let (warm, raw) = c.shards.iter().fold((false, false), |(w, r), s| {
            let s = s.lock();
            let set = s.level_set();
            (
                w || set.levels.iter().any(|l| l.warm_len() > 0),
                r || set
                    .levels
                    .iter()
                    .any(|l| l.len(set.arena) > l.run_len(set.arena) + l.warm_len()),
            )
        });
        assert!(warm && raw, "levels must hold warm runs and raw tails");
        let bytes = c.encode_shards();
        let tags = epochs(&c);

        // A burst of direct reads, then enough to build and serve the view.
        let probes: Vec<u64> = (0..9_973).step_by(101).collect();
        for &y in &probes[..10] {
            c.rank(&y).unwrap();
            c.quantile(y as f64 / 9_973.0).unwrap();
        }
        c.cdf(&probes[..3]).unwrap();
        assert_eq!(c.read_cache_stats().builds, 0, "still direct");
        c.ranks(&vec![5u64; 10_000]).unwrap();
        c.quantiles(&[0.0, 0.3, 0.99, 1.0]).unwrap();
        c.cdf(&probes).unwrap();
        assert_eq!(c.read_cache_stats().builds, 1);
        assert!(c.read_cache_stats().cached > 0);

        assert_eq!(c.encode_shards(), bytes, "a read changed shard bytes");
        assert_eq!(epochs(&c), tags, "a read bumped a shard epoch");
        // The read sketch and its never-read twin continue in lockstep.
        let more: Vec<u64> = (0..5_000u64).map(|i| i * 31 % 4_001).collect();
        c.update_batch(&more);
        twin.update_batch(&more);
        assert_eq!(c.encode_shards(), twin.encode_shards());
    }

    #[test]
    fn checkpoint_drops_the_read_cache_even_when_epochs_realign() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        c.update_batch(&(0..10_000u64).collect::<Vec<_>>());
        c.ranks(&vec![1u64; 10_000]).unwrap();
        assert_eq!(c.read_cache_stats().builds, 1, "the view is cached");
        let tags = epochs(&c);
        c.checkpoint().unwrap();
        assert!(epochs(&c).iter().all(|&e| e == 0));
        // Push exactly as many single items into each shard as its old tag,
        // so every epoch equals the tag the cached view was stored under.
        for (i, &tag) in tags.iter().enumerate() {
            for _ in 0..tag {
                c.update_in_shard(i, 50_000);
            }
        }
        assert_eq!(epochs(&c), tags);
        let added: u64 = tags.iter().sum();
        assert_eq!(c.rank(&u64::MAX).unwrap(), 10_000 + added);
        assert_eq!(c.quantile(1.0).unwrap(), Some(50_000));
    }

    #[test]
    fn snapshot_of_empty_is_empty() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        assert!(c.is_empty());
        let snap = c.snapshot().unwrap();
        assert!(snap.is_empty());
    }

    #[test]
    fn checkpoint_restore_then_identical_ops_stay_value_identical() {
        let live = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        live.update_batch(&(0..50_000u64).collect::<Vec<_>>());
        let parts = live.checkpoint().unwrap();
        let restored =
            ConcurrentReqSketch::<u64>::from_checkpoint(&parts, live.rotation()).unwrap();
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.rotation(), live.rotation());

        // The same op sequence applied to both sides must keep them
        // value-identical: the swap inside checkpoint() put the live
        // sketch on exactly the state the bytes describe (same RNG seeds),
        // and the restored rotation routes chunks to the same shards.
        for round in 0..5u64 {
            let batch: Vec<u64> = (0..10_000).map(|i| i * 7 + round).collect();
            live.update_batch(&batch);
            restored.update_batch(&batch);
            live.update(round);
            restored.update(round);
        }
        assert_eq!(restored.len(), live.len());
        for y in (0..70_000u64).step_by(1_111) {
            assert_eq!(
                restored.rank(&y).unwrap(),
                live.rank(&y).unwrap(),
                "rank diverged at {y}"
            );
        }
    }

    #[test]
    fn checkpoint_invalidates_cached_snapshot() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 2).unwrap();
        c.update_batch(&(0..10_000u64).collect::<Vec<_>>());
        let before = c.cached_snapshot().unwrap();
        c.checkpoint().unwrap();
        let after = c.cached_snapshot().unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "checkpoint must drop the memoized snapshot (shard epochs reset)"
        );
        assert_eq!(after.len(), 10_000);
    }

    #[test]
    fn checkpoint_keeps_retained_data_intact() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        c.update_batch(&(0..40_000u64).collect::<Vec<_>>());
        // Each shard's retained multiset must be untouched by the swap;
        // assert through per-shard stats rather than the merged snapshot,
        // whose assembly draws fresh (legitimately different) coin flips.
        let before: Vec<(u64, usize)> = c
            .shards
            .iter()
            .map(|s| {
                let g = s.lock();
                (g.len(), g.retained())
            })
            .collect();
        c.checkpoint().unwrap();
        let after: Vec<(u64, usize)> = c
            .shards
            .iter()
            .map(|s| {
                let g = s.lock();
                (g.len(), g.retained())
            })
            .collect();
        assert_eq!(before, after, "checkpoint changed shard contents");
        assert_eq!(c.len(), 40_000);
        // Post-checkpoint answers stay within the sketch's (loose) envelope.
        let r = c.rank(&20_000).unwrap();
        assert!((r as f64 - 20_001.0).abs() / 20_001.0 < 0.2, "rank {r}");
    }

    #[test]
    fn from_checkpoint_rejects_garbage() {
        assert!(ConcurrentReqSketch::<u64>::from_checkpoint::<Vec<u8>>(&[], 0).is_err());
        assert!(ConcurrentReqSketch::<u64>::from_checkpoint(&[b"junk".to_vec()], 0).is_err());

        // Mixed configurations across shards are rejected.
        let a = ConcurrentReqSketch::<u64>::new(builder(), 1).unwrap();
        let b =
            ConcurrentReqSketch::<u64>::new(ReqSketch::<u64>::builder().k(16).seed(9), 1).unwrap();
        a.update_batch(&(0..1_000u64).collect::<Vec<_>>());
        b.update_batch(&(0..1_000u64).collect::<Vec<_>>());
        let mut parts = a.checkpoint().unwrap();
        parts.extend(b.checkpoint().unwrap());
        assert!(matches!(
            ConcurrentReqSketch::<u64>::from_checkpoint(&parts, 0),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn shards_have_distinct_seeds() {
        let c = ConcurrentReqSketch::<u64>::new(builder(), 4).unwrap();
        let seeds: Vec<u64> = c.shards.iter().map(|s| s.lock().seed()).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
