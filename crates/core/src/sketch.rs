//! The full REQ sketch (paper §2.2, Algorithm 2 "KLL-relative").
//!
//! The sketch is a stack of [relative-compactors](crate::compactor): the
//! output stream of the level-`h` compactor feeds level `h+1`, and an item
//! retained at level `h` carries weight `2^h`. Rank estimation sums the
//! weights of retained items `≤ y` (`Estimate-Rank` in Algorithm 2).
//!
//! Stream-length handling follows the paper's most general machinery
//! (Appendix D + footnote 9): the sketch keeps a current length estimate `N`;
//! when `n` outgrows it, every non-top level undergoes a *special compaction*,
//! `N` is squared (`Nᵢ₊₁ = Nᵢ²`, §5), and `k`/`B` are recomputed from the
//! parameter policy. Single-item updates are the "trivial merge" of Appendix
//! D, so one code path backs both streaming and merging, and Theorem 36's
//! guarantee applies to any interleaving of the two.
//!
//! That estimate-driven geometry is the
//! [`CompactionSchedule::Standard`](crate::schedule::CompactionSchedule)
//! schedule. Under
//! [`CompactionSchedule::Adaptive`](crate::schedule::CompactionSchedule)
//! (arXiv:2511.17396) the special-compaction machinery is bypassed entirely:
//! each level re-plans its own section count from the weight it has absorbed
//! — on fill (the capacity check widens the buffer instead of compacting
//! when the weight has earned more sections) and on merge — so growth and
//! merging never over-compact. See [`crate::schedule`] for the planning
//! function and [`crate::merge`] for the merge-time behaviour.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sketch_traits::{MergeableSketch, QuantileSketch, SpaceUsage};

use crate::arena::LevelArena;
use crate::compactor::{RankAccuracy, RelativeCompactor};
use crate::error::ReqError;
use crate::params::{ParamPolicy, Params};
use crate::schedule::CompactionSchedule;
use crate::union::Union;
use crate::view::{LevelSet, ReadCache, ReadCacheStats, SortedView};

/// The Relative Error Quantiles sketch of Cormode, Karnin, Liberty, Thaler
/// and Veselý (PODS 2021).
///
/// * **Guarantee** (Theorems 1 and 3): for any fixed item `y`, with
///   probability at least `1 − δ`, `|R̂(y) − R(y)| ≤ ε·R(y)` (low-rank
///   orientation) or `≤ ε·(n − R(y) + 1)` (high-rank orientation).
/// * **Space**: `O(ε⁻¹·log^1.5(εn)·√log(1/δ))` retained items.
/// * **Fully mergeable**: arbitrary merge trees preserve the guarantee.
///
/// # Example
/// ```
/// use req_core::{ReqSketch, RankAccuracy};
/// use sketch_traits::QuantileSketch;
///
/// let mut sketch = ReqSketch::<u64>::builder()
///     .k(12)
///     .rank_accuracy(RankAccuracy::HighRank)
///     .seed(7)
///     .build()
///     .unwrap();
/// for i in 0..100_000u64 {
///     sketch.update(i);
/// }
/// let p99 = sketch.quantile(0.99).unwrap();
/// assert!((p99 as f64 - 99_000.0).abs() < 2_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct ReqSketch<T> {
    pub(crate) policy: ParamPolicy,
    pub(crate) accuracy: RankAccuracy,
    /// All level buffers, as slots of one contiguous allocation (slot `h`
    /// backs `levels[h]`). The compaction cascade, gallop merges, and the
    /// query-view build all walk this single arena with predictable strides.
    pub(crate) arena: LevelArena<T>,
    pub(crate) levels: Vec<RelativeCompactor<T>>,
    pub(crate) n: u64,
    pub(crate) max_n: u64,
    pub(crate) k: u32,
    pub(crate) num_sections: u32,
    pub(crate) min_item: Option<T>,
    pub(crate) max_item: Option<T>,
    pub(crate) rng: SmallRng,
    pub(crate) seed: u64,
    /// How per-level geometry evolves: the paper's fixed estimate-driven
    /// schedule, or weight-adaptive compactors (arXiv:2511.17396).
    /// Structural state — serialized (binary v3).
    pub(crate) schedule: CompactionSchedule,
    /// Dirty epoch: bumped by every mutation, validates the read cache.
    pub(crate) epoch: u64,
    /// The read cache every `rank`/`quantile`/`cdf`/`pmf` goes through.
    pub(crate) cache: ReadCache<T>,
}

impl<T: Ord + Clone> ReqSketch<T> {
    /// Start configuring a sketch. See [`crate::ReqSketchBuilder`].
    pub fn builder() -> crate::builder::ReqSketchBuilder {
        crate::builder::ReqSketchBuilder::new()
    }

    /// Build with an explicit policy, orientation, and RNG seed, on the
    /// standard (estimate-driven) schedule.
    pub fn with_policy(policy: ParamPolicy, accuracy: RankAccuracy, seed: u64) -> Self {
        Self::with_policy_scheduled(policy, accuracy, seed, CompactionSchedule::Standard)
    }

    /// [`ReqSketch::with_policy`] with an explicit [`CompactionSchedule`].
    ///
    /// Under [`CompactionSchedule::Adaptive`] the policy's *initial* section
    /// count becomes the per-level floor and each level re-plans its own
    /// geometry from absorbed weight; the known-`n` policies (whose initial
    /// estimate is the final `n`) therefore gain nothing from it — it is
    /// aimed at the unknown-`n` [`ParamPolicy::Mergeable`]/
    /// [`ParamPolicy::FixedK`] deployments.
    pub fn with_policy_scheduled(
        policy: ParamPolicy,
        accuracy: RankAccuracy,
        seed: u64,
        schedule: CompactionSchedule,
    ) -> Self {
        let max_n = policy.initial_max_n();
        let Params { k, num_sections } = policy.params_for(max_n);
        ReqSketch {
            policy,
            accuracy,
            arena: LevelArena::new(),
            levels: Vec::new(),
            n: 0,
            max_n,
            k,
            num_sections,
            min_item: None,
            max_item: None,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            schedule,
            epoch: 0,
            cache: ReadCache::new(),
        }
    }

    /// Construct deserialized state; `pub(crate)` glue for `binary`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        policy: ParamPolicy,
        accuracy: RankAccuracy,
        arena: LevelArena<T>,
        levels: Vec<RelativeCompactor<T>>,
        n: u64,
        max_n: u64,
        k: u32,
        num_sections: u32,
        min_item: Option<T>,
        max_item: Option<T>,
        seed: u64,
        schedule: CompactionSchedule,
    ) -> Self {
        debug_assert_eq!(arena.num_levels(), levels.len());
        ReqSketch {
            policy,
            accuracy,
            arena,
            levels,
            n,
            max_n,
            k,
            num_sections,
            min_item,
            max_item,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            schedule,
            // Deserialized sketches start with a cold cache (the cache is
            // derived state; serialization soundly drops it).
            epoch: 0,
            cache: ReadCache::new(),
        }
    }

    /// The configured parameter policy.
    pub fn policy(&self) -> ParamPolicy {
        self.policy
    }

    /// Which end of the rank axis carries the multiplicative guarantee.
    pub fn rank_accuracy(&self) -> RankAccuracy {
        self.accuracy
    }

    /// The active [`CompactionSchedule`] (standard estimate-driven geometry
    /// by default; fixed at construction — see
    /// [`crate::ReqSketchBuilder::schedule`]).
    pub fn compaction_schedule(&self) -> CompactionSchedule {
        self.schedule
    }

    /// Normalize every level into one sorted run (tails merged in). Queries
    /// and serialized state are unaffected semantically; this makes the
    /// per-level item order — and therefore [`Self::to_bytes`] output —
    /// canonical for a given retained multiset, which is what the
    /// byte-identity proptests compare across item lanes (the arena
    /// kernels of `ReqSketch<u64>` against the safe `Vec` lane every type
    /// with drop glue takes).
    pub fn canonicalize(&mut self) {
        self.mark_dirty();
        let acc = self.accuracy;
        for level in &mut self.levels {
            level.ensure_sorted(&mut self.arena, acc);
        }
    }

    /// The flat level arena backing every compactor buffer (read access,
    /// for stats and views).
    pub fn arena(&self) -> &LevelArena<T> {
        &self.arena
    }

    /// Current section size `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Current per-level section count.
    pub fn num_sections(&self) -> u32 {
        self.num_sections
    }

    /// Current per-level buffer capacity `B = 2·k·s` under the standard
    /// schedule. Under [`CompactionSchedule::Adaptive`] this is the *floor*
    /// capacity of a fresh level; adapted levels report their own (larger)
    /// capacity via [`crate::LevelStats::capacity`].
    pub fn level_capacity(&self) -> usize {
        2 * self.k as usize * self.num_sections as usize
    }

    /// Number of levels (relative-compactors) currently allocated.
    ///
    /// Observation 13 bounds this by `⌈log₂(n/B)⌉ + 1`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Current stream-length estimate `N` (`n ≤ N` always).
    pub fn max_n(&self) -> u64 {
        self.max_n
    }

    /// The RNG seed this sketch was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Smallest item seen (exact, tracked outside the compactors).
    pub fn min_item(&self) -> Option<&T> {
        self.min_item.as_ref()
    }

    /// Largest item seen (exact).
    pub fn max_item(&self) -> Option<&T> {
        self.max_item.as_ref()
    }

    /// Total weight of retained items, `Σ_h 2^h·|buf_h|`.
    ///
    /// Equals `n` exactly: every compaction — streamed, merged, special or
    /// weighted — removes an even number of items and promotes half of them
    /// at twice the weight, and decoding rejects bytes where the two differ.
    pub fn total_weight(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(h, l)| (l.len(&self.arena) as u64) << h)
            .sum()
    }

    /// `total_weight() − n`, the check of the invariant that weight equals
    /// `n` (see [`Self::total_weight`]): always 0.
    pub fn weight_drift(&self) -> i64 {
        self.total_weight() as i64 - self.n as i64
    }

    /// Estimated exclusive rank `|{x < y}|`, through the read cache.
    pub fn rank_exclusive(&self, y: &T) -> u64 {
        self.read(1, |_, union| union.rank_exclusive(y)).remove(0)
    }

    /// `Estimate-Rank(y)` by direct level probe, bypassing the read cache:
    /// [`LevelSet::weight_where`] with `x ≤ y`, a binary search per sorted
    /// run and a scan of each (small) raw tail, with no allocation. It is
    /// what a direct rank read counts, and the ground truth the cached path
    /// is tested against.
    pub fn rank_direct(&self, y: &T) -> u64 {
        self.level_set().weight_where(|x| x <= y, &mut 0)
    }

    /// Build a fresh sorted weighted snapshot — a loser-tree k-way merge of
    /// the per-level sorted runs (`O(retained·log levels)` plus sorting only
    /// the small unsorted tails), then `O(log retained)` per query.
    ///
    /// [`Self::cached_view`] keeps its build for later reads of an
    /// unchanged sketch. `sorted_view` always rebuilds and is kept for
    /// callers that want a view detached from the sketch's cache (and for
    /// verifying the cache against ground truth).
    pub fn sorted_view(&self) -> SortedView<T> {
        SortedView::from_levels(&[self.level_set()])
    }

    /// The compactor levels, their arena and orientation, as the view
    /// builder and the union selection ([`crate::union`]) read them.
    pub fn level_set(&self) -> LevelSet<'_, T> {
        LevelSet {
            levels: &self.levels,
            arena: &self.arena,
            accuracy: self.accuracy,
        }
    }

    /// This sketch's cached view, built now if the read cache holds none.
    ///
    /// The view stays in the read cache, answering `rank`/`quantile`/
    /// `cdf`/`pmf`, until the next mutation (`update`, `update_batch`,
    /// `update_weighted`, `merge`, parameter growth) bumps the dirty
    /// [`Self::epoch`]. Cheap to clone (`Arc`); hold it across a probe
    /// batch to keep queries `O(log retained)`.
    pub fn cached_view(&self) -> Arc<SortedView<T>> {
        self.cache.view(std::slice::from_ref(&self))
    }

    /// Answer `m` points through the read cache, over the union of this one
    /// sketch (see [`ReadCacheStats`]).
    pub(crate) fn read<R>(
        &self,
        m: usize,
        answer: impl FnMut(usize, &Union<'_, T>) -> R,
    ) -> Vec<R> {
        self.cache.read(std::slice::from_ref(&self), m, answer)
    }

    /// Monotone mutation counter; two equal epochs on the same sketch imply
    /// identical retained contents (the converse need not hold).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime counters of the read cache behind `rank`/`quantile`/`cdf`/
    /// `pmf`.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.cache.stats()
    }

    /// Invalidate the read cache. Every mutating path funnels through
    /// this.
    pub(crate) fn mark_dirty(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Structural statistics (per-level fill, schedule states, sizes).
    pub fn stats(&self) -> crate::stats::SketchStats {
        crate::stats::SketchStats::collect(self)
    }

    /// Merge, returning an error (instead of panicking) on incompatible
    /// sketches — differing parameter policies, orientations, or compaction
    /// schedules. See [`MergeableSketch::merge`] for the panicking version.
    ///
    /// ```
    /// use req_core::{ReqSketch, RankAccuracy};
    /// use sketch_traits::QuantileSketch;
    ///
    /// let build = |seed| {
    ///     ReqSketch::<u64>::builder()
    ///         .k(12)
    ///         .rank_accuracy(RankAccuracy::LowRank)
    ///         .seed(seed)
    ///         .build()
    ///         .unwrap()
    /// };
    /// let mut a = build(1);
    /// let mut b = build(2);
    /// for i in 0..10_000u64 {
    ///     a.update(i);           // low half
    ///     b.update(10_000 + i);  // high half
    /// }
    /// a.try_merge(b).expect("same policy + orientation");
    /// assert_eq!(a.len(), 20_000);
    /// assert_eq!(a.rank(&99), 100); // low ranks stay exact in LowRank mode
    ///
    /// // Mismatched configurations are rejected, not silently merged:
    /// let other_k = ReqSketch::<u64>::builder().k(32).seed(3).build().unwrap();
    /// assert!(a.try_merge(other_k).is_err());
    /// ```
    pub fn try_merge(&mut self, other: Self) -> Result<(), ReqError> {
        crate::merge::merge_into(self, other)
    }

    pub(crate) fn ensure_level(&mut self, h: usize) {
        while self.levels.len() <= h {
            self.levels.push(RelativeCompactor::new(
                &mut self.arena,
                self.k,
                self.num_sections,
            ));
            debug_assert_eq!(self.levels.last().unwrap().slot(), self.levels.len() - 1);
        }
    }

    /// Apply the current `(k, num_sections)` to every level.
    pub(crate) fn apply_params_to_levels(&mut self) {
        let (k, s) = (self.k, self.num_sections);
        for level in &mut self.levels {
            level.set_params(&mut self.arena, k, s);
        }
    }

    /// Special-compact every level below the top (Algorithm 3,
    /// `SpecialCompaction`): each is left with at most `B/2` items. Emitted
    /// halves are sorted runs and are *merged* into the level above, so the
    /// run invariant survives parameter growth.
    pub(crate) fn special_compact_levels(&mut self) {
        if self.levels.len() < 2 {
            return;
        }
        let top = self.levels.len() - 1;
        let mut out: Vec<T> = Vec::new();
        for h in 0..top {
            let coin = self.rng.gen::<bool>();
            let accuracy = self.accuracy;
            out.clear();
            if self.levels[h]
                .compact_special(&mut self.arena, accuracy, coin, &mut out)
                .is_some()
            {
                self.levels[h + 1].merge_sorted_run(&mut self.arena, &mut out, accuracy);
            }
        }
    }

    /// Grow the stream-length estimate to cover `target_n`.
    ///
    /// * [`CompactionSchedule::Standard`] (§5 / Algorithm 3 lines 4–7):
    ///   special-compact, square `N` (repeatedly, for merge jumps),
    ///   recompute `k`/`B` for every level.
    /// * [`CompactionSchedule::Adaptive`] (arXiv:2511.17396): **no special
    ///   compactions** — each level re-plans its own geometry from absorbed
    ///   weight, so growth widens buffers in place. The estimate advances by
    ///   doubling (not squaring) and only feeds `k` for the `N`-dependent
    ///   policies; because it is a pure function of the total `n`, merged and
    ///   streamed sketches land on the same ladder point.
    pub(crate) fn grow_to_cover(&mut self, target_n: u64) {
        debug_assert!(self.max_n < target_n);
        match self.schedule {
            CompactionSchedule::Standard => {
                self.special_compact_levels();
                self.max_n = covering_max_n(&self.policy, self.schedule, self.max_n, target_n);
                let Params { k, num_sections } = self.policy.params_for(self.max_n);
                self.k = k;
                self.num_sections = num_sections;
                self.apply_params_to_levels();
                // Special-compaction output can leave a level (including the
                // former top) at or above its new capacity; normalize with
                // one batch pass.
                self.merge_compaction_pass();
            }
            CompactionSchedule::Adaptive => {
                self.max_n = covering_max_n(&self.policy, self.schedule, self.max_n, target_n);
                let Params { k, .. } = self.policy.params_for(self.max_n);
                if k != self.k {
                    // `self.num_sections` stays at the policy's initial
                    // count — the adaptive floor; levels keep their own
                    // adapted section counts.
                    self.k = k;
                    for level in &mut self.levels {
                        let s = level.num_sections();
                        level.set_params(&mut self.arena, k, s);
                    }
                }
                let floor = self.num_sections;
                for level in &mut self.levels {
                    level.maybe_adapt(&mut self.arena, floor);
                }
                // A shrinking k can drop a capacity below its fill;
                // normalize (a no-op for fixed-k policies).
                self.merge_compaction_pass();
            }
        }
    }

    /// Capacity check that, under the adaptive schedule, first lets level
    /// `h` re-plan its section count from its absorbed weight — growing the
    /// buffer instead of compacting when the observed weight says it has
    /// earned more sections. Every compaction-triggering path funnels
    /// through this.
    pub(crate) fn level_due_compaction(&mut self, h: usize) -> bool {
        if self.schedule == CompactionSchedule::Adaptive
            && self.levels[h].is_at_capacity(&self.arena)
        {
            let floor = self.num_sections;
            self.levels[h].maybe_adapt(&mut self.arena, floor);
        }
        self.levels[h].is_at_capacity(&self.arena)
    }

    /// Insert compaction output into level `h` — the `Insert(z, h+1)`
    /// recursion of Algorithm 2, upgraded to run maintenance. A thin shim
    /// over [`Self::cascade_pooled`] (one code path keeps the per-item and
    /// batched ingest state-identical); the pool it allocates here is
    /// transient, mirroring the pre-pool per-compaction allocation cost.
    pub(crate) fn propagate(&mut self, h: usize, items: Vec<T>) {
        debug_assert!(h >= 1, "level 0 receives raw pushes, not runs");
        let mut pool: Vec<Vec<T>> = Vec::with_capacity(h);
        pool.resize_with(h, Vec::new);
        pool[h - 1] = items;
        self.cascade_pooled(h, &mut pool);
    }

    /// The compaction cascade: on entry `pool[h - 1]` holds a sorted run
    /// destined for level `h`; it is *merged* into that level's run in
    /// room-sized chunks (no intermediate chunk buffer — see
    /// [`RelativeCompactor::merge_sorted_run_prefix`]), so a compaction
    /// still fires with the buffer at exactly `B` items (the compacted count
    /// is exactly `L`, even, and weight is conserved) but the receiving
    /// level never re-sorts. `pool[h]` receives the output of level-`h`
    /// compactions and is returned to the pool (cleared, capacity kept) on
    /// exit, so a whole batch performs amortized zero allocations.
    pub(crate) fn cascade_pooled(&mut self, h: usize, pool: &mut Vec<Vec<T>>) {
        while pool.len() <= h {
            pool.push(Vec::new());
        }
        self.ensure_level(h);
        let mut incoming = std::mem::take(&mut pool[h - 1]);
        while !incoming.is_empty() {
            let room = self.levels[h]
                .capacity()
                .saturating_sub(self.levels[h].len(&self.arena))
                .max(1);
            let accuracy = self.accuracy;
            let take = incoming.len().min(room);
            self.levels[h].merge_sorted_run_prefix(&mut self.arena, &mut incoming, take, accuracy);
            if self.level_due_compaction(h) {
                let coin = self.rng.gen::<bool>();
                let mut out = std::mem::take(&mut pool[h]);
                out.clear();
                self.levels[h].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
                pool[h] = out;
                self.cascade_pooled(h + 1, pool);
            }
        }
        pool[h - 1] = incoming;
    }

    /// One bottom-up pass compacting every at-capacity level
    /// (Algorithm 3 lines 22–24): at most one scheduled compaction per level,
    /// used after merges and parameter growth where buffers can transiently
    /// exceed `B`.
    pub(crate) fn merge_compaction_pass(&mut self) {
        let mut out: Vec<T> = Vec::new();
        let mut h = 0;
        while h < self.levels.len() {
            if self.level_due_compaction(h) {
                self.ensure_level(h + 1);
                let coin = self.rng.gen::<bool>();
                let accuracy = self.accuracy;
                out.clear();
                self.levels[h].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
                self.levels[h + 1].merge_sorted_run(&mut self.arena, &mut out, accuracy);
            }
            h += 1;
        }
    }

    pub(crate) fn track_min_max(&mut self, item: &T) {
        match &self.min_item {
            Some(m) if item >= m => {}
            _ => self.min_item = Some(item.clone()),
        }
        match &self.max_item {
            Some(m) if item <= m => {}
            _ => self.max_item = Some(item.clone()),
        }
    }

    pub(crate) fn merge_min_max(&mut self, other_min: Option<T>, other_max: Option<T>) {
        if let Some(m) = other_min {
            self.track_min_max(&m);
        }
        if let Some(m) = other_max {
            self.track_min_max(&m);
        }
    }
}

/// The first stream-length estimate at or above `n` on the ladder that
/// climbs from `from`: squared per step under the standard schedule (§5),
/// doubled under the adaptive one. Every sketch keeps its `max_n` at
/// `covering_max_n(policy, schedule, policy.initial_max_n(), n)`.
pub(crate) fn covering_max_n(
    policy: &ParamPolicy,
    schedule: CompactionSchedule,
    mut from: u64,
    n: u64,
) -> u64 {
    while from < n {
        from = match schedule {
            CompactionSchedule::Standard => policy.next_max_n(from),
            CompactionSchedule::Adaptive => from.max(1).saturating_mul(2),
        };
    }
    from
}

impl<T: Ord + Clone> QuantileSketch<T> for ReqSketch<T> {
    fn update(&mut self, item: T) {
        self.mark_dirty();
        self.track_min_max(&item);
        self.n += 1;
        if self.n > self.max_n {
            self.grow_to_cover(self.n);
        }
        self.ensure_level(0);
        self.levels[0].push(&mut self.arena, item);
        if self.level_due_compaction(0) {
            let coin = self.rng.gen::<bool>();
            let accuracy = self.accuracy;
            let mut out = Vec::new();
            self.levels[0].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
            self.propagate(1, out);
        }
    }

    /// Batched ingest: append whole slices into level 0 and run the
    /// compaction cascade once per buffer fill, instead of checking capacity
    /// per item. Produces a sketch **bit-identical** to per-item ingest of
    /// the same slice (compactions fire at the same points with the same
    /// coin flips); only the constant factors change — no per-item branch,
    /// no per-item min/max comparison against the tracked extremes, and a
    /// bulk `extend_from_slice` into the level-0 buffer.
    fn update_batch(&mut self, items: &[T]) {
        if items.is_empty() {
            return;
        }
        self.mark_dirty();
        // One pass for the extremes, then two comparisons against the
        // tracked min/max — instead of two comparisons per item.
        let mut iter = items.iter();
        let first = iter.next().expect("non-empty");
        let (mut lo, mut hi) = (first, first);
        for x in iter {
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        let (lo, hi) = (lo.clone(), hi.clone());
        self.track_min_max(&lo);
        self.track_min_max(&hi);

        // Reusable emission buffers for the whole batch: pool[h] receives
        // level-h compaction output (amortized zero allocations, vs one
        // transient Vec per compaction on the per-item path).
        let mut pool: Vec<Vec<T>> = vec![Vec::new()];
        let mut rest = items;
        while !rest.is_empty() {
            // Mirror the per-item schedule: the estimate grows exactly when
            // the next item would push `n` past `N`.
            if self.n >= self.max_n {
                let target = self.n + 1;
                self.grow_to_cover(target);
            }
            self.ensure_level(0);
            // Per-level capacity: under the adaptive schedule level 0 may
            // have outgrown the sketch-level floor `level_capacity()`.
            let cap = self.levels[0].capacity();
            let room = cap.saturating_sub(self.levels[0].len(&self.arena)).max(1);
            let until_growth = usize::try_from(self.max_n - self.n)
                .unwrap_or(usize::MAX)
                .max(1);
            let take = rest.len().min(room).min(until_growth);
            let (chunk, tail) = rest.split_at(take);
            self.levels[0].push_slice(&mut self.arena, chunk);
            self.n += take as u64;
            rest = tail;
            if self.level_due_compaction(0) {
                let coin = self.rng.gen::<bool>();
                let accuracy = self.accuracy;
                let mut out = std::mem::take(&mut pool[0]);
                out.clear();
                self.levels[0].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
                pool[0] = out;
                self.cascade_pooled(1, &mut pool);
            }
        }
    }

    fn len(&self) -> u64 {
        self.n
    }

    /// `Estimate-Rank(y)` from Algorithm 2, through the read cache: a direct
    /// level probe ([`ReqSketch::rank_direct`]) until repeated reads of the
    /// unchanged sketch have paid for a view, `O(log retained)` after.
    fn rank(&self, y: &T) -> u64 {
        self.read(1, |_, union| union.rank(y)).remove(0)
    }

    /// Through the read cache, like [`QuantileSketch::rank`]. The endpoints
    /// `q ≤ 0` and `q ≥ 1` return the exactly tracked minimum/maximum
    /// (which may have been compacted out of the retained set in the
    /// unprotected orientation); see [`Union::quantile`].
    fn quantile(&self, q: f64) -> Option<T> {
        self.read(1, |_, union| union.quantile(q)).remove(0)
    }

    fn ranks(&self, items: &[T]) -> Vec<u64> {
        ReqSketch::ranks(self, items)
    }

    fn quantiles(&self, qs: &[f64]) -> Vec<Option<T>> {
        ReqSketch::quantiles(self, qs)
    }

    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        ReqSketch::cdf(self, split_points)
    }
}

impl<T: Ord + Clone> MergeableSketch for ReqSketch<T> {
    /// Merge per Algorithm 3.
    ///
    /// # Panics
    /// If the sketches have different parameter policies or orientations;
    /// use [`ReqSketch::try_merge`] for a fallible version.
    fn merge(&mut self, other: Self) {
        self.try_merge(other).expect("incompatible sketches");
    }
}

impl<T> SpaceUsage for ReqSketch<T> {
    fn retained(&self) -> usize {
        self.levels.iter().map(|l| l.len(&self.arena)).sum()
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.arena.arena_bytes()
            + self.levels.len() * std::mem::size_of::<RelativeCompactor<T>>()
    }
}

impl<T: Ord + Clone> Default for ReqSketch<T> {
    /// DataSketches-style default: `k = 12`, high-rank accuracy, seeded from
    /// the global RNG.
    fn default() -> Self {
        ReqSketch::<T>::builder()
            .build()
            .expect("default parameters are valid")
    }
}

/// REQ sketch over `f64` values via the total-order wrapper.
pub type ReqF64 = ReqSketch<crate::ordf64::OrdF64>;

impl ReqF64 {
    /// Update with a raw `f64`.
    pub fn update_f64(&mut self, value: f64) {
        self.update(crate::ordf64::OrdF64(value));
    }

    /// Estimated inclusive rank of a raw `f64`.
    pub fn rank_f64(&self, value: f64) -> u64 {
        self.rank(&crate::ordf64::OrdF64(value))
    }

    /// Quantile as a raw `f64`.
    pub fn quantile_f64(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|v| v.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_k_sketch(k: u32, acc: RankAccuracy) -> ReqSketch<u64> {
        ReqSketch::with_policy(ParamPolicy::fixed_k(k).unwrap(), acc, 42)
    }

    #[test]
    fn empty_sketch_queries() {
        let s = fixed_k_sketch(12, RankAccuracy::LowRank);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.rank(&5), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min_item(), None);
        assert_eq!(s.max_item(), None);
        assert_eq!(s.retained(), 0);
        assert_eq!(s.total_weight(), 0);
    }

    #[test]
    fn small_stream_is_exact() {
        // While everything fits in level 0, ranks are exact.
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        for i in 1..=50u64 {
            s.update(i);
        }
        assert_eq!(s.num_levels(), 1);
        for y in 0..=60u64 {
            assert_eq!(s.rank(&y), y.clamp(0, 50));
        }
    }

    #[test]
    fn rank_is_monotone_and_bounded() {
        let mut s = fixed_k_sketch(8, RankAccuracy::LowRank);
        for i in 0..100_000u64 {
            s.update(i * 7919 % 100_000);
        }
        let mut prev = 0;
        for y in (0..100_000u64).step_by(997) {
            let r = s.rank(&y);
            assert!(r >= prev, "rank not monotone at {y}");
            prev = r;
        }
        assert!(s.rank(&u64::MAX) == s.total_weight());
    }

    #[test]
    fn total_weight_equals_n_for_streaming() {
        // Streaming compactions always compact an even count, so weight is
        // conserved exactly (Observation 4 bookkeeping).
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let mut s = fixed_k_sketch(12, acc);
            for i in 0..250_000u64 {
                s.update(i ^ 0xABCD);
            }
            assert_eq!(s.total_weight(), 250_000);
            assert_eq!(s.weight_drift(), 0);
        }
    }

    #[test]
    fn min_max_are_exact() {
        let mut s = fixed_k_sketch(8, RankAccuracy::HighRank);
        let items = [5u64, 900, 3, 1000, 77, 3, 999];
        for &x in &items {
            s.update(x);
        }
        assert_eq!(s.min_item(), Some(&3));
        assert_eq!(s.max_item(), Some(&1000));
    }

    #[test]
    fn levels_grow_logarithmically() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        for i in 0..1_000_000u64 {
            s.update(i);
        }
        // Observation 13: #levels <= ceil(log2(n/B)) + 1.
        let b = s.level_capacity() as f64;
        let bound = ((1_000_000.0 / b).log2().ceil() as usize) + 1;
        assert!(
            s.num_levels() <= bound,
            "levels {} exceed Observation 13 bound {}",
            s.num_levels(),
            bound
        );
        assert!(s.num_levels() >= 2);
    }

    #[test]
    fn space_is_sublinear() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        for i in 0..1_000_000u64 {
            s.update(i);
        }
        assert!(s.retained() < 20_000, "retained = {}", s.retained());
        assert!(s.size_bytes() < 1 << 20);
    }

    #[test]
    fn max_n_squares_when_exceeded() {
        let mut s = fixed_k_sketch(4, RankAccuracy::LowRank);
        let n0 = s.max_n();
        assert_eq!(n0, 32); // FixedK initial estimate 8k
        for i in 0..(n0 + 1) {
            s.update(i);
        }
        assert_eq!(s.max_n(), n0 * n0);
        // Section count grew with the estimate.
        assert!(s.num_sections() >= 3);
    }

    #[test]
    fn streaming_accuracy_low_rank_uniform() {
        // Statistical smoke test with a generous margin: k=32 on 2^17 items.
        let mut s = fixed_k_sketch(32, RankAccuracy::LowRank);
        let n = 1u64 << 17;
        // pseudo-random permutation of 0..n via multiplication by odd const
        for i in 0..n {
            s.update((i.wrapping_mul(2654435761)) % n);
        }
        // true rank of y in {perm values} = y+1 ranks... the multiset is a
        // permutation of 0..n, so R(y) = y+1 for y in range.
        for y in [10u64, 100, 1000, 10_000, 100_000] {
            let r_true = (y + 1).min(n);
            let r_est = s.rank(&y);
            let rel = (r_est as f64 - r_true as f64).abs() / r_true as f64;
            assert!(
                rel < 0.35,
                "rank({y}) = {r_est}, true {r_true}, rel err {rel:.3}"
            );
        }
    }

    #[test]
    fn high_rank_mode_is_accurate_at_the_top() {
        let mut s = fixed_k_sketch(32, RankAccuracy::HighRank);
        let n = 1u64 << 17;
        for i in 0..n {
            s.update((i.wrapping_mul(2654435761)) % n);
        }
        for y in [n - 10, n - 100, n - 1000, n - 10_000] {
            let r_true = y + 1;
            let r_est = s.rank(&y);
            let tail_true = n - r_true + 1;
            let err = (r_est as f64 - r_true as f64).abs();
            assert!(
                err <= 0.35 * tail_true as f64 + 1.0,
                "rank({y}) = {r_est}, true {r_true}, tail {tail_true}, err {err}"
            );
        }
    }

    #[test]
    fn quantile_endpoints_match_min_max_stream() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        for i in 100..10_100u64 {
            s.update(i);
        }
        // q=0 returns the smallest retained item; in LowRank mode the global
        // minimum is protected at level 0, so it is exact.
        assert_eq!(s.quantile(0.0), Some(100));
        let q1 = s.quantile(1.0).unwrap();
        assert!(q1 <= 10_099 && q1 > 9_000);
    }

    #[test]
    fn quantile_endpoints_exact_even_when_unprotected() {
        // HRA protects the top; the minimum may leave the retained set, but
        // q=0 / q=1 answer from the exactly tracked extremes regardless.
        let mut s = fixed_k_sketch(8, RankAccuracy::HighRank);
        for i in 0..100_000u64 {
            s.update(i);
        }
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(99_999));
        assert_eq!(s.quantile(f64::NAN), Some(0));
        assert_eq!(s.quantile(-3.0), Some(0));
        assert_eq!(s.quantile(7.0), Some(99_999));
    }

    #[test]
    fn exclusive_rank_relationship() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        for x in [4u64, 4, 4, 9] {
            s.update(x);
        }
        assert_eq!(s.rank(&4), 3);
        assert_eq!(s.rank_exclusive(&4), 0);
        assert_eq!(s.rank_exclusive(&9), 3);
        assert_eq!(s.rank_exclusive(&10), 4);
    }

    #[test]
    fn f64_sketch_roundtrip() {
        let mut s = ReqF64::builder().k(16).seed(3).build_f64().unwrap();
        for i in 0..10_000 {
            s.update_f64(i as f64 / 100.0);
        }
        assert_eq!(s.len(), 10_000);
        let med = s.quantile_f64(0.5).unwrap();
        assert!((med - 50.0).abs() < 5.0, "median {med}");
        let r = s.rank_f64(25.0);
        assert!((r as f64 - 2_500.0).abs() < 250.0);
    }

    #[test]
    fn default_is_usable() {
        let mut s: ReqSketch<u64> = ReqSketch::default();
        for i in 0..1000 {
            s.update(i);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.quantile(0.5).is_some());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = fixed_k_sketch(12, RankAccuracy::LowRank);
        for i in 0..5000u64 {
            a.update(i);
        }
        let b = a.clone();
        for i in 5000..10_000u64 {
            a.update(i);
        }
        assert_eq!(b.len(), 5000);
        assert_eq!(a.len(), 10_000);
        assert_eq!(b.total_weight(), 5000);
    }

    #[test]
    fn update_batch_is_bit_identical_to_per_item() {
        // Same seed, same items: the batch path must fire the same
        // compactions with the same coins, landing in the same state —
        // including the RNG, so the serialized bytes match exactly.
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let items: Vec<u64> = (0..200_000u64)
                .map(|i| i.wrapping_mul(2654435761) % 100_003)
                .collect();
            let mut per_item = fixed_k_sketch(8, acc);
            for &x in &items {
                per_item.update(x);
            }
            let mut batched = fixed_k_sketch(8, acc);
            batched.update_batch(&items);
            assert_eq!(batched.len(), per_item.len());
            assert_eq!(batched.retained(), per_item.retained());
            assert_eq!(batched.max_n(), per_item.max_n());
            assert_eq!(batched.to_bytes(), per_item.to_bytes());
        }
    }

    #[test]
    fn update_batch_in_odd_sized_pieces_matches_one_shot() {
        let items: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(48271)).collect();
        let mut whole = fixed_k_sketch(12, RankAccuracy::LowRank);
        whole.update_batch(&items);
        let mut pieces = fixed_k_sketch(12, RankAccuracy::LowRank);
        for chunk in items.chunks(977) {
            pieces.update_batch(chunk);
        }
        assert_eq!(pieces.to_bytes(), whole.to_bytes());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        s.update_batch(&[1, 2, 3]);
        let epoch = s.epoch();
        s.update_batch(&[]);
        assert_eq!(s.epoch(), epoch);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn queries_on_unchanged_sketch_hit_the_cache() {
        let stats = |direct, cached, builds| ReadCacheStats {
            direct,
            cached,
            builds,
        };
        let mut s = fixed_k_sketch(8, RankAccuracy::LowRank);
        s.update_batch(&(0..100_000u64).collect::<Vec<_>>());
        assert_eq!(s.read_cache_stats(), stats(0, 0, 0));
        // Single reads go straight off the levels...
        let _ = s.rank(&500);
        let _ = s.quantile(0.5);
        assert_eq!(s.read_cache_stats(), stats(2, 0, 0));
        // ...until a burst pays for the view after its first point.
        let _ = s.ranks(&[900; 1_000]);
        assert_eq!(s.read_cache_stats(), stats(3, 999, 1));
        // An unchanged sketch never rebuilds: every later read is cached.
        let _ = s.rank(&900);
        let _ = s.quantile(0.5);
        let _ = s.rank_exclusive(&123);
        assert_eq!(s.read_cache_stats(), stats(3, 1_002, 1));
        // A mutation invalidates: the next read is direct and sees the new
        // item, and the next burst rebuilds exactly once.
        s.update(7);
        assert_eq!(s.rank(&u64::MAX), 100_001, "stale view after update");
        let _ = s.quantiles(&[0.25; 1_000]);
        assert_eq!(s.read_cache_stats(), stats(5, 2_001, 2));
    }

    #[test]
    fn cached_rank_matches_direct_scan() {
        let mut s = fixed_k_sketch(8, RankAccuracy::HighRank);
        for i in 0..80_000u64 {
            s.update(i.wrapping_mul(2654435761) % 80_000);
        }
        for y in (0..80_000u64).step_by(1999) {
            assert_eq!(s.rank(&y), s.rank_direct(&y), "cache/direct split at {y}");
        }
    }

    #[test]
    fn batch_multi_queries_match_singles() {
        let mut s = fixed_k_sketch(12, RankAccuracy::LowRank);
        s.update_batch(&(0..30_000u64).collect::<Vec<_>>());
        let probes = [5u64, 100, 29_999, 40_000];
        assert_eq!(
            QuantileSketch::ranks(&s, &probes),
            probes.iter().map(|y| s.rank(y)).collect::<Vec<_>>()
        );
        let qs = [0.0, 0.1, 0.5, 0.999, 1.0];
        assert_eq!(
            QuantileSketch::quantiles(&s, &qs),
            qs.iter().map(|&q| s.quantile(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sorted_view_matches_direct_rank() {
        let mut s = fixed_k_sketch(8, RankAccuracy::LowRank);
        for i in 0..50_000u64 {
            s.update(i.wrapping_mul(48271) % 50_000);
        }
        let view = s.sorted_view();
        assert_eq!(view.total_weight(), s.total_weight());
        for y in (0..50_000u64).step_by(1777) {
            assert_eq!(view.rank(&y), s.rank(&y), "view/direct mismatch at {y}");
        }
    }
}
