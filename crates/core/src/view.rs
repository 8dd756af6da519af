//! Sorted weighted view of a sketch (the paper's weighted coreset `C`).
//!
//! Rank estimation (Algorithm 2, `Estimate-Rank`) treats the union of all
//! level buffers as a weighted set in which a level-`h` item has weight
//! `2^h`. This module materializes that set once, sorted, with cumulative
//! weights, so that batches of rank/quantile/CDF queries cost one build plus
//! `O(log(retained))` per query. Because each compactor keeps its buffer as
//! sorted runs (+ small tail), the build is a **loser-tree k-way merge** of
//! the per-level runs — `O(retained·log(runs))` comparisons plus sorting
//! copies of only the tails — instead of the `O(retained·log(retained))`
//! full sort a flat item dump would need. The same builder takes several
//! sketches' levels at once and builds their union view, which
//! [`crate::union`] answers without building. Equal adjacent items coalesce
//! into one entry with summed weight, shrinking the probe binary searches on
//! duplicate-heavy streams.

use std::cmp::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::arena::LevelArena;
use crate::compactor::{RankAccuracy, RelativeCompactor};

/// An immutable, sorted, cumulative-weight snapshot of a sketch.
#[derive(Debug, Clone)]
pub struct SortedView<T> {
    /// Distinct items ascending; equal items coalesced with summed weights.
    entries: Vec<(T, u64)>,
    /// `cum[i]` = total weight of `entries[..=i]`.
    cum: Vec<u64>,
    total: u64,
}

impl<T: Ord + Clone> SortedView<T> {
    /// Shared constructor: entries must be ascending with duplicates already
    /// coalesced; computes the cumulative weights.
    fn from_sorted_entries(entries: Vec<(T, u64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut cum = Vec::with_capacity(entries.len());
        let mut running = 0u64;
        for (_, w) in &entries {
            running += w;
            cum.push(running);
        }
        SortedView {
            entries,
            cum,
            total: running,
        }
    }

    /// Build from one or more sketches' compactor levels by one loser-tree
    /// k-way merge of every level's sorted runs (each item weighted `2^h`);
    /// only copies of the small raw tails are sorted. One set is a single
    /// sketch's view; several sets are the union view Algorithm 2 sums over
    /// (the §5 growing sketch's summaries, a sharded sketch's shards).
    pub fn from_levels(sets: &[LevelSet<'_, T>]) -> Self {
        let tails = sorted_tails(sets);
        Self::from_sorted_entries(kway_merge_coalesce(runs(sets, &tails)))
    }

    /// Build directly from `(item, weight)` pairs — used by baseline
    /// sketches that need the same weighted-coreset query logic over
    /// unsorted dumps.
    pub fn from_weighted_items(mut raw: Vec<(T, u64)>) -> Self {
        raw.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut entries: Vec<(T, u64)> = Vec::with_capacity(raw.len());
        for (item, w) in raw {
            match entries.last_mut() {
                Some((last, lw)) if *last == item => *lw += w,
                _ => entries.push((item, w)),
            }
        }
        Self::from_sorted_entries(entries)
    }

    /// Total weight (≈ `n`; exactly `n` unless odd-sized merge compactions
    /// introduced ±1 weight drift — see DESIGN.md).
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Number of distinct retained items.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// True when the view holds no items.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated inclusive rank: total weight of items `≤ y`.
    pub fn rank(&self, y: &T) -> u64 {
        // partition_point gives the count of entries with item <= y.
        let idx = self.entries.partition_point(|(item, _)| item <= y);
        if idx == 0 {
            0
        } else {
            self.cum[idx - 1]
        }
    }

    /// Estimated exclusive rank: total weight of items `< y`.
    pub fn rank_exclusive(&self, y: &T) -> u64 {
        let idx = self.entries.partition_point(|(item, _)| item < y);
        if idx == 0 {
            0
        } else {
            self.cum[idx - 1]
        }
    }

    /// Estimated normalized rank in `[0, 1]`.
    pub fn normalized_rank(&self, y: &T) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.rank(y) as f64 / self.total as f64
        }
    }

    /// Smallest retained item whose cumulative weight reaches `⌈q·W⌉`
    /// (`q` clamped to `[0,1]`, target at least 1). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<&T> {
        if self.entries.is_empty() {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let idx = self.cum.partition_point(|&c| c < target);
        Some(&self.entries[idx.min(self.entries.len() - 1)].0)
    }

    /// Normalized CDF at each split point (split points must be ascending).
    pub fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        debug_assert!(split_points.windows(2).all(|w| w[0] <= w[1]));
        split_points
            .iter()
            .map(|s| self.normalized_rank(s))
            .collect()
    }

    /// Normalized PMF over the `m+1` intervals
    /// `(-∞, s₀], (s₀, s₁], …, (s_{m−1}, +∞)` for ascending splits.
    pub fn pmf(&self, split_points: &[T]) -> Vec<f64> {
        debug_assert!(split_points.windows(2).all(|w| w[0] <= w[1]));
        if self.total == 0 {
            return vec![0.0; split_points.len() + 1];
        }
        let mut out = Vec::with_capacity(split_points.len() + 1);
        let mut prev = 0u64;
        for s in split_points {
            let r = self.rank(s);
            out.push(r.saturating_sub(prev) as f64 / self.total as f64);
            prev = r;
        }
        out.push((self.total - prev) as f64 / self.total as f64);
        out
    }

    /// Iterate `(item, weight, cumulative_weight)` ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64, u64)> {
        self.entries
            .iter()
            .zip(self.cum.iter())
            .map(|((item, w), c)| (item, *w, *c))
    }
}

/// One sketch's compactor levels as the view builder and the union
/// selection ([`crate::union`]) read them: the levels, the arena backing
/// them, and the orientation their runs are sorted in.
#[derive(Debug)]
pub struct LevelSet<'a, T> {
    /// The compactors, level `h` at index `h` (items weighted `2^h`).
    pub levels: &'a [RelativeCompactor<T>],
    /// The arena holding every level's buffer.
    pub arena: &'a LevelArena<T>,
    /// Internal run order: runs are descending externally under `HighRank`.
    pub accuracy: RankAccuracy,
}

/// Sorted copies of every level's raw tail (the appends after its cold and
/// warm runs), each with its level weight. A read never sorts a tail in
/// place: `run_len` is serialized, so folding a tail would change the
/// sketch's bytes.
pub(crate) fn sorted_tails<T: Ord + Clone>(sets: &[LevelSet<'_, T>]) -> Vec<(Vec<T>, u64)> {
    let mut tails = Vec::new();
    for set in sets {
        for (h, level) in set.levels.iter().enumerate() {
            let raw = &level.items(set.arena)[level.run_len(set.arena) + level.warm_len()..];
            if !raw.is_empty() {
                let mut t = raw.to_vec();
                t.sort_unstable();
                tails.push((t, 1u64 << h));
            }
        }
    }
    tails
}

/// Every non-empty sorted run of `sets` in ascending external order: each
/// level's cold and warm runs (read back to front under `HighRank`), then
/// the sorted `tails` from [`sorted_tails`].
pub(crate) fn runs<'a, T>(sets: &[LevelSet<'a, T>], tails: &'a [(Vec<T>, u64)]) -> Vec<Run<'a, T>> {
    let mut out = Vec::new();
    for set in sets {
        let reverse = set.accuracy == RankAccuracy::HighRank;
        for (h, level) in set.levels.iter().enumerate() {
            let items = level.items(set.arena);
            let cold = level.run_len(set.arena);
            let warm = cold + level.warm_len();
            for run in [&items[..cold], &items[cold..warm]] {
                if !run.is_empty() {
                    out.push(Run {
                        items: run,
                        reverse,
                        weight: 1u64 << h,
                    });
                }
            }
        }
    }
    out.extend(tails.iter().map(|(t, w)| Run {
        items: t,
        reverse: false,
        weight: *w,
    }));
    out
}

/// A sorted run read in ascending external order at a fixed per-item
/// weight: a slice read forward, or back to front (a `HighRank` run).
/// Positions are logical: `get(0)` is the run's smallest item.
#[derive(Debug)]
pub(crate) struct Run<'a, T> {
    pub(crate) items: &'a [T],
    pub(crate) reverse: bool,
    pub(crate) weight: u64,
}

impl<'a, T: Ord> Run<'a, T> {
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The item at ascending position `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &'a T {
        if self.reverse {
            &self.items[self.items.len() - 1 - i]
        } else {
            &self.items[i]
        }
    }

    /// Items in ascending positions `lo..hi` that are `≤ p` (`inclusive`)
    /// or `< p`, by binary search.
    pub(crate) fn count_in(&self, lo: usize, hi: usize, p: &T, inclusive: bool) -> usize {
        let below = |x: &T| if inclusive { x <= p } else { x < p };
        if self.reverse {
            let s = &self.items[self.items.len() - hi..self.items.len() - lo];
            s.len() - s.partition_point(|x| !below(x))
        } else {
            self.items[lo..hi].partition_point(below)
        }
    }
}

/// One input of the k-way merge: a run and how far it has been consumed.
struct Cursor<'a, T> {
    run: Run<'a, T>,
    pos: usize,
}

impl<'a, T: Ord> Cursor<'a, T> {
    /// Current smallest unconsumed item and its weight, if any.
    fn head(&self) -> Option<(&'a T, u64)> {
        (self.pos < self.run.len()).then(|| (self.run.get(self.pos), self.run.weight))
    }

    fn advance(&mut self) {
        self.pos += 1;
    }
}

/// Loser-tree k-way merge of ascending runs, coalescing equal adjacent
/// items into one entry with summed weight. `O(total·log(k))` comparisons;
/// ties are broken by cursor index so the output is deterministic.
fn kway_merge_coalesce<T: Ord + Clone>(runs: Vec<Run<'_, T>>) -> Vec<(T, u64)> {
    let mut cursors: Vec<Cursor<'_, T>> = runs
        .into_iter()
        .filter(|r| !r.items.is_empty())
        .map(|run| Cursor { run, pos: 0 })
        .collect();
    let m = cursors.len();
    let mut entries: Vec<(T, u64)> = Vec::new();
    let emit = |entries: &mut Vec<(T, u64)>, item: &T, w: u64| match entries.last_mut() {
        Some((last, lw)) if last == item => *lw += w,
        _ => entries.push((item.clone(), w)),
    };
    if m == 0 {
        return entries;
    }
    if m == 1 {
        while let Some((item, w)) = cursors[0].head() {
            emit(&mut entries, item, w);
            cursors[0].advance();
        }
        return entries;
    }
    // `beats(a, b)`: cursor `a` wins the match against `b`. An exhausted
    // cursor compares as +∞; equal heads go to the lower index.
    let beats = |cursors: &[Cursor<'_, T>], a: usize, b: usize| -> bool {
        match (cursors[a].head(), cursors[b].head()) {
            (Some((x, _)), Some((y, _))) => match x.cmp(y) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    };
    // Nodes 1..m are internal (holding the loser of their subtree); leaf `i`
    // sits at node `m + i`. Build bottom-up, then replay one root-to-leaf
    // path per emitted item.
    let mut tree = vec![0usize; m];
    let mut winner_at = vec![0usize; 2 * m];
    for i in 0..m {
        winner_at[m + i] = i;
    }
    for t in (1..m).rev() {
        let (l, r) = (winner_at[2 * t], winner_at[2 * t + 1]);
        let (w, lose) = if beats(&cursors, l, r) {
            (l, r)
        } else {
            (r, l)
        };
        winner_at[t] = w;
        tree[t] = lose;
    }
    let mut winner = winner_at[1];
    while let Some((item, w)) = cursors[winner].head() {
        emit(&mut entries, item, w);
        cursors[winner].advance();
        let mut t = (m + winner) / 2;
        while t > 0 {
            if beats(&cursors, tree[t], winner) {
                std::mem::swap(&mut tree[t], &mut winner);
            }
            t /= 2;
        }
    }
    entries
}

/// A memoized [`SortedView`] keyed by the owning sketch's *dirty epoch*.
///
/// The sketch bumps its epoch on every mutation (`update`, `update_batch`,
/// `update_weighted`, `merge`, parameter growth); queries through
/// [`ViewCache::get_or_build`] reuse the stored view while the epoch is
/// unchanged and rebuild it lazily otherwise. Interior mutability is a
/// `Mutex` (not a `RefCell`) so a read-only sketch stays `Sync` and can be
/// queried from many threads; the uncontended lock is a few nanoseconds
/// against an `O(retained·log retained)` rebuild.
#[derive(Debug)]
pub(crate) struct ViewCache<T> {
    inner: Mutex<CacheState<T>>,
}

#[derive(Debug)]
struct CacheState<T> {
    view: Option<Arc<SortedView<T>>>,
    built_epoch: u64,
    hits: u64,
    builds: u64,
}

// Manual impl: the stored view clones by `Arc`, so no `T: Clone` bound is
// needed (the derive would add one).
impl<T> Clone for CacheState<T> {
    fn clone(&self) -> Self {
        CacheState {
            view: self.view.clone(),
            built_epoch: self.built_epoch,
            hits: self.hits,
            builds: self.builds,
        }
    }
}

impl<T> ViewCache<T> {
    pub(crate) fn new() -> Self {
        ViewCache {
            inner: Mutex::new(CacheState {
                view: None,
                built_epoch: 0,
                hits: 0,
                builds: 0,
            }),
        }
    }

    /// The cached view if it was built at `epoch`, else `build()` memoized.
    pub(crate) fn get_or_build(
        &self,
        epoch: u64,
        build: impl FnOnce() -> SortedView<T>,
    ) -> Arc<SortedView<T>> {
        let mut state = self.inner.lock();
        if state.built_epoch == epoch && state.view.is_some() {
            state.hits += 1;
            return Arc::clone(state.view.as_ref().expect("checked above"));
        }
        let view = Arc::new(build());
        state.view = Some(Arc::clone(&view));
        state.built_epoch = epoch;
        state.builds += 1;
        view
    }

    /// Lifetime `(hits, builds)` counters, for `SketchStats` observability.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let state = self.inner.lock();
        (state.hits, state.builds)
    }
}

impl<T> Default for ViewCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for ViewCache<T> {
    /// Clones carry the memoized view (an `Arc` clone) and counters.
    fn clone(&self) -> Self {
        ViewCache {
            inner: Mutex::new(self.inner.lock().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(items: Vec<(u64, u64)>) -> SortedView<u64> {
        SortedView::from_weighted_items(items)
    }

    #[test]
    fn coalesces_duplicates() {
        let v = view_of(vec![(5, 1), (5, 2), (3, 1), (9, 4)]);
        assert_eq!(v.num_entries(), 3);
        assert_eq!(v.total_weight(), 8);
        assert_eq!(v.rank(&5), 4); // 1 (item 3) + 3 (item 5)
    }

    #[test]
    fn rank_inclusive_vs_exclusive() {
        let v = view_of(vec![(1, 1), (2, 2), (3, 4)]);
        assert_eq!(v.rank(&2), 3);
        assert_eq!(v.rank_exclusive(&2), 1);
        assert_eq!(v.rank(&0), 0);
        assert_eq!(v.rank_exclusive(&0), 0);
        assert_eq!(v.rank(&99), 7);
    }

    #[test]
    fn quantile_walks_cumulative_weights() {
        let v = view_of(vec![(10, 1), (20, 1), (30, 1), (40, 1)]);
        assert_eq!(v.quantile(0.0), Some(&10));
        assert_eq!(v.quantile(0.25), Some(&10));
        assert_eq!(v.quantile(0.26), Some(&20));
        assert_eq!(v.quantile(0.5), Some(&20));
        assert_eq!(v.quantile(0.75), Some(&30));
        assert_eq!(v.quantile(1.0), Some(&40));
        assert_eq!(v.quantile(2.0), Some(&40)); // clamped
        assert_eq!(v.quantile(-1.0), Some(&10)); // clamped
        assert_eq!(v.quantile(f64::NAN), Some(&10));
    }

    #[test]
    fn quantile_respects_weights() {
        let v = view_of(vec![(10, 1), (20, 97), (30, 2)]);
        assert_eq!(v.quantile(0.5), Some(&20));
        assert_eq!(v.quantile(0.99), Some(&30));
        assert_eq!(v.quantile(0.98), Some(&20));
    }

    #[test]
    fn empty_view_behaviour() {
        let v: SortedView<u64> = view_of(vec![]);
        assert!(v.is_empty());
        assert_eq!(v.quantile(0.5), None);
        assert_eq!(v.rank(&5), 0);
        assert_eq!(v.normalized_rank(&5), 0.0);
        assert_eq!(v.pmf(&[1, 2]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn cdf_and_pmf_are_consistent() {
        let v = view_of(vec![(1, 2), (5, 3), (9, 5)]);
        let splits = vec![0, 1, 5, 9, 12];
        let cdf = v.cdf(&splits);
        assert_eq!(cdf, vec![0.0, 0.2, 0.5, 1.0, 1.0]);
        let pmf = v.pmf(&splits);
        assert_eq!(pmf.len(), splits.len() + 1);
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // PMF buckets are the CDF increments.
        assert_eq!(pmf[0], 0.0);
        assert!((pmf[1] - 0.2).abs() < 1e-12);
        assert!((pmf[2] - 0.3).abs() < 1e-12);
        assert!((pmf[3] - 0.5).abs() < 1e-12);
        assert_eq!(pmf[5], 0.0);
    }

    #[test]
    fn iter_yields_ascending_with_cumulative() {
        let v = view_of(vec![(9, 1), (1, 2), (5, 3)]);
        let collected: Vec<(u64, u64, u64)> = v.iter().map(|(i, w, c)| (*i, w, c)).collect();
        assert_eq!(collected, vec![(1, 2, 2), (5, 3, 5), (9, 1, 6)]);
    }

    #[test]
    fn view_cache_hits_while_epoch_unchanged() {
        let cache: ViewCache<u64> = ViewCache::new();
        let v1 = cache.get_or_build(0, || SortedView::from_weighted_items(vec![(1, 1)]));
        let v2 = cache.get_or_build(0, || panic!("must not rebuild at same epoch"));
        assert_eq!(v1.total_weight(), v2.total_weight());
        assert_eq!(cache.stats(), (1, 1));
        // Epoch bump forces a rebuild.
        let v3 = cache.get_or_build(1, || SortedView::from_weighted_items(vec![(1, 1), (2, 1)]));
        assert_eq!(v3.total_weight(), 2);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn monotone_rank_property() {
        let v = view_of(vec![(3, 5), (7, 1), (11, 9), (13, 2)]);
        let mut prev = 0;
        for y in 0..20u64 {
            let r = v.rank(&y);
            assert!(r >= prev);
            prev = r;
        }
        assert_eq!(prev, v.total_weight());
    }
}
