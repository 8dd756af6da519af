//! Sorted weighted view of a sketch (the paper's weighted coreset `C`), and
//! the read cache every sketch answers through.
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
//! duplicate-heavy streams. Whether a read builds the view at all is the
//! read cache's call ([`ReadCacheStats`]). [`LevelSet`] is the one reader of
//! the level layout: the view build, the union's selection and every rank
//! count go through it.

use std::cmp::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::arena::LevelArena;
use crate::compactor::{RankAccuracy, RelativeCompactor};
use crate::sketch::ReqSketch;
use crate::union::{Hints, Union};

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

    /// Total weight of the entries. A sketch's view weighs exactly the
    /// sketch's `n`: every compaction removes an even number of items and
    /// promotes half of them at twice the weight, so no write drifts it, and
    /// decoding rejects bytes whose levels disagree with their `n`.
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
        let ranks: Vec<u64> = split_points.iter().map(|s| self.rank(s)).collect();
        pmf_of_ranks(&ranks, self.total)
    }

    /// Iterate `(item, weight, cumulative_weight)` ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64, u64)> {
        self.entries
            .iter()
            .zip(self.cum.iter())
            .map(|((item, w), c)| (item, *w, *c))
    }
}

/// Normalized PMF from the ranks at ascending split points and the total
/// weight `W`: the rank increments over `W`, then the mass above the last
/// split.
pub(crate) fn pmf_of_ranks(ranks: &[u64], total: u64) -> Vec<f64> {
    if total == 0 {
        return vec![0.0; ranks.len() + 1];
    }
    let mut out = Vec::with_capacity(ranks.len() + 1);
    let mut prev = 0u64;
    for &r in ranks {
        out.push(r.saturating_sub(prev) as f64 / total as f64);
        prev = r;
    }
    out.push((total - prev) as f64 / total as f64);
    out
}

/// One sketch's compactor levels as the view builder, the union selection
/// and every rank read them: the levels, the arena backing them, and the
/// orientation their runs are sorted in. It is the one reader of the level
/// layout: each level holds a cold run, a warm run and a raw tail.
#[derive(Debug)]
pub struct LevelSet<'a, T> {
    /// The compactors, level `h` at index `h` (items weighted `2^h`).
    pub levels: &'a [RelativeCompactor<T>],
    /// The arena holding every level's buffer.
    pub arena: &'a LevelArena<T>,
    /// Internal run order: runs are descending externally under `HighRank`.
    pub accuracy: RankAccuracy,
}

impl<'a, T> LevelSet<'a, T> {
    /// Each level's item weight `2^h` with its cold run, warm run and raw
    /// tail (the appends after the runs, in arrival order).
    fn regions(&self) -> impl Iterator<Item = (u64, [&'a [T]; 3])> + '_ {
        self.levels.iter().enumerate().map(|(h, level)| {
            let items = level.items(self.arena);
            let cold = level.run_len(self.arena);
            let warm = cold + level.warm_len();
            (
                1u64 << h,
                [&items[..cold], &items[cold..warm], &items[warm..]],
            )
        })
    }

    /// Every level's non-empty cold and warm run, read back to front under
    /// `HighRank` so that each is ascending.
    pub(crate) fn sorted_runs(&self) -> impl Iterator<Item = Run<'a, T>> + '_ {
        let reverse = self.accuracy == RankAccuracy::HighRank;
        self.regions().flat_map(move |(weight, [cold, warm, _])| {
            [cold, warm]
                .into_iter()
                .filter(|run| !run.is_empty())
                .map(move |items| Run {
                    items,
                    reverse,
                    weight,
                })
        })
    }

    /// Every level's non-empty raw tail, with its level weight.
    pub(crate) fn raw_tails(&self) -> impl Iterator<Item = (&'a [T], u64)> + '_ {
        self.regions()
            .filter_map(|(weight, [_, _, raw])| (!raw.is_empty()).then_some((raw, weight)))
    }

    /// `Σ_h 2^h·|{x ∈ B_h : below(x)}|` for a `below` that holds on a prefix
    /// of the ascending order, such as `|x| x <= y` (Algorithm 2's `R̂(y)`)
    /// or `|x| x < y`. A binary search per cold and warm run and a scan of
    /// each raw tail, with no allocation; adds the comparisons to
    /// `comparisons` (`⌈log₂(len + 1)⌉` per run plus every raw item).
    pub fn weight_where(&self, below: impl Fn(&T) -> bool, comparisons: &mut u64) -> u64 {
        let in_run = |run: &[T]| match self.accuracy {
            RankAccuracy::LowRank => run.partition_point(&below),
            RankAccuracy::HighRank => run.len() - run.partition_point(|x| !below(x)),
        };
        let mut weight = 0;
        for (w, [cold, warm, raw]) in self.regions() {
            let count = in_run(cold) + in_run(warm) + raw.iter().filter(|x| below(x)).count();
            *comparisons += log2_ceil(cold.len()) + log2_ceil(warm.len()) + raw.len() as u64;
            weight += w * count as u64;
        }
        weight
    }
}

/// Comparisons to binary-search (or sort) a span of `len` items: `⌈log₂(len + 1)⌉`.
pub(crate) fn log2_ceil(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros())
}

/// Sorted copies of every level's raw tail, each with its level weight. A
/// read never sorts a tail in place: `run_len` is serialized, so folding a
/// tail would change the sketch's bytes.
pub(crate) fn sorted_tails<T: Ord + Clone>(sets: &[LevelSet<'_, T>]) -> Vec<(Vec<T>, u64)> {
    sets.iter()
        .flat_map(LevelSet::raw_tails)
        .map(|(raw, weight)| {
            let mut t = raw.to_vec();
            t.sort_unstable();
            (t, weight)
        })
        .collect()
}

/// Every non-empty sorted run of `sets` in ascending external order: each
/// level's cold and warm runs, then the sorted `tails` from
/// [`sorted_tails`].
pub(crate) fn runs<'a, T>(sets: &[LevelSet<'a, T>], tails: &'a [(Vec<T>, u64)]) -> Vec<Run<'a, T>> {
    let tails = tails.iter().map(|(t, w)| Run {
        items: t,
        reverse: false,
        weight: *w,
    });
    sets.iter()
        .flat_map(LevelSet::sorted_runs)
        .chain(tails)
        .collect()
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

    /// `(items < p, items ≤ p)`, the ascending positions either side of the
    /// copies of `p`: a binary search for the items `≤ p`, then a step back
    /// over the copies.
    pub(crate) fn split_at(&self, p: &T, comparisons: &mut u64) -> (usize, usize) {
        let le = self.count_in(0, self.len(), p, true);
        let mut lt = le;
        while lt > 0 && self.get(lt - 1) == p {
            lt -= 1;
        }
        *comparisons += log2_ceil(self.len()) + (le - lt) as u64 + 1;
        (lt, le)
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

/// Price of building a union view, in comparisons per retained entry — the
/// unit a direct read is charged in ([`Union::comparisons`]). Calibration:
/// on a 4-shard tenant of 4M values (28,480 retained entries, 2-vCPU
/// x86-64 VM) one view build took 2.4–2.7 ms, while quantiles that select
/// (a `q` with no warm-start hint) averaged 7,000 comparisons in 37–39 µs
/// each. At 16 the build is priced at about 65 such quantiles (about 2.4 ms
/// of them) or about 125 direct ranks. A quantile repeated after a write
/// starts warm ([`crate::union`]) and is charged two ranks when its hint is
/// the answer: on the same shape (33,088 retained, view build 2.8–2.9 ms)
/// warm reads were charged a median of 1,890 comparisons (a rank: 898) and
/// took a median of about 7 µs, so about 280 of them, some 2 ms of reads,
/// pay for a view. The unit still prices time.
const VIEW_PRICE_PER_ENTRY: u64 = 16;

/// Lifetime counters of a sketch's read cache, the one path every read of a
/// [`ReqSketch`], [`crate::ConcurrentReqSketch`] or
/// [`crate::GrowingReqSketch`] takes over the union of its level sets.
///
/// Each direct read is charged the comparisons it made since the last
/// mutation. A batch counts its remaining points up front: before each
/// point, the charges plus the previous point's cost times the points left
/// are compared with the price of one union-view build. Once they reach it,
/// the view is built, kept with the sketches' epochs, and answers every
/// read until an epoch changes. As far as comparisons price time, that
/// spends at most about twice what the better of "always direct" and
/// "always build" would on any read/write mix. Prices use no clock and no
/// configuration, and direct and cached answers are bit-equal, so the
/// policy never changes an answer.
///
/// The cache also keeps where its last few distinct direct quantiles
/// landed, and those warm-start hints survive writes and checkpoints: a
/// write drops the charges and the view, never the hints. A quantile
/// repeated after a write starts from its hint and is charged what that
/// search cost ([`crate::union`]). Quantiles answered from the cached view
/// record no hint. No counter here tells warm from cold reads; both count
/// as `direct`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCacheStats {
    /// Points answered straight off the levels.
    pub direct: u64,
    /// Points answered from a cached union view.
    pub cached: u64,
    /// Union views built.
    pub builds: u64,
}

/// The read cache: what direct reads spent since the sketches were last
/// seen at their epochs, the union view once that paid for it, and the
/// direct quantiles' hints, which outlive every write. The state sits
/// behind a `Mutex` (not a `RefCell`) so a read-only sketch stays `Sync`
/// and can be read from many threads.
#[derive(Debug)]
pub(crate) struct ReadCache<T> {
    state: Mutex<CacheState<T>>,
}

#[derive(Debug, Clone)]
struct CacheState<T> {
    /// The sketches' epochs the charges and the view belong to.
    epochs: Box<[u64]>,
    charged: u64,
    view: Option<Arc<SortedView<T>>>,
    stats: ReadCacheStats,
    /// Where recent direct quantiles landed, boxed on the first one so that
    /// a sketch's footprint (`size_of`, which `SpaceUsage` counts) does not
    /// grow. They outlive writes and checkpoints: a hint is only where a
    /// quantile starts its search.
    hints: Option<Box<Hints<T>>>,
}

impl<T> ReadCache<T> {
    pub(crate) fn new() -> Self {
        ReadCache {
            state: Mutex::new(CacheState {
                epochs: Box::default(),
                charged: 0,
                view: None,
                stats: ReadCacheStats::default(),
                hints: None,
            }),
        }
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> ReadCacheStats {
        self.state.lock().stats
    }

    /// Forget the epochs the charges and the view belong to, so the next
    /// read of one or more sketches starts over (the sketches were replaced,
    /// and their reset epochs could collide with the stored ones). The
    /// quantile hints stay.
    pub(crate) fn clear(&self) {
        self.state.lock().epochs = Box::default();
    }
}

impl<T: Ord + Clone> CacheState<T> {
    /// Start over unless `sketches` are still at the stored epochs. The
    /// quantile hints are kept either way.
    fn sync(&mut self, sketches: &[&ReqSketch<T>]) {
        if !self
            .epochs
            .iter()
            .copied()
            .eq(sketches.iter().map(|s| s.epoch()))
        {
            self.epochs = sketches.iter().map(|s| s.epoch()).collect();
            self.charged = 0;
            self.view = None;
        }
    }

    /// The hints, for a read's union to borrow; their box stays, empty.
    fn lend_hints(&mut self) -> Hints<T> {
        self.hints
            .as_deref_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Take back the hints a read's union borrowed, reusing their box.
    fn keep_hints(&mut self, hints: Hints<T>) {
        match self.hints.as_deref_mut() {
            Some(kept) => *kept = hints,
            None if !hints.is_empty() => self.hints = Some(Box::new(hints)),
            None => {}
        }
    }

    fn build(&mut self, union: &Union<'_, T>) -> Arc<SortedView<T>> {
        let view = Arc::new(union.view());
        self.view = Some(Arc::clone(&view));
        self.stats.builds += 1;
        view
    }
}

impl<T: Ord + Clone> ReadCache<T> {
    /// The one read path: answer `m` points over the union of `sketches`,
    /// directly off their levels or from the cached union view, as the
    /// ski-rental rule of [`ReadCacheStats`] decides. `answer(i, union)`
    /// answers point `i`; the union reads from the view once it holds one.
    /// The union borrows the quantile hints for the read and hands them
    /// back, with every direct quantile it answered recorded, before it
    /// answers from the view: the lock is taken once per read. A caller
    /// that locks its sketches takes those locks before this one.
    pub(crate) fn read<R>(
        &self,
        sketches: &[&ReqSketch<T>],
        m: usize,
        mut answer: impl FnMut(usize, &Union<'_, T>) -> R,
    ) -> Vec<R> {
        let mut union = Union::new(sketches);
        let mut state = self.state.lock();
        state.sync(sketches);
        union.lend_hints(state.lend_hints());
        let mut out = Vec::with_capacity(m);
        let mut per_point = 0;
        for i in 0..m {
            if state.view.is_none()
                && state.charged + (m - i) as u64 * per_point
                    >= VIEW_PRICE_PER_ENTRY * union.retained() as u64
            {
                state.build(&union);
            }
            if let Some(view) = state.view.clone() {
                state.stats.cached += (m - i) as u64;
                state.keep_hints(union.take_hints());
                drop(state);
                union.answer_from(view);
                out.extend((i..m).map(|j| answer(j, &union)));
                return out;
            }
            let before = union.comparisons();
            out.push(answer(i, &union));
            per_point = union.comparisons() - before;
            state.charged += per_point;
            state.stats.direct += 1;
        }
        state.keep_hints(union.take_hints());
        out
    }

    /// The cached union view of `sketches`, built now if absent.
    pub(crate) fn view(&self, sketches: &[&ReqSketch<T>]) -> Arc<SortedView<T>> {
        let mut state = self.state.lock();
        state.sync(sketches);
        match &state.view {
            Some(view) => Arc::clone(view),
            None => state.build(&Union::new(sketches)),
        }
    }
}

impl<T: Clone> Clone for ReadCache<T> {
    /// Clones carry the cached view (an `Arc` clone), charges, counters and
    /// hints: a cloned sketch keeps its epochs, so they stay valid for it.
    fn clone(&self) -> Self {
        ReadCache {
            state: Mutex::new(self.state.lock().clone()),
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
        use sketch_traits::QuantileSketch;
        let stats = |direct, cached, builds| ReadCacheStats {
            direct,
            cached,
            builds,
        };
        let mut s = ReqSketch::<u64>::builder().k(8).seed(1).build().unwrap();
        s.update_batch(&(0..10_000u64).collect::<Vec<_>>());
        let cache: ReadCache<u64> = ReadCache::new();
        let total = |s: &ReqSketch<u64>, m| cache.read(&[s], m, |_, u| u.rank(&u64::MAX));
        // A single read goes straight off the levels.
        assert_eq!(total(&s, 1), [10_000]);
        assert_eq!(cache.stats(), stats(1, 0, 0));
        // A burst pays for the view after its first point...
        assert_eq!(total(&s, 1_000), [10_000; 1_000]);
        assert_eq!(cache.stats(), stats(2, 999, 1));
        // ...which answers every read while the epoch is unchanged.
        let view = cache.view(&[&s]);
        assert_eq!(total(&s, 1), [10_000]);
        assert_eq!(cache.stats(), stats(2, 1_000, 1));
        // An epoch bump drops it: the next read is direct and sees the new
        // item, and asking for the view builds a fresh one.
        s.update(1);
        assert_eq!(total(&s, 1), [10_001]);
        assert_eq!(cache.stats(), stats(3, 1_000, 1));
        assert_eq!(cache.view(&[&s]).total_weight(), 10_001);
        assert_eq!(view.total_weight(), 10_000);
        assert_eq!(cache.stats(), stats(3, 1_000, 2));
    }

    #[test]
    fn a_repeated_quantile_after_a_write_starts_warm() {
        use sketch_traits::QuantileSketch;
        let mut s = ReqSketch::<u64>::builder().k(8).seed(1).build().unwrap();
        let mut next = 0u64;
        let mut write = |s: &mut ReqSketch<u64>| {
            let batch: Vec<u64> = (next..next + 1_000).map(|i| i * 7_919 % 100_003).collect();
            next += 1_000;
            s.update_batch(&batch);
        };
        for _ in 0..100 {
            write(&mut s);
        }
        let cache: ReadCache<u64> = ReadCache::new();
        // What one quantile read charged, and its answer.
        let read = |s: &ReqSketch<u64>, q: f64| {
            let answer = cache.read(&[s], 1, |_, u| u.quantile(q)).remove(0);
            assert_eq!(answer.as_ref(), s.sorted_view().quantile(q), "q {q}");
            cache.state.lock().charged
        };
        let cold = read(&s, 0.99);
        for checkpoint in [false, true] {
            write(&mut s);
            if checkpoint {
                cache.clear();
            }
            // The hint for 0.99 survived the write (and the cleared epochs);
            // a q never asked has none and selects.
            let warm = read(&s, 0.99);
            assert!(warm * 2 < cold, "warm {warm} vs cold {cold}");
            write(&mut s);
            assert!(read(&s, 0.42) > warm);
        }
        assert_eq!(cache.stats().builds, 0);
    }

    #[test]
    fn cached_quantiles_leave_the_hints_alone() {
        use sketch_traits::QuantileSketch;
        let mut s = ReqSketch::<u64>::builder().k(8).seed(1).build().unwrap();
        let batch = |b: u64| -> Vec<u64> {
            (b * 1_000..(b + 1) * 1_000)
                .map(|i| i * 7_919 % 100_003)
                .collect()
        };
        for b in 0..100 {
            s.update_batch(&batch(b));
        }
        let cache: ReadCache<u64> = ReadCache::new();
        let read = |s: &ReqSketch<u64>, q: f64| {
            let answer = cache.read(&[s], 1, |_, u| u.quantile(q)).remove(0);
            assert_eq!(answer.as_ref(), s.sorted_view().quantile(q), "q {q}");
            cache.state.lock().charged
        };
        let cold = read(&s, 0.99);
        // A burst of new q: its first point is direct, the view it pays for
        // answers the rest. Recording those would evict the hint for 0.99.
        let burst = |i: usize| (i as f64 + 0.5) / 1_000.0;
        let view = s.sorted_view();
        let answers = cache.read(&[&s], 1_000, |i, u| u.quantile(burst(i)));
        assert!((0..1_000).all(|i| answers[i].as_ref() == view.quantile(burst(i))));
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(cache.stats().cached, 999);
        s.update_batch(&batch(100));
        let warm = read(&s, 0.99);
        assert!(warm * 2 < cold, "warm {warm} vs cold {cold}");
        s.update_batch(&batch(101));
        assert!(read(&s, burst(500)) > warm);
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
