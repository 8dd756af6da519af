//! Algorithm 2 over a union of sketches, answered in place.
//!
//! The paper's estimator `R̂(y) = Σ_h 2^h·|{x ∈ B_h : x ≤ y}|` is a plain
//! sum, and §5 answers over several summaries by adding their estimates.
//! A set of compatible sketches (a sharded sketch's shards, the parts a
//! cluster `MERGE` gathers, the §5 growing sketch's summaries) can therefore
//! be queried as the union of all their levels: the per-sketch errors add
//! (Theorem 3), so the answer stays within `ε·R(y)` with no merge-compaction
//! error on top, and nothing is cloned, merged or built per read.
//!
//! * [`Union::rank`] is [`LevelSet::weight_where`] summed over the sketches:
//!   a binary search per sorted run plus a scan of each small raw tail.
//! * [`Union::quantile`] is a multi-sequence selection over every level's
//!   cold run, warm run and a *sorted copy* of its raw tail (an item at level
//!   `h` weighs `2^h`; `HighRank` runs are read back to front). Each round
//!   pivots on the window-length-weighted median of the windows' middle
//!   items and binary-searches only inside the windows, so a quarter of the
//!   remaining window items drop out per round.
//!
//! Answers are bit-for-bit those of the union view
//! ([`SortedView::from_levels`] over every sketch): the smallest retained
//! `x` with `R̂(x) ≥ T`, the target `T = clamp(⌈q·W⌉, 1, W)`, where `W` is
//! the summed [`ReqSketch::total_weight`]. At `q ≤ 0` or NaN a quantile is
//! the exact minimum over the sketches, and at `q ≥ 1` the exact maximum, as
//! [`QuantileSketch::quantile`](sketch_traits::QuantileSketch::quantile)
//! answers on one sketch.
//!
//! # Warm start
//!
//! A monitoring reader asks the same few `q` (p50, p99, p99.9) again and
//! again while values arrive, and a write moves each answer by a few
//! retained items at most. So a union remembers where its last
//! `HINTS` (8) distinct `q` answered off the levels landed, and the read
//! cache keeps those hints across writes. A quantile with a hint `h` for its
//! `q` does not select:
//!
//! 1. **Count.** Two counts give `R̂⁻(h)`, the weight of the items `< h`,
//!    and `R̂(h)`: each is a [`Union::rank_exclusive`] or [`Union::rank`], a
//!    binary search per sorted run and a scan of each raw tail without
//!    copying or sorting it, with nothing allocated.
//! 2. **Decide.** If `R̂⁻(h) < T ≤ R̂(h)`, a copy of `h` is retained and
//!    every smaller retained item weighs in below `T`: `h` is the answer.
//! 3. **Walk.** Otherwise the tails are sorted once (as a cold quantile
//!    sorts them), every run finds its place either side of the copies of
//!    `h`, and the walk steps outward one distinct retained item at a time,
//!    adding (upward) or removing (downward) the weight of every copy of it.
//!    Upward it stops at the first `y` with `R̂(y) ≥ T`; downward at the
//!    first `y` with `R̂⁻(y) < T ≤ R̂(y)`.
//! 4. **Fall back.** After `WALK_CAP` (16) distinct items without an answer,
//!    the selection runs over the windows the hint and the walk have
//!    narrowed, with the weight already below them, so no work is lost.
//!
//! The walk evaluates `R̂` exactly at consecutive distinct retained items,
//! so it returns the smallest retained `x` with `R̂(x) ≥ T`, the same answer
//! as the selection and the union view. A stale or absurd hint (below the
//! minimum, above the maximum, never retained) costs time, never an answer.
//! Every read is charged the comparisons it made, warm or cold: a warm read
//! that answers the hint is charged two ranks.
//!
//! A read never mutates a sketch: no tail is folded in place, so serialized
//! bytes and epochs stay put. Every sketch type, and the decoded wire parts
//! a router keeps ([`Parts`]), reads through a `Union` under its read cache
//! ([`crate::ReadCacheStats`]), which may hand the union a cached union
//! view to answer from, and lends it the hints. Answers from the cached
//! view record none.

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::Arc;

use crate::binary::Packable;
use crate::error::ReqError;
use crate::merge::check_compatible;
use crate::sketch::ReqSketch;
use crate::view::{
    log2_ceil, runs, sorted_tails, LevelSet, ReadCache, ReadCacheStats, Run, SortedView,
};
use sketch_traits::SpaceUsage;

/// Distinct `q` whose answers a read cache keeps as warm-start hints: p50,
/// p99 and p99.9 with room to spare.
pub(crate) const HINTS: usize = 8;

/// Distinct retained items the warm walk steps over before it falls back
/// to the selection over the windows it has narrowed.
pub(crate) const WALK_CAP: usize = 16;

/// Where the last `HINTS` distinct quantiles answered off the levels
/// landed: `(q.to_bits(), answer)` pairs, most recent last.
#[derive(Debug, Clone)]
pub(crate) struct Hints<T>(Vec<(u64, T)>);

impl<T> Default for Hints<T> {
    fn default() -> Self {
        Hints(Vec::new())
    }
}

impl<T: Clone> Hints<T> {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn get(&self, q: f64) -> Option<&T> {
        let bits = q.to_bits();
        self.0.iter().find(|(b, _)| *b == bits).map(|(_, h)| h)
    }

    /// Remember `answer` for `q`, evicting the least recent `q` when full.
    fn record(&mut self, q: f64, answer: &T) {
        let bits = q.to_bits();
        if let Some(i) = self.0.iter().position(|(b, _)| *b == bits) {
            self.0.remove(i);
        } else if self.0.len() == HINTS {
            self.0.remove(0);
        }
        self.0.push((bits, answer.clone()));
    }
}

/// A borrowed set of sketches queried as the union of their levels.
///
/// Building one costs nothing; raw tails are copied and sorted only on the
/// first quantile that selects or walks. Every direct read adds the
/// comparisons it made to [`Union::comparisons`], which is how the read
/// cache prices reads against a view build ([`crate::ReadCacheStats`]).
/// A quantile asked again at the same `q` starts warm from the previous
/// answer (see the module docs).
///
/// ```
/// use req_core::union::Union;
/// use req_core::ReqSketch;
/// use sketch_traits::QuantileSketch;
///
/// let mut a = ReqSketch::<u64>::builder().k(12).seed(1).build().unwrap();
/// let mut b = ReqSketch::<u64>::builder().k(12).seed(2).build().unwrap();
/// a.update_batch(&(0..1_000u64).collect::<Vec<_>>());
/// b.update_batch(&(1_000..2_000u64).collect::<Vec<_>>());
/// let parts = [&a, &b];
/// let union = Union::new(&parts);
/// assert_eq!(union.total_weight(), 2_000);
/// assert_eq!(union.rank(&999), a.rank(&999) + b.rank(&999));
/// assert_eq!(union.quantile(1.0), Some(1_999));
/// ```
#[derive(Debug)]
pub struct Union<'a, T> {
    sketches: &'a [&'a ReqSketch<T>],
    total: OnceCell<u64>,
    /// Sorted copies of every raw tail, made on the first quantile.
    tails: OnceCell<Vec<(Vec<T>, u64)>>,
    comparisons: Cell<u64>,
    /// The union view the read cache handed over; reads answer from it.
    cached: Option<Arc<SortedView<T>>>,
    /// Where recent direct quantiles landed, lent by the read cache.
    hints: RefCell<Hints<T>>,
}

impl<'a, T: Ord + Clone> Union<'a, T> {
    /// Query `sketches` as one weighted set. The caller is responsible for
    /// their compatibility (same item domain; see [`decode_parts`] for the
    /// check a merge would make).
    pub fn new(sketches: &'a [&'a ReqSketch<T>]) -> Self {
        Union {
            sketches,
            total: OnceCell::new(),
            tails: OnceCell::new(),
            comparisons: Cell::new(0),
            cached: None,
            hints: RefCell::default(),
        }
    }

    /// Answer every later read from `view`, the union view of these very
    /// sketches at their current epochs.
    pub(crate) fn answer_from(&mut self, view: Arc<SortedView<T>>) {
        debug_assert_eq!(view.total_weight(), self.total_weight());
        self.cached = Some(view);
    }

    /// Start quantiles from `hints`, which earlier reads recorded.
    pub(crate) fn lend_hints(&mut self, hints: Hints<T>) {
        *self.hints.get_mut() = hints;
    }

    /// The hints, with every direct quantile answered since
    /// [`Self::lend_hints`].
    pub(crate) fn take_hints(&self) -> Hints<T> {
        self.hints.take()
    }

    /// `W`: the summed total weight of every retained item.
    pub fn total_weight(&self) -> u64 {
        *self
            .total
            .get_or_init(|| self.sketches.iter().map(|s| s.total_weight()).sum())
    }

    /// Retained items across all sketches.
    pub fn retained(&self) -> usize {
        self.sketches.iter().map(|s| s.retained()).sum()
    }

    /// Comparisons spent by direct reads on this union so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.get()
    }

    fn charge(&self, comparisons: u64) {
        self.comparisons.set(self.comparisons.get() + comparisons);
    }

    /// Exact smallest item seen by any sketch.
    pub fn min_item(&self) -> Option<&'a T> {
        self.sketches.iter().filter_map(|s| s.min_item()).min()
    }

    /// Exact largest item seen by any sketch.
    pub fn max_item(&self) -> Option<&'a T> {
        self.sketches.iter().filter_map(|s| s.max_item()).max()
    }

    /// `R̂(y)`: the weight of retained items `≤ y`, summed over sketches.
    pub fn rank(&self, y: &T) -> u64 {
        self.count(y, true)
    }

    /// The weight of retained items `< y`, summed over sketches.
    pub fn rank_exclusive(&self, y: &T) -> u64 {
        self.count(y, false)
    }

    /// The weight of retained items `≤ y` (`inclusive`) or `< y`, charged
    /// what it counted. Each side passes its own static predicate to
    /// [`LevelSet::weight_where`], so the flag is read once, not per item.
    fn count(&self, y: &T, inclusive: bool) -> u64 {
        if let Some(view) = &self.cached {
            return if inclusive {
                view.rank(y)
            } else {
                view.rank_exclusive(y)
            };
        }
        let mut comparisons = 0;
        let weight = if inclusive {
            self.weight_where(|x| x <= y, &mut comparisons)
        } else {
            self.weight_where(|x| x < y, &mut comparisons)
        };
        self.charge(comparisons);
        weight
    }

    /// [`LevelSet::weight_where`] summed over the sketches.
    fn weight_where(&self, below: impl Fn(&T) -> bool, comparisons: &mut u64) -> u64 {
        self.sketches
            .iter()
            .map(|s| s.level_set().weight_where(&below, comparisons))
            .sum()
    }

    /// `R̂(y) / W`, or 0 while empty — a CDF point.
    pub fn normalized_rank(&self, y: &T) -> f64 {
        match self.total_weight() {
            0 => 0.0,
            total => self.rank(y) as f64 / total as f64,
        }
    }

    /// The `q`-quantile of the union; `None` only when every sketch is empty.
    pub fn quantile(&self, q: f64) -> Option<T> {
        if q.is_nan() || q <= 0.0 {
            return self.min_item().cloned();
        }
        if q >= 1.0 {
            return self.max_item().cloned();
        }
        match &self.cached {
            Some(view) => view.quantile(q).cloned(),
            None => self.direct_quantile(q),
        }
    }

    /// A quantile off the levels: warm from the hint for `q`, else by
    /// selection. Only these answers are recorded as hints.
    fn direct_quantile(&self, q: f64) -> Option<T> {
        let total = self.total_weight();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let hint = self.hints.borrow().get(q).cloned();
        let mut comparisons = 0;
        let answer = match hint {
            Some(hint) => self.warm_quantile(hint, target, &mut comparisons),
            None => {
                let runs = runs(&self.level_sets(), self.sorted_tails());
                let hi = runs.iter().map(Run::len).collect();
                select(&runs, target, vec![0; runs.len()], hi, 0, &mut comparisons).cloned()
            }
        };
        self.charge(comparisons);
        answer.inspect(|answer| self.hints.borrow_mut().record(q, answer))
    }

    /// The smallest retained `x` with `R̂(x) ≥ target`, searched outward from
    /// `hint` (steps 1–4 of the module docs).
    // Out of line: inlined into `direct_quantile`, it slowed cold selections
    // by 2–3% in an in-process probe on the served tenant's shape.
    #[inline(never)]
    fn warm_quantile(&self, hint: T, target: u64, comparisons: &mut u64) -> Option<T> {
        // 1. Count R̂⁻ and R̂ at the hint. 2. Decide: `weight_lt < weight_le`
        // means a copy of the hint is retained, and everything retained
        // below it weighs under the target.
        let (weight_lt, weight_le) = (self.count(&hint, false), self.count(&hint, true));
        if weight_lt < target && target <= weight_le {
            return Some(hint);
        }
        // 3. Walk over the sorted runs and the sorted tail copies, from
        // either side of the hint's copies in each.
        let runs = runs(&self.level_sets(), self.sorted_tails());
        let (mut lt, mut le): (Vec<usize>, Vec<usize>) = runs
            .iter()
            .map(|run| run.split_at(&hint, comparisons))
            .unzip();
        if weight_le < target {
            // Upward: `le[r]` is the first position above everything walked.
            let mut below = weight_le;
            for _ in 0..WALK_CAP {
                let y = runs
                    .iter()
                    .zip(&le)
                    .filter(|&(run, &p)| p < run.len())
                    .map(|(run, &p)| run.get(p))
                    .min()
                    .expect("R̂ reaches W ≥ target at the maximum");
                *comparisons += 2 * runs.len() as u64;
                for (r, run) in runs.iter().enumerate() {
                    while le[r] < run.len() && run.get(le[r]) == y {
                        below += run.weight;
                        le[r] += 1;
                        *comparisons += 1;
                    }
                }
                if below >= target {
                    return Some(y.clone());
                }
            }
            // 4. Everything walked weighs `below`, under the target.
            let hi = runs.iter().map(Run::len).collect();
            return select(&runs, target, le, hi, below, comparisons).cloned();
        }
        // Downward: `lt[r]` ends the items below everything walked, which
        // weigh `at_or_below` = R̂ of the next item down, at least the target.
        let mut at_or_below = weight_lt;
        for _ in 0..WALK_CAP {
            let y = runs
                .iter()
                .zip(&lt)
                .filter_map(|(run, &p)| p.checked_sub(1).map(|p| run.get(p)))
                .max()
                .expect("R̂⁻ is 0 < target at the minimum");
            *comparisons += 2 * runs.len() as u64;
            for (r, run) in runs.iter().enumerate() {
                while lt[r] > 0 && run.get(lt[r] - 1) == y {
                    at_or_below -= run.weight;
                    lt[r] -= 1;
                    *comparisons += 1;
                }
            }
            if at_or_below < target {
                return Some(y.clone());
            }
        }
        // 4. The answer lies below everything walked.
        select(&runs, target, vec![0; runs.len()], lt, 0, comparisons).cloned()
    }

    /// Sorted copies of every raw tail, made and charged once per union.
    fn sorted_tails(&self) -> &[(Vec<T>, u64)] {
        self.tails.get_or_init(|| {
            let tails = sorted_tails(&self.level_sets());
            let cost = tails
                .iter()
                .map(|(t, _)| t.len() as u64 * (1 + log2_ceil(t.len())))
                .sum();
            self.charge(cost);
            tails
        })
    }

    /// Build the union view: one loser tree over every sketch's runs.
    pub fn view(&self) -> SortedView<T> {
        SortedView::from_levels(&self.level_sets())
    }

    fn level_sets(&self) -> Vec<LevelSet<'a, T>> {
        self.sketches.iter().map(|s| s.level_set()).collect()
    }
}

/// The smallest item `x` of `runs` with `Σ_r w_r·|{y ∈ r : y ≤ x}| ≥ target`
/// (`1 ≤ target ≤` the runs' total weight), by multi-sequence selection.
///
/// Run `r`'s window is its ascending positions `lo[r]..hi[r]`; items before
/// a window are below the answer and `below` is their weight, items after it
/// are above. A cold read starts from whole runs and `below = 0`; a warm
/// walk that gave up hands over the windows it narrowed. Each round counts
/// the items `< p` and `≤ p` inside every window for a pivot `p` drawn from
/// the windows: either `p` is the answer, or every copy of `p` leaves the
/// windows on the side it belongs to. Pivoting on the window-length-weighted
/// median of the window middles removes at least a quarter of the window
/// items per round.
fn select<'r, T: Ord>(
    runs: &[Run<'r, T>],
    target: u64,
    mut lo: Vec<usize>,
    mut hi: Vec<usize>,
    mut below: u64,
    comparisons: &mut u64,
) -> Option<&'r T> {
    let mut lt = vec![0usize; runs.len()];
    let mut le = vec![0usize; runs.len()];
    let mut middles: Vec<(&'r T, usize)> = Vec::with_capacity(runs.len());
    loop {
        middles.clear();
        let mut window_items = 0;
        for (r, run) in runs.iter().enumerate() {
            let len = hi[r] - lo[r];
            if len > 0 {
                middles.push((run.get(lo[r] + len / 2), len));
                window_items += len;
            }
        }
        if middles.is_empty() {
            return None;
        }
        middles.sort_unstable_by(|a, b| a.0.cmp(b.0));
        *comparisons += middles.len() as u64 * log2_ceil(middles.len());
        let mut seen = 0;
        let pivot = middles
            .iter()
            .find(|(_, len)| {
                seen += len;
                2 * seen >= window_items
            })
            .map(|(p, _)| *p)
            .expect("the weights sum to window_items");

        let (mut weight_lt, mut weight_le) = (below, below);
        for (r, run) in runs.iter().enumerate() {
            if lo[r] == hi[r] {
                (lt[r], le[r]) = (0, 0);
                continue;
            }
            lt[r] = run.count_in(lo[r], hi[r], pivot, false);
            le[r] = lt[r] + run.count_in(lo[r] + lt[r], hi[r], pivot, true);
            *comparisons += log2_ceil(hi[r] - lo[r]) + log2_ceil(hi[r] - lo[r] - lt[r]);
            weight_lt += run.weight * lt[r] as u64;
            weight_le += run.weight * le[r] as u64;
        }
        if weight_le < target {
            // Every item ≤ pivot is below the answer.
            for r in 0..runs.len() {
                lo[r] += le[r];
            }
            below = weight_le;
        } else if weight_lt >= target {
            // The answer is below the pivot.
            for r in 0..runs.len() {
                hi[r] = lo[r] + lt[r];
            }
        } else {
            return Some(pivot);
        }
    }
}

/// Decode wire-serialized sketches ([`ReqSketch::to_bytes`] payloads, as a
/// cluster `MERGE` gathers them) for a union read or a merge, checking that
/// they belong together: parts with differing policy, orientation or
/// schedule fail with [`ReqError::IncompatibleMerge`], corrupt bytes with
/// [`ReqError::CorruptBytes`], and an empty part list with
/// [`ReqError::InvalidParameter`].
pub fn decode_parts<T, B>(parts: &[B]) -> Result<Vec<ReqSketch<T>>, ReqError>
where
    T: Ord + Clone + Packable,
    B: AsRef<[u8]>,
{
    if parts.is_empty() {
        return Err(ReqError::InvalidParameter(
            "no sketch parts to merge".into(),
        ));
    }
    let sketches = parts
        .iter()
        .map(|p| ReqSketch::from_bytes(p.as_ref()))
        .collect::<Result<Vec<ReqSketch<T>>, ReqError>>()?;
    for other in &sketches[1..] {
        check_compatible(&sketches[0], other)?;
    }
    Ok(sketches)
}

/// Decoded wire parts kept for repeated union reads, such as the parts a
/// cluster router gathered with `MERGE`. Parts can be replaced one at a
/// time as their sources change, and reads go through one read cache, as
/// every sketch type's reads do ([`crate::ReadCacheStats`]): the union view
/// once repeated reads have paid for it, and the warm-start hints.
///
/// Every part decoded from bytes starts at epoch 0, so epochs cannot tell
/// an old part from its replacement. Replacing a part therefore drops the
/// epochs the cache's charges and view belong to, as
/// [`crate::ConcurrentReqSketch::checkpoint`] does; the hints stay, so a
/// repeated quantile after a replacement starts warm.
///
/// ```
/// use req_core::union::Parts;
/// use req_core::{QuantileSketch, ReqSketch};
///
/// let mut a = ReqSketch::<u64>::builder().k(12).seed(1).build().unwrap();
/// let mut b = ReqSketch::<u64>::builder().k(12).seed(2).build().unwrap();
/// a.update_batch(&(0..1_000u64).collect::<Vec<_>>());
/// b.update_batch(&(1_000..2_000u64).collect::<Vec<_>>());
/// let mut parts = Parts::<u64>::decode(&[a.to_bytes(), b.to_bytes()]).unwrap();
/// assert_eq!(parts.quantile(1.0), Some(1_999));
/// b.update_batch(&(2_000..3_000u64).collect::<Vec<_>>());
/// parts.replace(&[(1, b.to_bytes())]).unwrap();
/// assert_eq!(parts.quantile(1.0), Some(2_999));
/// assert_eq!(parts.rank(&999), a.rank(&999));
/// ```
#[derive(Debug)]
pub struct Parts<T> {
    sketches: Vec<ReqSketch<T>>,
    cache: ReadCache<T>,
}

impl<T: Ord + Clone + Packable> Parts<T> {
    /// Decode and check `parts` as [`decode_parts`] does.
    pub fn decode<B: AsRef<[u8]>>(parts: &[B]) -> Result<Self, ReqError> {
        Ok(Parts {
            sketches: decode_parts(parts)?,
            cache: ReadCache::new(),
        })
    }

    /// Replace the part at each `(position, bytes)` with `bytes` decoded.
    /// The new parts are checked against a part that stays, or against one
    /// another when every part is replaced, so the set stays one that
    /// [`decode_parts`] accepts: mismatched parts fail with
    /// [`ReqError::IncompatibleMerge`]. On any error nothing is replaced.
    pub fn replace<B: AsRef<[u8]>>(&mut self, changed: &[(usize, B)]) -> Result<(), ReqError> {
        if changed.is_empty() {
            return Ok(());
        }
        let mut fresh = Vec::with_capacity(changed.len());
        for (i, bytes) in changed {
            if *i >= self.sketches.len() {
                return Err(ReqError::InvalidParameter(format!(
                    "no part {i} among {}",
                    self.sketches.len()
                )));
            }
            fresh.push((*i, ReqSketch::from_bytes(bytes.as_ref())?));
        }
        let stays = (0..self.sketches.len()).find(|i| fresh.iter().all(|(j, _)| j != i));
        let reference = match stays {
            Some(i) => &self.sketches[i],
            None => &fresh[0].1,
        };
        for (_, sketch) in &fresh {
            check_compatible(reference, sketch)?;
        }
        for (i, sketch) in fresh {
            self.sketches[i] = sketch;
        }
        self.cache.clear();
        Ok(())
    }
}

impl<T: Ord + Clone> Parts<T> {
    /// The parts, in the order they were decoded.
    pub fn sketches(&self) -> &[ReqSketch<T>] {
        &self.sketches
    }

    /// [`Union::rank`] over the parts, through the read cache.
    pub fn rank(&self, y: &T) -> u64 {
        self.read(|union| union.rank(y))
    }

    /// [`Union::quantile`] over the parts, through the read cache.
    pub fn quantile(&self, q: f64) -> Option<T> {
        self.read(|union| union.quantile(q))
    }

    /// Lifetime counters of the read cache.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.cache.stats()
    }

    fn read<R>(&self, answer: impl Fn(&Union<'_, T>) -> R) -> R {
        let parts: Vec<&ReqSketch<T>> = self.sketches.iter().collect();
        let mut out = self.cache.read(&parts, 1, |_, union| answer(union));
        out.pop().expect("one point read")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::RankAccuracy;
    use sketch_traits::QuantileSketch;

    fn sketch(acc: RankAccuracy, seed: u64, items: &[u64]) -> ReqSketch<u64> {
        let mut s = ReqSketch::<u64>::builder()
            .k(4)
            .rank_accuracy(acc)
            .seed(seed)
            .build()
            .unwrap();
        for chunk in items.chunks(37) {
            s.update_batch(chunk);
        }
        s
    }

    #[test]
    fn selection_equals_the_union_view_at_every_target() {
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let a = sketch(
                acc,
                1,
                &(0..3_000u64).map(|i| i * 7 % 1_003).collect::<Vec<_>>(),
            );
            let b = sketch(acc, 2, &(0..1_234u64).map(|i| i % 17).collect::<Vec<_>>());
            let c = sketch(acc, 3, &[]);
            let parts = [&a, &b, &c];
            let union = Union::new(&parts);
            let view = union.view();
            assert_eq!(view.total_weight(), union.total_weight());
            for i in 1..200 {
                let q = f64::from(i) / 200.0;
                assert_eq!(
                    union.quantile(q).as_ref(),
                    view.quantile(q),
                    "{acc:?} q {q}"
                );
            }
            for y in (0..1_100u64).step_by(13) {
                assert_eq!(union.rank(&y), view.rank(&y), "{acc:?} y {y}");
            }
            assert_eq!(union.quantile(0.0), Some(0));
            assert_eq!(union.quantile(f64::NAN), Some(0));
            assert_eq!(union.quantile(1.0), Some(1_002));
        }
    }

    #[test]
    fn warm_starts_equal_cold_selection_from_any_hint() {
        // Even items only, so every odd value is a non-retained hint
        // between two items, and 0 lies below the minimum.
        let spread: Vec<u64> = (0..3_000u64).map(|i| 2 + i * 7 % 1_003 * 2).collect();
        let dups: Vec<u64> = (0..1_234u64).map(|i| 2 + i % 17 * 2).collect();
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let a = sketch(acc, 1, &spread);
            let b = sketch(acc, 2, &dups);
            for parts in [vec![&a, &b], vec![&b]] {
                let mut union = Union::new(&parts);
                let view = union.view();
                let items: Vec<u64> = view.iter().map(|(x, _, _)| *x).collect();
                let total = union.total_weight();
                // Every target at and just past a cumulative weight: where
                // the answer changes and where it does not.
                let targets = view
                    .iter()
                    .flat_map(|(_, _, cum)| [cum, cum + 1])
                    .filter(|&t| t <= total);
                for t in targets {
                    let q = (t as f64 - 0.5) / total as f64;
                    let far = (q + 0.5) % 1.0;
                    let cold = Union::new(&parts).quantile(q).unwrap();
                    let i = items.binary_search(&cold).unwrap();
                    let hints = [
                        Some(cold),
                        i.checked_sub(1).map(|j| items[j]),
                        items.get(i + 1).copied(),
                        Some(0),
                        Some(u64::MAX),
                        Some(cold + 1),
                        Some(cold - 1),
                        Union::new(&parts).quantile(far),
                    ];
                    for hint in hints.into_iter().flatten() {
                        union.lend_hints(Hints(vec![(q.to_bits(), hint)]));
                        assert_eq!(
                            union.quantile(q),
                            Some(cold),
                            "{acc:?} parts {} target {t} hint {hint}",
                            parts.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hints_keep_the_most_recent_distinct_quantiles() {
        let a = sketch(RankAccuracy::LowRank, 1, &(0..5_000u64).collect::<Vec<_>>());
        let parts = [&a];
        let union = Union::new(&parts);
        let q = |i: usize| 0.1 * i as f64 + 0.05;
        // One more distinct q than fits evicts the first; asking q(2) again
        // makes it the most recent.
        for i in 0..=HINTS {
            union.quantile(q(i));
        }
        union.quantile(q(2));
        // Ends and NaN answer the exact extremes without a hint.
        union.quantile(0.0);
        union.quantile(1.0);
        union.quantile(f64::NAN);
        let hints = union.take_hints().0;
        let qs: Vec<f64> = hints.iter().map(|(b, _)| f64::from_bits(*b)).collect();
        let want: Vec<f64> = [1].into_iter().chain(3..=HINTS).chain([2]).map(q).collect();
        assert_eq!(qs, want);
        for (b, answer) in hints {
            assert_eq!(
                Some(answer),
                union.view().quantile(f64::from_bits(b)).copied()
            );
        }
    }

    #[test]
    fn reads_count_their_comparisons() {
        let a = sketch(RankAccuracy::LowRank, 1, &(0..5_000u64).collect::<Vec<_>>());
        let parts = [&a];
        let union = Union::new(&parts);
        assert_eq!(union.comparisons(), 0);
        union.rank(&10);
        let after_rank = union.comparisons();
        assert!(after_rank > 0);
        union.quantile(0.5);
        assert!(union.comparisons() > after_rank);
    }

    #[test]
    fn replaced_parts_read_as_a_fresh_decode() {
        let bytes = |mut s: ReqSketch<u64>| s.to_bytes();
        let lows: Vec<u64> = (0..3_000).map(|i| i * 7 % 1_003).collect();
        let highs: Vec<u64> = (0..3_000).map(|i| 2_000 + i % 901).collect();
        let a = bytes(sketch(RankAccuracy::LowRank, 1, &lows));
        let b = bytes(sketch(RankAccuracy::LowRank, 2, &lows));
        let c = bytes(sketch(RankAccuracy::LowRank, 3, &highs));
        let mut parts = Parts::<u64>::decode(&[&a, &b]).unwrap();
        let qs: Vec<f64> = (1..40).map(|i| f64::from(i) / 40.0).collect();
        // Repeated reads pay for a view of the first set.
        while parts.read_cache_stats().builds == 0 {
            for &q in &qs {
                parts.quantile(q);
            }
        }
        // The replacement decodes at epoch 0, as the part it replaces did.
        parts.replace(&[(1, &c)]).unwrap();
        let fresh = Parts::<u64>::decode(&[&a, &c]).unwrap();
        for &q in &qs {
            assert_eq!(parts.quantile(q), fresh.quantile(q), "q {q}");
        }
        for y in (0..3_000).step_by(97) {
            assert_eq!(parts.rank(&y), fresh.rank(&y), "y {y}");
        }
    }

    #[test]
    fn replacements_are_checked_against_the_set_they_join() {
        let bytes = |acc, seed| sketch(acc, seed, &(0..500).collect::<Vec<_>>()).to_bytes();
        let (low, high) = (RankAccuracy::LowRank, RankAccuracy::HighRank);
        let mut parts = Parts::<u64>::decode(&[bytes(low, 1), bytes(low, 2)]).unwrap();
        let before = parts.quantile(0.5);
        assert!(matches!(
            parts.replace(&[(0, bytes(high, 3))]),
            Err(ReqError::IncompatibleMerge(_))
        ));
        assert!(matches!(
            parts.replace(&[(0, bytes(low, 3)), (1, bytes(high, 4))]),
            Err(ReqError::IncompatibleMerge(_))
        ));
        assert!(matches!(
            parts.replace(&[(2, bytes(low, 3))]),
            Err(ReqError::InvalidParameter(_))
        ));
        assert!(matches!(
            parts.replace(&[(0, vec![0xFF])]),
            Err(ReqError::CorruptBytes(_))
        ));
        assert_eq!(parts.quantile(0.5), before, "nothing was replaced");
        // A whole new set may change configuration together.
        parts
            .replace(&[(0, bytes(high, 5)), (1, bytes(high, 6))])
            .unwrap();
        assert!(parts
            .sketches()
            .iter()
            .all(|s| s.rank_accuracy() == RankAccuracy::HighRank));
    }

    #[test]
    fn empty_union_answers_nothing() {
        let empty: [&ReqSketch<u64>; 0] = [];
        let union = Union::new(&empty);
        assert_eq!(union.quantile(0.5), None);
        assert_eq!(union.quantile(0.0), None);
        assert_eq!(union.rank(&3), 0);
        assert_eq!(union.normalized_rank(&3), 0.0);
        assert!(matches!(
            decode_parts::<u64, Vec<u8>>(&[]),
            Err(ReqError::InvalidParameter(_))
        ));
    }
}
