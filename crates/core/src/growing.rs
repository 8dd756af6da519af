//! The literal §5 construction for unknown stream lengths.
//!
//! §5 of the paper removes the known-`n` assumption by running a sequence of
//! known-`n` summaries: start with an estimate `N₀ = O(ε⁻¹)`; when the stream
//! reaches `Nᵢ`, "close out" the current summary (keep it read-only) and open
//! a fresh one built for `Nᵢ₊₁ = Nᵢ²`. At most `log₂ log₂(εn)` summaries ever
//! exist; a rank query sums the per-summary estimates, and the total space is
//! dominated by the last summary.
//!
//! The *default* [`crate::ReqSketch`] instead uses footnote 9's in-place
//! variant (recompute `k`, `B` and continue), which is the one whose analysis
//! extends to full mergeability (Appendix D). This module exists because the
//! closed-out-summaries construction is the one §5 actually analyzes, and
//! experiment E8 compares the two.

use sketch_traits::{QuantileSketch, SpaceUsage};

use crate::compactor::RankAccuracy;
use crate::error::ReqError;
use crate::params::ParamPolicy;
use crate::sketch::ReqSketch;
use crate::union::Union;
use crate::view::{ReadCache, ReadCacheStats, SortedView};

/// Unknown-`n` REQ sketch per §5: a list of closed-out summaries plus one
/// active summary, each a known-`n` sketch for estimate `Nᵢ`, `Nᵢ₊₁ = Nᵢ²`.
#[derive(Debug, Clone)]
pub struct GrowingReqSketch<T> {
    eps: f64,
    delta: f64,
    accuracy: RankAccuracy,
    /// Read-only summaries for σ₀, …, σ_{ℓ−1}.
    closed: Vec<ReqSketch<T>>,
    /// Summary for the current substream σ_ℓ.
    active: ReqSketch<T>,
    /// Current estimate `Nᵢ` (capacity of `active`).
    current_estimate: u64,
    seed: u64,
    /// The read cache over all summaries.
    cache: ReadCache<T>,
}

impl<T: Ord + Clone> GrowingReqSketch<T> {
    /// Create with target relative error `eps`, failure probability `delta`,
    /// orientation, and RNG seed. The initial estimate is
    /// `N₀ = max(64, ⌈4/ε⌉)` (§5 suggests `N₀ = O(ε⁻¹)`).
    pub fn new(eps: f64, delta: f64, accuracy: RankAccuracy, seed: u64) -> Result<Self, ReqError> {
        let n0 = ((4.0 / eps).ceil() as u64).max(64);
        let policy = ParamPolicy::streaming(eps, delta, n0)?;
        Ok(GrowingReqSketch {
            eps,
            delta,
            accuracy,
            closed: Vec::new(),
            active: ReqSketch::with_policy(policy, accuracy, seed),
            current_estimate: n0,
            seed,
            cache: ReadCache::new(),
        })
    }

    /// Number of summaries (closed + active). §5 bounds this by
    /// `log₂ log₂(εn) + 1`.
    pub fn num_summaries(&self) -> usize {
        self.closed.len() + 1
    }

    /// The current stream-length estimate `Nᵢ`.
    pub fn current_estimate(&self) -> u64 {
        self.current_estimate
    }

    /// Configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Configured δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    fn close_out_and_grow(&mut self) {
        let next = self.current_estimate.saturating_mul(self.current_estimate);
        let policy = ParamPolicy::streaming(self.eps, self.delta, next)
            .expect("parameters were validated at construction");
        // Each summary gets independent randomness (§5 requires independent
        // summaries for the variance argument).
        let next_seed = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(self.closed.len() as u64 + 1);
        let fresh = ReqSketch::with_policy(policy, self.accuracy, next_seed);
        let old = std::mem::replace(&mut self.active, fresh);
        self.closed.push(old);
        self.current_estimate = next;
    }

    /// Combined weighted view over all summaries, for batched queries: one
    /// loser tree over every summary's runs.
    pub fn sorted_view(&self) -> SortedView<T> {
        let sets: Vec<_> = self.summaries().map(|s| s.level_set()).collect();
        SortedView::from_levels(&sets)
    }

    /// The closed-out summaries, oldest first, then the active one.
    pub fn summaries(&self) -> impl Iterator<Item = &ReqSketch<T>> {
        self.closed.iter().chain(std::iter::once(&self.active))
    }

    /// Lifetime counters of the read cache behind `rank`/`quantile`/`cdf`.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.cache.stats()
    }

    /// Answer `m` points over the union of the summaries, through the read
    /// cache.
    fn read<R>(&self, m: usize, answer: impl FnMut(usize, &Union<'_, T>) -> R) -> Vec<R> {
        let summaries: Vec<&ReqSketch<T>> = self.summaries().collect();
        self.cache.read(&summaries, m, answer)
    }
}

impl<T: Ord + Clone> QuantileSketch<T> for GrowingReqSketch<T> {
    fn update(&mut self, item: T) {
        // "As soon as the stream length hits the current estimate Nᵢ, the
        // algorithm closes out the current data structure" (§5).
        if self.active.len() >= self.active.max_n() {
            self.close_out_and_grow();
        }
        self.active.update(item);
    }

    /// Batched ingest: the slice is split at the §5 close-out boundaries
    /// (each active summary absorbs at most `Nᵢ − n` items) and each piece
    /// rides the inner sketch's `update_batch` fast path.
    fn update_batch(&mut self, items: &[T]) {
        let mut rest = items;
        while !rest.is_empty() {
            if self.active.len() >= self.active.max_n() {
                self.close_out_and_grow();
            }
            let room = usize::try_from(self.active.max_n() - self.active.len())
                .unwrap_or(usize::MAX)
                .max(1);
            let take = rest.len().min(room);
            let (chunk, tail) = rest.split_at(take);
            self.active.update_batch(chunk);
            rest = tail;
        }
    }

    fn len(&self) -> u64 {
        self.closed.iter().map(|s| s.len()).sum::<u64>() + self.active.len()
    }

    /// `R̂(y) = Σᵢ R̂ᵢ(y)` over all summaries (§5).
    fn rank(&self, y: &T) -> u64 {
        self.read(1, |_, union| union.rank(y)).remove(0)
    }

    /// Selected across all summaries' levels at once ([`crate::union`]), with
    /// exact endpoints from the per-summary tracked extremes.
    fn quantile(&self, q: f64) -> Option<T> {
        self.read(1, |_, union| union.quantile(q)).remove(0)
    }
}

impl<T: Ord + Clone> SpaceUsage for GrowingReqSketch<T> {
    fn retained(&self) -> usize {
        self.closed.iter().map(|s| s.retained()).sum::<usize>() + self.active.retained()
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.closed.iter().map(|s| s.size_bytes()).sum::<usize>()
            + self.active.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn growing(eps: f64, seed: u64) -> GrowingReqSketch<u64> {
        GrowingReqSketch::new(eps, 0.05, RankAccuracy::LowRank, seed).unwrap()
    }

    #[test]
    fn starts_with_single_summary() {
        let g = growing(0.05, 1);
        assert_eq!(g.num_summaries(), 1);
        assert_eq!(g.current_estimate(), 80); // ceil(4/0.05) = 80
        assert!(g.is_empty());
    }

    #[test]
    fn closes_out_on_schedule() {
        let mut g = growing(0.05, 1);
        let n0 = g.current_estimate();
        for i in 0..n0 {
            g.update(i);
        }
        assert_eq!(g.num_summaries(), 1);
        g.update(n0);
        assert_eq!(g.num_summaries(), 2);
        assert_eq!(g.current_estimate(), n0 * n0);
        assert_eq!(g.len(), n0 + 1);
    }

    #[test]
    fn summary_count_is_log_log() {
        let mut g = growing(0.1, 7);
        let n = 200_000u64;
        for i in 0..n {
            g.update(i);
        }
        // N0 = 64? eps=0.1 -> ceil(40)=40 -> max(64) = 64; ladder 64, 4096,
        // 16M: 200k exceeds 4096 so 3 summaries.
        assert_eq!(g.num_summaries(), 3);
        assert_eq!(g.len(), n);
    }

    #[test]
    fn update_batch_matches_per_item_across_closeouts() {
        let items: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(48271) % 9973)
            .collect();
        let mut per_item = growing(0.1, 9);
        for &x in &items {
            per_item.update(x);
        }
        let mut batched = growing(0.1, 9);
        batched.update_batch(&items);
        assert_eq!(batched.len(), per_item.len());
        assert_eq!(batched.num_summaries(), per_item.num_summaries());
        assert_eq!(batched.current_estimate(), per_item.current_estimate());
        for y in (0..9973u64).step_by(313) {
            assert_eq!(batched.rank(&y), per_item.rank(&y), "mismatch at {y}");
        }
    }

    #[test]
    fn rank_sums_across_summaries() {
        let mut g = growing(0.1, 3);
        let n = 50_000u64;
        for i in 0..n {
            g.update(i); // sorted stream
        }
        for y in [100u64, 1_000, 10_000, 49_999] {
            let r = g.rank(&y);
            let rel = (r as f64 - (y + 1) as f64).abs() / (y + 1) as f64;
            assert!(rel < 0.25, "rank({y}) = {r}, rel {rel}");
        }
        let mut prev = 0;
        for y in (0..n).step_by(991) {
            let r = g.rank(&y);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn quantiles_come_from_combined_view() {
        let mut g = growing(0.1, 5);
        for i in 0..30_000u64 {
            g.update(i);
        }
        let med = g.quantile(0.5).unwrap();
        assert!((med as f64 - 15_000.0).abs() < 3_000.0, "median {med}");
        assert!(g.quantile(0.0).is_some());
        assert!(g.quantile(1.0).is_some());
    }

    #[test]
    fn space_dominated_by_last_summary() {
        let mut g = growing(0.1, 11);
        for i in 0..200_000u64 {
            g.update(i);
        }
        let total = g.retained();
        let last = g.active.retained();
        // §5: total space is within a constant of the last summary's.
        assert!(
            (last as f64) > 0.25 * total as f64,
            "last {last} of total {total}"
        );
        assert!(g.size_bytes() > 0);
    }

    #[test]
    fn empty_growing_sketch_queries() {
        let g = growing(0.1, 1);
        assert_eq!(g.rank(&5), 0);
        assert_eq!(g.quantile(0.5), None);
        assert_eq!(g.len(), 0);
    }
}
