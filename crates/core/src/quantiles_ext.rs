//! Extended query surface: batch quantiles, CDF/PMF, a priori error
//! estimates, rank confidence bounds, weighted updates, and iteration.
//!
//! Everything here is derived from the core estimator of Algorithm 2; the
//! a-priori error model comes from the paper's informal analysis (§2.3,
//! `ε ∝ √log₂(εn)/k`) with the leading constant calibrated empirically in
//! experiment E13.

use sketch_traits::QuantileSketch;

use crate::params::ParamPolicy;
use crate::sketch::ReqSketch;
use crate::view::pmf_of_ranks;

/// Empirical constant from experiment E13: worst-case relative error of a
/// `FixedK` sketch is about `0.014–0.033·√log₂(n)/k` across the full rank
/// range. Individual probes occasionally exceed the max-over-probes band, so
/// the constant used for confidence bounds carries extra headroom.
pub const E13_CONSTANT: f64 = 0.05;

impl<T: Ord + Clone> ReqSketch<T> {
    /// A priori estimate of the relative-error parameter ε this sketch
    /// achieves at its current size.
    ///
    /// * Theory policies return their configured ε (a guaranteed bound).
    /// * `FixedK` returns the E13-calibrated empirical estimate
    ///   [`E13_CONSTANT`]`·√log₂(n)/k` (an expectation, not a guarantee).
    pub fn estimated_epsilon(&self) -> f64 {
        match self.policy() {
            ParamPolicy::Mergeable { eps, .. }
            | ParamPolicy::Streaming { eps, .. }
            | ParamPolicy::SmallDelta { eps, .. }
            | ParamPolicy::Deterministic { eps, .. } => eps,
            ParamPolicy::FixedK { k } => {
                let n = self.len().max(2) as f64;
                (E13_CONSTANT * n.log2().sqrt() / k as f64).min(1.0)
            }
        }
    }

    /// Confidence bounds on the true rank of `y`, derived from the estimate
    /// and [`Self::estimated_epsilon`]:
    ///
    /// * low-rank orientation: `R ∈ [R̂/(1+ε), R̂/(1−ε)]`,
    /// * high-rank orientation: the mirrored interval on the tail
    ///   `n − R + 1`.
    ///
    /// Bounds are clamped to `[0, n]`. With a theory policy they hold with
    /// probability `1 − δ`; with `FixedK` they are calibrated expectations.
    ///
    /// ```
    /// use req_core::ReqSketch;
    /// use sketch_traits::QuantileSketch;
    ///
    /// let mut s = ReqSketch::<u64>::builder()
    ///     .k(32)
    ///     .high_rank_accuracy(false)
    ///     .seed(3)
    ///     .build()
    ///     .unwrap();
    /// for i in 0..50_000u64 {
    ///     s.update(i);
    /// }
    /// let (lo, hi) = s.rank_bounds(&10_000);
    /// assert!(lo <= 10_001 && 10_001 <= hi, "true rank inside [{lo}, {hi}]");
    /// assert!(hi - lo < 2_000, "interval stays proportional to the rank");
    /// ```
    pub fn rank_bounds(&self, y: &T) -> (u64, u64) {
        let n = self.len();
        let est = self.rank(y);
        let eps = self.estimated_epsilon().min(0.99);
        match self.rank_accuracy() {
            crate::compactor::RankAccuracy::LowRank => {
                let lo = (est as f64 / (1.0 + eps)).floor() as u64;
                let hi = ((est as f64 / (1.0 - eps)).ceil() as u64).min(n);
                (lo, hi)
            }
            crate::compactor::RankAccuracy::HighRank => {
                // tail t̂ = n − R̂; true tail within [t̂/(1+ε), t̂/(1−ε)]
                let tail_est = (n - est) as f64;
                let tail_hi = ((tail_est + 1.0) / (1.0 - eps)).ceil() as u64;
                let tail_lo = (tail_est / (1.0 + eps)).floor() as u64;
                let lo = n.saturating_sub(tail_hi);
                let hi = n.saturating_sub(tail_lo).min(n);
                (lo, hi)
            }
        }
    }

    /// Batch rank queries through the read cache (`ys` need not be
    /// sorted): a long batch pays for one view build and answers the rest
    /// in `O(log retained)` each.
    pub fn ranks(&self, ys: &[T]) -> Vec<u64> {
        self.read(ys.len(), |i, union| union.rank(&ys[i]))
    }

    /// Batch quantile queries through the read cache (`qs` need not be
    /// sorted), answered as [`QuantileSketch::quantile`] answers each.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<T>> {
        self.read(qs.len(), |i, union| union.quantile(qs[i]))
    }

    /// Normalized CDF at ascending `split_points` (read cache).
    pub fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        debug_assert!(split_points.windows(2).all(|w| w[0] <= w[1]));
        self.read(split_points.len(), |i, union| {
            union.normalized_rank(&split_points[i])
        })
    }

    /// Normalized PMF over the intervals induced by ascending
    /// `split_points` (length `split_points.len() + 1`; read cache).
    pub fn pmf(&self, split_points: &[T]) -> Vec<f64> {
        debug_assert!(split_points.windows(2).all(|w| w[0] <= w[1]));
        pmf_of_ranks(&self.ranks(split_points), self.total_weight())
    }

    /// Iterate over retained `(item, weight)` pairs, level by level
    /// (unordered across levels; use [`Self::sorted_view`] for sorted
    /// iteration with cumulative weights).
    pub fn retained_items(&self) -> impl Iterator<Item = (&T, u64)> {
        self.levels.iter().enumerate().flat_map(move |(h, level)| {
            level
                .items(&self.arena)
                .iter()
                .map(move |item| (item, 1u64 << h))
        })
    }

    /// Update with an item that represents `weight` identical occurrences
    /// (pre-aggregated input).
    ///
    /// Equivalent in its effect on rank estimates to `weight` repeated
    /// [`QuantileSketch::update`] calls whose copies were compacted with
    /// zero error: the weight is decomposed in binary and the item is placed
    /// directly at the corresponding levels (a level-`h` item carries weight
    /// `2^h` by construction). Two caveats, inherent to weighted items:
    ///
    /// * rank estimates near this item are quantized at the granularity of
    ///   its placed weights (a 2^h chunk cannot be split by later
    ///   compactions' random choices any more finely than ±2^h);
    /// * the paper's per-item analysis covers level-0 insertions; placing at
    ///   level `h` is analyzed as a merge with a sketch holding that item at
    ///   level `h` (Appendix D machinery), which is how the implementation
    ///   treats it.
    pub fn update_weighted(&mut self, item: T, weight: u64) {
        if weight == 0 {
            return;
        }
        self.mark_dirty();
        self.track_min_max(&item);
        let new_n = self
            .n
            .checked_add(weight)
            .expect("total weight overflows u64");
        if new_n > self.max_n {
            self.grow_to_cover(new_n);
        }
        self.n = new_n;
        for h in 0..64 {
            if weight & (1u64 << h) != 0 {
                self.ensure_level(h);
                self.levels[h].push(&mut self.arena, item.clone());
            }
        }
        // Normalize any level the placement filled (batch pass: at most one
        // compaction per level, as in a merge).
        self.merge_compaction_pass();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::RankAccuracy;
    use crate::params::ParamPolicy;
    use sketch_traits::QuantileSketch;

    fn sketch(k: u32, acc: RankAccuracy) -> ReqSketch<u64> {
        ReqSketch::with_policy(ParamPolicy::fixed_k(k).unwrap(), acc, 77)
    }

    #[test]
    fn estimated_epsilon_theory_policies_echo_config() {
        let s = ReqSketch::<u64>::with_policy(
            ParamPolicy::mergeable(0.07, 0.05).unwrap(),
            RankAccuracy::LowRank,
            1,
        );
        assert_eq!(s.estimated_epsilon(), 0.07);
    }

    #[test]
    fn estimated_epsilon_fixed_k_tracks_calibration() {
        let mut s = sketch(32, RankAccuracy::LowRank);
        for i in 0..(1u64 << 16) {
            s.update(i);
        }
        let eps = s.estimated_epsilon();
        // 0.05 * 4 / 32 = 0.00625
        assert!((eps - 0.05 * 4.0 / 32.0).abs() < 1e-9, "{eps}");
        // bigger k, smaller estimate
        let s2 = sketch(128, RankAccuracy::LowRank);
        assert!(s2.estimated_epsilon() < eps || s2.len() == 0);
    }

    #[test]
    fn rank_bounds_bracket_truth_low_rank() {
        let mut s = sketch(32, RankAccuracy::LowRank);
        let n = 1u64 << 16;
        for i in 0..n {
            s.update(i.wrapping_mul(2654435761) % n); // permutation
        }
        for y in [100u64, 5_000, 30_000, 60_000] {
            let truth = y + 1;
            let (lo, hi) = s.rank_bounds(&y);
            assert!(
                lo <= truth && truth <= hi,
                "truth {truth} outside [{lo}, {hi}]"
            );
            assert!(hi - lo < truth / 2, "interval too wide: [{lo}, {hi}]");
        }
    }

    #[test]
    fn rank_bounds_bracket_truth_high_rank() {
        let mut s = sketch(32, RankAccuracy::HighRank);
        let n = 1u64 << 16;
        for i in 0..n {
            s.update(i.wrapping_mul(2654435761) % n);
        }
        for y in [n - 100, n - 5_000, n - 30_000] {
            let truth = y + 1;
            let (lo, hi) = s.rank_bounds(&y);
            assert!(
                lo <= truth && truth <= hi,
                "truth {truth} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn batch_quantiles_match_single_queries() {
        let mut s = sketch(16, RankAccuracy::LowRank);
        for i in 0..50_000u64 {
            s.update(i);
        }
        let qs = [0.1, 0.5, 0.9, 0.99];
        let batch = s.quantiles(&qs);
        for (q, b) in qs.iter().zip(batch) {
            assert_eq!(b, s.quantile(*q));
        }
        let empty = sketch(16, RankAccuracy::LowRank);
        assert_eq!(empty.quantiles(&qs), vec![None; 4]);
    }

    #[test]
    fn batch_ranks_match_single_queries_and_share_one_build() {
        let mut s = sketch(16, RankAccuracy::LowRank);
        for i in 0..50_000u64 {
            s.update(i);
        }
        let probes: Vec<u64> = (0..500u64).map(|i| i * 97).collect();
        let batch = s.ranks(&probes);
        for (y, r) in probes.iter().zip(&batch) {
            assert_eq!(*r, s.rank(y));
        }
        assert_eq!(
            s.read_cache_stats(),
            crate::ReadCacheStats {
                direct: 1,
                cached: 999,
                builds: 1
            },
            "1,000 queries must share one view build"
        );
        assert!(s.ranks(&[]).is_empty());
    }

    #[test]
    fn weighted_update_invalidates_cached_view() {
        let mut s = sketch(8, RankAccuracy::LowRank);
        s.update_weighted(10, 100);
        assert_eq!(s.rank(&10), 100);
        s.update_weighted(5, 50);
        assert_eq!(s.rank(&10), 150, "stale cache after weighted update");
        assert_eq!(s.rank(&5), 50);
    }

    #[test]
    fn cdf_pmf_shapes() {
        let mut s = sketch(16, RankAccuracy::LowRank);
        for i in 0..10_000u64 {
            s.update(i);
        }
        let splits = vec![2_500u64, 5_000, 7_500];
        let cdf = s.cdf(&splits);
        assert_eq!(cdf.len(), 3);
        assert!((cdf[1] - 0.5).abs() < 0.05, "{cdf:?}");
        let pmf = s.pmf(&splits);
        assert_eq!(pmf.len(), 4);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for mass in &pmf {
            assert!((*mass - 0.25).abs() < 0.05, "{pmf:?}");
        }
    }

    #[test]
    fn retained_items_weights_sum_to_n() {
        let mut s = sketch(8, RankAccuracy::LowRank);
        for i in 0..100_000u64 {
            s.update(i);
        }
        let total: u64 = s.retained_items().map(|(_, w)| w).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn weighted_update_counts_exactly() {
        let mut s = sketch(8, RankAccuracy::LowRank);
        s.update_weighted(10, 1000);
        s.update_weighted(20, 7); // 1+2+4
        s.update_weighted(30, 0); // no-op
        assert_eq!(s.len(), 1007);
        assert_eq!(s.total_weight(), 1007);
        assert_eq!(s.rank(&10), 1000);
        assert_eq!(s.rank(&20), 1007);
        assert_eq!(s.min_item(), Some(&10));
        assert_eq!(s.max_item(), Some(&20));
    }

    #[test]
    fn weighted_equals_many_updates_statistically() {
        // A weighted build and a repeated-update build of the same
        // frequency table must agree closely on every rank.
        let freqs: Vec<(u64, u64)> = (0..200).map(|v| (v, 1 + (v * 37) % 97)).collect();
        let mut weighted = sketch(16, RankAccuracy::LowRank);
        let mut repeated = sketch(16, RankAccuracy::LowRank);
        for &(v, w) in &freqs {
            weighted.update_weighted(v, w);
            for _ in 0..w {
                repeated.update(v);
            }
        }
        assert_eq!(weighted.len(), repeated.len());
        assert_eq!(weighted.total_weight(), repeated.total_weight());
        for y in (0..200u64).step_by(17) {
            let a = weighted.rank(&y) as f64;
            let b = repeated.rank(&y) as f64;
            let denom = a.max(b).max(32.0);
            assert!(
                (a - b).abs() / denom < 0.1,
                "rank({y}): weighted {a} vs repeated {b}"
            );
        }
    }

    #[test]
    fn weighted_update_triggers_growth() {
        let mut s = sketch(8, RankAccuracy::LowRank);
        let n0 = s.max_n();
        s.update_weighted(5, n0 * 3);
        assert!(s.max_n() >= n0 * 3);
        assert_eq!(s.len(), n0 * 3);
        assert_eq!(s.rank(&5), n0 * 3);
    }

    #[test]
    fn weighted_update_huge_weight_places_high_levels() {
        let mut s = sketch(8, RankAccuracy::LowRank);
        s.update_weighted(42, 1 << 40);
        assert_eq!(s.len(), 1 << 40);
        assert_eq!(s.total_weight(), 1 << 40);
        assert!(s.num_levels() >= 41);
        assert_eq!(s.rank(&42), 1 << 40);
        assert_eq!(s.rank(&41), 0);
    }
}
