//! The "always compact half the buffer" ablation (paper §2.1), which is
//! also the space regime of Zhang et al. \[22\].
//!
//! > "If we were to set L = B/2 for all compaction operations, then analyzing
//! > the worst-case behavior reveals that we need k ≈ 1/ε², resulting in a
//! > sketch with a quadratic dependency on 1/ε." — §2.1
//!
//! This sketch is a stack of [`RelativeCompactor`]s configured with a
//! *single* section (`num_sections = 1`, section size `B/2`), so every
//! compaction involves exactly half the buffer — no derandomized-exponential
//! schedule. With per-level buffers of size `Θ(1/ε²)` it achieves the
//! `O(ε⁻²·log(ε²n))` space of \[22\]; experiments E3 and E10 measure the
//! quadratic-vs-linear `1/ε` separation against the full REQ schedule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use req_core::compactor::{RankAccuracy, RelativeCompactor};
use req_core::view::LevelSet;
use req_core::{LevelArena, SortedView};
use sketch_traits::{QuantileSketch, SpaceUsage};

/// Relative-error sketch whose compactions always halve the buffer.
#[derive(Debug, Clone)]
pub struct HalvingSketch<T> {
    arena: LevelArena<T>,
    levels: Vec<RelativeCompactor<T>>,
    half: u32,
    accuracy: RankAccuracy,
    n: u64,
    rng: SmallRng,
}

impl<T: Ord + Clone> HalvingSketch<T> {
    /// New sketch whose per-level buffer holds `2·half` items and compacts
    /// the top `half` when full. `half` must be even and ≥ 4.
    pub fn new(half: u32, accuracy: RankAccuracy, seed: u64) -> Self {
        assert!(
            half >= 4 && half.is_multiple_of(2),
            "half must be even and >= 4"
        );
        HalvingSketch {
            arena: LevelArena::new(),
            levels: Vec::new(),
            half,
            accuracy,
            n: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Parameterize for relative error `eps`: `half = Θ(1/ε²)` per §2.1's
    /// worst-case analysis.
    pub fn from_eps(eps: f64, accuracy: RankAccuracy, seed: u64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0);
        let raw = (1.0 / (eps * eps)).ceil() as u64;
        let half = (raw + (raw & 1)).clamp(4, 1 << 24) as u32;
        Self::new(half, accuracy, seed)
    }

    /// Per-level buffer size `B = 2·half`.
    pub fn level_capacity(&self) -> usize {
        2 * self.half as usize
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    fn ensure_level(&mut self, h: usize) {
        while self.levels.len() <= h {
            self.levels
                .push(RelativeCompactor::new(&mut self.arena, self.half, 1));
        }
    }

    /// Insert a sorted run (compaction output) at level `h`: chunks are
    /// *merged* into the level's sorted run — the same run-maintenance
    /// building block the full REQ sketch uses — so no level ever re-sorts
    /// what a compaction below already ordered.
    fn insert_run_at(&mut self, h: usize, mut items: Vec<T>) {
        self.ensure_level(h);
        while !items.is_empty() {
            let room = self.levels[h]
                .capacity()
                .saturating_sub(self.levels[h].len(&self.arena))
                .max(1);
            let accuracy = self.accuracy;
            let take = items.len().min(room);
            self.levels[h].merge_sorted_run_prefix(&mut self.arena, &mut items, take, accuracy);
            if self.levels[h].is_at_capacity(&self.arena) {
                let coin = self.rng.gen::<bool>();
                let accuracy = self.accuracy;
                let mut out = Vec::new();
                // num_sections = 1 ⇒ the schedule always selects the single
                // B/2-sized section: L = B/2 on every compaction.
                self.levels[h].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
                self.insert_run_at(h + 1, out);
            }
        }
    }

    /// Weighted sorted snapshot for batched queries — a k-way merge of the
    /// per-level sorted runs.
    pub fn sorted_view(&self) -> SortedView<T> {
        SortedView::from_levels(&[self.level_set()])
    }

    fn level_set(&self) -> LevelSet<'_, T> {
        LevelSet {
            levels: &self.levels,
            arena: &self.arena,
            accuracy: self.accuracy,
        }
    }

    /// Total weight (equals `n`).
    pub fn total_weight(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(h, l)| (l.len(&self.arena) as u64) << h)
            .sum()
    }
}

impl<T: Ord + Clone> QuantileSketch<T> for HalvingSketch<T> {
    fn update(&mut self, item: T) {
        self.n += 1;
        self.ensure_level(0);
        self.levels[0].push(&mut self.arena, item);
        if self.levels[0].is_at_capacity(&self.arena) {
            let coin = self.rng.gen::<bool>();
            let accuracy = self.accuracy;
            let mut out = Vec::new();
            self.levels[0].compact_scheduled(&mut self.arena, accuracy, coin, &mut out);
            self.insert_run_at(1, out);
        }
    }

    fn len(&self) -> u64 {
        self.n
    }

    fn rank(&self, y: &T) -> u64 {
        self.level_set().weight_where(|x| x <= y, &mut 0)
    }

    fn quantile(&self, q: f64) -> Option<T> {
        self.sorted_view().quantile(q).cloned()
    }
}

impl<T> SpaceUsage for HalvingSketch<T> {
    fn retained(&self) -> usize {
        self.levels.iter().map(|l| l.len(&self.arena)).sum()
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.arena.arena_bytes()
            + self.levels.len() * std::mem::size_of::<RelativeCompactor<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_compaction_halves() {
        let mut s = HalvingSketch::<u64>::new(8, RankAccuracy::LowRank, 1);
        for i in 0..10_000u64 {
            s.update(i);
        }
        for level in &s.levels {
            // every level compacts at exactly B with L = B/2; stats agree
            assert_eq!(level.num_sections(), 1);
            assert_eq!(level.section_size(), 8);
        }
        assert_eq!(s.total_weight(), 10_000);
    }

    #[test]
    fn space_grows_logarithmically_with_n() {
        let mut s = HalvingSketch::<u64>::new(32, RankAccuracy::LowRank, 2);
        for i in 0..1_000_000u64 {
            s.update(i.wrapping_mul(48271));
        }
        // ~B items per level, ~log2(n/B) levels
        let bound = s.level_capacity() * (s.num_levels() + 1);
        assert!(s.retained() <= bound);
        assert!(s.num_levels() <= 16);
    }

    #[test]
    fn low_ranks_protected_like_req() {
        let mut s = HalvingSketch::<u64>::new(64, RankAccuracy::LowRank, 3);
        let n = 100_000u64;
        for i in 0..n {
            s.update(i.wrapping_mul(2654435761) % n);
        }
        // bottom half of level 0 never compacted → tiny ranks exact
        assert_eq!(s.rank(&10), 11);
    }

    #[test]
    fn from_eps_sets_quadratic_buffer() {
        let s = HalvingSketch::<u64>::from_eps(0.1, RankAccuracy::LowRank, 4);
        assert_eq!(s.level_capacity(), 200); // 2 * ceil(1/0.01)
        let s = HalvingSketch::<u64>::from_eps(0.05, RankAccuracy::LowRank, 4);
        assert_eq!(s.level_capacity(), 800);
    }

    #[test]
    fn accuracy_reasonable_at_matching_eps() {
        let eps = 0.1;
        let mut s = HalvingSketch::<u64>::from_eps(eps, RankAccuracy::LowRank, 5);
        let n = 1u64 << 17;
        for i in 0..n {
            s.update(i.wrapping_mul(2654435761) % n);
        }
        for y in [1_000u64, 10_000, 100_000] {
            let err = (s.rank(&y) as f64 - (y + 1) as f64).abs();
            assert!(
                err <= 3.0 * eps * (y + 1) as f64 + 1.0,
                "rank({y}) err {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "half must be even and >= 4")]
    fn rejects_odd_half() {
        let _ = HalvingSketch::<u64>::new(7, RankAccuracy::LowRank, 0);
    }
}
