//! Structural introspection of a sketch (per-level fill, schedule states,
//! size accounting) — used by the experiment harness and handy for debugging
//! production deployments.

use std::fmt;

use sketch_traits::SpaceUsage;

use crate::schedule::CompactionSchedule;
use crate::sketch::ReqSketch;
use crate::view::ReadCacheStats;

/// Snapshot of one level's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index (weight of retained items is `2^level`).
    pub level: usize,
    /// Items currently buffered.
    pub len: usize,
    /// Buffer capacity `B`.
    pub capacity: usize,
    /// Section size `k`.
    pub section_size: u32,
    /// Number of sections in the compactable half.
    pub num_sections: u32,
    /// Raw schedule state `C`.
    pub state: u64,
    /// Scheduled compactions performed by this buffer (summed over merges).
    pub num_compactions: u64,
    /// Special compactions performed (growth/merge reconciliation).
    pub num_special_compactions: u64,
    /// Length of the sorted-run prefix of the buffer (`len - run_len` items
    /// sit in the unsorted tail).
    pub run_len: usize,
    /// Items ever absorbed by this buffer (additive under merges) — what the
    /// adaptive schedule derives the section count from.
    pub absorbed: u64,
    /// Times the adaptive schedule grew this buffer's section count
    /// (process-lifetime; always 0 under the standard schedule).
    pub num_adaptations: u64,
    /// Items that went through a comparison sort in this buffer
    /// (process-lifetime; the raw tails sorted before a merge or a
    /// compaction).
    pub items_sorted: u64,
    /// Items placed by sorted-run merges instead of sorting
    /// (process-lifetime) — the work the merge maintenance does *instead of*
    /// the `O(L log L)` re-sorts it avoids.
    pub items_merge_moved: u64,
}

/// Whole-sketch structural statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchStats {
    /// The sketch's [`CompactionSchedule`].
    pub schedule: CompactionSchedule,
    /// Stream length `n`.
    pub n: u64,
    /// Current stream-length estimate `N`.
    pub max_n: u64,
    /// Total retained items (the paper's space measure).
    pub retained: usize,
    /// Estimated heap bytes.
    pub size_bytes: usize,
    /// Total weight `Σ 2^h·|buf_h|`.
    pub total_weight: u64,
    /// Signed difference `total_weight − n`: always 0, the check of the
    /// invariant [`ReqSketch::total_weight`] states.
    pub weight_drift: i64,
    /// The read cache's counters ([`ReqSketch::read_cache_stats`]).
    pub read_cache: ReadCacheStats,
    /// Total items comparison-sorted across all levels (process-lifetime).
    pub items_sorted: u64,
    /// Total items placed by sorted-run merges across all levels
    /// (process-lifetime) — see [`LevelStats::items_merge_moved`].
    pub items_merge_moved: u64,
    /// Bytes held by the flat level arena (item storage + scratch + slot
    /// table) — the allocation every level buffer lives in.
    pub arena_bytes: usize,
    /// Items memmoved by arena slot rebalancing (a level's capacity grew and
    /// the levels packed after it shifted right; process-lifetime). A layout
    /// regression — slots doubling too eagerly, growth ping-pong — shows up
    /// here long before it shows up in wall-clock.
    pub items_moved_rebalance: u64,
    /// Per-level details, level 0 first.
    pub levels: Vec<LevelStats>,
}

impl SketchStats {
    pub(crate) fn collect<T: Ord + Clone>(sketch: &ReqSketch<T>) -> Self {
        let levels: Vec<LevelStats> = sketch
            .levels
            .iter()
            .enumerate()
            .map(|(h, l)| LevelStats {
                level: h,
                len: l.len(sketch.arena()),
                capacity: l.capacity(),
                section_size: l.section_size(),
                num_sections: l.num_sections(),
                state: l.state().raw(),
                num_compactions: l.num_compactions(),
                num_special_compactions: l.num_special_compactions(),
                run_len: l.run_len(sketch.arena()),
                absorbed: l.absorbed(),
                num_adaptations: l.num_adaptations(),
                items_sorted: l.items_sorted(),
                items_merge_moved: l.items_merge_moved(),
            })
            .collect();
        let items_sorted = levels.iter().map(|l| l.items_sorted).sum();
        let items_merge_moved = levels.iter().map(|l| l.items_merge_moved).sum();
        SketchStats {
            schedule: sketch.compaction_schedule(),
            n: sketch.n,
            max_n: sketch.max_n(),
            retained: sketch.retained(),
            size_bytes: sketch.size_bytes(),
            total_weight: sketch.total_weight(),
            weight_drift: sketch.weight_drift(),
            read_cache: sketch.read_cache_stats(),
            items_sorted,
            items_merge_moved,
            arena_bytes: sketch.arena().arena_bytes(),
            items_moved_rebalance: sketch.arena().items_moved_rebalance(),
            levels,
        }
    }

    /// Total scheduled compactions across all levels.
    pub fn total_compactions(&self) -> u64 {
        self.levels.iter().map(|l| l.num_compactions).sum()
    }

    /// Total special compactions across all levels.
    pub fn total_special_compactions(&self) -> u64 {
        self.levels.iter().map(|l| l.num_special_compactions).sum()
    }

    /// Total adaptive-schedule geometry adaptations across all levels
    /// (always 0 under [`CompactionSchedule::Standard`]).
    pub fn total_adaptations(&self) -> u64 {
        self.levels.iter().map(|l| l.num_adaptations).sum()
    }
}

impl fmt::Display for SketchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ReqSketch: n={} N={} retained={} bytes={} weight_drift={} \
             read_cache={}d/{}c/{}b sorted={} merge_moved={} arena_bytes={} \
             rebalance_moved={} schedule={:?} adaptations={}",
            self.n,
            self.max_n,
            self.retained,
            self.size_bytes,
            self.weight_drift,
            self.read_cache.direct,
            self.read_cache.cached,
            self.read_cache.builds,
            self.items_sorted,
            self.items_merge_moved,
            self.arena_bytes,
            self.items_moved_rebalance,
            self.schedule,
            self.total_adaptations()
        )?;
        writeln!(
            f,
            "{:>5} {:>8} {:>8} {:>6} {:>9} {:>12} {:>10} {:>8} {:>8} {:>10} {:>12} {:>10} {:>7}",
            "level",
            "len",
            "cap",
            "k",
            "sections",
            "state",
            "compacts",
            "special",
            "run",
            "sorted",
            "merge_moved",
            "absorbed",
            "adapts"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "{:>5} {:>8} {:>8} {:>6} {:>9} {:>12} {:>10} {:>8} {:>8} {:>10} {:>12} {:>10} {:>7}",
                l.level,
                l.len,
                l.capacity,
                l.section_size,
                l.num_sections,
                l.state,
                l.num_compactions,
                l.num_special_compactions,
                l.run_len,
                l.items_sorted,
                l.items_merge_moved,
                l.absorbed,
                l.num_adaptations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::RankAccuracy;
    use crate::params::ParamPolicy;
    use sketch_traits::QuantileSketch;

    fn sketch_with_data(n: u64) -> ReqSketch<u64> {
        let mut s =
            ReqSketch::with_policy(ParamPolicy::fixed_k(8).unwrap(), RankAccuracy::LowRank, 1);
        for i in 0..n {
            s.update(i);
        }
        s
    }

    #[test]
    fn stats_match_sketch_accessors() {
        let s = sketch_with_data(100_000);
        let stats = s.stats();
        assert_eq!(stats.n, 100_000);
        assert_eq!(stats.retained, sketch_traits::SpaceUsage::retained(&s));
        assert_eq!(stats.total_weight, s.total_weight());
        assert_eq!(stats.weight_drift, 0);
        assert_eq!(stats.levels.len(), s.num_levels());
        assert!(stats.total_compactions() > 0);
    }

    #[test]
    fn level_invariants_hold() {
        let s = sketch_with_data(500_000);
        let stats = s.stats();
        for l in &stats.levels {
            assert!(l.len <= l.capacity, "level {} over capacity", l.level);
            assert_eq!(
                l.capacity,
                2 * l.section_size as usize * l.num_sections as usize
            );
        }
        // level 0 has performed the most compactions
        assert!(stats.levels[0].num_compactions >= stats.levels.last().unwrap().num_compactions);
    }

    #[test]
    fn display_renders_one_row_per_level() {
        let s = sketch_with_data(50_000);
        let text = s.stats().to_string();
        assert!(text.contains("ReqSketch: n=50000"));
        let rows = text.lines().count();
        assert_eq!(rows, 2 + s.num_levels());
    }

    #[test]
    fn view_cache_counters_surface_in_stats() {
        let s = sketch_with_data(50_000);
        assert_eq!(s.stats().read_cache, ReadCacheStats::default());
        let _ = s.rank(&100); // direct
        let _ = s.ranks(&[200; 1_000]); // one direct point, then the view pays
        let _ = s.quantile(0.9); // cached
        let stats = s.stats();
        assert_eq!(
            stats.read_cache,
            ReadCacheStats {
                direct: 2,
                cached: 1_000,
                builds: 1
            }
        );
        assert!(stats.to_string().contains("read_cache=2d/1000c/1b"));
    }

    #[test]
    fn sort_and_merge_counters_expose_avoided_work() {
        let s = sketch_with_data(200_000);
        let stats = s.stats();
        assert!(stats.items_sorted > 0, "level-0 tails are sorted");
        assert!(stats.items_merge_moved > 0, "runs are merge-maintained");
        // The tentpole's observable: with sorted-run maintenance only
        // level 0 (which receives raw, unordered items) ever sorts anything;
        // every upper level merges the already-sorted compaction output.
        let upper_sorted: u64 = stats.levels[1..].iter().map(|l| l.items_sorted).sum();
        assert_eq!(upper_sorted, 0, "upper levels must merge, never sort");
        // And the per-level run bookkeeping is surfaced.
        assert!(stats.levels.iter().any(|l| l.run_len > 0));
        assert!(s
            .stats()
            .to_string()
            .contains(&format!("merge_moved={}", stats.items_merge_moved)));
    }

    #[test]
    fn arena_counters_surface_in_stats() {
        let s = sketch_with_data(200_000);
        let stats = s.stats();
        // Every retained item lives in the arena, so the arena accounts for
        // at least the retained bytes.
        assert!(stats.arena_bytes >= stats.retained * std::mem::size_of::<u64>());
        assert!(stats.size_bytes >= stats.arena_bytes);
        // Growing a multi-level sketch forces at least one slot rebalance
        // (upper levels appear after level 0 and capacities grow with N).
        assert!(
            stats.items_moved_rebalance > 0,
            "multi-level growth must have shifted packed slots"
        );
        let text = stats.to_string();
        assert!(text.contains(&format!("arena_bytes={}", stats.arena_bytes)));
        assert!(text.contains(&format!("rebalance_moved={}", stats.items_moved_rebalance)));
    }

    #[test]
    fn adaptive_counters_surface_in_stats() {
        let mut s = ReqSketch::<u64>::builder()
            .k(8)
            .schedule(CompactionSchedule::Adaptive)
            .high_rank_accuracy(false)
            .seed(2)
            .build()
            .unwrap();
        for i in 0..100_000u64 {
            s.update(i);
        }
        let stats = s.stats();
        assert_eq!(stats.schedule, CompactionSchedule::Adaptive);
        // Level 0 absorbed the whole stream; its geometry adapted.
        assert_eq!(stats.levels[0].absorbed, 100_000);
        assert!(stats.levels[0].num_adaptations > 0);
        assert!(stats.total_adaptations() > 0);
        // Seamless growth: the adaptive schedule never special-compacts.
        assert_eq!(stats.total_special_compactions(), 0);
        // Upper levels absorbed geometrically less and keep fewer sections.
        let l0 = &stats.levels[0];
        let top = stats.levels.last().unwrap();
        assert!(top.absorbed < l0.absorbed / 2);
        assert!(top.num_sections <= l0.num_sections);
        assert!(stats.to_string().contains("schedule=Adaptive"));

        // The standard schedule reports zero adaptations.
        let std_stats = sketch_with_data(100_000).stats();
        assert_eq!(std_stats.schedule, CompactionSchedule::Standard);
        assert_eq!(std_stats.total_adaptations(), 0);
    }

    #[test]
    fn special_compactions_counted_on_growth() {
        // FixedK k=8: N0 = 64; growing past it forces special compactions
        // once at least two levels exist.
        let s = sketch_with_data(100_000);
        let stats = s.stats();
        assert!(stats.total_special_compactions() > 0);
    }
}
