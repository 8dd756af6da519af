//! The merge operation (paper Appendix D, Algorithm 3).
//!
//! Merging sketch `S''` into `S'` proceeds in four phases:
//!
//! 1. **Orientation**: `S'` must be the sketch with at least as many levels;
//!    we swap contents if needed (Algorithm 3's input condition).
//! 2. **Parameter reconciliation** (lines 3–11): if the combined `n` exceeds
//!    `S'.N`, special-compact `S'`'s non-top levels, square `N` until it
//!    covers `n`, and recompute `k`/`B`; if `S''.N < S.N`, special-compact
//!    `S''` too.
//! 3. **Absorption** (lines 12–21): per level, combine schedule states with
//!    bitwise OR (the key to Fact 21 / mergeability) and concatenate buffers.
//! 4. **Compaction pass** (lines 22–24): bottom-up, at most one scheduled
//!    compaction per level; a level holds `< 7/2·B` items when compacted
//!    (§D.1), and one compaction always brings it below `B`.
//!
//! Theorem 36: a sketch assembled from `n` items by an *arbitrary* sequence
//! of such merges answers any fixed rank query with relative error `ε` with
//! probability `1 − δ`, in `O(ε⁻¹·log^1.5(εn)·√log(1/δ))` space.
//!
//! # Seamless merging under the adaptive schedule
//!
//! Phase 2 is where the standard schedule makes merged sketches
//! *over-compact* relative to a single streamed sketch: every merge that
//! raises the length estimate special-compacts both inputs down to `B/2`
//! per level, so deep or lopsided merge trees pay the halving many times.
//! Under [`CompactionSchedule::Adaptive`](crate::schedule::CompactionSchedule)
//! phase 2 performs **no special compactions**: each level's geometry is a
//! function of its absorbed weight, absorbed weights add in phase 3
//! (`W = W' + W''`), and each level re-plans its section count from the
//! combined weight before the phase-4 pass — which therefore widens buffers
//! instead of compacting wherever the combined weight has earned the room.
//! The merged sketch lands on the same per-level geometry as one that
//! streamed the concatenated input, whatever the merge-tree shape
//! (experiment E15 measures exactly this A/B).

use rand::Rng;

use crate::error::ReqError;
use crate::schedule::CompactionSchedule;
use crate::sketch::ReqSketch;

/// Implementation of [`ReqSketch::try_merge`].
pub(crate) fn merge_into<T: Ord + Clone>(
    target: &mut ReqSketch<T>,
    mut other: ReqSketch<T>,
) -> Result<(), ReqError> {
    check_compatible(target, &other)?;
    if other.n == 0 {
        return Ok(());
    }
    // Every path below mutates `target`: invalidate its cached query view.
    target.mark_dirty();
    if target.n == 0 {
        adopt(target, other);
        return Ok(());
    }

    // Phase 1: make `target` the taller sketch (S' in Algorithm 3).
    if other.levels.len() > target.levels.len() {
        swap_contents(target, &mut other);
    }

    // Phase 2: parameter reconciliation. Adaptive sketches skip the special
    // compactions entirely (grow_to_cover widens in place and the absorbing
    // levels re-plan below); the standard schedule reconciles per §D.1.
    let combined_n = target
        .n
        .checked_add(other.n)
        .expect("combined stream length overflows u64");
    if target.max_n < combined_n {
        target.grow_to_cover(combined_n);
    }
    if target.schedule == CompactionSchedule::Standard && other.max_n < target.max_n {
        other.special_compact_levels();
    }
    debug_assert!(
        other.max_n <= target.max_n,
        "length-estimate ladder violated: {} > {}",
        other.max_n,
        target.max_n
    );

    // Phase 3: absorb levels (state OR + level-wise run merging: each pair
    // of sorted runs merges into one, so the invariant — and the avoided
    // re-sorting — survives the merge). Under the adaptive schedule every
    // absorbing level immediately re-plans its section count from the
    // combined absorbed weight, so the phase-4 pass sees the post-merge
    // geometry and only compacts levels the combined weight has not earned.
    let accuracy = target.accuracy;
    let adaptive = target.schedule == CompactionSchedule::Adaptive;
    let floor = target.num_sections;
    let other_levels = std::mem::take(&mut other.levels);
    let mut other_arena = std::mem::take(&mut other.arena);
    for (h, src) in other_levels.into_iter().enumerate() {
        target.ensure_level(h);
        let (src_items, src_run) = other_arena.take_level(src.slot());
        target.levels[h].absorb(&mut target.arena, &src, src_items, src_run, accuracy);
        if adaptive {
            target.levels[h].maybe_adapt(&mut target.arena, floor);
        }
    }
    target.n = combined_n;
    target.merge_min_max(other.min_item.take(), other.max_item.take());

    // Phase 4: bottom-up compaction pass; visits levels in order and appends
    // a fresh level when the top one compacts.
    target.merge_compaction_pass();

    // Observation 20: the schedule state never exceeds N/k.
    #[cfg(debug_assertions)]
    for level in &target.levels {
        debug_assert!(
            level.state().raw() <= target.max_n / target.k as u64,
            "Observation 20 violated: state {} > N/k = {}",
            level.state().raw(),
            target.max_n / target.k as u64
        );
    }
    Ok(())
}

pub(crate) fn check_compatible<T: Ord + Clone>(
    a: &ReqSketch<T>,
    b: &ReqSketch<T>,
) -> Result<(), ReqError> {
    if a.policy != b.policy {
        return Err(ReqError::IncompatibleMerge(format!(
            "parameter policies differ: {:?} vs {:?}",
            a.policy, b.policy
        )));
    }
    if a.accuracy != b.accuracy {
        return Err(ReqError::IncompatibleMerge(format!(
            "rank-accuracy orientations differ: {:?} vs {:?}",
            a.accuracy, b.accuracy
        )));
    }
    if a.schedule != b.schedule {
        return Err(ReqError::IncompatibleMerge(format!(
            "compaction schedules differ: {:?} vs {:?}",
            a.schedule, b.schedule
        )));
    }
    Ok(())
}

/// Replace an empty target's content with `other`'s (keeping the target's
/// RNG).
fn adopt<T: Ord + Clone>(target: &mut ReqSketch<T>, other: ReqSketch<T>) {
    target.arena = other.arena;
    target.levels = other.levels;
    target.n = other.n;
    target.max_n = other.max_n;
    target.k = other.k;
    target.num_sections = other.num_sections;
    target.min_item = other.min_item;
    target.max_item = other.max_item;
}

/// Swap sketch *contents* (levels, counters, extrema) while each sketch keeps
/// its own RNG stream and identity.
fn swap_contents<T>(a: &mut ReqSketch<T>, b: &mut ReqSketch<T>) {
    std::mem::swap(&mut a.arena, &mut b.arena);
    std::mem::swap(&mut a.levels, &mut b.levels);
    std::mem::swap(&mut a.n, &mut b.n);
    std::mem::swap(&mut a.max_n, &mut b.max_n);
    std::mem::swap(&mut a.k, &mut b.k);
    std::mem::swap(&mut a.num_sections, &mut b.num_sections);
    std::mem::swap(&mut a.min_item, &mut b.min_item);
    std::mem::swap(&mut a.max_item, &mut b.max_item);
}

/// Merge many sketches pairwise along a balanced binary tree, mimicking a
/// distributed aggregation topology. Returns `None` for an empty input.
pub fn merge_balanced<T: Ord + Clone>(
    sketches: Vec<ReqSketch<T>>,
) -> Result<Option<ReqSketch<T>>, ReqError> {
    let mut layer = sketches;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut iter = layer.into_iter();
        while let Some(mut a) = iter.next() {
            if let Some(b) = iter.next() {
                a.try_merge(b)?;
            }
            next.push(a);
        }
        layer = next;
    }
    Ok(layer.pop())
}

/// Merge many sketches left-to-right (a worst-case lopsided merge tree).
pub fn merge_linear<T: Ord + Clone>(
    sketches: Vec<ReqSketch<T>>,
) -> Result<Option<ReqSketch<T>>, ReqError> {
    let mut iter = sketches.into_iter();
    let mut acc = match iter.next() {
        Some(s) => s,
        None => return Ok(None),
    };
    for s in iter {
        acc.try_merge(s)?;
    }
    Ok(Some(acc))
}

/// Decode wire-serialized sketches ([`ReqSketch::to_bytes`] payloads) and
/// fold them into one via [`ReqSketch::try_merge`] — the merge entry point
/// for sketches that crossed a process boundary. A cluster `MERGE` query
/// gathers each owning node's serialized shards and combines them here;
/// Theorem 3 makes the fold order immaterial to the guarantee, so a plain
/// left fold suffices. Incompatible parts (differing policy, orientation,
/// or schedule) fail with [`ReqError::IncompatibleMerge`]; corrupt bytes
/// with [`ReqError::CorruptBytes`]; an empty part list is rejected rather
/// than answered with a sketch of unknowable configuration.
pub fn merge_wire_parts<T, B>(parts: &[B]) -> Result<ReqSketch<T>, ReqError>
where
    T: Ord + Clone + crate::binary::Packable,
    B: AsRef<[u8]>,
{
    let mut sketches = crate::union::decode_parts(parts)?.into_iter();
    let mut target = sketches.next().expect("decode_parts rejects an empty list");
    for part in sketches {
        target.try_merge(part)?;
    }
    Ok(target)
}

/// Merge in a uniformly random pairing order (random merge tree), driven by
/// the supplied RNG — used by the mergeability experiments (E5).
pub fn merge_random_tree<T: Ord + Clone, R: Rng>(
    mut sketches: Vec<ReqSketch<T>>,
    rng: &mut R,
) -> Result<Option<ReqSketch<T>>, ReqError> {
    while sketches.len() > 1 {
        let i = rng.gen_range(0..sketches.len());
        let a = sketches.swap_remove(i);
        let j = rng.gen_range(0..sketches.len());
        let mut b = sketches.swap_remove(j);
        b.try_merge(a)?;
        sketches.push(b);
    }
    Ok(sketches.pop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::RankAccuracy;
    use crate::params::ParamPolicy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sketch_traits::{MergeableSketch, QuantileSketch, SpaceUsage};

    fn sketch(seed: u64) -> ReqSketch<u64> {
        ReqSketch::with_policy(
            ParamPolicy::fixed_k(16).unwrap(),
            RankAccuracy::LowRank,
            seed,
        )
    }

    #[test]
    fn merge_empty_into_nonempty_is_noop() {
        let mut a = sketch(1);
        for i in 0..1000 {
            a.update(i);
        }
        let before = a.total_weight();
        a.try_merge(sketch(2)).unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(a.total_weight(), before);
    }

    #[test]
    fn merge_nonempty_into_empty_adopts() {
        let mut b = sketch(2);
        for i in 0..1000 {
            b.update(i);
        }
        let mut a = sketch(1);
        a.try_merge(b).unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(a.rank(&499), 500);
    }

    #[test]
    fn wire_parts_merge_like_local_sketches() {
        let mut a = sketch(1);
        let mut b = sketch(2);
        let mut c = sketch(3);
        for i in 0..30_000u64 {
            a.update(3 * i);
            b.update(3 * i + 1);
            c.update(3 * i + 2);
        }
        let parts = [a.to_bytes(), b.to_bytes(), c.to_bytes()];
        let merged = merge_wire_parts::<u64, _>(&parts).unwrap();
        assert_eq!(merged.len(), 90_000);
        // Deserialize-then-merge must agree with local merge on the data
        // (RNG reseeds differ, so compare answers, not bytes).
        let mut local = ReqSketch::<u64>::from_bytes(&parts[0]).unwrap();
        local
            .try_merge(ReqSketch::from_bytes(&parts[1]).unwrap())
            .unwrap();
        local
            .try_merge(ReqSketch::from_bytes(&parts[2]).unwrap())
            .unwrap();
        assert_eq!(merged.len(), local.len());
        let r = merged.rank(&45_000);
        assert!((r as f64 - 45_001.0).abs() / 45_001.0 < 0.1, "rank {r}");
    }

    #[test]
    fn wire_parts_reject_empty_corrupt_and_incompatible() {
        let empty: [&[u8]; 0] = [];
        assert!(matches!(
            merge_wire_parts::<u64, _>(&empty),
            Err(ReqError::InvalidParameter(_))
        ));
        let mut a = sketch(1);
        a.update(7);
        let good = a.to_bytes();
        assert!(matches!(
            merge_wire_parts::<u64, _>(&[&good[..], &good[..good.len() / 2]]),
            Err(ReqError::CorruptBytes(_))
        ));
        let mut hra = ReqSketch::<u64>::with_policy(
            ParamPolicy::fixed_k(16).unwrap(),
            RankAccuracy::HighRank,
            9,
        );
        hra.update(7);
        assert!(matches!(
            merge_wire_parts::<u64, _>(&[a.to_bytes(), hra.to_bytes()]),
            Err(ReqError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn merge_counts_add_up() {
        let mut a = sketch(1);
        let mut b = sketch(2);
        for i in 0..40_000u64 {
            a.update(2 * i);
            b.update(2 * i + 1);
        }
        a.try_merge(b).unwrap();
        assert_eq!(a.len(), 80_000);
        // Parity-adjusted compactions conserve weight exactly.
        assert_eq!(a.weight_drift(), 0);
        assert_eq!(a.total_weight(), 80_000);
    }

    #[test]
    fn merged_ranks_are_sane() {
        let mut a = sketch(1);
        let mut b = sketch(2);
        // a: 0..100_000, b: 100_000..200_000
        for i in 0..100_000u64 {
            a.update(i);
            b.update(100_000 + i);
        }
        a.try_merge(b).unwrap();
        let mid = a.rank(&100_000);
        let rel = (mid as f64 - 100_001.0).abs() / 100_001.0;
        assert!(rel < 0.1, "rank(100_000) = {mid}");
        // low ranks stay exact in LowRank mode
        assert_eq!(a.rank(&10), 11);
    }

    #[test]
    fn shorter_into_taller_and_vice_versa_agree_on_n() {
        let mut big = sketch(1);
        let mut small = sketch(2);
        for i in 0..100_000u64 {
            big.update(i);
        }
        for i in 0..100u64 {
            small.update(i);
        }
        let mut ab = big.clone();
        ab.try_merge(small.clone()).unwrap();
        let mut ba = small;
        ba.try_merge(big).unwrap();
        assert_eq!(ab.len(), 100_100);
        assert_eq!(ba.len(), 100_100);
        assert!(ab.num_levels() >= 2);
        assert!(ba.num_levels() >= 2);
    }

    #[test]
    fn incompatible_policies_rejected() {
        let mut a = sketch(1);
        let b = ReqSketch::with_policy(ParamPolicy::fixed_k(32).unwrap(), RankAccuracy::LowRank, 2);
        assert!(matches!(
            a.try_merge(b),
            Err(ReqError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn incompatible_orientations_rejected() {
        let mut a = sketch(1);
        let b =
            ReqSketch::with_policy(ParamPolicy::fixed_k(16).unwrap(), RankAccuracy::HighRank, 2);
        assert!(a.try_merge(b).is_err());
    }

    #[test]
    #[should_panic(expected = "incompatible sketches")]
    fn trait_merge_panics_on_incompatible() {
        let mut a = sketch(1);
        let b = ReqSketch::with_policy(ParamPolicy::fixed_k(32).unwrap(), RankAccuracy::LowRank, 2);
        a.merge(b);
    }

    #[test]
    fn balanced_linear_random_trees_agree() {
        let shards = 16usize;
        let per = 5_000u64;
        let make_shards = || -> Vec<ReqSketch<u64>> {
            (0..shards)
                .map(|s| {
                    let mut sk = sketch(100 + s as u64);
                    for i in 0..per {
                        sk.update((s as u64) * per + i);
                    }
                    sk
                })
                .collect()
        };
        let n = shards as u64 * per;
        let bal = merge_balanced(make_shards()).unwrap().unwrap();
        let lin = merge_linear(make_shards()).unwrap().unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let rnd = merge_random_tree(make_shards(), &mut rng).unwrap().unwrap();
        for s in [&bal, &lin, &rnd] {
            assert_eq!(s.len(), n);
            assert_eq!(s.weight_drift(), 0);
            let r = s.rank(&(n / 2));
            let rel = (r as f64 - (n / 2 + 1) as f64).abs() / (n / 2) as f64;
            assert!(rel < 0.15, "mid-rank rel err {rel}");
            // space stays sublinear under every topology
            assert!(s.retained() < (n as usize) / 4);
        }
    }

    #[test]
    fn merge_invalidates_cached_view() {
        let mut a = sketch(1);
        let mut b = sketch(2);
        for i in 0..10_000u64 {
            a.update(i);
            b.update(10_000 + i);
        }
        // Warm a's cache, then merge: queries must see the combined stream.
        let before = a.rank(&9_999);
        assert_eq!(before, 10_000);
        a.try_merge(b).unwrap();
        assert_eq!(a.rank(&u64::MAX), 20_000, "stale cached view after merge");
        // Merging into an empty sketch (adopt path) invalidates too.
        let mut c = sketch(3);
        assert_eq!(c.rank(&5), 0); // warms c's (empty) cache
        c.try_merge(a).unwrap();
        assert_eq!(c.rank(&u64::MAX), 20_000, "stale cache after adopt");
    }

    #[test]
    fn merge_empty_collections() {
        assert!(merge_balanced::<u64>(vec![]).unwrap().is_none());
        assert!(merge_linear::<u64>(vec![]).unwrap().is_none());
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(merge_random_tree::<u64, _>(vec![], &mut rng)
            .unwrap()
            .is_none());
    }

    #[test]
    fn merge_grows_length_estimate_on_ladder() {
        // Two sketches whose combined n exceeds both estimates.
        let mut a = sketch(1);
        let mut b = sketch(2);
        let n0 = a.max_n();
        for i in 0..n0 {
            a.update(i);
            b.update(i);
        }
        assert_eq!(a.max_n(), n0);
        a.try_merge(b).unwrap();
        assert!(a.max_n() >= 2 * n0);
        // ladder values are N0^(2^i)
        let mut ladder = n0;
        while ladder < a.max_n() {
            ladder = ladder.saturating_mul(ladder);
        }
        assert_eq!(a.max_n(), ladder);
    }

    #[test]
    fn self_merge_style_fold_many_tiny_sketches() {
        // Stress the reconciliation logic: 200 sketches of 50 items each.
        let mut acc = sketch(0);
        for s in 0..200u64 {
            let mut piece = sketch(1000 + s);
            for i in 0..50u64 {
                piece.update(s * 50 + i);
            }
            acc.try_merge(piece).unwrap();
        }
        assert_eq!(acc.len(), 10_000);
        let r = acc.rank(&4999);
        let rel = (r as f64 - 5000.0).abs() / 5000.0;
        assert!(rel < 0.15, "rel {rel}");
    }
}
