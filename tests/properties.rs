//! Property-based tests (proptest) on the invariants the paper's analysis
//! rests on. Unlike the statistical accuracy tests, every property here must
//! hold **deterministically** for every input, so proptest gets to hunt for
//! counterexamples in earnest.

// The core crate's test oracles; these tests use `Boxed`.
#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use proptest::collection::vec;
use proptest::prelude::*;

use baselines::{GkSketch, KllSketch};
use req_core::{QuantileSketch, ReqSketch, SortedView, SpaceUsage};
use support::{boxed, Boxed};

fn build_req(items: &[u64], k: u32, hra: bool, seed: u64) -> ReqSketch<u64> {
    let mut s = ReqSketch::<u64>::builder()
        .k(k)
        .high_rank_accuracy(hra)
        .seed(seed)
        .build()
        .unwrap();
    for &x in items {
        s.update(x);
    }
    s
}

/// Small even section sizes to stress compaction logic hard.
fn k_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(6), Just(8), Just(12), Just(16)]
}

/// Section sizes for the lane-equivalence tests: k ∈ {4, 12, 32}.
fn equivalence_k_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(12), Just(32)]
}

/// Reshape a raw stream into the adversarial orders the sorted-run path
/// special-cases: 0 = as generated (random), 1 = ascending, 2 = descending,
/// 3 = duplicate-heavy (17 distinct values).
fn shape_stream(mut items: Vec<u64>, order: u8) -> Vec<u64> {
    match order {
        1 => items.sort_unstable(),
        2 => {
            items.sort_unstable();
            items.reverse();
        }
        3 => {
            for x in &mut items {
                *x %= 17;
            }
        }
        _ => {}
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weight_is_always_conserved(
        items in vec(any::<u64>(), 0..4000),
        k in k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let s = build_req(&items, k, hra, seed);
        prop_assert_eq!(s.len(), items.len() as u64);
        prop_assert_eq!(s.total_weight(), items.len() as u64);
        prop_assert_eq!(s.weight_drift(), 0);
    }

    #[test]
    fn rank_is_monotone_and_bounded(
        items in vec(0u64..100_000, 1..3000),
        k in k_strategy(),
        seed in any::<u64>(),
        probes in vec(0u64..110_000, 1..40),
    ) {
        let s = build_req(&items, k, false, seed);
        let mut sorted_probes = probes;
        sorted_probes.sort_unstable();
        let mut prev = 0u64;
        for p in sorted_probes {
            let r = s.rank(&p);
            prop_assert!(r >= prev, "monotonicity violated at {}", p);
            prop_assert!(r <= items.len() as u64);
            prop_assert!(s.rank_exclusive(&p) <= r);
            prev = r;
        }
        prop_assert_eq!(s.rank(&u64::MAX), items.len() as u64);
    }

    #[test]
    fn min_max_always_exact(
        items in vec(any::<u64>(), 1..2000),
        k in k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let s = build_req(&items, k, hra, seed);
        prop_assert_eq!(s.min_item(), items.iter().min());
        prop_assert_eq!(s.max_item(), items.iter().max());
    }

    #[test]
    fn protected_end_is_exact(
        items in vec(0u64..1_000_000, 100..3000),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        // LRA: every item whose rank fits inside the protected half of the
        // level-0 buffer **at every point in the sketch's lifetime** has an
        // exact rank estimate. B grows on the N-ladder, so the binding
        // protection is the *initial* B/2.
        let s = build_req(&items, k, false, seed);
        let policy = req_core::ParamPolicy::fixed_k(k).unwrap();
        let protect0 = policy.params_for(policy.initial_max_n()).capacity() / 2;
        let mut sorted = items.clone();
        sorted.sort_unstable();
        let protect = protect0.min(sorted.len());
        for (i, y) in sorted[..protect].iter().enumerate() {
            // inclusive rank of sorted[i] is the count of items <= it
            let truth = sorted.partition_point(|x| x <= y) as u64;
            if truth <= protect as u64 {
                prop_assert_eq!(s.rank(y), truth, "rank({}) at index {}", y, i);
            }
        }
    }

    #[test]
    fn retained_never_exceeds_level_budget(
        items in vec(any::<u64>(), 0..6000),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        let s = build_req(&items, k, false, seed);
        let budget = s.level_capacity() * (s.num_levels() + 1);
        prop_assert!(s.retained() <= budget.max(1));
        prop_assert!(s.retained() <= items.len());
    }

    #[test]
    fn view_agrees_with_direct_queries(
        items in vec(0u64..50_000, 0..2500),
        k in k_strategy(),
        seed in any::<u64>(),
        probes in vec(0u64..60_000, 0..25),
    ) {
        let s = build_req(&items, k, false, seed);
        let view = s.sorted_view();
        prop_assert_eq!(view.total_weight(), s.total_weight());
        for p in probes {
            prop_assert_eq!(view.rank(&p), s.rank(&p));
            prop_assert_eq!(view.rank_exclusive(&p), s.rank_exclusive(&p));
        }
    }

    #[test]
    fn merge_conserves_everything(
        a in vec(any::<u64>(), 0..2500),
        b in vec(any::<u64>(), 0..2500),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        let mut sa = build_req(&a, k, false, seed);
        let sb = build_req(&b, k, false, seed.wrapping_add(1));
        sa.try_merge(sb).unwrap();
        prop_assert_eq!(sa.len(), (a.len() + b.len()) as u64);
        prop_assert_eq!(sa.total_weight(), (a.len() + b.len()) as u64);
        let all_min = a.iter().chain(b.iter()).min();
        let all_max = a.iter().chain(b.iter()).max();
        prop_assert_eq!(sa.min_item(), all_min);
        prop_assert_eq!(sa.max_item(), all_max);
        // rank stays within the trivial bounds
        if let Some(&m) = all_max {
            prop_assert_eq!(sa.rank(&m), (a.len() + b.len()) as u64);
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless(
        items in vec(any::<u64>(), 0..2000),
        k in k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
        probes in vec(any::<u64>(), 0..20),
    ) {
        let mut s = build_req(&items, k, hra, seed);
        let bytes = s.to_bytes();
        let loaded = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded.len(), s.len());
        prop_assert_eq!(loaded.retained(), s.retained());
        for p in probes {
            prop_assert_eq!(loaded.rank(&p), s.rank(&p));
        }
    }

    #[test]
    fn sorted_view_from_weighted_items_matches_naive(
        pairs in vec((0u64..1000, 1u64..16), 0..400),
        probes in vec(0u64..1100, 0..20),
    ) {
        let view = SortedView::from_weighted_items(pairs.clone());
        let naive_total: u64 = pairs.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(view.total_weight(), naive_total);
        for p in probes {
            let naive_rank: u64 = pairs
                .iter()
                .filter(|(item, _)| *item <= p)
                .map(|(_, w)| w)
                .sum();
            prop_assert_eq!(view.rank(&p), naive_rank);
        }
    }

    #[test]
    fn cached_view_answers_match_fresh_view_after_any_interleaving(
        batches in vec(vec(any::<u64>(), 0..400), 1..6),
        merge_items in vec(any::<u64>(), 0..400),
        ops in vec(0u8..4, 1..10),
        k in k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
        probes in vec(any::<u64>(), 1..16),
        qs in vec(0.001f64..0.999, 1..6),
    ) {
        // After ANY interleaving of `update_batch`, `merge`, binary
        // round-trips and `canonicalize`, every answer served off the cached
        // view is byte-identical to one computed from a freshly built
        // SortedView.
        let mut s = ReqSketch::<u64>::builder()
            .k(k)
            .high_rank_accuracy(hra)
            .seed(seed)
            .build()
            .unwrap();
        let mut sorted_probes = probes;
        sorted_probes.sort_unstable();
        let mut batch_idx = 0usize;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    s.update_batch(&batches[batch_idx % batches.len()]);
                    batch_idx += 1;
                }
                1 => {
                    let mut other = ReqSketch::<u64>::builder()
                        .k(k)
                        .high_rank_accuracy(hra)
                        .seed(seed.wrapping_add(step as u64 + 1))
                        .build()
                        .unwrap();
                    other.update_batch(&merge_items);
                    // Warm the other sketch's cache so merging consumes a
                    // sketch whose cache is live.
                    let _ = other.rank(&0);
                    s.try_merge(other).unwrap();
                }
                2 => {
                    let bytes = s.to_bytes();
                    s = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
                }
                _ => s.canonicalize(),
            }
            // Interleave queries so the cache is warm (and possibly stale if
            // invalidation were broken) at every step.
            let fresh = s.sorted_view();
            for p in &sorted_probes {
                prop_assert_eq!(s.rank(p), fresh.rank(p), "rank({}) diverged", p);
                prop_assert_eq!(
                    s.rank_exclusive(p),
                    fresh.rank_exclusive(p),
                    "rank_exclusive({}) diverged", p
                );
            }
            for &q in &qs {
                prop_assert_eq!(
                    s.quantile(q),
                    fresh.quantile(q).cloned(),
                    "quantile({}) diverged", q
                );
            }
            prop_assert_eq!(s.cdf(&sorted_probes), fresh.cdf(&sorted_probes));
        }
    }

    #[test]
    fn update_batch_equals_per_item_for_any_stream(
        items in vec(any::<u64>(), 0..4000),
        chunk in 1usize..700,
        k in k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let build = || ReqSketch::<u64>::builder()
            .k(k)
            .high_rank_accuracy(hra)
            .seed(seed)
            .build()
            .unwrap();
        let mut per_item = build();
        for &x in &items {
            per_item.update(x);
        }
        let mut batched = build();
        for piece in items.chunks(chunk) {
            batched.update_batch(piece);
        }
        prop_assert_eq!(batched.len(), per_item.len());
        prop_assert_eq!(batched.total_weight(), per_item.total_weight());
        prop_assert_eq!(batched.to_bytes(), per_item.to_bytes());
    }

    #[test]
    fn sorted_runs_match_sort_on_compact_reference(
        raw in vec(any::<u64>(), 0..3000),
        order in 0u8..4,
        k in equivalence_k_strategy(),
        hra in any::<bool>(),
        chunk in 1usize..600,
        seed in any::<u64>(),
    ) {
        // The same stream (random / sorted / reversed / duplicate-heavy),
        // ingested in chunks with the same seed by `ReqSketch<u64>` (sorted
        // runs, warm run, arena kernels) and by `ReqSketch<Boxed>` (drop
        // glue, so the safe `Vec` lane), must land in byte-identical sketch
        // state — same n, params, schedule states, per-level multisets AND
        // the same RNG position (compactions fired at the same points with
        // the same coins). The sort-on-compact reference itself is the core
        // crate's `RefCompactor`, which pins a single compactor; `Boxed` is
        // the reference lane at sketch level. `canonicalize` merges the
        // tails so the per-level item order is comparable.
        let items = shape_stream(raw, order);
        let builder = ReqSketch::<u64>::builder()
            .k(k)
            .high_rank_accuracy(hra)
            .seed(seed);
        let mut fast: ReqSketch<u64> = builder.clone().build().unwrap();
        let mut reference: ReqSketch<Boxed> = builder.build().unwrap();
        for piece in items.chunks(chunk) {
            fast.update_batch(piece);
            reference.update_batch(&boxed(piece));
        }
        fast.canonicalize();
        reference.canonicalize();
        prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
    }

    #[test]
    fn sorted_runs_match_reference_through_merge_and_serde(
        raw_a in vec(any::<u64>(), 0..1500),
        raw_b in vec(any::<u64>(), 0..1500),
        order in 0u8..4,
        k in equivalence_k_strategy(),
        hra in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Same equivalence across the merge path and binary round trips
        // taken mid-stream. Neither side is canonicalized before a round
        // trip, so the two lanes resume from different per-level layouts of
        // the same multisets; round trips reseed the RNG from the same draw
        // on both sides, so the executions stay in lockstep.
        let items_a = shape_stream(raw_a, order);
        let items_b = shape_stream(raw_b, order);
        let builder = |s: u64| {
            ReqSketch::<u64>::builder()
                .k(k)
                .high_rank_accuracy(hra)
                .seed(s)
        };
        let mut fast: ReqSketch<u64> = builder(seed).build().unwrap();
        let mut reference: ReqSketch<Boxed> = builder(seed).build().unwrap();
        fast.update_batch(&items_a);
        reference.update_batch(&boxed(&items_a));

        // Round trip mid-stream (re-establishes the run invariant from
        // bytes on both lanes).
        fast = ReqSketch::<u64>::from_bytes(&fast.to_bytes()).unwrap();
        reference = ReqSketch::<Boxed>::from_bytes(&reference.to_bytes()).unwrap();

        // Merge in a second pair built from the other stream.
        let mut other_fast: ReqSketch<u64> = builder(seed.wrapping_add(1)).build().unwrap();
        let mut other_ref: ReqSketch<Boxed> = builder(seed.wrapping_add(1)).build().unwrap();
        other_fast.update_batch(&items_b);
        other_ref.update_batch(&boxed(&items_b));
        fast.try_merge(other_fast).unwrap();
        reference.try_merge(other_ref).unwrap();

        // Round trip again after the merge.
        fast = ReqSketch::<u64>::from_bytes(&fast.to_bytes()).unwrap();
        reference = ReqSketch::<Boxed>::from_bytes(&reference.to_bytes()).unwrap();

        // Keep streaming a little so post-round-trip compactions run too.
        fast.update_batch(&items_a);
        reference.update_batch(&boxed(&items_a));

        fast.canonicalize();
        reference.canonicalize();
        prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
    }

    #[test]
    fn union_view_matches_flat_build(
        groups in vec(vec(0u64..500, 0..400), 0..5),
        hra in any::<bool>(),
        k in k_strategy(),
        probes in vec(0u64..600, 0..20),
    ) {
        // One loser tree over several sketches' levels must equal one flat
        // build over the concatenated weighted items.
        let sketches: Vec<ReqSketch<u64>> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| build_req(g, k, hra, i as u64))
            .collect();
        let sets: Vec<_> = sketches.iter().map(|s| s.level_set()).collect();
        let union = SortedView::from_levels(&sets);
        let flat = SortedView::from_weighted_items(
            sketches
                .iter()
                .flat_map(|s| s.retained_items().map(|(x, w)| (*x, w)))
                .collect(),
        );
        prop_assert_eq!(union.total_weight(), flat.total_weight());
        prop_assert_eq!(union.num_entries(), flat.num_entries());
        for p in probes {
            prop_assert_eq!(union.rank(&p), flat.rank(&p));
            prop_assert_eq!(union.rank_exclusive(&p), flat.rank_exclusive(&p));
        }
    }

    #[test]
    fn view_coalesces_duplicates_below_retained(
        raw in vec(0u64..32, 100..2000),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        // Duplicate-heavy streams: the view's entry count is bounded by the
        // number of distinct values, not the retained count, keeping probe
        // binary searches short.
        let s = build_req(&raw, k, false, seed);
        let view = s.sorted_view();
        prop_assert!(view.num_entries() <= 32);
        prop_assert_eq!(view.total_weight(), raw.len() as u64);
    }

    #[test]
    fn gk_invariant_holds_for_any_stream(
        items in vec(0u64..10_000, 1..2000),
    ) {
        // GK's additive bound is deterministic — no stream may violate it.
        let eps = 0.05;
        let mut s = GkSketch::<u64>::new(eps);
        for &x in &items {
            s.update(x);
        }
        let n = items.len() as u64;
        let mut sorted = items.clone();
        sorted.sort_unstable();
        for idx in (0..sorted.len()).step_by(1 + sorted.len() / 16) {
            let y = sorted[idx];
            let truth = sorted.partition_point(|x| *x <= y) as u64;
            let err = s.rank(&y).abs_diff(truth) as f64;
            prop_assert!(
                err <= eps * n as f64 + 1.0,
                "GK bound violated at {}: err {}", y, err
            );
        }
    }

    #[test]
    fn kll_conserves_weight_for_any_stream(
        items in vec(any::<u64>(), 0..3000),
        seed in any::<u64>(),
    ) {
        let mut s = KllSketch::<u64>::new(32, seed);
        for &x in &items {
            s.update(x);
        }
        prop_assert_eq!(s.total_weight(), items.len() as u64);
        prop_assert_eq!(s.len(), items.len() as u64);
    }

    #[test]
    fn quantile_is_some_iff_nonempty_and_within_extremes(
        items in vec(any::<u64>(), 0..1500),
        k in k_strategy(),
        q in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let s = build_req(&items, k, false, seed);
        match s.quantile(q) {
            None => prop_assert!(items.is_empty()),
            Some(v) => {
                prop_assert!(!items.is_empty());
                prop_assert!(v >= *items.iter().min().unwrap());
                prop_assert!(v <= *items.iter().max().unwrap());
            }
        }
    }
}
