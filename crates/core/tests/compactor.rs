//! Compactor-level differential test: `RelativeCompactor<u64>` (sorted and
//! warm runs, arena kernels) against the plain sort-and-halve
//! [`RefCompactor`], driven through the same random operations with the same
//! coins. After every operation both must agree on what was emitted, the
//! outcome, the retained multiset, the schedule state, the absorbed weight,
//! the capacity and the rank counts.

mod support;

use proptest::collection::vec;
use proptest::prelude::*;

use req_core::compactor::RelativeCompactor;
use req_core::view::LevelSet;
use req_core::{LevelArena, RankAccuracy};
use support::RefCompactor;

/// Both compactors, fed identically.
struct Pair {
    acc: RankAccuracy,
    arena: LevelArena<u64>,
    fast: RelativeCompactor<u64>,
    reference: RefCompactor,
}

impl Pair {
    fn new(k: u32, sections: u32, acc: RankAccuracy) -> Self {
        let mut arena = LevelArena::new();
        let fast = RelativeCompactor::new(&mut arena, k, sections);
        Pair {
            acc,
            arena,
            fast,
            reference: RefCompactor::new(k, sections),
        }
    }

    fn len(&self) -> usize {
        self.fast.len(&self.arena)
    }

    /// One item goes through `push`, more through `push_slice`, so the op
    /// mix covers both entry points.
    fn push_slice(&mut self, xs: &[u64]) {
        if let [x] = xs {
            self.fast.push(&mut self.arena, *x);
        } else {
            self.fast.push_slice(&mut self.arena, xs);
        }
        self.reference.push_slice(xs);
    }

    /// A run sorted in the internal order, as a compaction below emits it.
    fn merge_run(&mut self, run: &[u64]) {
        self.fast
            .merge_sorted_run(&mut self.arena, &mut run.to_vec(), self.acc);
        self.reference.push_slice(run);
    }

    fn absorb(&mut self, mut twin: Pair) {
        let (items, run) = twin.arena.take_level(twin.fast.slot());
        self.fast
            .absorb(&mut self.arena, &twin.fast, items, run, self.acc);
        self.reference.absorb(twin.reference);
    }

    fn compact_scheduled(&mut self, coin: bool) {
        let (mut out_fast, mut out_ref) = (Vec::new(), Vec::new());
        let a = self
            .fast
            .compact_scheduled(&mut self.arena, self.acc, coin, &mut out_fast);
        let b = self
            .reference
            .compact_scheduled(self.acc, coin, &mut out_ref);
        assert_eq!(a, b, "scheduled outcome");
        assert_eq!(out_fast, out_ref, "scheduled emission");
    }

    fn compact_special(&mut self, coin: bool) {
        let (mut out_fast, mut out_ref) = (Vec::new(), Vec::new());
        let a = self
            .fast
            .compact_special(&mut self.arena, self.acc, coin, &mut out_fast);
        let b = self.reference.compact_special(self.acc, coin, &mut out_ref);
        assert_eq!(a, b, "special outcome");
        assert_eq!(out_fast, out_ref, "special emission");
    }

    fn maybe_adapt(&mut self, floor: u32) {
        let a = self.fast.maybe_adapt(&mut self.arena, floor);
        assert_eq!(a, self.reference.maybe_adapt(floor), "adaptation");
    }

    /// Every observable the two implementations share.
    fn check(&self, probes: &[u64]) {
        let (fast, reference) = (&self.fast, &self.reference);
        let mut retained = fast.items(&self.arena).to_vec();
        let mut expected = reference.items.clone();
        retained.sort_unstable();
        expected.sort_unstable();
        assert_eq!(retained, expected, "retained multiset");
        assert_eq!(fast.state(), reference.state, "schedule state");
        assert_eq!(fast.absorbed(), reference.absorbed, "absorbed weight");
        assert_eq!(fast.capacity(), reference.capacity(), "capacity");
        assert!(fast.run_is_sorted(&self.arena, self.acc), "declared run");
        let level = LevelSet {
            levels: std::slice::from_ref(fast),
            arena: &self.arena,
            accuracy: self.acc,
        };
        for &y in probes {
            assert_eq!(
                level.weight_where(|x| *x <= y, &mut 0),
                reference.count_le(y) as u64,
                "count_le({y})"
            );
            assert_eq!(
                level.weight_where(|x| *x < y, &mut 0),
                reference.count_lt(y) as u64,
                "count_lt({y})"
            );
        }
    }
}

/// SplitMix64: the values an operation draws from its seed.
fn draws(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) % modulus
        })
        .collect()
}

fn sort_internal(xs: &mut [u64], acc: RankAccuracy) {
    match acc {
        RankAccuracy::LowRank => xs.sort_unstable(),
        RankAccuracy::HighRank => xs.sort_unstable_by(|a, b| b.cmp(a)),
    }
}

/// Run one operation sequence on a fresh pair, checking after every step.
/// Each op is a selector and the seed its values come from.
fn run_ops(k: u32, sections: u32, acc: RankAccuracy, modulus: u64, ops: &[(u8, u64)]) {
    let mut pair = Pair::new(k, sections, acc);
    for &(op, seed) in ops {
        let coin = seed & 1 == 1;
        let n = 1 + (seed >> 8) as usize % pair.fast.capacity();
        match op {
            0 => pair.push_slice(&draws(seed, 1, modulus)),
            1 => pair.push_slice(&draws(seed, n, modulus)),
            2 => {
                // A run that extends the top: every item at or past the
                // current internal maximum.
                let mut run = draws(seed, n, 1024);
                run.sort_unstable();
                let items = pair.fast.items(&pair.arena);
                for x in &mut run {
                    *x = match acc {
                        RankAccuracy::LowRank => {
                            items.iter().max().unwrap_or(&0).saturating_add(*x)
                        }
                        RankAccuracy::HighRank => {
                            items.iter().min().unwrap_or(&u64::MAX).saturating_sub(*x)
                        }
                    };
                }
                pair.merge_run(&run);
            }
            3 => {
                // A run that interleaves with everything buffered.
                let mut run = draws(seed, n, modulus);
                sort_internal(&mut run, acc);
                pair.merge_run(&run);
            }
            4 | 5 => {
                // A same-level twin, with a sorted run (op 4: compacted or
                // ordered) or as raw appends only (op 5).
                let mut twin = Pair::new(k, sections, acc);
                twin.push_slice(&draws(seed ^ 0x5555, 2 * n, modulus));
                if op == 4 {
                    if twin.len() >= twin.fast.capacity() {
                        twin.compact_scheduled(coin);
                    } else {
                        twin.fast.ensure_sorted(&mut twin.arena, acc);
                    }
                }
                pair.absorb(twin);
            }
            6 => {
                if pair.len() >= pair.fast.capacity() {
                    pair.compact_scheduled(coin);
                }
            }
            7 => pair.compact_special(coin),
            8 => pair.maybe_adapt(sections),
            _ => pair.fast.ensure_sorted(&mut pair.arena, acc),
        }
        let mut probes = draws(seed ^ 0xAAAA, 4, modulus);
        probes.extend([0, u64::MAX]);
        probes.extend(pair.reference.items.iter().take(4));
        pair.check(&probes);
    }
}

fn accuracy_strategy() -> impl Strategy<Value = RankAccuracy> {
    prop_oneof![Just(RankAccuracy::HighRank), Just(RankAccuracy::LowRank)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random operation sequences: pushes, sorted runs that extend or
    /// interleave the top, absorbed twins with and without a run, scheduled
    /// and special compactions, adaptation and explicit ordering.
    #[test]
    fn relative_compactor_matches_sort_and_halve_reference(
        k in prop_oneof![Just(4u32), Just(6), Just(12)],
        sections in 1u32..4,
        acc in accuracy_strategy(),
        modulus in prop_oneof![Just(16u64), Just(1000), Just(u64::MAX)],
        ops in vec((0u8..10, any::<u64>()), 1..120),
    ) {
        run_ops(k, sections, acc, modulus, &ops);
    }
}

/// The fixed case: one buffer filled to capacity and compacted 60 times in
/// a row, with coins that are neither constant nor alternating.
#[test]
fn repeated_fills_emit_what_the_reference_emits() {
    for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
        let mut pair = Pair::new(6, 3, acc);
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..60u64 {
            while pair.len() < pair.fast.capacity() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                pair.push_slice(&[x % 512]);
            }
            pair.compact_scheduled(round % 3 == 0);
            pair.check(&[0, 100, 255, 256, 511]);
        }
        assert!(pair.fast.items_merge_moved() > 0, "runs were merged");
    }
}
