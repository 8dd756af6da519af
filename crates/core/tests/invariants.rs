//! Property-based tests on the relative-compactor and schedule internals —
//! the structures the paper's Lemma 6 / Fact 5 charging argument lives on.

use proptest::collection::vec;
use proptest::prelude::*;

use req_core::compactor::{RankAccuracy, RelativeCompactor};
use req_core::schedule::CompactionState;
use req_core::LevelArena;

fn k_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(6), Just(8), Just(10)]
}

fn sections_strategy() -> impl Strategy<Value = u32> {
    1u32..6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A scheduled compaction never touches the protected half, always
    /// compacts an even count, and conserves weight exactly (2·emitted ==
    /// compacted).
    #[test]
    fn scheduled_compaction_invariants(
        k in k_strategy(),
        sections in sections_strategy(),
        extra in 0usize..64,
        coin in any::<bool>(),
        hra in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let acc = if hra { RankAccuracy::HighRank } else { RankAccuracy::LowRank };
        let mut ar = LevelArena::new();
        let mut c = RelativeCompactor::<u64>::new(&mut ar, k, sections);
        let b = c.capacity();
        // fill to capacity + extra (merge-style overfull buffers included)
        let mut x = seed | 1;
        let mut inserted: Vec<u64> = Vec::new();
        for _ in 0..(b + extra) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            c.push(&mut ar, x);
            inserted.push(x);
        }
        let before = c.len(&ar);
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, acc, coin, &mut out);

        prop_assert_eq!(o.compacted % 2, 0, "odd compaction size");
        prop_assert_eq!(o.emitted * 2, o.compacted, "weight not conserved");
        prop_assert_eq!(c.len(&ar) + o.compacted, before, "items lost/duplicated");
        prop_assert_eq!(out.len(), o.emitted);
        prop_assert!(o.sections >= 1 && o.sections <= sections);

        // the protected half survives: the B/2 internally-smallest inserted
        // items are all still in the buffer.
        inserted.sort_unstable();
        let survivors: Vec<&u64> = if hra {
            inserted.iter().rev().take(b / 2).collect()
        } else {
            inserted.iter().take(b / 2).collect()
        };
        for s in survivors {
            prop_assert!(c.items(&ar).contains(s), "protected item {} evicted", s);
        }
        // state advanced by exactly one
        prop_assert_eq!(c.state().raw(), 1);
    }

    /// Emitted items are exactly every other item of the sorted compacted
    /// range — Observation 4's structure.
    #[test]
    fn emission_is_alternating_subsequence(
        k in k_strategy(),
        sections in sections_strategy(),
        coin in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut ar = LevelArena::new();
        let mut c = RelativeCompactor::<u64>::new(&mut ar, k, sections);
        let b = c.capacity();
        let mut x = seed | 1;
        let mut inserted = Vec::new();
        for _ in 0..b {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            c.push(&mut ar, x);
            inserted.push(x);
        }
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, coin, &mut out);
        // compacted range = largest `compacted` items; emitted = every other
        // of them starting at `coin as usize`, ascending.
        inserted.sort_unstable();
        let range = &inserted[inserted.len() - o.compacted..];
        let expected: Vec<u64> = range
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(i, v)| (i % 2 == usize::from(coin)).then_some(v))
            .collect();
        prop_assert_eq!(out, expected);
    }

    /// Special compactions leave at most B/2 (+1 parity) items and also
    /// conserve weight.
    #[test]
    fn special_compaction_invariants(
        k in k_strategy(),
        sections in sections_strategy(),
        fill_fraction in 0.3f64..2.0,
        coin in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut ar = LevelArena::new();
        let mut c = RelativeCompactor::<u64>::new(&mut ar, k, sections);
        let b = c.capacity();
        let fill = ((b as f64 * fill_fraction) as usize).max(1);
        let mut x = seed | 1;
        for _ in 0..fill {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.push(&mut ar, x);
        }
        let before = c.len(&ar);
        let mut out = Vec::new();
        match c.compact_special(&mut ar, RankAccuracy::LowRank, coin, &mut out) {
            None => {
                prop_assert!(before <= b / 2 + 1, "no-op only near/below B/2");
                prop_assert_eq!(c.len(&ar), before);
            }
            Some(o) => {
                prop_assert_eq!(o.compacted % 2, 0);
                prop_assert_eq!(o.emitted * 2, o.compacted);
                prop_assert!(c.len(&ar) <= b / 2 + 1, "left {} > B/2+1", c.len(&ar));
                prop_assert_eq!(c.len(&ar) + o.compacted, before);
            }
        }
    }

    /// The schedule's section counts follow trailing-ones for any starting
    /// state, and OR-merging never loses a bit (Fact 18).
    #[test]
    fn schedule_state_properties(
        a in 0u64..(1 << 20),
        b in 0u64..(1 << 20),
        sections in 1u32..16,
    ) {
        let sa = CompactionState::from_raw(a);
        prop_assert_eq!(
            sa.sections_to_compact(sections),
            (a.trailing_ones() + 1).min(sections)
        );
        let mut merged = sa;
        merged.merge(CompactionState::from_raw(b));
        prop_assert_eq!(merged.raw(), a | b);
        // Fact 19: OR bounded by sum
        prop_assert!(merged.raw() <= a + b);
        // every set bit of either input survives
        prop_assert_eq!(merged.raw() & a, a);
        prop_assert_eq!(merged.raw() & b, b);
    }

    /// Absorb = state OR + multiset union (runs merged level-wise), for
    /// arbitrary pairs, in both orientations.
    #[test]
    fn absorb_properties(
        items_a in vec(any::<u64>(), 0..200),
        items_b in vec(any::<u64>(), 0..200),
        state_a in 0u64..1024,
        state_b in 0u64..1024,
        hra in any::<bool>(),
        presort in any::<bool>(),
    ) {
        let acc = if hra { RankAccuracy::HighRank } else { RankAccuracy::LowRank };
        let mut ar_a = LevelArena::new();
        let mut ar_b = LevelArena::new();
        let (slot_a, slot_b) = (ar_a.add_level(items_a.len()), ar_b.add_level(items_b.len()));
        ar_a.extend_from_slice(slot_a, &items_a);
        ar_b.extend_from_slice(slot_b, &items_b);
        let mut a = RelativeCompactor::<u64>::from_parts(
            &mut ar_a, slot_a, 8, 3, CompactionState::from_raw(state_a), 0, 0,
            items_a.len() as u64);
        let mut b = RelativeCompactor::<u64>::from_parts(
            &mut ar_b, slot_b, 8, 3, CompactionState::from_raw(state_b), 0, 0,
            items_b.len() as u64);
        if presort {
            // Exercise the run-merging path too, not just tail concatenation.
            a.ensure_sorted(&mut ar_a, acc);
            b.ensure_sorted(&mut ar_b, acc);
        }
        let (b_items, b_run) = ar_b.take_level(b.slot());
        a.absorb(&mut ar_a, &b, b_items, b_run, acc);
        prop_assert_eq!(a.len(&ar_a), items_a.len() + items_b.len());
        prop_assert_eq!(a.absorbed(), (items_a.len() + items_b.len()) as u64,
            "absorbed weights must add under merges");
        prop_assert_eq!(a.state().raw(), state_a | state_b);
        prop_assert!(a.run_is_sorted(&ar_a, acc), "absorb broke the run invariant");
        let mut expected = items_a;
        expected.extend(items_b);
        let mut got = a.items(&ar_a).to_vec();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
