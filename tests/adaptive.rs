//! Property-based tests for the adaptive compaction schedule (PR 4):
//! state-soundness through ingest, arbitrary merge trees, and the binary
//! codec.
//!
//! Deterministic invariants only (no statistical assertions): absorbed
//! weights are exact and additive, per-level geometry is the planned
//! function of absorbed weight, the adaptive schedule never
//! special-compacts, and serialized state survives binary v3 round-trips
//! byte-identically (modulo the documented RNG reseed field).

use proptest::collection::vec;
use proptest::prelude::*;

use req_core::{schedule::adaptive_num_sections, CompactionSchedule, QuantileSketch, ReqSketch};

fn adaptive(k: u32, seed: u64) -> ReqSketch<u64> {
    ReqSketch::<u64>::builder()
        .k(k)
        .high_rank_accuracy(false)
        .schedule(CompactionSchedule::Adaptive)
        .seed(seed)
        .build()
        .unwrap()
}

fn k_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(8), Just(12), Just(32)]
}

/// Geometry invariants every adaptive sketch must satisfy at rest.
fn assert_state_sound(s: &ReqSketch<u64>, context: &str) {
    let stats = s.stats();
    assert_eq!(
        stats.schedule,
        CompactionSchedule::Adaptive,
        "{context}: schedule lost"
    );
    assert_eq!(
        stats.total_special_compactions(),
        0,
        "{context}: adaptive schedule special-compacted"
    );
    let floor = s.num_sections();
    for l in &stats.levels {
        let target = adaptive_num_sections(l.absorbed, l.section_size, floor);
        assert!(
            l.num_sections >= floor && l.num_sections <= target,
            "{context}: level {} has {} sections outside [{floor}, {target}] \
             (absorbed {})",
            l.level,
            l.num_sections,
            l.absorbed
        );
        assert!(
            l.len <= l.capacity,
            "{context}: level {} over capacity at rest",
            l.level
        );
    }
}

/// Zero the 8-byte reseed field of FixedK u64 sketch bytes (the one field
/// that legitimately differs between serializations — see `binary.rs` docs).
fn zero_reseed(bytes: &[u8]) -> Vec<u8> {
    // magic(4) version(1) flags(1) policy tag(1)+k(4) n(8) max_n(8) k(4)
    // num_sections(4) => reseed at 35..43.
    let mut out = bytes.to_vec();
    out[35..43].fill(0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming: exact counting, exact geometry, no special compactions.
    #[test]
    fn adaptive_stream_is_state_sound(
        items in vec(any::<u64>(), 1..4000),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        let mut s = adaptive(k, seed);
        s.update_batch(&items);
        prop_assert_eq!(s.len(), items.len() as u64);
        prop_assert_eq!(s.total_weight(), items.len() as u64);
        prop_assert_eq!(s.weight_drift(), 0);
        // Level 0 absorbed the whole stream, exactly.
        prop_assert_eq!(s.stats().levels[0].absorbed, items.len() as u64);
        assert_state_sound(&s, "streamed");
        prop_assert_eq!(s.rank(&u64::MAX), items.len() as u64);
    }

    /// Arbitrary merge trees: absorbed weight stays exact at level 0,
    /// weight is conserved, geometry stays planned, nothing special-compacts.
    #[test]
    fn adaptive_merge_trees_are_state_sound(
        items in vec(any::<u64>(), 2..4000),
        k in k_strategy(),
        seed in any::<u64>(),
        cuts in vec(1usize..4000, 0..6),
        tree_seed in any::<u64>(),
    ) {
        // Split the stream at the (deduped, in-range) cut points.
        let mut bounds: Vec<usize> = cuts.iter()
            .map(|c| c % items.len())
            .filter(|&c| c > 0)
            .collect();
        bounds.push(items.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut shards = Vec::new();
        let mut start = 0usize;
        for (i, &end) in bounds.iter().enumerate() {
            let mut s = adaptive(k, seed.wrapping_add(i as u64));
            s.update_batch(&items[start..end]);
            start = end;
            shards.push(s);
        }
        // Merge in a pseudo-random tree order.
        let mut order = tree_seed | 1;
        while shards.len() > 1 {
            order = order.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (order >> 33) as usize % shards.len();
            let a = shards.swap_remove(i);
            order = order.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (order >> 33) as usize % shards.len();
            shards[j].try_merge(a).unwrap();
        }
        let merged = shards.pop().unwrap();
        prop_assert_eq!(merged.len(), items.len() as u64);
        prop_assert_eq!(merged.total_weight(), items.len() as u64);
        prop_assert_eq!(merged.weight_drift(), 0);
        prop_assert_eq!(merged.stats().levels[0].absorbed, items.len() as u64);
        assert_state_sound(&merged, "merged");
    }

    /// Binary v3 round-trips byte-identically (modulo the reseed field),
    /// including through merge history.
    #[test]
    fn adaptive_codecs_roundtrip_byte_identically(
        items_a in vec(any::<u64>(), 1..2500),
        items_b in vec(any::<u64>(), 0..2500),
        k in k_strategy(),
        seed in any::<u64>(),
    ) {
        let mut s = adaptive(k, seed);
        s.update_batch(&items_a);
        if !items_b.is_empty() {
            let mut other = adaptive(k, seed ^ 0xABCD);
            other.update_batch(&items_b);
            s.try_merge(other).unwrap();
        }
        // Binary: serialize, load, re-serialize — identical bytes except
        // the freshly drawn reseed.
        let b1 = s.to_bytes();
        let mut t = ReqSketch::<u64>::from_bytes(&b1).unwrap();
        prop_assert_eq!(t.compaction_schedule(), CompactionSchedule::Adaptive);
        let b2 = t.to_bytes();
        prop_assert_eq!(zero_reseed(&b1), zero_reseed(&b2));
        assert_state_sound(&t, "binary roundtrip");
    }
}
