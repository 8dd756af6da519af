//! Serialization round-trips across the crate boundary in the compact
//! binary format, including sketches with merge history and growth events,
//! and the decoder's behaviour on corrupted bytes.

use req_core::{
    CompactionSchedule, OrdF64, ParamPolicy, QuantileSketch, RankAccuracy, ReqSketch, SpaceUsage,
};
use streams::{geometric_ranks, SortOracle, Workload};

fn loaded_equals_original(mut original: ReqSketch<u64>, items: &[u64]) {
    let oracle = SortOracle::new(items);
    let bytes = original.to_bytes();
    let loaded = ReqSketch::<u64>::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(loaded.len(), original.len());
    assert_eq!(loaded.retained(), original.retained());
    assert_eq!(loaded.total_weight(), original.total_weight());
    assert_eq!(loaded.max_n(), original.max_n());
    for r in geometric_ranks(oracle.n(), 2.0) {
        let item = oracle.item_at_rank(r).unwrap();
        assert_eq!(loaded.rank(&item), original.rank(&item), "rank({item})");
    }
}

#[test]
fn binary_roundtrip_after_streaming() {
    let items = Workload::uniform(1 << 48).generate(1 << 16, 1);
    let mut s = ReqSketch::<u64>::builder().k(24).seed(1).build().unwrap();
    for &x in &items {
        s.update(x);
    }
    loaded_equals_original(s, &items);
}

#[test]
fn binary_roundtrip_after_merges_and_growth() {
    let items = Workload::uniform(1 << 48).generate(1 << 16, 2);
    let mut a = ReqSketch::<u64>::builder().k(16).seed(2).build().unwrap();
    let mut b = ReqSketch::<u64>::builder().k(16).seed(3).build().unwrap();
    for (i, &x) in items.iter().enumerate() {
        if i % 2 == 0 {
            a.update(x);
        } else {
            b.update(x);
        }
    }
    a.try_merge(b).unwrap();
    loaded_equals_original(a, &items);
}

#[test]
fn binary_roundtrip_continues_correctly() {
    // serialize mid-stream, deserialize, finish the stream, verify accuracy
    let n = 1u64 << 16;
    let items = Workload::uniform(1 << 40).generate(n as usize, 3);
    // low-rank orientation: the assertions below probe low-rank relative
    // error, which the default (high-rank) orientation does not promise.
    let mut s = ReqSketch::<u64>::builder()
        .k(32)
        .high_rank_accuracy(false)
        .seed(4)
        .build()
        .unwrap();
    let half = n as usize / 2;
    for &x in &items[..half] {
        s.update(x);
    }
    let bytes = s.to_bytes();
    let mut resumed = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
    for &x in &items[half..] {
        resumed.update(x);
    }
    assert_eq!(resumed.len(), n);
    let oracle = SortOracle::new(&items);
    for r in geometric_ranks(n, 4.0) {
        let item = oracle.item_at_rank(r).unwrap();
        let truth = oracle.rank(item);
        let rel = resumed.rank(&item).abs_diff(truth) as f64 / truth as f64;
        assert!(rel < 0.06, "rank {truth}: rel {rel}");
    }
}

#[test]
fn binary_f64_sketch_roundtrip() {
    let mut s = ReqSketch::<OrdF64>::builder()
        .k(16)
        .seed(5)
        .build_f64()
        .unwrap();
    for i in 0..20_000 {
        s.update_f64((i as f64).sin() * 1000.0);
    }
    let bytes = s.to_bytes();
    let loaded = ReqSketch::<OrdF64>::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.len(), 20_000);
    assert_eq!(loaded.rank_f64(0.0), s.rank_f64(0.0));
    assert_eq!(loaded.quantile_f64(0.99), s.quantile_f64(0.99));
}

#[test]
fn corrupt_bytes_never_panic() {
    // Every byte of a fixed-k, an adaptive and an ε/δ sketch, each flipped
    // three ways: every input decodes to Ok or Err, never a panic or an
    // abort. A flipped header `k` or section count must be refused before
    // it sizes a level buffer. The ε/δ sketch (k = 128) gets fewer items
    // so that its bytes, like the others', stay near 8 KB.
    let items = Workload::uniform(1 << 20).generate(1 << 12, 7);
    let sketches = [
        (ReqSketch::<u64>::builder().k(12), &items[..]),
        (
            ReqSketch::<u64>::builder()
                .k(12)
                .schedule(CompactionSchedule::Adaptive),
            &items[..],
        ),
        (
            ReqSketch::<u64>::builder().epsilon_delta(0.1, 0.1),
            &items[..1 << 10],
        ),
    ];
    for (builder, items) in sketches {
        let mut s = builder.seed(8).build().unwrap();
        s.update_batch(items);
        let good = s.to_bytes().to_vec();
        for pos in 0..good.len() {
            for mask in [0xFF, 0x80, 0x01] {
                let mut bad = good.clone();
                bad[pos] ^= mask;
                let _ = ReqSketch::<u64>::from_bytes(&bad);
            }
        }
        for cut in (0..good.len()).step_by(17) {
            assert!(ReqSketch::<u64>::from_bytes(&good[..cut]).is_err());
        }
    }
}

#[test]
fn string_sketch_roundtrip() {
    let mut s = ReqSketch::<String>::builder()
        .k(12)
        .seed(9)
        .build()
        .unwrap();
    for i in 0..5_000u32 {
        s.update(format!("user-{:08}", i.wrapping_mul(2654435761) % 100_000));
    }
    let bytes = s.to_bytes();
    let loaded = ReqSketch::<String>::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.len(), 5_000);
    let probe = "user-00050000".to_string();
    assert_eq!(loaded.rank(&probe), s.rank(&probe));
    assert_eq!(loaded.quantile(0.5), s.quantile(0.5));
}

#[test]
fn every_policy_roundtrips_with_data() {
    let policies = [
        ParamPolicy::mergeable(0.1, 0.1).unwrap(),
        ParamPolicy::mergeable_scaled(0.1, 0.1, 0.5).unwrap(),
        ParamPolicy::streaming(0.1, 0.05, 1 << 16).unwrap(),
        ParamPolicy::small_delta(0.1, 1e-9, 1 << 16).unwrap(),
        ParamPolicy::deterministic(0.2, 1 << 16).unwrap(),
        ParamPolicy::fixed_k(48).unwrap(),
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        let mut s = ReqSketch::<u64>::with_policy(policy, RankAccuracy::HighRank, i as u64);
        for j in 0..10_000u64 {
            s.update(j * 31 % 10_007);
        }
        let loaded = ReqSketch::<u64>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(loaded.policy(), policy);
        assert_eq!(loaded.rank_accuracy(), RankAccuracy::HighRank);
        assert_eq!(loaded.rank(&5_000), s.rank(&5_000));
    }
}
