//! Sketch-level byte-identity properties: the arena fast path of
//! `ReqSketch<u64>` (warm-run maintenance, branchless kernels) must be
//! observationally indistinguishable — down to the serialized bytes after
//! canonicalization — from `ReqSketch<Boxed>`, whose drop glue sends it down
//! the compactor's safe `Vec` lane, across rank-accuracy modes, `k`, stream
//! shapes, both compaction schedules, and through merges and binary round
//! trips. The `OrdF64` tests pin its stored integer key to a reference that
//! compares with `f64::total_cmp` on every call.

mod support;

use std::cmp::Ordering;

use bytes::{Buf, BufMut, BytesMut};
use proptest::collection::vec;
use proptest::prelude::*;

use req_core::binary::Packable;
use req_core::{
    CompactionSchedule, ConcurrentReqSketch, OrdF64, QuantileSketch, RankAccuracy, ReqError,
    ReqSketch, ReqSketchBuilder,
};
use support::{boxed, Boxed};

fn k_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(12), Just(32)]
}

fn accuracy_strategy() -> impl Strategy<Value = RankAccuracy> {
    prop_oneof![Just(RankAccuracy::HighRank), Just(RankAccuracy::LowRank)]
}

fn schedule_strategy() -> impl Strategy<Value = CompactionSchedule> {
    prop_oneof![
        Just(CompactionSchedule::Standard),
        Just(CompactionSchedule::Adaptive)
    ]
}

/// Random / sorted / reversed / duplicate-heavy streams: the shapes that
/// stress different kernel paths (gallop skips, extend fast path, warm-run
/// merges, tie handling). The vendored proptest has no combinators, so the
/// shape is a selector applied to the raw draw inside the test body.
fn shape_stream(shape: usize, mut v: Vec<u64>) -> Vec<u64> {
    match shape {
        0 => v,
        1 => {
            v.sort_unstable();
            v
        }
        2 => {
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        _ => {
            for x in &mut v {
                *x %= 16;
            }
            v
        }
    }
}

/// One configuration for every sketch a case compares.
fn builder(k: u32, acc: RankAccuracy, sched: CompactionSchedule, seed: u64) -> ReqSketchBuilder {
    ReqSketch::<u64>::builder()
        .k(k)
        .rank_accuracy(acc)
        .schedule(sched)
        .seed(seed)
}

fn build_pair(
    k: u32,
    acc: RankAccuracy,
    sched: CompactionSchedule,
    seed: u64,
) -> (ReqSketch<u64>, ReqSketch<Boxed>) {
    let builder = builder(k, acc, sched, seed);
    (
        builder.clone().build().expect("valid params"),
        builder.build().expect("valid params"),
    )
}

/// Canonicalize both sketches and require identical serialized bytes.
/// `to_bytes` covers `n`, schedule state, per-level counters, run lengths
/// and every retained item, so byte equality is full state equality (the
/// RNG reseed draw matches because both sketches flipped coins at the same
/// points).
fn assert_same_bytes(a: &mut ReqSketch<u64>, b: &mut ReqSketch<Boxed>) {
    a.canonicalize();
    b.canonicalize();
    assert_eq!(a.to_bytes(), b.to_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Straight ingest, per item and then in chunks of any size:
    /// byte-identical, and rank queries agree on every distinct item even
    /// before canonicalization.
    #[test]
    fn arena_path_matches_oracle(
        k in k_strategy(),
        acc in accuracy_strategy(),
        sched in schedule_strategy(),
        seed in any::<u64>(),
        shape in 0usize..4,
        raw in vec(any::<u64>(), 0..2500),
        chunk in 1usize..600,
    ) {
        let items = shape_stream(shape, raw);
        let (mut fast, mut oracle) = build_pair(k, acc, sched, seed);
        let split = items.len() / 3;
        for &x in &items[..split] {
            fast.update(x);
            oracle.update(Boxed::new(x));
        }
        for piece in items[split..].chunks(chunk) {
            fast.update_batch(piece);
            oracle.update_batch(&boxed(piece));
        }
        for &x in items.iter().take(64) {
            prop_assert_eq!(fast.rank(&x), oracle.rank(&Boxed::new(x)));
        }
        assert_same_bytes(&mut fast, &mut oracle);
    }

    /// Merging sketches built on the fast path matches merging oracles.
    #[test]
    fn merge_matches_oracle(
        k in k_strategy(),
        acc in accuracy_strategy(),
        sched in schedule_strategy(),
        seed in any::<u64>(),
        shape in 0usize..4,
        raw in vec(any::<u64>(), 0..2500),
    ) {
        let items = shape_stream(shape, raw);
        let cut = items.len() / 2;
        let (mut fast_a, mut oracle_a) = build_pair(k, acc, sched, seed);
        let (mut fast_b, mut oracle_b) = build_pair(k, acc, sched, seed ^ 0x9e3779b97f4a7c15);
        fast_a.update_batch(&items[..cut]);
        oracle_a.update_batch(&boxed(&items[..cut]));
        fast_b.update_batch(&items[cut..]);
        oracle_b.update_batch(&boxed(&items[cut..]));
        fast_a.try_merge(fast_b).expect("same accuracy");
        oracle_a.try_merge(oracle_b).expect("same accuracy");
        prop_assert_eq!(fast_a.len(), oracle_a.len());
        assert_same_bytes(&mut fast_a, &mut oracle_a);
    }

    /// A serialize/deserialize round trip through the binary codec
    /// mid-stream, a merge, then more ingest. Neither side is canonicalized
    /// before the round trip, so the two lanes resume from different
    /// per-level layouts of the same multisets and must still converge to
    /// the same bytes.
    #[test]
    fn serde_roundtrip_matches_oracle(
        k in k_strategy(),
        acc in accuracy_strategy(),
        sched in schedule_strategy(),
        seed in any::<u64>(),
        shape in 0usize..4,
        raw in vec(any::<u64>(), 0..2500),
        more in vec(any::<u64>(), 0..800),
    ) {
        let items = shape_stream(shape, raw);
        let more = shape_stream(shape, more);
        let (mut fast, mut oracle) = build_pair(k, acc, sched, seed);
        fast.update_batch(&items);
        oracle.update_batch(&boxed(&items));

        let mut fast = ReqSketch::<u64>::from_bytes(&fast.to_bytes()).expect("round-trip");
        let mut oracle = ReqSketch::<Boxed>::from_bytes(&oracle.to_bytes()).expect("round-trip");

        let (mut fast_b, mut oracle_b) = build_pair(k, acc, sched, seed.wrapping_add(1));
        fast_b.update_batch(&more);
        oracle_b.update_batch(&boxed(&more));
        fast.try_merge(fast_b).expect("same accuracy");
        oracle.try_merge(oracle_b).expect("same accuracy");

        fast.update_batch(&items);
        oracle.update_batch(&boxed(&items));
        prop_assert_eq!(fast.len(), (2 * items.len() + more.len()) as u64);
        assert_same_bytes(&mut fast, &mut oracle);
    }
}

/// `OrdF64` as it was before it stored its key: the raw `f64`, ordered by
/// `f64::total_cmp` on every comparison and packed as its bits.
#[derive(Debug, Clone, Copy)]
struct RefF64(f64);

impl PartialEq for RefF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RefF64 {}

impl PartialOrd for RefF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RefF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Packable for RefF64 {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u64_le(self.0.to_bits());
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        if input.remaining() < 8 {
            return Err(ReqError::CorruptBytes("truncated f64".into()));
        }
        Ok(RefF64(f64::from_bits(input.get_u64_le())))
    }
}

/// Values at every edge of the total order: ±0, ±∞, NaNs of both signs
/// with nonzero payloads, subnormals, `MIN_POSITIVE` and `MAX`.
const SPECIAL_BITS: [u64; 12] = [
    0,
    1 << 63,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_dead_beef_0001,
    0xffff_ffff_ffff_ffff,
    1,
    0x800f_ffff_ffff_ffff,
    0x0010_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
];

/// Raw bit patterns (shaped by [`shape_stream`]) as `f64`s, with about a
/// quarter of them replaced by [`SPECIAL_BITS`] so ties and every edge of
/// the order recur.
fn f64_stream(shape: usize, raw: Vec<u64>) -> Vec<f64> {
    shape_stream(shape, raw)
        .into_iter()
        .map(|b| {
            if b % 4 == 0 {
                f64::from_bits(SPECIAL_BITS[(b >> 8) as usize % SPECIAL_BITS.len()])
            } else {
                f64::from_bits(b)
            }
        })
        .collect()
}

fn keyed(xs: &[f64]) -> Vec<OrdF64> {
    xs.iter().copied().map(OrdF64).collect()
}

fn reference(xs: &[f64]) -> Vec<RefF64> {
    xs.iter().copied().map(RefF64).collect()
}

fn build_f64_pair(
    k: u32,
    acc: RankAccuracy,
    sched: CompactionSchedule,
    seed: u64,
) -> (ReqSketch<OrdF64>, ReqSketch<RefF64>) {
    let builder = builder(k, acc, sched, seed);
    (
        builder.clone().build().expect("valid params"),
        builder.build().expect("valid params"),
    )
}

/// Same bytes (full state, including the RNG draw `to_bytes` makes on
/// both) and bit-equal answers at every rank probe and quantile.
fn assert_same_f64_sketch(a: &mut ReqSketch<OrdF64>, b: &mut ReqSketch<RefF64>, probes: &[f64]) {
    assert_eq!(a.to_bytes(), b.to_bytes());
    for &x in probes {
        assert_eq!(a.rank(&OrdF64(x)), b.rank(&RefF64(x)), "rank({x:?})");
    }
    for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0] {
        let (qa, qb) = (a.quantile(q), b.quantile(q));
        assert_eq!(
            qa.map(|v| v.get().to_bits()),
            qb.map(|v| v.0.to_bits()),
            "quantile({q})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ReqSketch<OrdF64>` (integer key) and `ReqSketch<RefF64>`
    /// (`total_cmp` per comparison) stay byte-identical with bit-equal
    /// answers through per-item ingest, batch ingest, a merge, and a
    /// `from_bytes` round trip followed by more ingest.
    #[test]
    fn ordf64_key_lane_matches_total_cmp_reference(
        k in k_strategy(),
        acc in accuracy_strategy(),
        sched in schedule_strategy(),
        seed in any::<u64>(),
        shape in 0usize..4,
        raw in vec(any::<u64>(), 0..2500),
        more in vec(any::<u64>(), 0..800),
    ) {
        let items = f64_stream(shape, raw);
        let more = f64_stream(0, more);
        let probes: Vec<f64> = items
            .iter()
            .take(48)
            .chain(&more)
            .take(64)
            .copied()
            .chain(SPECIAL_BITS.iter().map(|&b| f64::from_bits(b)))
            .collect();
        let (mut a, mut b) = build_f64_pair(k, acc, sched, seed);

        let split = items.len() / 3;
        for &x in &items[..split] {
            a.update(OrdF64(x));
            b.update(RefF64(x));
        }
        assert_same_f64_sketch(&mut a, &mut b, &probes);
        a.update_batch(&keyed(&items[split..]));
        b.update_batch(&reference(&items[split..]));
        assert_same_f64_sketch(&mut a, &mut b, &probes);

        let (mut a2, mut b2) = build_f64_pair(k, acc, sched, seed ^ 0x9e3779b97f4a7c15);
        a2.update_batch(&keyed(&more));
        b2.update_batch(&reference(&more));
        a.try_merge(a2).expect("same accuracy");
        b.try_merge(b2).expect("same accuracy");
        assert_same_f64_sketch(&mut a, &mut b, &probes);

        let mut a = ReqSketch::<OrdF64>::from_bytes(&a.to_bytes()).expect("round-trip");
        let mut b = ReqSketch::<RefF64>::from_bytes(&b.to_bytes()).expect("round-trip");
        a.update_batch(&keyed(&items[..split]));
        b.update_batch(&reference(&items[..split]));
        prop_assert_eq!(a.len(), (items.len() + more.len() + split) as u64);
        assert_same_f64_sketch(&mut a, &mut b, &probes);
    }

    /// A 4-shard tenant of each type gives the same `encode_shards()`
    /// (the `MERGE` payload) and `checkpoint()` (the snapshot payload).
    #[test]
    fn ordf64_concurrent_payloads_match_total_cmp_reference(
        k in k_strategy(),
        acc in accuracy_strategy(),
        sched in schedule_strategy(),
        seed in any::<u64>(),
        shape in 0usize..4,
        raw in vec(any::<u64>(), 0..2500),
    ) {
        let items = f64_stream(shape, raw);
        let builder = builder(k, acc, sched, seed);
        let a = ConcurrentReqSketch::<OrdF64>::new(builder.clone(), 4).expect("valid params");
        let b = ConcurrentReqSketch::<RefF64>::new(builder, 4).expect("valid params");
        let cut = items.len() / 2;
        for chunk in items[..cut].chunks(97) {
            a.update_batch(&keyed(chunk));
            b.update_batch(&reference(chunk));
        }
        prop_assert_eq!(a.encode_shards(), b.encode_shards());
        prop_assert_eq!(a.checkpoint().expect("encode"), b.checkpoint().expect("encode"));
        for chunk in items[cut..].chunks(61) {
            a.update_batch(&keyed(chunk));
            b.update_batch(&reference(chunk));
        }
        prop_assert_eq!(a.encode_shards(), b.encode_shards());
        prop_assert_eq!(a.checkpoint().expect("encode"), b.checkpoint().expect("encode"));
    }
}

/// The `u64` fast lane holds the paper's relative-error guarantee end to
/// end: high ranks estimated within a small multiplicative band on a 200k
/// stream (k=32 gives ε well under the 0.04 asserted here).
#[test]
fn u64_fast_lane_rank_accuracy() {
    let n: u64 = 200_000;
    let mut s = ReqSketch::<u64>::builder()
        .k(32)
        .rank_accuracy(RankAccuracy::HighRank)
        .seed(7)
        .build()
        .expect("valid params");
    // Pseudo-random permutation of 1..=n via a fixed LCG so true ranks are
    // exact: rank(v) == v.
    let mut x: u64 = 0x2545f4914f6cdd1d;
    let mut vals: Vec<u64> = (1..=n).collect();
    for i in (1..vals.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        vals.swap(i, (x % (i as u64 + 1)) as usize);
    }
    s.update_batch(&vals);
    assert_eq!(s.len(), n);
    for p in [0.5, 0.9, 0.99, 0.999] {
        let v = (p * n as f64) as u64;
        let est = s.rank(&v);
        let truth = v;
        let tail = (n - truth + 1) as f64;
        let err = (est as f64 - truth as f64).abs() / tail;
        assert!(
            err <= 0.04,
            "p{p}: rank({v}) = {est}, true {truth}, tail-rel err {err}"
        );
    }
}
