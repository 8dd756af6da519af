//! Every union read path against a full-sort oracle.
//!
//! The oracle is `SortedView::from_weighted_items` over every retained
//! `(item, 2^h)` pair of every part — one flat sort, independent of both the
//! loser-tree view builder and the multi-sequence selection — plus the
//! endpoint rule (`q ≤ 0` or NaN answers the exact minimum, `q ≥ 1` the exact
//! maximum). It pins, bit for bit:
//!
//! * `ConcurrentReqSketch`'s `rank`/`quantile`/`ranks`/`quantiles`/`cdf`,
//!   on the first read after each mutation (answered off the shards) and
//!   after a burst that builds the cached union view;
//! * the union of decoded `encode_shards()` parts, which is what a cluster
//!   router answers `MERGE` reads with;
//! * the §5 growing sketch's ranks and quantiles across its closed and
//!   active summaries, before and after a burst that builds its cached
//!   union view;
//! * the monitoring pattern: the same few quantiles asked after every
//!   write, which start from where they landed before the write.

use proptest::collection::vec;
use proptest::prelude::*;

use req_core::union::{decode_parts, Union};
use req_core::{
    CompactionSchedule, ConcurrentReqSketch, GrowingReqSketch, OrdF64, QuantileSketch,
    RankAccuracy, ReqError, ReqSketch, SortedView,
};

/// The oracle over a set of parts: the flat-sorted weighted view and the
/// exact extremes.
struct Oracle {
    view: SortedView<OrdF64>,
    min: Option<OrdF64>,
    max: Option<OrdF64>,
}

impl Oracle {
    fn new<'a>(parts: impl IntoIterator<Item = &'a ReqSketch<OrdF64>>) -> Self {
        let mut pairs = Vec::new();
        let (mut min, mut max): (Option<OrdF64>, Option<OrdF64>) = (None, None);
        for part in parts {
            pairs.extend(part.retained_items().map(|(x, w)| (*x, w)));
            min = min.into_iter().chain(part.min_item().copied()).min();
            max = max.into_iter().chain(part.max_item().copied()).max();
        }
        Oracle {
            view: SortedView::from_weighted_items(pairs),
            min,
            max,
        }
    }

    fn of(sketch: &ConcurrentReqSketch<OrdF64>) -> Self {
        let parts = decode_parts::<OrdF64, _>(&sketch.encode_shards()).expect("own parts decode");
        Self::new(&parts)
    }

    fn quantile(&self, q: f64) -> Option<OrdF64> {
        if q.is_nan() || q <= 0.0 {
            self.min
        } else if q >= 1.0 {
            self.max
        } else {
            self.view.quantile(q).copied()
        }
    }
}

/// Bit-level identity of an optional quantile answer (NaN payloads and the
/// sign of zero included).
fn bits(x: Option<OrdF64>) -> Option<u64> {
    x.map(|v| v.get().to_bits())
}

fn bits_all(xs: &[Option<OrdF64>]) -> Vec<Option<u64>> {
    xs.iter().map(|&x| bits(x)).collect()
}

/// The quantile grid: `i/200` for `i ∈ 0..=200`, plus NaN.
fn grid() -> Vec<f64> {
    (0..=200)
        .map(|i| f64::from(i) / 200.0)
        .chain([f64::NAN])
        .collect()
}

fn nan(payload: u64, negative: bool) -> f64 {
    let sign = if negative { 1u64 << 63 } else { 0 };
    f64::from_bits(sign | 0x7ff8_0000_0000_0000 | (payload & 0xffff))
}

/// Map raw draws onto a stream shape: general values with specials
/// sprinkled in, at most 8 distinct values, or either sorted order.
fn shape_stream(shape: usize, raw: &[u64]) -> Vec<OrdF64> {
    let special = |x: u64| match x % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => nan(x >> 8, false),
        _ => nan(x >> 8, true),
    };
    let general = |x: u64| {
        if x.is_multiple_of(23) {
            special(x >> 5)
        } else {
            (x % 2_001) as f64 - 1_000.0 + (x % 7) as f64 / 8.0
        }
    };
    let few = [
        -0.0,
        0.0,
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        nan(7, false),
        nan(9, true),
    ];
    let mut v: Vec<OrdF64> = raw
        .iter()
        .map(|&x| {
            OrdF64(if shape == 1 {
                few[(x % 8) as usize]
            } else {
                general(x)
            })
        })
        .collect();
    match shape {
        2 => v.sort_unstable(),
        3 => v.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    v
}

/// Rank probes: every distinct stream value, the specials, and a few values
/// between, ascending (so they double as CDF split points).
fn probes(stream: &[OrdF64]) -> Vec<OrdF64> {
    let mut p: Vec<OrdF64> = stream.iter().step_by(7).copied().collect();
    p.extend(
        [
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            0.25,
            -999.5,
            999.5,
            f64::INFINITY,
            nan(1, false),
            nan(1, true),
        ]
        .map(OrdF64),
    );
    p.sort_unstable();
    p.dedup();
    p
}

/// Every read of `sketch` equals the oracle's. Returns nothing; panics
/// with the configuration on the first mismatch.
fn assert_reads(
    sketch: &ConcurrentReqSketch<OrdF64>,
    oracle: &Oracle,
    probes: &[OrdF64],
    ctx: &str,
) {
    for y in probes {
        assert_eq!(
            sketch.rank(y).unwrap(),
            oracle.view.rank(y),
            "{ctx}: rank {y:?}"
        );
    }
    let qs = grid();
    for &q in &qs {
        assert_eq!(
            bits(sketch.quantile(q).unwrap()),
            bits(oracle.quantile(q)),
            "{ctx}: quantile {q}"
        );
    }
    let want_ranks: Vec<u64> = probes.iter().map(|y| oracle.view.rank(y)).collect();
    assert_eq!(sketch.ranks(probes).unwrap(), want_ranks, "{ctx}: ranks");
    let want_qs: Vec<Option<OrdF64>> = qs.iter().map(|&q| oracle.quantile(q)).collect();
    assert_eq!(
        bits_all(&sketch.quantiles(&qs).unwrap()),
        bits_all(&want_qs),
        "{ctx}: quantiles"
    );
    assert_eq!(
        sketch.cdf(probes).unwrap(),
        oracle.view.cdf(probes),
        "{ctx}: cdf"
    );
}

/// One read, right after a mutation, of the kind `op` selects: it must be
/// answered off the shards and equal the oracle.
fn assert_first_read(
    sketch: &ConcurrentReqSketch<OrdF64>,
    op: usize,
    probes: &[OrdF64],
    ctx: &str,
) {
    let oracle = Oracle::of(sketch);
    let before = sketch.read_cache_stats();
    let y = &probes[op % probes.len()];
    let q = f64::from((op * 37 % 203) as u32) / 200.0;
    match op % 5 {
        0 => assert_eq!(
            sketch.rank(y).unwrap(),
            oracle.view.rank(y),
            "{ctx}: first rank"
        ),
        1 => assert_eq!(
            bits(sketch.quantile(q).unwrap()),
            bits(oracle.quantile(q)),
            "{ctx}: first quantile {q}"
        ),
        2 => assert_eq!(
            sketch.ranks(&probes[..3.min(probes.len())]).unwrap(),
            probes[..3.min(probes.len())]
                .iter()
                .map(|y| oracle.view.rank(y))
                .collect::<Vec<_>>(),
            "{ctx}: first ranks"
        ),
        3 => {
            let qs = [q, 1.0 - q, 0.5];
            let want: Vec<_> = qs.iter().map(|&q| oracle.quantile(q)).collect();
            assert_eq!(
                bits_all(&sketch.quantiles(&qs).unwrap()),
                bits_all(&want),
                "{ctx}: first quantiles"
            );
        }
        _ => {
            let split = &probes[..3.min(probes.len())];
            assert_eq!(
                sketch.cdf(split).unwrap(),
                oracle.view.cdf(split),
                "{ctx}: first cdf"
            );
        }
    }
    let after = sketch.read_cache_stats();
    assert!(
        after.direct > before.direct,
        "{ctx}: first read was not direct"
    );
}

fn builder(
    acc: RankAccuracy,
    sched: CompactionSchedule,
    k: u32,
    seed: u64,
) -> req_core::ReqSketchBuilder {
    ReqSketch::<OrdF64>::builder()
        .k(k)
        .rank_accuracy(acc)
        .schedule(sched)
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_reads_match_the_full_sort_oracle(
        raw in vec(any::<u64>(), 0..2_500),
        shape in 0usize..4,
        tiny in 0usize..4,
        ops in vec(0usize..1_000, 1..12),
        seed in any::<u64>(),
    ) {
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            for sched in [CompactionSchedule::Standard, CompactionSchedule::Adaptive] {
                for shards in [1usize, 2, 3, 4, 8] {
                    for k in [4u32, 32] {
                        // Some streams are shorter than the shard count.
                        let raw = if tiny == 0 { &raw[..raw.len().min(shards - 1)] } else { &raw[..] };
                        let stream = shape_stream(shape, raw);
                        let probes = probes(&stream);
                        let ctx = format!("{acc:?} {sched:?} shards {shards} k {k} n {}", stream.len());
                        let sketch = ConcurrentReqSketch::new(builder(acc, sched, k, seed), shards)
                            .expect("valid params");
                        let mut rest = &stream[..];
                        let mut i = 0;
                        while !rest.is_empty() {
                            let op = ops[i % ops.len()];
                            let (chunk, tail) = rest.split_at(rest.len().min(1 + op * 37 % 300));
                            match op % 3 {
                                0 => chunk.iter().for_each(|&x| sketch.update(x)),
                                1 => sketch.update_batch(chunk),
                                _ => sketch.update_batch_in_shard(op, chunk),
                            }
                            assert_first_read(&sketch, op, &probes, &ctx);
                            rest = tail;
                            i += 1;
                        }

                        let oracle = Oracle::of(&sketch);
                        prop_assert_eq!(oracle.view.total_weight(), stream.len() as u64);
                        assert_reads(&sketch, &oracle, &probes, &format!("{ctx} first pass"));
                        // A burst that pays for the union view; every read
                        // after it is served from the cache.
                        sketch.ranks(&vec![OrdF64(0.0); 4_096]).unwrap();
                        let burst = sketch.read_cache_stats();
                        assert_reads(&sketch, &oracle, &probes, &format!("{ctx} cached"));
                        let stats = sketch.read_cache_stats();
                        prop_assert_eq!((stats.direct, stats.builds), (burst.direct, burst.builds));
                        prop_assert!(stats.cached > burst.cached);
                        prop_assert_eq!(sketch.snapshot_cache_stats(), (0, 0));

                        // The router's path: decode the wire parts, answer
                        // over their union.
                        let parts = decode_parts::<OrdF64, _>(&sketch.encode_shards())
                            .expect("own parts decode");
                        let refs: Vec<&ReqSketch<OrdF64>> = parts.iter().collect();
                        let union = Union::new(&refs);
                        for y in &probes {
                            prop_assert_eq!(union.rank(y), oracle.view.rank(y));
                        }
                        for q in grid() {
                            prop_assert_eq!(bits(union.quantile(q)), bits(oracle.quantile(q)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_quantiles_after_writes_match_the_full_sort_oracle(
        raw in vec(any::<u64>(), 1..3_000),
        shape in 0usize..4,
        ops in vec((0usize..1_000, 0.0f64..1.0), 1..12),
        seed in any::<u64>(),
    ) {
        let stream = shape_stream(shape, &raw);
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            for sched in [CompactionSchedule::Standard, CompactionSchedule::Adaptive] {
                for shards in [1usize, 4] {
                    let ctx = format!("{acc:?} {sched:?} shards {shards} n {}", stream.len());
                    let sketch = ConcurrentReqSketch::new(builder(acc, sched, 4, seed), shards)
                        .expect("valid params");
                    let mut rest = &stream[..];
                    let mut i = 0;
                    while !rest.is_empty() {
                        let (op, random_q) = ops[i % ops.len()];
                        let (chunk, tail) = rest.split_at(rest.len().min(1 + op * 37 % 300));
                        match op % 3 {
                            0 => chunk.iter().for_each(|&x| sketch.update(x)),
                            1 => sketch.update_batch(chunk),
                            _ => sketch.update_batch_in_shard(op, chunk),
                        }
                        let oracle = Oracle::of(&sketch);
                        for q in [0.5, 0.99, 0.999, random_q] {
                            prop_assert_eq!(
                                bits(sketch.quantile(q).unwrap()),
                                bits(oracle.quantile(q)),
                                "{} op {}: quantile {}", ctx, i, q
                            );
                        }
                        rest = tail;
                        i += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn growing_quantiles_match_the_full_sort_oracle(
        raw in vec(any::<u64>(), 0..6_000),
        shape in 0usize..4,
        seed in any::<u64>(),
    ) {
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let mut g = GrowingReqSketch::<OrdF64>::new(0.2, 0.05, acc, seed).expect("valid");
            let stream = shape_stream(shape, &raw);
            for chunk in stream.chunks(333) {
                g.update_batch(chunk);
            }
            let oracle = Oracle::new(g.summaries());
            let probes = probes(&stream);
            let check = |g: &GrowingReqSketch<OrdF64>| {
                for y in &probes {
                    assert_eq!(g.rank(y), oracle.view.rank(y), "rank {y:?}");
                }
                for q in grid() {
                    assert_eq!(bits(g.quantile(q)), bits(oracle.quantile(q)), "quantile {q}");
                }
            };
            check(&g);
            // A burst that pays for the union view; the same reads again are
            // all served from it.
            g.ranks(&vec![OrdF64(0.0); 4_096]);
            let burst = g.read_cache_stats();
            prop_assert_eq!(burst.builds, 1);
            check(&g);
            let stats = g.read_cache_stats();
            prop_assert_eq!((stats.direct, stats.builds), (burst.direct, burst.builds));
            prop_assert!(stats.cached > burst.cached);
            let view = g.sorted_view();
            prop_assert_eq!(view.total_weight(), oracle.view.total_weight());
            prop_assert_eq!(view.num_entries(), oracle.view.num_entries());
        }
    }
}

#[test]
fn mismatched_parts_are_refused() {
    let parts = |acc, sched| {
        let s = ConcurrentReqSketch::<OrdF64>::new(builder(acc, sched, 8, 3), 2).unwrap();
        s.update_batch(&(0..1_000).map(|i| OrdF64(f64::from(i))).collect::<Vec<_>>());
        s.encode_shards()
    };
    let lra = parts(RankAccuracy::LowRank, CompactionSchedule::Standard);
    let hra = parts(RankAccuracy::HighRank, CompactionSchedule::Standard);
    let adaptive = parts(RankAccuracy::LowRank, CompactionSchedule::Adaptive);
    for other in [&hra, &adaptive] {
        let mixed: Vec<_> = lra.iter().chain(other.iter()).cloned().collect();
        assert!(matches!(
            decode_parts::<OrdF64, _>(&mixed),
            Err(ReqError::IncompatibleMerge(_))
        ));
    }
    let mut corrupt = lra.clone();
    corrupt.push(b"junk".to_vec().into());
    assert!(matches!(
        decode_parts::<OrdF64, _>(&corrupt),
        Err(ReqError::CorruptBytes(_))
    ));
}
