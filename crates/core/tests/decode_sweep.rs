//! Decode sweep: whatever `from_bytes` accepts is a sketch that every
//! operation accepts.
//!
//! Inputs are the encodings of four 3,000-value `FixedK(8)` `u64`
//! sketches (HRA/LRA × Standard/Adaptive) and one
//! `ConcurrentReqSketch::checkpoint` part set. Every byte of each is
//! mutated six ways (+1, −1, ^0x80, 0x00, 0xFF, ^0x01). Each mutated input
//! must either fail with [`ReqError::CorruptBytes`] or decode to a sketch
//! that
//!
//! * re-encodes to the same bytes, except the 8-byte `reseed` field
//!   (`to_bytes` draws a fresh one), and
//! * survives, without a panic: `rank`, `rank_bounds`, `quantile`,
//!   `quantiles` and `cdf`; a round trip; 5,000 more values; and a merge
//!   with a fresh sibling of the same configuration. A part set's
//!   survival is the sharded reads, 5,000 more values, the merge of its
//!   shards and a merge with a sibling.
//!
//! Header and level-header bytes always get the survival checks. Item
//! bytes get them at a stride of [`ITEM_STRIDE`]: every item byte is
//! still decoded and re-encoded, but only every `ITEM_STRIDE`-th mutated
//! item byte pays for the ingest and merge.

use req_core::{
    CompactionSchedule, ConcurrentReqSketch, ParamPolicy, QuantileSketch, RankAccuracy, ReqError,
    ReqSketch,
};

/// Item bytes between two survival checks; see the module docs.
const ITEM_STRIDE: usize = 16;

/// The six mutations every byte receives.
const MUTATIONS: [fn(u8) -> u8; 6] = [
    |b| b.wrapping_add(1),
    |b| b.wrapping_sub(1),
    |b| b ^ 0x80,
    |_| 0x00,
    |_| 0xFF,
    |b| b ^ 0x01,
];

/// Magic, version, flags, the `FixedK` policy (tag + `k`), `n`, `max_n`,
/// `k` and `num_sections`: the `reseed` field starts here.
const RESEED_AT: usize = 4 + 1 + 1 + (1 + 4) + 8 + 8 + 4 + 4;

fn builder(acc: RankAccuracy, sched: CompactionSchedule, seed: u64) -> req_core::ReqSketchBuilder {
    ReqSketch::<u64>::builder()
        .policy(ParamPolicy::fixed_k(8).unwrap())
        .rank_accuracy(acc)
        .schedule(sched)
        .seed(seed)
}

fn values(n: u64, salt: u64) -> Vec<u64> {
    (0..n)
        .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_003)
        .collect()
}

fn configs() -> Vec<(RankAccuracy, CompactionSchedule)> {
    let mut out = Vec::new();
    for acc in [RankAccuracy::HighRank, RankAccuracy::LowRank] {
        for sched in [CompactionSchedule::Standard, CompactionSchedule::Adaptive] {
            out.push((acc, sched));
        }
    }
    out
}

/// Which bytes of a `FixedK` `u64` encoding are level items (as opposed
/// to header and level-header bytes).
fn item_bytes(bytes: &[u8]) -> Vec<bool> {
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut items = vec![false; bytes.len()];
    let mut at = RESEED_AT + 8;
    for _ in 0..2 {
        at += if bytes[at] == 1 { 1 + 8 } else { 1 };
    }
    let levels = le32(at);
    at += 4;
    for _ in 0..levels {
        // state, compactions, special, sections, absorbed, run_len, len
        at += 8 * 3 + 4 + 8 + 4;
        let len = le32(at);
        at += 4;
        items[at..at + 8 * len].fill(true);
        at += 8 * len;
    }
    assert_eq!(at, bytes.len(), "layout walk");
    items
}

/// Equal except for the reseed field.
fn same_but_reseed(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && a[..RESEED_AT] == b[..RESEED_AT]
        && a[RESEED_AT + 8..] == b[RESEED_AT + 8..]
}

/// The reads a decoded sketch must answer without a panic, over levels
/// that weigh exactly its `n`.
fn read_everything(s: &ReqSketch<u64>) {
    assert_eq!(s.len(), s.total_weight(), "n disagrees with the levels");
    let probes = [0, 1, 999, 250_000, 500_000, 999_999, 1_000_003, u64::MAX];
    for y in &probes {
        s.rank(y);
        s.rank_bounds(y);
    }
    for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
        s.quantile(q);
    }
    s.quantiles(&[0.1, 0.9]);
    s.cdf(&probes);
}

/// What every survival check feeds in: 5,000 more values, and a sibling
/// of each configuration to merge with.
struct Feed {
    more: Vec<u64>,
    siblings: Vec<ReqSketch<u64>>,
}

impl Feed {
    fn new() -> Self {
        let siblings = configs()
            .into_iter()
            .map(|(acc, sched)| {
                let mut s = builder(acc, sched, 77).build::<u64>().unwrap();
                s.update_batch(&values(1_000, 1));
                s
            })
            .collect();
        Feed {
            more: values(5_000, 2),
            siblings,
        }
    }

    /// A fresh sibling with `s`'s configuration.
    fn sibling(&self, s: &ReqSketch<u64>) -> ReqSketch<u64> {
        self.siblings
            .iter()
            .find(|t| {
                t.rank_accuracy() == s.rank_accuracy()
                    && t.compaction_schedule() == s.compaction_schedule()
            })
            .expect("every configuration has a sibling")
            .clone()
    }

    /// Every read, a round trip, more ingest and a merge with a fresh
    /// sibling: none of them may panic.
    fn survive(&self, mut s: ReqSketch<u64>) {
        read_everything(&s);
        let mut s =
            ReqSketch::<u64>::from_bytes(&s.to_bytes()).expect("a decoded sketch round-trips");
        s.update_batch(&self.more);
        s.try_merge(self.sibling(&s))
            .expect("same configuration merges");
        read_everything(&s);
    }
}

/// Mutate every byte of `good` six ways; `decode` either rejects the input
/// as corrupt or returns what it decoded, re-encoded, and a survival
/// check to run. Returns (inputs, decoded, survival checks run).
fn sweep<D>(good: &[u8], full_check: impl Fn(usize) -> bool, mut decode: D) -> (usize, usize, usize)
where
    D: FnMut(&[u8], bool) -> Result<Vec<u8>, ReqError>,
{
    let (mut inputs, mut decoded, mut checked) = (0, 0, 0);
    let mut bad = good.to_vec();
    for at in 0..good.len() {
        for mutate in MUTATIONS {
            bad[at] = mutate(good[at]);
            if bad[at] == good[at] {
                continue;
            }
            inputs += 1;
            let full = full_check(at);
            match decode(&bad, full) {
                Ok(again) => {
                    decoded += 1;
                    checked += usize::from(full);
                    assert!(
                        same_but_reseed(&bad, &again),
                        "byte {at} = {:#04x}: decoded input re-encodes differently",
                        bad[at]
                    );
                }
                Err(ReqError::CorruptBytes(_)) => {}
                Err(other) => panic!("byte {at} = {:#04x}: untyped failure {other:?}", bad[at]),
            }
        }
        bad[at] = good[at];
    }
    (inputs, decoded, checked)
}

#[test]
fn mutated_sketch_bytes_reject_or_survive() {
    let feed = Feed::new();
    for (i, (acc, sched)) in configs().into_iter().enumerate() {
        let mut s = builder(acc, sched, 100 + i as u64).build::<u64>().unwrap();
        s.update_batch(&values(3_000, i as u64));
        let good = s.to_bytes().to_vec();
        let items = item_bytes(&good);
        let (inputs, decoded, checked) = sweep(
            &good,
            |at| !items[at] || at % ITEM_STRIDE == 0,
            |bad, full| {
                let mut d = ReqSketch::<u64>::from_bytes(bad)?;
                let again = d.to_bytes().to_vec();
                if full {
                    feed.survive(d);
                }
                Ok(again)
            },
        );
        assert!(
            decoded > 0 && checked > 0,
            "{acc:?} {sched:?}: {inputs} inputs"
        );
    }
}

#[test]
fn mutated_checkpoint_parts_reject_or_survive() {
    let feed = Feed::new();
    let builder = builder(RankAccuracy::HighRank, CompactionSchedule::Adaptive, 5);
    let live = ConcurrentReqSketch::<u64>::new(builder, 4).unwrap();
    for chunk in values(3_000, 9).chunks(100) {
        live.update_batch(chunk);
    }
    let parts: Vec<Vec<u8>> = live
        .checkpoint()
        .unwrap()
        .iter()
        .map(|p| p.to_vec())
        .collect();
    for (shard, good) in parts.iter().enumerate() {
        let items = item_bytes(good);
        let mut set = parts.clone();
        let (_, decoded, checked) = sweep(
            good,
            |at| !items[at] || at % ITEM_STRIDE == 0,
            |bad, full| {
                set[shard] = bad.to_vec();
                let c = ConcurrentReqSketch::<u64>::from_checkpoint(&set, live.rotation())?;
                let again = c.encode_shards();
                for (i, part) in again.iter().enumerate() {
                    if i != shard {
                        assert!(same_but_reseed(part, &parts[i]), "shard {i} changed");
                    }
                }
                if full {
                    // Shard reads go through the union of the shards;
                    // `snapshot` merges them.
                    c.ranks(&[0, 500_000, u64::MAX]).unwrap();
                    c.quantiles(&[0.0, 0.5, 1.0]).unwrap();
                    c.cdf(&[1, 500_000]).unwrap();
                    c.update_batch(&feed.more);
                    let mut merged = c.snapshot().unwrap();
                    merged
                        .try_merge(feed.sibling(&merged))
                        .expect("same configuration merges");
                    read_everything(&merged);
                }
                Ok(again[shard].to_vec())
            },
        );
        assert!(decoded > 0 && checked > 0, "shard {shard}");
    }
}
