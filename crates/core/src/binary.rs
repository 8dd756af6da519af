//! Versioned compact binary serialization.
//!
//! Layout of version 3, the only version written or read (all integers
//! little-endian):
//!
//! ```text
//! magic "REQ1" | version u8 = 3
//! flags u8 (bit0 = high-rank accuracy, bit1 = adaptive schedule)
//! policy tag u8 + policy payload
//! n u64 | max_n u64 | k u32 | num_sections u32 | reseed u64
//! min item (tag u8 + payload) | max item (tag u8 + payload)
//! num_levels u32
//! per level: state u64 | compactions u64 | special u64
//!            | num_sections u32 | absorbed u64
//!            | run_len u32 | len u32 | items
//! ```
//!
//! `run_len` is the sorted-run prefix of each level buffer
//! (`items[..run_len]` is sorted by the internal comparator), so a
//! deserialized sketch resumes merge-maintained compactions without
//! re-sorting. Flags bit 1 records the [`crate::CompactionSchedule`], and
//! each level carries its *own* section count (adaptive levels diverge from
//! the header's floor, arXiv:2511.17396) plus its lifetime absorbed item
//! count, which is what the adaptive schedule re-plans geometry from.
//! Versions 1 and 2 predate the service and no deployment wrote them; their
//! bytes fail with [`ReqError::CorruptBytes`].
//!
//! Untrusted input is validated before anything is sized from it: a
//! declared run that is not actually sorted, a header `k` other than the
//! one the decoded policy assigns to `max_n`, a section count above 65
//! (the most any schedule plans for a `u64` stream), or a header `n` other
//! than the levels' weight `Σ_h 2^h·len_h` (every writer keeps the two
//! equal) is rejected as corrupt rather than mis-answering rank queries or
//! reserving an attacker-chosen buffer.
//!
//! The RNG's in-flight state is not serialized; a fresh seed (`reseed`,
//! drawn from the sketch's RNG at serialization time) is stored instead.
//! Coin flips after a round-trip therefore differ from those the original
//! sketch would have drawn, which is immaterial to the guarantee — any coin
//! sequence satisfies Theorems 1/3.
//!
//! The read cache (`ReqSketch::read_cache_stats`) is derived state and is
//! **soundly dropped**: a deserialized sketch starts with a cold cache and a
//! fresh dirty epoch, and its first reads go straight off the levels.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::Rng;

use crate::compactor::{RankAccuracy, RelativeCompactor};
use crate::error::ReqError;
use crate::ordf64::OrdF64;
use crate::params::ParamPolicy;
use crate::schedule::{CompactionSchedule, CompactionState};
use crate::sketch::ReqSketch;

const MAGIC: &[u8; 4] = b"REQ1";
/// The one version written and read. See the module docs.
const VERSION: u8 = 3;
/// The most sections any level can plan for a `u64` stream: `⌈log₂ n⌉ + 1`
/// (what [`crate::schedule::adaptive_num_sections`] and
/// [`ParamPolicy::params_for`] can return). A larger count is corruption.
const MAX_SECTIONS: u32 = 65;

/// Item types that can be encoded into the binary sketch format.
pub trait Packable: Sized {
    /// Append this item's encoding to `out`.
    fn pack(&self, out: &mut BytesMut);
    /// Decode one item, consuming bytes from `input`.
    fn unpack(input: &mut Bytes) -> Result<Self, ReqError>;
}

fn need(input: &Bytes, n: usize) -> Result<(), ReqError> {
    if input.remaining() < n {
        Err(ReqError::CorruptBytes(format!(
            "need {n} more bytes, have {}",
            input.remaining()
        )))
    } else {
        Ok(())
    }
}

macro_rules! packable_int {
    ($t:ty, $put:ident, $get:ident, $size:expr) => {
        impl Packable for $t {
            fn pack(&self, out: &mut BytesMut) {
                out.$put(*self);
            }
            fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
                need(input, $size)?;
                Ok(input.$get())
            }
        }
    };
}

packable_int!(u16, put_u16_le, get_u16_le, 2);
packable_int!(u32, put_u32_le, get_u32_le, 4);
packable_int!(u64, put_u64_le, get_u64_le, 8);
packable_int!(i32, put_i32_le, get_i32_le, 4);
packable_int!(i64, put_i64_le, get_i64_le, 8);

impl Packable for u8 {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u8(*self);
    }
    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        need(input, 1)?;
        Ok(input.get_u8())
    }
}

impl Packable for OrdF64 {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u64_le(self.get().to_bits());
    }
    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        need(input, 8)?;
        Ok(OrdF64(f64::from_bits(input.get_u64_le())))
    }
}

impl Packable for String {
    fn pack(&self, out: &mut BytesMut) {
        let bytes = self.as_bytes();
        out.put_u32_le(bytes.len() as u32);
        out.put_slice(bytes);
    }
    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        need(input, 4)?;
        let len = input.get_u32_le() as usize;
        need(input, len)?;
        let raw = input.copy_to_bytes(len);
        String::from_utf8(raw.to_vec())
            .map_err(|e| ReqError::CorruptBytes(format!("invalid utf8 string: {e}")))
    }
}

fn pack_policy(policy: &ParamPolicy, out: &mut BytesMut) {
    match *policy {
        ParamPolicy::Mergeable { eps, delta, scale } => {
            out.put_u8(0);
            out.put_f64_le(eps);
            out.put_f64_le(delta);
            out.put_f64_le(scale);
        }
        ParamPolicy::Streaming { eps, delta, n } => {
            out.put_u8(1);
            out.put_f64_le(eps);
            out.put_f64_le(delta);
            out.put_u64_le(n);
        }
        ParamPolicy::SmallDelta { eps, delta, n } => {
            out.put_u8(2);
            out.put_f64_le(eps);
            out.put_f64_le(delta);
            out.put_u64_le(n);
        }
        ParamPolicy::Deterministic { eps, n } => {
            out.put_u8(3);
            out.put_f64_le(eps);
            out.put_u64_le(n);
        }
        ParamPolicy::FixedK { k } => {
            out.put_u8(4);
            out.put_u32_le(k);
        }
    }
}

fn unpack_f64(input: &mut Bytes) -> Result<f64, ReqError> {
    need(input, 8)?;
    Ok(input.get_f64_le())
}

fn unpack_policy(input: &mut Bytes) -> Result<ParamPolicy, ReqError> {
    need(input, 1)?;
    let tag = input.get_u8();
    match tag {
        0 => {
            let eps = unpack_f64(input)?;
            let delta = unpack_f64(input)?;
            let scale = unpack_f64(input)?;
            ParamPolicy::mergeable_scaled(eps, delta, scale)
                .map_err(|e| ReqError::CorruptBytes(e.to_string()))
        }
        1 => {
            let eps = unpack_f64(input)?;
            let delta = unpack_f64(input)?;
            let n = u64::unpack(input)?;
            ParamPolicy::streaming(eps, delta, n).map_err(|e| ReqError::CorruptBytes(e.to_string()))
        }
        2 => {
            let eps = unpack_f64(input)?;
            let delta = unpack_f64(input)?;
            let n = u64::unpack(input)?;
            ParamPolicy::small_delta(eps, delta, n)
                .map_err(|e| ReqError::CorruptBytes(e.to_string()))
        }
        3 => {
            let eps = unpack_f64(input)?;
            let n = u64::unpack(input)?;
            ParamPolicy::deterministic(eps, n).map_err(|e| ReqError::CorruptBytes(e.to_string()))
        }
        4 => {
            let k = u32::unpack(input)?;
            ParamPolicy::fixed_k(k).map_err(|e| ReqError::CorruptBytes(e.to_string()))
        }
        other => Err(ReqError::CorruptBytes(format!(
            "unknown policy tag {other}"
        ))),
    }
}

fn pack_option<T: Packable>(value: &Option<T>, out: &mut BytesMut) {
    match value {
        Some(v) => {
            out.put_u8(1);
            v.pack(out);
        }
        None => out.put_u8(0),
    }
}

fn unpack_option<T: Packable>(input: &mut Bytes) -> Result<Option<T>, ReqError> {
    need(input, 1)?;
    match input.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(T::unpack(input)?)),
        other => Err(ReqError::CorruptBytes(format!("bad option tag {other}"))),
    }
}

impl<T: Ord + Clone + Packable> ReqSketch<T> {
    /// Serialize into the versioned binary format.
    pub fn to_bytes(&mut self) -> Bytes {
        let retained: usize = self.levels.iter().map(|l| l.len(&self.arena)).sum();
        let mut out = BytesMut::with_capacity(64 + 16 * retained);
        out.put_slice(MAGIC);
        out.put_u8(VERSION);
        let mut flags = match self.rank_accuracy() {
            RankAccuracy::HighRank => 1u8,
            RankAccuracy::LowRank => 0u8,
        };
        if self.schedule == CompactionSchedule::Adaptive {
            flags |= 2;
        }
        out.put_u8(flags);
        pack_policy(&self.policy, &mut out);
        out.put_u64_le(self.n);
        out.put_u64_le(self.max_n);
        out.put_u32_le(self.k);
        out.put_u32_le(self.num_sections);
        let reseed: u64 = self.rng.gen();
        out.put_u64_le(reseed);
        pack_option(&self.min_item, &mut out);
        pack_option(&self.max_item, &mut out);
        out.put_u32_le(self.levels.len() as u32);
        for level in &self.levels {
            out.put_u64_le(level.state().raw());
            out.put_u64_le(level.num_compactions());
            out.put_u64_le(level.num_special_compactions());
            out.put_u32_le(level.num_sections());
            out.put_u64_le(level.absorbed());
            out.put_u32_le(level.run_len(&self.arena) as u32);
            out.put_u32_le(level.len(&self.arena) as u32);
            for item in level.items(&self.arena) {
                item.pack(&mut out);
            }
        }
        out.freeze()
    }

    /// Deserialize from [`ReqSketch::to_bytes`] output.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ReqError> {
        let mut input = Bytes::copy_from_slice(data);
        need(&input, 6)?;
        let mut magic = [0u8; 4];
        input.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(ReqError::CorruptBytes("bad magic".into()));
        }
        let version = input.get_u8();
        if version != VERSION {
            return Err(ReqError::CorruptBytes(format!(
                "unsupported version {version}"
            )));
        }
        let flags = input.get_u8();
        let accuracy = if flags & 1 == 1 {
            RankAccuracy::HighRank
        } else {
            RankAccuracy::LowRank
        };
        let schedule = if flags & 2 == 2 {
            CompactionSchedule::Adaptive
        } else {
            CompactionSchedule::Standard
        };
        let policy = unpack_policy(&mut input)?;
        let n = u64::unpack(&mut input)?;
        let max_n = u64::unpack(&mut input)?;
        let k = u32::unpack(&mut input)?;
        let num_sections = u32::unpack(&mut input)?;
        // Every writer moves `k` together with `max_n` (construction,
        // growth, merge), so any other `k` is corruption — and would size
        // every level's reservation.
        let policy_k = policy.params_for(max_n).k;
        if k != policy_k || num_sections == 0 || num_sections > MAX_SECTIONS {
            return Err(ReqError::CorruptBytes(format!(
                "invalid geometry k={k} (policy gives {policy_k}) sections={num_sections}"
            )));
        }
        let reseed = u64::unpack(&mut input)?;
        let min_item = unpack_option::<T>(&mut input)?;
        let max_item = unpack_option::<T>(&mut input)?;
        let num_levels = u32::unpack(&mut input)? as usize;
        if num_levels > 64 {
            return Err(ReqError::CorruptBytes(format!(
                "implausible level count {num_levels}"
            )));
        }
        let mut arena = crate::arena::LevelArena::new();
        let mut levels = Vec::with_capacity(num_levels);
        let mut weight = 0u128;
        for h in 0..num_levels {
            let state = u64::unpack(&mut input)?;
            let compactions = u64::unpack(&mut input)?;
            let special = u64::unpack(&mut input)?;
            let level_sections = u32::unpack(&mut input)?;
            if level_sections == 0 || level_sections > MAX_SECTIONS {
                return Err(ReqError::CorruptBytes(format!(
                    "level declares {level_sections} sections"
                )));
            }
            let absorbed = u64::unpack(&mut input)?;
            let run_len = u32::unpack(&mut input)? as usize;
            let len = u32::unpack(&mut input)? as usize;
            if run_len > len {
                return Err(ReqError::CorruptBytes(format!(
                    "run_len {run_len} exceeds level len {len}"
                )));
            }
            // Every item occupies at least one byte; a length beyond the
            // remaining input is corruption, and pre-allocating it would be
            // an allocation-of-attacker-chosen-size hazard.
            if len > input.remaining() {
                return Err(ReqError::CorruptBytes(format!(
                    "level claims {len} items but only {} bytes remain",
                    input.remaining()
                )));
            }
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                buf.push(T::unpack(&mut input)?);
            }
            let level = RelativeCompactor::from_parts(
                &mut arena,
                k,
                level_sections,
                buf,
                run_len,
                CompactionState::from_raw(state),
                compactions,
                special,
                absorbed,
            );
            if !level.run_is_sorted(&arena, accuracy) {
                return Err(ReqError::CorruptBytes(
                    "declared sorted run is not sorted".into(),
                ));
            }
            levels.push(level);
            weight += (len as u128) << h;
        }
        if weight != u128::from(n) {
            return Err(ReqError::CorruptBytes(format!(
                "levels weigh {weight}, header n is {n}"
            )));
        }
        if input.has_remaining() {
            return Err(ReqError::CorruptBytes(format!(
                "{} trailing bytes",
                input.remaining()
            )));
        }
        Ok(ReqSketch::from_parts(
            policy,
            accuracy,
            arena,
            levels,
            n,
            max_n,
            k,
            num_sections,
            min_item,
            max_item,
            reseed,
            schedule,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_traits::{QuantileSketch, SpaceUsage};

    fn sample_sketch() -> ReqSketch<u64> {
        let mut s =
            ReqSketch::with_policy(ParamPolicy::fixed_k(12).unwrap(), RankAccuracy::HighRank, 7);
        for i in 0..100_000u64 {
            s.update(i.wrapping_mul(2654435761) % 1_000_003);
        }
        s
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let mut s = sample_sketch();
        let bytes = s.to_bytes();
        let t = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
        assert_eq!(t.len(), s.len());
        assert_eq!(t.max_n(), s.max_n());
        assert_eq!(t.k(), s.k());
        assert_eq!(t.num_sections(), s.num_sections());
        assert_eq!(t.rank_accuracy(), s.rank_accuracy());
        assert_eq!(t.min_item(), s.min_item());
        assert_eq!(t.max_item(), s.max_item());
        assert_eq!(t.retained(), s.retained());
        assert_eq!(t.total_weight(), s.total_weight());
        for y in (0..1_000_003u64).step_by(30_011) {
            assert_eq!(t.rank(&y), s.rank(&y), "rank mismatch at {y}");
        }
    }

    #[test]
    fn roundtrip_drops_cache_soundly_and_answers_match() {
        let mut s = sample_sketch();
        // Warm the cache before serializing; the bytes must not carry it.
        let warm_rank = s.ranks(&[500_000; 1_000])[0];
        assert_eq!(s.read_cache_stats().builds, 1, "the view is cached");
        let bytes = s.to_bytes();
        let t = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
        let cold = crate::ReadCacheStats::default();
        assert_eq!(t.read_cache_stats(), cold, "cache must arrive cold");
        assert_eq!(t.rank(&500_000), warm_rank);
        assert_eq!(
            t.read_cache_stats(),
            crate::ReadCacheStats { direct: 1, ..cold }
        );
    }

    #[test]
    fn roundtrip_sketch_remains_usable() {
        let mut s = sample_sketch();
        let bytes = s.to_bytes();
        let mut t = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
        for i in 0..50_000u64 {
            t.update(i);
        }
        assert_eq!(t.len(), 150_000);
        assert!(t.quantile(0.5).is_some());
    }

    #[test]
    fn roundtrip_f64_and_string() {
        let mut s = ReqSketch::<OrdF64>::with_policy(
            ParamPolicy::fixed_k(8).unwrap(),
            RankAccuracy::LowRank,
            3,
        );
        for i in 0..5_000 {
            s.update(OrdF64(i as f64 * 0.25));
        }
        let t = ReqSketch::<OrdF64>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(t.len(), 5_000);
        assert_eq!(t.rank(&OrdF64(100.0)), s.rank(&OrdF64(100.0)));

        let mut s = ReqSketch::<String>::with_policy(
            ParamPolicy::fixed_k(8).unwrap(),
            RankAccuracy::LowRank,
            3,
        );
        for i in 0..2_000 {
            s.update(format!("key-{i:06}"));
        }
        let t = ReqSketch::<String>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(t.len(), 2_000);
        let probe = "key-001000".to_string();
        assert_eq!(t.rank(&probe), s.rank(&probe));
    }

    #[test]
    fn empty_sketch_roundtrips() {
        let mut s = ReqSketch::<u64>::with_policy(
            ParamPolicy::fixed_k(12).unwrap(),
            RankAccuracy::LowRank,
            1,
        );
        let t = ReqSketch::<u64>::from_bytes(&s.to_bytes()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.quantile(0.5), None);
    }

    #[test]
    fn policies_roundtrip() {
        let policies = [
            ParamPolicy::mergeable(0.05, 0.05).unwrap(),
            ParamPolicy::mergeable_scaled(0.05, 0.05, 0.25).unwrap(),
            ParamPolicy::streaming(0.1, 0.01, 1 << 20).unwrap(),
            ParamPolicy::small_delta(0.1, 1e-9, 1 << 20).unwrap(),
            ParamPolicy::deterministic(0.1, 1 << 20).unwrap(),
            ParamPolicy::fixed_k(24).unwrap(),
        ];
        for p in policies {
            let mut s = ReqSketch::<u64>::with_policy(p, RankAccuracy::LowRank, 1);
            for i in 0..100 {
                s.update(i);
            }
            let t = ReqSketch::<u64>::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(t.policy(), p);
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicking() {
        let mut s = sample_sketch();
        let good = s.to_bytes().to_vec();

        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            ReqSketch::<u64>::from_bytes(&bad),
            Err(ReqError::CorruptBytes(_))
        ));

        // bad version
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(ReqSketch::<u64>::from_bytes(&bad).is_err());

        // truncations at every prefix length must error, never panic
        for cut in [0, 1, 5, 10, 20, good.len() / 2, good.len() - 1] {
            assert!(
                ReqSketch::<u64>::from_bytes(&good[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }

        // trailing garbage
        let mut bad = good.clone();
        bad.extend_from_slice(&[1, 2, 3]);
        assert!(ReqSketch::<u64>::from_bytes(&bad).is_err());
    }

    /// Walk the fixed-size header of `FixedK` u64 sketch bytes, returning
    /// the offset of the `num_levels` field (magic, version, flags, policy,
    /// n, max_n, k, num_sections, reseed, min/max options).
    fn num_levels_offset(bytes: &[u8]) -> usize {
        let mut off = 4 + 1 + 1; // magic, version, flags
        off += 1 + 4; // FixedK policy tag + k payload
        off += 8 + 8 + 4 + 4 + 8; // n, max_n, k, num_sections, reseed
        for _ in 0..2 {
            // min/max options with u64 payloads
            let tag = bytes[off];
            off += 1;
            if tag == 1 {
                off += 8;
            }
        }
        off
    }

    #[test]
    fn lying_run_len_is_rejected() {
        let mut s = sample_sketch();
        let good = s.to_bytes().to_vec();
        // Locate the first level's run_len field.
        let mut off = num_levels_offset(&good);
        off += 4; // num_levels
        off += 8 * 3 + 4 + 8; // first level's counters, num_sections, absorbed
        let mut bad = good.clone();
        bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ReqSketch::<u64>::from_bytes(&bad).unwrap_err();
        assert!(matches!(err, ReqError::CorruptBytes(_)), "{err:?}");

        // A plausible run_len over an actually-unsorted prefix must also be
        // rejected: shuffle two distinct items inside the declared run.
        let t = ReqSketch::<u64>::from_bytes(&good).unwrap();
        let level0 = &t.stats().levels[0];
        assert!(level0.run_len >= 2, "test needs a non-trivial run");
        let items_off = off + 4 + 4; // past run_len and len
        let mut bad = good.clone();
        let a = items_off;
        let run = &good[a..a + 8 * level0.run_len];
        // find two adjacent distinct items to swap
        let idx = (0..level0.run_len - 1)
            .find(|i| run[i * 8..i * 8 + 8] != run[(i + 1) * 8..(i + 1) * 8 + 8])
            .expect("distinct adjacent items");
        bad.copy_within(a + idx * 8..a + idx * 8 + 8, a + (idx + 1) * 8);
        bad[a + idx * 8..a + idx * 8 + 8]
            .copy_from_slice(&good[a + (idx + 1) * 8..a + (idx + 2) * 8]);
        assert!(
            ReqSketch::<u64>::from_bytes(&bad).is_err(),
            "unsorted declared run accepted"
        );
    }

    #[test]
    fn merged_then_serialized_roundtrips() {
        let mut a = sample_sketch();
        let mut b =
            ReqSketch::with_policy(ParamPolicy::fixed_k(12).unwrap(), RankAccuracy::HighRank, 8);
        for i in 0..60_000u64 {
            b.update(i);
        }
        a.try_merge(b).unwrap();
        let t = ReqSketch::<u64>::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(t.len(), a.len());
        assert_eq!(t.total_weight(), a.total_weight());
    }

    #[test]
    fn adaptive_sketch_roundtrips_with_geometry_and_absorbed() {
        let mut a = ReqSketch::<u64>::builder()
            .k(8)
            .schedule(crate::CompactionSchedule::Adaptive)
            .high_rank_accuracy(false)
            .seed(11)
            .build()
            .unwrap();
        let mut b = ReqSketch::<u64>::builder()
            .k(8)
            .schedule(crate::CompactionSchedule::Adaptive)
            .high_rank_accuracy(false)
            .seed(12)
            .build()
            .unwrap();
        for i in 0..60_000u64 {
            a.update(i.wrapping_mul(2654435761) % 100_003);
            b.update(i.wrapping_mul(48271) % 100_003);
        }
        a.try_merge(b).unwrap();
        let before = a.stats();
        let t = ReqSketch::<u64>::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(t.compaction_schedule(), crate::CompactionSchedule::Adaptive);
        let after = t.stats();
        for (x, y) in before.levels.iter().zip(&after.levels) {
            assert_eq!(x.num_sections, y.num_sections, "level {}", x.level);
            assert_eq!(x.absorbed, y.absorbed, "level {}", x.level);
            assert_eq!(x.run_len, y.run_len, "level {}", x.level);
        }
        // Adaptive levels really did diverge from the header floor.
        assert!(after
            .levels
            .iter()
            .any(|l| l.num_sections != t.num_sections()));
        for y in (0..100_003u64).step_by(9_973) {
            assert_eq!(t.rank(&y), a.rank(&y), "rank mismatch at {y}");
        }
    }

    #[test]
    fn zero_section_level_is_rejected() {
        let mut s = sample_sketch();
        let good = s.to_bytes().to_vec();
        let mut off = num_levels_offset(&good);
        off += 4; // num_levels
        off += 8 * 3; // first level's counters
        let mut bad = good.clone();
        bad[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            ReqSketch::<u64>::from_bytes(&bad),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn pre_v3_versions_are_refused() {
        let mut s = sample_sketch();
        let mut bytes = s.to_bytes().to_vec();
        for version in [1u8, 2] {
            bytes[4] = version;
            match ReqSketch::<u64>::from_bytes(&bytes) {
                Err(ReqError::CorruptBytes(msg)) => {
                    assert!(msg.contains("unsupported version"), "{msg}")
                }
                other => panic!("v{version} bytes: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_geometry_is_rejected() {
        // `from_parts` reserves `2·k·s` slots per level up front, so each
        // of these must fail before it: a 2^31 `k` or a `u32::MAX` section
        // count would ask for terabytes.
        let mut s = sample_sketch();
        let good = s.to_bytes().to_vec();
        // magic, version, flags, FixedK policy tag + k, n, max_n
        let header_n = 4 + 1 + 1 + (1 + 4);
        let header_k = header_n + 8 + 8;
        assert_eq!(good[header_n..header_n + 8], 100_000u64.to_le_bytes());
        assert_eq!(good[header_k..header_k + 4], 12u32.to_le_bytes());
        // num_levels, then the first level's state, compactions, special
        let first_level_sections = num_levels_offset(&good) + 4 + 8 * 3;
        let le32 = |v: u32| v.to_le_bytes().to_vec();
        for (at, value) in [
            (header_k, le32(3)),
            (header_k, le32(1 << 31)),
            (header_k + 4, le32(u32::MAX)),
            (first_level_sections, le32(u32::MAX)),
            (first_level_sections, le32(MAX_SECTIONS + 1)),
            // A header `n` the levels do not weigh.
            (header_n, 99_999u64.to_le_bytes().to_vec()),
            (header_n, 100_001u64.to_le_bytes().to_vec()),
        ] {
            let mut bad = good.clone();
            bad[at..at + value.len()].copy_from_slice(&value);
            assert!(
                matches!(
                    ReqSketch::<u64>::from_bytes(&bad),
                    Err(ReqError::CorruptBytes(_))
                ),
                "value {value:?} at offset {at} accepted"
            );
        }
    }

    #[test]
    fn subnormal_epsilon_is_rejected_not_panicking() {
        // `params_for` on a decoded policy whose ε passes validation but
        // makes `1/ε` infinite must neither overflow nor match the header.
        let mut s = ReqSketch::<u64>::with_policy(
            ParamPolicy::deterministic(0.1, 1 << 20).unwrap(),
            RankAccuracy::LowRank,
            1,
        );
        s.update(7);
        let mut bad = s.to_bytes().to_vec();
        let eps = 4 + 1 + 1 + 1; // magic, version, flags, policy tag
        bad[eps..eps + 8].copy_from_slice(&f64::from_bits(1).to_le_bytes());
        assert!(matches!(
            ReqSketch::<u64>::from_bytes(&bad),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn string_packable_rejects_bad_utf8() {
        let mut out = BytesMut::new();
        out.put_u32_le(2);
        out.put_slice(&[0xFF, 0xFE]);
        let mut b = out.freeze();
        assert!(String::unpack(&mut b).is_err());
    }
}
