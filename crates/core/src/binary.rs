//! The one byte codec: [`Packable`] values, and the sketch format built
//! from them.
//!
//! Every binary layout in the workspace — this sketch format and the
//! service's wire messages, WAL records and snapshot files — is a sequence
//! of [`Packable`] values, usually inside a [`crate::frame`] frame, and
//! follows one set of rules:
//!
//! * integers and `f64` bits are little-endian;
//! * a vector is a `u32` count, then its items ([`pack_counted`]); a
//!   string is the vector of its UTF-8 bytes;
//! * an `Option` is a presence byte, then the value; a `bool` is a byte;
//! * decoding is strict: a presence or bool byte other than 0/1, an
//!   unknown tag or a nonzero reserved field is [`ReqError::CorruptBytes`],
//!   and a declared count is checked against the remaining bytes, at
//!   [`Packable::MIN_PACKED_LEN`] per item, before anything is allocated.
//!
//! So whatever decodes re-encodes to the bytes it came from. A struct that
//! is just its fields in order declares them once with
//! [`packable_struct!`](crate::packable_struct); an enum that is a tag
//! byte, then its variant's fields in order, declares its tags once with
//! [`packable_enum!`](crate::packable_enum).
//!
//! Decoders read a borrowed cursor, `&mut &[u8]`: each read advances the
//! slice past what it consumed, and no input is copied before it is
//! decoded. The rule above is unchanged: a count is checked before
//! anything is allocated for it.
//!
//! ## Sketch format, version 3
//!
//! The only version written or read:
//!
//! ```text
//! magic "REQ1" | version u8 = 3
//! flags u8 (bit0 = high-rank accuracy, bit1 = adaptive schedule)
//! policy tag u8 + policy payload
//! n u64 | max_n u64 | k u32 | num_sections u32 | reseed u64
//! min item Option<T> | max item Option<T>
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
//! Each level's items are encoded by [`Packable::pack_slice`] and, once
//! their count has been checked, decoded by [`Packable::unpack_runs`]
//! straight into the level's arena slot. Versions 1 and 2 predate the
//! service and no deployment wrote them; their bytes fail with
//! [`ReqError::CorruptBytes`].
//!
//! Untrusted input is validated before anything is sized from it, and a
//! field no writer produces is rejected as corrupt: flags bits 2–7 set; a
//! header `k` other than the policy's `k` for `max_n`; a `max_n` other
//! than the first estimate on the policy's ladder covering `n`; a section
//! count outside `1..=65`; a header `n` other than the levels' weight
//! `Σ_h 2^h·len_h`; a declared run that is not sorted; a level `state`
//! above `max_n / k` (Observation 20) or an `absorbed · 2^h` above `n`.
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
use crate::sketch::{covering_max_n, ReqSketch};

const MAGIC: &[u8; 4] = b"REQ1";
/// The one version written and read. See the module docs.
const VERSION: u8 = 3;
/// The most sections any level can plan for a `u64` stream: `⌈log₂ n⌉ + 1`
/// (what [`crate::schedule::adaptive_num_sections`] and
/// [`ParamPolicy::params_for`] can return). A larger count is corruption.
const MAX_SECTIONS: u32 = 65;
/// Flags bits a writer may set: high-rank accuracy and the adaptive
/// schedule.
const KNOWN_FLAGS: u8 = 0b11;

/// A value with a binary encoding. See the module docs for the rules
/// every implementation follows.
pub trait Packable: Sized {
    /// The fewest bytes one value's encoding takes. Decoders check a
    /// declared count of `c` values against `c · MIN_PACKED_LEN`
    /// remaining bytes before allocating for them.
    const MIN_PACKED_LEN: usize = 1;

    /// Append this value's encoding to `out`.
    fn pack(&self, out: &mut BytesMut);

    /// Decode one value, advancing `input` past the bytes it consumed.
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError>;

    /// Append the encodings of `items`, in order, with no count. The
    /// default packs one item at a time.
    fn pack_slice(items: &[Self], out: &mut BytesMut) {
        for item in items {
            item.pack(out);
        }
    }

    /// Decode `count` values, handing them to `sink` in order, a run of
    /// consecutive values at a time. The default hands over one value at a
    /// time. A caller that allocates for the values checks `count` against
    /// the remaining bytes first.
    fn unpack_runs(
        input: &mut &[u8],
        count: usize,
        mut sink: impl FnMut(&[Self]),
    ) -> Result<(), ReqError> {
        for _ in 0..count {
            sink(&[Self::unpack(input)?]);
        }
        Ok(())
    }

    /// Decode `count` values. The default checks `count` against the
    /// remaining bytes, then unpacks one item at a time.
    fn unpack_slice(input: &mut &[u8], count: usize) -> Result<Vec<Self>, ReqError> {
        check_remaining(input, count.saturating_mul(Self::MIN_PACKED_LEN))?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::unpack(input)?);
        }
        Ok(items)
    }
}

/// Fail unless at least `n` bytes remain in `input`.
fn check_remaining(input: &[u8], n: usize) -> Result<(), ReqError> {
    if input.remaining() < n {
        Err(ReqError::CorruptBytes(format!(
            "need {n} more bytes, have {}",
            input.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Append `items` in the `Vec<T>` layout — a `u32` count, then the items —
/// from a borrowed slice.
pub fn pack_counted<T: Packable>(items: &[T], out: &mut BytesMut) {
    out.put_u32_le(items.len() as u32);
    T::pack_slice(items, out);
}

/// Decode `input` with `decode`, which must consume all of it: trailing
/// bytes are corrupt.
pub fn unpack_whole<'a, T>(
    mut input: &'a [u8],
    decode: impl FnOnce(&mut &'a [u8]) -> Result<T, ReqError>,
) -> Result<T, ReqError> {
    let value = decode(&mut input)?;
    if input.has_remaining() {
        return Err(ReqError::CorruptBytes(format!(
            "{} trailing bytes",
            input.remaining()
        )));
    }
    Ok(value)
}

/// Implement [`Packable`] for a struct as its fields, in the order
/// listed — one declaration serves both directions. The calling crate
/// must depend on `bytes`.
///
/// ```
/// # use req_core::packable_struct;
/// #[derive(Debug, PartialEq)]
/// struct Cursor {
///     gen: u64,
///     sealed: bool,
/// }
/// packable_struct!(Cursor { gen, sealed });
///
/// use req_core::binary::Packable;
/// let mut out = bytes::BytesMut::new();
/// Cursor { gen: 7, sealed: true }.pack(&mut out);
/// let back = Cursor::unpack(&mut &out[..]).unwrap();
/// assert_eq!(back, Cursor { gen: 7, sealed: true });
/// ```
#[macro_export]
macro_rules! packable_struct {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::binary::Packable for $t {
            fn pack(&self, out: &mut ::bytes::BytesMut) {
                $($crate::binary::Packable::pack(&self.$field, out);)+
            }
            fn unpack(input: &mut &[u8]) -> ::core::result::Result<Self, $crate::ReqError> {
                ::core::result::Result::Ok(Self {
                    $($field: $crate::binary::Packable::unpack(input)?,)+
                })
            }
        }
    };
}

/// Implement [`Packable`] for an enum from one table of its tags: each
/// row names a tag byte, a variant and the variant's fields. `pack` writes
/// the tag, then the fields in the order listed; `unpack` reads them back,
/// and a tag the table does not list is
/// `CorruptBytes("unknown <what> tag <N>")`. A tuple variant's fields are
/// listed as names to bind them to. The calling crate must depend on
/// `bytes`.
///
/// ```
/// # use req_core::{packable_enum, ReqError};
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle { r: u32 },
///     Pair(u8, u8),
/// }
/// packable_enum!(Shape, "shape" {
///     1 => Dot,
///     2 => Circle { r },
///     4 => Pair(a, b),
/// });
///
/// use req_core::binary::{unpack_whole, Packable};
/// let mut out = bytes::BytesMut::new();
/// Shape::Pair(5, 6).pack(&mut out);
/// assert_eq!(out[..], [4, 5, 6]);
/// assert_eq!(unpack_whole(&out, Shape::unpack).unwrap(), Shape::Pair(5, 6));
/// // Tag 3 is not in the table.
/// assert!(matches!(
///     unpack_whole(&[3, 0, 0, 0, 0], Shape::unpack),
///     Err(ReqError::CorruptBytes(msg)) if msg == "unknown shape tag 3"
/// ));
/// ```
#[macro_export]
macro_rules! packable_enum {
    ($t:ty, $what:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident),+ $(,)? })?
            $(( $($pos:ident),+ $(,)? ))?),+ $(,)?
    }) => {
        impl $crate::binary::Packable for $t {
            #[inline]
            fn pack(&self, out: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))? => {
                        <u8 as $crate::binary::Packable>::pack(&$tag, out);
                        $($($crate::binary::Packable::pack($field, out);)+)?
                        $($($crate::binary::Packable::pack($pos, out);)+)?
                    })+
                }
            }
            #[inline]
            fn unpack(input: &mut &[u8]) -> ::core::result::Result<Self, $crate::ReqError> {
                match <u8 as $crate::binary::Packable>::unpack(input)? {
                    $($tag => {
                        $($(let $field = $crate::binary::Packable::unpack(input)?;)+)?
                        $($(let $pos = $crate::binary::Packable::unpack(input)?;)+)?
                        ::core::result::Result::Ok(
                            Self::$variant $({ $($field),+ })? $(( $($pos),+ ))?
                        )
                    })+
                    other => ::core::result::Result::Err($crate::ReqError::CorruptBytes(
                        ::std::format!(::core::concat!("unknown ", $what, " tag {}"), other),
                    )),
                }
            }
        }
    };
}

macro_rules! packable_int {
    ($t:ty, $put:ident, $get:ident, $size:expr) => {
        impl Packable for $t {
            const MIN_PACKED_LEN: usize = $size;
            fn pack(&self, out: &mut BytesMut) {
                out.$put(*self);
            }
            fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
                check_remaining(input, $size)?;
                Ok(input.$get())
            }
        }
    };
}

packable_int!(u16, put_u16_le, get_u16_le, 2);
packable_int!(u32, put_u32_le, get_u32_le, 4);
packable_int!(i32, put_i32_le, get_i32_le, 4);

/// The 8-byte types: one value is its `u64` image, little-endian. Slices
/// encode through a stack block of 64 and decode through a stack block of
/// 256, each block handed on in one append: to an exact-capacity `Vec`
/// ([`Packable::unpack_slice`]) or to a level's arena slot (the sketch
/// decode). At 64 items a block, the appends made a 15,000-item sketch's
/// decode about 10% slower. The decode loop stays out of line: inlined
/// into the sketch decode, it made that decode about 1.2x slower.
macro_rules! packable_le8 {
    ($t:ty, $to_bits:expr, $from_bits:expr) => {
        impl Packable for $t {
            const MIN_PACKED_LEN: usize = 8;
            fn pack(&self, out: &mut BytesMut) {
                out.put_u64_le($to_bits(*self));
            }
            fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
                check_remaining(input, 8)?;
                Ok($from_bits(input.get_u64_le()))
            }
            fn pack_slice(items: &[Self], out: &mut BytesMut) {
                let mut block = [0u8; 8 * 64];
                for chunk in items.chunks(64) {
                    let bytes = &mut block[..8 * chunk.len()];
                    for (dst, item) in bytes.chunks_exact_mut(8).zip(chunk) {
                        dst.copy_from_slice(&$to_bits(*item).to_le_bytes());
                    }
                    out.put_slice(bytes);
                }
            }
            #[inline(never)]
            fn unpack_runs(
                input: &mut &[u8],
                count: usize,
                mut sink: impl FnMut(&[Self]),
            ) -> Result<(), ReqError> {
                let len = count.saturating_mul(8);
                check_remaining(input, len)?;
                let mut block = [$from_bits(0); 256];
                for bytes in input[..len].chunks(8 * 256) {
                    let run = &mut block[..bytes.len() / 8];
                    for (dst, b) in run.iter_mut().zip(bytes.chunks_exact(8)) {
                        *dst = $from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk")));
                    }
                    sink(run);
                }
                input.advance(len);
                Ok(())
            }
            fn unpack_slice(input: &mut &[u8], count: usize) -> Result<Vec<Self>, ReqError> {
                check_remaining(input, count.saturating_mul(8))?;
                let mut items = Vec::with_capacity(count);
                Self::unpack_runs(input, count, |run| items.extend_from_slice(run))?;
                Ok(items)
            }
        }
    };
}

packable_le8!(u64, |v: u64| v, |b: u64| b);
packable_le8!(i64, |v: i64| v as u64, |b: u64| b as i64);
packable_le8!(f64, f64::to_bits, f64::from_bits);
packable_le8!(OrdF64, |v: OrdF64| v.get().to_bits(), |b: u64| OrdF64(
    f64::from_bits(b)
));

impl Packable for u8 {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u8(*self);
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        check_remaining(input, 1)?;
        Ok(input.get_u8())
    }
    fn pack_slice(items: &[Self], out: &mut BytesMut) {
        out.put_slice(items);
    }
    fn unpack_slice(input: &mut &[u8], count: usize) -> Result<Vec<Self>, ReqError> {
        check_remaining(input, count)?;
        let items = input.chunk()[..count].to_vec();
        input.advance(count);
        Ok(items)
    }
}

impl Packable for bool {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u8(u8::from(*self));
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        match u8::unpack(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ReqError::CorruptBytes(format!("bad bool byte {other}"))),
        }
    }
}

impl<T: Packable> Packable for Option<T> {
    fn pack(&self, out: &mut BytesMut) {
        match self {
            Some(v) => {
                out.put_u8(1);
                v.pack(out);
            }
            None => out.put_u8(0),
        }
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        match u8::unpack(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(input)?)),
            other => Err(ReqError::CorruptBytes(format!("bad presence byte {other}"))),
        }
    }
}

impl<T: Packable> Packable for Vec<T> {
    const MIN_PACKED_LEN: usize = 4;
    fn pack(&self, out: &mut BytesMut) {
        pack_counted(self, out);
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        let count = u32::unpack(input)? as usize;
        T::unpack_slice(input, count)
    }
}

impl<A: Packable, B: Packable> Packable for (A, B) {
    const MIN_PACKED_LEN: usize = A::MIN_PACKED_LEN + B::MIN_PACKED_LEN;
    fn pack(&self, out: &mut BytesMut) {
        self.0.pack(out);
        self.1.pack(out);
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        Ok((A::unpack(input)?, B::unpack(input)?))
    }
}

impl Packable for String {
    const MIN_PACKED_LEN: usize = 4;
    fn pack(&self, out: &mut BytesMut) {
        pack_counted(self.as_bytes(), out);
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        String::from_utf8(Vec::<u8>::unpack(input)?)
            .map_err(|e| ReqError::CorruptBytes(format!("invalid utf8 string: {e}")))
    }
}

fn pack_policy(policy: &ParamPolicy, out: &mut BytesMut) {
    match *policy {
        ParamPolicy::Mergeable { eps, delta, scale } => {
            out.put_u8(0);
            eps.pack(out);
            delta.pack(out);
            scale.pack(out);
        }
        ParamPolicy::Streaming { eps, delta, n } => {
            out.put_u8(1);
            eps.pack(out);
            delta.pack(out);
            n.pack(out);
        }
        ParamPolicy::SmallDelta { eps, delta, n } => {
            out.put_u8(2);
            eps.pack(out);
            delta.pack(out);
            n.pack(out);
        }
        ParamPolicy::Deterministic { eps, n } => {
            out.put_u8(3);
            eps.pack(out);
            n.pack(out);
        }
        ParamPolicy::FixedK { k } => {
            out.put_u8(4);
            k.pack(out);
        }
    }
}

fn unpack_policy(input: &mut &[u8]) -> Result<ParamPolicy, ReqError> {
    let policy = match u8::unpack(input)? {
        0 => ParamPolicy::mergeable_scaled(
            f64::unpack(input)?,
            f64::unpack(input)?,
            f64::unpack(input)?,
        ),
        1 => ParamPolicy::streaming(
            f64::unpack(input)?,
            f64::unpack(input)?,
            u64::unpack(input)?,
        ),
        2 => ParamPolicy::small_delta(
            f64::unpack(input)?,
            f64::unpack(input)?,
            u64::unpack(input)?,
        ),
        3 => ParamPolicy::deterministic(f64::unpack(input)?, u64::unpack(input)?),
        4 => ParamPolicy::fixed_k(u32::unpack(input)?),
        other => {
            return Err(ReqError::CorruptBytes(format!(
                "unknown policy tag {other}"
            )))
        }
    };
    policy.map_err(|e| ReqError::CorruptBytes(e.to_string()))
}

impl<T: Ord + Clone + Packable> ReqSketch<T> {
    /// Serialize into the versioned binary format. The encoding carries a
    /// fresh seed drawn from the sketch's RNG, so a sketch decoded from it
    /// flips different coins than this one goes on to flip.
    pub fn to_bytes(&mut self) -> Bytes {
        let reseed: u64 = self.rng.gen();
        self.encode(reseed)
    }

    /// The bytes [`Self::to_bytes`] would produce now, without advancing
    /// this sketch's RNG: the reseed is drawn from a copy of it.
    pub(crate) fn to_bytes_unperturbed(&self) -> Bytes {
        self.encode(self.rng.clone().gen())
    }

    fn encode(&self, reseed: u64) -> Bytes {
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
        self.n.pack(&mut out);
        self.max_n.pack(&mut out);
        self.k.pack(&mut out);
        self.num_sections.pack(&mut out);
        reseed.pack(&mut out);
        self.min_item.pack(&mut out);
        self.max_item.pack(&mut out);
        (self.levels.len() as u32).pack(&mut out);
        for level in &self.levels {
            level.state().raw().pack(&mut out);
            level.num_compactions().pack(&mut out);
            level.num_special_compactions().pack(&mut out);
            level.num_sections().pack(&mut out);
            level.absorbed().pack(&mut out);
            (level.run_len(&self.arena) as u32).pack(&mut out);
            pack_counted(level.items(&self.arena), &mut out);
        }
        out.freeze()
    }

    /// Deserialize from [`ReqSketch::to_bytes`] output.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ReqError> {
        unpack_whole(data, Self::unpack_sketch)
    }

    fn unpack_sketch(input: &mut &[u8]) -> Result<Self, ReqError> {
        if input.chunk().get(..MAGIC.len()) != Some(&MAGIC[..]) {
            return Err(ReqError::CorruptBytes("bad magic".into()));
        }
        input.advance(MAGIC.len());
        let version = u8::unpack(input)?;
        if version != VERSION {
            return Err(ReqError::CorruptBytes(format!(
                "unsupported version {version}"
            )));
        }
        let flags = u8::unpack(input)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(ReqError::CorruptBytes(format!(
                "unknown flags {flags:#04x}"
            )));
        }
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
        let policy = unpack_policy(input)?;
        let n = u64::unpack(input)?;
        let max_n = u64::unpack(input)?;
        let k = u32::unpack(input)?;
        let num_sections = u32::unpack(input)?;
        // Every writer moves `k` together with `max_n` (construction,
        // growth, merge), so any other `k` is corruption — and would size
        // every level's reservation.
        let policy_k = policy.params_for(max_n).k;
        if k != policy_k || num_sections == 0 || num_sections > MAX_SECTIONS {
            return Err(ReqError::CorruptBytes(format!(
                "invalid geometry k={k} (policy gives {policy_k}) sections={num_sections}"
            )));
        }
        // Every writer keeps `max_n` at the first estimate on its ladder
        // that covers `n`; a merge relies on that ladder.
        let ladder_max_n = covering_max_n(&policy, schedule, policy.initial_max_n(), n);
        if max_n != ladder_max_n {
            return Err(ReqError::CorruptBytes(format!(
                "max_n {max_n} is not the estimate covering n={n} ({ladder_max_n})"
            )));
        }
        let max_state = max_n / u64::from(k);
        let reseed = u64::unpack(input)?;
        let min_item = Option::<T>::unpack(input)?;
        let max_item = Option::<T>::unpack(input)?;
        let num_levels = u32::unpack(input)? as usize;
        if num_levels > 64 {
            return Err(ReqError::CorruptBytes(format!(
                "implausible level count {num_levels}"
            )));
        }
        let mut arena = crate::arena::LevelArena::new();
        let mut levels = Vec::with_capacity(num_levels);
        let mut weight = 0u128;
        for h in 0..num_levels {
            let state = u64::unpack(input)?;
            let compactions = u64::unpack(input)?;
            let special = u64::unpack(input)?;
            let level_sections = u32::unpack(input)?;
            let absorbed = u64::unpack(input)?;
            let run_len = u32::unpack(input)? as usize;
            if level_sections == 0 || level_sections > MAX_SECTIONS {
                return Err(ReqError::CorruptBytes(format!(
                    "level declares {level_sections} sections"
                )));
            }
            // Observation 20 bounds every schedule state by N/k, and each
            // absorbed item at level h stands for 2^h stream items.
            if state > max_state || u128::from(absorbed) << h > u128::from(n) {
                return Err(ReqError::CorruptBytes(format!(
                    "level {h} state {state} (max {max_state}) or absorbed {absorbed} \
                     exceeds what n={n} allows"
                )));
            }
            // The level's count is checked against the bytes left before its
            // slot is sized from it; the items then decode straight into it.
            let len = u32::unpack(input)? as usize;
            check_remaining(input, len.saturating_mul(T::MIN_PACKED_LEN))?;
            if run_len > len {
                return Err(ReqError::CorruptBytes(format!(
                    "run_len {run_len} exceeds level len {len}"
                )));
            }
            let slot = arena.add_level(len);
            T::unpack_runs(input, len, |run| arena.extend_from_slice(slot, run))?;
            arena.set_run_len(slot, run_len);
            let level = RelativeCompactor::from_parts(
                &mut arena,
                slot,
                k,
                level_sections,
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
        // num_levels, then the first level's state, compactions, special,
        // sections and absorbed
        let first_level_state = num_levels_offset(&good) + 4;
        let first_level_sections = first_level_state + 8 * 3;
        let first_level_absorbed = first_level_sections + 4;
        let max_state =
            u64::from_le_bytes(good[header_n + 8..header_n + 16].try_into().unwrap()) / 12;
        let le32 = |v: u32| v.to_le_bytes().to_vec();
        for (at, value) in [
            // Flags bits no writer sets.
            (4 + 1, vec![good[5] | 0x04]),
            (4 + 1, vec![good[5] | 0x80]),
            // A schedule state above N/k (Observation 20).
            (first_level_state, (max_state + 1).to_le_bytes().to_vec()),
            // More absorbed weight at level 0 than the stream holds.
            (first_level_absorbed, 100_001u64.to_le_bytes().to_vec()),
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
    fn slice_codecs_match_the_per_item_loop() {
        fn check<T: Packable + Clone + PartialEq + std::fmt::Debug>(items: &[T]) {
            let mut sliced = BytesMut::new();
            T::pack_slice(items, &mut sliced);
            let mut looped = BytesMut::new();
            for item in items {
                item.pack(&mut looped);
            }
            assert_eq!(sliced, looped);
            let mut input = &sliced[..];
            assert_eq!(T::unpack_slice(&mut input, items.len()).unwrap(), items);
            assert!(!input.has_remaining());
            // The sketch decode: runs appended to a level's arena slot.
            let mut arena = crate::arena::LevelArena::new();
            let slot = arena.add_level(items.len());
            let mut input = &sliced[..];
            T::unpack_runs(&mut input, items.len(), |run| {
                arena.extend_from_slice(slot, run)
            })
            .unwrap();
            assert_eq!(arena.items(slot), items);
            assert!(!input.has_remaining());
        }
        // Empty, one item, either side of one 256-item decode block, and a
        // count that is a multiple of neither block (64 items encode).
        for count in [0u64, 1, 255, 256, 257, 600] {
            let raw: Vec<u64> = (0..count)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            check(&raw);
            check(&raw.iter().map(|&b| b as i64).collect::<Vec<_>>());
            check(
                &raw.iter()
                    .map(|&b| OrdF64(f64::from_bits(b)))
                    .collect::<Vec<_>>(),
            );
            check(&raw.iter().map(|&b| b as u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn strict_decoding_rejects_bytes_no_writer_produces() {
        assert!(bool::unpack(&mut &[2][..]).is_err());
        assert!(Option::<u8>::unpack(&mut &[2, 0][..]).is_err());
        assert_eq!(Option::<u8>::unpack(&mut &[1, 9][..]).unwrap(), Some(9));
        // A count the remaining bytes cannot hold fails before allocating.
        let mut huge = BytesMut::new();
        u32::MAX.pack(&mut huge);
        0u64.pack(&mut huge);
        assert!(Vec::<u64>::unpack(&mut &huge[..]).is_err());
        assert!(unpack_whole(&[1, 0], bool::unpack).is_err());
        assert!(unpack_whole(&[1], bool::unpack).unwrap());
    }

    #[test]
    fn string_packable_rejects_bad_utf8() {
        let mut out = BytesMut::new();
        out.put_u32_le(2);
        out.put_slice(&[0xFF, 0xFE]);
        assert!(String::unpack(&mut &out[..]).is_err());
    }
}
