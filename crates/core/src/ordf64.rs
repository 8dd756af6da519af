//! A totally ordered `f64` wrapper that compares as a plain `i64`.
//!
//! The REQ sketch is comparison-based: items only need a total order
//! (`T: Ord`). `f64` is not `Ord` because of NaN; [`OrdF64`](struct@OrdF64)
//! supplies the IEEE-754 `totalOrder` ordering (`f64::total_cmp`), under
//! which `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN`.
//!
//! # The stored key
//!
//! `f64::total_cmp` maps both operands to an `i64` key on every call and
//! compares the keys. `OrdF64` stores that key instead of the raw `f64`:
//! the bit pattern as an `i64`, with every bit but the sign flipped when
//! the sign is set. The map is its own inverse, so the `f64` comes back
//! bit for bit (NaN payloads included), and the derived `Ord`/`Eq` compare
//! keys, so every comparison in a sort, merge, compaction or view build is
//! one `i64` compare while the order stays exactly `total_cmp`. Equality
//! is bit equality (`-0.0 != +0.0`, a NaN equals the same NaN).
//!
//! Every encoder writes [`OrdF64::get`]`().to_bits()`, so sketch bytes,
//! WAL records, snapshots and `MERGE` parts hold the raw
//! `f64` bits, exactly as they did when the type stored the `f64` itself;
//! no format or version changed with the key.
//!
//! `OrdF64(v)` is a `const fn`, not a tuple constructor: the struct is
//! braced so its key stays private, and the function keeps the tuple
//! spelling that callers already use (`OrdF64(1.5)`, `.map(OrdF64)`).
//!
//! Use [`crate::ReqSketch`]`::<OrdF64>` (alias [`crate::ReqF64`]) for
//! floating-point streams; convenience methods accepting/returning plain
//! `f64` are provided on that alias:
//!
//! ```
//! use req_core::ReqF64;
//! use sketch_traits::QuantileSketch;
//!
//! let mut s = ReqF64::builder().k(16).seed(7).build_f64().unwrap();
//! for i in 0..10_000 {
//!     s.update_f64(i as f64 / 100.0);
//! }
//! let median = s.quantile_f64(0.5).unwrap();
//! assert!((median - 50.0).abs() < 5.0);
//! ```

use std::fmt;

/// `f64` with the IEEE-754 total order, usable as a sketch item type.
///
/// Holds the `total_cmp` key of the value (see the [module
/// docs](crate::ordf64)), so comparisons are integer compares; build one
/// with [`OrdF64(v)`](fn@OrdF64) or [`OrdF64::new`] and read the `f64`
/// back with [`OrdF64::get`]. The default is `+0.0`, whose key is `0`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrdF64 {
    key: i64,
}

/// Wrap a raw `f64`; the same as [`OrdF64::new`].
///
/// `OrdF64` was a tuple struct, and `OrdF64(v)` (or `.map(OrdF64)`) is
/// public API, so this function keeps that spelling working now that the
/// struct stores a key.
#[allow(non_snake_case)]
#[inline]
pub const fn OrdF64(v: f64) -> OrdF64 {
    OrdF64::new(v)
}

/// The `total_cmp` key map: flip every bit but the sign of a negative
/// value. It is its own inverse.
#[inline]
const fn flip(b: i64) -> i64 {
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

impl OrdF64 {
    /// Wrap a raw `f64`.
    #[inline]
    pub const fn new(v: f64) -> Self {
        OrdF64 {
            key: flip(v.to_bits() as i64),
        }
    }

    /// Unwrap to a raw `f64`, bit for bit the one that was wrapped.
    #[inline]
    pub const fn get(self) -> f64 {
        f64::from_bits(flip(self.key) as u64)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        OrdF64::new(v)
    }
}

impl From<OrdF64> for f64 {
    fn from(v: OrdF64) -> Self {
        v.get()
    }
}

impl fmt::Debug for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("OrdF64").field(&self.get()).finish()
    }
}

impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.get(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns at every edge of the order: ±0, ±∞, NaNs of both signs
    /// (quiet, signalling, nonzero payloads), subnormals, `MIN_POSITIVE`,
    /// `MAX` and their negations.
    fn specials() -> Vec<f64> {
        let mut bits = vec![
            0,
            1u64 << 63,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001,
            0x7ff8_dead_beef_0001,
            0x7fff_ffff_ffff_ffff,
            1,
            0x000f_ffff_ffff_ffff,
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            1.0f64.to_bits(),
            1.5f64.to_bits(),
        ];
        let negated: Vec<u64> = bits.iter().map(|b| b ^ (1 << 63)).collect();
        bits.extend(negated);
        bits.into_iter().map(f64::from_bits).collect()
    }

    fn assert_laws(a: f64, b: f64) {
        let (x, y) = (OrdF64(a), OrdF64(b));
        assert_eq!(x.cmp(&y), a.total_cmp(&b), "{a:?} vs {b:?}");
        assert_eq!(x.partial_cmp(&y), Some(a.total_cmp(&b)));
        assert_eq!(x == y, a.to_bits() == b.to_bits(), "{a:?} vs {b:?}");
    }

    #[test]
    fn key_order_is_total_cmp_on_special_values() {
        let s = specials();
        for &a in &s {
            for &b in &s {
                assert_laws(a, b);
            }
        }
    }

    #[test]
    fn get_returns_identical_bits_on_special_values() {
        for v in specials() {
            assert_eq!(OrdF64::new(v).get().to_bits(), v.to_bits());
            assert_eq!(f64::from(OrdF64::from(v)).to_bits(), v.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        #[test]
        fn key_order_is_total_cmp(a in any::<u64>(), b in any::<u64>()) {
            assert_laws(f64::from_bits(a), f64::from_bits(b));
        }

        #[test]
        fn get_returns_identical_bits(bits in any::<u64>()) {
            prop_assert_eq!(OrdF64::new(f64::from_bits(bits)).get().to_bits(), bits);
        }
    }

    #[test]
    fn total_order_handles_special_values() {
        let mut v = [
            OrdF64(f64::NAN),
            OrdF64(1.0),
            OrdF64(f64::NEG_INFINITY),
            OrdF64(-0.0),
            OrdF64(0.0),
            OrdF64(f64::INFINITY),
            OrdF64(-3.5),
        ];
        v.sort();
        let raw: Vec<f64> = v.iter().map(|x| x.get()).collect();
        assert_eq!(raw[0], f64::NEG_INFINITY);
        assert_eq!(raw[1], -3.5);
        assert!(raw[2] == 0.0 && raw[2].is_sign_negative());
        assert!(raw[3] == 0.0 && raw[3].is_sign_positive());
        assert_eq!(raw[4], 1.0);
        assert_eq!(raw[5], f64::INFINITY);
        assert!(raw[6].is_nan());
    }

    #[test]
    fn eq_is_total_cmp_eq() {
        assert_ne!(OrdF64(-0.0), OrdF64(0.0)); // total order distinguishes them
        assert_eq!(OrdF64(2.5), OrdF64(2.5));
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN)); // same-sign NaN equal
    }

    #[test]
    fn conversions_roundtrip() {
        let x: OrdF64 = 7.25.into();
        let y: f64 = x.into();
        assert_eq!(y, 7.25);
        assert_eq!(OrdF64::new(1.5).get(), 1.5);
        assert_eq!(OrdF64::default().get().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn display_matches_f64() {
        assert_eq!(OrdF64(3.5).to_string(), "3.5");
        assert_eq!(OrdF64(-0.0).to_string(), "-0");
        assert_eq!(OrdF64(f64::NAN).to_string(), "NaN");
        assert_eq!(OrdF64(f64::NEG_INFINITY).to_string(), "-inf");
    }

    #[test]
    fn debug_prints_the_tuple_form() {
        assert_eq!(format!("{:?}", OrdF64(1.5)), "OrdF64(1.5)");
        assert_eq!(format!("{:?}", OrdF64(-0.0)), "OrdF64(-0.0)");
        assert_eq!(format!("{:?}", [OrdF64(f64::NAN)]), "[OrdF64(NaN)]");
        assert_eq!(format!("{:#?}", OrdF64(2.0)), "OrdF64(\n    2.0,\n)");
    }

    #[test]
    fn the_tuple_spelling_is_a_const_fn() {
        const ONE: OrdF64 = OrdF64(1.0);
        const HALF: f64 = OrdF64::new(0.5).get();
        assert_eq!(ONE.get(), 1.0);
        assert_eq!(HALF, 0.5);
    }
}
