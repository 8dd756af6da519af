//! Parameter policies: how the section size `k` and the per-level buffer
//! capacity `B` are derived from the accuracy target and the (estimated)
//! stream length.
//!
//! The paper gives several settings of `k`, each proving a different theorem:
//!
//! | Policy | Paper | `k` | space bound |
//! |---|---|---|---|
//! | [`ParamPolicy::Streaming`] | Eq. (6), Thm 14 | `2⌈(4/ε)·√(ln(1/δ)/log₂(εn))⌉` | `O(ε⁻¹ log^1.5(εn) √log(1/δ))` |
//! | [`ParamPolicy::SmallDelta`] | Eq. (15), Thm 17 | `2⁴⌈ε⁻¹·log₂ ln(1/δ)⌉` | `O(ε⁻¹ log²(εn) loglog(1/δ))` |
//! | [`ParamPolicy::Deterministic`] | App. C end | `2⁴⌈ε⁻¹·log₂(εn)⌉` | `O(ε⁻¹ log³(εn))`, holds w.p. 1 |
//! | [`ParamPolicy::Mergeable`] | Eqs. (16)+(26), Thm 36 | `2⁵⌈k̂/√log₂(N/k̂)⌉`, `k̂ = ε⁻¹√ln(1/δ)` | `O(ε⁻¹ log^1.5(εn) √log(1/δ))`, fully mergeable, unknown `n` |
//! | [`ParamPolicy::FixedK`] | DataSketches practice | user-chosen even `k ≥ 4` | ε determined empirically, ∝ 1/k |
//!
//! In every case a level buffer holds `B = 2·k·s` items, where `s` is the
//! number of `k`-sized sections in the upper (compactable) half; the lower
//! `B/2` items of a buffer are never compacted. The mergeable policy reserves
//! one extra section (`s = ⌈log₂(N/k)⌉ + 1`, Eq. 16) for *special*
//! compactions performed when the stream-length estimate `N` is squared.
//!
//! The theory constants (`2⁴`, `2⁵`, `2⁸`) are kept verbatim; they are
//! pessimistic by design (they make the sub-Gaussian tail bounds go through).
//! [`ParamPolicy::mergeable_scaled`] exposes a documented constant multiplier
//! for experiments that sweep the *shape* of the space/accuracy trade-off.

use crate::error::ReqError;

/// Resolved per-level parameters for a given stream-length estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Section size `k` (even, ≥ 4).
    pub k: u32,
    /// Number of `k`-sized sections in the compactable half of a buffer.
    pub num_sections: u32,
}

impl Params {
    /// Level-buffer capacity `B = 2·k·num_sections`.
    pub fn capacity(&self) -> usize {
        2 * self.k as usize * self.num_sections as usize
    }
}

/// How sketch parameters are derived; see the module docs for the mapping to
/// the paper's theorems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamPolicy {
    /// Fully-mergeable, unknown stream length (paper Appendix D, Theorem 36).
    Mergeable {
        /// Relative-error target `ε ∈ (0, 1]`.
        eps: f64,
        /// Per-query failure probability `δ ∈ (0, 0.5]`.
        delta: f64,
        /// Constant multiplier on `k` and `N₀` (1.0 = paper constants).
        scale: f64,
    },
    /// Known (upper bound on) stream length, Eq. (6) / Theorem 14.
    Streaming {
        /// Relative-error target `ε ∈ (0, 1]`.
        eps: f64,
        /// Per-query failure probability `δ ∈ (0, 0.5]`.
        delta: f64,
        /// Upper bound on the stream length.
        n: u64,
    },
    /// Extremely small failure probability, Eq. (15) / Theorem 17.
    SmallDelta {
        /// Relative-error target `ε ∈ (0, 1]`.
        eps: f64,
        /// Per-query failure probability `δ ∈ (0, 0.5]` (may be astronomically small).
        delta: f64,
        /// Upper bound on the stream length.
        n: u64,
    },
    /// Deterministic guarantee (Appendix C, matching Zhang–Wang's
    /// `O(ε⁻¹ log³(εn))`). The guarantee holds for *every* outcome of the
    /// internal coin flips, so no derandomization of the coins is needed.
    Deterministic {
        /// Relative-error target `ε ∈ (0, 1]`.
        eps: f64,
        /// Upper bound on the stream length.
        n: u64,
    },
    /// Directly chosen section size (DataSketches-style practical mode);
    /// sections grow as `⌈log₂(N/k)⌉` when the length estimate `N` grows.
    FixedK {
        /// Section size: even, ≥ 4. DataSketches' default is 12.
        k: u32,
    },
}

/// Round `x` up to an even integer, at least `min` (which must be even).
fn even_at_least(x: f64, min: u32) -> u32 {
    debug_assert_eq!(min % 2, 0);
    // Clamp before rounding up: an infinite `x` (a decoded policy with a
    // subnormal ε) must not overflow.
    let c = x.max(0.0).ceil().min(f64::from(u32::MAX - 1)) as u32;
    (c + (c & 1)).max(min)
}

/// `⌈log₂(x)⌉` clamped below at `min`.
fn ceil_log2_at_least(x: f64, min: u32) -> u32 {
    if !x.is_finite() || x <= 1.0 {
        return min;
    }
    (x.log2().ceil() as u32).max(min)
}

fn check_eps(eps: f64) -> Result<(), ReqError> {
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(ReqError::InvalidParameter(format!(
            "epsilon must be in (0, 1], got {eps}"
        )));
    }
    Ok(())
}

fn check_delta(delta: f64) -> Result<(), ReqError> {
    if !(delta > 0.0 && delta <= 0.5) {
        return Err(ReqError::InvalidParameter(format!(
            "delta must be in (0, 0.5], got {delta}"
        )));
    }
    Ok(())
}

impl ParamPolicy {
    /// Fully-mergeable policy with the paper's constants (the default for
    /// production sketches).
    pub fn mergeable(eps: f64, delta: f64) -> Result<Self, ReqError> {
        Self::mergeable_scaled(eps, delta, 1.0)
    }

    /// Fully-mergeable policy with a constant multiplier on `k`/`N₀`.
    ///
    /// `scale = 1.0` reproduces Eqs. (16) and (26) verbatim. Smaller scales
    /// shrink the (pessimistic) theory constants while preserving the
    /// `ε⁻¹·log^1.5` shape; experiments E2–E5 use this to keep run times
    /// reasonable, and EXPERIMENTS.md reports the scale used.
    pub fn mergeable_scaled(eps: f64, delta: f64, scale: f64) -> Result<Self, ReqError> {
        check_eps(eps)?;
        check_delta(delta)?;
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ReqError::InvalidParameter(format!(
                "scale must be positive and finite, got {scale}"
            )));
        }
        Ok(ParamPolicy::Mergeable { eps, delta, scale })
    }

    /// Known-n streaming policy (Eq. 6).
    pub fn streaming(eps: f64, delta: f64, n: u64) -> Result<Self, ReqError> {
        check_eps(eps)?;
        check_delta(delta)?;
        if n == 0 {
            return Err(ReqError::InvalidParameter("n must be positive".into()));
        }
        Ok(ParamPolicy::Streaming { eps, delta, n })
    }

    /// Tiny-δ policy (Eq. 15).
    pub fn small_delta(eps: f64, delta: f64, n: u64) -> Result<Self, ReqError> {
        check_eps(eps)?;
        if !(delta > 0.0 && delta <= 0.5) {
            return Err(ReqError::InvalidParameter(format!(
                "delta must be in (0, 0.5], got {delta}"
            )));
        }
        if n == 0 {
            return Err(ReqError::InvalidParameter("n must be positive".into()));
        }
        Ok(ParamPolicy::SmallDelta { eps, delta, n })
    }

    /// Deterministic-guarantee policy (Appendix C).
    pub fn deterministic(eps: f64, n: u64) -> Result<Self, ReqError> {
        check_eps(eps)?;
        if n == 0 {
            return Err(ReqError::InvalidParameter("n must be positive".into()));
        }
        Ok(ParamPolicy::Deterministic { eps, n })
    }

    /// All-quantiles policy (Corollary 1 / Appendix B): the guarantee holds
    /// for **every** universe item simultaneously with probability `1 − δ`.
    ///
    /// Appendix B's construction runs the sketch with `ε' = ε/3` and
    /// `δ' = δ / |S*|`, where `S*` is the offline optimal ε/3-net of size
    /// `O(ε⁻¹·log(εn))`; a union bound over the net then covers all of `U`.
    /// Space grows only inside the square root:
    /// `O(ε⁻¹·log^1.5(εn)·√log(log(εn)/(εδ)))`.
    pub fn all_quantiles(eps: f64, delta: f64, n: u64) -> Result<Self, ReqError> {
        check_eps(eps)?;
        check_delta(delta)?;
        if n == 0 {
            return Err(ReqError::InvalidParameter("n must be positive".into()));
        }
        let eps_prime = eps / 3.0;
        // |S*| <= 2 * (3/eps) * (log2(eps n / 3) + 2): the Appendix A
        // construction with ell = 1/eps' (phase 0 stores 2*ell items, each
        // further phase at most ell + 1).
        let net_size = (2.0 / eps_prime) * ((eps_prime * n as f64).log2().max(1.0) + 2.0);
        let delta_prime = (delta / net_size).min(0.5);
        ParamPolicy::streaming(eps_prime, delta_prime, n)
    }

    /// Practical fixed-`k` policy; `k` must be even and at least 4.
    pub fn fixed_k(k: u32) -> Result<Self, ReqError> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(ReqError::InvalidParameter(format!(
                "k must be an even integer >= 4, got {k}"
            )));
        }
        Ok(ParamPolicy::FixedK { k })
    }

    /// The paper's `k̂` (Eq. 26) for the mergeable policy; `None` otherwise.
    pub fn khat(&self) -> Option<f64> {
        match self {
            ParamPolicy::Mergeable { eps, delta, scale } => {
                Some(scale * (1.0 / eps) * (1.0 / delta).ln().sqrt())
            }
            _ => None,
        }
    }

    /// Initial stream-length estimate `N₀`.
    ///
    /// * mergeable: `⌈2⁸·k̂⌉` (§D.1), scaled;
    /// * known-n policies: the user-provided `n`;
    /// * fixed-k: `8k` (three initial sections).
    pub fn initial_max_n(&self) -> u64 {
        match self {
            ParamPolicy::Mergeable { .. } => {
                let khat = self.khat().expect("mergeable policy has khat");
                ((256.0 * khat).ceil() as u64).max(64)
            }
            ParamPolicy::Streaming { n, .. }
            | ParamPolicy::SmallDelta { n, .. }
            | ParamPolicy::Deterministic { n, .. } => *n,
            ParamPolicy::FixedK { k } => 8 * *k as u64,
        }
    }

    /// Next stream-length estimate after overflow: `Nᵢ₊₁ = Nᵢ²` (§5, §D.1),
    /// saturating at `u64::MAX`.
    pub fn next_max_n(&self, current: u64) -> u64 {
        current.max(2).saturating_mul(current.max(2))
    }

    /// Resolve `(k, num_sections)` for stream-length estimate `max_n`.
    pub fn params_for(&self, max_n: u64) -> Params {
        let n = max_n.max(1) as f64;
        match *self {
            ParamPolicy::Mergeable { .. } => {
                let khat = self.khat().expect("mergeable policy has khat").max(1.0);
                // k(N) = 2^5 * ceil(khat / sqrt(log2(N / khat)))  (Eq. 16)
                let lg = (n / khat).log2().max(1.0);
                let k = even_at_least(32.0 * (khat / lg.sqrt()).ceil(), 4);
                // one extra section reserved for special compactions (Eq. 16)
                let num_sections = ceil_log2_at_least(n / k as f64, 1) + 1;
                Params { k, num_sections }
            }
            ParamPolicy::Streaming { eps, delta, .. } => {
                // k = 2 * ceil( (4/eps) * sqrt( ln(1/delta) / log2(eps n) ) )  (Eq. 6)
                let lg = (eps * n).log2().max(1.0);
                let v = (4.0 / eps) * ((1.0 / delta).ln() / lg).sqrt();
                let k = even_at_least(2.0 * v.ceil(), 4);
                let num_sections = ceil_log2_at_least(n / k as f64, 1);
                Params { k, num_sections }
            }
            ParamPolicy::SmallDelta { eps, delta, .. } => {
                // k = 2^4 * ceil( eps^-1 * log2 ln(1/delta) )  (Eq. 15)
                let loglog = (1.0 / delta).ln().log2().max(1.0);
                let k = even_at_least(16.0 * ((1.0 / eps) * loglog).ceil(), 4);
                let num_sections = ceil_log2_at_least(n / k as f64, 1);
                Params { k, num_sections }
            }
            ParamPolicy::Deterministic { eps, .. } => {
                // k = 2^4 * ceil( eps^-1 * log2(eps n) )  (App. C)
                let lg = (eps * n).log2().max(1.0);
                let k = even_at_least(16.0 * ((1.0 / eps) * lg).ceil(), 4);
                let num_sections = ceil_log2_at_least(n / k as f64, 1);
                Params { k, num_sections }
            }
            ParamPolicy::FixedK { k } => {
                let num_sections = ceil_log2_at_least(n / k as f64, 3);
                Params { k, num_sections }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_at_least_rounds_up_to_even() {
        assert_eq!(even_at_least(3.2, 4), 4);
        assert_eq!(even_at_least(4.0, 4), 4);
        assert_eq!(even_at_least(4.1, 4), 6);
        assert_eq!(even_at_least(5.0, 4), 6);
        assert_eq!(even_at_least(0.0, 4), 4);
        assert_eq!(even_at_least(-3.0, 4), 4);
    }

    #[test]
    fn ceil_log2_clamps() {
        assert_eq!(ceil_log2_at_least(0.5, 1), 1);
        assert_eq!(ceil_log2_at_least(8.0, 1), 3);
        assert_eq!(ceil_log2_at_least(9.0, 1), 4);
        assert_eq!(ceil_log2_at_least(8.0, 5), 5);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(ParamPolicy::mergeable(0.0, 0.1).is_err());
        assert!(ParamPolicy::mergeable(1.5, 0.1).is_err());
        assert!(ParamPolicy::mergeable(0.1, 0.0).is_err());
        assert!(ParamPolicy::mergeable(0.1, 0.6).is_err());
        assert!(ParamPolicy::mergeable_scaled(0.1, 0.1, 0.0).is_err());
        assert!(ParamPolicy::streaming(0.1, 0.1, 0).is_err());
        assert!(ParamPolicy::fixed_k(3).is_err());
        assert!(ParamPolicy::fixed_k(2).is_err());
        assert!(ParamPolicy::fixed_k(0).is_err());
        assert!(ParamPolicy::fixed_k(12).is_ok());
    }

    #[test]
    fn k_is_always_even_and_at_least_4() {
        let policies = [
            ParamPolicy::mergeable(0.01, 0.05).unwrap(),
            ParamPolicy::streaming(0.01, 0.05, 1 << 20).unwrap(),
            ParamPolicy::small_delta(0.01, 1e-12, 1 << 20).unwrap(),
            ParamPolicy::deterministic(0.01, 1 << 20).unwrap(),
            ParamPolicy::fixed_k(12).unwrap(),
        ];
        for p in &policies {
            for shift in [6u32, 10, 20, 30, 40] {
                let params = p.params_for(1u64 << shift);
                assert!(params.k >= 4, "{p:?} gave k={}", params.k);
                assert_eq!(params.k % 2, 0, "{p:?} gave odd k={}", params.k);
                assert!(params.num_sections >= 1);
                assert!(params.capacity() >= 2 * params.k as usize);
            }
        }
    }

    #[test]
    fn streaming_k_matches_eq6_by_hand() {
        // eps = 0.1, delta = e^-1 (ln(1/delta) = 1), n = 2^20 * 10 so that
        // eps*n = 2^20 exactly: log2(eps n) = 20.
        let eps = 0.1;
        let delta = (-1.0f64).exp();
        let n = 10 * (1u64 << 20);
        let p = ParamPolicy::streaming(eps, delta, n).unwrap();
        let params = p.params_for(n);
        // v = (4/0.1) * sqrt(1/20) = 40 * 0.2236 = 8.944..; k = 2*ceil(v) = 18.
        assert_eq!(params.k, 18);
    }

    #[test]
    fn deterministic_k_matches_appendix_c_by_hand() {
        // eps = 0.5, n = 2^11 * 2 => eps*n = 2^11, log2 = 11.
        let p = ParamPolicy::deterministic(0.5, 1 << 12).unwrap();
        let params = p.params_for(1 << 12);
        // k = 16 * ceil(2 * 11) = 16 * 22 = 352.
        assert_eq!(params.k, 352);
    }

    #[test]
    fn mergeable_k_shrinks_as_n_grows() {
        // Eq. (16): k(N) ∝ 1/sqrt(log2(N/khat)) — larger N, smaller k,
        // while the number of sections grows.
        let p = ParamPolicy::mergeable(0.05, 0.05).unwrap();
        let small = p.params_for(p.initial_max_n());
        let big = p.params_for(1u64 << 40);
        assert!(big.k <= small.k);
        assert!(big.num_sections > small.num_sections);
    }

    #[test]
    fn mergeable_reserves_extra_section() {
        let p = ParamPolicy::mergeable(0.05, 0.05).unwrap();
        let fixed = ParamPolicy::fixed_k(p.params_for(1 << 20).k).unwrap();
        let m = p.params_for(1 << 20);
        let f = fixed.params_for(1 << 20);
        // Same k by construction; mergeable has one more section.
        assert_eq!(m.k, f.k);
        assert_eq!(m.num_sections, f.num_sections + 1);
    }

    #[test]
    fn smaller_eps_means_bigger_k() {
        for (a, b) in [(0.1, 0.01), (0.05, 0.005)] {
            let pa = ParamPolicy::streaming(a, 0.05, 1 << 24).unwrap();
            let pb = ParamPolicy::streaming(b, 0.05, 1 << 24).unwrap();
            assert!(pb.params_for(1 << 24).k > pa.params_for(1 << 24).k);
        }
    }

    #[test]
    fn small_delta_policy_grows_doubly_logarithmically_in_delta() {
        let n = 1u64 << 24;
        let k1 = ParamPolicy::small_delta(0.01, 1e-3, n)
            .unwrap()
            .params_for(n)
            .k;
        let k2 = ParamPolicy::small_delta(0.01, 1e-24, n)
            .unwrap()
            .params_for(n)
            .k;
        // delta shrinking by 21 orders of magnitude should grow k by far
        // less than the 21x a log(1/δ) dependence would give.
        assert!(k2 > k1);
        assert!((k2 as f64) < (k1 as f64) * 4.0);
    }

    #[test]
    fn next_max_n_squares_and_saturates() {
        let p = ParamPolicy::fixed_k(12).unwrap();
        assert_eq!(p.next_max_n(100), 10_000);
        assert_eq!(p.next_max_n(1 << 20), 1 << 40);
        assert_eq!(p.next_max_n(u64::MAX / 2), u64::MAX);
        // degenerate inputs still grow
        assert!(p.next_max_n(0) > 0);
        assert!(p.next_max_n(1) > 1);
    }

    #[test]
    fn initial_max_n_mergeable_matches_d1() {
        // N0 = ceil(2^8 * khat), khat = eps^-1 sqrt(ln(1/delta)).
        let eps = 0.1;
        let delta = (-4.0f64).exp(); // ln(1/delta) = 4, sqrt = 2
        let p = ParamPolicy::mergeable(eps, delta).unwrap();
        assert_eq!(p.khat().unwrap(), 20.0);
        assert_eq!(p.initial_max_n(), 256 * 20);
    }

    #[test]
    fn fixed_k_sections_grow_with_n() {
        let p = ParamPolicy::fixed_k(12).unwrap();
        let s0 = p.params_for(p.initial_max_n()).num_sections;
        let s1 = p.params_for(1 << 30).num_sections;
        assert_eq!(s0, 3);
        assert!(s1 > s0);
        // k never changes for FixedK
        assert_eq!(p.params_for(1 << 30).k, 12);
    }

    #[test]
    fn all_quantiles_policy_inflates_modestly() {
        // Corollary 1: the simultaneous guarantee costs eps/3 and a
        // log-log-sized delta shrink — k grows by a small constant factor
        // over the single-query policy, not by a log(n) factor.
        let n = 1u64 << 20;
        let single = ParamPolicy::streaming(0.05, 0.05, n).unwrap();
        let all = ParamPolicy::all_quantiles(0.05, 0.05, n).unwrap();
        let k_single = single.params_for(n).k;
        let k_all = all.params_for(n).k;
        assert!(k_all > k_single);
        assert!(
            k_all < 8 * k_single,
            "all-quantiles k {k_all} vs single {k_single}"
        );
        // it resolves to a Streaming policy with eps/3
        match all {
            ParamPolicy::Streaming { eps, delta, .. } => {
                assert!((eps - 0.05 / 3.0).abs() < 1e-12);
                assert!(delta < 0.05 / 100.0);
            }
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn all_quantiles_rejects_bad_input() {
        assert!(ParamPolicy::all_quantiles(0.0, 0.1, 100).is_err());
        assert!(ParamPolicy::all_quantiles(0.1, 0.9, 100).is_err());
        assert!(ParamPolicy::all_quantiles(0.1, 0.1, 0).is_err());
    }

    #[test]
    fn scaled_mergeable_shrinks_constants() {
        let full = ParamPolicy::mergeable(0.02, 0.05).unwrap();
        let tenth = ParamPolicy::mergeable_scaled(0.02, 0.05, 0.1).unwrap();
        let n = 1u64 << 24;
        assert!(tenth.params_for(n).k < full.params_for(n).k);
        assert!(tenth.initial_max_n() < full.initial_max_n());
    }
}
