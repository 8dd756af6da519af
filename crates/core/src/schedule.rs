//! The derandomized-exponential compaction schedule (paper §2.1), and the
//! two *section-planning* schedules layered on top of it.
//!
//! Each relative-compactor keeps a *state* `C` counting performed compaction
//! operations. When the `C+1`-st compaction runs, it involves
//! `z(C) + 1` sections, where `z(C)` is the number of trailing ones in the
//! binary representation of `C` (Algorithm 1, lines 5–6). This deterministic
//! schedule has the crucial property (Fact 5) that between any two compactions
//! involving exactly `j` sections there is one involving more than `j`
//! sections, which is what lets each "important" compaction be charged to `k`
//! distinct low-ranked items (Lemma 6).
//!
//! Under merging (Algorithm 3), the states of the two input buffers are
//! combined with **bitwise OR**, which preserves the Fact 5 property along
//! every leaf-to-root path of the merge tree (paper Fact 18 / Fact 21).
//!
//! # Section planning: standard vs adaptive
//!
//! *How many* `k`-sized sections a buffer has is a separate question from
//! *which* of them the next compaction involves. The PODS 2021 paper sizes
//! every level identically from the global stream-length estimate `N`
//! (`s = ⌈log₂(N/k)⌉ (+1)`), squares `N` when the stream outgrows it, and
//! reconciles via *special compactions* — which is correct (Theorem 36) but
//! makes merged sketches over-compact relative to a single streamed sketch:
//! every merge that raises the estimate halves every non-top buffer, even
//! when the receiving buffers had plenty of schedule headroom.
//!
//! [`CompactionSchedule::Adaptive`] instead follows the *adaptive
//! compactors* of Domes & Veselý (*Relative Error Streaming Quantiles with
//! Seamless Mergeability via Adaptive Compactors*, arXiv:2511.17396): each
//! compactor tracks the number of items it has ever **absorbed** (`W`) and
//! re-plans its own section count `s(W) = max(s₀, ⌈log₂(W/k)⌉ + 1)`
//! ([`adaptive_num_sections`]) on every fill and on every merge. Because
//! absorbed counts are *additive* under merging (`W = W' + W''`, unlike the
//! squared estimate ladder), a sketch assembled by a merge tree of any shape
//! lands on the same per-level geometry as one that streamed the
//! concatenated input — growth happens by widening buffers in place, and
//! special compactions are never needed. The `+1` keeps the reserve-section
//! slack of Eq. (16), and `s(W) ≥ z(C) + 1` holds along any merge tree
//! because `C ≤ W/k` (every compaction removes at least `k` items —
//! Observation 20's argument, applied per compactor).

/// How a sketch plans per-level buffer geometry over its lifetime.
///
/// The schedule decides *how many sections* each buffer has and how that
/// number evolves under growth and merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompactionSchedule {
    /// The paper's fixed schedule: every level shares the policy-derived
    /// `(k, s)` for the current estimate `N`; outgrowing `N` squares it and
    /// special-compacts every non-top level (§5 / Appendix D).
    #[default]
    Standard,
    /// Adaptive compactors (arXiv:2511.17396): each level re-plans its own
    /// section count from the weight it has absorbed, on fill and on merge.
    /// Merge trees of any shape land on the same space–accuracy point as
    /// streaming the concatenated input, and no special compactions occur.
    Adaptive,
}

/// Section count an adaptive compactor plans for `absorbed` lifetime items
/// at section size `section_size`, floored at `floor` (the policy's initial
/// section count): `max(floor, ⌈log₂(absorbed / k)⌉ + 1)`.
///
/// Monotone in `absorbed`, so adaptive buffers only ever widen.
pub fn adaptive_num_sections(absorbed: u64, section_size: u32, floor: u32) -> u32 {
    let k = u64::from(section_size.max(1));
    let floor = floor.max(1);
    if absorbed <= k {
        return floor;
    }
    let ratio = absorbed.div_ceil(k);
    // ceil(log2(ratio)) for ratio >= 2.
    let ceil_log2 = 64 - (ratio - 1).leading_zeros();
    (ceil_log2 + 1).max(floor)
}

/// Compaction-schedule state of one relative-compactor (the paper's `C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionState(u64);

impl CompactionState {
    /// A fresh state: no compactions performed yet.
    pub fn new() -> Self {
        CompactionState(0)
    }

    /// Rebuild from a raw value (deserialization).
    pub fn from_raw(raw: u64) -> Self {
        CompactionState(raw)
    }

    /// Raw state value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// `z(C)`: number of trailing ones in the binary representation.
    pub fn trailing_ones(self) -> u32 {
        self.0.trailing_ones()
    }

    /// Number of sections the *next* compaction involves: `z(C) + 1`, capped
    /// at the number of available sections (Observation 20 guarantees the cap
    /// never binds for scheduled compactions, but we clamp defensively).
    pub fn sections_to_compact(self, num_sections: u32) -> u32 {
        (self.trailing_ones() + 1).min(num_sections.max(1))
    }

    /// Advance the state after a compaction (Algorithm 1 line 11 /
    /// Algorithm 3 line 44).
    pub fn increment(&mut self) {
        // 2^64 compactions are unreachable (each discards ≥ k ≥ 4 items).
        self.0 += 1;
    }

    /// Combine with the state of a merged-in buffer: bitwise OR
    /// (Algorithm 3 line 16).
    pub fn merge(&mut self, other: CompactionState) {
        self.0 |= other.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_ones_matches_definition() {
        assert_eq!(CompactionState::from_raw(0b0).trailing_ones(), 0);
        assert_eq!(CompactionState::from_raw(0b1).trailing_ones(), 1);
        assert_eq!(CompactionState::from_raw(0b10).trailing_ones(), 0);
        assert_eq!(CompactionState::from_raw(0b11).trailing_ones(), 2);
        assert_eq!(CompactionState::from_raw(0b0111).trailing_ones(), 3);
        assert_eq!(CompactionState::from_raw(0b1011).trailing_ones(), 2);
    }

    #[test]
    fn first_compaction_uses_one_section() {
        let s = CompactionState::new();
        assert_eq!(s.sections_to_compact(8), 1);
    }

    #[test]
    fn schedule_sequence_matches_paper_example() {
        // For C = 0, 1, 2, ... the number of compacted sections is
        // z(C) + 1 = 1, 2, 1, 3, 1, 2, 1, 4, ... (the ruler sequence).
        let mut s = CompactionState::new();
        let mut seq = Vec::new();
        for _ in 0..16 {
            seq.push(s.sections_to_compact(32));
            s.increment();
        }
        assert_eq!(seq, vec![1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5]);
    }

    #[test]
    fn sections_clamped_to_available() {
        // state 0b0111 -> z = 3 -> wants 4 sections, clamp to 2.
        let s = CompactionState::from_raw(0b0111);
        assert_eq!(s.sections_to_compact(2), 2);
        assert_eq!(s.sections_to_compact(0), 1); // degenerate: at least 1
    }

    /// Fact 5: between any two compactions that involve exactly `j` sections,
    /// there is at least one compaction involving more than `j` sections.
    #[test]
    fn fact_5_holds_over_long_schedule() {
        // 4096 steps need at most 13 trailing ones; 14 sections mean the
        // defensive clamp never binds, matching the paper's setting where
        // the buffer is sized so that z(C) < ⌈log2(n/k)⌉ (Observation 20).
        let sections = 14u32;
        let mut s = CompactionState::new();
        let mut last_seen: Vec<Option<usize>> = vec![None; sections as usize + 2];
        let mut history: Vec<u32> = Vec::new();
        for step in 0..4096usize {
            let j = s.sections_to_compact(sections);
            if let Some(prev) = last_seen[j as usize] {
                // Some compaction strictly between prev and step must exceed j.
                let exceeded = history[prev + 1..step].iter().any(|&jj| jj > j);
                assert!(
                    exceeded,
                    "Fact 5 violated for j={j} between steps {prev} and {step}"
                );
            }
            last_seen[j as usize] = Some(step);
            history.push(j);
            s.increment();
        }
    }

    /// Fact 18: after OR-merging, every 1-bit of either input is set, so a
    /// section "used" by either history stays used.
    #[test]
    fn merge_is_bitwise_or() {
        let mut a = CompactionState::from_raw(0b1010);
        let b = CompactionState::from_raw(0b0110);
        a.merge(b);
        assert_eq!(a.raw(), 0b1110);
    }

    /// Fact 19: OR of the states is at most their sum, which is what bounds
    /// the state by (items removed)/k along any merge tree (Observation 20).
    #[test]
    fn or_bounded_by_sum() {
        for x in 0..64u64 {
            for y in 0..64u64 {
                assert!((x | y) <= x + y);
            }
        }
    }

    #[test]
    fn adaptive_sections_match_formula_by_hand() {
        // W <= k: floor.
        assert_eq!(adaptive_num_sections(0, 32, 3), 3);
        assert_eq!(adaptive_num_sections(32, 32, 3), 3);
        // ceil(log2(W/k)) + 1: W = 6k -> ceil(log2 6) + 1 = 4.
        assert_eq!(adaptive_num_sections(192, 32, 3), 4);
        // W = 8k -> 3 + 1 = 4; W = 9k -> 4 + 1 = 5.
        assert_eq!(adaptive_num_sections(256, 32, 1), 4);
        assert_eq!(adaptive_num_sections(288, 32, 1), 5);
        // floor binds
        assert_eq!(adaptive_num_sections(256, 32, 7), 7);
    }

    #[test]
    fn adaptive_sections_are_monotone_in_absorbed() {
        let mut prev = 0;
        for w in 0..100_000u64 {
            let s = adaptive_num_sections(w, 8, 3);
            assert!(s >= prev, "shrank at W={w}");
            prev = s;
        }
    }

    /// `s(W) ≥ z(C) + 1`: the adaptive plan always keeps enough sections for
    /// the scheduled compaction it will face. Reaching state `C` requires at
    /// least `(C+1)·k` absorbed items (the buffer must fill — ≥ 2k items —
    /// before the first compaction, and each compaction removes ≥ k that must
    /// be replaced), and at that weight the plan covers `z(C) + 1` exactly.
    #[test]
    fn adaptive_sections_cover_the_schedule() {
        let k = 8u32;
        for c in 1..(1u64 << 14) {
            let min_absorbed = (c + 1) * u64::from(k);
            let s = adaptive_num_sections(min_absorbed, k, 1);
            let needed = CompactionState::from_raw(c).trailing_ones() + 1;
            assert!(
                s >= needed,
                "C={c}: planned {s} sections, schedule needs {needed}"
            );
        }
    }

    #[test]
    fn adaptive_sections_grow_one_step_per_weight_doubling() {
        let k = 16u32;
        // At W = k·2^j (exactly), s = j + 1; just above, j + 2.
        for j in 1..20u32 {
            let w = u64::from(k) << j;
            assert_eq!(adaptive_num_sections(w, k, 1), j + 1);
            assert_eq!(adaptive_num_sections(w + u64::from(k), k, 1), j + 2);
        }
    }
}
