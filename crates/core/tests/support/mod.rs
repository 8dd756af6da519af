//! Test oracles shared by this crate's integration tests.
//!
//! * [`RefCompactor`] is Algorithm 1 as the paper states it: one plain
//!   buffer, sorted whole on every compaction, the protected items kept and
//!   every other compacted item emitted from the coin's offset
//!   (Observation 4). `RelativeCompactor`'s sorted runs, warm run and arena
//!   kernels must compact exactly the same items (`tests/compactor.rs`).
//! * [`Boxed`] is a `u64` behind a `Box`, an item type with drop glue. A
//!   `ReqSketch<Boxed>` therefore runs the compactor's safe `Vec` lane,
//!   which shares none of the arena kernels or the warm-run logic of
//!   `ReqSketch<u64>`, and it packs the same 8 bytes as `u64`. After
//!   `canonicalize` the two sketches' bytes compare directly
//!   (`tests/properties.rs`, and the repository root's
//!   `tests/properties.rs`, which includes this module by path).

// Each test binary uses one of the two oracles.
#![allow(dead_code)]

use bytes::{BufMut, BytesMut};

use req_core::binary::Packable;
use req_core::compactor::CompactionOutcome;
use req_core::schedule::{adaptive_num_sections, CompactionState};
use req_core::{RankAccuracy, ReqError};

/// A relative-compactor that keeps no order between compactions and sorts
/// its whole buffer each time it compacts.
#[derive(Debug, Clone)]
pub struct RefCompactor {
    pub items: Vec<u64>,
    pub state: CompactionState,
    pub k: u32,
    pub sections: u32,
    pub absorbed: u64,
}

impl RefCompactor {
    pub fn new(k: u32, sections: u32) -> Self {
        RefCompactor {
            items: Vec::new(),
            state: CompactionState::new(),
            k,
            sections,
            absorbed: 0,
        }
    }

    /// `B = 2·k·s`.
    pub fn capacity(&self) -> usize {
        2 * self.k as usize * self.sections as usize
    }

    /// Raw pushes and sorted runs from the level below alike: the buffer is
    /// a multiset here.
    pub fn push_slice(&mut self, xs: &[u64]) {
        self.absorbed += xs.len() as u64;
        self.items.extend_from_slice(xs);
    }

    /// Algorithm 3 lines 16–18: OR the states, add the absorbed weights,
    /// concatenate the buffers.
    pub fn absorb(&mut self, other: RefCompactor) {
        self.state.merge(other.state);
        self.absorbed += other.absorbed;
        self.items.extend(other.items);
    }

    /// Scheduled compaction of the top `(z(C) + 1)·k` items. The caller
    /// holds at least `B` items.
    pub fn compact_scheduled(
        &mut self,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<u64>,
    ) -> CompactionOutcome {
        let sections = self.state.sections_to_compact(self.sections);
        let protect = self.capacity() - sections as usize * self.k as usize;
        assert!(self.items.len() > protect, "scheduled compaction below B");
        let outcome = self.compact_above(protect, acc, coin, out, sections);
        self.state.increment();
        outcome
    }

    /// Special compaction of everything above `B/2`; `None` when nothing
    /// compacts evenly.
    pub fn compact_special(
        &mut self,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<u64>,
    ) -> Option<CompactionOutcome> {
        let protect = self.capacity() / 2;
        let len = self.items.len();
        if len <= protect || len - protect == 1 {
            return None;
        }
        let outcome = self.compact_above(protect, acc, coin, out, 0);
        self.state.increment();
        Some(outcome)
    }

    /// Sort everything (protected items first), keep `protect` — one more
    /// when the rest is odd, so the compacted count is even — and emit every
    /// other item of the rest starting at `coin`.
    fn compact_above(
        &mut self,
        protect: usize,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<u64>,
        sections: u32,
    ) -> CompactionOutcome {
        let len = self.items.len();
        let protect = protect + (len - protect) % 2;
        match acc {
            RankAccuracy::LowRank => self.items.sort_unstable(),
            RankAccuracy::HighRank => self.items.sort_unstable_by(|a, b| b.cmp(a)),
        }
        let before = out.len();
        out.extend(
            self.items[protect..]
                .iter()
                .skip(usize::from(coin))
                .step_by(2),
        );
        self.items.truncate(protect);
        CompactionOutcome {
            compacted: len - protect,
            emitted: out.len() - before,
            sections,
        }
    }

    /// Grow the section count to what the absorbed weight has earned.
    pub fn maybe_adapt(&mut self, floor: u32) -> bool {
        let target = adaptive_num_sections(self.absorbed, self.k, floor);
        if target <= self.sections {
            return false;
        }
        self.sections = target;
        true
    }

    pub fn count_le(&self, y: u64) -> usize {
        self.items.iter().filter(|&&x| x <= y).count()
    }

    pub fn count_lt(&self, y: u64) -> usize {
        self.items.iter().filter(|&&x| x < y).count()
    }
}

/// A `u64` with drop glue; packs exactly like `u64`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Boxed(pub Box<u64>);

impl Boxed {
    pub fn new(x: u64) -> Self {
        Boxed(Box::new(x))
    }
}

impl Packable for Boxed {
    fn pack(&self, out: &mut BytesMut) {
        out.put_u64_le(*self.0);
    }
    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        u64::unpack(input).map(Boxed::new)
    }
}

pub fn boxed(xs: &[u64]) -> Vec<Boxed> {
    xs.iter().copied().map(Boxed::new).collect()
}
