//! The relative-compactor (paper §2.1, Algorithm 1).
//!
//! A relative-compactor ingests a stream of items and, whenever its buffer of
//! capacity `B = 2·k·s` fills, *compacts* the `L = (z(C)+1)·k` items at the
//! compactable end (`z(C)` = trailing ones of the schedule state `C`): those
//! `L` items are sorted and either the even- or the odd-indexed half is
//! emitted to the output stream (each item then represents twice its former
//! weight), the choice made by one fair coin flip (Observation 4). The
//! protected half of the buffer — the `B/2` items nearest the accurate end —
//! is **never** compacted, which is what yields the multiplicative guarantee
//! at that end.
//!
//! # Arena storage
//!
//! Since PR 7 a compactor owns no items itself: it is a *slot handle* plus
//! schedule metadata, and every buffer lives in a shared
//! [`LevelArena`] (one contiguous allocation,
//! per-level `(offset, len, cap, run_len)` slots). Every item operation
//! therefore takes the arena as an explicit argument; the arena's branchless
//! merge kernels carry the hot path for types without drop glue, and types
//! with drop glue transparently take a `Vec`-based safe lane
//! ([`LevelArena::take_level`] / [`LevelArena::restore_level`]) with
//! identical semantics.
//!
//! # Sorted-run maintenance
//!
//! The buffer is kept as a **sorted run plus a small unsorted tail**:
//! `items[..run_len]` is sorted by the internal comparator and
//! `items[run_len..]` holds raw appends since the last ordering operation.
//! When a compaction needs order, only the tail is sorted and then
//! gallop-merged into the run, so a fill costs `O(tail·log tail + moved)`
//! instead of re-sorting `O(L log L)` every time. Crucially, a compaction
//! *emits* an already-sorted half, so upper levels receive sorted runs and
//! merge them in via [`RelativeCompactor::merge_sorted_run`] without ever
//! sorting — the merge-based compaction maintenance of Ivkin, Liberty,
//! Lang, Karnin and Braverman (*Streaming Quantiles Algorithms with Small
//! Space and Update Time*), which drops the amortized per-update comparison
//! cost to `O(log(1/ε))`. The plain sort-and-halve compactor of Algorithm 1
//! survives only as a test oracle (`RefCompactor` in this crate's test
//! support): both compact the exact same item multisets with the same coin
//! flips, which the differential and byte-identity proptests assert.
//!
//! # Absorbed weight
//!
//! Each compactor also counts the items it has ever **absorbed** (raw
//! pushes, merged-in runs, and — additively — everything absorbed by buffers
//! merged into it). Under the adaptive schedule
//! ([`crate::CompactionSchedule::Adaptive`], arXiv:2511.17396) this weight
//! drives [`RelativeCompactor::maybe_adapt`], which re-plans the buffer's
//! own section count on fill and on merge; under the standard schedule it is
//! a passive statistic. Either way it is additive under
//! [`RelativeCompactor::absorb`] and persisted by binary format v3.
//!
//! Orientation: with [`RankAccuracy::LowRank`] the protected end holds the
//! *smallest* items (the paper's presentation); with
//! [`RankAccuracy::HighRank`] it holds the *largest* (the reversed-comparator
//! construction from §1, which is what a latency-monitoring deployment
//! wants). The two are mirror images; all schedule logic is shared. The
//! sorted run is ordered by the *internal* comparator, i.e. descending in
//! external order under `HighRank`.

use std::cmp::Ordering;
use std::marker::PhantomData;

use crate::arena::LevelArena;
use crate::schedule::{adaptive_num_sections, CompactionState};

/// Most item positions a level reserves before its items arrive. A level
/// whose capacity is larger (a `k` in the tens of thousands) grows its slot
/// by doubling as items come, so a huge `k` costs memory for what a level
/// holds rather than for what it could hold.
const MAX_PRESIZE: usize = 1 << 16;

/// Which end of the rank axis gets the multiplicative guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankAccuracy {
    /// Protect low-ranked (small) items: `|R̂(y) − R(y)| ≤ ε·R(y)`.
    LowRank,
    /// Protect high-ranked (large) items: `|R̂(y) − R(y)| ≤ ε·(n − R(y) + 1)`.
    HighRank,
}

impl RankAccuracy {
    /// Internal comparison: orders items so that *protected* items compare
    /// smallest, regardless of orientation.
    #[inline]
    pub(crate) fn icmp<T: Ord>(self, a: &T, b: &T) -> Ordering {
        match self {
            RankAccuracy::LowRank => a.cmp(b),
            RankAccuracy::HighRank => b.cmp(a),
        }
    }
}

/// Result of one compaction operation, for weight bookkeeping and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Items removed from this buffer.
    pub compacted: usize,
    /// Items emitted to the next level (each of doubled weight).
    pub emitted: usize,
    /// Sections involved (1..=num_sections); 0 for special compactions.
    pub sections: u32,
}

/// One level of the REQ sketch: Algorithm 1's schedule state plus a handle
/// to its buffer slot in a [`LevelArena`].
///
/// Public so that downstream code can assemble *variant* sketches from the
/// same building block — the `baselines` crate uses it with a single section
/// (`num_sections = 1`) to realize the "always compact `L = B/2`" ablation
/// the paper discusses in §2.1 (which needs `k ≈ 1/ε²` and matches the space
/// regime of Zhang et al. \[22\]).
#[derive(Debug, Clone)]
pub struct RelativeCompactor<T> {
    /// Index of this buffer's slot in the arena it was created in. Every
    /// item method must be passed *that* arena.
    slot: usize,
    state: CompactionState,
    section_size: u32,
    num_sections: u32,
    /// Scheduled compactions performed by *this* buffer (stats only; unlike
    /// `state`, this is additive under merges).
    num_compactions: u64,
    /// Special compactions performed (parameter growth / merge reconciliation).
    num_special_compactions: u64,
    /// Items ever absorbed by this buffer (raw pushes, merged-in runs, and —
    /// transitively — everything absorbed by buffers merged into it).
    /// Additive under merges; drives [`RelativeCompactor::maybe_adapt`] under
    /// the adaptive schedule. Serialized (format v3+).
    absorbed: u64,
    /// Times [`RelativeCompactor::maybe_adapt`] grew the section count.
    /// Stats only, not serialized.
    num_adaptations: u64,
    /// Items that went through a comparison sort (tail sorts). Stats only,
    /// not serialized.
    items_sorted: u64,
    /// Items placed by run merges instead of sorting. Stats only.
    items_merge_moved: u64,
    /// Length of the *warm* sorted run, `items[run_len..run_len+warm_len]`.
    ///
    /// The buffer is laid out as three regions — the cold run
    /// `items[..run_len]`, this warm run, and raw appends after it. Emitted
    /// runs from the level below land in (or become) the warm run, and
    /// compactions extract the top of all three regions directly
    /// ([`LevelArena::compact_top`]), so the cold run — which holds the
    /// protected items — is rewritten only when the warm run outgrows
    /// `B/4` and is flushed into it. Always 0 for types with drop glue. Not
    /// serialized: on load the
    /// warm items are indistinguishable from raw appends and the first
    /// ordering operation rebuilds the invariant.
    warm_len: usize,
    _items: PhantomData<fn() -> T>,
}

impl<T> RelativeCompactor<T> {
    /// Fresh compactor with section size `k` (even, >= 4) and `s` sections,
    /// backed by a new slot in `arena`.
    pub fn new(arena: &mut LevelArena<T>, section_size: u32, num_sections: u32) -> Self {
        debug_assert!(section_size >= 4 && section_size.is_multiple_of(2));
        debug_assert!(num_sections >= 1);
        let cap = 2 * section_size as usize * num_sections as usize;
        let slot = arena.add_level(cap.min(MAX_PRESIZE));
        RelativeCompactor {
            slot,
            state: CompactionState::new(),
            section_size,
            num_sections,
            num_compactions: 0,
            num_special_compactions: 0,
            absorbed: 0,
            num_adaptations: 0,
            items_sorted: 0,
            items_merge_moved: 0,
            warm_len: 0,
            _items: PhantomData,
        }
    }

    /// Buffer capacity `B = 2·k·s`. The buffer may transiently hold more
    /// items than this during merges; a compaction then shrinks it below.
    pub fn capacity(&self) -> usize {
        2 * self.section_size as usize * self.num_sections as usize
    }

    /// This buffer's slot index in its arena (for a sketch, the level).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Items currently buffered.
    pub fn len(&self, arena: &LevelArena<T>) -> usize {
        arena.len(self.slot)
    }

    /// True when no items are buffered.
    pub fn is_empty(&self, arena: &LevelArena<T>) -> bool {
        arena.is_empty(self.slot)
    }

    /// True when the buffer holds at least `B` items (a compaction is due).
    pub fn is_at_capacity(&self, arena: &LevelArena<T>) -> bool {
        arena.len(self.slot) >= self.capacity()
    }

    /// Section size `k`.
    pub fn section_size(&self) -> u32 {
        self.section_size
    }

    /// Number of sections in the compactable half.
    pub fn num_sections(&self) -> u32 {
        self.num_sections
    }

    /// The schedule state `C`.
    pub fn state(&self) -> CompactionState {
        self.state
    }

    /// Scheduled compactions performed by this buffer.
    pub fn num_compactions(&self) -> u64 {
        self.num_compactions
    }

    /// Special compactions performed by this buffer.
    pub fn num_special_compactions(&self) -> u64 {
        self.num_special_compactions
    }

    /// Items ever absorbed by this buffer (and, transitively, by buffers
    /// merged into it). Additive under [`RelativeCompactor::absorb`]; the
    /// adaptive schedule derives this buffer's section count from it.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Times [`RelativeCompactor::maybe_adapt`] grew the section count
    /// (process-lifetime stat; additive under merges, not serialized).
    pub fn num_adaptations(&self) -> u64 {
        self.num_adaptations
    }

    /// Re-plan the section count from the absorbed weight (the adaptive
    /// schedule of arXiv:2511.17396): grow `num_sections` to
    /// [`adaptive_num_sections`]`(absorbed, k, floor)` if that exceeds the
    /// current count. Called on fill (instead of compacting, when the weight
    /// has earned more sections) and after merges. Returns `true` when the
    /// section count — and therefore the capacity — grew.
    pub fn maybe_adapt(&mut self, arena: &mut LevelArena<T>, floor: u32) -> bool {
        let target = adaptive_num_sections(self.absorbed, self.section_size, floor);
        if target <= self.num_sections {
            return false;
        }
        self.num_sections = target;
        self.num_adaptations += 1;
        arena.reserve(self.slot, self.capacity().min(MAX_PRESIZE));
        true
    }

    /// Items that have passed through a comparison sort in this buffer
    /// (process-lifetime stat; additive under merges, not serialized).
    pub fn items_sorted(&self) -> u64 {
        self.items_sorted
    }

    /// Items placed by run merges (sorted-run maintenance) instead of being
    /// re-sorted (process-lifetime stat; additive under merges, not
    /// serialized).
    pub fn items_merge_moved(&self) -> u64 {
        self.items_merge_moved
    }

    /// The buffered items: the cold sorted run first, then the warm sorted
    /// run, then the raw unsorted tail.
    pub fn items<'a>(&self, arena: &'a LevelArena<T>) -> &'a [T] {
        arena.items(self.slot)
    }

    /// Length of the cold sorted-run prefix (`items()[..run_len()]` is
    /// sorted by the internal comparator). Authoritative in the arena slot.
    pub fn run_len(&self, arena: &LevelArena<T>) -> usize {
        arena.run_len(self.slot)
    }

    /// Length of the warm sorted run, the second region
    /// `items()[run_len()..run_len() + warm_len()]` (also sorted by the
    /// internal comparator, but independent of the cold run's order). See
    /// the field docs for how it keeps the cold run from being rewritten.
    pub fn warm_len(&self) -> usize {
        self.warm_len
    }

    /// Append one item to the unsorted tail (caller checks `is_at_capacity`
    /// afterwards).
    #[inline]
    pub fn push(&mut self, arena: &mut LevelArena<T>, item: T) {
        self.absorbed += 1;
        arena.push(self.slot, item);
    }

    /// Append a whole slice to the unsorted tail (caller checks
    /// `is_at_capacity` afterwards) — the bulk counterpart of
    /// [`RelativeCompactor::push`] used by the batched ingest path.
    pub fn push_slice(&mut self, arena: &mut LevelArena<T>, items: &[T])
    where
        T: Clone,
    {
        self.absorbed += items.len() as u64;
        arena.extend_from_slice(self.slot, items);
    }

    /// Update `(k, s)` after the stream-length estimate grew (footnote 9 /
    /// Algorithm 3 line 7). Existing items are untouched; only the logical
    /// capacity changes (the slot may transiently hold more items than the
    /// new capacity mid-merge, which the arena tolerates).
    pub fn set_params(&mut self, arena: &mut LevelArena<T>, section_size: u32, num_sections: u32) {
        debug_assert!(section_size >= 4 && section_size.is_multiple_of(2));
        self.section_size = section_size;
        self.num_sections = num_sections.max(1);
        arena.reserve(self.slot, self.capacity().min(MAX_PRESIZE));
    }

    /// Rebuild from raw parts (deserialization) around `slot`, a slot of
    /// `arena` that already holds the level's items with its sorted-run
    /// prefix declared ([`LevelArena::set_run_len`]). Callers loading
    /// untrusted bytes must validate the run with
    /// [`RelativeCompactor::run_is_sorted`] (a run of 0 is always safe and
    /// merely re-establishes the invariant on the first compaction).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        arena: &mut LevelArena<T>,
        slot: usize,
        section_size: u32,
        num_sections: u32,
        state: CompactionState,
        num_compactions: u64,
        num_special_compactions: u64,
        absorbed: u64,
    ) -> Self {
        arena.reserve(
            slot,
            (2 * section_size as usize * num_sections.max(1) as usize).min(MAX_PRESIZE),
        );
        RelativeCompactor {
            slot,
            state,
            section_size,
            num_sections,
            num_compactions,
            num_special_compactions,
            absorbed,
            num_adaptations: 0,
            items_sorted: 0,
            items_merge_moved: 0,
            warm_len: 0,
            _items: PhantomData,
        }
    }
}

impl<T: Ord> RelativeCompactor<T> {
    /// True when the declared run prefix really is sorted by the internal
    /// comparator — the validation hook for deserializing untrusted bytes.
    pub fn run_is_sorted(&self, arena: &LevelArena<T>, acc: RankAccuracy) -> bool {
        let items = arena.items(self.slot);
        let run = arena.run_len(self.slot);
        run <= items.len()
            && items[..run]
                .windows(2)
                .all(|w| acc.icmp(&w[0], &w[1]) != Ordering::Greater)
    }

    /// Establish the full sorted-run invariant: sort the raw appends, fold
    /// them into the warm run, and merge the result into the cold run,
    /// leaving the whole buffer as one run. Cost
    /// `O(raw·log raw + moved)` where `moved` is the merged portion — the
    /// cold-run prefix below the merged minimum is never touched. The
    /// merges are the arena's backward in-place kernels: only the smaller
    /// side is staged in scratch.
    pub fn ensure_sorted(&mut self, arena: &mut LevelArena<T>, acc: RankAccuracy) {
        let len = arena.len(self.slot);
        let run = arena.run_len(self.slot);
        if run == len {
            debug_assert_eq!(self.warm_len, 0);
            return;
        }
        let rw = run + self.warm_len;
        if rw < len {
            // Dispatch on the orientation once, outside the sort: each arm
            // is a monomorphic comparator with no per-comparison accuracy
            // branch (the plain `Ord` arm also unlocks std's specialized
            // integer path).
            match acc {
                RankAccuracy::LowRank => arena.items_mut(self.slot)[rw..].sort_unstable(),
                RankAccuracy::HighRank => {
                    arena.items_mut(self.slot)[rw..].sort_unstable_by(|a, b| b.cmp(a))
                }
            }
            self.items_sorted += (len - rw) as u64;
            if self.warm_len > 0 {
                // Fold the sorted raw span into the warm run so items[run..]
                // becomes one sorted span. (warm_len > 0 implies no drop
                // glue — the kernels below are reachable.)
                let items = arena.items(self.slot);
                if acc.icmp(&items[rw - 1], &items[rw]) == Ordering::Greater {
                    let split = items[run..rw]
                        .partition_point(|x| acc.icmp(x, &items[rw]) != Ordering::Greater);
                    self.items_merge_moved += ((rw - run - split) + (len - rw)) as u64;
                    arena.merge_regions(self.slot, run + split, rw, |a, b| acc.icmp(a, b));
                }
            }
        }
        self.warm_len = 0;
        if run == 0 {
            arena.set_run_len(self.slot, len);
            return;
        }
        let items = arena.items(self.slot);
        // Fast path: the sorted span extends the run (ascending streams in
        // LowRank / descending in HighRank land here and pay nothing).
        if acc.icmp(&items[run - 1], &items[run]) != Ordering::Greater {
            arena.set_run_len(self.slot, len);
            return;
        }
        // Gallop: run items at or below the span minimum keep their place.
        let split = items[..run].partition_point(|x| acc.icmp(x, &items[run]) != Ordering::Greater);
        self.items_merge_moved += ((run - split) + (len - run)) as u64;
        if std::mem::needs_drop::<T>() {
            // Safe Vec lane for types with drop glue.
            let (mut buf, _) = arena.take_level(self.slot);
            let mut tail: Vec<T> = buf.split_off(run);
            let mut high: Vec<T> = buf.split_off(split);
            merge_into(&mut buf, &mut high, tail.drain(..), acc);
            let n = buf.len();
            arena.restore_level(self.slot, buf, n);
        } else {
            arena.merge_regions(self.slot, split, run, |a, b| acc.icmp(a, b));
            arena.set_run_len(self.slot, len);
        }
        debug_assert!(self.run_is_sorted(arena, acc));
    }

    /// Merge an already-sorted run (ordered by `acc.icmp`, draining
    /// `incoming`) into this buffer — how compaction output enters the next
    /// level without ever being re-sorted. The chunk lands in (or becomes)
    /// the *warm* run, so the cold run holding the protected items is not
    /// rewritten; if the buffer currently has raw appends the items are
    /// appended after them instead (the next ordering operation folds
    /// everything). Either way the buffered multiset is the same as pushing
    /// the items one by one.
    pub fn merge_sorted_run(
        &mut self,
        arena: &mut LevelArena<T>,
        incoming: &mut Vec<T>,
        acc: RankAccuracy,
    ) {
        let count = incoming.len();
        self.merge_sorted_run_prefix(arena, incoming, count, acc);
    }

    /// [`RelativeCompactor::merge_sorted_run`] for the first `count` items
    /// of `incoming` only (they are drained; the rest stays put) — lets a
    /// cascade insert room-sized chunks of one emitted run without any
    /// intermediate chunk allocation.
    pub fn merge_sorted_run_prefix(
        &mut self,
        arena: &mut LevelArena<T>,
        incoming: &mut Vec<T>,
        count: usize,
        acc: RankAccuracy,
    ) {
        if count == 0 {
            return;
        }
        self.absorbed += count as u64;
        debug_assert!(count <= incoming.len());
        debug_assert!(incoming[..count]
            .windows(2)
            .all(|w| acc.icmp(&w[0], &w[1]) != Ordering::Greater));
        let len = arena.len(self.slot);
        let run = arena.run_len(self.slot);
        if run + self.warm_len < len {
            // Raw appends present: plain append; the next ordering operation
            // folds all.
            arena.append_vec_prefix(self.slot, incoming, count);
            return;
        }
        // Fast path: the chunk extends the topmost region (`incoming[0]` is
        // its smallest item).
        let items = arena.items(self.slot);
        if len == 0 || acc.icmp(&items[len - 1], &incoming[0]) != Ordering::Greater {
            self.items_merge_moved += count as u64;
            arena.append_vec_prefix(self.slot, incoming, count);
            if self.warm_len > 0 {
                self.warm_len += count;
                self.maybe_flush_warm(arena, acc);
            } else {
                arena.set_run_len(self.slot, len + count);
            }
            return;
        }
        if std::mem::needs_drop::<T>() {
            // Safe Vec lane (warm_len is always 0 here): merge into the run.
            let split = items.partition_point(|x| acc.icmp(x, &incoming[0]) != Ordering::Greater);
            self.items_merge_moved += ((len - split) + count) as u64;
            let (mut buf, _) = arena.take_level(self.slot);
            let mut high: Vec<T> = buf.split_off(split);
            merge_into(&mut buf, &mut high, incoming.drain(..count), acc);
            let n = buf.len();
            arena.restore_level(self.slot, buf, n);
            debug_assert!(self.run_is_sorted(arena, acc));
            return;
        }
        if self.warm_len == 0 {
            // The incoming run *becomes* the warm run — zero item moves; the
            // cold run is not touched at all.
            arena.append_vec_prefix(self.slot, incoming, count);
            self.warm_len = count;
        } else {
            // Merge into the warm run only (gallop: warm items at or below
            // the chunk minimum keep their place).
            let split =
                items[run..].partition_point(|x| acc.icmp(x, &incoming[0]) != Ordering::Greater);
            self.items_merge_moved += ((len - run - split) + count) as u64;
            arena.merge_vec_into_region(self.slot, run + split, incoming, count, |a, b| {
                acc.icmp(a, b)
            });
            self.warm_len += count;
        }
        self.maybe_flush_warm(arena, acc);
    }

    /// Flush the warm run into the cold run once it outgrows `B/4`: one
    /// gallop-split backward merge, after which the whole buffer is a single
    /// run again. Amortized this rewrites the cold run only once per `B/4`
    /// warm items instead of on every incoming chunk. Only called on the
    /// no-drop lane with no raw appends present.
    fn maybe_flush_warm(&mut self, arena: &mut LevelArena<T>, acc: RankAccuracy) {
        let warm = self.warm_len;
        if warm * 4 <= self.capacity() {
            return;
        }
        let len = arena.len(self.slot);
        let run = arena.run_len(self.slot);
        debug_assert_eq!(run + warm, len);
        self.warm_len = 0;
        if run == 0 {
            arena.set_run_len(self.slot, len);
            return;
        }
        let items = arena.items(self.slot);
        if acc.icmp(&items[run - 1], &items[run]) != Ordering::Greater {
            arena.set_run_len(self.slot, len);
            return;
        }
        let split = items[..run].partition_point(|x| acc.icmp(x, &items[run]) != Ordering::Greater);
        self.items_merge_moved += ((run - split) + warm) as u64;
        arena.merge_regions(self.slot, split, run, |a, b| acc.icmp(a, b));
        arena.set_run_len(self.slot, len);
        debug_assert!(self.run_is_sorted(arena, acc));
    }

    /// Absorb a same-level buffer from another sketch (Algorithm 3 lines
    /// 16–18): schedule states combine by bitwise OR; item multisets combine.
    /// The other buffer arrives as its metadata plus its items taken out of
    /// *its* arena ([`LevelArena::take_level`]). The two sorted runs are
    /// merged (and the tails concatenated) so the invariant — and the
    /// avoided sort work — survives the merge.
    pub fn absorb(
        &mut self,
        arena: &mut LevelArena<T>,
        other: &RelativeCompactor<T>,
        mut other_items: Vec<T>,
        other_run_len: usize,
        acc: RankAccuracy,
    ) {
        self.state.merge(other.state);
        // Statistics only: saturate rather than trust a decoded counter.
        self.num_compactions = self.num_compactions.saturating_add(other.num_compactions);
        self.num_special_compactions = self
            .num_special_compactions
            .saturating_add(other.num_special_compactions);
        self.items_sorted = self.items_sorted.saturating_add(other.items_sorted);
        self.items_merge_moved = self
            .items_merge_moved
            .saturating_add(other.items_merge_moved);
        self.num_adaptations = self.num_adaptations.saturating_add(other.num_adaptations);
        // Absorbed weights are *additive* (the seamless-merge invariant):
        // the combined history is exactly the two histories, not the items
        // changing buffers now — set directly, overriding the per-run
        // counting the merge below would do.
        let combined_absorbed = self.absorbed + other.absorbed;
        if other_run_len == 0 {
            let n = other_items.len();
            arena.append_vec_prefix(self.slot, &mut other_items, n);
        } else {
            // Merge run with run (the incoming run lands in the warm zone),
            // carry both tails as our tail, then canonicalize: merging is
            // rare, and leaving the combined buffer as one run means the
            // next fill starts from the cheapest possible state.
            let mut other_tail = other_items.split_off(other_run_len);
            self.ensure_sorted(arena, acc);
            self.merge_sorted_run(arena, &mut other_items, acc);
            let n = other_tail.len();
            arena.append_vec_prefix(self.slot, &mut other_tail, n);
            self.ensure_sorted(arena, acc);
        }
        self.absorbed = combined_absorbed;
    }

    /// Keep the compacted count even by protecting one extra item when the
    /// tail has odd size.
    ///
    /// In the paper's streaming algorithm every scheduled compaction acts on
    /// exactly `L` (even) items; odd sizes can only arise in merge/special
    /// compactions, where the paper tolerates a ±1 weight drift per event
    /// ("may be of an odd size, which does not cause any issues", Alg. 3).
    /// We instead round the compacted range down to even: weight is then
    /// conserved *exactly* (`total_weight() == n` always), which keeps
    /// high-rank estimates unbiased at the extreme tail. The one extra
    /// protected item only loosens the paper's buffer-occupancy constants by
    /// +1, absorbed by their slack.
    fn even_parity_protect(len: usize, protect: usize) -> usize {
        protect + ((len - protect) & 1)
    }

    /// A *scheduled* compaction (Algorithm 1 lines 5–10; Algorithm 3
    /// `ScheduledCompaction`). `coin` selects even vs odd indices
    /// (Observation 4). Emitted items are appended to `out` — as a sorted
    /// run — and belong to the next level up.
    ///
    /// All items beyond the smallest `B` (possible only mid-merge) are
    /// automatically included in the compaction, exactly as in §D.1.
    pub fn compact_scheduled(
        &mut self,
        arena: &mut LevelArena<T>,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<T>,
    ) -> CompactionOutcome {
        let sections = self.state.sections_to_compact(self.num_sections);
        let l = sections as usize * self.section_size as usize;
        let protect = self.capacity().saturating_sub(l);
        let protect = Self::even_parity_protect(arena.len(self.slot), protect);
        let outcome = self.compact_above(arena, protect, acc, coin, out, sections);
        self.state.increment();
        self.num_compactions = self.num_compactions.saturating_add(1);
        outcome
    }

    /// A *special* compaction (Algorithm 3 `SpecialCompaction`): compact
    /// everything above the protected `B/2`, used when the stream-length
    /// estimate is squared. No-op (returning `None`) when the buffer holds at
    /// most `B/2` items (plus possibly one parity item).
    pub fn compact_special(
        &mut self,
        arena: &mut LevelArena<T>,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<T>,
    ) -> Option<CompactionOutcome> {
        let protect = self.capacity() / 2;
        let len = arena.len(self.slot);
        if len <= protect {
            return None;
        }
        let protect = Self::even_parity_protect(len, protect);
        if len <= protect {
            return None;
        }
        let outcome = self.compact_above(arena, protect, acc, coin, out, 0);
        self.state.increment();
        self.num_special_compactions = self.num_special_compactions.saturating_add(1);
        Some(outcome)
    }

    /// Core compaction: keep the `protect` internally-smallest items, order
    /// the rest, emit every other one (offset chosen by `coin`), drop the
    /// rest.
    ///
    /// For types without drop glue this is the hot lane: only the raw
    /// appends are sorted, then [`LevelArena::compact_top`] extracts the top
    /// `m` items straight out of the three sorted regions — the protected
    /// prefix of the cold run is never rewritten. Types with drop glue
    /// canonicalize first ([`RelativeCompactor::ensure_sorted`]) and emit on
    /// the safe `Vec` lane. Both lanes compact the same multiset and emit the
    /// same sorted item sequence.
    fn compact_above(
        &mut self,
        arena: &mut LevelArena<T>,
        protect: usize,
        acc: RankAccuracy,
        coin: bool,
        out: &mut Vec<T>,
        sections: u32,
    ) -> CompactionOutcome {
        let len = arena.len(self.slot);
        debug_assert!(
            len > protect,
            "compaction requires items above the protected prefix"
        );
        debug_assert_eq!((len - protect) % 2, 0, "compacted range must be even");
        let compacted = len - protect;
        let offset = usize::from(coin);
        if !std::mem::needs_drop::<T>() {
            let run = arena.run_len(self.slot);
            let warm = self.warm_len;
            let rw = run + warm;
            if rw < len {
                match acc {
                    RankAccuracy::LowRank => arena.items_mut(self.slot)[rw..].sort_unstable(),
                    RankAccuracy::HighRank => {
                        arena.items_mut(self.slot)[rw..].sort_unstable_by(|a, b| b.cmp(a))
                    }
                }
                self.items_sorted += (len - rw) as u64;
            }
            let (ri, wi, ti, emitted) =
                arena.compact_top(self.slot, run, warm, compacted, offset, out, |a, b| {
                    acc.icmp(a, b)
                });
            self.items_merge_moved += compacted as u64
                + if ri < run { wi as u64 } else { 0 }
                + if ri + wi < rw { ti as u64 } else { 0 };
            // Fold the sorted-tail survivors into the warm run (they sit
            // right after it already — when the warm run is empty they *are*
            // the new warm run, for free).
            self.warm_len = wi;
            if ti > 0 {
                if wi == 0 {
                    self.warm_len = ti;
                } else {
                    let items = arena.items(self.slot);
                    let whi = ri + wi;
                    if acc.icmp(&items[whi - 1], &items[whi]) == Ordering::Greater {
                        let split = items[ri..whi]
                            .partition_point(|x| acc.icmp(x, &items[whi]) != Ordering::Greater);
                        self.items_merge_moved += ((wi - split) + ti) as u64;
                        arena.merge_regions(self.slot, ri + split, whi, |a, b| acc.icmp(a, b));
                    }
                    self.warm_len = wi + ti;
                }
            }
            self.maybe_flush_warm(arena, acc);
            return CompactionOutcome {
                compacted,
                emitted,
                sections,
            };
        }
        // Drop-glue lane: the whole buffer becomes one sorted run; the
        // compacted slice items[protect..] is then in order.
        self.ensure_sorted(arena, acc);
        let (mut buf, _) = arena.take_level(self.slot);
        let before = out.len();
        out.extend(
            buf.drain(protect..)
                .enumerate()
                .filter_map(|(i, x)| (i % 2 == offset).then_some(x)),
        );
        let emitted = out.len() - before;
        arena.restore_level(self.slot, buf, protect);
        CompactionOutcome {
            compacted,
            emitted,
            sections,
        }
    }
}

/// Merge two runs sorted by `acc.icmp` (draining `a`, consuming `b`) onto
/// the end of `dst`, preferring `a` on ties so run-side items keep their
/// place. The safe lane for types with drop glue; the no-drop lane is the
/// arena's branchless [`LevelArena::merge_regions`] /
/// [`LevelArena::merge_vec_into_region`] kernels with identical tie
/// semantics.
pub(crate) fn merge_into<T: Ord, I: Iterator<Item = T>>(
    dst: &mut Vec<T>,
    a: &mut Vec<T>,
    b: I,
    acc: RankAccuracy,
) {
    dst.reserve(a.len() + b.size_hint().0);
    let mut ia = a.drain(..).peekable();
    let mut ib = b.peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if acc.icmp(x, y) != Ordering::Greater {
                    dst.push(ia.next().expect("peeked"));
                } else {
                    dst.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                dst.extend(ia);
                break;
            }
            (None, _) => {
                dst.extend(ib);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::LevelSet;

    fn new_c(k: u32, s: u32) -> (LevelArena<u64>, RelativeCompactor<u64>) {
        let mut ar = LevelArena::new();
        let c = RelativeCompactor::new(&mut ar, k, s);
        (ar, c)
    }

    #[test]
    fn capacity_is_2_k_s() {
        let (_, c) = new_c(4, 3);
        assert_eq!(c.capacity(), 24);
        let (_, c) = new_c(12, 5);
        assert_eq!(c.capacity(), 120);
    }

    #[test]
    fn first_compaction_compacts_exactly_one_section() {
        let (mut ar, mut c) = new_c(4, 3); // B = 24, protect = 20 on first compaction
        for i in 0..24 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
        assert_eq!(o.compacted, 4);
        assert_eq!(o.emitted, 2);
        assert_eq!(o.sections, 1);
        assert_eq!(c.len(&ar), 20);
        // LowRank: the *largest* items were compacted.
        assert!(c.items(&ar).iter().all(|&x| x < 20));
        // Emitted are every-other of the sorted top section {20,21,22,23}.
        assert_eq!(out, vec![20, 22]);
        // The survivors are one sorted run.
        assert_eq!(c.run_len(&ar), c.len(&ar));
        assert!(c.run_is_sorted(&ar, RankAccuracy::LowRank));
    }

    #[test]
    fn odd_coin_emits_odd_indexed() {
        let (mut ar, mut c) = new_c(4, 3);
        for i in 0..24 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        c.compact_scheduled(&mut ar, RankAccuracy::LowRank, true, &mut out);
        assert_eq!(out, vec![21, 23]);
    }

    #[test]
    fn high_rank_mode_compacts_smallest() {
        let (mut ar, mut c) = new_c(4, 3);
        for i in 0..24 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::HighRank, false, &mut out);
        assert_eq!(o.compacted, 4);
        // HighRank: the smallest items {0,1,2,3} get compacted; internal sort
        // order is descending, so even indices are {3, 1}.
        assert_eq!(out, vec![3, 1]);
        assert!(c.items(&ar).iter().all(|&x| x >= 4));
        assert!(c.run_is_sorted(&ar, RankAccuracy::HighRank));
    }

    #[test]
    fn schedule_growth_follows_trailing_ones() {
        // Feed a compactor through many fill/compact cycles and check the
        // section counts follow the ruler sequence 1,2,1,3,1,2,1,4,...
        let (mut ar, mut c) = new_c(4, 4); // B = 32
        let expected = [1u32, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1];
        let mut seen = Vec::new();
        let mut next_val = 0u64;
        for _ in 0..expected.len() {
            while !c.is_at_capacity(&ar) {
                c.push(&mut ar, next_val);
                next_val += 1;
            }
            let mut out = Vec::new();
            let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
            seen.push(o.sections);
            assert_eq!(o.compacted, o.sections as usize * 4);
            assert_eq!(o.emitted * 2, o.compacted);
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn protected_half_is_never_compacted() {
        // Insert 0..B with the smallest values; over many compactions the
        // lowest B/2 items of everything ever inserted must stay put.
        let k = 4;
        let s = 4;
        let (mut ar, mut c) = new_c(k, s);
        let b = c.capacity();
        let mut inserted: Vec<u64> = Vec::new();
        let mut val = 0u64;
        for round in 0..50 {
            while !c.is_at_capacity(&ar) {
                c.push(&mut ar, val);
                inserted.push(val);
                val += 1;
            }
            let mut out = Vec::new();
            c.compact_scheduled(&mut ar, RankAccuracy::LowRank, round % 2 == 0, &mut out);
            // The b/2 smallest inserted so far must all still be in the buffer.
            let mut sorted = inserted.clone();
            sorted.sort_unstable();
            for want in &sorted[..b / 2] {
                assert!(
                    c.items(&ar).contains(want),
                    "protected item {want} evicted at round {round}"
                );
            }
        }
    }

    #[test]
    fn even_rank_items_suffer_zero_error() {
        // Observation 4: if R(y; X) is even w.r.t. the compacted slice, then
        // R(y;X) - 2 R(y;Z) = 0 for both coin outcomes.
        let input: Vec<u64> = (0..8).collect(); // compact all 8
        for coin in [false, true] {
            let (mut ar, mut c) = new_c(4, 1); // B = 8, protect = B - L; state 0 -> L = 4
            for &x in &input {
                c.push(&mut ar, x);
            }
            let mut out = Vec::new();
            let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, coin, &mut out);
            // top section = {4,5,6,7}; y = 5 has rank 2 (even) within it.
            let r_in = input.iter().filter(|&&x| (4..=5).contains(&x)).count();
            let r_out = out.iter().filter(|&&z| z <= 5).count();
            assert_eq!(o.compacted, 4);
            assert_eq!(r_in as i64 - 2 * r_out as i64, 0, "coin={coin}");
        }
    }

    #[test]
    fn odd_rank_items_err_by_exactly_one() {
        for coin in [false, true] {
            let (mut ar, mut c) = new_c(4, 1);
            for x in 0..8u64 {
                c.push(&mut ar, x);
            }
            let mut out = Vec::new();
            c.compact_scheduled(&mut ar, RankAccuracy::LowRank, coin, &mut out);
            // y = 4 has rank 1 (odd) within the compacted {4,5,6,7}.
            let r_in = 1i64;
            let r_out = out.iter().filter(|&&z| z <= 4).count() as i64;
            assert_eq!((r_in - 2 * r_out).abs(), 1, "coin={coin}");
        }
    }

    #[test]
    fn special_compaction_halves_to_protected() {
        let (mut ar, mut c) = new_c(4, 3); // B = 24
        for i in 0..22 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        let o = c
            .compact_special(&mut ar, RankAccuracy::LowRank, false, &mut out)
            .unwrap();
        assert_eq!(c.len(&ar), 12); // B/2
        assert_eq!(o.compacted, 10);
        assert_eq!(o.emitted, 5);
        assert_eq!(o.sections, 0);
        // no-op when at or below B/2
        assert!(c
            .compact_special(&mut ar, RankAccuracy::LowRank, false, &mut out)
            .is_none());
    }

    #[test]
    fn special_compaction_rounds_odd_tail_to_even() {
        // 23 items, protect = 12: the 11-item tail is rounded down to 10 so
        // weight stays exactly conserved; one parity item stays behind.
        let (mut ar, mut c) = new_c(4, 3);
        for i in 0..23 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        let o = c
            .compact_special(&mut ar, RankAccuracy::LowRank, true, &mut out)
            .unwrap();
        assert_eq!(o.compacted, 10);
        assert_eq!(o.emitted, 5);
        assert_eq!(c.len(&ar), 13); // B/2 + 1 parity item
                                    // weight conservation: 2*emitted == compacted
        assert_eq!(o.emitted * 2, o.compacted);
    }

    #[test]
    fn special_compaction_noop_on_single_odd_extra() {
        // B/2 + 1 items with an odd tail of 1: nothing to compact evenly.
        let (mut ar, mut c) = new_c(4, 3);
        for i in 0..13 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        assert!(c
            .compact_special(&mut ar, RankAccuracy::LowRank, false, &mut out)
            .is_none());
        assert_eq!(c.len(&ar), 13);
        assert_eq!(c.state().raw(), 0);
    }

    #[test]
    fn scheduled_compaction_on_oversized_odd_buffer_stays_even() {
        let (mut ar, mut c) = new_c(4, 3); // B = 24, first compaction L = 4, protect 20
        for i in 0..41 {
            c.push(&mut ar, i); // 41 items: tail of 21 rounded to 20
        }
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
        assert_eq!(o.compacted, 20);
        assert_eq!(o.emitted, 10);
        assert_eq!(c.len(&ar), 21);
    }

    #[test]
    fn push_slice_matches_repeated_push() {
        let (mut ar_a, mut a) = new_c(4, 3);
        let (mut ar_b, mut b) = new_c(4, 3);
        let items: Vec<u64> = (0..17).collect();
        a.push_slice(&mut ar_a, &items);
        for &x in &items {
            b.push(&mut ar_b, x);
        }
        assert_eq!(a.items(&ar_a), b.items(&ar_b));
        assert_eq!(a.len(&ar_a), 17);
    }

    #[test]
    fn set_params_shrinking_below_fill_does_not_underflow() {
        // Regression: a buffer transiently holding more items than the new
        // capacity made `cap - len` underflow (debug panic) in the old
        // reserve math. Shrinking params under an over-full buffer must be
        // safe. (The over-full state is produced the invariant-preserving
        // way now that the raw buf_mut escape hatch is gone: a merged-in
        // oversized run.)
        let mut ar = LevelArena::new();
        let mut c = RelativeCompactor::<u64>::new(&mut ar, 4, 2); // cap 16
        let mut big: Vec<u64> = (0..200).collect();
        c.merge_sorted_run(&mut ar, &mut big, RankAccuracy::LowRank);
        c.set_params(&mut ar, 4, 1); // cap 8 < len 200: previously panicked
        assert_eq!(c.capacity(), 8);
        assert_eq!(c.len(&ar), 200);
        // Growing params still reserves headroom.
        c.set_params(&mut ar, 12, 10);
        assert_eq!(c.capacity(), 240);
        assert!(ar.slot_capacity(c.slot()) >= 240);
    }

    #[test]
    fn absorb_ors_state_and_combines_items() {
        let (mut ar_a, mut a) = new_c(4, 3);
        let (mut ar_b, mut b) = new_c(4, 3);
        for i in 0..24 {
            a.push(&mut ar_a, i);
            b.push(&mut ar_b, 100 + i);
        }
        let mut out = Vec::new();
        a.compact_scheduled(&mut ar_a, RankAccuracy::LowRank, false, &mut out); // state -> 1
        b.compact_scheduled(&mut ar_b, RankAccuracy::LowRank, false, &mut out);
        b.compact_scheduled(&mut ar_b, RankAccuracy::LowRank, false, &mut out); // state -> 2
        let (alen, blen) = (a.len(&ar_a), b.len(&ar_b));
        let (b_items, b_run) = ar_b.take_level(b.slot());
        a.absorb(&mut ar_a, &b, b_items, b_run, RankAccuracy::LowRank);
        assert_eq!(a.state().raw(), 0b1 | 0b10);
        assert_eq!(a.len(&ar_a), alen + blen);
        assert_eq!(a.num_compactions(), 3);
        // Runs were merged: the combined buffer is one sorted run.
        assert_eq!(a.run_len(&ar_a), a.len(&ar_a));
        assert!(a.run_is_sorted(&ar_a, RankAccuracy::LowRank));
    }

    #[test]
    fn oversized_buffer_compacts_extras() {
        // Mid-merge a buffer may exceed B; everything above the smallest B
        // is included in the compaction.
        let (mut ar, mut c) = new_c(4, 3); // B = 24
        for i in 0..40 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
        // protect = B - L = 24 - 4 = 20; compacted = 40 - 20 = 20.
        assert_eq!(o.compacted, 20);
        assert_eq!(o.emitted, 10);
        assert_eq!(c.len(&ar), 20);
        assert!(c.items(&ar).iter().all(|&x| x < 20));
    }

    /// The items of `c` for which `below` holds, by a scan of the buffer.
    fn scan(c: &RelativeCompactor<u64>, ar: &LevelArena<u64>, below: impl Fn(&u64) -> bool) -> u64 {
        c.items(ar).iter().filter(|x| below(x)).count() as u64
    }

    /// [`LevelSet::weight_where`] over `c` alone, a level of weight 1.
    fn weight(
        c: &RelativeCompactor<u64>,
        ar: &LevelArena<u64>,
        acc: RankAccuracy,
        below: impl Fn(&u64) -> bool,
    ) -> u64 {
        let level = LevelSet {
            levels: std::slice::from_ref(c),
            arena: ar,
            accuracy: acc,
        };
        level.weight_where(below, &mut 0)
    }

    #[test]
    fn count_le_lt_use_external_order_in_both_modes() {
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let (mut ar, mut c) = new_c(4, 3);
            for x in [5u64, 1, 9, 5] {
                c.push(&mut ar, x);
            }
            // As raw appends, then as one run in the internal order.
            for sorted in [false, true] {
                if sorted {
                    c.ensure_sorted(&mut ar, acc);
                }
                for (y, want) in [(5, (3, 1)), (0, (0, 0)), (100, (4, 4))] {
                    let (le, lt) = (|x: &u64| *x <= y, |x: &u64| *x < y);
                    assert_eq!((scan(&c, &ar, le), scan(&c, &ar, lt)), want);
                    let got = (weight(&c, &ar, acc, le), weight(&c, &ar, acc, lt));
                    assert_eq!(got, want, "{acc:?} sorted {sorted} y {y}");
                }
            }
        }
    }

    #[test]
    fn count_with_matches_linear_scan_after_compactions() {
        for acc in [RankAccuracy::LowRank, RankAccuracy::HighRank] {
            let (mut ar, mut c) = new_c(4, 3);
            let mut x = 0x2545F4914F6CDD1Du64;
            for round in 0..40u64 {
                while !c.is_at_capacity(&ar) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    c.push(&mut ar, x % 1000);
                }
                let mut out = Vec::new();
                c.compact_scheduled(&mut ar, acc, round % 2 == 0, &mut out);
                // Mixed run + tail: push a few raw items too.
                c.push(&mut ar, round % 1000);
                for y in [0u64, 1, 250, 500, 999, 1000] {
                    let le = |x: &u64| *x <= y;
                    let lt = |x: &u64| *x < y;
                    assert_eq!(weight(&c, &ar, acc, le), scan(&c, &ar, le), "le {y}");
                    assert_eq!(weight(&c, &ar, acc, lt), scan(&c, &ar, lt), "lt {y}");
                }
            }
        }
    }

    #[test]
    fn ensure_sorted_merges_tail_and_is_idempotent() {
        let (mut ar, mut c) = new_c(4, 3);
        for i in [50u64, 10, 90, 30, 70] {
            c.push(&mut ar, i);
        }
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &[10, 30, 50, 70, 90]);
        assert_eq!(c.run_len(&ar), 5);
        let sorted_before = c.items_sorted();
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.items_sorted(), sorted_before, "idempotent");
        // New tail merges in without disturbing the low prefix.
        c.push(&mut ar, 40);
        c.push(&mut ar, 20);
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &[10, 20, 30, 40, 50, 70, 90]);
        assert!(c.items_merge_moved() > 0);
    }

    #[test]
    fn ensure_sorted_drop_type_lane_matches() {
        // The Vec-based lane for types with drop glue: same semantics.
        let mut ar = LevelArena::<String>::new();
        let mut c = RelativeCompactor::new(&mut ar, 4, 3);
        for s in ["m", "c", "x", "a", "t"] {
            c.push(&mut ar, s.to_string());
        }
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &["a", "c", "m", "t", "x"]);
        c.push(&mut ar, "b".to_string());
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &["a", "b", "c", "m", "t", "x"]);
        let mut run = vec!["d".to_string(), "z".to_string()];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &["a", "b", "c", "d", "m", "t", "x", "z"]);
        // Fill to capacity and compact: the safe emission lane must conserve
        // weight exactly like the branchless one.
        let mut i = 0u32;
        while !c.is_at_capacity(&ar) {
            c.push(&mut ar, format!("p{i:04}"));
            i += 1;
        }
        let before = c.len(&ar);
        let mut out = Vec::new();
        let o = c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
        assert_eq!(o.emitted * 2, o.compacted);
        assert_eq!(c.len(&ar) + o.compacted, before);
        assert!(c.run_is_sorted(&ar, RankAccuracy::LowRank));
    }

    #[test]
    fn merge_sorted_run_keeps_invariant_and_multiset() {
        let (mut ar, mut c) = new_c(4, 3); // B = 24, warm flush above 6
        c.push_slice(&mut ar, &[10u64, 30, 50]);
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        // Appending run (all above): fast path extends the cold run.
        let mut run = vec![60u64, 70];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert!(run.is_empty());
        assert_eq!(c.items(&ar), &[10, 30, 50, 60, 70]);
        assert_eq!((c.run_len(&ar), c.warm_len()), (5, 0));
        // Interleaving run becomes the warm run — the cold run is untouched.
        let mut run = vec![20u64, 55, 65];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &[10, 30, 50, 60, 70, 20, 55, 65]);
        assert_eq!((c.run_len(&ar), c.warm_len()), (5, 3));
        // The next interleaving run merges into the warm run only.
        let mut run = vec![25u64, 57];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(c.items(&ar), &[10, 30, 50, 60, 70, 20, 25, 55, 57, 65]);
        assert_eq!((c.run_len(&ar), c.warm_len()), (5, 5));
        // Growing the warm run past B/4 flushes it into the cold run.
        let mut run = vec![80u64, 90];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(
            c.items(&ar),
            &[10, 20, 25, 30, 50, 55, 57, 60, 65, 70, 80, 90]
        );
        assert_eq!((c.run_len(&ar), c.warm_len()), (12, 0));
        assert!(c.run_is_sorted(&ar, RankAccuracy::LowRank));
        // With a raw tail present the incoming run lands after the tail.
        c.push(&mut ar, 0);
        let mut run = vec![5u64];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(c.run_len(&ar), 12);
        assert_eq!(c.len(&ar), 14);
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(
            c.items(&ar),
            &[0, 5, 10, 20, 25, 30, 50, 55, 57, 60, 65, 70, 80, 90]
        );
    }

    #[test]
    fn weight_is_conserved_by_even_compactions() {
        // Streaming compactions always compact an even count; the emitted
        // half at doubled weight carries exactly the removed weight.
        let (mut ar, mut c) = new_c(6, 4);
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        for round in 0..200u64 {
            while !c.is_at_capacity(&ar) {
                rng_state = rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round);
                c.push(&mut ar, rng_state >> 16);
            }
            let mut out = Vec::new();
            let o =
                c.compact_scheduled(&mut ar, RankAccuracy::LowRank, rng_state & 1 == 0, &mut out);
            assert_eq!(o.compacted % 2, 0);
            assert_eq!(o.emitted * 2, o.compacted);
        }
    }

    #[test]
    fn parts_roundtrip() {
        let (mut ar, mut c) = new_c(4, 3);
        for i in 0..24 {
            c.push(&mut ar, i);
        }
        let mut out = Vec::new();
        c.compact_scheduled(&mut ar, RankAccuracy::LowRank, false, &mut out);
        let snapshot: Vec<u64> = c.items(&ar).to_vec();
        let mut ar2 = LevelArena::new();
        let slot = filled_slot(&mut ar2, &snapshot, c.run_len(&ar));
        let rebuilt = RelativeCompactor::from_parts(
            &mut ar2,
            slot,
            4,
            3,
            c.state(),
            c.num_compactions(),
            c.num_special_compactions(),
            c.absorbed(),
        );
        assert_eq!(rebuilt.items(&ar2), snapshot.as_slice());
        assert_eq!(rebuilt.state(), c.state());
        assert_eq!(rebuilt.num_compactions(), 1);
        assert_eq!(rebuilt.run_len(&ar2), c.run_len(&ar));
        assert_eq!(rebuilt.absorbed(), 24);
        assert!(rebuilt.run_is_sorted(&ar2, RankAccuracy::LowRank));
    }

    /// A fresh slot of `ar` holding `items`, with the first `run_len`
    /// declared sorted.
    fn filled_slot(ar: &mut LevelArena<u64>, items: &[u64], run_len: usize) -> usize {
        let slot = ar.add_level(items.len());
        ar.extend_from_slice(slot, items);
        ar.set_run_len(slot, run_len);
        slot
    }

    #[test]
    fn from_parts_clamps_run_len_and_validates() {
        let mut ar = LevelArena::new();
        let slot = filled_slot(&mut ar, &[3, 1, 2], 99); // clamped to len
        let c = RelativeCompactor::from_parts(&mut ar, slot, 4, 1, CompactionState::new(), 0, 0, 0);
        assert_eq!(c.run_len(&ar), 3);
        assert!(!c.run_is_sorted(&ar, RankAccuracy::LowRank));
        let mut ar = LevelArena::new();
        let slot = filled_slot(&mut ar, &[3, 1, 2], 0);
        let c = RelativeCompactor::from_parts(&mut ar, slot, 4, 1, CompactionState::new(), 0, 0, 0);
        assert!(
            c.run_is_sorted(&ar, RankAccuracy::LowRank),
            "empty run is valid"
        );
    }

    #[test]
    fn absorbed_counts_every_ingest_path() {
        let (mut ar, mut c) = new_c(4, 3);
        c.push(&mut ar, 5);
        c.push_slice(&mut ar, &[1, 2, 3]);
        assert_eq!(c.absorbed(), 4);
        c.ensure_sorted(&mut ar, RankAccuracy::LowRank);
        assert_eq!(c.absorbed(), 4, "internal ordering must not count");
        let mut run = vec![10u64, 20];
        c.merge_sorted_run(&mut ar, &mut run, RankAccuracy::LowRank);
        assert_eq!(c.absorbed(), 6);
        // Compaction removes items but never rewinds absorbed history.
        let (mut ar2, mut c2) = new_c(4, 3);
        for i in 0..24 {
            c2.push(&mut ar2, i);
        }
        let mut out = Vec::new();
        c2.compact_scheduled(&mut ar2, RankAccuracy::LowRank, false, &mut out);
        assert_eq!(c2.absorbed(), 24);
    }

    #[test]
    fn absorb_adds_absorbed_weights() {
        let (mut ar_a, mut a) = new_c(4, 3);
        let (mut ar_b, mut b) = new_c(4, 3);
        for i in 0..24 {
            a.push(&mut ar_a, i);
            b.push(&mut ar_b, 100 + i);
        }
        let mut out = Vec::new();
        a.compact_scheduled(&mut ar_a, RankAccuracy::LowRank, false, &mut out);
        b.compact_scheduled(&mut ar_b, RankAccuracy::LowRank, true, &mut out);
        let (b_items, b_run) = ar_b.take_level(b.slot());
        a.absorb(&mut ar_a, &b, b_items, b_run, RankAccuracy::LowRank);
        assert_eq!(a.absorbed(), 48);
    }

    #[test]
    fn maybe_adapt_grows_sections_monotonically() {
        let (mut ar, mut c) = new_c(4, 1); // B = 8
        assert!(!c.maybe_adapt(&mut ar, 1), "no weight, no adaptation");
        for i in 0..8 {
            c.push(&mut ar, i);
        }
        // W = 8 = 2k: s(W) = ceil(log2(2)) + 1 = 2 > 1.
        assert!(c.maybe_adapt(&mut ar, 1));
        assert_eq!(c.num_sections(), 2);
        assert_eq!(c.capacity(), 16);
        assert_eq!(c.num_adaptations(), 1);
        assert!(!c.maybe_adapt(&mut ar, 1), "idempotent until weight grows");
        // The floor binds from below but never shrinks an adapted buffer.
        assert!(!c.maybe_adapt(&mut ar, 2));
        assert_eq!(c.num_sections(), 2);
        // A big merge jumps several steps at once.
        let mut ar_big = LevelArena::new();
        let mut big = RelativeCompactor::<u64>::new(&mut ar_big, 4, 1);
        for i in 0..1000u64 {
            big.push(&mut ar_big, i);
        }
        let (big_items, big_run) = ar_big.take_level(big.slot());
        c.absorb(&mut ar, &big, big_items, big_run, RankAccuracy::LowRank);
        assert!(c.maybe_adapt(&mut ar, 1));
        // W = 1008, W/k = 252 -> ceil(log2) = 8 -> s = 9.
        assert_eq!(c.num_sections(), 9);
        assert_eq!(c.num_adaptations(), 2);
    }
}
