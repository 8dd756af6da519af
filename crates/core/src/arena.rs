//! Contiguous flat storage for every level of one sketch (the PR 7
//! tentpole): one allocation, per-level `(offset, len, cap, run_len)`
//! slots, and the branchless merge kernels the compaction cascade runs on.
//!
//! # Layout
//!
//! ```text
//! data: [ level 0 items | gap | level 1 items | gap | level 2 items | gap ]
//!         ^off0          ^off0+len0           ^off1 = off0+cap0
//! ```
//!
//! Slots occupy back-to-back reserved ranges of one `Vec<MaybeUninit<T>>`:
//! slot `h` owns `data[off_h .. off_h + cap_h]`, of which the first `len_h`
//! entries are initialized items and `items[..run_len_h]` is sorted by the
//! sketch's internal comparator. `off_{h+1} = off_h + cap_h` always — the
//! gaps live *inside* a slot, never between slots — so the cascade, the
//! gallop merges and the loser-tree view build all walk a single
//! allocation with predictable strides instead of chasing per-level `Vec`
//! pointers.
//!
//! # Rebalancing
//!
//! When a slot outgrows its reserved `cap` (a merge dumping extra items
//! into a level, or a parameter/adaptive-schedule capacity raise), its cap
//! is doubled until it fits and every *later* slot's region is shifted
//! right in one `memmove`. Doubling makes the shifts amortized O(1) per
//! item; the initialized items moved this way are counted in
//! [`LevelArena::items_moved_rebalance`] (surfaced through `SketchStats`)
//! so layout regressions are observable. Level 0 — the hottest slot — is
//! slot 0 and is sized to the compactor capacity `B` up front, so in
//! steady-state streaming no rebalance fires at all; new levels append at
//! the cold end and shift nothing.
//!
//! # Kernels and safety
//!
//! The hot inner loops are branchless `unsafe` kernels over raw element
//! pointers: a backward in-place run merge (`merge_hi` — conditional-move
//! select, one element copy, no per-element `Vec` bookkeeping), the
//! compaction extractor `compact_top` (a strided every-other emitter over
//! the tops of three sorted regions), and prefix append/remove primitives.
//! They are only ever invoked for types with no drop glue
//! (`!std::mem::needs_drop::<T>()`, a const-folded gate in the compactor):
//! for such types every slot position stays bitwise-initialized through
//! any panic, so the kernels cannot create double-drops or expose
//! uninitialized memory. Types *with* drop glue (e.g. `String`) take the
//! proven `Vec`-based lane via [`LevelArena::take_level`] /
//! [`LevelArena::restore_level`], which moves a level out into an owned
//! `Vec<T>`, runs the panic-safe safe-code path, and moves it back.
//!
//! This module is the one place in `req-core` allowed to use `unsafe`
//! (crate-level `#![deny(unsafe_code)]` with a scoped allow on this
//! module); everything it exposes is a safe API whose invariants are
//! documented above and checked by debug assertions.

use std::cmp::Ordering;
use std::fmt;
use std::mem::MaybeUninit;
use std::ptr;

/// One level's descriptor: items at `data[off .. off + len]`, reserved room
/// to `off + cap`, sorted-run prefix `items[..run_len]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: usize,
    len: usize,
    cap: usize,
    run_len: usize,
}

/// The flat backing store for every compactor level of one sketch.
///
/// See the [module docs](self) for the layout and safety story. All methods
/// take a slot index `h` as returned by [`LevelArena::add_level`]; for a
/// [`crate::ReqSketch`] slot `h` is exactly level `h`.
pub struct LevelArena<T> {
    data: Vec<MaybeUninit<T>>,
    slots: Vec<Slot>,
    /// Reusable merge scratch (empty between operations; capacity kept).
    scratch: Vec<T>,
    items_moved_rebalance: u64,
}

impl<T> Default for LevelArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LevelArena<T> {
    /// Fresh, empty arena with no levels.
    pub fn new() -> Self {
        LevelArena {
            data: Vec::new(),
            slots: Vec::new(),
            scratch: Vec::new(),
            items_moved_rebalance: 0,
        }
    }

    /// Number of level slots.
    pub fn num_levels(&self) -> usize {
        self.slots.len()
    }

    /// Append a new (empty) level slot with `cap` reserved item positions,
    /// returning its index. Appending never shifts existing slots.
    pub fn add_level(&mut self, cap: usize) -> usize {
        let off = self.data.len();
        let cap = cap.max(4);
        self.data.resize_with(off + cap, MaybeUninit::uninit);
        self.slots.push(Slot {
            off,
            len: 0,
            cap,
            run_len: 0,
        });
        self.slots.len() - 1
    }

    /// Items currently stored in slot `h`.
    pub fn len(&self, h: usize) -> usize {
        self.slots[h].len
    }

    /// True when slot `h` holds no items.
    pub fn is_empty(&self, h: usize) -> bool {
        self.slots[h].len == 0
    }

    /// Length of slot `h`'s sorted-run prefix.
    pub fn run_len(&self, h: usize) -> usize {
        self.slots[h].run_len
    }

    /// Declare slot `h`'s sorted-run prefix (clamped to its length). The
    /// caller asserts the prefix really is sorted.
    pub fn set_run_len(&mut self, h: usize, run_len: usize) {
        let s = &mut self.slots[h];
        s.run_len = run_len.min(s.len);
    }

    /// Reserved item positions of slot `h`.
    pub fn slot_capacity(&self, h: usize) -> usize {
        self.slots[h].cap
    }

    /// Initialized items moved because a slot grow shifted later slots.
    pub fn items_moved_rebalance(&self) -> u64 {
        self.items_moved_rebalance
    }

    /// Heap bytes held by the arena (backing store + merge scratch + slot
    /// table).
    pub fn arena_bytes(&self) -> usize {
        (self.data.capacity() + self.scratch.capacity()) * std::mem::size_of::<T>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    #[inline]
    fn base(&self, off: usize) -> *const T {
        // SAFETY: in-bounds by the slot invariant — every slot range lies
        // within `data`, and `MaybeUninit<T>` has `T`'s layout.
        unsafe { self.data.as_ptr().add(off).cast::<T>() }
    }

    #[inline]
    fn base_mut(&mut self, off: usize) -> *mut T {
        // SAFETY: as in `base`.
        unsafe { self.data.as_mut_ptr().add(off).cast::<T>() }
    }

    /// Slot `h`'s items (sorted run first, then the unsorted tail).
    #[inline]
    pub fn items(&self, h: usize) -> &[T] {
        let s = self.slots[h];
        // SAFETY: data[off..off+len] are initialized by the slot invariant.
        unsafe { std::slice::from_raw_parts(self.base(s.off), s.len) }
    }

    /// Mutable view of slot `h`'s items (used for in-place tail sorts).
    #[inline]
    pub fn items_mut(&mut self, h: usize) -> &mut [T] {
        let s = self.slots[h];
        // SAFETY: as `items`, and `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.base_mut(s.off), s.len) }
    }

    /// Grow slot `h` so it can hold at least `min_cap` items, doubling its
    /// reserved range and shifting every later slot right in one `memmove`.
    pub fn reserve(&mut self, h: usize, min_cap: usize) {
        let cur = self.slots[h].cap;
        if cur >= min_cap {
            return;
        }
        let mut new_cap = cur.max(4);
        while new_cap < min_cap {
            new_cap *= 2;
        }
        let delta = new_cap - cur;
        let old_total = self.data.len();
        let region_end = self.slots[h].off + cur;
        self.data
            .resize_with(old_total + delta, MaybeUninit::uninit);
        // SAFETY: shifting whole reserved regions (initialized items travel
        // with their slot; `copy` handles the overlap like memmove). Both
        // ranges are in bounds after the resize above.
        unsafe {
            let p = self.data.as_mut_ptr();
            ptr::copy(
                p.add(region_end),
                p.add(region_end + delta),
                old_total - region_end,
            );
        }
        let mut moved = 0u64;
        for s in &mut self.slots[h + 1..] {
            s.off += delta;
            moved += s.len as u64;
        }
        self.items_moved_rebalance += moved;
        self.slots[h].cap = new_cap;
    }

    /// Append one item to slot `h`'s unsorted tail.
    #[inline]
    pub fn push(&mut self, h: usize, item: T) {
        let s = self.slots[h];
        if s.len != s.cap {
            // SAFETY: off+len < off+cap is in bounds and uninitialized.
            unsafe { ptr::write(self.base_mut(s.off).add(s.len), item) };
            self.slots[h].len = s.len + 1;
        } else {
            self.push_grow(h, item);
        }
    }

    /// Grow-then-push slow path, kept out of line so the hot path stays a
    /// single compare-and-store.
    #[cold]
    #[inline(never)]
    fn push_grow(&mut self, h: usize, item: T) {
        self.reserve(h, self.slots[h].len + 1);
        let s = self.slots[h];
        // SAFETY: reserve guarantees len < cap.
        unsafe { ptr::write(self.base_mut(s.off).add(s.len), item) };
        self.slots[h].len = s.len + 1;
    }

    /// Drop (or forget, for no-drop `T`) items beyond `new_len` in slot `h`.
    pub fn truncate(&mut self, h: usize, new_len: usize) {
        let s = self.slots[h];
        if new_len >= s.len {
            return;
        }
        if std::mem::needs_drop::<T>() {
            // SAFETY: [new_len, len) are initialized; after this call the
            // slot's len excludes them, so they are never touched again.
            unsafe {
                let p = self.base_mut(s.off).add(new_len);
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(p, s.len - new_len));
            }
        }
        let s = &mut self.slots[h];
        s.len = new_len;
        s.run_len = s.run_len.min(new_len);
    }

    /// Move slot `h`'s items out into an owned `Vec`, returning
    /// `(items, run_len)` and leaving the slot empty (capacity kept). The
    /// entry point of the `Vec`-based lane for types with drop glue.
    pub fn take_level(&mut self, h: usize) -> (Vec<T>, usize) {
        let s = self.slots[h];
        let mut v: Vec<T> = Vec::with_capacity(s.len);
        // SAFETY: moves ownership of the initialized prefix into `v`; the
        // slot's len is zeroed in the same breath, so exactly one owner.
        unsafe {
            ptr::copy_nonoverlapping(self.base(s.off), v.as_mut_ptr(), s.len);
            v.set_len(s.len);
        }
        let run = s.run_len;
        let s = &mut self.slots[h];
        s.len = 0;
        s.run_len = 0;
        (v, run)
    }

    /// Move an owned `Vec` back into (empty) slot `h`, declaring `run_len`
    /// of it sorted. The return path of the `Vec`-based lane.
    pub fn restore_level(&mut self, h: usize, items: Vec<T>, run_len: usize) {
        debug_assert_eq!(self.slots[h].len, 0, "restore into a non-empty slot");
        let n = items.len();
        self.reserve(h, n);
        let s = self.slots[h];
        // SAFETY: ownership moves back from the Vec (whose len is zeroed
        // before it drops, so it frees only its allocation).
        unsafe {
            let mut items = items;
            ptr::copy_nonoverlapping(items.as_ptr(), self.base_mut(s.off), n);
            items.set_len(0);
        }
        let s = &mut self.slots[h];
        s.len = n;
        s.run_len = run_len.min(n);
    }

    /// Move the first `count` items of `incoming` onto the end of slot
    /// `h`'s tail (the multiset equivalent of pushing them one by one).
    /// Does not touch `run_len`.
    pub fn append_vec_prefix(&mut self, h: usize, incoming: &mut Vec<T>, count: usize) {
        debug_assert!(count <= incoming.len());
        if count == 0 {
            return;
        }
        if std::mem::needs_drop::<T>() {
            for x in incoming.drain(..count) {
                self.push(h, x);
            }
            return;
        }
        let len = self.slots[h].len;
        self.reserve(h, len + count);
        let s = self.slots[h];
        // SAFETY: no-drop T — bitwise moves transfer ownership; `incoming`
        // forgets its prefix by shifting down and shrinking its len.
        unsafe {
            ptr::copy_nonoverlapping(incoming.as_ptr(), self.base_mut(s.off).add(len), count);
            let rem = incoming.len() - count;
            ptr::copy(incoming.as_ptr().add(count), incoming.as_mut_ptr(), rem);
            incoming.set_len(rem);
        }
        self.slots[h].len += count;
    }
}

impl<T: Clone> LevelArena<T> {
    /// Clone-append a whole slice to slot `h`'s unsorted tail — the bulk
    /// ingest primitive behind `update_batch`.
    pub fn extend_from_slice(&mut self, h: usize, xs: &[T]) {
        let len = self.slots[h].len;
        self.reserve(h, len + xs.len());
        let s = self.slots[h];
        let mut p = self.base_mut(s.off + s.len);
        if std::mem::needs_drop::<T>() {
            for x in xs {
                // SAFETY: in-bounds (reserved above); len is bumped per item
                // so a panicking clone leaves only initialized items owned.
                unsafe {
                    ptr::write(p, x.clone());
                    p = p.add(1);
                }
                self.slots[h].len += 1;
            }
        } else {
            // No drop glue: a panicking clone can only leak, so the length
            // is written once and the clone loop compiles down to a memcpy
            // for plain `Copy` items.
            for x in xs {
                // SAFETY: in-bounds (reserved above).
                unsafe {
                    ptr::write(p, x.clone());
                    p = p.add(1);
                }
            }
            self.slots[h].len = len + xs.len();
        }
    }
}

/// Branchless kernels — only reachable for `T` without drop glue (the
/// compactor gates on `needs_drop`, which const-folds per monomorphization).
impl<T> LevelArena<T> {
    /// Merge the two adjacent sorted regions `items[lo..mid]` and
    /// `items[mid..len]` of slot `h` in place, leaving `items[lo..len]`
    /// sorted. Backward merge: the right region is staged in the shared
    /// scratch, the left region's suffix never leaves the arena.
    /// `items[..lo]` is untouched; run/warm bookkeeping is the caller's.
    pub fn merge_regions(
        &mut self,
        h: usize,
        lo: usize,
        mid: usize,
        mut cmp: impl FnMut(&T, &T) -> Ordering,
    ) {
        assert!(!std::mem::needs_drop::<T>());
        let s = self.slots[h];
        debug_assert!(lo <= mid && mid <= s.len);
        let right = s.len - mid;
        if right == 0 || lo == mid {
            return;
        }
        self.scratch.clear();
        self.scratch.reserve(right);
        // SAFETY: no-drop T. The right region is bit-copied to scratch (the
        // sole live copy for merge purposes), then the kernel rewrites
        // [lo, len) from two sorted sides; every position stays
        // bitwise-initialized throughout, even mid-panic of `cmp`.
        unsafe {
            let base = self.base_mut(s.off);
            ptr::copy_nonoverlapping(base.add(mid), self.scratch.as_mut_ptr(), right);
            merge_backward(
                base.add(lo),
                mid - lo,
                self.scratch.as_ptr(),
                right,
                &mut cmp,
            );
        }
    }

    /// Merge the first `count` items of the sorted `incoming` into slot
    /// `h`'s sorted region `items[lo..len]`, in place; the merged prefix is
    /// removed from `incoming` and the slot grows by `count`. `items[..lo]`
    /// is untouched; run/warm bookkeeping is the caller's.
    pub fn merge_vec_into_region(
        &mut self,
        h: usize,
        lo: usize,
        incoming: &mut Vec<T>,
        count: usize,
        mut cmp: impl FnMut(&T, &T) -> Ordering,
    ) {
        assert!(!std::mem::needs_drop::<T>());
        let len = self.slots[h].len;
        debug_assert!(lo <= len && count <= incoming.len());
        self.reserve(h, len + count);
        let s = self.slots[h];
        // SAFETY: as merge_regions; incoming's merged prefix is forgotten by
        // shifting its remainder down (no-drop T).
        unsafe {
            merge_backward(
                self.base_mut(s.off).add(lo),
                len - lo,
                incoming.as_ptr(),
                count,
                &mut cmp,
            );
            let rem = incoming.len() - count;
            ptr::copy(incoming.as_ptr().add(count), incoming.as_mut_ptr(), rem);
            incoming.set_len(rem);
        }
        self.slots[h].len += count;
    }

    /// Compact the `c` internally-greatest items out of slot `h` without
    /// first merging its regions. The slot must be laid out as three sorted
    /// regions — the cold run `items[..run]`, the warm run
    /// `items[run..run+warm]` and a (pre-sorted) tail `items[run+warm..]` —
    /// each ordered by `cmp`. A backward 3-way merge walks the region tops;
    /// conceptually the merged top-`c` occupies positions `c-1..=0`
    /// (ascending), and every position `≡ offset (mod 2)` is written
    /// *directly* onto `out` — discarded positions are never copied
    /// anywhere, so the kernel moves only `⌈c/2⌉` items, not `c`. The three
    /// surviving region prefixes are then compacted back-to-back in place
    /// and the slot's `run_len` becomes the surviving cold-run length.
    ///
    /// Returns `(run', warm', tail', emitted)` — the surviving region
    /// lengths and the emitted count. This is the hot compaction kernel: the
    /// protected items are never rewritten, only the small survivors of the
    /// warm run and tail shift down.
    // Three region cursors plus the schedule's (c, offset) are the kernel's
    // natural arity; bundling them into a struct would only obscure the
    // call site in `compact_above`.
    #[allow(clippy::too_many_arguments)]
    pub fn compact_top(
        &mut self,
        h: usize,
        run: usize,
        warm: usize,
        c: usize,
        offset: usize,
        out: &mut Vec<T>,
        mut cmp: impl FnMut(&T, &T) -> Ordering,
    ) -> (usize, usize, usize, usize) {
        assert!(!std::mem::needs_drop::<T>());
        let s = self.slots[h];
        let len = s.len;
        debug_assert!(run + warm <= len && c <= len && offset <= 1);
        let tail = len - run - warm;
        let (mut ri, mut wi, mut ti) = (run, warm, tail);
        let emitted = c.saturating_sub(offset).div_ceil(2);
        // SAFETY: no-drop T throughout — every copy is a bit-copy whose
        // source positions are forgotten by the length/region cuts below, so
        // each item has exactly one live owner at the end. The selection
        // loops only read initialized positions (each cursor stays within
        // its region); emission writes `out[len..len+emitted]` within the
        // reserved capacity (position parity maps each emitted slot
        // uniquely).
        unsafe {
            let base = self.base_mut(s.off);
            let rp = base.cast_const();
            let wp = rp.add(run);
            let tp = rp.add(run + warm);
            out.reserve(emitted);
            let ob = out.as_mut_ptr().add(out.len());
            // Backward 3-way merge of the region tops. Later (newer) regions
            // win ties; the merged sequence is identical either way since
            // tied items are equal. The selection is branchless — pointer
            // selects compile to cmov, cursors step by bool arithmetic — so
            // the data-dependent comparison outcomes never become branch
            // mispredicts. The emit check alternates deterministically with
            // `d` (a period-2 branch, perfectly predicted); discarded items
            // cost two comparisons and zero copies.
            let mut d = c;
            while d > 0 && ri > 0 && wi > 0 && ti > 0 {
                let pr = rp.add(ri - 1);
                let pw = wp.add(wi - 1);
                let pt = tp.add(ti - 1);
                let w_ge = cmp(&*pw, &*pr) != Ordering::Less;
                let p1 = if w_ge { pw } else { pr };
                let t_ge = cmp(&*pt, &*p1) != Ordering::Less;
                let src = if t_ge { pt } else { p1 };
                d -= 1;
                if d & 1 == offset {
                    ptr::copy_nonoverlapping(src, ob.add((d - offset) >> 1), 1);
                }
                ti -= t_ge as usize;
                wi -= (!t_ge & w_ge) as usize;
                ri -= (!t_ge & !w_ge) as usize;
            }
            // One region is exhausted: exactly one of these 2-way branchless
            // loops runs (the other two see an empty side).
            while d > 0 && wi > 0 && ti > 0 {
                let pw = wp.add(wi - 1);
                let pt = tp.add(ti - 1);
                let t_ge = cmp(&*pt, &*pw) != Ordering::Less;
                let src = if t_ge { pt } else { pw };
                d -= 1;
                if d & 1 == offset {
                    ptr::copy_nonoverlapping(src, ob.add((d - offset) >> 1), 1);
                }
                ti -= t_ge as usize;
                wi -= !t_ge as usize;
            }
            while d > 0 && ri > 0 && ti > 0 {
                let pr = rp.add(ri - 1);
                let pt = tp.add(ti - 1);
                let t_ge = cmp(&*pt, &*pr) != Ordering::Less;
                let src = if t_ge { pt } else { pr };
                d -= 1;
                if d & 1 == offset {
                    ptr::copy_nonoverlapping(src, ob.add((d - offset) >> 1), 1);
                }
                ti -= t_ge as usize;
                ri -= !t_ge as usize;
            }
            while d > 0 && ri > 0 && wi > 0 {
                let pr = rp.add(ri - 1);
                let pw = wp.add(wi - 1);
                let w_ge = cmp(&*pw, &*pr) != Ordering::Less;
                let src = if w_ge { pw } else { pr };
                d -= 1;
                if d & 1 == offset {
                    ptr::copy_nonoverlapping(src, ob.add((d - offset) >> 1), 1);
                }
                wi -= w_ge as usize;
                ri -= !w_ge as usize;
            }
            // A single region remains: its top `d` items fill merged
            // positions `0..d` in order, so emit a strided every-other copy.
            if d > 0 {
                let lo = if ri > 0 {
                    ri -= d;
                    rp.add(ri)
                } else if wi > 0 {
                    wi -= d;
                    wp.add(wi)
                } else {
                    ti -= d;
                    tp.add(ti)
                };
                let mut q = offset;
                while q < d {
                    ptr::copy_nonoverlapping(lo.add(q), ob.add((q - offset) >> 1), 1);
                    q += 2;
                }
            }
            out.set_len(out.len() + emitted);
            // Close the gaps: surviving warm and tail prefixes shift down
            // onto the surviving cold run (overlap-safe leftward copies).
            if ri < run && wi > 0 {
                ptr::copy(base.add(run), base.add(ri), wi);
            }
            if ri + wi < run + warm && ti > 0 {
                ptr::copy(base.add(run + warm), base.add(ri + wi), ti);
            }
        }
        let s = &mut self.slots[h];
        s.len = len - c;
        s.run_len = ri;
        (ri, wi, ti, emitted)
    }
}

/// Backward in-place merge dispatch: merge the sorted `a[..a_len]` (in
/// place) with the sorted `b[..b_len]` into `a[..a_len + b_len]`, filling
/// from the high end, preferring the `a` side on ties. Picks the galloping
/// kernel when `b` is much smaller than `a` (the steady-state shape: a
/// compaction-sized tail or emitted run entering a `B`-sized level run),
/// the branchless element-wise kernel otherwise. Both produce the
/// identical, fully determined stable-merge output.
///
/// # Safety
///
/// `a` must point to `a_len + b_len` contiguous writable positions of which
/// the first `a_len` hold sorted items; `b`/`b_len` must be a disjoint
/// sorted slice; `T` must have no drop glue (positions are overwritten
/// without reading their old values).
unsafe fn merge_backward<T>(
    a: *mut T,
    a_len: usize,
    b: *const T,
    b_len: usize,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    if b_len * 8 <= a_len {
        merge_hi_gallop(a, a_len, b, b_len, cmp);
    } else {
        merge_hi(a, a_len, b, b_len, cmp);
    }
}

/// Element-wise backward merge (merge-hi). Equivalent to a forward merge
/// that prefers the `a` side on ties (backward: take `a` only when strictly
/// Greater). The inner loop is branchless — one comparison, a
/// conditional-move pointer select, one element copy, two flag-arithmetic
/// index updates.
///
/// # Safety
///
/// As [`merge_backward`].
unsafe fn merge_hi<T>(
    a: *mut T,
    a_len: usize,
    b: *const T,
    b_len: usize,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    let mut ai = a_len;
    let mut bi = b_len;
    let mut di = a_len + b_len;
    while ai > 0 && bi > 0 {
        let ap = a.add(ai - 1);
        let bp = b.add(bi - 1);
        let take_a = cmp(&*ap, &*bp) == Ordering::Greater;
        let src = if take_a { ap.cast_const() } else { bp };
        di -= 1;
        // dst index di = ai + bi - 1 > ai - 1 (bi >= 1), so never aliases ap.
        ptr::copy_nonoverlapping(src, a.add(di), 1);
        ai -= usize::from(take_a);
        bi -= usize::from(!take_a);
    }
    if bi > 0 {
        // a exhausted: the b remainder fills the low positions.
        ptr::copy_nonoverlapping(b, a, bi);
    }
    // bi == 0: the a remainder a[..ai] is already in place.
}

/// Galloping backward merge for `b_len ≪ a_len`: per `b` item (high to
/// low), a backward *linear* scan locates the `a` items strictly above it
/// and one overlapping block `memmove` shifts them into place. The scan
/// positions are monotone across `b` items, so total comparison work is
/// bounded by `moved + b` — and unlike a binary search (whose every probe
/// is a coin-flip branch) the scan's compare branch is almost always
/// taken, so it predicts. Every moved `a` item is shifted by `memmove` at
/// block-copy speed instead of the element-wise kernel's latency-bound
/// compare/cmov/copy chain. Tie handling matches [`merge_hi`] exactly (the
/// block holds the `a` items strictly greater, so equal `a` items land
/// before equal `b` items).
///
/// # Safety
///
/// As [`merge_backward`].
unsafe fn merge_hi_gallop<T>(
    a: *mut T,
    a_len: usize,
    b: *const T,
    b_len: usize,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    let mut ai = a_len;
    let mut bi = b_len;
    // Invariant: di == ai + bi (unplaced items exactly fill a[..di]).
    let mut di = a_len + b_len;
    while bi > 0 {
        if ai == 0 {
            // a exhausted: the b remainder fills the low positions.
            ptr::copy_nonoverlapping(b, a, bi);
            return;
        }
        let bmax = &*b.add(bi - 1);
        // a[cut..ai] are strictly greater than bmax (prefer-a tie rule).
        let mut cut = ai;
        while cut > 0 && cmp(&*a.add(cut - 1), bmax) == Ordering::Greater {
            cut -= 1;
        }
        let block = ai - cut;
        di -= block;
        if block < 32 {
            // Typical blocks are a dozen items; an inline backward copy
            // (safe under the rightward overlap) skips the memmove libcall.
            for j in (0..block).rev() {
                ptr::copy_nonoverlapping(a.add(cut + j), a.add(di + j), 1);
            }
        } else {
            // Overlapping shift right; `copy` handles it like memmove.
            ptr::copy(a.add(cut), a.add(di), block);
        }
        ai = cut;
        di -= 1;
        ptr::copy_nonoverlapping(bmax as *const T, a.add(di), 1);
        bi -= 1;
    }
    // bi == 0: the a remainder a[..ai] is already in place (di == ai).
}

impl<T: Clone> Clone for LevelArena<T> {
    fn clone(&self) -> Self {
        let mut out = LevelArena {
            data: Vec::new(),
            slots: Vec::new(),
            scratch: Vec::new(),
            items_moved_rebalance: self.items_moved_rebalance,
        };
        out.data.resize_with(self.data.len(), MaybeUninit::uninit);
        for (h, s) in self.slots.iter().enumerate() {
            out.slots.push(Slot {
                off: s.off,
                len: 0,
                cap: s.cap,
                run_len: 0,
            });
            for (i, x) in self.items(h).iter().enumerate() {
                // Plain MaybeUninit assignment (no drop of the old value);
                // len is bumped per item so a panicking clone drops cleanly.
                out.data[s.off + i] = MaybeUninit::new(x.clone());
                out.slots[h].len = i + 1;
            }
            out.slots[h].run_len = s.run_len;
        }
        out
    }
}

impl<T> Drop for LevelArena<T> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<T>() {
            for h in 0..self.slots.len() {
                let s = self.slots[h];
                // SAFETY: each slot's initialized prefix is dropped exactly
                // once; ranges are disjoint by the slot invariant.
                unsafe {
                    let p = self.base_mut(s.off);
                    ptr::drop_in_place(ptr::slice_from_raw_parts_mut(p, s.len));
                }
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for LevelArena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("LevelArena");
        d.field("levels", &self.slots.len())
            .field("slots", &self.slots)
            .field("items_moved_rebalance", &self.items_moved_rebalance);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_items_roundtrip() {
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(4);
        for i in 0..20u64 {
            a.push(h, i);
        }
        assert_eq!(a.len(h), 20);
        assert_eq!(a.items(h), (0..20).collect::<Vec<_>>().as_slice());
        assert!(a.slot_capacity(h) >= 20);
    }

    #[test]
    fn growth_shifts_later_slots_and_counts_moves() {
        let mut a = LevelArena::<u64>::new();
        let h0 = a.add_level(4);
        let h1 = a.add_level(4);
        for i in 0..4u64 {
            a.push(h1, 100 + i);
        }
        assert_eq!(a.items_moved_rebalance(), 0);
        for i in 0..8u64 {
            a.push(h0, i); // forces slot 0 to grow past 4 → shifts slot 1
        }
        assert_eq!(a.items(h0), (0..8).collect::<Vec<_>>().as_slice());
        assert_eq!(a.items(h1), &[100, 101, 102, 103]);
        assert!(a.items_moved_rebalance() >= 4);
    }

    #[test]
    fn take_restore_roundtrip_with_drop_type() {
        let mut a = LevelArena::<String>::new();
        let h = a.add_level(4);
        for i in 0..6 {
            a.push(h, format!("s{i}"));
        }
        a.set_run_len(h, 3);
        let (v, run) = a.take_level(h);
        assert_eq!(run, 3);
        assert_eq!(v.len(), 6);
        assert_eq!(a.len(h), 0);
        a.restore_level(h, v, 6);
        assert_eq!(a.items(h)[5], "s5");
        assert_eq!(a.run_len(h), 6);
        a.truncate(h, 2);
        assert_eq!(a.items(h), &["s0", "s1"]);
    }

    #[test]
    fn clone_preserves_items_and_drops_cleanly() {
        let mut a = LevelArena::<String>::new();
        let h0 = a.add_level(2);
        let h1 = a.add_level(2);
        a.push(h0, "a".into());
        a.push(h0, "b".into());
        a.push(h1, "z".into());
        let b = a.clone();
        drop(a);
        assert_eq!(b.items(h0), &["a", "b"]);
        assert_eq!(b.items(h1), &["z"]);
    }

    #[test]
    fn merge_regions_produces_one_sorted_span() {
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(16);
        for x in [10u64, 30, 50, 70] {
            a.push(h, x);
        }
        a.set_run_len(h, 4);
        for x in [20u64, 60] {
            a.push(h, x);
        }
        a.items_mut(h)[4..].sort_unstable();
        // gallop split: run items <= 20 stay put → merge from lo = 1
        a.merge_regions(h, 1, 4, u64::cmp);
        assert_eq!(a.items(h), &[10, 20, 30, 50, 60, 70]);
        a.set_run_len(h, 6);
        assert_eq!(a.run_len(h), 6);
    }

    #[test]
    fn merge_vec_into_region_merges_and_consumes() {
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(8);
        for x in [10u64, 40, 80] {
            a.push(h, x);
        }
        a.set_run_len(h, 3);
        let mut incoming = vec![20u64, 50, 90, 7, 8];
        a.merge_vec_into_region(h, 1, &mut incoming, 3, u64::cmp);
        assert_eq!(a.items(h), &[10, 20, 40, 50, 80, 90]);
        assert_eq!(incoming, vec![7, 8]);
    }

    #[test]
    fn compact_top_selects_across_three_regions() {
        // R = [10, 40, 70], W = [20, 50, 80], T = [30, 60, 90]; the top 4 of
        // the union are {60, 70, 80, 90}.
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(16);
        for x in [10u64, 40, 70, 20, 50, 80, 30, 60, 90] {
            a.push(h, x);
        }
        a.set_run_len(h, 3);
        let mut out = Vec::new();
        let (r, w, t, emitted) = a.compact_top(h, 3, 3, 4, 0, &mut out, u64::cmp);
        assert_eq!((r, w, t, emitted), (2, 2, 1, 2));
        // Every other of the sorted top [60, 70, 80, 90] from offset 0.
        assert_eq!(out, vec![60, 80]);
        // Survivors compacted back-to-back, regions still sorted.
        assert_eq!(a.items(h), &[10, 40, 20, 50, 30]);
        assert_eq!(a.run_len(h), 2);
        assert_eq!(a.len(h), 5);
    }

    #[test]
    fn compact_top_empty_regions_and_offset() {
        // All items in the tail (run = warm = 0), odd offset.
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(8);
        for x in 0..8u64 {
            a.push(h, x);
        }
        let mut out = Vec::new();
        let (r, w, t, emitted) = a.compact_top(h, 0, 0, 4, 1, &mut out, u64::cmp);
        assert_eq!((r, w, t, emitted), (0, 0, 4, 2));
        assert_eq!(out, vec![5, 7]);
        assert_eq!(a.items(h), &[0, 1, 2, 3]);
    }

    #[test]
    fn append_vec_prefix_moves_prefix_only() {
        let mut a = LevelArena::<u64>::new();
        let h = a.add_level(4);
        a.push(h, 1);
        let mut v = vec![10u64, 11, 12, 13];
        a.append_vec_prefix(h, &mut v, 2);
        assert_eq!(a.items(h), &[1, 10, 11]);
        assert_eq!(v, vec![12, 13]);

        let mut a = LevelArena::<String>::new();
        let h = a.add_level(4);
        let mut v = vec!["x".to_string(), "y".into(), "z".into()];
        a.append_vec_prefix(h, &mut v, 2);
        assert_eq!(a.items(h), &["x", "y"]);
        assert_eq!(v, vec!["z"]);
    }

    #[test]
    fn merge_hi_tie_semantics_prefer_existing_run() {
        // Forward-merge-prefers-a semantics: with equal keys the run (a)
        // side must land before the incoming (b) side.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Tagged(u64, u8);
        let mut a = LevelArena::<Tagged>::new();
        let h = a.add_level(8);
        for x in [Tagged(5, 0), Tagged(5, 1)] {
            a.push(h, x);
        }
        a.set_run_len(h, 2);
        let mut incoming = vec![Tagged(5, 2), Tagged(5, 3)];
        a.merge_vec_into_region(h, 0, &mut incoming, 2, |x, y| x.0.cmp(&y.0));
        let tags: Vec<u8> = a.items(h).iter().map(|t| t.1).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
    }
}
