//! # `req-core` — Relative Error Streaming Quantiles
//!
//! A from-scratch Rust implementation of the **REQ sketch** from
//!
//! > Graham Cormode, Zohar Karnin, Edo Liberty, Justin Thaler, Pavel Veselý.
//! > *Relative Error Streaming Quantiles.* PODS 2021 (arXiv:2004.01668).
//!
//! Given a one-pass stream of `n` items from any totally ordered universe,
//! the sketch retains `O(ε⁻¹·log^1.5(εn)·√log(1/δ))` items and answers any
//! fixed rank query `R(y) = |{x ≤ y}|` with **multiplicative** error:
//! with probability at least `1 − δ`,
//!
//! ```text
//! |R̂(y) − R(y)| ≤ ε·R(y)
//! ```
//!
//! (or `≤ ε·(n − R(y) + 1)` in the high-rank orientation — the right
//! guarantee for latency tails: p99/p99.9 queries get proportionally tighter
//! answers than the median). The sketch is comparison-based, needs no prior
//! knowledge of `n` or the universe, and is **fully mergeable** (Theorem 3):
//! summaries of shards may be combined along arbitrary merge trees with the
//! same guarantee.
//!
//! ## Quick start
//!
//! ```
//! use req_core::ReqSketch;
//! use sketch_traits::{QuantileSketch, MergeableSketch};
//!
//! // Two shards of a distributed stream:
//! let mut a = ReqSketch::<u64>::builder().k(12).seed(1).build().unwrap();
//! let mut b = ReqSketch::<u64>::builder().k(12).seed(2).build().unwrap();
//! for i in 0..500_000u64 {
//!     a.update(i);
//!     b.update(500_000 + i);
//! }
//! a.merge(b);
//! assert_eq!(a.len(), 1_000_000);
//!
//! // The p99.9 estimate lands proportionally close to the true tail:
//! let p999 = a.quantile(0.999).unwrap();
//! assert!((p999 as f64 - 999_000.0).abs() < 5_000.0);
//! ```
//!
//! ## Typed fast lanes
//!
//! The sketch is generic over any `T: Ord + Clone`, and the ingest hot path
//! specializes per type: for types without drop glue (`u64`, `i32`,
//! [`OrdF64`](struct@OrdF64), …) compaction runs through the arena's
//! branchless merge/emit kernels with zero per-item allocation; types with
//! drop glue (`String`, …) take a safe `Vec` lane with identical results.
//! Integers and other naturally ordered types need **no wrapper at all** —
//! `OrdF64` is only for `f64`, whose `NaN` breaks `Ord`. It stores the
//! `f64::total_cmp` key, so an `OrdF64` compares as a plain `i64` and rides
//! the integer lane at integer speed, while its encodings still carry the
//! raw `f64` bits:
//!
//! ```
//! use req_core::{QuantileSketch, RankAccuracy, ReqSketch};
//!
//! // Latency samples in integer nanoseconds: plain u64, no float wrapper.
//! let mut lat = ReqSketch::<u64>::builder()
//!     .k(16)
//!     .rank_accuracy(RankAccuracy::HighRank)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! lat.update_batch(&(0..100_000u64).map(|i| (i * 7919) % 1_000_000).collect::<Vec<_>>());
//!
//! let p99 = lat.quantile(0.99).unwrap();
//! assert!((980_000..=1_000_000).contains(&p99));
//! ```
//!
//! For `f64` streams, [`ReqF64`] (via `build_f64`) wraps the same machinery
//! behind `update_f64`/`quantile_f64`-style accessors.
//!
//! ## Module map
//!
//! * [`sketch`] — Algorithm 2 (the full sketch) and its query surface;
//! * [`compactor`] — Algorithm 1 (the relative-compactor building block);
//! * [`arena`] — the flat per-sketch level arena all compactor buffers
//!   live in, plus the branchless merge/emit kernels of the ingest hot
//!   path;
//! * [`schedule`] — the derandomized-exponential compaction schedule, plus
//!   the standard/adaptive section-planning schedules (adaptive compactors
//!   for seamless mergeability, arXiv:2511.17396);
//! * [`params`] — every parameterization the paper proves a theorem for;
//! * [`merge`] — Algorithm 3 (full mergeability) + merge-tree helpers;
//! * [`growing`] — the literal §5 unknown-`n` construction;
//! * [`view`] — sorted weighted snapshots, and the read cache every
//!   sketch's `rank`/`quantile`/`cdf` goes through: direct reads until
//!   repeated reads have paid for a cached union view (a ski-rental rule);
//! * [`union`] — Algorithm 2 over the union of sketches' levels, with no
//!   view built: the one read path of a single sketch, a sharded sketch's
//!   shards, the §5 growing sketch's summaries and cluster `MERGE` reads;
//! * [`quantiles_ext`] — rank bounds, batch ranks/quantiles, weighted
//!   updates;
//! * [`binary`] — compact binary serialization (format v3);
//! * [`frame`] — checksummed length-prefixed framing (WAL/snapshot files);
//! * [`concurrent`] — sharded multi-writer ingestion (batched), read as
//!   the union of the shards;
//! * [`ordf64`] — the total-order `f64` wrapper ([`ReqF64`]).

// Unsafe is denied everywhere except the arena module, whose branchless
// merge/emit kernels are the one place raw-pointer work buys the ingest
// path its memory-bandwidth budget (each unsafe block there documents its
// invariants and is covered by the byte-identity proptests), and one
// block in `frame`: the call into the carry-less CRC kernel, made right
// after the CPU is checked for the features that kernel enables.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod arena;
pub mod binary;
pub mod builder;
pub mod compactor;
pub mod concurrent;
pub mod error;
pub mod frame;
pub mod growing;
pub mod merge;
pub mod ordf64;
pub mod params;
pub mod quantiles_ext;
pub mod schedule;
pub mod sketch;
pub mod stats;
pub mod union;
pub mod view;

pub use arena::LevelArena;
pub use builder::ReqSketchBuilder;
pub use compactor::RankAccuracy;
pub use concurrent::ConcurrentReqSketch;
pub use error::ReqError;
pub use growing::GrowingReqSketch;
pub use merge::{merge_balanced, merge_linear, merge_random_tree, merge_wire_parts};
pub use ordf64::OrdF64;
pub use params::{ParamPolicy, Params};
pub use schedule::CompactionSchedule;
pub use sketch::{ReqF64, ReqSketch};
pub use stats::{LevelStats, SketchStats};
pub use view::{ReadCacheStats, SortedView};

// Re-export the shared traits so downstream users need only this crate.
pub use sketch_traits::{ErrorGuarantee, MergeableSketch, QuantileSketch, SpaceUsage};
