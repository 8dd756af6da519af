//! # `req-service` — a durable, multi-tenant quantile service
//!
//! The serving layer over [`req_core`]: a service that **owns** named REQ
//! sketches, **survives restarts**, and **answers typed requests**. It is
//! built from three layers, each usable on its own:
//!
//! * **[`registry`]** — a keyed map of tenants (`HashMap<String,
//!   ConcurrentReqSketch<OrdF64>>` behind sharded locks), each with its
//!   own accuracy/orientation/schedule configuration ([`config`]);
//! * **[`wal`] + [`snapshot`]** — durability: every mutation is appended
//!   to a checksummed write-ahead log before it is applied, and a
//!   snapshot store (binary format v3 inside [`req_core::frame`] frames)
//!   periodically folds the log down, rotating it. Crash recovery = load
//!   the latest valid snapshot, replay the WAL tail ([`service`]);
//! * **[`protocol`] + [`execute()`] + [`client`]** — the wire API as typed
//!   [`Request`]/[`Response`] enums with two codecs (one-line text,
//!   CRC32-framed binary), the [`execute()`] funnel that answers one
//!   request, and the transport-independent [`ClientApi`] with its
//!   [`RetryPolicy`].
//!
//! This crate has no socket code. The `req-evented` crate serves both
//! codecs on one port from an event loop, holds the one client type, and
//! ships the `req-server` and `req-cli` binaries.
//!
//! The recovery guarantee is deliberately stronger than "within the
//! sketch's ε": because snapshots checkpoint each tenant *onto its own
//! serialization* ([`req_core::ConcurrentReqSketch::checkpoint`]) and the
//! WAL preserves exact `f64` bit patterns in arrival order, a crashed and
//! recovered service returns **value-identical** answers to one that
//! never crashed (experiment E16 in the harness, plus this crate's
//! `recovery` proptests, verify it end to end).
//!
//! ```no_run
//! use req_service::{QuantileService, ServiceConfig, TenantConfig};
//!
//! let service = QuantileService::open(ServiceConfig::new("/var/lib/req"))?;
//! service.create("api.latency", TenantConfig::for_key("api.latency"))?;
//! service.add("api.latency", 12.5)?;
//! let p99 = service.quantile("api.latency", 0.99)?;
//! # let _ = p99;
//! # Ok::<(), req_core::ReqError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
mod dedup;
pub mod execute;
pub mod faults;
mod follower;
pub mod protocol;
pub mod registry;
pub mod service;
pub mod snapshot;
pub mod tempdir;
pub mod wal;

pub use client::{ClientApi, CreateOptions, RetryPolicy};
pub use config::{stable_key_hash, Accuracy, ServiceConfig, TenantConfig};
pub use execute::execute;
pub use faults::{FaultKind, FaultPlane, FaultSite};
pub use protocol::{
    Binary, ChangedShards, Codec, ErrorKind, IdemToken, Request, RequestKind, Response,
    ShardVersions, TailSegment, Text,
};
pub use registry::{Registry, Tenant};
pub use service::{check_quantile_rank, QuantileService, RecoveryReport, TenantStats};
pub use snapshot::{
    AppliedOutcome, DedupClientSnapshot, SnapshotData, Snapshotter, TenantSnapshot,
};
pub use wal::{WalRecord, WalReplay, WalWriter};
