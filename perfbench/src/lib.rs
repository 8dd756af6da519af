//! Layer-ladder benchmark for the REQ quantile service.
//!
//! Three end-to-end workloads run against the real stack in process
//! (`ingest`, `mixed`, `replicated`; see [`workloads`]), and a traced run
//! ([`ladder`]) times calls into each layer's public functions on the
//! same seeded inputs. `src/main.rs` is the command line; `README.md`
//! lists every metric, its unit, and which end-to-end metric each layer
//! metric should move.

pub mod inputs;
pub mod ladder;
pub mod openloop;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
