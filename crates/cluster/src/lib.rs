//! # `req-cluster` — replicated, sharded multi-node quantile serving
//!
//! The cluster layer over the single-node req-server stack: N nodes,
//! each a primary with a warm standby, behind a consistent-hash router.
//! Three mechanisms, each leaning on an invariant the lower layers
//! already proved:
//!
//! * **[`HashRing`] + [`Router`]** — tenant keys map to nodes by
//!   consistent hashing over *names* (64 vnodes/node, deterministic
//!   across processes); the router speaks the pipelined binary protocol
//!   and stamps idempotency tokens itself, so a retry re-sent after a
//!   failover reuses the token the dying primary saw.
//! * **[`TailShipper`]** — WAL-tail shipping. A follower pulls the
//!   primary's WAL frames over `TAIL` and replays them byte-for-byte
//!   (`[append → apply]`, the primary's own order), mirroring snapshot
//!   rotations at the same record index. Result: the standby's data
//!   directory is **byte-identical** to the primary's at every shipped
//!   watermark — WAL files, snapshots, serialized sketch state, and the
//!   dedup windows that make post-failover retries exactly-once.
//! * **Scatter/gather `MERGE`** — a spread tenant ingests round-robin
//!   across all nodes; queries gather every node's shard sketches and
//!   answer over the union of their levels, which the REQ sketch's full
//!   mergeability (paper Theorem 3) guarantees costs no accuracy beyond
//!   the parts' own ε. The router keeps what it gathered, and a versioned
//!   `MERGE` ships only the shards that changed since.
//!
//! Failover is three small moves — kill detected, standby promoted
//! (`set_follower(false)`), name repointed — and none of them touch ring
//! ownership, so no keys remap and no data shuffles. [`Cluster`] wires
//! all of it up in-process over real TCP sockets for the kill-the-primary
//! test plane (`e18_cluster_failover`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod ring;
pub mod router;
pub mod ship;

pub use cluster::{Cluster, Node, Replica};
pub use ring::{HashRing, VNODES_PER_NODE};
pub use router::Router;
pub use ship::TailShipper;
