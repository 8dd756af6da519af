//! # `req-evented` — the network front-end of the quantile service
//!
//! The one server and the one client over `req_service`'s cores
//! (registry, WAL + group commit, snapshots, and the typed
//! [`req_service::Request`]/[`req_service::Response`] protocol).
//!
//! * **[`server`]** — readiness-driven event loops over non-blocking
//!   sockets (via the vendored `polling` epoll shim). One port serves
//!   both codecs: each connection picks text or binary from its fourth
//!   byte, then runs the same read → parse every complete message →
//!   [`req_service::execute()`] → flush loop, so either codec gets request
//!   **pipelining** and fd-limit-bound connection density. A parked
//!   connection costs a registry entry and two buffers, not an OS thread.
//! * **[`client`]** — [`ReqBinClient`], over the binary codec: dial and
//!   redial, the [`req_service::RetryPolicy`] loop, idempotency-token
//!   stamping and pipelined calls. Programs speak binary; the text codec
//!   is served for people at a terminal (`nc`).
//!
//! The crate also ships the `req-server` binary (this server over a data
//! directory) and `req-cli` (the shell's text commands, carried by a
//! [`ReqBinClient`]).
//!
//! Every request on either codec funnels through
//! [`req_service::execute()`], so a command behaves identically whichever
//! codec carried it; `tests/cross_codec.rs` pins that on live servers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;

pub use client::ReqBinClient;
pub use server::{serve_evented, serve_evented_with, EventedHandle, EventedOptions};
