//! The typed client surface for the service's wire API.
//!
//! [`ClientApi`] is the transport-independent surface: one required
//! method ([`ClientApi::call`]) sends a typed [`Request`] and returns the
//! typed [`Response`]; every command gets a typed convenience method
//! (`rank()`, `quantile()`, `add_batch()`, …) as a default on the trait.
//! `req_evented::ReqBinClient` implements it over one connection, and the
//! cluster router implements it over a ring of nodes — callers swap
//! transports without touching call sites.
//!
//! Remote failures come back as the same [`ReqError`] variants the server
//! raised (the error kind round-trips through [`Response::Err`]), so
//! callers handle local and remote errors uniformly.
//!
//! ## Resilience
//!
//! Clients carry a [`RetryPolicy`]: connect/read/write timeouts, plus
//! capped exponential backoff with deterministic jitter. Mutations
//! (`CREATE`/`ADDB`/`DROP`) are stamped with an idempotency token
//! (`client_id:seq`, see [`attach_token`]) before the first send, so a
//! retry after an ambiguous timeout re-sends the *same* token and the
//! server's dedup window applies it exactly once — even across a server
//! crash and recovery. Queries are naturally idempotent and retry freely.

use req_core::ReqError;
use std::time::Duration;

use crate::config::TenantConfig;
use crate::faults::mix;
use crate::protocol::{IdemToken, Request, Response, TailSegment};
use crate::service::TenantStats;

/// Timeouts and retry/backoff settings for resilient clients.
///
/// Backoff for attempt `k` is `min(base_backoff · 2^k, max_backoff)`,
/// scaled into `[cap/2, cap)` by a deterministic jitter derived from
/// `seed` and `k` — two clients with different seeds desynchronize their
/// retry storms, yet a given client replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-response read timeout.
    pub read_timeout: Duration,
    /// Per-request write timeout.
    pub write_timeout: Duration,
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First retry's backoff cap.
    pub base_backoff: Duration,
    /// Backoff ceiling for late retries.
    pub max_backoff: Duration,
    /// Jitter seed (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (timeouts still apply).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry `attempt` (0-based): deterministic, jittered,
    /// always within `[cap/2, cap)` where
    /// `cap = min(base_backoff · 2^attempt, max_backoff)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        let max = self.max_backoff.as_nanos() as u64;
        let cap = base.saturating_mul(1u64 << attempt.min(32)).min(max).max(1);
        // Jitter fraction in [0, 1): the top 53 bits of a SplitMix64 hash
        // of (seed, attempt), exactly representable in an f64.
        let frac = (mix(self.seed ^ mix(u64::from(attempt))) >> 11) as f64 / (1u64 << 53) as f64;
        let nanos = (cap / 2) + ((cap as f64 / 2.0) * frac) as u64;
        Duration::from_nanos(nanos.min(cap.saturating_sub(1).max(1)))
    }
}

fn unexpected(resp: &Response) -> ReqError {
    ReqError::Io(format!("unexpected response {resp:?}"))
}

/// The typed client surface, independent of transport and codec.
///
/// Implementors provide [`ClientApi::call`]; every command's typed
/// method rides on it. All methods are synchronous round-trips.
pub trait ClientApi {
    /// Send one typed request and return the server's typed response.
    /// A [`Response::Err`] is returned as-is (the typed methods below
    /// convert it into the matching [`ReqError`]); transport failures
    /// surface as [`ReqError::Io`].
    fn call(&mut self, req: &Request) -> Result<Response, ReqError>;

    /// `CREATE key` with `config`, e.g. [`TenantConfig::for_key`].
    fn create(&mut self, key: &str, config: TenantConfig) -> Result<(), ReqError> {
        let req = Request::Create {
            key: key.to_string(),
            config,
            token: None,
        };
        match self.call(&req)?.into_result()? {
            Response::Created => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `ADDB key v…` — returns how many values the server ingested.
    fn add_batch(&mut self, key: &str, values: &[f64]) -> Result<u64, ReqError> {
        if values.is_empty() {
            return Ok(0);
        }
        let req = Request::AddBatch {
            key: key.to_string(),
            values: values.to_vec(),
            token: None,
        };
        match self.call(&req)?.into_result()? {
            Response::AddedBatch(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// `RANK key value`.
    fn rank(&mut self, key: &str, value: f64) -> Result<u64, ReqError> {
        let req = Request::Rank {
            key: key.to_string(),
            value,
        };
        match self.call(&req)?.into_result()? {
            Response::Rank(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// `QUANTILE key q`; `None` while the tenant is empty.
    fn quantile(&mut self, key: &str, q: f64) -> Result<Option<f64>, ReqError> {
        let req = Request::Quantile {
            key: key.to_string(),
            q,
        };
        match self.call(&req)?.into_result()? {
            Response::Quantile(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// `CDF key p…`.
    fn cdf(&mut self, key: &str, points: &[f64]) -> Result<Vec<f64>, ReqError> {
        let req = Request::Cdf {
            key: key.to_string(),
            points: points.to_vec(),
        };
        match self.call(&req)?.into_result()? {
            Response::Cdf(ranks) => Ok(ranks),
            other => Err(unexpected(&other)),
        }
    }

    /// `STATS key`.
    fn stats(&mut self, key: &str) -> Result<TenantStats, ReqError> {
        let req = Request::Stats {
            key: key.to_string(),
        };
        match self.call(&req)?.into_result()? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// `LIST` — all keys, sorted.
    fn list(&mut self) -> Result<Vec<String>, ReqError> {
        match self.call(&Request::List)?.into_result()? {
            Response::List(keys) => Ok(keys),
            other => Err(unexpected(&other)),
        }
    }

    /// `SNAPSHOT` — force a snapshot, returning the new generation.
    fn snapshot(&mut self) -> Result<u64, ReqError> {
        match self.call(&Request::Snapshot)?.into_result()? {
            Response::Snapshot(generation) => Ok(generation),
            other => Err(unexpected(&other)),
        }
    }

    /// `DROP key`.
    fn drop_key(&mut self, key: &str) -> Result<(), ReqError> {
        let req = Request::Drop {
            key: key.to_string(),
            token: None,
        };
        match self.call(&req)?.into_result()? {
            Response::Dropped => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `TAIL gen offset max_bytes` — fetch a replication slice of the
    /// server's WAL: whole valid frames of generation `gen` from byte
    /// `offset` (0 = first frame), plus the seal/latest-generation
    /// markers a follower needs to track rotations.
    fn tail_wal(
        &mut self,
        generation: u64,
        offset: u64,
        max_bytes: u32,
    ) -> Result<TailSegment, ReqError> {
        let req = Request::Tail {
            gen: generation,
            offset,
            max_bytes,
        };
        match self.call(&req)?.into_result()? {
            Response::Tailed(segment) => Ok(segment),
            other => Err(unexpected(&other)),
        }
    }

    /// `METRICS` — the server's telemetry registry as Prometheus-style
    /// text exposition (multi-line).
    fn metrics(&mut self) -> Result<String, ReqError> {
        match self.call(&Request::Metrics)?.into_result()? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// `EVENTS max` — the newest `max` structured lifecycle events,
    /// oldest first, one rendered line per event.
    fn events(&mut self, max: u32) -> Result<Vec<String>, ReqError> {
        let req = Request::Events { max };
        match self.call(&req)?.into_result()? {
            Response::Events(lines) => Ok(lines),
            other => Err(unexpected(&other)),
        }
    }

    /// `PING`.
    fn ping(&mut self) -> Result<(), ReqError> {
        match self.call(&Request::Ping)?.into_result()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `QUIT` — ask the server to close this connection.
    fn quit(mut self) -> Result<(), ReqError>
    where
        Self: Sized,
    {
        match self.call(&Request::Quit)?.into_result()? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// Stamp an unstamped mutation with the next `(client_id, seq)` token.
/// `next_seq` is bumped only when a token is attached, so queries don't
/// burn window slots. Explicitly pre-stamped requests pass through.
pub fn attach_token(req: &mut Request, client_id: u64, next_seq: &mut u64) {
    let slot = match req {
        Request::Create { token, .. }
        | Request::AddBatch { token, .. }
        | Request::Drop { token, .. } => token,
        _ => return,
    };
    if slot.is_none() {
        *slot = Some(IdemToken {
            client_id,
            seq: *next_seq,
        });
        *next_seq += 1;
    }
}

/// A process-unique client id: pid mixed with a monotonic counter and a
/// clock sample, so concurrently spawned clients (or a restarted process
/// reusing a pid) get distinct dedup windows on the server.
pub fn fresh_client_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mix(nanos)
        ^ mix(u64::from(std::process::id()).wrapping_shl(32))
        ^ mix(COUNTER.fetch_add(1, Ordering::Relaxed))
}
