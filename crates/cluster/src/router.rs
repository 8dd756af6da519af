//! Key-routing front door for a cluster of req-servers.
//!
//! A [`Router`] owns a [`HashRing`] over the node *names* and a name →
//! address map. The separation is deliberate: failover promotes a warm
//! standby by **repointing the name** at the standby's address —
//! ownership on the ring never moves, so no keys remap and no cross-node
//! data shuffling happens on a node failure. Only genuine membership
//! changes (add/remove a node) rebuild the ring.
//!
//! The router speaks the pipelined binary protocol to each node through
//! one cached [`ReqBinClient`] per node and implements [`ClientApi`], so
//! it drops in anywhere a single-node client does. Idempotency tokens
//! are stamped **at the router** (one `client_id` for the router, not
//! per node connection): a mutation that failed ambiguously against a
//! dying primary can be re-sent verbatim to the promoted standby, and
//! because the standby replayed the primary's WAL — dedup windows
//! included — the retry applies exactly once. [`Router::stamp`] +
//! [`Router::call_stamped`] expose that replay loop directly.
//!
//! Keyless commands fan out: `LIST` unions all nodes' keys, `PING` and
//! `SNAPSHOT` touch every node. `QUIT` and `TAIL` are refused — one is
//! connection-scoped, the other node-scoped (a replication follower
//! tails *its* primary, not a hash ring).

use std::collections::HashMap;
use std::net::SocketAddr;

use req_core::union::{decode_parts, Union};
use req_core::{merge_wire_parts, OrdF64, ReqError, ReqSketch};
use req_evented::ReqBinClient;
use req_service::client::{attach_token, fresh_client_id};
use req_service::{check_quantile_rank, ClientApi, Request, Response, RetryPolicy, TenantConfig};

use crate::ring::HashRing;

/// Routing front door over the cluster's current primaries.
#[derive(Debug)]
pub struct Router {
    ring: HashRing,
    addrs: HashMap<String, SocketAddr>,
    /// One cached connection per node name; dropped on repoint so the
    /// next call dials the promoted address.
    clients: HashMap<String, ReqBinClient>,
    policy: RetryPolicy,
    client_id: u64,
    next_seq: u64,
    /// Calls that failed against a node (connection dropped, retry will
    /// redial) — surfaced as `cluster_router_node_errors_total`.
    node_errors: req_telemetry::Counter,
    /// Failover repoints performed — `cluster_router_repoints_total`.
    repoints: req_telemetry::Counter,
}

impl Router {
    /// Build a router over `nodes` (name, current primary address).
    pub fn new(nodes: &[(String, SocketAddr)], policy: RetryPolicy) -> Router {
        let names: Vec<&str> = nodes.iter().map(|(n, _)| n.as_str()).collect();
        Router {
            ring: HashRing::new(&names),
            addrs: nodes.iter().cloned().collect(),
            clients: HashMap::new(),
            policy,
            client_id: fresh_client_id(),
            next_seq: 1,
            node_errors: req_telemetry::global().counter("cluster_router_node_errors_total"),
            repoints: req_telemetry::global().counter("cluster_router_repoints_total"),
        }
    }

    /// The id stamped into this router's idempotency tokens.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The node name owning `key` under the current ring.
    pub fn node_for(&self, key: &str) -> &str {
        self.ring.node_for(key)
    }

    /// Current address of `name`.
    pub fn addr_of(&self, name: &str) -> Option<SocketAddr> {
        self.addrs.get(name).copied()
    }

    /// Member names, sorted.
    pub fn members(&self) -> &[String] {
        self.ring.members()
    }

    /// Failover: point `name` at a new address (the promoted standby).
    /// Ring ownership is untouched — no keys move. The cached connection
    /// to the old address is dropped; the next call dials fresh.
    pub fn repoint(&mut self, name: &str, addr: SocketAddr) -> Result<(), ReqError> {
        if !self.ring.contains(name) {
            return Err(ReqError::InvalidParameter(format!(
                "unknown cluster node `{name}`"
            )));
        }
        self.addrs.insert(name.to_string(), addr);
        self.clients.remove(name);
        self.repoints.inc();
        req_telemetry::global().event("router_repoint", format!("node={name} addr={addr}"));
        Ok(())
    }

    fn client(&mut self, name: &str) -> Result<&mut ReqBinClient, ReqError> {
        if !self.clients.contains_key(name) {
            let addr = self.addrs.get(name).copied().ok_or_else(|| {
                ReqError::InvalidParameter(format!("unknown cluster node `{name}`"))
            })?;
            let client = ReqBinClient::connect_with(addr, self.policy.clone())?;
            self.clients.insert(name.to_string(), client);
        }
        Ok(self.clients.get_mut(name).expect("just inserted"))
    }

    fn call_on(&mut self, name: &str, req: &Request) -> Result<Response, ReqError> {
        let name = name.to_string();
        let result = match self.client(&name) {
            Ok(conn) => conn.call(req),
            Err(e) => Err(e),
        };
        if result.is_err() {
            // Drop the connection: the node may be dead, and after a
            // repoint the retry must dial the promoted address, not
            // reuse a socket to the corpse.
            self.clients.remove(&name);
            self.node_errors.inc();
        }
        result
    }

    /// Stamp a mutation with the router's next idempotency token (noop
    /// for queries and pre-stamped requests). A stamped request is safe
    /// to [`Router::call_stamped`] any number of times across failovers:
    /// whichever node ends up owning the key dedups replays.
    pub fn stamp(&mut self, req: &mut Request) {
        attach_token(req, self.client_id, &mut self.next_seq);
    }

    /// Route an (already stamped) request without attaching a new token.
    /// This is the retry entry point: re-sending the *same* stamped
    /// request after a failover is exactly-once by construction.
    pub fn call_stamped(&mut self, req: &Request) -> Result<Response, ReqError> {
        match req {
            Request::Create { key, .. }
            | Request::Add { key, .. }
            | Request::AddBatch { key, .. }
            | Request::Rank { key, .. }
            | Request::Quantile { key, .. }
            | Request::Cdf { key, .. }
            | Request::Stats { key }
            | Request::Drop { key, .. }
            | Request::Merge { key } => {
                let node = self.ring.node_for(key).to_string();
                self.call_on(&node, req)
            }
            Request::List => {
                let mut keys = Vec::new();
                for name in self.members().to_vec() {
                    match self.call_on(&name, req)? {
                        Response::List(part) => keys.extend(part),
                        other => return Ok(other),
                    }
                }
                keys.sort();
                keys.dedup();
                Ok(Response::List(keys))
            }
            Request::Ping => {
                for name in self.members().to_vec() {
                    match self.call_on(&name, req)? {
                        Response::Pong => {}
                        other => return Ok(other),
                    }
                }
                Ok(Response::Pong)
            }
            Request::Snapshot => {
                let mut newest = 0;
                for name in self.members().to_vec() {
                    match self.call_on(&name, req)? {
                        Response::Snapshot(generation) => newest = newest.max(generation),
                        other => return Ok(other),
                    }
                }
                Ok(Response::Snapshot(newest))
            }
            Request::Metrics => {
                // Fan out: one exposition per node, stitched under
                // `# node <name>` headers so series with the same name
                // stay attributable to their origin.
                let mut joined = String::new();
                for name in self.members().to_vec() {
                    match self.call_on(&name, req)? {
                        Response::MetricsText(text) => {
                            joined.push_str(&format!("# node {name}\n"));
                            joined.push_str(&text);
                        }
                        other => return Ok(other),
                    }
                }
                Ok(Response::MetricsText(joined))
            }
            Request::Events { .. } => {
                let mut lines = Vec::new();
                for name in self.members().to_vec() {
                    match self.call_on(&name, req)? {
                        Response::Events(part) => {
                            lines.extend(part.into_iter().map(|line| format!("{name} {line}")));
                        }
                        other => return Ok(other),
                    }
                }
                Ok(Response::Events(lines))
            }
            Request::Quit => Err(ReqError::InvalidParameter(
                "QUIT is connection-scoped; the router owns its connections".into(),
            )),
            Request::Tail { .. } => Err(ReqError::InvalidParameter(
                "TAIL is node-scoped replication plumbing; address a node directly".into(),
            )),
        }
    }

    // -----------------------------------------------------------------
    // Spread tenants: one logical stream sharded over every node, read
    // back through scatter/gather MERGE (full mergeability, Theorem 3).
    // -----------------------------------------------------------------

    /// Create `key` on **every** node, for spread ingest. The per-node
    /// sketches share a config (same accuracy, same seed — they never
    /// meet on disk, so seed collisions are harmless).
    pub fn create_spread(&mut self, key: &str, config: TenantConfig) -> Result<(), ReqError> {
        for name in self.members().to_vec() {
            let mut req = Request::Create {
                key: key.to_string(),
                config: config.clone(),
                token: None,
            };
            self.stamp(&mut req);
            self.call_on(&name, &req)?.into_result()?;
        }
        Ok(())
    }

    /// Spread `values` for `key` round-robin across all nodes (one
    /// pipelined `ADDB` per node). Returns the total ingested.
    pub fn spread_add_batch(&mut self, key: &str, values: &[f64]) -> Result<u64, ReqError> {
        let members = self.members().to_vec();
        let mut total = 0;
        for (i, name) in members.iter().enumerate() {
            let part: Vec<f64> = values
                .iter()
                .copied()
                .skip(i)
                .step_by(members.len())
                .collect();
            if part.is_empty() {
                continue;
            }
            let mut req = Request::AddBatch {
                key: key.to_string(),
                values: part,
                token: None,
            };
            self.stamp(&mut req);
            match self.call_on(name, &req)?.into_result()? {
                Response::AddedBatch(n) => total += n,
                other => {
                    return Err(ReqError::InvalidParameter(format!(
                        "unexpected reply to ADDB: {other:?}"
                    )))
                }
            }
        }
        Ok(total)
    }

    /// Scatter/gather: fetch every node's serialized shard sketches for
    /// `key` and merge them into one combined sketch. The result answers
    /// rank/quantile queries over the **union** of all node-local
    /// streams with the merged sketch's ε guarantee.
    pub fn merged_sketch(&mut self, key: &str) -> Result<ReqSketch<OrdF64>, ReqError> {
        merge_wire_parts(&self.gather_parts(key)?)
    }

    /// Every node's serialized shard sketches for `key` (one `MERGE`
    /// each), in member order.
    ///
    /// The `MERGE` goes out on every node's cached connection before any
    /// reply is read, so all nodes build their replies at the same time;
    /// the replies are then read in member order. A node whose send or
    /// read fails falls back to the one-node path ([`Router::call_on`]):
    /// the client redials under the [`RetryPolicy`], and a call that still
    /// fails drops the connection and counts a node error. Every sent
    /// request's reply is read before the first error is returned, so no
    /// stale `MERGE` reply is left on a connection for the next call.
    fn gather_parts(&mut self, key: &str) -> Result<Vec<Vec<u8>>, ReqError> {
        let req = Request::Merge {
            key: key.to_string(),
        };
        let members = self.members().to_vec();
        let sent: Vec<bool> = members
            .iter()
            .map(|name| self.client(name).and_then(|conn| conn.send(&req)).is_ok())
            .collect();
        // Read every sent reply before acting on any, so an early return
        // below leaves none behind.
        let replies: Vec<Option<Response>> = members
            .iter()
            .zip(sent)
            .map(|(name, sent)| match self.clients.get_mut(name) {
                Some(conn) if sent => conn.read_response().ok(),
                _ => None,
            })
            .collect();
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for (name, reply) in members.iter().zip(replies) {
            let reply = match reply {
                Some(reply) => reply,
                None => self.call_on(name, &req)?,
            };
            match reply.into_result()? {
                Response::Merged(node_parts) => parts.extend(node_parts),
                other => {
                    return Err(ReqError::InvalidParameter(format!(
                        "unexpected reply to MERGE: {other:?}"
                    )))
                }
            }
        }
        Ok(parts)
    }

    /// Rank of `value` in the union stream: Algorithm 2's sum over every
    /// gathered part's levels ([`req_core::union`]), with no merge.
    /// Mismatched parts fail with [`ReqError::IncompatibleMerge`].
    pub fn merged_rank(&mut self, key: &str, value: f64) -> Result<u64, ReqError> {
        let parts = decode_parts::<OrdF64, _>(&self.gather_parts(key)?)?;
        let parts: Vec<&ReqSketch<OrdF64>> = parts.iter().collect();
        Ok(Union::new(&parts).rank(&OrdF64(value)))
    }

    /// Quantile of the union stream, selected across every gathered part's
    /// levels ([`req_core::union`]) with no merge. A rank outside `[0, 1]`
    /// is refused, as a routed `QUANTILE` is, before any `MERGE` is sent.
    pub fn merged_quantile(&mut self, key: &str, q: f64) -> Result<Option<f64>, ReqError> {
        check_quantile_rank(q)?;
        let parts = decode_parts::<OrdF64, _>(&self.gather_parts(key)?)?;
        let parts: Vec<&ReqSketch<OrdF64>> = parts.iter().collect();
        Ok(Union::new(&parts).quantile(q).map(OrdF64::get))
    }
}

impl ClientApi for Router {
    /// Stamp (mutations only) and route. For explicit retry control
    /// across failovers, use [`Router::stamp`] + [`Router::call_stamped`].
    fn call(&mut self, req: &Request) -> Result<Response, ReqError> {
        let mut req = req.clone();
        self.stamp(&mut req);
        self.call_stamped(&req)
    }
}
