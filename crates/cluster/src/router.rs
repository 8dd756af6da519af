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
//!
//! # Spread reads keep what they gathered
//!
//! A spread key is one stream sharded over every node. The merged reads
//! ([`Router::merged_quantile`], [`Router::merged_rank`],
//! [`Router::merged_sketch`]) answer over the union of every node's shard
//! sketches (full mergeability, Theorem 3), and the router keeps, per
//! spread key, the parts it gathered last: decoded, in member order, with
//! one read cache over them ([`req_core::union::Parts`]), so a repeated
//! read answers from the cached union view or starts warm from where the
//! same `q` landed before. It keeps at most [`KEPT_KEYS`] keys and drops
//! the least recently read.
//!
//! Every merged read still asks every node, with a versioned `MERGE`
//! (`MERGESINCE`) naming the [`ShardVersions`] the router holds of that
//! node's parts. A node sends back its current versions and the bytes of
//! only the shards whose version differs, so a read of unchanged parts
//! costs one small scattered round trip, and a read after a write decodes
//! just the shards that changed. A version has three parts, and never
//! names two different shard contents on one node address:
//!
//! * the service's incarnation, drawn each time it opens (a restart, or a
//!   standby promoted in a primary's place, differs);
//! * the tenant's instance, renumbered on `CREATE`, snapshot restore and
//!   every checkpoint (a checkpoint restarts shard epochs at 0);
//! * the shard's epoch, which every mutation bumps.
//!
//! The router also forgets a node's versions — so the next read fetches
//! all of that node's parts again — when it repoints the node and after
//! any error from it. A dead node fails the read, as it always has.

use std::collections::HashMap;
use std::net::SocketAddr;

use req_core::union::Parts;
use req_core::{merge_linear, OrdF64, ReqError, ReqSketch};
use req_evented::ReqBinClient;
use req_service::client::{attach_token, fresh_client_id};
use req_service::{
    check_quantile_rank, ChangedShards, ClientApi, Request, Response, RetryPolicy, ShardVersions,
    TenantConfig,
};

use crate::ring::HashRing;

/// Spread keys whose gathered parts a router keeps; a read of one more
/// drops the least recently read.
pub const KEPT_KEYS: usize = 8;

/// What a router keeps of one spread key.
#[derive(Debug)]
struct Kept {
    /// Every node's parts as last gathered, in member order.
    parts: Parts<OrdF64>,
    /// Per member: how many of `parts` are its, and their versions while
    /// the router may name them to the node.
    nodes: Vec<(usize, Option<ShardVersions>)>,
    /// The router's read count at this key's last read.
    last_read: u64,
}

/// Lifetime counts of the parts a router's merged reads answered over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// Parts a node reported unchanged, read from what the router kept.
    pub reused: u64,
    /// Parts a node sent, which the router decoded.
    pub fetched: u64,
}

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
    /// Gathered parts per spread key, at most [`KEPT_KEYS`] of them.
    kept: HashMap<String, Kept>,
    /// Merged reads so far: the clock the kept keys age by.
    reads: u64,
    gathered: GatherStats,
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
            kept: HashMap::new(),
            reads: 0,
            gathered: GatherStats::default(),
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
    /// to the old address is dropped; the next call dials fresh, and the
    /// next merged read of each kept spread key fetches all of `name`'s
    /// parts again.
    pub fn repoint(&mut self, name: &str, addr: SocketAddr) -> Result<(), ReqError> {
        if !self.ring.contains(name) {
            return Err(ReqError::InvalidParameter(format!(
                "unknown cluster node `{name}`"
            )));
        }
        self.addrs.insert(name.to_string(), addr);
        self.clients.remove(name);
        self.forget(name);
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
            self.forget(&name);
        }
        result
    }

    /// Forget the versions of `name`'s kept parts under every spread key,
    /// so the next merged read of each fetches all of them again.
    fn forget(&mut self, name: &str) {
        if let Some(member) = self.members().iter().position(|m| m == name) {
            for kept in self.kept.values_mut() {
                kept.nodes[member].1 = None;
            }
        }
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
            | Request::Merge { key }
            | Request::MergeSince { key, .. } => {
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

    /// Scatter/gather: every node's shard sketches for `key`, merged in
    /// member order into one combined sketch (a fold of clones of the kept
    /// parts, as [`req_core::merge_wire_parts`] folds freshly decoded
    /// ones). The result answers rank/quantile queries over the **union**
    /// of all node-local streams with the merged sketch's ε guarantee.
    pub fn merged_sketch(&mut self, key: &str) -> Result<ReqSketch<OrdF64>, ReqError> {
        let parts = self.gather(key)?.sketches().to_vec();
        Ok(merge_linear(parts)?.expect("a gather keeps at least one part"))
    }

    /// Rank of `value` in the union stream: Algorithm 2's sum over every
    /// gathered part's levels ([`req_core::union`]), with no merge, through
    /// the kept parts' read cache. Mismatched parts fail with
    /// [`ReqError::IncompatibleMerge`].
    pub fn merged_rank(&mut self, key: &str, value: f64) -> Result<u64, ReqError> {
        Ok(self.gather(key)?.rank(&OrdF64(value)))
    }

    /// Quantile of the union stream, selected across every gathered part's
    /// levels ([`req_core::union`]) with no merge, through the kept parts'
    /// read cache: a repeated `q` over unchanged parts answers from the
    /// cached union view once reads have paid for it, and after a change
    /// starts warm from where it landed before. A rank outside `[0, 1]` is
    /// refused, as a routed `QUANTILE` is, before any `MERGE` is sent.
    pub fn merged_quantile(&mut self, key: &str, q: f64) -> Result<Option<f64>, ReqError> {
        check_quantile_rank(q)?;
        Ok(self.gather(key)?.quantile(q).map(OrdF64::get))
    }

    /// Lifetime counts of the parts this router's merged reads reused and
    /// fetched.
    pub fn gather_stats(&self) -> GatherStats {
        self.gathered
    }

    /// Bring the kept parts of `key` up to date on every node and return
    /// them: one versioned `MERGE` per node ([`Router::scatter`]), then
    /// each part a node sent replaces the kept one at its position. Parts
    /// the router holds nothing of — a new key, or a node forgotten after a
    /// repoint or an error — are sent whole. If a node's shard count no
    /// longer matches what is kept, every node is asked again with nothing
    /// held. Mismatched parts fail with [`ReqError::IncompatibleMerge`]
    /// and drop what was kept of `key`.
    fn gather(&mut self, key: &str) -> Result<&Parts<OrdF64>, ReqError> {
        let nothing = vec![None; self.members().len()];
        let mut held = match self.kept.get(key) {
            Some(kept) => kept.nodes.iter().map(|(_, v)| v.clone()).collect(),
            None => nothing.clone(),
        };
        let mut replies = self.scatter(key, &held)?;
        let kept = self.kept.remove(key).filter(|kept| {
            (kept.nodes.iter().zip(&replies)).all(|((count, _), reply)| *count == reply.parts.len())
        });
        let unchanged = |replies: &[ChangedShards]| {
            (replies.iter()).any(|reply| reply.parts.iter().any(|(_, part)| part.is_none()))
        };
        if kept.is_none() && unchanged(&replies) {
            held = nothing;
            replies = self.scatter(key, &held)?;
        }
        let mut nodes = Vec::with_capacity(replies.len());
        let mut changed = Vec::new();
        let mut at = 0;
        for ((reply, held), name) in replies.into_iter().zip(&held).zip(self.members()) {
            nodes.push((reply.parts.len(), Some(reply.versions())));
            for (_, part) in reply.parts {
                match part {
                    Some(bytes) => changed.push((at, bytes)),
                    None if kept.is_some() && held.is_some() => {}
                    None => {
                        return Err(ReqError::CorruptBytes(format!(
                            "node `{name}` called a part of `{key}` unchanged that this \
                             router does not hold"
                        )))
                    }
                }
                at += 1;
            }
        }
        self.gathered.reused += (at - changed.len()) as u64;
        self.gathered.fetched += changed.len() as u64;
        let parts = match kept {
            Some(mut kept) => {
                kept.parts.replace(&changed)?;
                kept.parts
            }
            None => {
                let bytes: Vec<Vec<u8>> = changed.into_iter().map(|(_, b)| b).collect();
                Parts::decode(&bytes)?
            }
        };
        if self.kept.len() == KEPT_KEYS {
            let oldest = (self.kept.iter())
                .min_by_key(|(_, kept)| kept.last_read)
                .map(|(k, _)| k.clone())
                .expect("the kept map is full");
            self.kept.remove(&oldest);
        }
        self.reads += 1;
        let kept = Kept {
            parts,
            nodes,
            last_read: self.reads,
        };
        Ok(&self.kept.entry(key.to_string()).or_insert(kept).parts)
    }

    /// One versioned `MERGE` (`MERGESINCE`) for `key` per node, naming
    /// `held[i]` to member `i`; the replies in member order.
    ///
    /// Every request goes out on its node's cached connection before any
    /// reply is read, so all nodes build their replies at the same time;
    /// the replies are then read in member order. A node whose send or
    /// read fails falls back to the one-node path ([`Router::call_on`]):
    /// the client redials under the [`RetryPolicy`], and a call that still
    /// fails drops the connection and counts a node error. Every sent
    /// request's reply is read before the first error is returned, so no
    /// stale reply is left on a connection for the next call. Any error
    /// from a node forgets that node's kept versions.
    fn scatter(
        &mut self,
        key: &str,
        held: &[Option<ShardVersions>],
    ) -> Result<Vec<ChangedShards>, ReqError> {
        let members = self.members().to_vec();
        let reqs: Vec<Request> = (held.iter())
            .map(|held| Request::MergeSince {
                key: key.to_string(),
                held: held.clone(),
            })
            .collect();
        let sent: Vec<bool> = (members.iter().zip(&reqs))
            .map(|(name, req)| self.client(name).and_then(|conn| conn.send(req)).is_ok())
            .collect();
        // Read every sent reply before acting on any, so an early return
        // below leaves none behind.
        let replies: Vec<Option<Response>> = (members.iter().zip(sent))
            .map(|(name, sent)| match self.clients.get_mut(name) {
                Some(conn) if sent => conn.read_response().ok(),
                _ => None,
            })
            .collect();
        let mut out = Vec::with_capacity(members.len());
        for ((name, req), reply) in members.iter().zip(&reqs).zip(replies) {
            let reply = match reply {
                Some(reply) => Ok(reply),
                None => self.call_on(name, req),
            };
            match reply.and_then(Response::into_result) {
                Ok(Response::MergedSince(changed)) => out.push(changed),
                Ok(other) => {
                    self.forget(name);
                    return Err(ReqError::InvalidParameter(format!(
                        "unexpected reply to MERGESINCE: {other:?}"
                    )));
                }
                Err(e) => {
                    self.forget(name);
                    return Err(e);
                }
            }
        }
        Ok(out)
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
