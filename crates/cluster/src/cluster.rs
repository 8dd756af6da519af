//! In-process cluster plane: N nodes, each a primary req-server with a
//! warm standby replica, behind one [`Router`] — plus the kill/promote
//! controls the failover tests and the `e18_cluster_failover` experiment
//! drive.
//!
//! Every node runs the real stack: a [`QuantileService`] on its own data
//! directory, served over the real evented binary server on a real TCP
//! socket, with a [`TailShipper`] pulling the primary's WAL into the
//! standby over that socket. "Kill" drops the primary's server and
//! service outright (the process-death analogue); "promote" stops the
//! standby's pump, flips it out of follower mode, and repoints the
//! node's name at the standby's address — ring ownership never moves.
//!
//! The only concession to testability is that everything lives in one
//! process, which is precisely what lets tests reach both sides' *data
//! directories* and assert the replication invariant that matters:
//! byte-identical durable state at every shipped watermark.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use req_core::ReqError;
use req_evented::{serve_evented, EventedHandle};
use req_service::snapshot::{snapshot_gens, snapshot_path};
use req_service::tempdir::TempDir;
use req_service::{QuantileService, RetryPolicy, ServiceConfig};

use crate::router::Router;
use crate::ship::TailShipper;

/// How often a standby polls its primary once caught up.
const SHIP_POLL: Duration = Duration::from_millis(2);

/// One running replica: service + evented server + backing directory.
#[derive(Debug)]
pub struct Replica {
    /// The service; tests reach through this for watermark/state asserts.
    pub service: Arc<QuantileService>,
    server: EventedHandle,
    /// Owns the data directory (removed on drop).
    _dir: TempDir,
}

impl Replica {
    /// Open and serve a service on a fresh directory. With `seed`, the
    /// directory first gets a copy of the newest snapshot under `seed`, so
    /// the service recovers that generation and a follower tails its WAL.
    /// The service never snapshots on its own.
    fn start(tag: &str, seed: Option<&Path>) -> Result<Replica, ReqError> {
        let dir = TempDir::new(tag)?;
        if let Some(from) = seed {
            if let Some(&g) = snapshot_gens(from)?.last() {
                std::fs::copy(snapshot_path(from, g), snapshot_path(dir.path(), g))?;
            }
        }
        let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path()))?);
        let server = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1)?;
        Ok(Replica {
            service,
            server,
            _dir: dir,
        })
    }

    /// The replica's bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// One logical cluster node: a primary (until killed) and a warm standby
/// (until promoted).
#[derive(Debug)]
pub struct Node {
    /// Node name — the identity the hash ring knows.
    pub name: String,
    primary: Option<Replica>,
    standby: Option<Replica>,
    shipper: Option<TailShipper>,
}

/// An N-node replicated cluster behind a consistent-hash [`Router`].
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    router: Router,
    policy: RetryPolicy,
}

impl Cluster {
    /// Start `names.len()` nodes, each with a warm standby shipping the
    /// primary's WAL, and a router over the primaries. Followers never
    /// snapshot on their own (`snapshot_every_records = 0`): they mirror
    /// the primary's rotations instead, which is what keeps the
    /// directories byte-identical.
    pub fn start(names: &[&str], policy: RetryPolicy) -> Result<Cluster, ReqError> {
        let mut nodes = Vec::with_capacity(names.len());
        let mut routes = Vec::with_capacity(names.len());
        for name in names {
            let primary = Replica::start(&format!("cl-{name}-p"), None)?;
            let standby = Replica::start(&format!("cl-{name}-s"), None)?;
            standby.service.set_follower(true);
            let shipper = TailShipper::start(
                Arc::clone(&standby.service),
                primary.addr(),
                policy.clone(),
                SHIP_POLL,
            );
            routes.push((name.to_string(), primary.addr()));
            nodes.push(Node {
                name: name.to_string(),
                primary: Some(primary),
                standby: Some(standby),
                shipper: Some(shipper),
            });
        }
        let router = Router::new(&routes, policy.clone());
        Ok(Cluster {
            nodes,
            router,
            policy,
        })
    }

    /// The routing front door.
    pub fn router(&mut self) -> &mut Router {
        &mut self.router
    }

    fn node(&self, name: &str) -> Result<&Node, ReqError> {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .ok_or_else(|| ReqError::InvalidParameter(format!("unknown node `{name}`")))
    }

    fn node_mut(&mut self, name: &str) -> Result<&mut Node, ReqError> {
        self.nodes
            .iter_mut()
            .find(|n| n.name == name)
            .ok_or_else(|| ReqError::InvalidParameter(format!("unknown node `{name}`")))
    }

    /// The live primary service of `name` (for test assertions).
    pub fn primary_service(&self, name: &str) -> Result<Arc<QuantileService>, ReqError> {
        self.node(name)?
            .primary
            .as_ref()
            .map(|r| Arc::clone(&r.service))
            .ok_or_else(|| ReqError::Unavailable(format!("node `{name}` primary is dead")))
    }

    /// The standby service of `name` (for test assertions).
    pub fn standby_service(&self, name: &str) -> Result<Arc<QuantileService>, ReqError> {
        self.node(name)?
            .standby
            .as_ref()
            .map(|r| Arc::clone(&r.service))
            .ok_or_else(|| ReqError::Unavailable(format!("node `{name}` has no standby")))
    }

    /// Block until `name`'s standby has replicated everything its
    /// primary has durably logged (watermark equality), or time out.
    pub fn drain(&self, name: &str, timeout: Duration) -> Result<(), ReqError> {
        let node = self.node(name)?;
        let (primary, standby) = match (&node.primary, &node.standby) {
            (Some(p), Some(s)) => (&p.service, &s.service),
            _ => {
                return Err(ReqError::Unavailable(format!(
                    "node `{name}` is not a primary/standby pair"
                )))
            }
        };
        let deadline = Instant::now() + timeout;
        loop {
            // Watermark equality alone is not enough: the follower
            // appends a frame before applying it, so the byte watermark
            // can match while the last apply is still in flight. The
            // applied-record counter closes that window.
            if primary.wal_watermark() == standby.wal_watermark()
                && primary.records_in_generation() == standby.records_in_generation()
            {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(ReqError::Unavailable(format!(
                    "standby of `{name}` did not catch up within {timeout:?}: \
                     primary at {:?}, standby at {:?}",
                    primary.wal_watermark(),
                    standby.wal_watermark()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Kill `name`'s primary: server down, service dropped, directory
    /// removed. In-flight requests fail at the socket; the standby keeps
    /// serving reads at its replicated watermark.
    pub fn kill_primary(&mut self, name: &str) -> Result<(), ReqError> {
        let node = self.node_mut(name)?;
        let replica = node
            .primary
            .take()
            .ok_or_else(|| ReqError::Unavailable(format!("node `{name}` already dead")))?;
        replica.server.shutdown();
        Ok(())
    }

    /// Promote `name`'s standby: stop the replication pump, leave
    /// follower mode, become the node's primary, and repoint the router.
    /// The ring is untouched, so no keys remap; a client retrying a
    /// stamped mutation hits the replicated dedup window and applies
    /// exactly once.
    pub fn promote(&mut self, name: &str) -> Result<SocketAddr, ReqError> {
        let node = self.node_mut(name)?;
        let standby = node
            .standby
            .take()
            .ok_or_else(|| ReqError::Unavailable(format!("node `{name}` has no standby")))?;
        if let Some(shipper) = node.shipper.take() {
            shipper.stop();
        }
        standby.service.set_follower(false);
        let addr = standby.addr();
        node.primary = Some(standby);
        self.router.repoint(name, addr)?;
        req_telemetry::global()
            .counter("cluster_promotions_total")
            .inc();
        req_telemetry::global().event("node_promoted", format!("node={name} addr={addr}"));
        Ok(addr)
    }

    /// Attach a fresh warm standby to `name`'s current primary (e.g.
    /// after a promotion consumed the old one). The new standby starts
    /// from a copy of the primary's newest snapshot, `snap-<g>` (empty if
    /// the primary never rotated), and catches up by tailing `wal-<g>`
    /// from its start: older generations may already be pruned.
    pub fn attach_standby(&mut self, name: &str) -> Result<(), ReqError> {
        let policy = self.policy.clone();
        let node = self.node_mut(name)?;
        let primary = node
            .primary
            .as_ref()
            .ok_or_else(|| ReqError::Unavailable(format!("node `{name}` primary is dead")))?;
        let standby = Replica::start(&format!("cl-{name}-s"), Some(primary.service.data_dir()))?;
        standby.service.set_follower(true);
        let shipper = TailShipper::start(
            Arc::clone(&standby.service),
            primary.addr(),
            policy,
            SHIP_POLL,
        );
        node.standby = Some(standby);
        node.shipper = Some(shipper);
        Ok(())
    }
}
