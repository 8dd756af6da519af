//! Keyed, multi-tenant sketch registry behind sharded locks.
//!
//! Tenant lookups and mutations hash the key onto one of 16 independent
//! `RwLock<HashMap>`s, so traffic to different tenants never contends on
//! one lock. Each tenant *value* is an
//! [`Arc<Tenant>`]: a lookup clones the `Arc` and releases the map lock
//! immediately — ingest and queries then synchronize only on the tenant's
//! own locks (its sketch's internal shard locks, plus the `op_lock` that
//! keeps WAL order equal to apply order; see [`crate::service`]).

use parking_lot::{Mutex, RwLock};
use req_core::{ConcurrentReqSketch, OrdF64, ReqError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::{stable_key_hash, TenantConfig};

/// One named sketch with its configuration.
#[derive(Debug)]
pub struct Tenant {
    /// The tenant's key.
    pub name: String,
    /// Immutable configuration fixed at `CREATE`.
    pub config: TenantConfig,
    /// The sharded sketch ingest lands in.
    pub sketch: ConcurrentReqSketch<OrdF64>,
    /// Serializes `[WAL append → apply]` per tenant, so replaying the WAL
    /// reproduces the exact apply order (the durability identity proof
    /// depends on it). Queries never take this.
    pub(crate) op_lock: Mutex<()>,
    /// Set (under `op_lock`) when the tenant's `Drop` record has been
    /// logged. An ingest that raced the drop — it resolved its `Arc`
    /// before the key was removed — re-checks this after taking
    /// `op_lock`, so an `AddBatch` frame can never land *after* the
    /// tenant's `Drop` frame in the WAL (which would make every future
    /// replay fail on an unknown key).
    pub(crate) dropped: AtomicBool,
}

impl Tenant {
    /// Build a fresh tenant from its configuration.
    pub fn new(name: &str, config: TenantConfig) -> Result<Self, ReqError> {
        Ok(Tenant {
            name: name.to_string(),
            sketch: config.build()?,
            config,
            op_lock: Mutex::new(()),
            dropped: AtomicBool::new(false),
        })
    }

    /// Rebuild a tenant from recovered state.
    pub fn from_parts(
        name: String,
        config: TenantConfig,
        sketch: ConcurrentReqSketch<OrdF64>,
    ) -> Self {
        Tenant {
            name,
            config,
            sketch,
            op_lock: Mutex::new(()),
            dropped: AtomicBool::new(false),
        }
    }
}

/// Independent lock shards of a [`Registry`] (keys hash across these).
const LOCK_SHARDS: usize = 16;

/// Sharded-lock map of tenants.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<HashMap<String, Arc<Tenant>>>; LOCK_SHARDS],
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn shard_for(&self, key: &str) -> &RwLock<HashMap<String, Arc<Tenant>>> {
        let idx = (stable_key_hash(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Look a tenant up (lock held only for the map probe).
    pub fn get(&self, key: &str) -> Option<Arc<Tenant>> {
        self.shard_for(key).read().get(key).cloned()
    }

    /// Insert a new tenant under `key`, running `log` (the WAL append)
    /// while the map's write lock is held — a concurrent duplicate
    /// `CREATE` therefore cannot interleave between the existence check,
    /// the durable record, and the insert. `log`'s success value is
    /// passed through (the service uses it to report "logged but the
    /// fsync failed" — the tenant is still inserted in that case, since
    /// the record is in the WAL and replay would recreate it).
    pub fn create_with<T, F>(&self, key: &str, config: TenantConfig, log: F) -> Result<T, ReqError>
    where
        F: FnOnce() -> Result<T, ReqError>,
    {
        let mut map = self.shard_for(key).write();
        if map.contains_key(key) {
            return Err(ReqError::InvalidParameter(format!(
                "key `{key}` already exists"
            )));
        }
        let tenant = Arc::new(Tenant::new(key, config)?);
        let out = log()?;
        map.insert(key.to_string(), tenant);
        Ok(out)
    }

    /// Insert a tenant rebuilt from a snapshot (recovery path — nothing is
    /// logged). A duplicate key means the snapshot itself is corrupt.
    pub fn create_from_snapshot(&self, tenant: Tenant) -> Result<(), ReqError> {
        let mut map = self.shard_for(&tenant.name).write();
        if map.contains_key(&tenant.name) {
            return Err(ReqError::CorruptBytes(format!(
                "duplicate tenant `{}` in snapshot",
                tenant.name
            )));
        }
        map.insert(tenant.name.clone(), Arc::new(tenant));
        Ok(())
    }

    /// Remove `key`, running `log` under the map's write lock *and* the
    /// tenant's own op lock. Holding `op_lock` across the append means an
    /// in-flight ingest on the same tenant either finished (its record
    /// precedes the `Drop` in the WAL) or has not appended yet (it will
    /// observe the tenant's `dropped` flag and abort) — WAL order stays
    /// replayable.
    pub fn drop_with<T, F>(&self, key: &str, log: F) -> Result<T, ReqError>
    where
        F: FnOnce() -> Result<T, ReqError>,
    {
        let mut map = self.shard_for(key).write();
        let Some(tenant) = map.get(key).cloned() else {
            return Err(ReqError::InvalidParameter(format!("no such key `{key}`")));
        };
        let out;
        {
            let _op = tenant.op_lock.lock();
            out = log()?;
            tenant.dropped.store(true, Ordering::SeqCst);
        }
        map.remove(key);
        Ok(out)
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no tenant exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All tenants, sorted by key — the deterministic order snapshots are
    /// written in.
    pub fn tenants_sorted(&self) -> Vec<Arc<Tenant>> {
        let mut out: Vec<Arc<Tenant>> = self
            .shards
            .iter()
            .flat_map(|s| s.read().values().cloned().collect::<Vec<_>>())
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// All keys, sorted.
    pub fn keys_sorted(&self) -> Vec<String> {
        self.tenants_sorted()
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TenantConfig {
        TenantConfig::parse("t", &["K=8", "SHARDS=2"]).unwrap()
    }

    #[test]
    fn create_get_drop_cycle() {
        let r = Registry::new();
        assert!(r.is_empty());
        r.create_with("a", cfg(), || Ok(())).unwrap();
        r.create_with("b", cfg(), || Ok(())).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.keys_sorted(), vec!["a".to_string(), "b".to_string()]);
        let t = r.get("a").unwrap();
        t.sketch.update(OrdF64(1.0));
        assert_eq!(t.sketch.len(), 1);
        assert!(r.get("missing").is_none());
        r.drop_with("a", || Ok(())).unwrap();
        assert!(r.get("a").is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn duplicate_create_and_missing_drop_fail_without_logging() {
        let r = Registry::new();
        r.create_with("a", cfg(), || Ok(())).unwrap();
        let mut logged = false;
        let err = r.create_with("a", cfg(), || {
            logged = true;
            Ok(())
        });
        assert!(err.is_err());
        assert!(!logged, "duplicate create must not reach the WAL");
        let err = r.drop_with("zz", || {
            logged = true;
            Ok(())
        });
        assert!(err.is_err());
        assert!(!logged, "missing drop must not reach the WAL");
    }

    #[test]
    fn failed_log_aborts_creation() {
        let r = Registry::new();
        let err: Result<(), _> =
            r.create_with("a", cfg(), || Err(ReqError::Io("disk full".into())));
        assert!(matches!(err, Err(ReqError::Io(_))));
        assert!(r.get("a").is_none(), "failed WAL append must not insert");
    }

    #[test]
    fn concurrent_creates_agree_on_one_winner() {
        let r = std::sync::Arc::new(Registry::new());
        let wins: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let r = &r;
                    scope.spawn(move || r.create_with("same", cfg(), || Ok(())).is_ok() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(wins, 1);
        assert_eq!(r.len(), 1);
    }
}
