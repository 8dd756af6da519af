//! Per-tenant sketch configuration and service-wide settings.
//!
//! A tenant's [`TenantConfig`] is decided once, at `CREATE`, and then
//! becomes part of the durable record: its [`Packable`] layout travels in
//! the `CREATE` message, the WAL's `Create` record and every snapshot, so
//! recovery rebuilds each
//! tenant's sharded sketch with exactly the parameters — **and seed** —
//! the original had. The seed is what makes replay deterministic: a
//! recovered sketch that re-applies the same batches flips the same coins.

use bytes::BytesMut;
use req_core::binary::Packable;
use req_core::{CompactionSchedule, ConcurrentReqSketch, OrdF64, ParamPolicy, ReqError, ReqSketch};
use std::fmt;
use std::path::PathBuf;

use crate::protocol::binary::MAX_MESSAGE_PAYLOAD;

/// Longest accepted tenant key (protocol tokens stay single-line friendly).
pub const MAX_KEY_LEN: usize = 128;

/// Most items a shard's level buffer may hold at a new tenant's first
/// length estimate: as many 8-byte items as fill one wire message.
const MAX_LEVEL_ITEMS: usize = MAX_MESSAGE_PAYLOAD / 8;

/// How a tenant's REQ sketch is parameterized. One of:
///
/// * a direct section size `k` (the workhorse knob), or
/// * an accuracy target `(ε, δ)` resolved through
///   [`ParamPolicy::mergeable`] — the right choice when the caller thinks
///   in error guarantees rather than sketch internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accuracy {
    /// Fixed section size `k` (even, ≥ 4).
    K(u32),
    /// Relative-error target `ε` with failure probability `δ`.
    EpsDelta(f64, f64),
}

/// Everything needed to (re)build one tenant's sharded sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Sketch accuracy parameterization.
    pub accuracy: Accuracy,
    /// High-rank orientation (`true` = tail quantiles get the tight side
    /// of the guarantee; the default for latency workloads).
    pub hra: bool,
    /// Compaction schedule for every shard. [`CompactionSchedule::Adaptive`]
    /// is the default: service snapshots merge shards constantly, and the
    /// adaptive schedule keeps those merges seamless (E15).
    pub schedule: CompactionSchedule,
    /// Number of ingest shards behind the tenant's
    /// [`ConcurrentReqSketch`].
    pub shards: u32,
    /// Base RNG seed. Defaults to a stable hash of the key so identical
    /// `CREATE`s — including replayed ones — build identical sketches.
    pub seed: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            accuracy: Accuracy::K(32),
            hra: true,
            schedule: CompactionSchedule::Adaptive,
            shards: 4,
            seed: 0,
        }
    }
}

/// Stable 64-bit FNV-1a over the key, used for default seeds (and registry
/// lock sharding). Deliberately *not* `DefaultHasher`: the seed lands in
/// durable state, so it must never depend on an unspecified std detail.
pub fn stable_key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Validate a tenant key: printable ASCII without spaces, bounded length.
pub fn validate_key(key: &str) -> Result<(), ReqError> {
    if key.is_empty() || key.len() > MAX_KEY_LEN {
        return Err(ReqError::InvalidParameter(format!(
            "key must be 1..={MAX_KEY_LEN} bytes"
        )));
    }
    if !key
        .bytes()
        .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\')
    {
        return Err(ReqError::InvalidParameter(
            "key must be printable ASCII without spaces, quotes, or backslashes".into(),
        ));
    }
    Ok(())
}

impl TenantConfig {
    /// Default configuration for `key`: seed derived from the key name.
    pub fn for_key(key: &str) -> Self {
        TenantConfig {
            seed: stable_key_hash(key),
            ..TenantConfig::default()
        }
    }

    /// Parse `CREATE` option tokens (`EPS=0.01`, `DELTA=0.05`, `K=32`,
    /// `HRA`, `LRA`, `SCHEDULE=standard|adaptive`, `SHARDS=4`, `SEED=7`)
    /// on top of [`TenantConfig::for_key`] defaults. The result meets
    /// [`TenantConfig::check_new`].
    pub fn parse(key: &str, tokens: &[&str]) -> Result<Self, ReqError> {
        let mut cfg = TenantConfig::for_key(key);
        let mut eps: Option<f64> = None;
        let mut delta: Option<f64> = None;
        let bad = |t: &str| ReqError::InvalidParameter(format!("bad CREATE option `{t}`"));
        for t in tokens {
            let upper = t.to_ascii_uppercase();
            match upper.as_str() {
                "HRA" => cfg.hra = true,
                "LRA" => cfg.hra = false,
                _ => {
                    let (name, value) = upper.split_once('=').ok_or_else(|| bad(t))?;
                    match name {
                        "EPS" => eps = Some(value.parse().map_err(|_| bad(t))?),
                        "DELTA" => delta = Some(value.parse().map_err(|_| bad(t))?),
                        "K" => cfg.accuracy = Accuracy::K(value.parse().map_err(|_| bad(t))?),
                        "SHARDS" => cfg.shards = value.parse().map_err(|_| bad(t))?,
                        "SEED" => cfg.seed = value.parse().map_err(|_| bad(t))?,
                        "SCHEDULE" => {
                            cfg.schedule = match value {
                                "STANDARD" => CompactionSchedule::Standard,
                                "ADAPTIVE" => CompactionSchedule::Adaptive,
                                _ => return Err(bad(t)),
                            }
                        }
                        _ => return Err(bad(t)),
                    }
                }
            }
        }
        if let Some(e) = eps {
            cfg.accuracy = Accuracy::EpsDelta(e, delta.unwrap_or(0.05));
        } else if delta.is_some() {
            return Err(ReqError::InvalidParameter(
                "DELTA requires EPS to be given too".into(),
            ));
        }
        // Validate eagerly, before anything is logged.
        cfg.check_new()?;
        cfg.build()?;
        Ok(cfg)
    }

    /// The limit a new `CREATE` meets on top of building: a shard's level
    /// buffer at the first length estimate fits in one wire message, at
    /// most `MAX_MESSAGE_PAYLOAD / 8` items (`K` up to 174,762, or `EPS`
    /// down to about 0.00023 at the default `DELTA`). A larger buffer could
    /// never ship in a `MERGESINCE` reply. Configurations already in a WAL, a
    /// snapshot or a `TAIL` reply are not held to it, so state written
    /// before the limit existed still loads.
    pub fn check_new(&self) -> Result<(), ReqError> {
        let policy = self.policy()?;
        let buffer = policy.params_for(policy.initial_max_n()).capacity();
        if buffer > MAX_LEVEL_ITEMS {
            return Err(ReqError::InvalidParameter(format!(
                "K or EPS sizes a level buffer of {buffer} items (max {MAX_LEVEL_ITEMS})"
            )));
        }
        Ok(())
    }

    /// Resolve into the sketch policy this configuration names.
    pub fn policy(&self) -> Result<ParamPolicy, ReqError> {
        match self.accuracy {
            Accuracy::K(k) => ParamPolicy::fixed_k(k),
            Accuracy::EpsDelta(eps, delta) => ParamPolicy::mergeable(eps, delta),
        }
    }

    /// Build the tenant's sharded sketch.
    pub fn build(&self) -> Result<ConcurrentReqSketch<OrdF64>, ReqError> {
        if self.shards == 0 || self.shards > 256 {
            return Err(ReqError::InvalidParameter(
                "SHARDS must be in 1..=256".into(),
            ));
        }
        let builder = ReqSketch::<OrdF64>::builder()
            .policy(self.policy()?)
            .high_rank_accuracy(self.hra)
            .schedule(self.schedule)
            .seed(self.seed);
        ConcurrentReqSketch::new(builder, self.shards as usize)
    }
}

/// The WAL `Create` record, the `CREATE` message and every snapshot
/// carry this fragment:
///
/// ```text
/// 0 u8 | k u32 | reserved u64 = 0        (K form)
/// 1 u8 | eps f64 | delta f64             (EPS/DELTA form)
/// then: hra bool | schedule u8 (0 standard, 1 adaptive) | shards u32 | seed u64
/// ```
///
/// Decoding rejects a nonzero reserved field and any configuration that
/// does not build.
impl Packable for TenantConfig {
    fn pack(&self, out: &mut BytesMut) {
        match self.accuracy {
            Accuracy::K(k) => {
                0u8.pack(out);
                k.pack(out);
                0u64.pack(out);
            }
            Accuracy::EpsDelta(eps, delta) => {
                1u8.pack(out);
                eps.pack(out);
                delta.pack(out);
            }
        }
        self.hra.pack(out);
        let schedule: u8 = match self.schedule {
            CompactionSchedule::Standard => 0,
            CompactionSchedule::Adaptive => 1,
        };
        schedule.pack(out);
        self.shards.pack(out);
        self.seed.pack(out);
    }

    fn unpack(input: &mut &[u8]) -> Result<Self, ReqError> {
        let corrupt = |what: &str| ReqError::CorruptBytes(format!("tenant config: {what}"));
        let accuracy = match u8::unpack(input)? {
            0 => {
                let k = u32::unpack(input)?;
                if u64::unpack(input)? != 0 {
                    return Err(corrupt("nonzero reserved field"));
                }
                Accuracy::K(k)
            }
            1 => Accuracy::EpsDelta(f64::unpack(input)?, f64::unpack(input)?),
            t => return Err(corrupt(&format!("unknown accuracy tag {t}"))),
        };
        let hra = bool::unpack(input)?;
        let schedule = match u8::unpack(input)? {
            0 => CompactionSchedule::Standard,
            1 => CompactionSchedule::Adaptive,
            b => return Err(corrupt(&format!("bad schedule byte {b}"))),
        };
        let cfg = TenantConfig {
            accuracy,
            hra,
            schedule,
            shards: u32::unpack(input)?,
            seed: u64::unpack(input)?,
        };
        // A config from disk must still name a buildable sketch.
        cfg.build().map_err(|e| corrupt(&e.to_string()))?;
        Ok(cfg)
    }
}

impl fmt::Display for TenantConfig {
    /// The `CREATE` option form that reproduces this configuration.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.accuracy {
            Accuracy::K(k) => write!(f, "K={k}")?,
            Accuracy::EpsDelta(eps, delta) => write!(f, "EPS={eps} DELTA={delta}")?,
        }
        write!(
            f,
            " {} SCHEDULE={} SHARDS={} SEED={}",
            if self.hra { "HRA" } else { "LRA" },
            match self.schedule {
                CompactionSchedule::Standard => "standard",
                CompactionSchedule::Adaptive => "adaptive",
            },
            self.shards,
            self.seed
        )
    }
}

/// Service-wide settings: where durable state lives and when snapshots
/// happen.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory holding `snap-*.snap` and `wal-*.log`. Created on open.
    pub data_dir: PathBuf,
    /// Write a snapshot (and rotate the WAL) automatically once this many
    /// records accumulate in the live WAL generation. `0` disables the
    /// record-count trigger — snapshots then happen only via
    /// `SNAPSHOT`/`snapshot_now` or the background snapshotter.
    pub snapshot_every_records: u64,
    /// `fsync` every WAL append and snapshot file (crash-of-OS
    /// durability). Off by default: the service always flushes each WAL
    /// record to the OS, which survives a crash of the *process* — the
    /// failure mode the recovery proof (E16) targets. WAL fsyncs go
    /// through group commit: no append is acknowledged before a successful
    /// fsync covers it, and concurrent appenders share one fsync.
    pub fsync: bool,
    /// Per-client idempotency dedup window: how many of a client's most
    /// recent sequence numbers the service remembers (and persists through
    /// WAL + snapshots) to make tokened retries exactly-once. Retries
    /// older than the window are rejected as stale instead of re-applied.
    pub dedup_window: u64,
    /// Load-shedding bound: at most this many mutations may be in flight
    /// (queued on the WAL) at once; excess requests fail fast with
    /// [`req_core::ReqError::Busy`] instead of stalling their server
    /// thread/event loop. `0` disables shedding.
    pub max_inflight_mutations: u64,
    /// Optional deterministic fault-injection schedule, threaded through
    /// every WAL/snapshot syscall site. `None` (the default) costs one
    /// branch per site. See [`crate::faults::FaultPlane`].
    pub faults: Option<std::sync::Arc<crate::faults::FaultPlane>>,
}

impl ServiceConfig {
    /// Settings rooted at `data_dir`, defaults elsewhere.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            data_dir: data_dir.into(),
            snapshot_every_records: 0,
            fsync: false,
            dedup_window: 64,
            max_inflight_mutations: 0,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;

    #[test]
    fn default_parse_roundtrips_through_encode() {
        for (key, tokens) in [
            ("latency", &[][..]),
            ("latency", &["K=16", "LRA", "SHARDS=2"][..]),
            (
                "api.p99",
                &["EPS=0.02", "DELTA=0.1", "SCHEDULE=standard"][..],
            ),
            ("x", &["SEED=99", "HRA", "SCHEDULE=adaptive"][..]),
        ] {
            let cfg = TenantConfig::parse(key, tokens).unwrap();
            let mut out = BytesMut::new();
            cfg.pack(&mut out);
            let mut input = &out[..];
            let back = TenantConfig::unpack(&mut input).unwrap();
            assert_eq!(back, cfg, "roundtrip for {tokens:?}");
            assert!(!input.has_remaining());
        }
    }

    #[test]
    fn display_form_reparses_to_same_config() {
        let cfg = TenantConfig::parse("t", &["EPS=0.05", "LRA", "SHARDS=3"]).unwrap();
        let line = cfg.to_string();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let back = TenantConfig::parse("t", &tokens).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn seed_is_stable_per_key_and_differs_across_keys() {
        let a = TenantConfig::for_key("alpha");
        let b = TenantConfig::for_key("alpha");
        let c = TenantConfig::for_key("beta");
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn bad_options_are_rejected() {
        for tokens in [
            &["NOPE"][..],
            &["K=3"][..], // odd k rejected by the policy
            &["K=abc"][..],
            &["DELTA=0.1"][..], // delta without eps
            &["EPS=2.0"][..],   // out of range
            // Level buffers just past one wire message.
            &["K=174764"][..],
            &["EPS=0.00022"][..],
            &["SHARDS=0"][..],
            &["SCHEDULE=soon"][..],
        ] {
            assert!(
                TenantConfig::parse("k", tokens).is_err(),
                "{tokens:?} accepted"
            );
        }
    }

    #[test]
    fn create_limit_binds_new_creates_only() {
        // Just inside the limit (`bad_options_are_rejected` holds the
        // values just past it).
        assert!(TenantConfig::parse("k", &["K=174762"]).is_ok());
        assert!(TenantConfig::parse("k", &["EPS=0.00023"]).is_ok());
        // Decoding holds logged configurations only to building.
        let cfg = TenantConfig {
            accuracy: Accuracy::K(174_764),
            ..TenantConfig::for_key("k")
        };
        let mut out = BytesMut::new();
        cfg.pack(&mut out);
        assert_eq!(TenantConfig::unpack(&mut &out[..]).unwrap(), cfg);
    }

    #[test]
    fn key_validation() {
        assert!(validate_key("good-key_9.z").is_ok());
        assert!(validate_key("").is_err());
        assert!(validate_key("has space").is_err());
        assert!(validate_key("quote\"char").is_err());
        assert!(validate_key(&"x".repeat(MAX_KEY_LEN + 1)).is_err());
        assert!(validate_key("ünïcode").is_err());
    }

    #[test]
    fn decode_rejects_corrupt_fragments() {
        let cfg = TenantConfig::for_key("t");
        let mut out = BytesMut::new();
        cfg.pack(&mut out);
        let good = out.freeze().to_vec();
        // Truncations and a bad tag byte all reject.
        for cut in 0..good.len() {
            let mut input = &good[..cut];
            assert!(TenantConfig::unpack(&mut input).is_err(), "cut {cut}");
        }
        let mut bad = good.clone();
        bad[0] = 7;
        let mut input = &bad[..];
        assert!(TenantConfig::unpack(&mut input).is_err());
        // The K form's reserved u64 (after tag and k) must be zero.
        assert_eq!(cfg.accuracy, Accuracy::K(32));
        let mut bad = good.clone();
        bad[1 + 4] = 1;
        let mut input = &bad[..];
        assert!(matches!(
            TenantConfig::unpack(&mut input),
            Err(ReqError::CorruptBytes(_))
        ));
    }
}
