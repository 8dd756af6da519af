//! The wire API: typed [`Request`] / [`Response`] enums plus two codecs.
//!
//! The protocol is the *enums*, not any one byte layout. A request names a
//! command and its arguments; a response carries that command's typed
//! result (or a typed error). Two codecs encode them:
//!
//! * [`text`] — one line per message, debuggable with `nc`. Rust's `f64`
//!   Display/FromStr round-trip exactly (shortest-repr printing), so no
//!   precision is lost crossing the wire. This is the PR 5 line protocol,
//!   re-expressed as a codec over the typed API.
//! * [`binary`] — length-prefixed [`req_core::frame`] frames (CRC32 over
//!   the payload) around a tagged binary payload. Self-describing,
//!   bit-exact for every `f64` (NaN payloads included), and cheap enough
//!   to parse that the evented server pipelines thousands of frames per
//!   connection without the string tax.
//!
//! The server decodes requests and encodes responses in both codecs, and
//! a command handled through either produces the same typed [`Response`]
//! (proptested in `tests/protocol_compat.rs`). Clients speak binary
//! (`req_evented::ReqBinClient`); the text codec is the server's half
//! only: [`text::decode_request`] and [`text::encode_response`], with
//! [`text::encode_request`] as the reference its tests compare against.
//!
//! Errors cross the wire with their kind: [`Response::Err`] carries an
//! [`ErrorKind`] that maps 1:1 onto [`ReqError`] variants, so clients
//! match on the variant instead of sniffing string prefixes.

pub mod binary;
pub mod text;

use req_core::{packable_struct, ReqError};

use crate::config::TenantConfig;
use crate::service::TenantStats;

/// An idempotency token: a client identity plus a per-client sequence
/// number. Mutating requests ([`Request::Create`], [`Request::AddBatch`],
/// [`Request::Drop`]) may carry one; the server records applied `(client,
/// seq)` pairs in a dedup window persisted through the WAL, so a retry
/// after an ambiguous failure (timeout, dropped connection, crash between
/// append and reply) is applied **exactly once**.
///
/// Text form is `TOKEN=client_id:seq`. In binary it is `client_id u64 |
/// seq u64`, behind a presence byte on the wire and behind a tokenized
/// record tag in the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdemToken {
    /// Stable identity of the issuing client (random or configured).
    pub client_id: u64,
    /// Monotonically increasing per-client mutation counter.
    pub seq: u64,
}

packable_struct!(IdemToken { client_id, seq });

impl std::fmt::Display for IdemToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.client_id, self.seq)
    }
}

impl std::str::FromStr for IdemToken {
    type Err = ReqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (cid, seq) = s
            .split_once(':')
            .ok_or_else(|| ReqError::InvalidParameter(format!("bad token `{s}`")))?;
        let parse = |t: &str| {
            t.parse::<u64>()
                .map_err(|_| ReqError::InvalidParameter(format!("bad token `{s}`")))
        };
        Ok(IdemToken {
            client_id: parse(cid)?,
            seq: parse(seq)?,
        })
    }
}

/// One typed request — the unit both codecs encode.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `CREATE key [options…] [TOKEN=cid:seq]`
    Create {
        /// Tenant key.
        key: String,
        /// Resolved tenant configuration.
        config: TenantConfig,
        /// Optional idempotency token.
        token: Option<IdemToken>,
    },
    /// `ADDB key v1 v2 … [TOKEN=cid:seq]`
    AddBatch {
        /// Tenant key.
        key: String,
        /// Values to ingest, in order.
        values: Vec<f64>,
        /// Optional idempotency token.
        token: Option<IdemToken>,
    },
    /// `RANK key value`
    Rank {
        /// Tenant key.
        key: String,
        /// Query point.
        value: f64,
    },
    /// `QUANTILE key q`
    Quantile {
        /// Tenant key.
        key: String,
        /// Normalized rank in `[0, 1]`.
        q: f64,
    },
    /// `CDF key p1 p2 …`
    Cdf {
        /// Tenant key.
        key: String,
        /// Ascending split points.
        points: Vec<f64>,
    },
    /// `STATS key`
    Stats {
        /// Tenant key.
        key: String,
    },
    /// `LIST`
    List,
    /// `SNAPSHOT`
    Snapshot,
    /// `DROP key [TOKEN=cid:seq]`
    Drop {
        /// Tenant key.
        key: String,
        /// Optional idempotency token.
        token: Option<IdemToken>,
    },
    /// `PING`
    Ping,
    /// `QUIT`
    Quit,
    /// `TAIL gen offset max_bytes` — replication: ship a slice of the
    /// server's WAL generation `gen` starting at byte `offset`, as whole
    /// CRC-valid frames (never a torn tail).
    Tail {
        /// WAL generation to read.
        gen: u64,
        /// Byte offset within that generation's file (0 = from the start).
        offset: u64,
        /// Most frame bytes to ship in one reply.
        max_bytes: u32,
    },
    /// `METRICS` — render the process-wide telemetry registry as
    /// Prometheus-style text exposition.
    Metrics,
    /// `EVENTS max` — the newest `max` lines of the structured lifecycle
    /// event journal, oldest first.
    Events {
        /// Most event lines to return.
        max: u32,
    },
    /// `MERGESINCE key -` or `MERGESINCE key incarnation instance epoch…` —
    /// scatter/gather: the tenant's shard versions, with the serialized
    /// sketch (binary v3 `to_bytes`) of every shard whose version differs
    /// from the one `held` names, for a router to answer over
    /// ([`req_core::union`]) or merge ([`req_core::merge_wire_parts`]).
    /// With nothing held (`-`), every shard is sent.
    MergeSince {
        /// Tenant key.
        key: String,
        /// The versions of the parts the asker holds; `None` holds nothing.
        held: Option<ShardVersions>,
    },
}

/// Which state of each shard of one tenant a node served, for a holder of
/// the parts to name in a later [`Request::MergeSince`]. A version never
/// names two different shard contents on one node address:
///
/// * `incarnation` is drawn each time a [`crate::QuantileService`] opens,
///   so a restart, or a promoted standby behind the same name, differs;
/// * `instance` changes whenever the tenant's shards start a new lineage:
///   on `CREATE`, on a snapshot restore, and on every checkpoint (which
///   restarts the shard epochs at 0);
/// * `epochs[i]` is shard `i`'s [`req_core::ReqSketch::epoch`], which
///   every mutation bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardVersions {
    /// The serving service's incarnation.
    pub incarnation: u64,
    /// The tenant's shard lineage on that service.
    pub instance: u64,
    /// Each shard's epoch, in shard order.
    pub epochs: Vec<u64>,
}

/// The [`Request::MergeSince`] reply: the node's current versions of every
/// shard, and the bytes of each shard the asker's held version does not
/// name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangedShards {
    /// The serving service's incarnation.
    pub incarnation: u64,
    /// The tenant's shard lineage on that service.
    pub instance: u64,
    /// Per shard, in shard order: its epoch, and its serialized sketch
    /// (binary v3 `to_bytes`) unless the held version named that state.
    pub parts: Vec<(u64, Option<Vec<u8>>)>,
}

impl ChangedShards {
    /// The versions these parts are at, to hold for the next
    /// [`Request::MergeSince`].
    pub fn versions(&self) -> ShardVersions {
        ShardVersions {
            incarnation: self.incarnation,
            instance: self.instance,
            epochs: self.parts.iter().map(|(epoch, _)| *epoch).collect(),
        }
    }
}

/// One shipped slice of a primary's WAL — the [`Request::Tail`] reply.
///
/// `frames` holds zero or more *whole* WAL frames exactly as they sit in
/// the primary's file; a follower appends them verbatim to its own WAL
/// and applies each record, mirroring the primary byte-for-byte. A
/// partially written or rolled-back tail frame is never shipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailSegment {
    /// The generation the frames come from.
    pub gen: u64,
    /// Byte offset the slice starts at (resolved: 0 in the request maps
    /// to the first frame after the file magic).
    pub offset: u64,
    /// Is `gen` final? `true` once the primary rotated past it — after
    /// draining the remaining frames, the follower performs its own
    /// rotation at the same record index and resumes from `gen + 1`.
    pub sealed: bool,
    /// The primary's live generation when the reply was built.
    pub latest_gen: u64,
    /// Whole WAL frames, concatenated.
    pub frames: Vec<u8>,
}

/// The [`ReqError`] variant an error response carries — round-tripped
/// through both codecs so a remote failure is indistinguishable (by type)
/// from a local one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// [`ReqError::InvalidParameter`]
    Invalid,
    /// [`ReqError::IncompatibleMerge`]
    Incompatible,
    /// [`ReqError::CorruptBytes`]
    Corrupt,
    /// [`ReqError::Io`]
    Io,
    /// [`ReqError::Unavailable`] — degraded (read-only) mode.
    Unavailable,
    /// [`ReqError::Busy`] — request shed under load; retry after backoff.
    Busy,
}

impl ErrorKind {
    /// The stable wire token (`invalid`, `incompatible`, `corrupt`, `io`,
    /// `unavailable`, `busy`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Invalid => "invalid",
            ErrorKind::Incompatible => "incompatible",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Io => "io",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Busy => "busy",
        }
    }

    /// Rebuild the matching [`ReqError`] around `msg`.
    pub fn into_error(self, msg: String) -> ReqError {
        match self {
            ErrorKind::Invalid => ReqError::InvalidParameter(msg),
            ErrorKind::Incompatible => ReqError::IncompatibleMerge(msg),
            ErrorKind::Corrupt => ReqError::CorruptBytes(msg),
            ErrorKind::Io => ReqError::Io(msg),
            ErrorKind::Unavailable => ReqError::Unavailable(msg),
            ErrorKind::Busy => ReqError::Busy(msg),
        }
    }
}

impl From<&ReqError> for ErrorKind {
    fn from(e: &ReqError) -> Self {
        match e {
            ReqError::InvalidParameter(_) => ErrorKind::Invalid,
            ReqError::IncompatibleMerge(_) => ErrorKind::Incompatible,
            ReqError::CorruptBytes(_) => ErrorKind::Corrupt,
            ReqError::Io(_) => ErrorKind::Io,
            ReqError::Unavailable(_) => ErrorKind::Unavailable,
            ReqError::Busy(_) => ErrorKind::Busy,
        }
    }
}

/// One typed response. Every success variant answers exactly one
/// [`Request`] variant; [`Response::Err`] can answer any of them.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `CREATE` succeeded.
    Created,
    /// `ADDB` succeeded; how many values landed.
    AddedBatch(u64),
    /// `RANK` result.
    Rank(u64),
    /// `QUANTILE` result; `None` while the tenant is empty.
    Quantile(Option<f64>),
    /// `CDF` result, one normalized rank per split point.
    Cdf(Vec<f64>),
    /// `STATS` result.
    Stats(TenantStats),
    /// `LIST` result: all keys, sorted.
    List(Vec<String>),
    /// `SNAPSHOT` succeeded; the new generation.
    Snapshot(u64),
    /// `DROP` succeeded.
    Dropped,
    /// `PING` reply.
    Pong,
    /// `QUIT` acknowledged; the server closes after sending this.
    Bye,
    /// The command failed; `kind` names the [`ReqError`] variant.
    Err {
        /// Which [`ReqError`] variant the server raised.
        kind: ErrorKind,
        /// The error message.
        msg: String,
    },
    /// `TAIL` result.
    Tailed(TailSegment),
    /// `METRICS` result: the full Prometheus-style exposition text
    /// (multi-line; the text codec hex-armors it onto one line).
    MetricsText(String),
    /// `EVENTS` result: rendered journal lines, oldest first.
    Events(Vec<String>),
    /// `MERGESINCE` result.
    MergedSince(ChangedShards),
}

impl Response {
    /// Wrap a handler error.
    pub fn from_error(e: &ReqError) -> Response {
        let msg = match e {
            ReqError::InvalidParameter(m)
            | ReqError::IncompatibleMerge(m)
            | ReqError::CorruptBytes(m)
            | ReqError::Io(m)
            | ReqError::Unavailable(m)
            | ReqError::Busy(m) => m.clone(),
        };
        Response::Err {
            kind: ErrorKind::from(e),
            msg,
        }
    }

    /// Split into success-or-[`ReqError`] — the client-side inverse of
    /// [`Response::from_error`].
    pub fn into_result(self) -> Result<Response, ReqError> {
        match self {
            Response::Err { kind, msg } => Err(kind.into_error(msg)),
            ok => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Accuracy;

    #[test]
    fn commands_parse() {
        assert_eq!(
            text::decode_request("addb k 1 2.5 -3e4").unwrap(),
            Request::AddBatch {
                key: "k".into(),
                values: vec![1.0, 2.5, -3e4],
                token: None,
            }
        );
        assert_eq!(
            text::decode_request("ADDB k 7 TOKEN=3:9").unwrap(),
            Request::AddBatch {
                key: "k".into(),
                values: vec![7.0],
                token: Some(IdemToken {
                    client_id: 3,
                    seq: 9
                }),
            }
        );
        assert_eq!(
            text::decode_request("QUANTILE k 0.99").unwrap(),
            Request::Quantile {
                key: "k".into(),
                q: 0.99
            }
        );
        assert_eq!(
            text::decode_request("CDF k 1 2 3").unwrap(),
            Request::Cdf {
                key: "k".into(),
                points: vec![1.0, 2.0, 3.0]
            }
        );
        let Request::Create { key, config, token } =
            text::decode_request("CREATE api.p99 EPS=0.02 LRA SHARDS=2").unwrap()
        else {
            panic!("expected CREATE");
        };
        assert_eq!(token, None);
        assert_eq!(key, "api.p99");
        assert_eq!(config.accuracy, Accuracy::EpsDelta(0.02, 0.05));
        assert!(!config.hra);
        assert_eq!(config.shards, 2);
        assert_eq!(text::decode_request("LIST").unwrap(), Request::List);
        assert_eq!(text::decode_request("ping").unwrap(), Request::Ping);
        assert_eq!(text::decode_request("QUIT").unwrap(), Request::Quit);
        assert_eq!(text::decode_request("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(
            text::decode_request("DROP k").unwrap(),
            Request::Drop {
                key: "k".into(),
                token: None
            }
        );
    }

    #[test]
    fn bad_commands_reject() {
        for line in [
            "",
            "   ",
            "NOPE",
            "ADD key 1",
            "ADDB key",
            "RANK key",
            "RANK key 1 2",
            "CDF key",
            "RANK key one",
            "CREATE",
            "CREATE key BOGUS=1",
            "MERGE key",
            "MERGESINCE",
            "MERGESINCE key",
            "MERGESINCE key 1",
            "MERGESINCE key - 2",
            "MERGESINCE key 1 x 3",
        ] {
            assert!(text::decode_request(line).is_err(), "`{line}` accepted");
        }
    }

    #[test]
    fn newlines_in_error_messages_are_flattened() {
        let resp = Response::from_error(&ReqError::Io("two\nlines".into()));
        assert_eq!(text::encode_response(&resp), "ERR io two lines");
    }

    #[test]
    fn error_kinds_roundtrip_through_req_error() {
        for e in [
            ReqError::InvalidParameter("a".into()),
            ReqError::IncompatibleMerge("b".into()),
            ReqError::CorruptBytes("c".into()),
            ReqError::Io("d".into()),
            ReqError::Unavailable("e".into()),
            ReqError::Busy("f".into()),
        ] {
            let resp = Response::from_error(&e);
            assert_eq!(resp.into_result(), Err(e));
        }
    }

    #[test]
    fn idem_tokens_roundtrip_their_text_form() {
        let t = IdemToken {
            client_id: u64::MAX,
            seq: 0,
        };
        assert_eq!(t.to_string().parse::<IdemToken>().unwrap(), t);
        for bad in ["", "1", "1:", ":2", "1:2:3", "x:2", "1:y", "-1:2"] {
            assert!(bad.parse::<IdemToken>().is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn f64_display_roundtrips_exactly() {
        // The text codec's losslessness rests on this std guarantee.
        for v in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 1e-300] {
            let s = format!("{v}");
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via `{s}`");
        }
    }
}
