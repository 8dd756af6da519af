//! Line-oriented text codec — one line per message, debuggable with `nc`.
//!
//! ```text
//! CREATE key [EPS=f] [DELTA=f] [K=n] [HRA|LRA] [SCHEDULE=s] [SHARDS=n] [SEED=n] [TOKEN=cid:seq]
//! ADD key value
//! ADDB key v1 v2 v3 ... [TOKEN=cid:seq]
//! RANK key value
//! QUANTILE key q
//! CDF key p1 p2 ...
//! STATS key
//! LIST
//! SNAPSHOT
//! DROP key [TOKEN=cid:seq]
//! PING
//! QUIT
//! TAIL gen offset max_bytes
//! MERGE key
//! METRICS
//! EVENTS max
//! MERGESINCE key -
//! MERGESINCE key incarnation instance epoch1 epoch2 ...
//! ```
//!
//! The cluster-layer commands carry binary payloads in their replies
//! (`TAIL` ships raw WAL frames, `MERGE` and `MERGESINCE` ship serialized
//! sketches); those cross the text wire lowercase-hex-encoded, with a lone
//! `-` for an empty blob — still one line, still `nc`-debuggable. A
//! `MERGESINCE` reply is `OK incarnation instance count` followed by an
//! `epoch part` pair per shard, where the part is `=` when the held version
//! names the shard's state. Production
//! replication uses the binary codec; the text forms exist so every
//! command stays reachable from either transport. The two telemetry
//! replies (`METRICS` exposition text, `EVENTS` journal lines) are armored
//! the same way: multi-line content crosses as hex blobs, one line total.
//!
//! The optional trailing `TOKEN=cid:seq` on the three mutating commands is
//! an [`IdemToken`]; see its docs for the exactly-once retry contract.
//!
//! Responses are `OK[ payload]` or `ERR <kind> <message>`, where `kind`
//! is an [`ErrorKind`] token (`invalid`, `incompatible`, `corrupt`,
//! `io`). This is byte-for-byte the PR 5 wire format — pre-typed-API
//! clients and servers interoperate with this codec unchanged.
//!
//! Text responses are not self-describing: `OK 42` answers both `RANK`
//! and `ADDB`. [`decode_response`] therefore takes the [`RequestKind`] of
//! the request being answered. (The [`binary`](super::binary) codec tags
//! every response and needs no such context.)
//!
//! A message exists only with its `\n`. An unterminated tail — the
//! prefix a peer leaves when it closes mid-message — is never decoded:
//! the server discards it and the client reports a transport error. A
//! torn `ADDB` line would otherwise apply a prefix of its values without
//! the trailing `TOKEN=` that makes the retry safe.

use bytes::{BufMut, BytesMut};
use req_core::ReqError;
use std::io::BufRead;

use super::{
    ChangedShards, Codec, ErrorKind, IdemToken, Request, RequestKind, Response, ShardVersions,
    TailSegment, Text,
};
use crate::config::TenantConfig;

/// Longest accepted request line, newline included (an `ADDB` of ~400k
/// values). A longer line gets an `invalid` error and the connection
/// closes.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

fn to_hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xF) as usize] as char);
    }
    out
}

fn from_hex(s: &str) -> Result<Vec<u8>, ReqError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    let bad = || ReqError::InvalidParameter(format!("bad hex blob `{s}`"));
    let digits = s.as_bytes();
    if digits.is_empty() || !digits.len().is_multiple_of(2) {
        return Err(bad());
    }
    digits
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16).ok_or_else(bad)?;
            let lo = (pair[1] as char).to_digit(16).ok_or_else(bad)?;
            Ok((hi * 16 + lo) as u8)
        })
        .collect()
}

fn parse_int<T: std::str::FromStr>(token: &str) -> Result<T, ReqError> {
    token
        .parse()
        .map_err(|_| ReqError::InvalidParameter(format!("bad integer `{token}`")))
}

fn parse_f64(token: &str) -> Result<f64, ReqError> {
    token
        .parse()
        .map_err(|_| ReqError::InvalidParameter(format!("bad number `{token}`")))
}

fn parse_f64s(tokens: &[&str]) -> Result<Vec<f64>, ReqError> {
    tokens.iter().map(|t| parse_f64(t)).collect()
}

fn join_f64s(prefix: String, values: &[f64]) -> String {
    let mut out = prefix;
    for v in values {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out
}

fn push_token(mut line: String, token: &Option<IdemToken>) -> String {
    if let Some(t) = token {
        line.push_str(" TOKEN=");
        line.push_str(&t.to_string());
    }
    line
}

/// Pull the (at most one) `TOKEN=cid:seq` argument out of an argument
/// list, returning the remaining arguments in order. The token may appear
/// anywhere after the key, matching how CREATE options are order-free.
fn split_token<'a>(args: &[&'a str]) -> Result<(Vec<&'a str>, Option<IdemToken>), ReqError> {
    let mut token = None;
    let mut rest = Vec::with_capacity(args.len());
    for arg in args {
        let is_token = arg.len() >= 6 && arg[..6].eq_ignore_ascii_case("TOKEN=");
        if is_token {
            if token.is_some() {
                return Err(ReqError::InvalidParameter(
                    "at most one TOKEN= per command".into(),
                ));
            }
            token = Some(arg[6..].parse()?);
        } else {
            rest.push(*arg);
        }
    }
    Ok((rest, token))
}

/// Render one request as its line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Create { key, config, token } => {
            push_token(format!("CREATE {key} {config}"), token)
        }
        Request::Add { key, value } => format!("ADD {key} {value}"),
        Request::AddBatch { key, values, token } => {
            push_token(join_f64s(format!("ADDB {key}"), values), token)
        }
        Request::Rank { key, value } => format!("RANK {key} {value}"),
        Request::Quantile { key, q } => format!("QUANTILE {key} {q}"),
        Request::Cdf { key, points } => join_f64s(format!("CDF {key}"), points),
        Request::Stats { key } => format!("STATS {key}"),
        Request::List => "LIST".to_string(),
        Request::Snapshot => "SNAPSHOT".to_string(),
        Request::Drop { key, token } => push_token(format!("DROP {key}"), token),
        Request::Ping => "PING".to_string(),
        Request::Quit => "QUIT".to_string(),
        Request::Tail {
            gen,
            offset,
            max_bytes,
        } => format!("TAIL {gen} {offset} {max_bytes}"),
        Request::Merge { key } => format!("MERGE {key}"),
        Request::Metrics => "METRICS".to_string(),
        Request::Events { max } => format!("EVENTS {max}"),
        Request::MergeSince { key, held: None } => format!("MERGESINCE {key} -"),
        Request::MergeSince {
            key,
            held: Some(held),
        } => {
            let mut out = format!("MERGESINCE {key} {} {}", held.incarnation, held.instance);
            for epoch in &held.epochs {
                out.push_str(&format!(" {epoch}"));
            }
            out
        }
    }
}

/// Parse one request line (verbs are case-insensitive).
pub fn decode_request(line: &str) -> Result<Request, ReqError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let bad = |msg: String| Err(ReqError::InvalidParameter(msg));
    let Some(&verb) = tokens.first() else {
        return bad("empty command".into());
    };
    let args = &tokens[1..];
    let need_key = || -> Result<String, ReqError> {
        args.first()
            .map(|k| k.to_string())
            .ok_or_else(|| ReqError::InvalidParameter(format!("{verb} needs a key")))
    };
    match verb.to_ascii_uppercase().as_str() {
        "CREATE" => {
            let key = need_key()?;
            let (opts, token) = split_token(&args[1..])?;
            let config = TenantConfig::parse(&key, &opts)?;
            Ok(Request::Create { key, config, token })
        }
        "ADD" | "RANK" | "QUANTILE" => {
            let key = need_key()?;
            if args.len() != 2 {
                return bad(format!("{verb} needs exactly `key value`"));
            }
            let value = parse_f64(args[1])?;
            Ok(match verb.to_ascii_uppercase().as_str() {
                "ADD" => Request::Add { key, value },
                "RANK" => Request::Rank { key, value },
                _ => Request::Quantile { key, q: value },
            })
        }
        "ADDB" => {
            let key = need_key()?;
            let (values, token) = split_token(&args[1..])?;
            if values.is_empty() {
                return bad("ADDB needs at least one value".into());
            }
            Ok(Request::AddBatch {
                key,
                values: parse_f64s(&values)?,
                token,
            })
        }
        "CDF" => {
            let key = need_key()?;
            if args.len() < 2 {
                return bad("CDF needs at least one split point".into());
            }
            Ok(Request::Cdf {
                key,
                points: parse_f64s(&args[1..])?,
            })
        }
        "STATS" => Ok(Request::Stats { key: need_key()? }),
        "DROP" => {
            let key = need_key()?;
            let (_, token) = split_token(&args[1..])?;
            Ok(Request::Drop { key, token })
        }
        "LIST" => Ok(Request::List),
        "SNAPSHOT" => Ok(Request::Snapshot),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "TAIL" => {
            if args.len() != 3 {
                return bad("TAIL needs exactly `gen offset max_bytes`".into());
            }
            Ok(Request::Tail {
                gen: parse_int(args[0])?,
                offset: parse_int(args[1])?,
                max_bytes: parse_int(args[2])?,
            })
        }
        "MERGE" => {
            if args.len() != 1 {
                return bad("MERGE needs exactly `key`".into());
            }
            Ok(Request::Merge { key: need_key()? })
        }
        "METRICS" => Ok(Request::Metrics),
        "EVENTS" => {
            if args.len() > 1 {
                return bad("EVENTS takes at most `max`".into());
            }
            Ok(Request::Events {
                max: args
                    .first()
                    .map(|t| parse_int(t))
                    .transpose()?
                    .unwrap_or(64),
            })
        }
        "MERGESINCE" => {
            let key = need_key()?;
            let held = match args[1..] {
                ["-"] => None,
                [incarnation, instance, ref epochs @ ..] => Some(ShardVersions {
                    incarnation: parse_int(incarnation)?,
                    instance: parse_int(instance)?,
                    epochs: epochs
                        .iter()
                        .map(|t| parse_int(t))
                        .collect::<Result<_, _>>()?,
                }),
                _ => {
                    return bad(
                        "MERGESINCE needs `key -` or `key incarnation instance epoch…`".into(),
                    )
                }
            };
            Ok(Request::MergeSince { key, held })
        }
        other => bad(format!("unknown command `{other}`")),
    }
}

/// Render one response as its line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Created => "OK created".to_string(),
        Response::Added => "OK".to_string(),
        Response::AddedBatch(n) => format!("OK {n}"),
        Response::Rank(r) => format!("OK {r}"),
        Response::Quantile(Some(v)) => format!("OK {v}"),
        Response::Quantile(None) => "OK none".to_string(),
        Response::Cdf(points) => join_f64s("OK".to_string(), points),
        Response::Stats(stats) => format!("OK {stats}"),
        Response::List(keys) => {
            let mut out = "OK".to_string();
            for key in keys {
                out.push(' ');
                out.push_str(key);
            }
            out
        }
        Response::Snapshot(generation) => format!("OK snapshot {generation}"),
        Response::Dropped => "OK dropped".to_string(),
        Response::Pong => "OK pong".to_string(),
        Response::Bye => "OK bye".to_string(),
        // Responses are line-framed; a message must not smuggle one.
        Response::Err { kind, msg } => {
            format!("ERR {} {}", kind.as_str(), msg.replace(['\r', '\n'], " "))
        }
        Response::Tailed(seg) => format!(
            "OK {} {} {} {} {}",
            seg.gen,
            seg.offset,
            seg.sealed as u8,
            seg.latest_gen,
            to_hex(&seg.frames)
        ),
        Response::Merged(parts) => {
            let mut out = format!("OK {}", parts.len());
            for part in parts {
                out.push(' ');
                out.push_str(&to_hex(part));
            }
            out
        }
        Response::MetricsText(text) => format!("OK {}", to_hex(text.as_bytes())),
        Response::Events(lines) => {
            let mut out = format!("OK {}", lines.len());
            for line in lines {
                out.push(' ');
                out.push_str(&to_hex(line.as_bytes()));
            }
            out
        }
        Response::MergedSince(changed) => {
            let mut out = format!(
                "OK {} {} {}",
                changed.incarnation,
                changed.instance,
                changed.parts.len()
            );
            for (epoch, part) in &changed.parts {
                let part = part.as_deref().map_or_else(|| "=".to_string(), to_hex);
                out.push_str(&format!(" {epoch} {part}"));
            }
            out
        }
    }
}

/// Parse an `ERR kind msg` line into its typed parts; `None` when the
/// line is not a well-formed error response.
fn decode_error_line(line: &str) -> Option<(ErrorKind, String)> {
    let rest = line.strip_prefix("ERR ")?;
    let (kind, msg) = rest.split_once(' ').unwrap_or((rest, ""));
    Some((ErrorKind::from_token(kind)?, msg.to_string()))
}

/// Parse one response line. `kind` is the request the line answers —
/// text payloads are positional, so the response type is context-bound.
pub fn decode_response(line: &str, kind: RequestKind) -> Result<Response, ReqError> {
    if line.starts_with("ERR") {
        return match decode_error_line(line) {
            Some((kind, msg)) => Ok(Response::Err { kind, msg }),
            None => Err(ReqError::Io(format!("unparseable error response: {line}"))),
        };
    }
    let Some(payload) = line.strip_prefix("OK") else {
        return Err(ReqError::Io(format!("unparseable response: {line}")));
    };
    let payload = payload.strip_prefix(' ').unwrap_or(payload);
    let bad = || ReqError::Io(format!("bad {kind:?} reply `{payload}`"));
    Ok(match kind {
        RequestKind::Create => Response::Created,
        RequestKind::Add => Response::Added,
        RequestKind::AddBatch => Response::AddedBatch(payload.parse().map_err(|_| bad())?),
        RequestKind::Rank => Response::Rank(payload.parse().map_err(|_| bad())?),
        RequestKind::Quantile => Response::Quantile(if payload == "none" {
            None
        } else {
            Some(payload.parse().map_err(|_| bad())?)
        }),
        RequestKind::Cdf => Response::Cdf(
            payload
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()?,
        ),
        RequestKind::Stats => Response::Stats(payload.parse()?),
        RequestKind::List => {
            Response::List(payload.split_whitespace().map(str::to_string).collect())
        }
        RequestKind::Snapshot => Response::Snapshot(
            payload
                .strip_prefix("snapshot ")
                .and_then(|g| g.parse().ok())
                .ok_or_else(bad)?,
        ),
        RequestKind::Drop => Response::Dropped,
        RequestKind::Ping => {
            if payload != "pong" {
                return Err(bad());
            }
            Response::Pong
        }
        RequestKind::Quit => Response::Bye,
        RequestKind::Tail => {
            let tokens: Vec<&str> = payload.split_whitespace().collect();
            let [gen, offset, sealed, latest_gen, frames] = tokens[..] else {
                return Err(bad());
            };
            Response::Tailed(TailSegment {
                gen: gen.parse().map_err(|_| bad())?,
                offset: offset.parse().map_err(|_| bad())?,
                sealed: match sealed {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                },
                latest_gen: latest_gen.parse().map_err(|_| bad())?,
                frames: from_hex(frames).map_err(|_| bad())?,
            })
        }
        RequestKind::Merge => {
            let mut tokens = payload.split_whitespace();
            let count: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let parts: Vec<Vec<u8>> = tokens
                .map(|t| from_hex(t).map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            if parts.len() != count {
                return Err(bad());
            }
            Response::Merged(parts)
        }
        RequestKind::Metrics => {
            if payload.split_whitespace().count() != 1 {
                return Err(bad());
            }
            let bytes = from_hex(payload.trim()).map_err(|_| bad())?;
            Response::MetricsText(String::from_utf8(bytes).map_err(|_| bad())?)
        }
        RequestKind::Events => {
            let mut tokens = payload.split_whitespace();
            let count: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let lines: Vec<String> = tokens
                .map(|t| {
                    let bytes = from_hex(t).map_err(|_| bad())?;
                    String::from_utf8(bytes).map_err(|_| bad())
                })
                .collect::<Result<_, _>>()?;
            if lines.len() != count {
                return Err(bad());
            }
            Response::Events(lines)
        }
        RequestKind::MergeSince => {
            let tokens: Vec<&str> = payload.split_whitespace().collect();
            let [incarnation, instance, count, ref pairs @ ..] = tokens[..] else {
                return Err(bad());
            };
            let count: usize = count.parse().map_err(|_| bad())?;
            if pairs.len() % 2 != 0 || pairs.len() / 2 != count {
                return Err(bad());
            }
            let parts = pairs
                .chunks_exact(2)
                .map(|pair| {
                    let epoch = pair[0].parse().map_err(|_| bad())?;
                    let part = match pair[1] {
                        "=" => None,
                        hex => Some(from_hex(hex).map_err(|_| bad())?),
                    };
                    Ok((epoch, part))
                })
                .collect::<Result<_, ReqError>>()?;
            Response::MergedSince(ChangedShards {
                incarnation: incarnation.parse().map_err(|_| bad())?,
                instance: instance.parse().map_err(|_| bad())?,
                parts,
            })
        }
    })
}

impl Codec for Text {
    fn write_request(out: &mut BytesMut, req: &Request) -> Result<(), ReqError> {
        let line = encode_request(req);
        // A key carrying a line break would split into two requests.
        if line.contains(['\n', '\r']) {
            return Err(ReqError::InvalidParameter(
                "request must be a single line".into(),
            ));
        }
        out.put_slice(line.as_bytes());
        out.put_u8(b'\n');
        Ok(())
    }

    fn read_response<R: BufRead>(r: &mut R, kind: RequestKind) -> Result<Response, ReqError> {
        let mut line = Vec::new();
        let n = r.read_until(b'\n', &mut line)?;
        if line.last() != Some(&b'\n') {
            return Err(ReqError::Io(if n == 0 {
                "server closed the connection".into()
            } else {
                format!("server closed the connection after {n} bytes of a reply")
            }));
        }
        let line =
            String::from_utf8(line).map_err(|_| ReqError::Io("reply is not UTF-8".into()))?;
        decode_response(line.trim_end_matches(['\r', '\n']), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_lines() {
        let token = Some(IdemToken {
            client_id: 7,
            seq: 41,
        });
        let reqs = [
            Request::Create {
                key: "k".into(),
                config: TenantConfig::parse("k", &["K=16", "HRA", "SHARDS=2"]).unwrap(),
                token: None,
            },
            Request::Create {
                key: "k".into(),
                config: TenantConfig::parse("k", &["K=16"]).unwrap(),
                token,
            },
            Request::Add {
                key: "k".into(),
                value: 3.25,
            },
            Request::AddBatch {
                key: "k".into(),
                values: vec![1.0, -2.5, 1e300],
                token: None,
            },
            Request::AddBatch {
                key: "k".into(),
                values: vec![1.0],
                token,
            },
            Request::Rank {
                key: "k".into(),
                value: 0.5,
            },
            Request::Quantile {
                key: "k".into(),
                q: 0.99,
            },
            Request::Cdf {
                key: "k".into(),
                points: vec![1.0, 2.0],
            },
            Request::Stats { key: "k".into() },
            Request::List,
            Request::Snapshot,
            Request::Drop {
                key: "k".into(),
                token: None,
            },
            Request::Drop {
                key: "k".into(),
                token,
            },
            Request::Ping,
            Request::Quit,
            Request::Tail {
                gen: 7,
                offset: 8,
                max_bytes: 4096,
            },
            Request::Merge { key: "k".into() },
            Request::Metrics,
            Request::Events { max: 128 },
            Request::MergeSince {
                key: "k".into(),
                held: None,
            },
            Request::MergeSince {
                key: "k".into(),
                held: Some(ShardVersions {
                    incarnation: u64::MAX,
                    instance: 3,
                    epochs: vec![0, 12, 7],
                }),
            },
            Request::MergeSince {
                key: "k".into(),
                held: Some(ShardVersions {
                    incarnation: 1,
                    instance: 0,
                    epochs: vec![],
                }),
            },
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert_eq!(decode_request(&line).unwrap(), req, "through `{line}`");
        }
    }

    #[test]
    fn responses_roundtrip_with_request_context() {
        use crate::service::TenantStats;
        let cases = [
            (RequestKind::Create, Response::Created),
            (RequestKind::Add, Response::Added),
            (RequestKind::AddBatch, Response::AddedBatch(4096)),
            (RequestKind::Rank, Response::Rank(17)),
            (RequestKind::Quantile, Response::Quantile(Some(0.125))),
            (RequestKind::Quantile, Response::Quantile(None)),
            (RequestKind::Cdf, Response::Cdf(vec![0.25, 0.5, 1.0])),
            (
                RequestKind::Stats,
                Response::Stats(TenantStats {
                    n: 10,
                    retained: 10,
                    bytes: 320,
                    k: 32,
                    shards: 2,
                    hra: true,
                    adaptive: false,
                    rotation: 3,
                    snapshot_failures: 1,
                    wal_poisoned: 0,
                    shed: 2,
                    read_only: true,
                }),
            ),
            (
                RequestKind::List,
                Response::List(vec!["a".into(), "b".into()]),
            ),
            (RequestKind::List, Response::List(vec![])),
            (RequestKind::Snapshot, Response::Snapshot(7)),
            (RequestKind::Drop, Response::Dropped),
            (RequestKind::Ping, Response::Pong),
            (RequestKind::Quit, Response::Bye),
            (
                RequestKind::Tail,
                Response::Tailed(TailSegment {
                    gen: 2,
                    offset: 8,
                    sealed: true,
                    latest_gen: 3,
                    frames: vec![0x00, 0xAB, 0xFF],
                }),
            ),
            (
                RequestKind::Tail,
                Response::Tailed(TailSegment {
                    gen: 0,
                    offset: 0,
                    sealed: false,
                    latest_gen: 0,
                    frames: vec![],
                }),
            ),
            (
                RequestKind::Merge,
                Response::Merged(vec![vec![1, 2, 3], vec![], vec![0xFE]]),
            ),
            (RequestKind::Merge, Response::Merged(vec![])),
            (
                RequestKind::Metrics,
                Response::MetricsText("# TYPE a counter\na 1\n".into()),
            ),
            (RequestKind::Metrics, Response::MetricsText(String::new())),
            (
                RequestKind::Events,
                Response::Events(vec!["0 +5us wal_poisoned err=oops".into(), String::new()]),
            ),
            (RequestKind::Events, Response::Events(vec![])),
            (
                RequestKind::MergeSince,
                Response::MergedSince(ChangedShards {
                    incarnation: u64::MAX,
                    instance: 4,
                    parts: vec![(3, Some(vec![1, 2, 3])), (0, None), (9, Some(vec![]))],
                }),
            ),
            (
                RequestKind::MergeSince,
                Response::MergedSince(ChangedShards {
                    incarnation: 0,
                    instance: 0,
                    parts: vec![],
                }),
            ),
            (
                RequestKind::Rank,
                Response::Err {
                    kind: ErrorKind::Invalid,
                    msg: "no such key `x`".into(),
                },
            ),
        ];
        for (kind, resp) in cases {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'));
            assert_eq!(
                decode_response(&line, kind).unwrap(),
                resp,
                "through `{line}`"
            );
        }
    }

    #[test]
    fn wire_lines_match_the_pr5_format() {
        // Old clients parse these exact bytes; don't drift.
        assert_eq!(encode_response(&Response::Added), "OK");
        assert_eq!(encode_response(&Response::AddedBatch(3)), "OK 3");
        assert_eq!(encode_response(&Response::Quantile(None)), "OK none");
        assert_eq!(encode_response(&Response::Snapshot(2)), "OK snapshot 2");
        assert_eq!(encode_response(&Response::Pong), "OK pong");
        assert_eq!(
            encode_response(&Response::Err {
                kind: ErrorKind::Corrupt,
                msg: "checksum".into()
            }),
            "ERR corrupt checksum"
        );
        assert_eq!(
            encode_request(&Request::Add {
                key: "lat".into(),
                value: 3.25
            }),
            "ADD lat 3.25"
        );
    }

    #[test]
    fn garbage_responses_are_io_errors() {
        assert!(decode_response("NOPE", RequestKind::Ping).is_err());
        assert!(decode_response("ERR weird x", RequestKind::Ping).is_err());
        assert!(decode_response("OK not-a-number", RequestKind::Rank).is_err());
        assert!(decode_response("OK", RequestKind::Snapshot).is_err());
        assert!(decode_response("OK 1 2 1", RequestKind::Tail).is_err());
        assert!(decode_response("OK 1 2 5 3 -", RequestKind::Tail).is_err());
        assert!(decode_response("OK 1 2 1 3 abc", RequestKind::Tail).is_err());
        assert!(decode_response("OK 2 aa", RequestKind::Merge).is_err());
        assert!(decode_response("OK 1 xyz!", RequestKind::Merge).is_err());
        assert!(decode_response("OK", RequestKind::Metrics).is_err());
        assert!(decode_response("OK aa bb", RequestKind::Metrics).is_err());
        assert!(decode_response("OK zz", RequestKind::Metrics).is_err());
        assert!(
            decode_response("OK ff", RequestKind::Metrics).is_err(),
            "not utf8"
        );
        assert!(decode_response("OK 2 aa", RequestKind::Events).is_err());
        assert!(decode_response("OK x", RequestKind::Events).is_err());
        assert!(decode_response("OK 1 2", RequestKind::MergeSince).is_err());
        assert!(decode_response("OK 1 2 1 5", RequestKind::MergeSince).is_err());
        assert!(decode_response("OK 1 2 1 5 = 6 =", RequestKind::MergeSince).is_err());
        assert!(decode_response("OK 1 2 1 x =", RequestKind::MergeSince).is_err());
        assert!(decode_response("OK 1 2 1 5 xyz!", RequestKind::MergeSince).is_err());
        assert!(
            decode_response("OK 1 2 99999999999999999999 5 =", RequestKind::MergeSince).is_err()
        );
    }

    #[test]
    fn hex_blobs_roundtrip() {
        for blob in [
            vec![],
            vec![0u8],
            vec![0xFF, 0x00, 0x7E],
            (0..=255).collect(),
        ] {
            let hex = to_hex(&blob);
            assert!(!hex.contains(' '));
            assert_eq!(from_hex(&hex).unwrap(), blob, "through `{hex}`");
        }
        assert_eq!(to_hex(&[]), "-");
        for bad in ["", "a", "g0", "0G", "--"] {
            assert!(from_hex(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn multi_line_requests_are_refused() {
        let req = Request::Stats {
            key: "a\nPING".into(),
        };
        let mut out = BytesMut::new();
        assert!(Text::write_request(&mut out, &req).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn malformed_tokens_reject() {
        for line in [
            "ADDB k 1 TOKEN=",
            "ADDB k 1 TOKEN=5",
            "ADDB k 1 TOKEN=a:b",
            "ADDB k 1 TOKEN=1:2 TOKEN=1:3",
            "ADDB k TOKEN=1:2",
            "DROP k TOKEN=1:-2",
        ] {
            assert!(decode_request(line).is_err(), "`{line}` accepted");
        }
        // Token casing is as forgiving as the verbs are.
        assert_eq!(
            decode_request("drop k token=1:2").unwrap(),
            Request::Drop {
                key: "k".into(),
                token: Some(IdemToken {
                    client_id: 1,
                    seq: 2
                }),
            }
        );
    }
}
