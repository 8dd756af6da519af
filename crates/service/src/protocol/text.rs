//! Line-oriented text codec — one line per message, debuggable with `nc`.
//!
//! ```text
//! CREATE key [EPS=f] [DELTA=f] [K=n] [HRA|LRA] [SCHEDULE=s] [SHARDS=n] [SEED=n] [TOKEN=cid:seq]
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
//! METRICS
//! EVENTS max
//! MERGESINCE key -
//! MERGESINCE key incarnation instance epoch1 epoch2 ...
//! ```
//!
//! The cluster-layer commands carry binary payloads in their replies
//! (`TAIL` ships raw WAL frames, `MERGESINCE` serialized sketches); those
//! cross the text wire lowercase-hex-encoded, with a lone `-` for an empty
//! blob — still one line, still `nc`-debuggable. A `MERGESINCE` reply is
//! `OK incarnation instance count` followed by an `epoch part` pair per
//! shard, where the part is `=` when the held version names the shard's
//! state. The unversioned `MERGE key` is retired: the line is an unknown
//! command, and `MERGESINCE key -` returns the same parts. Production
//! replication uses the binary codec; the text forms exist so every
//! command stays reachable from either transport. The two telemetry
//! replies (`METRICS` exposition text, `EVENTS` journal lines) are armored
//! the same way: multi-line content crosses as hex blobs, one line total.
//!
//! The optional trailing `TOKEN=cid:seq` on the three mutating commands is
//! an [`IdemToken`]; see its docs for the exactly-once retry contract.
//!
//! Responses are `OK[ payload]` or `ERR <kind> <message>`, where `kind`
//! is an [`ErrorKind`](super::ErrorKind) token (`invalid`,
//! `incompatible`, `corrupt`, `io`, `unavailable`, `busy`). A reply is
//! not self-describing (`OK 42` answers both `RANK` and `ADDB`), so a
//! reader must know which request it answers.
//!
//! This module is the server's half of the codec: it decodes request
//! lines ([`decode_request`]) and encodes replies ([`encode_response`]).
//! Programs talk to the server in [`binary`](super::binary);
//! [`encode_request`] is the reference the request decoder's tests compare
//! against.
//!
//! A message exists only with its `\n`. An unterminated tail — the
//! prefix a peer leaves when it closes mid-message — is never decoded:
//! the server discards it. A torn `ADDB` line would otherwise apply a
//! prefix of its values without the trailing `TOKEN=` that makes the
//! retry safe.

use req_core::ReqError;

use super::{IdemToken, Request, Response, ShardVersions};
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
        // `get`, not indexing: byte 6 of a non-ASCII argument may fall
        // inside a character.
        let is_token = arg
            .get(..6)
            .is_some_and(|head| head.eq_ignore_ascii_case("TOKEN="));
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
        "RANK" | "QUANTILE" => {
            let key = need_key()?;
            if args.len() != 2 {
                return bad(format!("{verb} needs exactly `key value`"));
            }
            let value = parse_f64(args[1])?;
            Ok(match verb.to_ascii_uppercase().as_str() {
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
            let (rest, token) = split_token(&args[1..])?;
            if !rest.is_empty() {
                return bad("DROP takes only `key [TOKEN=cid:seq]`".into());
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorKind;

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
    fn wire_lines_match_the_pr5_format() {
        // Old clients parse these exact bytes; don't drift.
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
            encode_request(&Request::AddBatch {
                key: "lat".into(),
                values: vec![3.25],
                token: None,
            }),
            "ADDB lat 3.25"
        );
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
            // A damaged token must not drop silently off a DROP.
            "DROP k TOKEM=1:2",
            "DROP k 1:2",
            // Byte 6 of these arguments falls inside a character.
            "ADDB k 12345é",
            "DROP k TOKENé",
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
