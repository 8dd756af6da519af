//! Binary codec — tagged payloads inside [`req_core::frame`] CRC32 frames.
//!
//! Every message is one frame: `len u32 LE | crc32 u32 LE | payload`,
//! where the CRC covers the payload. The payload starts with a one-byte
//! message tag, then the fields in declaration order, all integers
//! little-endian, `f64` as raw IEEE-754 bits (bit-exact, NaN payloads
//! included), strings and vectors length-prefixed with a `u32` count.
//!
//! Request tags count `1..=16` in [`Request`] declaration order;
//! response tags count `1..=17` in [`Response`] declaration order
//! ([`Response::Err`] is tag 13, carrying an [`ErrorKind`] byte plus the
//! message; the cluster-layer `Tailed`/`Merged` replies are 14/15 and the
//! telemetry `MetricsText`/`Events` replies are 16/17).
//! Unlike the [`text`](super::text) codec, responses are
//! self-describing — no request context is needed to decode them, which
//! is what makes deep pipelining tractable.
//!
//! A frame that fails the CRC or length check is a *transport* fault
//! (the connection is torn down); a frame that deframes cleanly but
//! decodes to garbage is a *request* fault (the server answers with a
//! typed [`Response::Err`] and keeps the connection).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use req_core::binary::Packable;
use req_core::frame::{crc32, write_frame, FRAME_HEADER_LEN};
use req_core::ReqError;
use std::io::{BufRead, Read};

use super::{Binary, Codec, ErrorKind, IdemToken, Request, RequestKind, Response, TailSegment};
use crate::config::TenantConfig;
use crate::service::TenantStats;

/// Largest accepted frame payload — matches the text codec's
/// [`MAX_LINE_BYTES`](super::text::MAX_LINE_BYTES) bound so neither
/// protocol lets one hostile message exhaust memory. It also keeps the
/// length prefix's high byte zero, which is how a server tells a frame
/// from a text line by its fourth byte.
pub const MAX_MESSAGE_PAYLOAD: usize = 8 * 1024 * 1024;

/// Payload bytes a [`Response::Tailed`] reply adds around the WAL frames
/// it ships: tag, `gen`, `offset`, `sealed`, `latest_gen` and the frames'
/// length prefix.
pub const TAIL_REPLY_ENVELOPE: usize = 1 + 8 + 8 + 1 + 8 + 4;

fn need(input: &Bytes, n: usize) -> Result<(), ReqError> {
    if input.remaining() < n {
        Err(ReqError::CorruptBytes(format!(
            "truncated message: need {n} more bytes, have {}",
            input.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_u8(input: &mut Bytes) -> Result<u8, ReqError> {
    need(input, 1)?;
    Ok(input.get_u8())
}

fn get_u32(input: &mut Bytes) -> Result<u32, ReqError> {
    need(input, 4)?;
    Ok(input.get_u32_le())
}

fn get_u64(input: &mut Bytes) -> Result<u64, ReqError> {
    need(input, 8)?;
    Ok(input.get_u64_le())
}

fn get_f64(input: &mut Bytes) -> Result<f64, ReqError> {
    Ok(f64::from_bits(get_u64(input)?))
}

fn put_f64s(out: &mut BytesMut, values: &[f64]) {
    out.put_u32_le(values.len() as u32);
    for v in values {
        out.put_u64_le(v.to_bits());
    }
}

fn get_f64s(input: &mut Bytes) -> Result<Vec<f64>, ReqError> {
    let count = get_u32(input)? as usize;
    // 8 bytes per value must already be present — a huge declared count
    // with a short payload is corrupt, not an allocation request.
    need(input, count.saturating_mul(8))?;
    Ok(take_f64s(input, count, f64::from))
}

/// Read `count` little-endian `f64`s, each passed through `wrap`, in one
/// pass over the buffer: an exact-capacity `Vec` and one cursor advance.
///
/// # Panics
/// Panics if fewer than `8 * count` bytes remain; callers check first.
pub(crate) fn take_f64s<T>(input: &mut Bytes, count: usize, wrap: impl Fn(f64) -> T) -> Vec<T> {
    let len = count * 8;
    let values = input.chunk()[..len]
        .chunks_exact(8)
        .map(|b| wrap(f64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
        .collect();
    input.advance(len);
    values
}

fn put_bytes(out: &mut BytesMut, bytes: &[u8]) {
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(bytes);
}

fn get_bytes(input: &mut Bytes) -> Result<Vec<u8>, ReqError> {
    let count = get_u32(input)? as usize;
    // The declared length must already be present — a huge count with a
    // short payload is corrupt, not an allocation request.
    need(input, count)?;
    let mut bytes = vec![0u8; count];
    input.copy_to_slice(&mut bytes);
    Ok(bytes)
}

fn put_token(out: &mut BytesMut, token: &Option<IdemToken>) {
    match token {
        Some(t) => {
            out.put_u8(1);
            out.put_u64_le(t.client_id);
            out.put_u64_le(t.seq);
        }
        None => out.put_u8(0),
    }
}

fn get_token(input: &mut Bytes) -> Result<Option<IdemToken>, ReqError> {
    match get_u8(input)? {
        0 => Ok(None),
        1 => Ok(Some(IdemToken {
            client_id: get_u64(input)?,
            seq: get_u64(input)?,
        })),
        other => Err(ReqError::CorruptBytes(format!(
            "bad token presence byte {other}"
        ))),
    }
}

const REQ_CREATE: u8 = 1;
const REQ_ADD: u8 = 2;
const REQ_ADD_BATCH: u8 = 3;
const REQ_RANK: u8 = 4;
const REQ_QUANTILE: u8 = 5;
const REQ_CDF: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_LIST: u8 = 8;
const REQ_SNAPSHOT: u8 = 9;
const REQ_DROP: u8 = 10;
const REQ_PING: u8 = 11;
const REQ_QUIT: u8 = 12;
const REQ_TAIL: u8 = 13;
const REQ_MERGE: u8 = 14;
const REQ_METRICS: u8 = 15;
const REQ_EVENTS: u8 = 16;

const RESP_CREATED: u8 = 1;
const RESP_ADDED: u8 = 2;
const RESP_ADDED_BATCH: u8 = 3;
const RESP_RANK: u8 = 4;
const RESP_QUANTILE: u8 = 5;
const RESP_CDF: u8 = 6;
const RESP_STATS: u8 = 7;
const RESP_LIST: u8 = 8;
const RESP_SNAPSHOT: u8 = 9;
const RESP_DROPPED: u8 = 10;
const RESP_PONG: u8 = 11;
const RESP_BYE: u8 = 12;
const RESP_ERR: u8 = 13;
const RESP_TAILED: u8 = 14;
const RESP_MERGED: u8 = 15;
const RESP_METRICS: u8 = 16;
const RESP_EVENTS: u8 = 17;

impl ErrorKind {
    fn wire_byte(self) -> u8 {
        match self {
            ErrorKind::Invalid => 1,
            ErrorKind::Incompatible => 2,
            ErrorKind::Corrupt => 3,
            ErrorKind::Io => 4,
            ErrorKind::Unavailable => 5,
            ErrorKind::Busy => 6,
        }
    }

    fn from_wire_byte(b: u8) -> Result<ErrorKind, ReqError> {
        Ok(match b {
            1 => ErrorKind::Invalid,
            2 => ErrorKind::Incompatible,
            3 => ErrorKind::Corrupt,
            4 => ErrorKind::Io,
            5 => ErrorKind::Unavailable,
            6 => ErrorKind::Busy,
            other => {
                return Err(ReqError::CorruptBytes(format!(
                    "unknown error kind byte {other}"
                )))
            }
        })
    }
}

fn encode_request_payload(req: &Request, out: &mut BytesMut) {
    match req {
        Request::Create { key, config, token } => {
            out.put_u8(REQ_CREATE);
            key.pack(out);
            config.encode(out);
            put_token(out, token);
        }
        Request::Add { key, value } => {
            out.put_u8(REQ_ADD);
            key.pack(out);
            out.put_u64_le(value.to_bits());
        }
        Request::AddBatch { key, values, token } => {
            out.put_u8(REQ_ADD_BATCH);
            key.pack(out);
            put_f64s(out, values);
            put_token(out, token);
        }
        Request::Rank { key, value } => {
            out.put_u8(REQ_RANK);
            key.pack(out);
            out.put_u64_le(value.to_bits());
        }
        Request::Quantile { key, q } => {
            out.put_u8(REQ_QUANTILE);
            key.pack(out);
            out.put_u64_le(q.to_bits());
        }
        Request::Cdf { key, points } => {
            out.put_u8(REQ_CDF);
            key.pack(out);
            put_f64s(out, points);
        }
        Request::Stats { key } => {
            out.put_u8(REQ_STATS);
            key.pack(out);
        }
        Request::List => out.put_u8(REQ_LIST),
        Request::Snapshot => out.put_u8(REQ_SNAPSHOT),
        Request::Drop { key, token } => {
            out.put_u8(REQ_DROP);
            key.pack(out);
            put_token(out, token);
        }
        Request::Ping => out.put_u8(REQ_PING),
        Request::Quit => out.put_u8(REQ_QUIT),
        Request::Tail {
            gen,
            offset,
            max_bytes,
        } => {
            out.put_u8(REQ_TAIL);
            out.put_u64_le(*gen);
            out.put_u64_le(*offset);
            out.put_u32_le(*max_bytes);
        }
        Request::Merge { key } => {
            out.put_u8(REQ_MERGE);
            key.pack(out);
        }
        Request::Metrics => out.put_u8(REQ_METRICS),
        Request::Events { max } => {
            out.put_u8(REQ_EVENTS);
            out.put_u32_le(*max);
        }
    }
}

fn encode_response_payload(resp: &Response, out: &mut BytesMut) {
    match resp {
        Response::Created => out.put_u8(RESP_CREATED),
        Response::Added => out.put_u8(RESP_ADDED),
        Response::AddedBatch(n) => {
            out.put_u8(RESP_ADDED_BATCH);
            out.put_u64_le(*n);
        }
        Response::Rank(r) => {
            out.put_u8(RESP_RANK);
            out.put_u64_le(*r);
        }
        Response::Quantile(q) => {
            out.put_u8(RESP_QUANTILE);
            match q {
                Some(v) => {
                    out.put_u8(1);
                    out.put_u64_le(v.to_bits());
                }
                None => out.put_u8(0),
            }
        }
        Response::Cdf(points) => {
            out.put_u8(RESP_CDF);
            put_f64s(out, points);
        }
        Response::Stats(s) => {
            out.put_u8(RESP_STATS);
            out.put_u64_le(s.n);
            out.put_u64_le(s.retained);
            out.put_u64_le(s.bytes);
            out.put_u32_le(s.k);
            out.put_u32_le(s.shards);
            out.put_u8(s.hra as u8);
            out.put_u8(s.adaptive as u8);
            out.put_u64_le(s.rotation);
            out.put_u64_le(s.snapshot_failures);
            out.put_u64_le(s.wal_poisoned);
            out.put_u64_le(s.shed);
            out.put_u8(s.read_only as u8);
        }
        Response::List(keys) => {
            out.put_u8(RESP_LIST);
            out.put_u32_le(keys.len() as u32);
            for key in keys {
                key.pack(out);
            }
        }
        Response::Snapshot(generation) => {
            out.put_u8(RESP_SNAPSHOT);
            out.put_u64_le(*generation);
        }
        Response::Dropped => out.put_u8(RESP_DROPPED),
        Response::Pong => out.put_u8(RESP_PONG),
        Response::Bye => out.put_u8(RESP_BYE),
        Response::Err { kind, msg } => {
            out.put_u8(RESP_ERR);
            out.put_u8(kind.wire_byte());
            msg.pack(out);
        }
        Response::Tailed(seg) => {
            out.put_u8(RESP_TAILED);
            out.put_u64_le(seg.gen);
            out.put_u64_le(seg.offset);
            out.put_u8(seg.sealed as u8);
            out.put_u64_le(seg.latest_gen);
            put_bytes(out, &seg.frames);
        }
        Response::Merged(parts) => {
            out.put_u8(RESP_MERGED);
            out.put_u32_le(parts.len() as u32);
            for part in parts {
                put_bytes(out, part);
            }
        }
        Response::MetricsText(text) => {
            out.put_u8(RESP_METRICS);
            text.pack(out);
        }
        Response::Events(lines) => {
            out.put_u8(RESP_EVENTS);
            out.put_u32_le(lines.len() as u32);
            for line in lines {
                line.pack(out);
            }
        }
    }
}

/// Append one request as a complete CRC32 frame.
pub fn write_request(out: &mut BytesMut, req: &Request) {
    let mut payload = BytesMut::new();
    encode_request_payload(req, &mut payload);
    write_frame(out, &payload);
}

/// One request as a complete CRC32 frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = BytesMut::new();
    write_request(&mut out, req);
    out.freeze()
}

/// Append one response as a complete CRC32 frame.
pub fn write_response(out: &mut BytesMut, resp: &Response) {
    let mut payload = BytesMut::new();
    encode_response_payload(resp, &mut payload);
    write_frame(out, &payload);
}

/// One response as a complete CRC32 frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::new();
    write_response(&mut out, resp);
    out.freeze()
}

fn finish<T>(value: T, input: &Bytes, what: &str) -> Result<T, ReqError> {
    if input.has_remaining() {
        return Err(ReqError::CorruptBytes(format!(
            "{} trailing bytes after {what}",
            input.remaining()
        )));
    }
    Ok(value)
}

/// Decode one request from a deframed payload (the bytes the frame's CRC
/// covered). Trailing bytes are rejected.
pub fn decode_request(mut payload: Bytes) -> Result<Request, ReqError> {
    let tag = get_u8(&mut payload)?;
    let req = match tag {
        REQ_CREATE => {
            let key = String::unpack(&mut payload)?;
            let config = TenantConfig::decode(&mut payload)?;
            let token = get_token(&mut payload)?;
            Request::Create { key, config, token }
        }
        REQ_ADD => Request::Add {
            key: String::unpack(&mut payload)?,
            value: get_f64(&mut payload)?,
        },
        REQ_ADD_BATCH => Request::AddBatch {
            key: String::unpack(&mut payload)?,
            values: get_f64s(&mut payload)?,
            token: get_token(&mut payload)?,
        },
        REQ_RANK => Request::Rank {
            key: String::unpack(&mut payload)?,
            value: get_f64(&mut payload)?,
        },
        REQ_QUANTILE => Request::Quantile {
            key: String::unpack(&mut payload)?,
            q: get_f64(&mut payload)?,
        },
        REQ_CDF => Request::Cdf {
            key: String::unpack(&mut payload)?,
            points: get_f64s(&mut payload)?,
        },
        REQ_STATS => Request::Stats {
            key: String::unpack(&mut payload)?,
        },
        REQ_LIST => Request::List,
        REQ_SNAPSHOT => Request::Snapshot,
        REQ_DROP => Request::Drop {
            key: String::unpack(&mut payload)?,
            token: get_token(&mut payload)?,
        },
        REQ_PING => Request::Ping,
        REQ_QUIT => Request::Quit,
        REQ_TAIL => Request::Tail {
            gen: get_u64(&mut payload)?,
            offset: get_u64(&mut payload)?,
            max_bytes: get_u32(&mut payload)?,
        },
        REQ_MERGE => Request::Merge {
            key: String::unpack(&mut payload)?,
        },
        REQ_METRICS => Request::Metrics,
        REQ_EVENTS => Request::Events {
            max: get_u32(&mut payload)?,
        },
        other => {
            return Err(ReqError::CorruptBytes(format!(
                "unknown request tag {other}"
            )))
        }
    };
    finish(req, &payload, "request")
}

/// Decode one response from a deframed payload. Trailing bytes are
/// rejected.
pub fn decode_response(mut payload: Bytes) -> Result<Response, ReqError> {
    let tag = get_u8(&mut payload)?;
    let resp = match tag {
        RESP_CREATED => Response::Created,
        RESP_ADDED => Response::Added,
        RESP_ADDED_BATCH => Response::AddedBatch(get_u64(&mut payload)?),
        RESP_RANK => Response::Rank(get_u64(&mut payload)?),
        RESP_QUANTILE => match get_u8(&mut payload)? {
            0 => Response::Quantile(None),
            1 => Response::Quantile(Some(get_f64(&mut payload)?)),
            other => {
                return Err(ReqError::CorruptBytes(format!(
                    "bad quantile presence byte {other}"
                )))
            }
        },
        RESP_CDF => Response::Cdf(get_f64s(&mut payload)?),
        RESP_STATS => Response::Stats(TenantStats {
            n: get_u64(&mut payload)?,
            retained: get_u64(&mut payload)?,
            bytes: get_u64(&mut payload)?,
            k: get_u32(&mut payload)?,
            shards: get_u32(&mut payload)?,
            hra: get_u8(&mut payload)? != 0,
            adaptive: get_u8(&mut payload)? != 0,
            rotation: get_u64(&mut payload)?,
            snapshot_failures: get_u64(&mut payload)?,
            wal_poisoned: get_u64(&mut payload)?,
            shed: get_u64(&mut payload)?,
            read_only: get_u8(&mut payload)? != 0,
        }),
        RESP_LIST => {
            let count = get_u32(&mut payload)? as usize;
            // 4 bytes of length prefix per key must already be present.
            need(&payload, count.saturating_mul(4))?;
            Response::List(
                (0..count)
                    .map(|_| String::unpack(&mut payload))
                    .collect::<Result<_, _>>()?,
            )
        }
        RESP_SNAPSHOT => Response::Snapshot(get_u64(&mut payload)?),
        RESP_DROPPED => Response::Dropped,
        RESP_PONG => Response::Pong,
        RESP_BYE => Response::Bye,
        RESP_ERR => Response::Err {
            kind: ErrorKind::from_wire_byte(get_u8(&mut payload)?)?,
            msg: String::unpack(&mut payload)?,
        },
        RESP_TAILED => Response::Tailed(TailSegment {
            gen: get_u64(&mut payload)?,
            offset: get_u64(&mut payload)?,
            sealed: match get_u8(&mut payload)? {
                0 => false,
                1 => true,
                other => return Err(ReqError::CorruptBytes(format!("bad sealed byte {other}"))),
            },
            latest_gen: get_u64(&mut payload)?,
            frames: get_bytes(&mut payload)?,
        }),
        RESP_MERGED => {
            let count = get_u32(&mut payload)? as usize;
            // 4 bytes of length prefix per part must already be present.
            need(&payload, count.saturating_mul(4))?;
            Response::Merged(
                (0..count)
                    .map(|_| get_bytes(&mut payload))
                    .collect::<Result<_, _>>()?,
            )
        }
        RESP_METRICS => Response::MetricsText(String::unpack(&mut payload)?),
        RESP_EVENTS => {
            let count = get_u32(&mut payload)? as usize;
            // 4 bytes of length prefix per line must already be present.
            need(&payload, count.saturating_mul(4))?;
            Response::Events(
                (0..count)
                    .map(|_| String::unpack(&mut payload))
                    .collect::<Result<_, _>>()?,
            )
        }
        other => {
            return Err(ReqError::CorruptBytes(format!(
                "unknown response tag {other}"
            )))
        }
    };
    finish(resp, &payload, "response")
}

/// Blocking read of one frame from `r`, verifying length bound and CRC.
/// Returns the deframed payload. For event loops, parse incrementally
/// with [`try_deframe`] instead.
pub fn read_frame_blocking<R: Read>(r: &mut R) -> Result<Bytes, ReqError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_MESSAGE_PAYLOAD {
        return Err(ReqError::CorruptBytes(format!(
            "frame payload {len} exceeds {MAX_MESSAGE_PAYLOAD} bytes"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != want_crc {
        return Err(ReqError::CorruptBytes("frame checksum mismatch".into()));
    }
    Ok(Bytes::from(payload))
}

/// Incremental deframing for event loops: inspect `buf[offset..]` for one
/// complete frame.
///
/// * `Ok(None)` — not enough bytes yet; read more and retry.
/// * `Ok(Some((payload, consumed)))` — one verified payload; advance the
///   buffer cursor by `consumed` bytes.
/// * `Err(_)` — the stream is unframeable (oversized length or CRC
///   mismatch); the connection should be torn down.
pub fn try_deframe(buf: &[u8], offset: usize) -> Result<Option<(Bytes, usize)>, ReqError> {
    let avail = &buf[offset..];
    if avail.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(avail[4..8].try_into().unwrap());
    if len > MAX_MESSAGE_PAYLOAD {
        return Err(ReqError::CorruptBytes(format!(
            "frame payload {len} exceeds {MAX_MESSAGE_PAYLOAD} bytes"
        )));
    }
    let Some(payload) = avail.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
        return Ok(None);
    };
    if crc32(payload) != want_crc {
        return Err(ReqError::CorruptBytes("frame checksum mismatch".into()));
    }
    Ok(Some((
        Bytes::copy_from_slice(payload),
        FRAME_HEADER_LEN + len,
    )))
}

impl Codec for Binary {
    fn write_request(out: &mut BytesMut, req: &Request) -> Result<(), ReqError> {
        write_request(out, req);
        Ok(())
    }

    fn read_response<R: BufRead>(r: &mut R, _kind: RequestKind) -> Result<Response, ReqError> {
        decode_response(read_frame_blocking(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use req_core::frame::read_frame;

    fn sample_requests() -> Vec<Request> {
        let token = Some(IdemToken {
            client_id: u64::MAX,
            seq: 3,
        });
        vec![
            Request::Create {
                key: "api.p99".into(),
                config: TenantConfig::parse("api.p99", &["EPS=0.02", "LRA", "SHARDS=2"]).unwrap(),
                token: None,
            },
            Request::Create {
                key: "api.p99".into(),
                config: TenantConfig::parse("api.p99", &["K=16"]).unwrap(),
                token,
            },
            Request::Add {
                key: "k".into(),
                value: f64::NAN, // bit-exact: text can't do this
            },
            Request::AddBatch {
                key: "k".into(),
                values: vec![1.0, -0.0, 1e-300],
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
                points: vec![],
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
                gen: 3,
                offset: u64::MAX,
                max_bytes: 65_536,
            },
            Request::Merge { key: "k".into() },
            Request::Metrics,
            Request::Events { max: 256 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Created,
            Response::Added,
            Response::AddedBatch(u64::MAX),
            Response::Rank(0),
            Response::Quantile(Some(-0.0)),
            Response::Quantile(None),
            Response::Cdf(vec![0.25, 0.5, 1.0]),
            Response::Stats(TenantStats {
                n: 1,
                retained: 2,
                bytes: 3,
                k: 4,
                shards: 5,
                hra: true,
                adaptive: true,
                rotation: 6,
                snapshot_failures: 7,
                wal_poisoned: 8,
                shed: 9,
                read_only: true,
            }),
            Response::List(vec!["a".into(), "b".into()]),
            Response::List(vec![]),
            Response::Snapshot(9),
            Response::Dropped,
            Response::Pong,
            Response::Bye,
            Response::Err {
                kind: ErrorKind::Incompatible,
                msg: "different k".into(),
            },
            Response::Err {
                kind: ErrorKind::Unavailable,
                msg: "read-only".into(),
            },
            Response::Err {
                kind: ErrorKind::Busy,
                msg: "shed".into(),
            },
            Response::Tailed(TailSegment {
                gen: 2,
                offset: 8,
                sealed: true,
                latest_gen: 4,
                frames: vec![0xAB, 0x00, 0xFF],
            }),
            Response::Tailed(TailSegment {
                gen: 0,
                offset: 0,
                sealed: false,
                latest_gen: 0,
                frames: vec![],
            }),
            Response::Merged(vec![vec![1, 2, 3], vec![], vec![0xFE]]),
            Response::Merged(vec![]),
            Response::MetricsText("# TYPE x counter\nx 1\n".into()),
            Response::MetricsText(String::new()),
            Response::Events(vec!["0 +12us wal_healed gen=2".into(), String::new()]),
            Response::Events(vec![]),
        ]
    }

    fn bits_eq(a: &Request, b: &Request) -> bool {
        // PartialEq fails on NaN; compare through the encoding instead.
        encode_request(a) == encode_request(b)
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        for req in sample_requests() {
            let mut framed = encode_request(&req);
            let payload = read_frame(&mut framed).unwrap();
            assert!(framed.is_empty(), "frame fully consumed");
            let back = decode_request(payload).unwrap();
            assert!(bits_eq(&req, &back), "{req:?} != {back:?}");
        }
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        for resp in sample_responses() {
            let mut framed = encode_response(&resp);
            let payload = read_frame(&mut framed).unwrap();
            let back = decode_response(payload).unwrap();
            assert_eq!(encode_response(&back), encode_response(&resp));
        }
    }

    #[test]
    fn tail_reply_envelope_matches_the_encoding() {
        let mut framed = encode_response(&Response::Tailed(TailSegment {
            gen: 1,
            offset: 8,
            sealed: false,
            latest_gen: 1,
            frames: vec![7; 5],
        }));
        let payload = read_frame(&mut framed).unwrap();
        assert_eq!(payload.len(), TAIL_REPLY_ENVELOPE + 5);
    }

    #[test]
    fn pipelined_frames_deframe_incrementally() {
        let reqs = sample_requests();
        let mut wire = BytesMut::new();
        for req in &reqs {
            write_request(&mut wire, req);
        }
        let wire = wire.freeze();
        // Feed the stream byte-by-byte: every prefix either yields the
        // next complete frame or asks for more bytes — never an error.
        let mut offset = 0;
        let mut decoded = Vec::new();
        for end in 0..=wire.len() {
            while let Some((payload, used)) = try_deframe(&wire[..end], offset).unwrap() {
                decoded.push(decode_request(payload).unwrap());
                offset += used;
            }
        }
        assert_eq!(decoded.len(), reqs.len());
        for (a, b) in reqs.iter().zip(&decoded) {
            assert!(bits_eq(a, b));
        }
    }

    #[test]
    fn corruption_is_caught() {
        // Flip one payload byte: CRC mismatch.
        let mut framed = encode_request(&Request::Ping).to_vec();
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(
            try_deframe(&framed, 0),
            Err(ReqError::CorruptBytes(_))
        ));
        // Oversized declared length: rejected before allocation.
        let mut huge = ((MAX_MESSAGE_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]);
        assert!(try_deframe(&huge, 0).is_err());
        // Valid frame, garbage payload: decode-level corrupt error.
        let framed = req_core::frame::frame(&[0xEE, 0xEE]);
        let mut framed_bytes = framed.clone();
        let payload = read_frame(&mut framed_bytes).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ReqError::CorruptBytes(_))
        ));
        // Trailing bytes after a valid message: rejected.
        let mut padded = BytesMut::new();
        padded.put_u8(11); // REQ_PING
        padded.put_u8(0xFF);
        assert!(matches!(
            decode_request(padded.freeze()),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn truncated_payloads_never_panic() {
        // Every strict prefix of every encoded payload must decode to a
        // clean error (not a panic, not a bogus success).
        for req in sample_requests() {
            let mut framed = encode_request(&req);
            let payload = read_frame(&mut framed).unwrap();
            for cut in 0..payload.len() {
                let prefix = Bytes::copy_from_slice(&payload[..cut]);
                assert!(decode_request(prefix).is_err(), "{req:?} cut at {cut}");
            }
        }
        for resp in sample_responses() {
            let mut framed = encode_response(&resp);
            let payload = read_frame(&mut framed).unwrap();
            for cut in 0..payload.len() {
                let prefix = Bytes::copy_from_slice(&payload[..cut]);
                assert!(decode_response(prefix).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }
}
