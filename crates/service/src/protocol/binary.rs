//! Binary codec — tagged payloads inside [`req_core::frame`] CRC32 frames.
//!
//! Every message is one frame whose payload is a one-byte message tag,
//! then the message's fields in declaration order, each in its
//! [`Packable`] layout (see [`req_core::binary`] for the shared rules:
//! little-endian, `f64` as raw bits, `u32`-counted vectors and strings,
//! 0/1 presence and bool bytes). Nothing in this module reads or writes a
//! byte any other way.
//!
//! Request tags count `1..=17` in [`Request`] declaration order;
//! response tags count `1..=18` in [`Response`] declaration order
//! ([`Response::Err`] is tag 13, carrying an [`ErrorKind`] byte plus the
//! message; the cluster-layer `Tailed`/`Merged` replies are 14/15, the
//! telemetry `MetricsText`/`Events` replies are 16/17, and the versioned
//! `MergedSince` reply is 18). A new message only ever takes the next tag,
//! so every earlier message keeps its bytes.
//! Unlike the [`text`](super::text) codec, responses are
//! self-describing — no request context is needed to decode them, which
//! is what makes deep pipelining tractable.
//!
//! A frame that fails the CRC or length check is a *transport* fault
//! (the connection is torn down); a frame that deframes cleanly but
//! decodes to garbage is a *request* fault (the server answers with a
//! typed [`Response::Err`] and keeps the connection).

use bytes::{Bytes, BytesMut};
use req_core::binary::{unpack_whole, Packable};
use req_core::frame::{try_frame, write_frame, FrameHeader, FRAME_HEADER_LEN};
use req_core::{packable_struct, ReqError};
use std::io::{BufRead, Read};

use super::{
    Binary, ChangedShards, Codec, ErrorKind, Request, RequestKind, Response, ShardVersions,
    TailSegment,
};
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
const REQ_MERGE_SINCE: u8 = 17;

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
const RESP_MERGED_SINCE: u8 = 18;

/// Error kinds on the wire: byte `i + 1` is `ERROR_KINDS[i]`.
const ERROR_KINDS: [ErrorKind; 6] = [
    ErrorKind::Invalid,
    ErrorKind::Incompatible,
    ErrorKind::Corrupt,
    ErrorKind::Io,
    ErrorKind::Unavailable,
    ErrorKind::Busy,
];

impl Packable for ErrorKind {
    fn pack(&self, out: &mut BytesMut) {
        let at = ERROR_KINDS
            .iter()
            .position(|k| k == self)
            .expect("every kind is listed");
        (at as u8 + 1).pack(out);
    }

    fn unpack(input: &mut Bytes) -> Result<Self, ReqError> {
        let byte = u8::unpack(input)?;
        let kind = ERROR_KINDS.get(usize::from(byte).wrapping_sub(1)).copied();
        kind.ok_or_else(|| ReqError::CorruptBytes(format!("unknown error kind byte {byte}")))
    }
}

packable_struct!(TenantStats {
    n,
    retained,
    bytes,
    k,
    shards,
    hra,
    adaptive,
    rotation,
    snapshot_failures,
    wal_poisoned,
    shed,
    read_only,
});

// `TAIL_REPLY_ENVELOPE` counts this layout around `frames`.
packable_struct!(TailSegment {
    gen,
    offset,
    sealed,
    latest_gen,
    frames,
});

packable_struct!(ShardVersions {
    incarnation,
    instance,
    epochs,
});

packable_struct!(ChangedShards {
    incarnation,
    instance,
    parts,
});

fn encode_request_payload(req: &Request, out: &mut BytesMut) {
    match req {
        Request::Create { key, config, token } => {
            REQ_CREATE.pack(out);
            key.pack(out);
            config.pack(out);
            token.pack(out);
        }
        Request::Add { key, value } => {
            REQ_ADD.pack(out);
            key.pack(out);
            value.pack(out);
        }
        Request::AddBatch { key, values, token } => {
            REQ_ADD_BATCH.pack(out);
            key.pack(out);
            values.pack(out);
            token.pack(out);
        }
        Request::Rank { key, value } => {
            REQ_RANK.pack(out);
            key.pack(out);
            value.pack(out);
        }
        Request::Quantile { key, q } => {
            REQ_QUANTILE.pack(out);
            key.pack(out);
            q.pack(out);
        }
        Request::Cdf { key, points } => {
            REQ_CDF.pack(out);
            key.pack(out);
            points.pack(out);
        }
        Request::Stats { key } => {
            REQ_STATS.pack(out);
            key.pack(out);
        }
        Request::List => REQ_LIST.pack(out),
        Request::Snapshot => REQ_SNAPSHOT.pack(out),
        Request::Drop { key, token } => {
            REQ_DROP.pack(out);
            key.pack(out);
            token.pack(out);
        }
        Request::Ping => REQ_PING.pack(out),
        Request::Quit => REQ_QUIT.pack(out),
        Request::Tail {
            gen,
            offset,
            max_bytes,
        } => {
            REQ_TAIL.pack(out);
            gen.pack(out);
            offset.pack(out);
            max_bytes.pack(out);
        }
        Request::Merge { key } => {
            REQ_MERGE.pack(out);
            key.pack(out);
        }
        Request::Metrics => REQ_METRICS.pack(out),
        Request::Events { max } => {
            REQ_EVENTS.pack(out);
            max.pack(out);
        }
        Request::MergeSince { key, held } => {
            REQ_MERGE_SINCE.pack(out);
            key.pack(out);
            held.pack(out);
        }
    }
}

fn encode_response_payload(resp: &Response, out: &mut BytesMut) {
    match resp {
        Response::Created => RESP_CREATED.pack(out),
        Response::Added => RESP_ADDED.pack(out),
        Response::AddedBatch(n) => {
            RESP_ADDED_BATCH.pack(out);
            n.pack(out);
        }
        Response::Rank(r) => {
            RESP_RANK.pack(out);
            r.pack(out);
        }
        Response::Quantile(q) => {
            RESP_QUANTILE.pack(out);
            q.pack(out);
        }
        Response::Cdf(points) => {
            RESP_CDF.pack(out);
            points.pack(out);
        }
        Response::Stats(s) => {
            RESP_STATS.pack(out);
            s.pack(out);
        }
        Response::List(keys) => {
            RESP_LIST.pack(out);
            keys.pack(out);
        }
        Response::Snapshot(generation) => {
            RESP_SNAPSHOT.pack(out);
            generation.pack(out);
        }
        Response::Dropped => RESP_DROPPED.pack(out),
        Response::Pong => RESP_PONG.pack(out),
        Response::Bye => RESP_BYE.pack(out),
        Response::Err { kind, msg } => {
            RESP_ERR.pack(out);
            kind.pack(out);
            msg.pack(out);
        }
        Response::Tailed(seg) => {
            RESP_TAILED.pack(out);
            seg.pack(out);
        }
        Response::Merged(parts) => {
            RESP_MERGED.pack(out);
            parts.pack(out);
        }
        Response::MetricsText(text) => {
            RESP_METRICS.pack(out);
            text.pack(out);
        }
        Response::Events(lines) => {
            RESP_EVENTS.pack(out);
            lines.pack(out);
        }
        Response::MergedSince(changed) => {
            RESP_MERGED_SINCE.pack(out);
            changed.pack(out);
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

/// Decode one request from a deframed payload (the bytes the frame's CRC
/// covered). Trailing bytes are rejected.
pub fn decode_request(payload: Bytes) -> Result<Request, ReqError> {
    unpack_whole(payload, |input| {
        Ok(match u8::unpack(input)? {
            REQ_CREATE => Request::Create {
                key: Packable::unpack(input)?,
                config: Packable::unpack(input)?,
                token: Packable::unpack(input)?,
            },
            REQ_ADD => Request::Add {
                key: Packable::unpack(input)?,
                value: Packable::unpack(input)?,
            },
            REQ_ADD_BATCH => Request::AddBatch {
                key: Packable::unpack(input)?,
                values: Packable::unpack(input)?,
                token: Packable::unpack(input)?,
            },
            REQ_RANK => Request::Rank {
                key: Packable::unpack(input)?,
                value: Packable::unpack(input)?,
            },
            REQ_QUANTILE => Request::Quantile {
                key: Packable::unpack(input)?,
                q: Packable::unpack(input)?,
            },
            REQ_CDF => Request::Cdf {
                key: Packable::unpack(input)?,
                points: Packable::unpack(input)?,
            },
            REQ_STATS => Request::Stats {
                key: Packable::unpack(input)?,
            },
            REQ_LIST => Request::List,
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_DROP => Request::Drop {
                key: Packable::unpack(input)?,
                token: Packable::unpack(input)?,
            },
            REQ_PING => Request::Ping,
            REQ_QUIT => Request::Quit,
            REQ_TAIL => Request::Tail {
                gen: Packable::unpack(input)?,
                offset: Packable::unpack(input)?,
                max_bytes: Packable::unpack(input)?,
            },
            REQ_MERGE => Request::Merge {
                key: Packable::unpack(input)?,
            },
            REQ_METRICS => Request::Metrics,
            REQ_EVENTS => Request::Events {
                max: Packable::unpack(input)?,
            },
            REQ_MERGE_SINCE => Request::MergeSince {
                key: Packable::unpack(input)?,
                held: Packable::unpack(input)?,
            },
            other => {
                return Err(ReqError::CorruptBytes(format!(
                    "unknown request tag {other}"
                )))
            }
        })
    })
}

/// Decode one response from a deframed payload. Trailing bytes are
/// rejected.
pub fn decode_response(payload: Bytes) -> Result<Response, ReqError> {
    unpack_whole(payload, |input| {
        Ok(match u8::unpack(input)? {
            RESP_CREATED => Response::Created,
            RESP_ADDED => Response::Added,
            RESP_ADDED_BATCH => Response::AddedBatch(Packable::unpack(input)?),
            RESP_RANK => Response::Rank(Packable::unpack(input)?),
            RESP_QUANTILE => Response::Quantile(Packable::unpack(input)?),
            RESP_CDF => Response::Cdf(Packable::unpack(input)?),
            RESP_STATS => Response::Stats(Packable::unpack(input)?),
            RESP_LIST => Response::List(Packable::unpack(input)?),
            RESP_SNAPSHOT => Response::Snapshot(Packable::unpack(input)?),
            RESP_DROPPED => Response::Dropped,
            RESP_PONG => Response::Pong,
            RESP_BYE => Response::Bye,
            RESP_ERR => Response::Err {
                kind: Packable::unpack(input)?,
                msg: Packable::unpack(input)?,
            },
            RESP_TAILED => Response::Tailed(Packable::unpack(input)?),
            RESP_MERGED => Response::Merged(Packable::unpack(input)?),
            RESP_METRICS => Response::MetricsText(Packable::unpack(input)?),
            RESP_EVENTS => Response::Events(Packable::unpack(input)?),
            RESP_MERGED_SINCE => Response::MergedSince(Packable::unpack(input)?),
            other => {
                return Err(ReqError::CorruptBytes(format!(
                    "unknown response tag {other}"
                )))
            }
        })
    })
}

/// Blocking read of one frame from `r`, verifying length bound and CRC.
/// Returns the deframed payload. For event loops, parse incrementally
/// with [`try_deframe`] instead.
pub fn read_frame_blocking<R: Read>(r: &mut R) -> Result<Bytes, ReqError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head)?;
    let header = FrameHeader::parse(&head, MAX_MESSAGE_PAYLOAD)?.expect("a whole header");
    let mut payload = vec![0u8; header.len];
    r.read_exact(&mut payload)?;
    header.verify(&payload)?;
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
    Ok(
        try_frame(&buf[offset..], MAX_MESSAGE_PAYLOAD)?.map(|payload| {
            (
                Bytes::copy_from_slice(payload),
                FRAME_HEADER_LEN + payload.len(),
            )
        }),
    )
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
    use crate::config::TenantConfig;
    use crate::protocol::IdemToken;
    use bytes::BufMut;
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
            Request::MergeSince {
                key: "k".into(),
                held: None,
            },
            Request::MergeSince {
                key: "k".into(),
                held: Some(ShardVersions {
                    incarnation: u64::MAX,
                    instance: 2,
                    epochs: vec![0, 7, u64::MAX],
                }),
            },
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
            Response::MergedSince(ChangedShards {
                incarnation: 9,
                instance: u64::MAX,
                parts: vec![
                    (3, Some(vec![1, 2, 3])),
                    (0, None),
                    (u64::MAX, Some(vec![])),
                ],
            }),
            Response::MergedSince(ChangedShards {
                incarnation: 0,
                instance: 0,
                parts: vec![],
            }),
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
        // A STATS reply's flags are bools: any byte but 0/1 is corrupt.
        let stats = sample_responses()
            .into_iter()
            .find(|r| matches!(r, Response::Stats(_)))
            .unwrap();
        let payload = read_frame(&mut encode_response(&stats)).unwrap().to_vec();
        // tag, n, retained, bytes, k, shards | hra, adaptive | rotation,
        // snapshot_failures, wal_poisoned, shed | read_only
        for at in [33, 34, 35 + 32] {
            assert_eq!(payload[at], 1, "flag byte at {at}");
            let mut bad = payload.clone();
            bad[at] = 2;
            assert!(
                matches!(
                    decode_response(Bytes::from(bad)),
                    Err(ReqError::CorruptBytes(_))
                ),
                "STATS flag byte 2 at {at} accepted"
            );
        }
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
