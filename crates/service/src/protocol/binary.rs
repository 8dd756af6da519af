//! Binary codec — tagged payloads inside [`req_core::frame`] CRC32 frames.
//!
//! Every message is one frame whose payload is a one-byte message tag,
//! then the message's fields, each in its [`Packable`] layout (see
//! [`req_core::binary`] for the shared rules: little-endian, `f64` as raw
//! bits, `u32`-counted vectors and strings, 0/1 presence and bool bytes).
//! The [`packable_enum!`] tables below give every tag of [`Request`],
//! [`Response`] and [`ErrorKind`] with its variant and the order of its
//! fields; nothing in this module reads or writes a byte any other way.
//!
//! A new message takes a tag no table has used, so every other message
//! keeps its bytes. A retired message's tag decodes as unknown and is
//! never reused: 2 (`ADD` and its reply), request 14 and response 15 (the
//! unversioned `MERGE` and its reply).
//!
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
use req_core::{packable_enum, packable_struct, ReqError};
use std::io::Read;

use super::{ChangedShards, ErrorKind, Request, Response, ShardVersions, TailSegment};
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

packable_enum!(ErrorKind, "error kind" {
    1 => Invalid,
    2 => Incompatible,
    3 => Corrupt,
    4 => Io,
    5 => Unavailable,
    6 => Busy,
});

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

packable_enum!(Request, "request" {
    1 => Create { key, config, token },
    3 => AddBatch { key, values, token },
    4 => Rank { key, value },
    5 => Quantile { key, q },
    6 => Cdf { key, points },
    7 => Stats { key },
    8 => List,
    9 => Snapshot,
    10 => Drop { key, token },
    11 => Ping,
    12 => Quit,
    13 => Tail { gen, offset, max_bytes },
    15 => Metrics,
    16 => Events { max },
    17 => MergeSince { key, held },
});

packable_enum!(Response, "response" {
    1 => Created,
    3 => AddedBatch(n),
    4 => Rank(rank),
    5 => Quantile(q),
    6 => Cdf(ranks),
    7 => Stats(stats),
    8 => List(keys),
    9 => Snapshot(gen),
    10 => Dropped,
    11 => Pong,
    12 => Bye,
    13 => Err { kind, msg },
    14 => Tailed(segment),
    16 => MetricsText(text),
    17 => Events(lines),
    18 => MergedSince(changed),
});

/// Append one request to `out` as a complete CRC32 frame, encoded in
/// place.
pub fn write_request(out: &mut BytesMut, req: &Request) {
    write_frame(out, |out| req.pack(out));
}

/// One request as a complete CRC32 frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = BytesMut::new();
    write_request(&mut out, req);
    out.freeze()
}

/// Append one response to `out` as a complete CRC32 frame, encoded in
/// place.
pub fn write_response(out: &mut BytesMut, resp: &Response) {
    write_frame(out, |out| resp.pack(out));
}

/// One response as a complete CRC32 frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::new();
    write_response(&mut out, resp);
    out.freeze()
}

/// Decode one request from a deframed payload (the bytes the frame's CRC
/// covered). Trailing bytes are rejected.
pub fn decode_request(payload: impl AsRef<[u8]>) -> Result<Request, ReqError> {
    unpack_whole(payload.as_ref(), Request::unpack)
}

/// Decode one response from a deframed payload. Trailing bytes are
/// rejected.
pub fn decode_response(payload: impl AsRef<[u8]>) -> Result<Response, ReqError> {
    unpack_whole(payload.as_ref(), Response::unpack)
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
/// * `Ok(Some((payload, consumed)))` — one verified payload, borrowed from
///   `buf`; advance the buffer cursor by `consumed` bytes.
/// * `Err(_)` — the stream is unframeable (oversized length or CRC
///   mismatch); the connection should be torn down.
pub fn try_deframe(buf: &[u8], offset: usize) -> Result<Option<(&[u8], usize)>, ReqError> {
    Ok(try_frame(&buf[offset..], MAX_MESSAGE_PAYLOAD)?
        .map(|payload| (payload, FRAME_HEADER_LEN + payload.len())))
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
            Request::AddBatch {
                key: "k".into(),
                // NaN is bit-exact: text can't do this.
                values: vec![1.0, -0.0, 1e-300, f64::NAN],
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
            let framed = encode_request(&req);
            let mut framed = &framed[..];
            let payload = read_frame(&mut framed).unwrap();
            assert!(framed.is_empty(), "frame fully consumed");
            let back = decode_request(payload).unwrap();
            assert!(bits_eq(&req, &back), "{req:?} != {back:?}");
        }
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        for resp in sample_responses() {
            let framed = encode_response(&resp);
            let payload = read_frame(&mut &framed[..]).unwrap();
            let back = decode_response(payload).unwrap();
            assert_eq!(encode_response(&back), encode_response(&resp));
        }
    }

    #[test]
    fn tail_reply_envelope_matches_the_encoding() {
        let framed = encode_response(&Response::Tailed(TailSegment {
            gen: 1,
            offset: 8,
            sealed: false,
            latest_gen: 1,
            frames: vec![7; 5],
        }));
        let payload = read_frame(&mut &framed[..]).unwrap();
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
        let mut framed = BytesMut::new();
        write_frame(&mut framed, |out| out.put_slice(&[0xEE, 0xEE]));
        let payload = read_frame(&mut &framed[..]).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ReqError::CorruptBytes(_))
        ));
        // Trailing bytes after a valid message: rejected.
        let mut padded = BytesMut::new();
        padded.put_u8(11); // PING
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
        let payload = read_frame(&mut &encode_response(&stats)[..])
            .unwrap()
            .to_vec();
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
    fn retired_merge_tags_decode_as_unknown() {
        // The frames the retired messages were pinned to: the unversioned
        // `MERGE k` and its reply of parts `[1, 2, 3]`, `[]`, `[0xFE]`;
        // `ADD k` of a NaN and its reply.
        let unhex = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let requests = [
            ("06000000b351c86c0e010000006b", 14),
            ("0e000000f0394b7e02010000006b0100efbeaddef8ff", 2),
        ];
        let responses = [
            (
                "150000009b0bebc40f03000000030000000102030000000001000000fe",
                15,
            ),
            ("01000000a18e0c3c02", 2),
        ];
        let payload = |hex: &str, tag: u8| {
            let framed = unhex(hex);
            let (payload, used) = try_deframe(&framed, 0).unwrap().unwrap();
            assert_eq!((payload[0], used), (tag, framed.len()));
            payload.to_vec()
        };
        for (hex, tag) in requests {
            assert!(matches!(
                decode_request(payload(hex, tag)),
                Err(ReqError::CorruptBytes(msg)) if msg == format!("unknown request tag {tag}")
            ));
        }
        for (hex, tag) in responses {
            assert!(matches!(
                decode_response(payload(hex, tag)),
                Err(ReqError::CorruptBytes(msg)) if msg == format!("unknown response tag {tag}")
            ));
        }
    }

    #[test]
    fn truncated_payloads_never_panic() {
        // Every strict prefix of every encoded payload must decode to a
        // clean error (not a panic, not a bogus success).
        for req in sample_requests() {
            let framed = encode_request(&req);
            let payload = read_frame(&mut &framed[..]).unwrap();
            for cut in 0..payload.len() {
                let prefix = Bytes::copy_from_slice(&payload[..cut]);
                assert!(decode_request(prefix).is_err(), "{req:?} cut at {cut}");
            }
        }
        for resp in sample_responses() {
            let framed = encode_response(&resp);
            let payload = read_frame(&mut &framed[..]).unwrap();
            for cut in 0..payload.len() {
                let prefix = Bytes::copy_from_slice(&payload[..cut]);
                assert!(decode_response(prefix).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }
}
