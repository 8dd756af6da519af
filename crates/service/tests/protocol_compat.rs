//! Property tests over the wire protocol: every [`Request`] and
//! [`Response`] the type system can express round-trips losslessly
//! through BOTH codecs (text lines and CRC-framed binary), and the two
//! codecs agree on what a message means.
//!
//! Scope notes baked into the generators:
//! * Keys are printable ASCII without spaces/quotes/backslashes — the
//!   registry's own key grammar, which is also what keeps the text
//!   protocol's whitespace-splitting unambiguous.
//! * `NaN` is excluded here (its text form drops the sign/payload bits);
//!   the binary codec's unit tests pin down bit-exact NaN transport.
//! * `AddBatch`/`Cdf` carry at least one value: the text protocol
//!   rejects empty payloads as malformed, by design.

use proptest::collection::vec;
use proptest::prelude::*;
use req_service::protocol::{binary, text};
use req_service::{
    Accuracy, ChangedShards, ErrorKind, IdemToken, Request, RequestKind, Response, ShardVersions,
    TenantConfig, TenantStats,
};

/// Key charset: a slice of the registry's legal alphabet.
fn mk_key(seed: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    let len = 1 + (seed % 16) as usize;
    let mut s = String::new();
    let mut x = seed | 1;
    for _ in 0..len {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        s.push(ALPHABET[(x % ALPHABET.len() as u64) as usize] as char);
    }
    s
}

/// Any f64 except NaN: reinterpret the bits, diverting NaNs to a large
/// finite value so infinities and both zeros stay reachable.
fn mk_f64(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_nan() {
        (bits >> 11) as f64
    } else {
        v
    }
}

fn mk_f64s(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| mk_f64(b)).collect()
}

/// Printable single-line message without edge whitespace (the text codec
/// hands back "rest of line", so padding cannot survive).
fn mk_msg(words: &[u64]) -> String {
    let s: String = words
        .iter()
        .map(|&w| char::from(0x20 + (w % 0x5f) as u8))
        .collect();
    s.trim().to_string()
}

fn mk_kind(choice: u64) -> ErrorKind {
    match choice % 6 {
        0 => ErrorKind::Invalid,
        1 => ErrorKind::Incompatible,
        2 => ErrorKind::Corrupt,
        3 => ErrorKind::Unavailable,
        4 => ErrorKind::Busy,
        _ => ErrorKind::Io,
    }
}

/// Roughly a third of mutations carry an idempotency token.
fn mk_token(seed: u64) -> Option<IdemToken> {
    (seed.is_multiple_of(3)).then_some(IdemToken {
        client_id: seed.rotate_left(17),
        seq: seed % 1_000,
    })
}

/// A buildable tenant configuration (the text decoder validates
/// eagerly, so draws must satisfy the sketch's parameter rules).
fn mk_config(acc_choice: u64, knob: f64, shards: u32, seed: u64) -> TenantConfig {
    TenantConfig {
        accuracy: if acc_choice.is_multiple_of(2) {
            Accuracy::K(4 + 2 * (acc_choice % 31) as u32)
        } else {
            Accuracy::EpsDelta(0.005 + knob * 0.09, 0.01 + knob * 0.2)
        },
        hra: acc_choice.rotate_left(13).is_multiple_of(2),
        schedule: if acc_choice.rotate_left(27).is_multiple_of(2) {
            req_core::CompactionSchedule::Adaptive
        } else {
            req_core::CompactionSchedule::Standard
        },
        shards: 1 + shards % 16,
        seed,
    }
}

fn mk_request(variant: u64, key_seed: u64, bits: &[u64], knob: f64) -> Request {
    let key = mk_key(key_seed);
    let at = |i: usize| bits.get(i).copied().unwrap_or(i as u64);
    let value = mk_f64(at(0));
    match variant % 17 {
        0 => Request::Create {
            key,
            config: mk_config(at(0), knob, at(1) as u32, at(2)),
            token: mk_token(at(3)),
        },
        1 => Request::Add { key, value },
        2 => Request::AddBatch {
            key,
            values: mk_f64s(bits),
            token: mk_token(at(1).rotate_left(7)),
        },
        3 => Request::Rank { key, value },
        4 => Request::Quantile { key, q: knob },
        5 => Request::Cdf {
            key,
            points: mk_f64s(bits),
        },
        6 => Request::Stats { key },
        7 => Request::List,
        8 => Request::Snapshot,
        9 => Request::Drop {
            key,
            token: mk_token(at(2).rotate_left(31)),
        },
        10 => Request::Ping,
        11 => Request::Quit,
        12 => Request::Tail {
            gen: at(0),
            offset: at(1),
            max_bytes: at(2) as u32,
        },
        13 => Request::Merge { key },
        14 => Request::Metrics,
        15 => Request::Events { max: at(0) as u32 },
        _ => Request::MergeSince {
            key,
            held: at(1).is_multiple_of(3).then(|| mk_versions(bits)),
        },
    }
}

/// Held shard versions: any incarnation, instance and epochs.
fn mk_versions(words: &[u64]) -> ShardVersions {
    ShardVersions {
        incarnation: words[0].rotate_left(5),
        instance: words[0].rotate_left(29),
        epochs: words[1..]
            .iter()
            .take(words[0] as usize % 9)
            .copied()
            .collect(),
    }
}

/// Arbitrary binary blob (hex-encoded on the text wire).
fn mk_blob(words: &[u64]) -> Vec<u8> {
    words.iter().map(|&w| (w % 256) as u8).collect()
}

fn mk_stats(words: &[u64]) -> TenantStats {
    TenantStats {
        n: words[0],
        retained: words[1],
        bytes: words[2],
        k: words[3] as u32,
        shards: words[4] as u32,
        hra: words[5].is_multiple_of(2),
        adaptive: words[6].is_multiple_of(2),
        rotation: words[7],
        snapshot_failures: words[0].rotate_left(9),
        wal_poisoned: words[1].rotate_left(23),
        shed: words[2].rotate_left(41),
        read_only: words[3].is_multiple_of(2),
    }
}

/// Arbitrary (possibly multi-line) exposition-style text: the telemetry
/// replies are the one place the wire carries newlines, which the text
/// codec must hex-armor onto a single line.
fn mk_text(words: &[u64]) -> String {
    let mut out = String::new();
    for (i, &w) in words.iter().enumerate() {
        out.push(char::from(0x20 + (w % 0x5f) as u8));
        if i % 7 == 3 {
            out.push('\n');
        }
    }
    out
}

fn mk_response(variant: u64, _key_seed: u64, bits: &[u64]) -> Response {
    match variant % 18 {
        0 => Response::Created,
        1 => Response::Added,
        2 => Response::AddedBatch(bits[0]),
        3 => Response::Rank(bits[0]),
        4 => Response::Quantile(if bits[0].is_multiple_of(4) {
            None
        } else {
            Some(mk_f64(bits[1]))
        }),
        5 => Response::Cdf(mk_f64s(&bits[..bits.len() % 8])),
        6 => Response::Stats(mk_stats(bits)),
        7 => Response::List((0..bits[0] % 8).map(|i| mk_key(bits[i as usize])).collect()),
        8 => Response::Snapshot(bits[0]),
        9 => Response::Dropped,
        10 => Response::Pong,
        11 => Response::Bye,
        12 => Response::Err {
            kind: mk_kind(bits[0]),
            msg: mk_msg(&bits[..bits.len() % 40]),
        },
        13 => Response::Tailed(req_service::TailSegment {
            gen: bits[0],
            offset: bits[0].rotate_left(19),
            sealed: bits[0].is_multiple_of(2),
            latest_gen: bits[0].rotate_left(37),
            frames: mk_blob(&bits[..bits.len() % 24]),
        }),
        14 => Response::Merged(
            bits.chunks(5)
                .take(bits[0] as usize % 4)
                .map(mk_blob)
                .collect(),
        ),
        15 => Response::MetricsText(mk_text(&bits[..bits.len() % 40])),
        16 => Response::Events(
            bits.chunks(6)
                .take(bits[0] as usize % 5)
                .map(mk_text)
                .collect(),
        ),
        _ => Response::MergedSince(ChangedShards {
            incarnation: bits[1],
            instance: bits[2],
            parts: bits
                .chunks(5)
                .take(bits[0] as usize % 5)
                .map(|words| (words[0], words[0].is_multiple_of(3).then(|| mk_blob(words))))
                .collect(),
        }),
    }
}

/// The request kind a response answers — text decoding is positional, so
/// the decoder needs this context.
fn kind_for(resp: &Response) -> RequestKind {
    match resp {
        Response::Created => RequestKind::Create,
        Response::Added => RequestKind::Add,
        Response::AddedBatch(_) => RequestKind::AddBatch,
        Response::Rank(_) => RequestKind::Rank,
        Response::Quantile(_) => RequestKind::Quantile,
        Response::Cdf(_) => RequestKind::Cdf,
        Response::Stats(_) => RequestKind::Stats,
        Response::List(_) => RequestKind::List,
        Response::Snapshot(_) => RequestKind::Snapshot,
        Response::Dropped => RequestKind::Drop,
        Response::Pong => RequestKind::Ping,
        Response::Bye => RequestKind::Quit,
        Response::Tailed(_) => RequestKind::Tail,
        Response::Merged(_) => RequestKind::Merge,
        Response::MetricsText(_) => RequestKind::Metrics,
        Response::Events(_) => RequestKind::Events,
        Response::MergedSince(_) => RequestKind::MergeSince,
        // An error can answer anything; Ping exercises the strictest arm.
        Response::Err { .. } => RequestKind::Ping,
    }
}

fn deframe(framed: bytes::Bytes) -> bytes::Bytes {
    let (payload, used) = binary::try_deframe(&framed, 0)
        .expect("self-produced frame must verify")
        .expect("self-produced frame must be complete");
    assert_eq!(used, framed.len(), "no trailing bytes in one frame");
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_request_roundtrips_both_codecs(
        variant in any::<u64>(),
        key_seed in any::<u64>(),
        bits in vec(any::<u64>(), 1..40),
        knob in 0.0f64..1.0,
    ) {
        let req = mk_request(variant, key_seed, &bits, knob);

        let line = text::encode_request(&req);
        let via_text = text::decode_request(&line)
            .unwrap_or_else(|e| panic!("own text `{line}` must parse: {e:?}"));
        prop_assert_eq!(&via_text, &req);

        let framed = binary::encode_request(&req);
        let via_binary = binary::decode_request(deframe(framed)).expect("own frame must decode");
        prop_assert_eq!(&via_binary, &req);

        // Cross-codec agreement: a server cannot behave differently based
        // on which transport carried the command.
        prop_assert_eq!(&via_text, &via_binary);
    }

    #[test]
    fn every_response_roundtrips_both_codecs(
        variant in any::<u64>(),
        key_seed in any::<u64>(),
        bits in vec(any::<u64>(), 8..48),
    ) {
        let resp = mk_response(variant, key_seed, &bits);

        let line = text::encode_response(&resp);
        let via_text = text::decode_response(&line, kind_for(&resp))
            .unwrap_or_else(|e| panic!("own text `{line}` must parse: {e:?}"));
        prop_assert_eq!(&via_text, &resp);

        let framed = binary::encode_response(&resp);
        let via_binary = binary::decode_response(deframe(framed)).expect("own frame must decode");
        prop_assert_eq!(&via_binary, &resp);

        prop_assert_eq!(&via_text, &via_binary);
    }

    /// Error kinds survive both codecs and map back to the same
    /// [`req_core::ReqError`] variant either way.
    #[test]
    fn error_kinds_agree_across_codecs(
        choice in any::<u64>(),
        words in vec(any::<u64>(), 0..48),
    ) {
        let kind = mk_kind(choice);
        let resp = Response::Err { kind, msg: mk_msg(&words) };
        let t = text::decode_response(&text::encode_response(&resp), RequestKind::Ping).unwrap();
        let b = binary::decode_response(deframe(binary::encode_response(&resp))).unwrap();
        prop_assert_eq!(&t, &b);
        let (te, be) = (t.into_result().unwrap_err(), b.into_result().unwrap_err());
        prop_assert_eq!(ErrorKind::from(&te), kind);
        prop_assert_eq!(ErrorKind::from(&be), kind);
    }
}
