//! Decode sweep over the service's binary formats: whatever decodes
//! re-encodes to the bytes it came from.
//!
//! Inputs: the payload of every binary [`Request`] and [`Response`]
//! sample (both [`TenantConfig`] forms inside `CREATE`), every
//! [`WalRecord`] kind with and without a token, and one snapshot file
//! with two tenants and a dedup table. Every byte of each is mutated six
//! ways (+1, −1, ^0x80, 0x00, 0xFF, ^0x01). Each mutated input must either
//! fail with [`ReqError::CorruptBytes`] or decode to a value whose
//! encoding is exactly the mutated input.
//!
//! Snapshot payload bytes are mutated with their frame's CRC recomputed,
//! so the decoder behind the checksum sees them; bytes outside payloads
//! (magic, frame headers) are mutated as they are.
//!
//! The frames of a `TAIL` reply (`CREATE`, `ADDB` and `DROP` records, with
//! and without tokens) are mutated the same way and fed to
//! [`QuantileService::replicate_frames`] on a fresh follower. A rejected
//! input must fail with [`ReqError::CorruptBytes`] and leave the follower
//! exactly as the frames before the damaged one leave it: the same WAL
//! bytes and the same `encode_shards` per tenant. An input whose every
//! frame decodes must re-encode to itself and leave the follower exactly
//! as a fresh one fed the re-encoded records, one frame per call, is left.
//!
//! The text codec's request lines, which the server decodes, are swept
//! the same six ways in [`mutated_text_lines_reject_or_reencode`].

use std::path::Path;

use bytes::Bytes;
use req_core::frame::{crc32, frame_payload, read_frame, FrameHeader, FRAME_HEADER_LEN};
use req_core::{OrdF64, ReqError};
use req_service::protocol::binary::{
    decode_request, decode_response, encode_request, encode_response,
};
use req_service::protocol::text;
use req_service::snapshot::{decode_snapshot, encode_snapshot, wal_path};
use req_service::tempdir::TempDir;
use req_service::{
    AppliedOutcome, ChangedShards, DedupClientSnapshot, ErrorKind, IdemToken, QuantileService,
    Request, Response, ServiceConfig, ShardVersions, TailSegment, TenantConfig, TenantSnapshot,
    TenantStats, WalRecord,
};

/// The six mutations every byte receives.
const MUTATIONS: [fn(u8) -> u8; 6] = [
    |b| b.wrapping_add(1),
    |b| b.wrapping_sub(1),
    |b| b ^ 0x80,
    |_| 0x00,
    |_| 0xFF,
    |b| b ^ 0x01,
];

/// Mutate every byte of `good` six ways, let `fix` patch the input (for
/// checksums), and require `roundtrip` to reject it as corrupt or to
/// re-encode it exactly. Returns how many mutated inputs decoded.
fn sweep(
    what: &str,
    good: &[u8],
    fix: impl Fn(&mut [u8], usize),
    roundtrip: impl Fn(&[u8]) -> Result<Vec<u8>, ReqError>,
) -> usize {
    let mut decoded = 0;
    for at in 0..good.len() {
        for mutate in MUTATIONS {
            let mut bad = good.to_vec();
            bad[at] = mutate(good[at]);
            if bad[at] == good[at] {
                continue;
            }
            fix(&mut bad, at);
            match roundtrip(&bad) {
                Ok(again) => {
                    decoded += 1;
                    assert!(
                        again == bad,
                        "{what}: byte {at} = {:#04x} decodes but re-encodes differently",
                        bad[at]
                    );
                }
                Err(ReqError::CorruptBytes(_)) => {}
                Err(other) => panic!("{what}: byte {at}: untyped failure {other:?}"),
            }
        }
    }
    decoded
}

fn no_fix(_: &mut [u8], _: usize) {}

/// A payload byte gets its frame's checksum recomputed, so the decoder
/// behind the checksum sees it.
fn fix_crc(ranges: &[std::ops::Range<usize>], bad: &mut [u8], at: usize) {
    if let Some(r) = ranges.iter().find(|r| r.contains(&at)) {
        let crc = crc32(&bad[r.clone()]);
        bad[r.start - 4..r.start].copy_from_slice(&crc.to_le_bytes());
    }
}

fn payload(framed: Bytes) -> Vec<u8> {
    read_frame(&mut &framed[..]).unwrap().to_vec()
}

fn token() -> Option<IdemToken> {
    Some(IdemToken {
        client_id: 0x0102_0304_0506_0708,
        seq: 42,
    })
}

fn configs() -> [TenantConfig; 2] {
    [
        TenantConfig::parse("t", &["K=16", "LRA", "SCHEDULE=standard", "SHARDS=2"]).unwrap(),
        TenantConfig::parse("t", &["EPS=0.02", "DELTA=0.1", "SHARDS=3"]).unwrap(),
    ]
}

/// One request of every kind, with both `CREATE` forms and tokens.
fn sample_requests() -> Vec<Request> {
    let [k_config, eps_config] = configs();
    vec![
        Request::Create {
            key: "tenant".into(),
            config: k_config,
            token: None,
        },
        Request::Create {
            key: "tenant".into(),
            config: eps_config,
            token: token(),
        },
        Request::AddBatch {
            key: "k".into(),
            values: vec![1.5, -0.0, f64::INFINITY],
            token: token(),
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
            token: token(),
        },
        Request::Ping,
        Request::Quit,
        Request::Tail {
            gen: 3,
            offset: 8,
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
                incarnation: 0x0102_0304_0506_0708,
                instance: 3,
                epochs: vec![0, 9],
            }),
        },
    ]
}

/// A request's variant name, as `Debug` prints it.
fn variant(req: &Request) -> String {
    let debug = format!("{req:?}");
    debug.split([' ', '(']).next().unwrap().to_string()
}

#[test]
fn mutated_requests_reject_or_reencode() {
    for req in &sample_requests() {
        let good = payload(encode_request(req));
        sweep(&variant(req), &good, no_fix, |bad| {
            Ok(payload(encode_request(&decode_request(
                Bytes::copy_from_slice(bad),
            )?)))
        });
    }
}

#[test]
fn mutated_responses_reject_or_reencode() {
    let responses = [
        Response::Created,
        Response::AddedBatch(1_000),
        Response::Rank(77),
        Response::Quantile(Some(-0.0)),
        Response::Quantile(None),
        Response::Cdf(vec![0.25, 1.0]),
        Response::Stats(TenantStats {
            n: 1,
            retained: 2,
            bytes: 3,
            k: 4,
            shards: 5,
            hra: true,
            adaptive: false,
            rotation: 6,
            snapshot_failures: 7,
            wal_poisoned: 8,
            shed: 9,
            read_only: true,
        }),
        Response::List(vec!["a".into(), "bc".into()]),
        Response::Snapshot(9),
        Response::Dropped,
        Response::Pong,
        Response::Bye,
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
        Response::MetricsText("x 1\n".into()),
        Response::Events(vec!["e1".into(), String::new()]),
        Response::MergedSince(ChangedShards {
            incarnation: 0x0102_0304_0506_0708,
            instance: 4,
            parts: vec![(9, None), (1, Some(vec![0xAB, 0xCD])), (0, Some(vec![]))],
        }),
    ];
    for (i, resp) in responses.iter().enumerate() {
        let good = payload(encode_response(resp));
        sweep(&format!("response {i}"), &good, no_fix, |bad| {
            Ok(payload(encode_response(&decode_response(
                Bytes::copy_from_slice(bad),
            )?)))
        });
    }
}

#[test]
fn mutated_wal_records_reject_or_reencode() {
    let mut records = Vec::new();
    for token in [None, token()] {
        for config in configs() {
            records.push(WalRecord::Create {
                key: "tenant".into(),
                config,
                token,
            });
        }
        records.push(WalRecord::AddBatch {
            key: "k".into(),
            values: vec![OrdF64(1.5), OrdF64(f64::NAN), OrdF64(-0.0)],
            token,
        });
        records.push(WalRecord::Drop {
            key: "k".into(),
            token,
        });
    }
    for (i, rec) in records.iter().enumerate() {
        let good = payload(rec.encode());
        sweep(&format!("WAL record {i}"), &good, no_fix, |bad| {
            Ok(payload(
                WalRecord::decode(Bytes::copy_from_slice(bad))?.encode(),
            ))
        });
    }
}

/// Byte ranges of each frame's payload in `file`, whose frames start at
/// byte `first`.
fn payload_ranges(file: &[u8], first: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = first;
    while at < file.len() {
        let header = FrameHeader::parse(&file[at..], usize::MAX)
            .unwrap()
            .unwrap();
        ranges.push(at + FRAME_HEADER_LEN..at + header.frame_len());
        at += header.frame_len();
    }
    ranges
}

#[test]
fn mutated_snapshot_files_reject_or_reencode() {
    let tenants: Vec<TenantSnapshot> = configs()
        .into_iter()
        .zip(["alpha", "beta"])
        .map(|(config, key)| {
            let sketch = config.build().unwrap();
            for i in 0..300u64 {
                sketch.update(OrdF64(i as f64));
            }
            TenantSnapshot {
                key: key.into(),
                rotation: sketch.rotation(),
                shards: sketch
                    .checkpoint()
                    .unwrap()
                    .into_iter()
                    .map(|b| b.to_vec())
                    .collect(),
                config,
            }
        })
        .collect();
    let dedup = vec![DedupClientSnapshot {
        client_id: 7,
        entries: vec![
            (1, AppliedOutcome::Created),
            (2, AppliedOutcome::Added(1_000)),
            (3, AppliedOutcome::Dropped),
        ],
    }];
    let good = encode_snapshot(4, &tenants, &dedup).to_vec();
    let ranges = payload_ranges(&good, 8); // after the magic
    assert_eq!(
        ranges.len(),
        1 + tenants.len() + 1,
        "header, tenants, dedup"
    );
    let fix = |bad: &mut [u8], at: usize| fix_crc(&ranges, bad, at);
    let decoded = sweep("snapshot", &good, fix, |bad| {
        let data = decode_snapshot(Bytes::copy_from_slice(bad))?;
        Ok(encode_snapshot(data.gen, &data.tenants, &data.dedup).to_vec())
    });
    assert!(decoded > 0, "shard and seed bytes decode");
}

/// A service on a fresh data directory; a follower when `follower`.
fn fresh(follower: bool) -> (QuantileService, TempDir) {
    let dir = TempDir::new("sweep-tail").unwrap();
    let service = QuantileService::open(ServiceConfig::new(dir.path())).unwrap();
    service.set_follower(follower);
    (service, dir)
}

/// What a follower holds: its WAL bytes and every tenant's
/// `encode_shards`, by key.
type FollowerState = (Vec<u8>, Vec<(String, Vec<Vec<u8>>)>);

fn state(service: &QuantileService, dir: &Path) -> FollowerState {
    let wal = std::fs::read(wal_path(dir, service.generation())).unwrap();
    let shards = (service.list().into_iter())
        .map(|key| {
            let parts = service.sketch_parts(&key).unwrap();
            (key, parts)
        })
        .collect();
    (wal, shards)
}

/// `replicate_frames(frames)` on a fresh follower: its result and state.
fn replicate(frames: &[u8]) -> (Result<u64, ReqError>, FollowerState) {
    let (follower, dir) = fresh(true);
    let got = follower.replicate_frames(frames);
    (got, state(&follower, dir.path()))
}

/// The records of `frames` if every frame deframes and decodes.
fn decode_frames(mut frames: &[u8]) -> Result<Vec<WalRecord>, ReqError> {
    let mut records = Vec::new();
    while !frames.is_empty() {
        let payload = frame_payload(frames)?;
        records.push(WalRecord::decode(payload)?);
        frames = &frames[FRAME_HEADER_LEN + payload.len()..];
    }
    Ok(records)
}

/// The frames a `TAIL` reply ships for `CREATE`, `ADDB` and `DROP`
/// records, each with and without a token, ending with one tenant live.
fn tail_frames() -> Vec<u8> {
    let (primary, _dir) = fresh(false);
    let [k_config, eps_config] = configs();
    let token = |seq| {
        Some(IdemToken {
            client_id: 0x0102_0304_0506_0708,
            seq,
        })
    };
    let values = [OrdF64(1.5), OrdF64(f64::NAN), OrdF64(-0.0)];
    primary.create("a", k_config.clone()).unwrap();
    primary
        .create_with_token("b", eps_config, token(1))
        .unwrap();
    primary.create("c", k_config).unwrap();
    primary.add_batch("a", &values).unwrap();
    primary
        .add_batch_with_token("b", &values, token(2))
        .unwrap();
    primary.drop_key_with_token("a", token(3)).unwrap();
    primary.drop_key("c").unwrap();
    let segment = primary.tail(primary.generation(), 0, u32::MAX).unwrap();
    assert!(!segment.sealed);
    segment.frames
}

#[test]
fn mutated_tail_frames_reject_or_apply_as_reencoded() {
    let good = tail_frames();
    let ranges = payload_ranges(&good, 0);
    assert_eq!(ranges.len(), 7, "three CREATEs, two ADDBs, two DROPs");
    let (applied, _) = replicate(&good);
    assert_eq!(applied.unwrap(), 7);
    // The follower after each whole-frame prefix: `prefixes[i]` holds
    // the frames before frame `i`.
    let prefixes: Vec<FollowerState> = (0..ranges.len())
        .map(|i| replicate(&good[..ranges[i].start - FRAME_HEADER_LEN]).1)
        .collect();
    let fix = |bad: &mut [u8], at: usize| fix_crc(&ranges, bad, at);
    let decoded = sweep("TAIL frames", &good, fix, |bad| {
        let (got, held) = replicate(bad);
        let records = match decode_frames(bad) {
            Ok(records) => records,
            Err(e) => {
                let at = (bad.iter().zip(&good))
                    .position(|(b, g)| b != g)
                    .expect("a mutated byte");
                let damaged = ranges.partition_point(|r| r.end <= at);
                assert!(
                    matches!(got, Err(ReqError::CorruptBytes(_))),
                    "byte {at}: rejected frames replicate as {got:?}"
                );
                assert!(
                    held == prefixes[damaged],
                    "byte {at}: a rejected frame {damaged} left more than the frames before it"
                );
                return Err(e);
            }
        };
        let reencoded: Vec<Bytes> = records.iter().map(WalRecord::encode).collect();
        let (twin, twin_dir) = fresh(true);
        let mut want = Ok(0);
        for frame in &reencoded {
            match twin.replicate_frames(frame) {
                Ok(n) => want = want.map(|total| total + n),
                Err(e) => {
                    want = Err(e);
                    break;
                }
            }
        }
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(
            held == state(&twin, twin_dir.path()),
            "decoded frames apply unlike their re-encoded records"
        );
        Ok(reencoded
            .iter()
            .flat_map(|frame| frame.iter().copied())
            .collect())
    });
    assert!(decoded > 0, "value and token bytes decode");
}

/// `mutated` spells the `canonical` line's message another way: the same
/// whitespace-separated tokens, except that a token (or the value after
/// the same `NAME=`) may spell the same number differently, and that a
/// `NAME=value` whose name the mutated line lacks is a default the decoder
/// filled in.
fn respelled(mutated: &str, canonical: &str) -> bool {
    let same_number = |a: &str, b: &str| match (a.parse::<u64>(), b.parse::<u64>()) {
        (Ok(a), Ok(b)) => a == b,
        _ => matches!(
            (a.parse::<f64>(), b.parse::<f64>()),
            (Ok(a), Ok(b)) if a.to_bits() == b.to_bits()
        ),
    };
    fn name(token: &str) -> Option<&str> {
        token.split_once('=').map(|(name, _)| name)
    }
    let m: Vec<&str> = mutated.split_whitespace().collect();
    let c: Vec<&str> = (canonical.split_whitespace())
        .filter(|t| name(t).is_none_or(|n| m.iter().any(|t| name(t) == Some(n))))
        .collect();
    m.len() == c.len()
        && m.iter().zip(&c).all(|(m, c)| {
            m == c
                || match (m.split_once('='), c.split_once('=')) {
                    (Some((m_name, m)), Some((c_name, c))) => m_name == c_name && same_number(m, c),
                    (None, None) => same_number(m, c),
                    _ => false,
                }
        })
}

/// Mutate every byte of the request `line` six ways and decode each
/// mutated line as the server does: a line that is not UTF-8 is `invalid`
/// there. It must fail with an `invalid` error, or decode to a request
/// whose line is the mutated line itself or [`respelled`] from it. Returns
/// how many mutated lines decoded.
fn sweep_lines(what: &str, line: &str) -> usize {
    let mut decoded = 0;
    for at in 0..line.len() {
        for mutate in MUTATIONS {
            let mut bad = line.as_bytes().to_vec();
            bad[at] = mutate(bad[at]);
            if bad[at] == line.as_bytes()[at] {
                continue;
            }
            let request = std::str::from_utf8(&bad)
                .map_err(|_| ReqError::InvalidParameter("request line is not UTF-8".into()))
                .and_then(text::decode_request);
            match request {
                Ok(req) => {
                    decoded += 1;
                    let bad = std::str::from_utf8(&bad).expect("a decoded line is UTF-8");
                    let again = text::encode_request(&req);
                    assert!(
                        again == bad || respelled(bad, &again),
                        "{what}: `{bad}` decodes, but re-encodes as `{again}`"
                    );
                }
                Err(e) => assert!(
                    matches!(e, ReqError::InvalidParameter(_)),
                    "{what}: byte {at}: untyped failure {e:?}"
                ),
            }
        }
    }
    decoded
}

/// The text codec's request lines, swept like the binary payloads above
/// ([`sweep_lines`]): each mutated line must fail with an `invalid` error
/// or decode to a request that re-encodes to the same line, up to the
/// non-canonical forms below.
///
/// The request decoder accepts these non-canonical forms. Each is harmless
/// because it names the same request, or one that carries nothing the
/// server reads:
///
/// * *Number spellings* (the six mutations reach these): every spelling
///   Rust's `u64`/`u32`/`f64` parsers accept for the same value, such as
///   leading zeros (`K=06`, `TAIL 3 8 05536`), `.0`, a leading `+`,
///   exponents, `inf`/`infinity`/`NaN` in any case, and decimal digits
///   beyond `f64` precision. A number is read as the value it spells.
/// * *Verb, option and token case*: `add`, `k=16`, `lra`,
///   `schedule=ADAPTIVE`, `token=1:2`. Case carries no data here.
/// * *Whitespace*: runs of spaces, tabs and other Unicode whitespace
///   between tokens, and around the line. Tokens never hold whitespace, so
///   any run splits the same tokens.
/// * *Omitted `CREATE` options* (reached: in `CREATE tenant!K=16 LRA …`
///   the key absorbs `K=16`, so the line names tenant `tenant!K=16` at the
///   default `K`): an option left out takes its default, which the
///   encoder writes out (`DELTA` alone is refused). Options may also come
///   in any order or repeat (the last wins). They resolve to one
///   configuration before anything is logged, and that is what the server
///   logs and replicates.
/// * *`TOKEN=` anywhere after the key* of `CREATE` and `ADDB`, not only
///   last. The token is found and read wherever it stands.
/// * *Ignored arguments*: `STATS key extra…`, and arguments after `LIST`,
///   `SNAPSHOT`, `PING`, `QUIT` or `METRICS`; `EVENTS` alone means
///   `EVENTS 64`. None of these commands reads more. (`DROP` refuses
///   anything but its key and one token: a damaged `TOKEN=` there would
///   otherwise drop the token, and with it the exactly-once retry.)
#[test]
fn mutated_text_lines_reject_or_reencode() {
    let decoded: usize = sample_requests()
        .iter()
        .map(|req| sweep_lines(&variant(req), &text::encode_request(req)))
        .sum();
    assert!(decoded > 0, "key and number bytes decode");
}
