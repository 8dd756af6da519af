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

use bytes::Bytes;
use req_core::frame::{crc32, read_frame, FrameHeader, FRAME_HEADER_LEN};
use req_core::{OrdF64, ReqError};
use req_service::protocol::binary::{
    decode_request, decode_response, encode_request, encode_response,
};
use req_service::snapshot::{decode_snapshot, encode_snapshot};
use req_service::{
    AppliedOutcome, ChangedShards, DedupClientSnapshot, ErrorKind, IdemToken, Request, Response,
    ShardVersions, TailSegment, TenantConfig, TenantSnapshot, TenantStats, WalRecord,
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

fn payload(mut framed: Bytes) -> Vec<u8> {
    read_frame(&mut framed).unwrap().to_vec()
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

#[test]
fn mutated_requests_reject_or_reencode() {
    let [k_config, eps_config] = configs();
    let requests = [
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
        Request::Add {
            key: "k".into(),
            value: 2.5,
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
                incarnation: 0x0102_0304_0506_0708,
                instance: 3,
                epochs: vec![0, 9],
            }),
        },
    ];
    for req in &requests {
        let good = payload(encode_request(req));
        sweep(&format!("{:?}", req.kind()), &good, no_fix, |bad| {
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
        Response::Added,
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
        Response::Merged(vec![vec![1, 2, 3], vec![], vec![0xFE]]),
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

/// Byte ranges of each frame's payload in a snapshot file.
fn payload_ranges(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 8; // magic
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
    let ranges = payload_ranges(&good);
    assert_eq!(
        ranges.len(),
        1 + tenants.len() + 1,
        "header, tenants, dedup"
    );
    // A payload byte gets its frame's checksum recomputed.
    let fix = |bad: &mut [u8], at: usize| {
        if let Some(r) = ranges.iter().find(|r| r.contains(&at)) {
            let crc = crc32(&bad[r.clone()]);
            bad[r.start - 4..r.start].copy_from_slice(&crc.to_le_bytes());
        }
    };
    let decoded = sweep("snapshot", &good, fix, |bad| {
        let data = decode_snapshot(Bytes::copy_from_slice(bad))?;
        Ok(encode_snapshot(data.gen, &data.tenants, &data.dedup).to_vec())
    });
    assert!(decoded > 0, "shard and seed bytes decode");
}
