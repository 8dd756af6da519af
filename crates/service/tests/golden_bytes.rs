//! Golden bytes: every binary format this workspace writes, pinned.
//!
//! Each case encodes a fixed value through public API only and compares
//! the result with a pinned string: the encoding as hex, or — above 256
//! bytes — its length plus its [`frame::crc32`]. Covered formats:
//!
//! * the binary wire frame of every [`Request`] and [`Response`] variant,
//!   including both [`TenantConfig`] forms inside `CREATE`;
//! * every [`WalRecord`] variant, with and without an idempotency token;
//! * a [`write_snapshot`] file with two tenants (one per schedule) and a
//!   dedup table;
//! * [`ReqSketch::to_bytes`] for `u64` and `OrdF64` items, HRA/LRA ×
//!   Standard/Adaptive, at fixed seeds;
//! * [`ConcurrentReqSketch::encode_shards`] of a 4-shard tenant.
//!
//! Nothing here may change when a codec is refactored: stored files and
//! in-flight messages must stay readable. On a mismatch the test prints
//! every case's current pin, so an intended format change is one paste.

use req_core::frame::crc32;
use req_core::{CompactionSchedule, ConcurrentReqSketch, OrdF64, ParamPolicy, RankAccuracy};
use req_core::{QuantileSketch, ReqSketch};
use req_service::protocol::binary::{encode_request, encode_response};
use req_service::snapshot::write_snapshot;
use req_service::tempdir::TempDir;
use req_service::{
    AppliedOutcome, ChangedShards, DedupClientSnapshot, ErrorKind, IdemToken, Request, Response,
    ShardVersions, TailSegment, TenantConfig, TenantSnapshot, TenantStats, WalRecord,
};

/// Hex up to 256 bytes; beyond that, the length and the CRC-32.
fn pin(bytes: &[u8]) -> String {
    if bytes.len() <= 256 {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        format!("{} bytes, crc32 {:08x}", bytes.len(), crc32(bytes))
    }
}

/// Compare every case with its pin; on any mismatch, print the whole
/// table as it stands and fail.
fn check(cases: Vec<(String, Vec<u8>)>, golden: &[(&str, &str)]) {
    let got: Vec<(String, String)> = cases
        .into_iter()
        .map(|(name, bytes)| (name, pin(&bytes)))
        .collect();
    let want: Vec<(String, String)> = golden
        .iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
    if got != want {
        for (name, p) in &got {
            println!("    (\"{name}\", \"{p}\"),");
        }
        panic!("encodings differ from the golden table (current table printed above)");
    }
}

fn token() -> Option<IdemToken> {
    Some(IdemToken {
        client_id: 0x0102_0304_0506_0708,
        seq: 42,
    })
}

fn k_config() -> TenantConfig {
    TenantConfig::parse(
        "golden.k",
        &["K=16", "LRA", "SCHEDULE=standard", "SHARDS=2", "SEED=7"],
    )
    .unwrap()
}

fn eps_config() -> TenantConfig {
    TenantConfig::parse("golden.eps", &["EPS=0.02", "DELTA=0.1", "SHARDS=3"]).unwrap()
}

/// A deterministic stream: a multiplicative hash of the index.
fn stream(n: u64, salt: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
}

#[test]
fn request_frames_are_pinned() {
    let requests = vec![
        Request::Create {
            key: "golden.k".into(),
            config: k_config(),
            token: None,
        },
        Request::Create {
            key: "golden.eps".into(),
            config: eps_config(),
            token: token(),
        },
        Request::Add {
            key: "k".into(),
            value: f64::from_bits(0xfff8_dead_beef_0001),
        },
        Request::AddBatch {
            key: "k".into(),
            values: vec![1.5, -0.0, f64::INFINITY, 1e-300],
            token: None,
        },
        Request::AddBatch {
            key: "k".into(),
            values: vec![2.25],
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
            token: None,
        },
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
    ];
    let cases = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                format!("req{i:02} {:?}", r.kind()),
                encode_request(r).to_vec(),
            )
        })
        .collect();
    check(
        cases,
        &[
        ("req00 Create", "2900000018c24cdd0108000000676f6c64656e2e6b00100000000000000000000000000002000000070000000000000000"),
        ("req01 Create", "3f00000074220115010a000000676f6c64656e2e657073017b14ae47e17a943f9a9999999999b93f010103000000d0e4a784c5c3083a0108070605040302012a00000000000000"),
        ("req02 Add", "0e000000f0394b7e02010000006b0100efbeaddef8ff"),
        ("req03 AddBatch", "2b000000fc8c5ac003010000006b04000000000000000000f83f0000000000000080000000000000f07f59f3f8c21f6ea50100"),
        ("req04 AddBatch", "23000000d466dce503010000006b0100000000000000000002400108070605040302012a00000000000000"),
        ("req05 Rank", "0e000000f1eeaf2304010000006b000000000000e03f"),
        ("req06 Quantile", "0e000000ea2db46505010000006bae47e17a14aeef3f"),
        ("req07 Cdf", "1a000000b7a4aa5506010000006b02000000000000000000f03f0000000000000040"),
        ("req08 Stats", "060000007b00c74b07010000006b"),
        ("req09 List", "01000000bf67d9dc08"),
        ("req10 Snapshot", "010000002957deab09"),
        ("req11 Drop", "07000000f9e149740a010000006b00"),
        ("req12 Drop", "17000000582f3ef90a010000006b0108070605040302012a00000000000000"),
        ("req13 Ping", "010000000536d0450b"),
        ("req14 Quit", "01000000a6a3b4db0c"),
        ("req15 Tail", "15000000ad416b590d0300000000000000080000000000000000000100"),
        ("req16 Merge", "06000000b351c86c0e010000006b"),
        ("req17 Metrics", "010000001cf2bd420f"),
        ("req18 Events", "05000000a80a00a71000010000"),
        ],
    );
}

#[test]
fn response_frames_are_pinned() {
    let stats = |flag: bool| TenantStats {
        n: 1,
        retained: 2,
        bytes: 3,
        k: 4,
        shards: 5,
        hra: flag,
        adaptive: !flag,
        rotation: 6,
        snapshot_failures: 7,
        wal_poisoned: 8,
        shed: 9,
        read_only: flag,
    };
    let responses = vec![
        Response::Created,
        Response::Added,
        Response::AddedBatch(1_000),
        Response::Rank(77),
        Response::Quantile(Some(-0.0)),
        Response::Quantile(None),
        Response::Cdf(vec![0.25, 1.0]),
        Response::Stats(stats(true)),
        Response::Stats(stats(false)),
        Response::List(vec!["a".into(), "bc".into()]),
        Response::List(vec![]),
        Response::Snapshot(9),
        Response::Dropped,
        Response::Pong,
        Response::Bye,
        Response::Err {
            kind: ErrorKind::Invalid,
            msg: "bad".into(),
        },
        Response::Err {
            kind: ErrorKind::Busy,
            msg: String::new(),
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
        Response::MetricsText("x 1\n".into()),
        Response::Events(vec!["e1".into(), String::new()]),
        Response::Events(vec![]),
    ];
    let cases = responses
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("resp{i:02}"), encode_response(r).to_vec()))
        .collect();
    check(
        cases,
        &[
        ("resp00", "010000001bdf05a501"),
        ("resp01", "01000000a18e0c3c02"),
        ("resp02", "09000000220c59be03e803000000000000"),
        ("resp03", "090000009e927d09044d00000000000000"),
        ("resp04", "0a000000513460ff05010000000000000080"),
        ("resp05", "02000000bae6ae3c0500"),
        ("resp06", "150000000bfab4710602000000000000000000d03f000000000000f03f"),
        ("resp07", "44000000b4e34ac80701000000000000000200000000000000030000000000000004000000050000000100060000000000000007000000000000000800000000000000090000000000000001"),
        ("resp08", "44000000dc9551540701000000000000000200000000000000030000000000000004000000050000000001060000000000000007000000000000000800000000000000090000000000000000"),
        ("resp09", "10000000d665d91508020000000100000061020000006263"),
        ("resp10", "05000000dcbc52f60800000000"),
        ("resp11", "09000000deb9e555090900000000000000"),
        ("resp12", "010000009306d7320a"),
        ("resp13", "010000000536d0450b"),
        ("resp14", "01000000a6a3b4db0c"),
        ("resp15", "0900000013096e970d0103000000626164"),
        ("resp16", "06000000dd471c820d0600000000"),
        ("resp17", "21000000b65bada70e0200000000000000080000000000000001040000000000000003000000ab00ff"),
        ("resp18", "1e000000846a30b10e0000000000000000000000000000000000000000000000000000000000"),
        ("resp19", "150000009b0bebc40f03000000030000000102030000000001000000fe"),
        ("resp20", "05000000cc6072440f00000000"),
        ("resp21", "090000001a78cd7e10040000007820310a"),
        ("resp22", "0f0000000f5ca90b110200000002000000653100000000"),
        ("resp23", "050000002f49a29b1100000000"),
        ],
    );
}

/// The versioned `MERGE` (request tag 17, response tag 18), pinned apart
/// from the tables above so that every earlier pin stays as it was.
#[test]
fn versioned_merge_frames_are_pinned() {
    let held = ShardVersions {
        incarnation: 0x0102_0304_0506_0708,
        instance: 3,
        epochs: vec![0, 9],
    };
    let mut cases: Vec<(String, Vec<u8>)> = [
        Request::MergeSince {
            key: "k".into(),
            held: None,
        },
        Request::MergeSince {
            key: "k".into(),
            held: Some(held),
        },
    ]
    .iter()
    .enumerate()
    .map(|(i, r)| {
        (
            format!("req{i:02} {:?}", r.kind()),
            encode_request(r).to_vec(),
        )
    })
    .collect();
    cases.extend(
        [
            Response::MergedSince(ChangedShards {
                incarnation: 0x0102_0304_0506_0708,
                instance: 4,
                parts: vec![(9, None), (1, Some(vec![0xAB, 0xCD])), (0, Some(vec![]))],
            }),
            Response::MergedSince(ChangedShards {
                incarnation: 0,
                instance: 0,
                parts: vec![],
            }),
        ]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                format!("resp{i:02} MergedSince"),
                encode_response(r).to_vec(),
            )
        }),
    );
    check(
        cases,
        &[
        ("req00 MergeSince", "07000000cd29901111010000006b00"),
        ("req01 MergeSince", "2b000000e3d6682e11010000006b01080706050403020103000000000000000200000000000000000000000900000000000000"),
        ("resp00 MergedSince", "3a00000086b5968412080706050403020104000000000000000300000009000000000000000001000000000000000102000000abcd00000000000000000100000000"),
        ("resp01 MergedSince", "150000001ad624ee120000000000000000000000000000000000000000"),
        ],
    );
}

#[test]
fn wal_records_are_pinned() {
    let mut records = Vec::new();
    for token in [None, token()] {
        records.push(WalRecord::Create {
            key: "golden.k".into(),
            config: k_config(),
            token,
        });
        records.push(WalRecord::Create {
            key: "golden.eps".into(),
            config: eps_config(),
            token,
        });
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
    let cases = records
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("wal{i}"), r.encode().to_vec()))
        .collect();
    check(
        cases,
        &[
        ("wal0", "2800000049a1d44e0108000000676f6c64656e2e6b001000000000000000000000000000020000000700000000000000"),
        ("wal1", "2e000000bd249328010a000000676f6c64656e2e657073017b14ae47e17a943f9a9999999999b93f010103000000d0e4a784c5c3083a"),
        ("wal2", "220000001ed2c7d902010000006b03000000000000000000f83f000000000000f87f0000000000000080"),
        ("wal3", "060000006d4256d003010000006b"),
        ("wal4", "38000000bbc200f60408070605040302012a0000000000000008000000676f6c64656e2e6b001000000000000000000000000000020000000700000000000000"),
        ("wal5", "3e000000541020cc0408070605040302012a000000000000000a000000676f6c64656e2e657073017b14ae47e17a943f9a9999999999b93f010103000000d0e4a784c5c3083a"),
        ("wal6", "32000000497031f00508070605040302012a00000000000000010000006b03000000000000000000f83f000000000000f87f0000000000000080"),
        ("wal7", "16000000185120660608070605040302012a00000000000000010000006b"),
        ],
    );
}

#[test]
fn snapshot_file_is_pinned() {
    let tenants: Vec<TenantSnapshot> = [("golden.k", k_config()), ("golden.eps", eps_config())]
        .into_iter()
        .map(|(key, config)| {
            let sketch = config.build().unwrap();
            for v in stream(20_000, config.seed) {
                sketch.update(OrdF64(v as f64 / 7.0));
            }
            TenantSnapshot {
                key: key.into(),
                config: config.clone(),
                rotation: sketch.rotation(),
                shards: sketch
                    .checkpoint()
                    .unwrap()
                    .into_iter()
                    .map(|b| b.to_vec())
                    .collect(),
            }
        })
        .collect();
    assert_eq!(tenants[0].config.schedule, CompactionSchedule::Standard);
    assert_eq!(tenants[1].config.schedule, CompactionSchedule::Adaptive);
    let dedup = vec![
        DedupClientSnapshot {
            client_id: 7,
            entries: vec![
                (1, AppliedOutcome::Created),
                (2, AppliedOutcome::Added(1_000)),
                (3, AppliedOutcome::Dropped),
            ],
        },
        DedupClientSnapshot {
            client_id: u64::MAX,
            entries: vec![(9, AppliedOutcome::Added(1))],
        },
    ];
    let dir = TempDir::new("golden-snap").unwrap();
    let path = write_snapshot(dir.path(), 5, &tenants, &dedup, false, None).unwrap();
    let mut cases = vec![("file".to_string(), std::fs::read(path).unwrap())];
    for t in &tenants {
        for (i, shard) in t.shards.iter().enumerate() {
            cases.push((format!("{} shard {i}", t.key), shard.clone()));
        }
    }
    check(
        cases,
        &[
            ("file", "184490 bytes, crc32 b4eb963a"),
            ("golden.k shard 0", "11913 bytes, crc32 089a9203"),
            ("golden.k shard 1", "11913 bytes, crc32 a630cf94"),
            ("golden.eps shard 0", "53465 bytes, crc32 e99c9834"),
            ("golden.eps shard 1", "53465 bytes, crc32 f5e92458"),
            ("golden.eps shard 2", "53457 bytes, crc32 af0342ad"),
        ],
    );
}

#[test]
fn sketch_bytes_are_pinned() {
    let mut cases = Vec::new();
    for acc in [RankAccuracy::HighRank, RankAccuracy::LowRank] {
        for sched in [CompactionSchedule::Standard, CompactionSchedule::Adaptive] {
            let builder = ReqSketch::<u64>::builder()
                .k(8)
                .rank_accuracy(acc)
                .schedule(sched)
                .seed(11);
            let mut s = builder.clone().build::<u64>().unwrap();
            s.update_batch(&stream(3_000, 1).collect::<Vec<_>>());
            cases.push((format!("u64 {acc:?} {sched:?}"), s.to_bytes().to_vec()));
            let mut f = builder.build_f64().unwrap();
            for v in stream(3_000, 2) {
                f.update(OrdF64(v as f64 - 1e12));
            }
            f.update(OrdF64(f64::NAN));
            f.update(OrdF64(-0.0));
            cases.push((format!("f64 {acc:?} {sched:?}"), f.to_bytes().to_vec()));
        }
    }
    let mut empty = ReqSketch::<u64>::builder()
        .k(8)
        .seed(3)
        .build::<u64>()
        .unwrap();
    cases.push(("u64 empty".into(), empty.to_bytes().to_vec()));
    let mut mergeable = ReqSketch::<u64>::builder()
        .policy(ParamPolicy::mergeable(0.05, 0.05).unwrap())
        .seed(5)
        .build::<u64>()
        .unwrap();
    for v in stream(500, 3) {
        mergeable.update(v);
    }
    cases.push(("u64 mergeable".into(), mergeable.to_bytes().to_vec()));
    check(
        cases,
        &[
        ("u64 HighRank Standard", "5117 bytes, crc32 3132123f"),
        ("f64 HighRank Standard", "5133 bytes, crc32 b2e9af9b"),
        ("u64 HighRank Adaptive", "4873 bytes, crc32 013e9ba8"),
        ("f64 HighRank Adaptive", "4889 bytes, crc32 ffc6f70b"),
        ("u64 LowRank Standard", "5117 bytes, crc32 8936fe9f"),
        ("f64 LowRank Standard", "5133 bytes, crc32 1a889ecd"),
        ("u64 LowRank Adaptive", "4873 bytes, crc32 388df992"),
        ("f64 LowRank Adaptive", "4889 bytes, crc32 ef93ca6e"),
        ("u64 empty", "5245513103010408000000000000000000000040000000000000000800000003000000296919b991eb2b0d000000000000"),
        ("u64 mergeable", "4129 bytes, crc32 3c5de00a"),
        ],
    );
}

#[test]
fn tenant_shard_encodings_are_pinned() {
    let sketch: ConcurrentReqSketch<OrdF64> =
        TenantConfig::for_key("golden.shards").build().unwrap();
    assert_eq!(sketch.num_shards(), 4);
    let values: Vec<OrdF64> = stream(50_000, 9).map(|v| OrdF64(v as f64)).collect();
    for chunk in values.chunks(1_000) {
        sketch.update_batch(chunk);
    }
    let cases = sketch
        .encode_shards()
        .iter()
        .enumerate()
        .map(|(i, b)| (format!("shard {i}"), b.to_vec()))
        .collect();
    check(
        cases,
        &[
            ("shard 0", "19177 bytes, crc32 33e4f45f"),
            ("shard 1", "19177 bytes, crc32 651be507"),
            ("shard 2", "19177 bytes, crc32 5649d932"),
            ("shard 3", "19177 bytes, crc32 22688243"),
        ],
    );
}
