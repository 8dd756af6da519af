//! Golden bytes: every binary format this workspace writes, pinned, and
//! the text lines the server reads and writes.
//!
//! Each case encodes a fixed value through public API only and compares
//! the result with a pinned string: the encoding as hex, or — above 256
//! bytes — its length plus its [`frame::crc32`]; a text line as itself.
//! Covered formats:
//!
//! * the binary wire frame of every [`Request`] and [`Response`] variant,
//!   including both [`TenantConfig`] forms inside `CREATE`;
//! * every tag byte of [`Request`], [`Response`] and [`ErrorKind`]: the
//!   tag of a pinned frame or an unknown one;
//! * the text line of each of those requests and responses;
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

use req_core::binary::{unpack_whole, Packable};
use req_core::frame::crc32;
use req_core::{CompactionSchedule, ConcurrentReqSketch, OrdF64, ParamPolicy, RankAccuracy};
use req_core::{QuantileSketch, ReqError, ReqSketch};
use req_service::protocol::binary::{
    decode_request, decode_response, encode_request, encode_response, try_deframe,
};
use req_service::protocol::text;
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

/// Compare every case's encoding with its pin.
fn check(cases: Vec<(String, Vec<u8>)>, golden: &[(&str, &str)]) {
    let got = cases
        .into_iter()
        .map(|(name, bytes)| (name, pin(&bytes)))
        .collect();
    check_pins(got, golden);
}

/// Compare every case with its pin; on any mismatch, print the whole
/// table as it stands and fail.
fn check_pins(got: Vec<(String, String)>, golden: &[(&str, &str)]) {
    let want: Vec<(String, String)> = golden
        .iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
    if got != want {
        for (name, p) in &got {
            println!("    ({name:?}, {p:?}),");
        }
        panic!("encodings differ from the golden table (current table printed above)");
    }
}

/// A message's variant name, as `Debug` prints it.
fn variant(message: &impl std::fmt::Debug) -> String {
    let debug = format!("{message:?}");
    debug.split([' ', '(']).next().unwrap().to_string()
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

/// One request of every variant but `MergeSince`, with both
/// [`TenantConfig`] forms and with and without tokens.
fn sample_requests() -> Vec<Request> {
    vec![
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
        Request::Metrics,
        Request::Events { max: 256 },
    ]
}

/// The frames [`sample_requests`] encode to.
const REQUEST_PINS: &[(&str, &str)] = &[
    ("req00 Create", "2900000018c24cdd0108000000676f6c64656e2e6b00100000000000000000000000000002000000070000000000000000"),
    ("req01 Create", "3f00000074220115010a000000676f6c64656e2e657073017b14ae47e17a943f9a9999999999b93f010103000000d0e4a784c5c3083a0108070605040302012a00000000000000"),
    ("req02 AddBatch", "2b000000fc8c5ac003010000006b04000000000000000000f83f0000000000000080000000000000f07f59f3f8c21f6ea50100"),
    ("req03 AddBatch", "23000000d466dce503010000006b0100000000000000000002400108070605040302012a00000000000000"),
    ("req04 Rank", "0e000000f1eeaf2304010000006b000000000000e03f"),
    ("req05 Quantile", "0e000000ea2db46505010000006bae47e17a14aeef3f"),
    ("req06 Cdf", "1a000000b7a4aa5506010000006b02000000000000000000f03f0000000000000040"),
    ("req07 Stats", "060000007b00c74b07010000006b"),
    ("req08 List", "01000000bf67d9dc08"),
    ("req09 Snapshot", "010000002957deab09"),
    ("req10 Drop", "07000000f9e149740a010000006b00"),
    ("req11 Drop", "17000000582f3ef90a010000006b0108070605040302012a00000000000000"),
    ("req12 Ping", "010000000536d0450b"),
    ("req13 Quit", "01000000a6a3b4db0c"),
    ("req14 Tail", "15000000ad416b590d0300000000000000080000000000000000000100"),
    ("req15 Metrics", "010000001cf2bd420f"),
    ("req16 Events", "05000000a80a00a71000010000"),
];

#[test]
fn request_frames_are_pinned() {
    let cases = sample_requests()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                format!("req{i:02} {}", variant(r)),
                encode_request(r).to_vec(),
            )
        })
        .collect();
    check(cases, REQUEST_PINS);
}

/// One response of every variant but `MergedSince`.
fn sample_responses() -> Vec<Response> {
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
    vec![
        Response::Created,
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
        Response::MetricsText("x 1\n".into()),
        Response::Events(vec!["e1".into(), String::new()]),
        Response::Events(vec![]),
    ]
}

/// The frames [`sample_responses`] encode to.
const RESPONSE_PINS: &[(&str, &str)] = &[
    ("resp00", "010000001bdf05a501"),
    ("resp01", "09000000220c59be03e803000000000000"),
    ("resp02", "090000009e927d09044d00000000000000"),
    ("resp03", "0a000000513460ff05010000000000000080"),
    ("resp04", "02000000bae6ae3c0500"),
    ("resp05", "150000000bfab4710602000000000000000000d03f000000000000f03f"),
    ("resp06", "44000000b4e34ac80701000000000000000200000000000000030000000000000004000000050000000100060000000000000007000000000000000800000000000000090000000000000001"),
    ("resp07", "44000000dc9551540701000000000000000200000000000000030000000000000004000000050000000001060000000000000007000000000000000800000000000000090000000000000000"),
    ("resp08", "10000000d665d91508020000000100000061020000006263"),
    ("resp09", "05000000dcbc52f60800000000"),
    ("resp10", "09000000deb9e555090900000000000000"),
    ("resp11", "010000009306d7320a"),
    ("resp12", "010000000536d0450b"),
    ("resp13", "01000000a6a3b4db0c"),
    ("resp14", "0900000013096e970d0103000000626164"),
    ("resp15", "06000000dd471c820d0600000000"),
    ("resp16", "21000000b65bada70e0200000000000000080000000000000001040000000000000003000000ab00ff"),
    ("resp17", "1e000000846a30b10e0000000000000000000000000000000000000000000000000000000000"),
    ("resp18", "090000001a78cd7e10040000007820310a"),
    ("resp19", "0f0000000f5ca90b110200000002000000653100000000"),
    ("resp20", "050000002f49a29b1100000000"),
];

#[test]
fn response_frames_are_pinned() {
    let cases = sample_responses()
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("resp{i:02}"), encode_response(r).to_vec()))
        .collect();
    check(cases, RESPONSE_PINS);
}

fn merge_since_requests() -> [Request; 2] {
    let held = ShardVersions {
        incarnation: 0x0102_0304_0506_0708,
        instance: 3,
        epochs: vec![0, 9],
    };
    [
        Request::MergeSince {
            key: "k".into(),
            held: None,
        },
        Request::MergeSince {
            key: "k".into(),
            held: Some(held),
        },
    ]
}

fn merged_since_responses() -> [Response; 2] {
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
}

/// The frames [`merge_since_requests`] encode to.
const MERGE_SINCE_PINS: &[(&str, &str)] = &[
    ("req00 MergeSince", "07000000cd29901111010000006b00"),
    ("req01 MergeSince", "2b000000e3d6682e11010000006b01080706050403020103000000000000000200000000000000000000000900000000000000"),
];

/// The frames [`merged_since_responses`] encode to.
const MERGED_SINCE_PINS: &[(&str, &str)] = &[
    ("resp00 MergedSince", "3a00000086b5968412080706050403020104000000000000000300000009000000000000000001000000000000000102000000abcd00000000000000000100000000"),
    ("resp01 MergedSince", "150000001ad624ee120000000000000000000000000000000000000000"),
];

/// The versioned `MERGE` (request tag 17, response tag 18), pinned apart
/// from the tables above so that every earlier pin stays as it was.
#[test]
fn versioned_merge_frames_are_pinned() {
    let mut cases: Vec<(String, Vec<u8>)> = merge_since_requests()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                format!("req{i:02} {}", variant(r)),
                encode_request(r).to_vec(),
            )
        })
        .collect();
    cases.extend(merged_since_responses().iter().enumerate().map(|(i, r)| {
        (
            format!("resp{i:02} MergedSince"),
            encode_response(r).to_vec(),
        )
    }));
    check(cases, &[MERGE_SINCE_PINS, MERGED_SINCE_PINS].concat());
}

/// The payload of one whole frame.
fn payload(framed: &[u8]) -> Vec<u8> {
    let (payload, used) = try_deframe(framed, 0).unwrap().unwrap();
    assert_eq!(used, framed.len(), "one whole frame");
    payload.to_vec()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Every `what` tag byte is accounted for: it leads one of the pinned
/// frames in `pins`, each of which decodes to a message that encodes back
/// to that frame, or it decodes as an unknown tag.
fn check_tags<T: std::fmt::Debug>(
    what: &str,
    pins: &[(&str, &str)],
    decode: impl Fn(&[u8]) -> Result<T, ReqError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let mut pinned = [false; 256];
    for (name, hex) in pins {
        let payload = payload(&unhex(hex));
        let message = decode(&payload).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(encode(&message), payload, "{name} decodes to {message:?}");
        pinned[usize::from(payload[0])] = true;
    }
    for tag in (0..=255u8).filter(|&t| !pinned[usize::from(t)]) {
        match decode(&[tag]) {
            Err(ReqError::CorruptBytes(msg)) if msg == format!("unknown {what} tag {tag}") => {}
            other => panic!("unpinned {what} tag {tag} decodes to {other:?}"),
        }
    }
}

/// Each tag byte of [`Request`], [`Response`] and [`ErrorKind`] either
/// leads a pinned frame, which decodes back to itself, or is unknown. The
/// frame pins above cover two of the six error kinds, so all six bytes
/// are pinned here.
#[test]
fn every_tag_is_pinned_or_unknown() {
    check_tags(
        "request",
        &[REQUEST_PINS, MERGE_SINCE_PINS].concat(),
        |p| decode_request(p),
        |r| payload(&encode_request(r)),
    );
    check_tags(
        "response",
        &[RESPONSE_PINS, MERGED_SINCE_PINS].concat(),
        |p| decode_response(p),
        |r| payload(&encode_response(r)),
    );
    let kinds = [
        ErrorKind::Invalid,
        ErrorKind::Incompatible,
        ErrorKind::Corrupt,
        ErrorKind::Io,
        ErrorKind::Unavailable,
        ErrorKind::Busy,
    ];
    for byte in 0..=255u8 {
        let want = usize::from(byte).checked_sub(1).and_then(|i| kinds.get(i));
        match (unpack_whole(&[byte], ErrorKind::unpack), want) {
            (Ok(kind), Some(&want)) => {
                assert_eq!(kind, want, "error kind byte {byte}");
                let mut out = bytes::BytesMut::new();
                kind.pack(&mut out);
                assert_eq!(out[..], [byte], "{kind:?} encodes");
            }
            (Err(ReqError::CorruptBytes(_)), None) => {}
            (got, want) => panic!("error kind byte {byte}: {got:?}, want {want:?}"),
        }
    }
}

/// The text lines of the same samples: what a text request carries, and
/// what the server answers on a text connection.
#[test]
fn text_lines_are_pinned() {
    let requests = sample_requests().into_iter().chain(merge_since_requests());
    let mut cases: Vec<(String, String)> = requests
        .enumerate()
        .map(|(i, r)| {
            (
                format!("req{i:02} {}", variant(&r)),
                text::encode_request(&r),
            )
        })
        .collect();
    let responses = sample_responses()
        .into_iter()
        .chain(merged_since_responses());
    cases.extend(responses.enumerate().map(|(i, r)| {
        (
            format!("resp{i:02} {}", variant(&r)),
            text::encode_response(&r),
        )
    }));
    check_pins(
        cases,
        &[
        ("req00 Create", "CREATE golden.k K=16 LRA SCHEDULE=standard SHARDS=2 SEED=7"),
        ("req01 Create", "CREATE golden.eps EPS=0.02 DELTA=0.1 HRA SCHEDULE=adaptive SHARDS=3 SEED=4181807507115074768 TOKEN=72623859790382856:42"),
        ("req02 AddBatch", "ADDB k 1.5 -0 inf 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001"),
        ("req03 AddBatch", "ADDB k 2.25 TOKEN=72623859790382856:42"),
        ("req04 Rank", "RANK k 0.5"),
        ("req05 Quantile", "QUANTILE k 0.99"),
        ("req06 Cdf", "CDF k 1 2"),
        ("req07 Stats", "STATS k"),
        ("req08 List", "LIST"),
        ("req09 Snapshot", "SNAPSHOT"),
        ("req10 Drop", "DROP k"),
        ("req11 Drop", "DROP k TOKEN=72623859790382856:42"),
        ("req12 Ping", "PING"),
        ("req13 Quit", "QUIT"),
        ("req14 Tail", "TAIL 3 8 65536"),
        ("req15 Metrics", "METRICS"),
        ("req16 Events", "EVENTS 256"),
        ("req17 MergeSince", "MERGESINCE k -"),
        ("req18 MergeSince", "MERGESINCE k 72623859790382856 3 0 9"),
        ("resp00 Created", "OK created"),
        ("resp01 AddedBatch", "OK 1000"),
        ("resp02 Rank", "OK 77"),
        ("resp03 Quantile", "OK -0"),
        ("resp04 Quantile", "OK none"),
        ("resp05 Cdf", "OK 0.25 1"),
        ("resp06 Stats", "OK n=1 retained=2 bytes=3 k=4 shards=5 orient=hra schedule=standard rotation=6 snapshot_failures=7 wal_poisoned=8 shed=9 mode=ro"),
        ("resp07 Stats", "OK n=1 retained=2 bytes=3 k=4 shards=5 orient=lra schedule=adaptive rotation=6 snapshot_failures=7 wal_poisoned=8 shed=9 mode=rw"),
        ("resp08 List", "OK a bc"),
        ("resp09 List", "OK"),
        ("resp10 Snapshot", "OK snapshot 9"),
        ("resp11 Dropped", "OK dropped"),
        ("resp12 Pong", "OK pong"),
        ("resp13 Bye", "OK bye"),
        ("resp14 Err", "ERR invalid bad"),
        ("resp15 Err", "ERR busy "),
        ("resp16 Tailed", "OK 2 8 1 4 ab00ff"),
        ("resp17 Tailed", "OK 0 0 0 0 -"),
        ("resp18 MetricsText", "OK 7820310a"),
        ("resp19 Events", "OK 2 6531 -"),
        ("resp20 Events", "OK 0"),
        ("resp21 MergedSince", "OK 72623859790382856 4 3 9 = 1 abcd 0 -"),
        ("resp22 MergedSince", "OK 0 0 0"),
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
