//! WAL-tail shipping: the windowed `TAIL` read and the per-record bound.
//!
//! 1. **Windowed read ≡ whole-file read.** [`QuantileService::tail`] reads
//!    only the window it ships. [`tail_whole_file`] keeps the algorithm it
//!    replaced — read the whole generation, walk frames from the offset —
//!    as the oracle: for every frame-boundary offset (and a few offsets
//!    inside frames) and a ladder of budgets around every frame's size,
//!    both return identical segments or the same error kind. Covered
//!    logs: clean, torn mid-frame, trailing garbage, a sealed generation
//!    after `snapshot_now`, and the caught-up cursor.
//! 2. **Every logged record can be shipped.** A batch the `TAIL` reply
//!    could not carry is refused before it is logged; a batch of exactly
//!    `MAX_BATCH_VALUES` values, with the longest key and a token, is
//!    tailed, framed as a binary reply, deframed and applied on a follower.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use bytes::Buf;
use req_core::frame::read_frame;
use req_core::{OrdF64, ReqError};
use req_service::config::MAX_KEY_LEN;
use req_service::protocol::{binary, text};
use req_service::service::MAX_BATCH_VALUES;
use req_service::snapshot::wal_path;
use req_service::tempdir::TempDir;
use req_service::wal::{WalRecord, WAL_MAGIC};
use req_service::{
    execute, IdemToken, QuantileService, Response, ServiceConfig, TailSegment, TenantConfig,
};

/// The whole-file `tail` the windowed read replaced, kept as the oracle.
fn tail_whole_file(
    svc: &QuantileService,
    dir: &Path,
    gen: u64,
    offset: u64,
    max_bytes: u32,
) -> Result<TailSegment, ReqError> {
    let raw = match std::fs::read(wal_path(dir, gen)) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ReqError::InvalidParameter(format!(
                "WAL generation {gen} is not on disk"
            )));
        }
        Err(e) => return Err(e.into()),
    };
    if raw.len() < WAL_MAGIC.len() || raw[..WAL_MAGIC.len()] != WAL_MAGIC[..] {
        return Err(ReqError::CorruptBytes(format!(
            "WAL generation {gen} has no valid magic header"
        )));
    }
    let start = if offset == 0 {
        WAL_MAGIC.len() as u64
    } else {
        offset
    };
    if start < WAL_MAGIC.len() as u64 || start > raw.len() as u64 {
        return Err(ReqError::InvalidParameter(format!(
            "tail offset {offset} outside generation {gen}'s {} bytes",
            raw.len()
        )));
    }
    let mut input = &raw[start as usize..];
    let budget = (max_bytes as usize).min(binary::MAX_MESSAGE_PAYLOAD - 4096);
    let mut shipped = 0usize;
    loop {
        let before = input.remaining();
        let Ok(payload) = read_frame(&mut input) else {
            break;
        };
        if WalRecord::decode(payload).is_err() {
            break;
        }
        let consumed = before - input.remaining();
        if shipped > 0 && shipped + consumed > budget {
            break;
        }
        shipped += consumed;
        if shipped >= budget {
            break;
        }
    }
    let latest_gen = svc.generation();
    Ok(TailSegment {
        gen,
        offset: start,
        sealed: gen < latest_gen,
        latest_gen,
        frames: raw[start as usize..start as usize + shipped].to_vec(),
    })
}

fn open(dir: &Path) -> QuantileService {
    QuantileService::open(ServiceConfig::new(dir)).unwrap()
}

fn values(n: usize) -> Vec<OrdF64> {
    (0..n).map(|i| OrdF64(i as f64 * 0.25 - 7.0)).collect()
}

/// Log the mixed record set: `Create`, a 1-value and a 2,000-value
/// `AddBatch`, a tokened `AddBatch`, and a `Drop`.
fn log_mixed_records(s: &QuantileService) {
    s.create("t", TenantConfig::parse("t", &["K=8", "SHARDS=2"]).unwrap())
        .unwrap();
    s.add_batch("t", &values(1)).unwrap();
    s.add_batch("t", &values(2_000)).unwrap();
    let token = Some(IdemToken {
        client_id: 42,
        seq: 1,
    });
    s.add_batch_with_token("t", &values(5), token).unwrap();
    s.drop_key("t").unwrap();
}

/// Offsets at which whole, valid frames of generation `gen` start, plus
/// the end of the last one.
fn frame_boundaries(dir: &Path, gen: u64) -> Vec<u64> {
    let raw = std::fs::read(wal_path(dir, gen)).unwrap();
    let mut input = &raw[WAL_MAGIC.len()..];
    let mut out = vec![WAL_MAGIC.len() as u64];
    while read_frame(&mut input).is_ok() {
        out.push((raw.len() - input.remaining()) as u64);
    }
    out
}

/// Assert the windowed and whole-file reads agree on generation `gen` at
/// offset 0, every frame boundary (the last one is the caught-up cursor)
/// and a few offsets inside frames or out of range, for budgets 0, 1, 7,
/// 8, 9, every frame length ±1, 1 MiB and `u32::MAX`.
fn assert_matches_whole_file(s: &QuantileService, dir: &Path, gen: u64) {
    let bounds = frame_boundaries(dir, gen);
    let file_len = std::fs::metadata(wal_path(dir, gen)).unwrap().len();
    let mut budgets = vec![0u32, 1, 7, 8, 9, 1 << 20, u32::MAX];
    for pair in bounds.windows(2) {
        let len = (pair[1] - pair[0]) as u32;
        budgets.extend([len - 1, len, len + 1]);
    }
    let mut offsets = vec![0, 3, file_len, file_len + 1];
    for &b in &bounds {
        offsets.extend([b, b + 1, b + 4, b + 9]);
    }
    for &offset in &offsets {
        for &budget in &budgets {
            let windowed = s.tail(gen, offset, budget);
            let whole = tail_whole_file(s, dir, gen, offset, budget);
            match (windowed, whole) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "gen {gen} offset {offset} budget {budget}")
                }
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "gen {gen} offset {offset} budget {budget}: {a:?} vs {b:?}"
                ),
                (a, b) => panic!("gen {gen} offset {offset} budget {budget}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn windowed_tail_matches_whole_file_on_a_clean_log() {
    let dir = TempDir::new("tail-clean").unwrap();
    let s = open(dir.path());
    log_mixed_records(&s);
    assert_eq!(frame_boundaries(dir.path(), 0).len(), 6, "five frames");
    assert_matches_whole_file(&s, dir.path(), 0);
}

#[test]
fn windowed_tail_matches_whole_file_on_a_torn_last_frame() {
    let dir = TempDir::new("tail-torn").unwrap();
    let s = open(dir.path());
    log_mixed_records(&s);
    let bounds = frame_boundaries(dir.path(), 0);
    let (last_start, end) = (bounds[bounds.len() - 2], bounds[bounds.len() - 1]);
    // Cut the last frame in half behind the live writer's back.
    OpenOptions::new()
        .write(true)
        .open(wal_path(dir.path(), 0))
        .unwrap()
        .set_len(last_start + (end - last_start) / 2)
        .unwrap();
    assert_matches_whole_file(&s, dir.path(), 0);
    // The torn frame is never shipped, even as a lone first frame.
    let seg = s.tail(0, last_start, 1).unwrap();
    assert!(seg.frames.is_empty());
}

#[test]
fn windowed_tail_matches_whole_file_with_trailing_garbage() {
    let dir = TempDir::new("tail-garbage").unwrap();
    let s = open(dir.path());
    log_mixed_records(&s);
    let end = *frame_boundaries(dir.path(), 0).last().unwrap();
    let mut file = OpenOptions::new()
        .append(true)
        .open(wal_path(dir.path(), 0))
        .unwrap();
    // A header claiming 100 payload bytes with a bad CRC, then junk.
    file.write_all(&100u32.to_le_bytes()).unwrap();
    file.write_all(&[0xAB; 4 + 100 + 31]).unwrap();
    drop(file);
    assert_matches_whole_file(&s, dir.path(), 0);
    let seg = s.tail(0, end, 1 << 20).unwrap();
    assert!(seg.frames.is_empty(), "garbage is never shipped");
}

#[test]
fn windowed_tail_matches_whole_file_on_a_sealed_generation() {
    let dir = TempDir::new("tail-sealed").unwrap();
    let s = open(dir.path());
    log_mixed_records(&s);
    s.create("u", TenantConfig::for_key("u")).unwrap();
    assert_eq!(s.snapshot_now().unwrap(), 1);
    s.add_batch("u", &values(300)).unwrap();
    s.add_batch("u", &values(2)).unwrap();
    assert!(s.tail(0, 0, 1 << 20).unwrap().sealed);
    assert_matches_whole_file(&s, dir.path(), 0);
    assert!(!s.tail(1, 0, 1 << 20).unwrap().sealed);
    assert_matches_whole_file(&s, dir.path(), 1);
}

#[test]
fn a_text_addb_too_large_to_tail_is_refused_before_logging() {
    // 4,000,006 bytes: inside the text codec's line bound, but its WAL
    // record (16 MB) could never cross the wire in one TAIL reply.
    let line = format!("ADDB t{}", " 1".repeat(2_000_000));
    assert!(line.len() < text::MAX_LINE_BYTES);
    let req = text::decode_request(&line).unwrap();
    let dir = TempDir::new("tail-bound").unwrap();
    let s = open(dir.path());
    s.create("t", TenantConfig::for_key("t")).unwrap();
    let before = s.wal_watermark();
    let reply = text::encode_response(&execute(&s, req));
    assert!(reply.starts_with("ERR invalid"), "{reply:.60}");
    assert_eq!(s.wal_watermark(), before, "nothing was logged");
    assert_eq!(s.stats("t").unwrap().n, 0);
}

#[test]
fn the_largest_batch_ships_in_one_tail_reply() {
    let key = "k".repeat(MAX_KEY_LEN);
    let token = Some(IdemToken {
        client_id: 7,
        seq: 1,
    });
    let pdir = TempDir::new("tail-max-p").unwrap();
    let p = open(pdir.path());
    p.create(&key, TenantConfig::parse(&key, &["SHARDS=1"]).unwrap())
        .unwrap();
    let batch = values(MAX_BATCH_VALUES);
    assert_eq!(
        p.add_batch_with_token(&key, &batch, token).unwrap(),
        MAX_BATCH_VALUES as u64
    );

    // Ship CREATE, then the maximal record alone from a 1-byte budget,
    // each through a binary reply the follower's client can deframe.
    let fdir = TempDir::new("tail-max-f").unwrap();
    let f = open(fdir.path());
    f.set_follower(true);
    for _ in 0..2 {
        let (gen, offset) = f.wal_watermark();
        let seg = p.tail(gen, offset, 1).unwrap();
        let wire = binary::encode_response(&Response::Tailed(seg));
        let (payload, used) = binary::try_deframe(&wire, 0).unwrap().expect("whole frame");
        assert_eq!(used, wire.len());
        let Response::Tailed(seg) = binary::decode_response(payload).unwrap() else {
            panic!("not a TAIL reply");
        };
        assert_eq!(f.replicate_frames(&seg.frames).unwrap(), 1);
    }
    assert_eq!(f.wal_watermark(), p.wal_watermark());
    assert_eq!(f.stats(&key).unwrap().n, MAX_BATCH_VALUES as u64);
}
