//! Cross-codec equivalence, live: the same request script driven over
//! the binary client, and as text lines on a raw socket, each through its
//! own `serve_evented` server, must produce identical answers. Both codecs
//! funnel into `req_service::execute`; each text reply line must be, byte
//! for byte, `text::encode_response` of the binary client's reply for the
//! same step. The same script pipelined in one write over a raw socket
//! gets binary replies whose bytes are exactly what `encode_response`
//! writes for each.

use bytes::BytesMut;
use req_evented::{serve_evented, ReqBinClient};
use req_service::client::attach_token;
use req_service::protocol::{binary, text};
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, QuantileService, Request, Response, ServiceConfig, ShardVersions, TenantConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A script touching every command, including deliberate failures. Every
/// mutation is pre-stamped with a fixed-client-id idempotency token:
/// otherwise the binary client stamps its own random `client_id`, the
/// tokens land in the WAL records, and the byte-level `TAIL` comparison
/// below would (correctly!) flag the two WALs as different.
fn script() -> Vec<Request> {
    let mut reqs = vec![
        Request::Ping,
        // Errors before state exists: unknown tenant on every query verb.
        Request::Rank {
            key: "ghost".into(),
            value: 3.0,
        },
        Request::Stats {
            key: "ghost".into(),
        },
        Request::Create {
            key: "a".into(),
            config: TenantConfig::for_key("a"),
            token: None,
        },
        // Duplicate create: an Invalid error on both transports.
        Request::Create {
            key: "a".into(),
            config: TenantConfig::for_key("a"),
            token: None,
        },
        Request::Create {
            key: "b".into(),
            config: TenantConfig {
                shards: 2,
                hra: false,
                ..TenantConfig::for_key("b")
            },
            token: None,
        },
    ];
    for i in 0..40 {
        reqs.push(Request::AddBatch {
            key: if i % 3 == 0 { "b" } else { "a" }.into(),
            values: (0..100)
                .map(|j| ((i * 131 + j * 17) % 10_007) as f64)
                .collect(),
            token: None,
        });
        reqs.push(Request::AddBatch {
            key: "a".into(),
            values: vec![i as f64],
            token: None,
        });
    }
    for p in [0.0, 250.0, 5_000.0, 9_999.0, f64::INFINITY] {
        reqs.push(Request::Rank {
            key: "a".into(),
            value: p,
        });
        reqs.push(Request::Cdf {
            key: "b".into(),
            points: vec![p, p + 1.0],
        });
    }
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        reqs.push(Request::Quantile { key: "a".into(), q });
    }
    reqs.extend([
        Request::Quantile {
            key: "a".into(),
            q: 1.5, // out of range: Invalid on both transports
        },
        Request::Stats { key: "a".into() },
        Request::Stats { key: "b".into() },
        // Scatter/gather MERGESINCE: with nothing held, and with versions
        // from an incarnation neither service has, every serialized shard
        // part comes back. Tenant seeds derive from the key and the script
        // is deterministic, so the two services' parts must be
        // byte-identical, not merely equivalent. The unknown tenant is
        // Invalid on both.
        Request::MergeSince {
            key: "a".into(),
            held: None,
        },
        Request::MergeSince {
            key: "a".into(),
            held: Some(ShardVersions {
                incarnation: 0,
                instance: 1,
                epochs: vec![0; 4],
            }),
        },
        Request::MergeSince {
            key: "ghost".into(),
            held: None,
        },
        Request::Tail {
            gen: 99, // no such WAL generation: Invalid on both
            offset: 0,
            max_bytes: 4096,
        },
        Request::List,
        Request::Snapshot,
        // Replication TAIL of the now-sealed generation 0: raw WAL
        // bytes. Identical scripts ⇒ identical WALs ⇒ identical
        // segments across both transports.
        Request::Tail {
            gen: 0,
            offset: 0,
            max_bytes: 1 << 20,
        },
        Request::Drop {
            key: "b".into(),
            token: None,
        },
        Request::Stats { key: "b".into() },
        Request::List,
        Request::Quit,
    ]);
    let mut seq = 1;
    for req in &mut reqs {
        attach_token(req, 0xC0DEC, &mut seq);
    }
    reqs
}

#[test]
fn text_and_binary_transports_answer_identically() {
    let script = script();

    let bin_dir = TempDir::new("cross-bin").unwrap();
    let bin_service = Arc::new(QuantileService::open(ServiceConfig::new(bin_dir.path())).unwrap());
    let bin_handle = serve_evented(Arc::clone(&bin_service), "127.0.0.1:0", 1).unwrap();
    let mut bin_client = ReqBinClient::connect(bin_handle.addr()).unwrap();
    let mut tailed_bytes = 0;
    let mut binary_replies = Vec::new();
    for (i, req) in script.iter().enumerate() {
        let reply = bin_client
            .call(req)
            .unwrap_or_else(|e| panic!("step {i} ({req:?}): transport failure {e:?}"));
        match &reply {
            Response::Tailed(seg) => tailed_bytes += seg.frames.len(),
            Response::MergedSince(changed) => {
                assert_eq!(changed.incarnation, bin_service.incarnation());
                assert!(changed.parts.iter().all(|(_, part)| part.is_some()));
            }
            _ => {}
        }
        binary_replies.push(reply);
    }
    assert!(tailed_bytes > 0, "the script never shipped a WAL frame");
    bin_handle.shutdown();

    // The script as text lines in one write; QUIT closes the connection
    // after the last reply line.
    let text_dir = TempDir::new("cross-text").unwrap();
    let text_service =
        Arc::new(QuantileService::open(ServiceConfig::new(text_dir.path())).unwrap());
    let text_handle = serve_evented(Arc::clone(&text_service), "127.0.0.1:0", 1).unwrap();
    let mut raw = TcpStream::connect(text_handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let lines: String = script
        .iter()
        .map(|req| text::encode_request(req) + "\n")
        .collect();
    raw.write_all(lines.as_bytes()).unwrap();
    let mut replies = String::new();
    raw.read_to_string(&mut replies).unwrap();
    let replies: Vec<&str> = replies.split_terminator('\n').collect();
    assert_eq!(replies.len(), script.len(), "one reply line per request");
    for (i, (line, want)) in replies.iter().zip(&binary_replies).enumerate() {
        let mut want = want.clone();
        // Each service draws its own incarnation when it opens; everything
        // else in the reply must agree.
        if let Response::MergedSince(changed) = &mut want {
            changed.incarnation = text_service.incarnation();
        }
        let req = &script[i];
        assert_eq!(*line, text::encode_response(&want), "step {i} ({req:?})");
    }

    // Beyond the wire: the two services hold identical durable state.
    assert_eq!(
        text_service.stats("a").unwrap().n,
        bin_service.stats("a").unwrap().n
    );
    text_handle.shutdown();

    // The whole script in one write, its replies read raw: each reply
    // frame is byte for byte the `encode_response` of what it decodes to,
    // and answers as the binary client's call did.
    let raw_dir = TempDir::new("cross-raw").unwrap();
    let raw_service = Arc::new(QuantileService::open(ServiceConfig::new(raw_dir.path())).unwrap());
    let raw_handle = serve_evented(Arc::clone(&raw_service), "127.0.0.1:0", 1).unwrap();
    let mut raw = TcpStream::connect(raw_handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut requests = BytesMut::new();
    for req in &script {
        binary::write_request(&mut requests, req);
    }
    raw.write_all(&requests).unwrap();
    let mut wire = Vec::new();
    raw.read_to_end(&mut wire).unwrap(); // QUIT closes the connection
    let mut at = 0;
    for (i, want) in binary_replies.iter().enumerate() {
        let (payload, used) = binary::try_deframe(&wire, at).unwrap().unwrap();
        let mut got = binary::decode_response(payload).unwrap();
        assert_eq!(
            &wire[at..at + used],
            &binary::encode_response(&got)[..],
            "step {i}: reply bytes"
        );
        at += used;
        if let Response::MergedSince(changed) = &mut got {
            assert_eq!(changed.incarnation, raw_service.incarnation());
            changed.incarnation = bin_service.incarnation();
        }
        assert_eq!(&got, want, "step {i}: pipelined reply");
    }
    assert_eq!(at, wire.len(), "one reply per request");
    raw_handle.shutdown();
}

/// Err responses never collapse into strings on the binary path: the kind
/// survives to the client as the right `ReqError` variant. On a text
/// connection to the same address the reply is the raw `ERR invalid …`
/// line.
#[test]
fn error_kinds_survive_both_transports() {
    let dir = TempDir::new("cross-err").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
    let mut bc = ReqBinClient::connect(handle.addr()).unwrap();

    let req = Request::Rank {
        key: "missing".into(),
        value: 1.0,
    };
    let reply = bc.call(&req).unwrap();
    match reply.clone().into_result().unwrap_err() {
        req_core::ReqError::InvalidParameter(msg) => assert!(msg.contains("missing"), "{msg}"),
        other => panic!("expected InvalidParameter, got {other:?}"),
    }

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"RANK missing 1\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw).read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR invalid "), "{line}");
    assert_eq!(line, text::encode_response(&reply) + "\n");
}
