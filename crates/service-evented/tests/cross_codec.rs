//! Cross-codec equivalence, live: the same request script driven over
//! the text codec and over the binary codec, each through its own
//! `serve_evented` server, must produce response-for-response identical
//! results. Both codecs funnel into `req_service::execute`, and this test
//! pins that the codecs on either side of it are lossless.

use req_evented::{serve_evented, Client, ReqBinClient};
use req_service::client::attach_token;
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, QuantileService, Request, Response, ServiceConfig, ShardVersions, TenantConfig, Text,
};
use std::sync::Arc;

/// A script touching every command, including deliberate failures. Every
/// mutation is pre-stamped with a fixed-client-id idempotency token:
/// otherwise each transport's client stamps its own random `client_id`,
/// the tokens land in the WAL records, and the byte-level `TAIL`
/// comparison below would (correctly!) flag the two WALs as different.
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
        reqs.push(Request::Add {
            key: "a".into(),
            value: i as f64,
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
        // Scatter/gather MERGE: serialized shard parts. Tenant seeds
        // derive from the key and the script is deterministic, so the
        // two services' parts must be byte-identical, not merely
        // equivalent.
        Request::Merge { key: "a".into() },
        Request::Merge {
            key: "ghost".into(), // unknown tenant: Invalid on both
        },
        // Versioned MERGE: with nothing held, and with versions from an
        // incarnation neither service has, every part comes back; the
        // unknown tenant is Invalid on both.
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

    let text_dir = TempDir::new("cross-text").unwrap();
    let text_service =
        Arc::new(QuantileService::open(ServiceConfig::new(text_dir.path())).unwrap());
    let text_handle = serve_evented(Arc::clone(&text_service), "127.0.0.1:0", 1).unwrap();
    let mut text_client = Client::<Text>::connect(text_handle.addr()).unwrap();

    let bin_dir = TempDir::new("cross-bin").unwrap();
    let bin_service = Arc::new(QuantileService::open(ServiceConfig::new(bin_dir.path())).unwrap());
    let bin_handle = serve_evented(Arc::clone(&bin_service), "127.0.0.1:0", 1).unwrap();
    let mut bin_client = ReqBinClient::connect(bin_handle.addr()).unwrap();

    let mut tailed_bytes = 0;
    for (i, req) in script.iter().enumerate() {
        let via_text = text_client.call(req);
        let via_binary = bin_client.call(req);
        match (via_text, via_binary) {
            (Ok(t), Ok(b)) => {
                let (t, b) = match (t, b) {
                    // Each service draws its own incarnation when it opens;
                    // everything else in the reply must agree.
                    (Response::MergedSince(mut t), Response::MergedSince(mut b)) => {
                        assert_eq!(t.incarnation, text_service.incarnation());
                        assert_eq!(b.incarnation, bin_service.incarnation());
                        assert!(t.parts.iter().all(|(_, part)| part.is_some()));
                        (t.incarnation, b.incarnation) = (0, 0);
                        (Response::MergedSince(t), Response::MergedSince(b))
                    }
                    pair => pair,
                };
                if let (Response::Tailed(t), Response::Tailed(b)) = (&t, &b) {
                    assert_eq!(t.frames, b.frames, "step {i}: TAIL segments differ");
                    tailed_bytes += t.frames.len();
                }
                assert_eq!(t, b, "step {i} ({req:?}) diverged")
            }
            (t, b) => panic!("step {i} ({req:?}): transport-level failure {t:?} vs {b:?}"),
        }
        if matches!(req, Request::Quit) {
            break;
        }
    }
    assert!(tailed_bytes > 0, "the script never shipped a WAL frame");

    // Beyond the wire: the two services hold identical durable state.
    assert_eq!(
        text_service.stats("a").unwrap().n,
        bin_service.stats("a").unwrap().n
    );
    text_handle.shutdown();
    bin_handle.shutdown();
}

/// Err responses never collapse into strings anywhere on either path:
/// the kind survives to the client as the right `ReqError` variant. Both
/// codecs dial the same address.
#[test]
fn error_kinds_survive_both_transports() {
    let dir = TempDir::new("cross-err").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
    let mut tc = Client::<Text>::connect(handle.addr()).unwrap();
    let mut bc = ReqBinClient::connect(handle.addr()).unwrap();

    let req = Request::Rank {
        key: "missing".into(),
        value: 1.0,
    };
    let (t, b) = (
        tc.call(&req).unwrap().into_result().unwrap_err(),
        bc.call(&req).unwrap().into_result().unwrap_err(),
    );
    for e in [&t, &b] {
        match e {
            req_core::ReqError::InvalidParameter(msg) => {
                assert!(msg.contains("missing"), "{msg}")
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }
}
