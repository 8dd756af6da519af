//! End-to-end tests for the one server: the full typed command surface,
//! deep pipelining on one connection, durability across restarts,
//! idle-connection density, per-connection codec sniffing, and fault
//! handling at both protocol layers of both codecs.
//!
//! The binary tests drive a [`ReqBinClient`]. Their `_over_text` twins
//! write request lines on a raw socket and read the reply lines back, as
//! `nc` would: there is no text client.

use req_core::ReqError;
use req_evented::{serve_evented, serve_evented_with, EventedHandle, EventedOptions, ReqBinClient};
use req_service::protocol::{binary, text};
use req_service::tempdir::TempDir;
use req_service::{
    Accuracy, ClientApi, FaultKind, FaultPlane, FaultSite, IdemToken, QuantileService, Request,
    Response, RetryPolicy, ServiceConfig, TenantConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start(dir: &std::path::Path, loops: usize) -> (Arc<QuantileService>, EventedHandle) {
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", loops).unwrap();
    (service, handle)
}

/// One text connection: request lines out, reply lines back.
struct TextConn(BufReader<TcpStream>);

impl TextConn {
    fn connect(addr: SocketAddr) -> TextConn {
        TextConn(BufReader::new(TcpStream::connect(addr).unwrap()))
    }

    /// Write every line, each with its `\n`, in one send.
    fn send(&mut self, lines: &[impl AsRef<str>]) {
        let wire: String = lines.iter().map(|l| format!("{}\n", l.as_ref())).collect();
        self.0.get_mut().write_all(wire.as_bytes()).unwrap();
    }

    /// The next reply line without its `\n`; `None` once the server closed.
    fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        self.0.read_line(&mut line).unwrap();
        line.strip_suffix('\n').map(str::to_string)
    }

    fn call(&mut self, line: &str) -> String {
        self.send(&[line]);
        self.reply().expect("a reply line")
    }
}

/// The text line of an `ADDB` of `values` without a token.
fn addb(key: &str, values: &[f64]) -> String {
    text::encode_request(&Request::AddBatch {
        key: key.into(),
        values: values.to_vec(),
        token: None,
    })
}

#[test]
fn full_command_surface_roundtrips_over_binary() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();

    c.ping().unwrap();
    let config = TenantConfig {
        accuracy: Accuracy::K(16),
        hra: true,
        shards: 2,
        ..TenantConfig::for_key("lat")
    };
    c.create("lat", config).unwrap();

    let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    for chunk in values.chunks(1_000) {
        assert_eq!(c.add_batch("lat", chunk).unwrap(), chunk.len() as u64);
    }
    assert_eq!(c.add_batch("lat", &[10_000.0]).unwrap(), 1);

    let r = c.rank("lat", 5_000.0).unwrap();
    assert!((r as f64 - 5_001.0).abs() / 5_001.0 < 0.2, "rank {r}");
    let q = c.quantile("lat", 0.5).unwrap().unwrap();
    assert!((q - 5_000.0).abs() < 1_500.0, "median {q}");
    let cdf = c.cdf("lat", &[1_000.0, 5_000.0, 9_000.0]).unwrap();
    assert_eq!(cdf.len(), 3);
    assert!(cdf[0] < cdf[1] && cdf[1] < cdf[2] && cdf[2] <= 1.0);
    let stats = c.stats("lat").unwrap();
    assert_eq!(stats.n, 10_001);
    assert_eq!(stats.shards, 2);
    assert!(stats.hra);
    assert!(stats.retained > 0);
    assert_eq!(c.list().unwrap(), vec!["lat".to_string()]);

    assert_eq!(c.snapshot().unwrap(), 1);
    c.drop_key("lat").unwrap();
    assert!(c.rank("lat", 1.0).is_err());
    assert!(c.list().unwrap().is_empty());
    c.quit().unwrap();
    handle.shutdown();
}

/// The same surface in text lines. Mutations answer fixed lines; each
/// read must answer the text line of what a binary client on the same
/// server is answered.
#[test]
fn full_command_surface_roundtrips_over_text() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = TextConn::connect(handle.addr());
    let mut bin = ReqBinClient::connect(handle.addr()).unwrap();
    let mut read = |c: &mut TextConn, line: &str| {
        let want = bin.call(&text::decode_request(line).unwrap()).unwrap();
        assert_eq!(c.call(line), text::encode_response(&want), "`{line}`");
    };

    assert_eq!(c.call("PING"), "OK pong");
    assert_eq!(c.call("CREATE lat K=16 HRA SHARDS=2"), "OK created");
    let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    for chunk in values.chunks(1_000) {
        assert_eq!(c.call(&addb("lat", chunk)), "OK 1000");
    }
    assert_eq!(c.call("ADDB lat 10000"), "OK 1");
    for line in [
        "RANK lat 5000",
        "QUANTILE lat 0.5",
        "CDF lat 1000 5000 9000",
        "STATS lat",
        "LIST",
    ] {
        read(&mut c, line);
    }
    assert!(c.call("STATS lat").starts_with("OK n=10001 "));
    assert_eq!(c.call("SNAPSHOT"), "OK snapshot 1");
    assert_eq!(c.call("DROP lat"), "OK dropped");
    read(&mut c, "RANK lat 1");
    assert_eq!(c.call("LIST"), "OK");
    assert_eq!(c.call("QUIT"), "OK bye");
    assert_eq!(c.reply(), None, "QUIT closes the connection");
    handle.shutdown();
}

/// 1 000 commands in flight on ONE connection, written before any
/// response is read, answered in order.
#[test]
fn thousand_pipelined_commands_on_one_connection() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.create("p", TenantConfig::for_key("p")).unwrap();

    let mut reqs = Vec::with_capacity(1_000);
    for i in 0..499 {
        reqs.push(Request::AddBatch {
            key: "p".into(),
            values: vec![i as f64],
            token: None,
        });
    }
    reqs.push(Request::Stats { key: "p".into() });
    for i in 0..499 {
        reqs.push(Request::Rank {
            key: "p".into(),
            value: i as f64,
        });
    }
    reqs.push(Request::Ping);
    assert_eq!(reqs.len(), 1_000);

    let resps = c.call_pipelined(&reqs).unwrap();
    assert_eq!(resps.len(), 1_000);
    for resp in &resps[..499] {
        assert!(matches!(resp, Response::AddedBatch(1)), "got {resp:?}");
    }
    // Ordering proof: the mid-stream STATS sees exactly the 499 adds that
    // preceded it — no more, no fewer.
    match &resps[499] {
        Response::Stats(s) => assert_eq!(s.n, 499),
        other => panic!("expected stats, got {other:?}"),
    }
    // Ranks answer in request order: rank(i) over 0..499 estimates i+1
    // (the sketch may be a few off after compactions) and the sequence
    // is nondecreasing, which only holds if responses kept request order.
    let mut prev = 0u64;
    for (i, resp) in resps[500..999].iter().enumerate() {
        match resp {
            Response::Rank(r) => {
                let want = i as u64 + 1;
                assert!(r.abs_diff(want) <= 2 + want / 5, "rank({i}) = {r}");
                assert!(*r >= prev, "rank sequence regressed at {i}: {r} < {prev}");
                prev = *r;
            }
            other => panic!("expected rank, got {other:?}"),
        }
    }
    assert!(matches!(resps[999], Response::Pong));
}

/// The same 1 000 commands as text lines in one write.
#[test]
fn thousand_pipelined_commands_on_one_connection_over_text() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = TextConn::connect(handle.addr());
    assert_eq!(c.call("CREATE p"), "OK created");

    let mut lines: Vec<String> = (0..499).map(|i| format!("ADDB p {i}")).collect();
    lines.push("STATS p".into());
    lines.extend((0..499).map(|i| format!("RANK p {i}")));
    lines.push("PING".into());
    c.send(&lines);
    let replies: Vec<String> = (0..1_000).map(|_| c.reply().unwrap()).collect();
    assert!(replies[..499].iter().all(|r| r == "OK 1"));
    assert!(replies[499].starts_with("OK n=499 "), "{}", replies[499]);
    let mut prev = 0u64;
    for (i, reply) in replies[500..999].iter().enumerate() {
        let r: u64 = reply.strip_prefix("OK ").unwrap().parse().unwrap();
        let want = i as u64 + 1;
        assert!(r.abs_diff(want) <= 2 + want / 5, "rank({i}) = {r}");
        assert!(r >= prev, "rank sequence regressed at {i}: {r} < {prev}");
        prev = r;
    }
    assert_eq!(replies[999], "OK pong");
}

#[test]
fn errors_keep_their_kind_and_the_connection_survives() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();

    let err = c.rank("ghost", 1.0).unwrap_err();
    match err {
        ReqError::InvalidParameter(msg) => assert!(msg.contains("ghost"), "{msg}"),
        other => panic!("wrong kind: {other:?}"),
    }
    c.create("t", TenantConfig::for_key("t")).unwrap();
    assert!(matches!(
        c.create("t", TenantConfig::for_key("t")),
        Err(ReqError::InvalidParameter(_))
    ));
    // Request-level faults answered mid-pipeline leave the stream usable.
    let resps = c
        .call_pipelined(&[
            Request::Rank {
                key: "nope".into(),
                value: 0.0,
            },
            Request::Ping,
        ])
        .unwrap();
    assert!(matches!(resps[0], Response::Err { .. }));
    assert!(matches!(resps[1], Response::Pong));
    c.ping().unwrap();
}

#[test]
fn errors_keep_their_kind_and_the_connection_survives_over_text() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = TextConn::connect(handle.addr());

    let reply = c.call("RANK ghost 1");
    assert!(
        reply.starts_with("ERR invalid ") && reply.contains("ghost"),
        "{reply}"
    );
    assert_eq!(c.call("CREATE t"), "OK created");
    assert!(c.call("CREATE t").starts_with("ERR invalid "));
    c.send(&["RANK nope 0", "PING"]);
    assert!(c.reply().unwrap().starts_with("ERR invalid "));
    assert_eq!(c.reply().unwrap(), "OK pong");
    assert_eq!(c.call("PING"), "OK pong");
}

/// The text twin of a bad payload in a valid frame: a whole line that
/// fails to decode gets `ERR …` and the connection lives; blank lines get
/// no reply at all.
#[test]
fn undecodable_text_lines_get_an_error_and_the_connection_lives() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"WHAT even\n\n   \r\nADDB t\nRANK t \xff\nPING\n")
        .unwrap();
    let mut replies = BufReader::new(raw).lines();
    let mut next = || replies.next().unwrap().unwrap();
    for want in ["unknown command", "at least one value", "not UTF-8"] {
        let reply = next();
        assert!(
            reply.starts_with("ERR invalid") && reply.contains(want),
            "got `{reply}`, want an error about {want}"
        );
    }
    assert_eq!(next(), "OK pong");
}

/// The retired unversioned `MERGE` is an unknown message on both codecs:
/// its binary request tag 14 gets a typed `corrupt` error and the text
/// verb `ERR invalid`, and each connection goes on to answer the next
/// request.
#[test]
fn retired_merge_gets_an_error_and_the_connection_lives() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    // The frame `MERGE k` was pinned to before it retired.
    let merge = [
        0x06, 0x00, 0x00, 0x00, 0xb3, 0x51, 0xc8, 0x6c, 0x0e, 0x01, 0x00, 0x00, 0x00, 0x6b,
    ];
    raw.write_all(&merge).unwrap();
    raw.write_all(&binary::encode_request(&Request::Ping))
        .unwrap();
    let reply = binary::decode_response(binary::read_frame_blocking(&mut raw).unwrap());
    match reply.unwrap() {
        Response::Err { kind, msg } => {
            assert_eq!(kind, req_service::ErrorKind::Corrupt);
            assert!(msg.contains("unknown request tag 14"), "{msg}");
        }
        other => panic!("expected a corrupt error, got {other:?}"),
    }
    let reply = binary::decode_response(binary::read_frame_blocking(&mut raw).unwrap());
    assert_eq!(reply.unwrap(), Response::Pong);

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"MERGE k\nPING\n").unwrap();
    let mut replies = BufReader::new(raw).lines();
    let reply = replies.next().unwrap().unwrap();
    assert!(
        reply.starts_with("ERR invalid") && reply.contains("unknown command"),
        "got `{reply}`"
    );
    assert_eq!(replies.next().unwrap().unwrap(), "OK pong");
}

#[test]
fn corrupt_frames_get_a_typed_error_then_eof() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);

    // Frame with a deliberately wrong CRC: length says 4, CRC is garbage.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let mut bad = Vec::new();
    bad.extend_from_slice(&4u32.to_le_bytes());
    bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bad.extend_from_slice(&[1, 2, 3, 4]);
    raw.write_all(&bad).unwrap();

    // The server answers with one typed `corrupt` error frame…
    let payload = binary::read_frame_blocking(&mut raw).unwrap();
    let resp = binary::decode_response(payload).unwrap();
    match resp {
        Response::Err { kind, .. } => {
            assert_eq!(kind, req_service::ErrorKind::Corrupt)
        }
        other => panic!("expected corrupt error, got {other:?}"),
    }
    // …then closes the connection.
    let mut tail = [0u8; 16];
    assert_eq!(raw.read(&mut tail).unwrap(), 0, "expected EOF after fault");

    // The server itself is unharmed.
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.ping().unwrap();
}

/// The text twin of the corrupt-frame test: a line past
/// [`text::MAX_LINE_BYTES`] gets one `invalid … exceeds` error, then EOF.
#[test]
fn oversized_text_lines_get_a_typed_error_then_eof() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    // A legitimate large-but-bounded batch works.
    let mut c = TextConn::connect(handle.addr());
    assert_eq!(c.call("CREATE t"), "OK created");
    let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    assert_eq!(c.call(&addb("t", &big)), "OK 100000");

    // Exactly MAX_LINE_BYTES with no newline: the server consumes every
    // byte before it gives up, so its close is a clean FIN after the
    // error line, never a reset that could swallow it.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&vec![b'x'; text::MAX_LINE_BYTES]).unwrap();
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("ERR invalid") && reply.contains("exceeds"),
        "got `{reply}`"
    );
    let mut tail = [0u8; 16];
    assert_eq!(
        reader.read(&mut tail).unwrap(),
        0,
        "expected EOF after fault"
    );

    // The server keeps serving other clients.
    assert_eq!(c.call("PING"), "OK pong");
    assert!(c.call("STATS t").starts_with("OK n=100000 "));
}

#[test]
fn state_survives_a_server_restart() {
    let dir = TempDir::new("evented").unwrap();
    let probes: Vec<f64> = (0..50).map(|i| i as f64 * 199.0).collect();
    let want: Vec<u64> = {
        let (_service, handle) = start(dir.path(), 1);
        let mut c = ReqBinClient::connect(handle.addr()).unwrap();
        let config = TenantConfig {
            accuracy: Accuracy::K(32),
            ..TenantConfig::for_key("t")
        };
        c.create("t", config).unwrap();
        let values: Vec<f64> = (0..8_000).map(|i| (i * 37 % 10_007) as f64).collect();
        for chunk in values.chunks(500) {
            c.add_batch("t", chunk).unwrap();
        }
        probes.iter().map(|&p| c.rank("t", p).unwrap()).collect()
        // handle dropped: server stops; service dropped: "process exit"
    };
    let (service, handle) = start(dir.path(), 1);
    assert!(service.recovery_report().records_replayed > 0);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    let got: Vec<u64> = probes.iter().map(|&p| c.rank("t", p).unwrap()).collect();
    assert_eq!(got, want, "recovered server must answer identically");
    assert_eq!(c.stats("t").unwrap().n, 8_000);
}

#[test]
fn state_survives_a_server_restart_over_text() {
    let dir = TempDir::new("evented").unwrap();
    let probes: Vec<String> = (0..50).map(|i| format!("RANK t {}", i * 199)).collect();
    let want: Vec<String> = {
        let (_service, handle) = start(dir.path(), 1);
        let mut c = TextConn::connect(handle.addr());
        assert_eq!(c.call("CREATE t K=32"), "OK created");
        let values: Vec<f64> = (0..8_000).map(|i| (i * 37 % 10_007) as f64).collect();
        for chunk in values.chunks(500) {
            assert_eq!(c.call(&addb("t", chunk)), "OK 500");
        }
        probes.iter().map(|p| c.call(p)).collect()
    };
    let (service, handle) = start(dir.path(), 1);
    assert!(service.recovery_report().records_replayed > 0);
    let mut c = TextConn::connect(handle.addr());
    let got: Vec<String> = probes.iter().map(|p| c.call(p)).collect();
    assert_eq!(got, want, "recovered server must answer identically");
    assert!(c.call("STATS t").starts_with("OK n=8000 "));
}

/// The density claim: one loop thread holds hundreds of idle connections
/// — each costs two buffers, not an OS thread — and every one still
/// answers.
#[test]
fn holds_640_plus_idle_connections_on_one_thread() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);

    const CONNS: usize = 700;
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(ReqBinClient::connect(handle.addr()).unwrap());
    }
    // Touch each once so the server has registered them all.
    for c in clients.iter_mut() {
        c.ping().unwrap();
    }
    assert!(
        handle.live_connections() >= CONNS as u64,
        "server tracks {} live connections, want >= {CONNS}",
        handle.live_connections()
    );
    // Idle connections stay serviceable: spot-check across the herd.
    clients[0].create("d", TenantConfig::for_key("d")).unwrap();
    for c in clients.iter_mut().step_by(97) {
        c.add_batch("d", &[1.0]).unwrap();
    }
    let n = clients[CONNS - 1].stats("d").unwrap().n;
    assert_eq!(n, (CONNS).div_ceil(97) as u64);
    drop(clients);
    handle.shutdown();
}

#[test]
fn quit_closes_only_that_connection() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut a = ReqBinClient::connect(handle.addr()).unwrap();
    let b = ReqBinClient::connect(handle.addr()).unwrap();
    a.ping().unwrap();
    b.quit().unwrap();
    a.ping().unwrap();
    // And a pipeline that ends in QUIT still answers everything first.
    let resps = a
        .call_pipelined(&[Request::Ping, Request::List, Request::Quit])
        .unwrap();
    assert!(matches!(resps[0], Response::Pong));
    assert!(matches!(resps[1], Response::List(_)));
    assert!(matches!(resps[2], Response::Bye));
}

#[test]
fn quit_closes_only_that_connection_over_text() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut a = TextConn::connect(handle.addr());
    let mut b = TextConn::connect(handle.addr());
    assert_eq!(a.call("PING"), "OK pong");
    assert_eq!(b.call("QUIT"), "OK bye");
    assert_eq!(b.reply(), None);
    assert_eq!(a.call("PING"), "OK pong");
    // A pipeline that ends in QUIT still answers everything first.
    a.send(&["PING", "LIST", "QUIT"]);
    for want in ["OK pong", "OK", "OK bye"] {
        assert_eq!(a.reply().unwrap(), want);
    }
    assert_eq!(a.reply(), None);
}

/// One port, both codecs: each connection sniffs its own codec from its
/// fourth byte, and waits while it has sent fewer than four.
#[test]
fn text_and_binary_connections_share_one_port() {
    let dir = TempDir::new("evented-sniff").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut t = TextConn::connect(handle.addr());
    let mut b = ReqBinClient::connect(handle.addr()).unwrap();
    assert_eq!(t.call("CREATE s"), "OK created");
    for i in 0..10 {
        let batch = [i as f64, i as f64 + 0.5];
        if i % 2 == 0 {
            assert_eq!(t.call(&addb("s", &batch)), "OK 2");
        } else {
            b.add_batch("s", &batch).unwrap();
        }
    }
    let stats = b.stats("s").unwrap();
    assert_eq!(stats.n, 20);
    assert_eq!(
        t.call("STATS s"),
        text::encode_response(&Response::Stats(stats))
    );
    let median = Response::Quantile(b.quantile("s", 0.5).unwrap());
    assert_eq!(t.call("QUANTILE s 0.5"), text::encode_response(&median));

    // A text verb split before its fourth byte.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"PI").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    raw.write_all(b"NG\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK pong\n");

    // A binary frame split before its fourth byte.
    let frame = binary::encode_request(&Request::Ping);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&frame[..3]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    raw.write_all(&frame[3..]).unwrap();
    let payload = binary::read_frame_blocking(&mut raw).unwrap();
    assert_eq!(binary::decode_response(payload).unwrap(), Response::Pong);
}

/// A request exists only with its newline: an unterminated final line is
/// discarded at EOF, never executed. `TOKEN=` is the *last* field of a
/// text `ADDB`, so a torn prefix would apply without its token and the
/// retry would double-ingest.
#[test]
fn torn_text_request_at_eof_is_discarded_not_applied() {
    let dir = TempDir::new("evented-torn").unwrap();
    let (service, handle) = start(dir.path(), 1);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"CREATE t\nADDB t 1 2 3").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    raw.read_to_string(&mut replies).unwrap();
    assert_eq!(replies, "OK created\n");
    assert_eq!(service.stats("t").unwrap().n, 0);
}

/// The write-backlog satellite: a client that pipelines huge responses
/// and never reads them cannot pin the server. The loop parks the
/// connection's read side once [`MAX_WRITE_BACKLOG`] is queued, and the
/// stall sweep closes the connection outright once the backlog makes no
/// progress for `write_stall_timeout` — while every other client keeps
/// being served.
#[test]
fn never_draining_reader_is_evicted_after_the_stall_timeout() {
    use req_evented::server::MAX_WRITE_BACKLOG;
    use std::time::Instant;

    let dir = TempDir::new("evented-stall").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    let handle = serve_evented_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        EventedOptions {
            loops: 1,
            faults: None,
            write_stall_timeout: Some(Duration::from_secs(1)),
        },
    )
    .unwrap();

    {
        let mut c = ReqBinClient::connect(handle.addr()).unwrap();
        c.create("t", TenantConfig::for_key("t")).unwrap();
        c.add_batch("t", &[1.0, 2.0, 3.0]).unwrap();
    }

    // One CDF request whose response is ~512 KiB; pipeline copies of it
    // and never read a byte back. Writes are paced so the server's greedy
    // fill() hits `WouldBlock` and re-arms between bursts — that re-arm
    // is where the >16 MiB backlog parks the connection's read interest,
    // after which the kernel buffers jam and our writes time out.
    let frame = binary::encode_request(&Request::Cdf {
        key: "t".into(),
        points: vec![2.0; 65_536],
    });
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut written = 0usize;
    let jam_bound = 8 * MAX_WRITE_BACKLOG;
    while written < jam_bound {
        match raw.write_all(&frame) {
            Ok(()) => written += frame.len(),
            Err(_) => break, // jammed (or already evicted) — both are the point
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        written < jam_bound,
        "server never parked the connection's read side; accepted {written} bytes"
    );

    // The stall sweep (1 s heartbeat granularity) must evict the reader.
    let deadline = Instant::now() + Duration::from_secs(15);
    while handle.live_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "stalled connection still live after 15 s ({} tracked)",
            handle.live_connections()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server sheds the parasite, not its health.
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    assert_eq!(c.stats("t").unwrap().n, 3);
    drop(raw);
    handle.shutdown();
}

/// A server whose socket reads and writes fail on `seed`'s schedule.
fn faulted_server(
    dir: &std::path::Path,
    seed: u64,
) -> (Arc<QuantileService>, EventedHandle, Arc<FaultPlane>) {
    let plane = Arc::new(
        FaultPlane::new(seed)
            .with(FaultSite::SockWrite, FaultKind::Torn, 1, 5)
            .with(FaultSite::SockRead, FaultKind::Error, 1, 7),
    );
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap());
    let handle = serve_evented_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        EventedOptions {
            loops: 1,
            faults: Some(Arc::clone(&plane)),
            write_stall_timeout: Some(Duration::from_secs(5)),
        },
    )
    .unwrap();
    (service, handle, plane)
}

/// Socket-level chaos: with deterministic read/write faults injected at
/// the server's socket edges, a retrying client with idempotency tokens
/// still lands every batch exactly once — torn responses and dropped
/// connections surface as transport errors, never as duplicated or lost
/// ingest.
#[test]
fn injected_socket_faults_never_duplicate_or_lose_acked_batches() {
    for seed in [1u64, 2, 3] {
        let dir = TempDir::new("evented-chaos").unwrap();
        let (service, handle, plane) = faulted_server(dir.path(), seed);
        let policy = RetryPolicy {
            max_retries: 32,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            read_timeout: Duration::from_secs(5),
            seed,
            ..RetryPolicy::default()
        };
        let mut c = ReqBinClient::connect_with(handle.addr(), policy).unwrap();
        c.create("t", TenantConfig::for_key("t")).unwrap();
        let mut expected = 0u64;
        for i in 0..60u64 {
            let batch: Vec<f64> = (0..1 + i % 16).map(|j| (i * 10 + j) as f64).collect();
            assert_eq!(
                c.add_batch("t", &batch).unwrap(),
                batch.len() as u64,
                "seed {seed}, batch {i}"
            );
            expected += batch.len() as u64;
        }
        assert!(
            plane.injected() > 0,
            "seed {seed} injected nothing — chaos test is vacuous"
        );
        // Exactly-once: ground truth read straight off the service.
        assert_eq!(service.stats("t").unwrap().n, expected, "seed {seed}");
        assert_eq!(c.stats("t").unwrap().n, expected, "seed {seed}");
        handle.shutdown();
    }
}

/// The same chaos over raw text lines. Each tokened line is re-sent
/// verbatim, on a fresh connection, until a whole reply line arrives: a
/// torn reply (`OK 1` of `OK 12`) has no `\n` and counts as no answer.
/// Up to 16 values per batch, so a wrong count would show.
#[test]
fn injected_socket_faults_never_duplicate_or_lose_acked_batches_over_text() {
    fn until_answered(addr: SocketAddr, line: &str) -> String {
        for _ in 0..32 {
            let Ok(mut conn) = TcpStream::connect(addr) else {
                continue;
            };
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            if conn.write_all(format!("{line}\n").as_bytes()).is_err() {
                continue;
            }
            let mut reply = String::new();
            let _ = BufReader::new(conn).read_line(&mut reply);
            if let Some(reply) = reply.strip_suffix('\n') {
                return reply.to_string();
            }
        }
        panic!("`{line:.40}` unanswered after 32 attempts");
    }

    for seed in [1u64, 2, 3] {
        let dir = TempDir::new("evented-chaos-text").unwrap();
        let (service, handle, plane) = faulted_server(dir.path(), seed);
        let addr = handle.addr();
        assert_eq!(
            until_answered(addr, &format!("CREATE t TOKEN={seed}:0")),
            "OK created"
        );
        let mut acked = 0u64;
        for i in 0..60u64 {
            let line = text::encode_request(&Request::AddBatch {
                key: "t".into(),
                values: (0..1 + i % 16).map(|j| (i * 10 + j) as f64).collect(),
                token: Some(IdemToken {
                    client_id: seed,
                    seq: i + 1,
                }),
            });
            let want = 1 + i % 16;
            assert_eq!(
                until_answered(addr, &line),
                format!("OK {want}"),
                "seed {seed}, batch {i}"
            );
            acked += want;
        }
        assert!(
            plane.injected() > 0,
            "seed {seed} injected nothing — chaos test is vacuous"
        );
        assert_eq!(service.stats("t").unwrap().n, acked, "seed {seed}");
        let stats = until_answered(addr, "STATS t");
        assert!(
            stats.starts_with(&format!("OK n={acked} ")),
            "seed {seed}: {stats}"
        );
        handle.shutdown();
    }
}

/// Four clients ingest into one tenant at once, each through `ingest`,
/// and every value lands, durably.
fn concurrent_clients_share_a_tenant(ingest: fn(SocketAddr, &[f64])) {
    let dir = TempDir::new("evented").unwrap();
    let (service, handle) = start(dir.path(), 2);
    let addr = handle.addr();
    service
        .create("shared", req_service::TenantConfig::for_key("shared"))
        .unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                let values: Vec<f64> = (0..5_000).map(|i| (t * 5_000 + i) as f64).collect();
                ingest(addr, &values);
            });
        }
    });
    assert_eq!(service.stats("shared").unwrap().n, 20_000);
    let r = service.rank("shared", 10_000.0).unwrap();
    assert!((r as f64 - 10_001.0).abs() / 10_001.0 < 0.2, "rank {r}");
    handle.shutdown();
    drop(service);

    // Everything the concurrent clients wrote is durable.
    let (service, _handle) = start(dir.path(), 1);
    assert_eq!(service.stats("shared").unwrap().n, 20_000);
}

#[test]
fn concurrent_binary_clients_share_one_tenant() {
    concurrent_clients_share_a_tenant(|addr, values| {
        let mut c = ReqBinClient::connect(addr).unwrap();
        for chunk in values.chunks(250) {
            c.add_batch("shared", chunk).unwrap();
        }
    });
}

#[test]
fn concurrent_text_clients_share_one_tenant() {
    concurrent_clients_share_a_tenant(|addr, values| {
        let mut c = TextConn::connect(addr);
        for chunk in values.chunks(250) {
            assert_eq!(c.call(&addb("shared", chunk)), "OK 250");
        }
    });
}
