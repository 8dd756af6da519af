//! The shipped binaries, end to end: `req-server` serves both codecs on
//! one port, `req-cli` takes text commands and prints text replies, a
//! [`ReqBinClient`] drives the same port, a raw `PING` line is answered in
//! text, and a server killed with SIGKILL comes back on the same data
//! directory with identical answers.

use req_evented::ReqBinClient;
use req_service::tempdir::TempDir;
use req_service::ClientApi;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A running `req-server` child process, SIGKILLed on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_req-server"))
            .arg("--data-dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn req-server");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim_end()
            .strip_prefix("req-server: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
            .parse()
            .expect("banner address");
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `Child::kill` is SIGKILL: no shutdown path runs.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `req-cli --addr ADDR args…` → (stdout, stderr, exit code).
fn cli(addr: SocketAddr, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_req-cli"))
        .arg("--addr")
        .arg(addr.to_string())
        .args(args)
        .output()
        .expect("run req-cli");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code(),
    )
}

/// A `req-cli` call that must succeed; returns its stdout.
fn ok(addr: SocketAddr, args: &[&str]) -> String {
    let (out, err, code) = cli(addr, args);
    assert_eq!(code, Some(0), "req-cli {args:?} failed: {err}");
    out
}

#[test]
fn shipped_server_serves_both_codecs_and_recovers_from_sigkill() {
    let dir = TempDir::new("bins").unwrap();
    let server = Server::start(dir.path());

    // The text codec, straight from a socket.
    let mut raw = TcpStream::connect(server.addr).unwrap();
    raw.write_all(b"PING\n").unwrap();
    let mut pong = String::new();
    BufReader::new(raw).read_line(&mut pong).unwrap();
    assert_eq!(pong, "OK pong\n");

    // The CLI: payloads print without the `OK`.
    assert_eq!(
        ok(server.addr, &["CREATE", "lat", "K=16", "HRA"]),
        "created\n"
    );
    assert_eq!(
        ok(
            server.addr,
            &["ADDB", "lat", "12.5", "100.25", "7.5", "88.1", "3.2"]
        ),
        "5\n"
    );
    assert_eq!(ok(server.addr, &["ADDB", "lat", "50"]), "1\n");
    assert_eq!(ok(server.addr, &["PING"]), "pong\n");

    // Binary, on the same port.
    let mut bin = ReqBinClient::connect(server.addr).unwrap();
    let values: Vec<f64> = (0..5_000).map(|i| (i * 7_919 % 10_007) as f64).collect();
    for chunk in values.chunks(500) {
        bin.add_batch("lat", chunk).unwrap();
    }
    assert_eq!(bin.stats("lat").unwrap().n, 5_006);

    let median = ok(server.addr, &["QUANTILE", "lat", "0.5"]);
    let rank = ok(server.addr, &["RANK", "lat", "5000"]);
    let stats = ok(server.addr, &["STATS", "lat"]);
    assert!(stats.starts_with("n=5006 "), "{stats}");
    assert_eq!(
        median,
        format!("{}\n", bin.quantile("lat", 0.5).unwrap().unwrap())
    );
    assert!(ok(server.addr, &["metrics"]).contains("evented_accepts_total"));

    // Failures print `error: …` and exit 1: a remote error, then a line
    // that fails to parse before anything is sent.
    for args in [&["RANK", "ghost", "1"][..], &["ADDB", "lat"][..]] {
        let (out, err, code) = cli(server.addr, args);
        assert_eq!((out.as_str(), code), ("", Some(1)), "req-cli {args:?}");
        assert!(err.starts_with("error: invalid"), "req-cli {args:?}: {err}");
    }
    drop(bin);

    // SIGKILL, then restart on the same directory: the WAL alone must
    // reproduce every answer.
    drop(server);
    let server = Server::start(dir.path());
    assert_eq!(ok(server.addr, &["QUANTILE", "lat", "0.5"]), median);
    assert_eq!(ok(server.addr, &["RANK", "lat", "5000"]), rank);
    assert_eq!(ok(server.addr, &["STATS", "lat"]), stats);
    let mut bin = ReqBinClient::connect(server.addr).unwrap();
    assert_eq!(
        format!("{}\n", bin.quantile("lat", 0.5).unwrap().unwrap()),
        median
    );
    assert_eq!(bin.stats("lat").unwrap().n, 5_006);
}
