//! Coordinated omission cannot hide a stall: when the server holds one
//! reply back on purpose, every request queued behind it must be charged
//! the wait, because latency runs from each request's *intended* send time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use perfbench::openloop::{self, Scheduled};
use req_service::protocol::binary;
use req_service::{Request, Response};

const REQUESTS: usize = 120;
const GAP: Duration = Duration::from_millis(1);
const STALL_AT: usize = 20;
const STALL: Duration = Duration::from_millis(60);

/// Answer every `PING` in order, sleeping `STALL` before the reply to
/// request `STALL_AT`.
fn stalling_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        let mut parsed = 0;
        let mut chunk = [0u8; 4096];
        let mut answered = 0;
        while answered < REQUESTS {
            let k = conn.read(&mut chunk).expect("read");
            assert!(k > 0, "client hung up early");
            buf.extend_from_slice(&chunk[..k]);
            while let Some((payload, used)) = binary::try_deframe(&buf, parsed).expect("frame") {
                parsed += used;
                assert_eq!(
                    binary::decode_request(payload).expect("request"),
                    Request::Ping
                );
                if answered == STALL_AT {
                    std::thread::sleep(STALL);
                }
                conn.write_all(&binary::encode_response(&Response::Pong))
                    .expect("write");
                answered += 1;
            }
        }
    })
}

#[test]
fn a_held_reply_charges_every_request_queued_behind_it() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = stalling_server(listener);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let ping = binary::encode_request(&Request::Ping);
    let schedule: Vec<Scheduled> = (0..REQUESTS)
        .map(|i| Scheduled {
            due: GAP * i as u32,
            frame: ping.clone(),
        })
        .collect();

    let report = openloop::run(&mut stream, &schedule).expect("run");
    server.join().expect("server thread");

    assert_eq!(report.outcomes.len(), REQUESTS);
    assert!(report.outcomes.iter().all(|o| o.response == Response::Pong));
    let stall_end = schedule[STALL_AT].due + STALL;
    let latency = |i: usize| Duration::from_nanos(report.outcomes[i].latency_ns);

    // The held request waits the whole stall.
    assert!(
        latency(STALL_AT) >= STALL,
        "held request {:?}",
        latency(STALL_AT)
    );
    // Every request due during the stall is charged from its due time to
    // the end of the stall at least: its reply queued behind the held one.
    let mut behind = 0;
    for (i, s) in schedule.iter().enumerate().skip(STALL_AT + 1) {
        if s.due >= stall_end {
            break;
        }
        behind += 1;
        assert!(
            latency(i) >= stall_end - s.due,
            "request {i} due {:?} measured {:?}, stall ended at {stall_end:?}",
            s.due,
            latency(i)
        );
    }
    assert!(
        behind >= 50,
        "only {behind} requests queued behind the stall"
    );
    // The generator kept to its schedule during the stall: it sent on
    // time rather than waiting for the held reply, and it says so.
    let mut late: Vec<u64> = report.outcomes.iter().map(|o| o.late_ns).collect();
    late.sort_unstable();
    let late_p99 = Duration::from_nanos(late[late.len() * 99 / 100]);
    assert!(late_p99 < STALL / 4, "generator ran {late_p99:?} late");
    // A closed loop would have charged the stall to the held request
    // alone; the open loop charges half the stall or more to every request
    // due in its first half.
    let slowed = report
        .outcomes
        .iter()
        .filter(|o| Duration::from_nanos(o.latency_ns) >= STALL / 2)
        .count();
    assert!(slowed >= 25, "only {slowed} requests saw the stall");
}
