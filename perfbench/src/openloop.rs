//! Open-loop load generator: one thread, one connection.
//!
//! Each request has an *intended* send time fixed before the run. The
//! generator writes a request as soon as it is due — whether or not
//! earlier replies have arrived — and reads replies in between. Latency
//! is measured from the intended send time to the moment the reply is
//! read, so a stall in the server also charges every request that was
//! due while it lasted (no coordinated omission). How late the generator
//! itself was in sending is reported separately.
//!
//! Between events the generator sleeps in `ppoll` until a reply arrives
//! or the next request is due, with its timer slack cut to 1 µs. It
//! neither spins (which starves the server of a core on a small host)
//! nor oversleeps (socket timeouts round to scheduler ticks).

use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;
use req_core::ReqError;
use req_service::protocol::binary;
use req_service::Response;

/// One request of the schedule, already encoded as a binary frame.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Intended send time, from the start of the run.
    pub due: Duration,
    /// The complete request frame.
    pub frame: Bytes,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Intended send time to reply read, nanoseconds.
    pub latency_ns: u64,
    /// Intended send time to actual hand-off to the socket, nanoseconds.
    pub late_ns: u64,
    /// The decoded reply.
    pub response: Response,
}

/// A finished open-loop run.
#[derive(Debug)]
pub struct Report {
    /// One outcome per scheduled request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Wall time from start to the last reply.
    pub elapsed: Duration,
}

/// Run `schedule` (sorted by `due`) over `stream` and collect every reply.
/// Replies are matched to requests in order: one connection keeps order.
pub fn run(stream: &mut TcpStream, schedule: &[Scheduled]) -> Result<Report, ReqError> {
    crate::sys::tighten_timer_slack();
    stream.set_nonblocking(true)?;
    let result = drive(stream, schedule);
    stream.set_nonblocking(false)?;
    result
}

fn drive(stream: &mut TcpStream, schedule: &[Scheduled]) -> Result<Report, ReqError> {
    let n = schedule.len();
    let mut late = vec![0u64; n];
    let mut outcomes = Vec::with_capacity(n);
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut parsed = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let start = Instant::now();
    while outcomes.len() < n {
        let mut progressed = false;
        let now = start.elapsed();
        while next < n && schedule[next].due <= now {
            out.extend_from_slice(&schedule[next].frame);
            late[next] = (now - schedule[next].due).as_nanos() as u64;
            next += 1;
        }
        if written < out.len() {
            match stream.write(&out[written..]) {
                Ok(k) => {
                    written += k;
                    progressed = k > 0;
                }
                Err(e) if e.kind() == IoKind::WouldBlock => {}
                Err(e) => return Err(e.into()),
            }
            if written == out.len() {
                out.clear();
                written = 0;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(ReqError::Io(format!(
                    "server closed the connection after {} of {n} replies",
                    outcomes.len()
                )))
            }
            Ok(k) => {
                let read_at = start.elapsed();
                inbuf.extend_from_slice(&chunk[..k]);
                progressed = true;
                while let Some((payload, used)) = binary::try_deframe(&inbuf, parsed)? {
                    parsed += used;
                    let i = outcomes.len();
                    if i >= next {
                        return Err(ReqError::CorruptBytes("reply to an unsent request".into()));
                    }
                    outcomes.push(Outcome {
                        latency_ns: (read_at - schedule[i].due).as_nanos() as u64,
                        late_ns: late[i],
                        response: binary::decode_response(payload)?,
                    });
                }
                if parsed == inbuf.len() {
                    inbuf.clear();
                    parsed = 0;
                }
            }
            Err(e) if e.kind() == IoKind::WouldBlock => {}
            Err(e) => return Err(e.into()),
        }
        if !progressed {
            idle(stream, schedule.get(next).map(|s| s.due), start)?;
        }
    }
    Ok(Report {
        outcomes,
        elapsed: start.elapsed(),
    })
}

/// Nothing to send or read: if the next request is far off, sleep in
/// `ppoll` until a reply arrives or it is nearly due; otherwise yield the
/// core once and poll again, so a due request or a reply is seen within
/// microseconds without starving the server of a core.
fn idle(stream: &TcpStream, next_due: Option<Duration>, start: Instant) -> Result<(), ReqError> {
    let wait = next_due.map_or(SPIN_HORIZON * 2, |due| due.saturating_sub(start.elapsed()));
    if wait > SPIN_HORIZON {
        crate::sys::wait_readable(stream, wait - SPIN_HORIZON)?;
    } else {
        std::thread::yield_now();
    }
    Ok(())
}

/// Waits shorter than this are spent yielding rather than sleeping.
const SPIN_HORIZON: Duration = Duration::from_micros(200);

/// Closed-loop replay of the same frames: each request is sent only after
/// the previous reply arrived. Returns requests completed per second — the
/// capacity an open-loop rate is chosen against.
pub fn closed_loop_rate(stream: &mut TcpStream, schedule: &[Scheduled]) -> Result<f64, ReqError> {
    let start = Instant::now();
    for s in schedule {
        stream.write_all(&s.frame)?;
        binary::decode_response(binary::read_frame_blocking(stream)?)?;
    }
    Ok(schedule.len() as f64 / start.elapsed().as_secs_f64())
}
