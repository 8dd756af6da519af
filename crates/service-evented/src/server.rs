//! The event loop: per-connection state machines over oneshot readiness.
//!
//! Each loop thread owns a `polling::Poller`, a clone of the shared
//! listener (key 0, so the kernel load-balances accepts across loops),
//! and a map of connections. A connection is two buffers and a cursor
//! pair: bytes read but not yet parsed, bytes rendered but not yet
//! written. One readiness wake-up drains the socket, parses every
//! complete message (that is the pipelining — many requests per
//! wake-up), executes them through [`req_service::execute()`], appends the
//! responses, and flushes until the socket pushes back. A binary reply is
//! encoded straight into the write buffer ([`binary::write_response`]),
//! so a shipped sketch part or WAL slice is copied once after it is
//! encoded: into the frame the socket reads from.
//!
//! Both codecs share one port. A connection picks its codec once, from
//! its fourth byte: a binary frame's little-endian length is capped at
//! [`binary::MAX_MESSAGE_PAYLOAD`] (8 MiB), so its high byte is zero,
//! while every text verb line has a nonzero fourth byte. Until four bytes
//! arrive the connection waits; after the choice both codecs run the same
//! loop.
//!
//! Fault taxonomy, by layer:
//!
//! * **Transport fault** (binary: an oversized length prefix or a CRC
//!   mismatch; text: a line over [`text::MAX_LINE_BYTES`]) — the server
//!   answers with one typed error and closes; nothing after the damage
//!   can be trusted.
//! * **Request fault** (a whole frame or line that fails to decode, or a
//!   request that fails) — a typed [`Response::Err`] for *that* message;
//!   the connection lives on.
//!
//! A message exists only whole: at EOF, complete messages are still
//! answered and an unterminated tail is discarded, never executed.
//!
//! Backpressure: while a connection's pending write buffer exceeds
//! [`MAX_WRITE_BACKLOG`], the loop stops arming its read side — a client
//! that pipelines faster than it drains responses throttles itself
//! instead of ballooning server memory.

use bytes::{Buf, BufMut, BytesMut};
use polling::{Event, Events, Poller};
use req_core::ReqError;
use req_service::faults::{Fault, FaultPlane, FaultSite};
use req_service::protocol::{binary, text};
use req_service::{execute, QuantileService, Request, Response};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pending response bytes above which a connection's read side is parked
/// until the client drains responses (16 MiB).
pub const MAX_WRITE_BACKLOG: usize = 16 * 1024 * 1024;

const LISTENER_KEY: usize = 0;

/// Cached handles into the global telemetry registry, built once per
/// event loop (registration is the cold path; the loop body touches only
/// handle atomics). All loops in a process share the same series.
struct LoopTelemetry {
    /// Time from a readiness wake-up to the loop having drained it.
    wakeup_micros: req_telemetry::Histogram,
    /// Complete frames executed per wake-up — the pipelining win.
    frames_per_wakeup: req_telemetry::Histogram,
    live_connections: req_telemetry::Gauge,
    accepts: req_telemetry::Counter,
    /// Read-interest parks under [`MAX_WRITE_BACKLOG`] backpressure.
    backpressure_parks: req_telemetry::Counter,
    /// High-water pending response bytes on any one connection.
    write_backlog_bytes: req_telemetry::Gauge,
    stall_evictions: req_telemetry::Counter,
}

impl LoopTelemetry {
    fn new() -> LoopTelemetry {
        let t = req_telemetry::global();
        LoopTelemetry {
            wakeup_micros: t.histogram("evented_wakeup_micros"),
            frames_per_wakeup: t.histogram("evented_frames_per_wakeup"),
            live_connections: t.gauge("evented_live_connections"),
            accepts: t.counter("evented_accepts_total"),
            backpressure_parks: t.counter("evented_backpressure_parks_total"),
            write_backlog_bytes: t.gauge("evented_write_backlog_bytes"),
            stall_evictions: t.counter("evented_stall_evictions_total"),
        }
    }
}

/// Knobs for [`serve_evented_with`] beyond the bind address.
#[derive(Debug, Clone, Default)]
pub struct EventedOptions {
    /// Event-loop threads (clamped to `1..=8`; 0 means 1).
    pub loops: usize,
    /// Fault plane interposed on this server's socket reads/writes
    /// (`SockRead`/`SockWrite` sites) for deterministic chaos tests.
    pub faults: Option<Arc<FaultPlane>>,
    /// Close a connection whose pending responses made no progress for
    /// this long (a never-draining reader would otherwise pin its
    /// [`MAX_WRITE_BACKLOG`] of memory forever). Swept after every
    /// wake-up; the loop's 1 s heartbeat only bounds how late the sweep
    /// can act.
    pub write_stall_timeout: Option<Duration>,
}

/// The codec a connection speaks, picked once from its fourth byte.
#[derive(Clone, Copy)]
enum Wire {
    Text,
    Binary,
}

/// One step of framing a connection's read buffer.
enum Next {
    /// No complete message is buffered yet.
    More,
    /// A blank text line: consumed, not answered.
    Blank,
    /// One whole message: its request, or the error it failed to decode
    /// with (answered; the connection lives).
    Message(Result<Request, ReqError>),
    /// The stream cannot be framed past here: answer, then close.
    Fatal(ReqError),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// `None` until four bytes have arrived.
    wire: Option<Wire>,
    /// Bytes received; `[parsed..]` is the unconsumed tail.
    read_buf: Vec<u8>,
    /// Offset of the first unparsed byte in `read_buf`.
    parsed: usize,
    /// Text only: `read_buf[parsed..scanned]` holds no `\n`, so each
    /// wake-up scans just the new bytes and a multi-MiB line arriving in
    /// pieces costs linear time, not quadratic.
    scanned: usize,
    /// Response bytes not yet accepted by the socket.
    write_buf: BytesMut,
    /// Offset of the first unwritten byte in `write_buf`.
    written: usize,
    /// Close once `write_buf` drains (after `QUIT`, a transport fault,
    /// or client EOF).
    close_after_flush: bool,
    /// Last time the write side progressed (or had nothing pending) —
    /// the write-stall sweep's clock.
    last_progress: Instant,
    /// Read interest currently parked under backlog backpressure (so the
    /// park is counted on the transition, not on every re-arm).
    parked: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            wire: None,
            read_buf: Vec::new(),
            parsed: 0,
            scanned: 0,
            write_buf: BytesMut::new(),
            written: 0,
            close_after_flush: false,
            last_progress: Instant::now(),
            parked: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Frame the next message out of the read buffer.
    fn next_message(&mut self) -> Next {
        let wire = match (self.wire, self.read_buf.get(3)) {
            (Some(wire), _) => wire,
            (None, None) => return Next::More,
            (None, Some(0)) => *self.wire.insert(Wire::Binary),
            (None, Some(_)) => *self.wire.insert(Wire::Text),
        };
        match wire {
            Wire::Binary => match binary::try_deframe(&self.read_buf, self.parsed) {
                Ok(Some((payload, used))) => {
                    self.parsed += used;
                    Next::Message(binary::decode_request(payload))
                }
                Ok(None) => Next::More,
                Err(e) => Next::Fatal(e),
            },
            Wire::Text => self.next_line(),
        }
    }

    fn next_line(&mut self) -> Next {
        let too_long = || {
            Next::Fatal(ReqError::InvalidParameter(format!(
                "request line exceeds {} bytes",
                text::MAX_LINE_BYTES
            )))
        };
        let start = self.scanned.max(self.parsed);
        let Some(newline) = self.read_buf[start..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.read_buf.len();
            if self.read_buf.len() - self.parsed >= text::MAX_LINE_BYTES {
                return too_long();
            }
            return Next::More;
        };
        let end = start + newline + 1;
        let line = &self.read_buf[self.parsed..end];
        self.parsed = end;
        if line.len() > text::MAX_LINE_BYTES {
            return too_long();
        }
        match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => Next::Blank,
            Ok(line) => Next::Message(text::decode_request(line)),
            Err(_) => Next::Message(Err(ReqError::InvalidParameter(
                "request line is not UTF-8".into(),
            ))),
        }
    }

    fn push_response(&mut self, resp: &Response) {
        match self.wire {
            Some(Wire::Text) => {
                self.write_buf
                    .put_slice(text::encode_response(resp).as_bytes());
                self.write_buf.put_u8(b'\n');
            }
            _ => binary::write_response(&mut self.write_buf, resp),
        }
    }
}

/// Handle to a running evented server; stops and joins the loops on drop.
#[derive(Debug)]
pub struct EventedHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pollers: Vec<Arc<Poller>>,
    live_conns: Arc<AtomicU64>,
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl EventedHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held open across all loops.
    pub fn live_connections(&self) -> u64 {
        self.live_conns.load(Ordering::Relaxed)
    }

    /// Stop the loops, close every connection, and join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.loops.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventedHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` and serve `service` over both codecs on `loops`
/// event-loop threads (clamped to `1..=8`; one loop drives thousands of
/// connections, more only help past one saturated core).
pub fn serve_evented(
    service: Arc<QuantileService>,
    addr: &str,
    loops: usize,
) -> Result<EventedHandle, ReqError> {
    serve_evented_with(
        service,
        addr,
        EventedOptions {
            loops,
            ..EventedOptions::default()
        },
    )
}

/// [`serve_evented`] with the full option set (socket fault injection,
/// write-stall eviction).
pub fn serve_evented_with(
    service: Arc<QuantileService>,
    addr: &str,
    opts: EventedOptions,
) -> Result<EventedHandle, ReqError> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live_conns = Arc::new(AtomicU64::new(0));
    let loops_n = opts.loops.clamp(1, 8);
    let mut pollers = Vec::with_capacity(loops_n);
    let mut threads = Vec::with_capacity(loops_n);
    for _ in 0..loops_n {
        let poller = Arc::new(Poller::new().map_err(ReqError::from)?);
        let listener = listener.try_clone()?;
        poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(ReqError::from)?;
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let live = Arc::clone(&live_conns);
        let thread_poller = Arc::clone(&poller);
        let opts = opts.clone();
        pollers.push(poller);
        threads.push(std::thread::spawn(move || {
            event_loop(thread_poller, listener, service, stop, live, opts);
        }));
    }
    Ok(EventedHandle {
        addr: local,
        stop,
        pollers,
        live_conns,
        loops: threads,
    })
}

fn event_loop(
    poller: Arc<Poller>,
    listener: TcpListener,
    service: Arc<QuantileService>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicU64>,
    opts: EventedOptions,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER_KEY + 1;
    let mut events = Events::new();
    let faults = opts.faults.as_deref();
    let telemetry = LoopTelemetry::new();
    let mut wakeups: u64 = 0;
    loop {
        // The timeout is only a heartbeat fallback (stop flag + stall
        // sweep); notify() wakes the wait promptly on shutdown.
        if poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .is_err()
        {
            break;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Span one wake-up's full drain; recorded only when the wake-up
        // carried readiness (heartbeat ticks would drown the signal), and
        // only for one wake-up in eight — two clock reads plus two
        // histogram inserts per drain cost a measurable slice of a small
        // round trip, and a uniform sample estimates the same latency
        // distribution while the exact counters stay untouched.
        let wake_timer = if wakeups & 7 == 0 {
            Some(telemetry.wakeup_micros.begin())
        } else {
            None
        };
        let mut frames: u64 = 0;
        let mut saw_event = false;
        for ev in events.iter() {
            saw_event = true;
            if ev.key == LISTENER_KEY {
                accept_burst(
                    &poller,
                    &listener,
                    &mut conns,
                    &mut next_key,
                    &live,
                    &telemetry,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue; // already closed this iteration
            };
            let alive = drive(conn, &service, ev, faults, &mut frames);
            if alive {
                rearm(&poller, ev.key, conn, &telemetry);
            } else {
                let conn = conns.remove(&ev.key).expect("checked above");
                let _ = poller.delete(&conn.stream);
                live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if saw_event {
            if let Some(timer) = wake_timer {
                telemetry.wakeup_micros.finish(timer);
                if frames > 0 {
                    telemetry.frames_per_wakeup.observe(frames);
                }
            }
            wakeups = wakeups.wrapping_add(1);
        }
        telemetry.live_connections.set(live.load(Ordering::Relaxed));
        // Evict connections whose pending responses made no progress
        // within the stall budget — the explicit close path for a reader
        // that parked its own read side via the backlog cap and never
        // drains (the oneshot interest would otherwise idle forever).
        if let Some(stall) = opts.write_stall_timeout {
            let now = Instant::now();
            let stalled: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| {
                    c.pending_write() > 0 && now.duration_since(c.last_progress) > stall
                })
                .map(|(&k, _)| k)
                .collect();
            for key in stalled {
                let conn = conns.remove(&key).expect("collected above");
                let _ = poller.delete(&conn.stream);
                live.fetch_sub(1, Ordering::Relaxed);
                telemetry.stall_evictions.inc();
                req_telemetry::global().event(
                    "write_stall_evicted",
                    format!("pending={} bytes", conn.pending_write()),
                );
            }
        }
    }
    // Shutdown: drop every connection (clients see EOF/RST) and the
    // listener registration.
    for (_, conn) in conns.drain() {
        let _ = poller.delete(&conn.stream);
        live.fetch_sub(1, Ordering::Relaxed);
    }
    let _ = poller.delete(&listener);
}

fn accept_burst(
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    live: &AtomicU64,
    telemetry: &LoopTelemetry,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                if poller.add(&stream, Event::readable(key)).is_err() {
                    continue; // fd pressure; drop the connection
                }
                conns.insert(key, Conn::new(stream));
                live.fetch_add(1, Ordering::Relaxed);
                telemetry.accepts.inc();
            }
            // WouldBlock = burst drained; anything else (EMFILE, reset
            // races) is per-accept and must not kill the loop.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    let _ = poller.modify(listener, Event::readable(LISTENER_KEY));
}

/// Advance one connection as far as the socket allows. Returns `false`
/// when the connection is finished and must be dropped.
fn drive(
    conn: &mut Conn,
    service: &QuantileService,
    ev: Event,
    faults: Option<&FaultPlane>,
    frames: &mut u64,
) -> bool {
    if ev.readable && !conn.close_after_flush {
        match faults.map_or(Fault::None, |p| p.next(FaultSite::SockRead)) {
            // A stalled read: no progress this readiness turn — exactly
            // what a peer that stops sending mid-frame looks like.
            Fault::Stall => return true,
            // A read-side error: the kernel gave up on the connection.
            Fault::Error | Fault::Torn { .. } => {
                conn.close_after_flush = true;
                return conn.pending_write() > 0;
            }
            Fault::Delay(ms) => std::thread::sleep(Duration::from_millis(u64::from(ms))),
            Fault::None => {}
        }
        let open = fill(conn);
        // Messages completed before EOF are still answered; an
        // unterminated tail is dropped with the connection.
        *frames += parse_and_execute(conn, service);
        if !open {
            conn.close_after_flush = true;
        }
    }
    if !flush(conn, faults) {
        return false;
    }
    !(conn.close_after_flush && conn.pending_write() == 0)
}

/// Read until `WouldBlock`. Returns `false` on EOF or a socket error
/// (the connection delivers nothing more).
fn fill(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Parse every complete message in the read buffer and execute it; this
/// loop is where pipelined requests all get served off one wake-up.
/// Returns the number of messages handled (the per-wakeup pipelining
/// width the telemetry histograms record).
fn parse_and_execute(conn: &mut Conn, service: &QuantileService) -> u64 {
    let mut handled = 0u64;
    while !conn.close_after_flush {
        let resp = match conn.next_message() {
            Next::More => break,
            Next::Blank => continue,
            // Transport fault: answer with the typed error, then drop
            // the connection once it flushes.
            Next::Fatal(e) => {
                conn.close_after_flush = true;
                Response::from_error(&e)
            }
            Next::Message(Ok(req)) => {
                handled += 1;
                conn.close_after_flush = matches!(req, Request::Quit);
                execute(service, req)
            }
            // A whole message with a bad payload: a request-level fault —
            // answer it, keep the connection.
            Next::Message(Err(e)) => {
                handled += 1;
                Response::from_error(&e)
            }
        };
        conn.push_response(&resp);
    }
    // Reclaim the consumed prefix once it dominates the buffer.
    if conn.parsed > 4096 && conn.parsed * 2 >= conn.read_buf.len() {
        conn.read_buf.drain(..conn.parsed);
        conn.scanned = conn.scanned.saturating_sub(conn.parsed);
        conn.parsed = 0;
    }
    handled
}

/// Write until `WouldBlock` or drained. Returns `false` on a dead socket.
/// Injected write faults model a peer that vanishes mid-frame (`Error`,
/// `Torn` — the prefix goes out, then the connection dies) or a congested
/// uplink (`Stall`, `Delay`).
fn flush(conn: &mut Conn, faults: Option<&FaultPlane>) -> bool {
    let pending = conn.pending_write();
    let mut torn_budget: Option<usize> = None;
    if pending > 0 {
        match faults.map_or(Fault::None, |p| p.next_sized(FaultSite::SockWrite, pending)) {
            Fault::Error => return false,
            Fault::Torn { keep } => torn_budget = Some(keep),
            Fault::Stall => return true,
            Fault::Delay(ms) => std::thread::sleep(Duration::from_millis(u64::from(ms))),
            Fault::None => {}
        }
    }
    while conn.written < conn.write_buf.len() {
        let mut end = conn.write_buf.len();
        if let Some(budget) = torn_budget {
            end = end.min(conn.written + budget);
            if end == conn.written {
                return false; // prefix sent; the connection now dies
            }
        }
        match conn.stream.write(&conn.write_buf[conn.written..end]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.written += n;
                conn.last_progress = Instant::now();
                if let Some(budget) = &mut torn_budget {
                    *budget -= n;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
        conn.last_progress = Instant::now();
    } else if conn.written > 4096 && conn.written * 2 >= conn.write_buf.len() {
        conn.write_buf.advance(conn.written);
        conn.written = 0;
    }
    true
}

/// Re-arm the oneshot interest for whatever the connection still needs.
fn rearm(poller: &Poller, key: usize, conn: &mut Conn, telemetry: &LoopTelemetry) {
    let pending = conn.pending_write();
    let wants_write = pending > 0;
    telemetry.write_backlog_bytes.set_max(pending as u64);
    // Backpressure: a client pipelining faster than it reads responses
    // loses its read interest until the backlog drains. Count parks on
    // the transition only, so a long park is one event, not thousands.
    let parked = pending > MAX_WRITE_BACKLOG;
    if parked && !conn.parked {
        telemetry.backpressure_parks.inc();
        req_telemetry::global().event(
            "backpressure_park",
            format!("pending={pending} bytes > {MAX_WRITE_BACKLOG} cap"),
        );
    }
    conn.parked = parked;
    let wants_read = !conn.close_after_flush && !parked;
    let interest = Event {
        key,
        readable: wants_read,
        writable: wants_write,
    };
    let _ = poller.modify(&conn.stream, interest);
}
