//! The one client: [`ReqBinClient`] speaks the binary codec to the server.
//!
//! Dialing and reconnecting, the [`RetryPolicy`] loop, `(client_id, seq)`
//! idempotency stamping and request pipelining are written once here. It
//! implements [`ClientApi`], so the typed method surface — `create`,
//! `add_batch`, `rank`, … — comes with it.
//!
//! [`ReqBinClient::call_pipelined`] writes a whole batch of requests in
//! one send, then collects the responses in order. The server answers
//! every complete message it finds per wake-up, so a pipelined batch costs
//! ~one round-trip instead of one per command.

use bytes::BytesMut;
use req_core::ReqError;
use req_service::client::{attach_token, fresh_client_id};
use req_service::protocol::binary;
use req_service::{ClientApi, ErrorKind, Request, Response, RetryPolicy};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// A blocking binary-codec client with [`RetryPolicy`]-driven
/// resilience: connect/read/write timeouts, reconnect-and-retry with
/// deterministic jittered backoff, and idempotency tokens auto-stamped
/// onto mutations so an ambiguous retry applies exactly once server-side.
#[derive(Debug)]
pub struct ReqBinClient {
    /// Reads are buffered; writes go straight to the socket. `None` after
    /// a transport failure, until the next send redials.
    conn: Option<BufReader<TcpStream>>,
    /// Requests sent but not yet answered.
    in_flight: usize,
    addr: SocketAddr,
    policy: RetryPolicy,
    client_id: u64,
    next_seq: u64,
}

impl ReqBinClient {
    /// Connect to the server at `addr` (e.g. `"127.0.0.1:7878"`) with the
    /// default [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ReqError> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connect with an explicit policy.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, ReqError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ReqError::InvalidParameter("address resolved to nothing".into()))?;
        let conn = Self::dial(&addr, &policy)?;
        Ok(ReqBinClient {
            conn: Some(conn),
            in_flight: 0,
            addr,
            policy,
            client_id: fresh_client_id(),
            next_seq: 1,
        })
    }

    fn dial(addr: &SocketAddr, policy: &RetryPolicy) -> Result<BufReader<TcpStream>, ReqError> {
        let stream = TcpStream::connect_timeout(addr, policy.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(policy.read_timeout))?;
        stream.set_write_timeout(Some(policy.write_timeout))?;
        Ok(BufReader::new(stream))
    }

    /// The id stamped into this client's idempotency tokens.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Send one request without waiting for the response, exactly as
    /// given (no token is stamped). Pair with
    /// [`ReqBinClient::read_response`].
    pub fn send(&mut self, req: &Request) -> Result<(), ReqError> {
        self.send_all(std::slice::from_ref(req))
    }

    /// Block until the response to the oldest unanswered request arrives.
    /// A reply cut short by the server closing is a [`ReqError::Io`],
    /// never a decoded answer.
    pub fn read_response(&mut self) -> Result<Response, ReqError> {
        let (true, Some(conn)) = (self.in_flight > 0, self.conn.as_mut()) else {
            return Err(ReqError::InvalidParameter(
                "no request is awaiting a response".into(),
            ));
        };
        self.in_flight -= 1;
        let result = binary::read_frame_blocking(conn).and_then(binary::decode_response);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    /// Issue a batch of requests as one pipelined write, then read the
    /// responses back in request order. Transport errors abort the whole
    /// batch (no auto-retry — half-read pipelines are not resumable);
    /// per-request failures come back as [`Response::Err`] in their slot.
    /// Mutations still get tokens stamped, so the caller may re-issue the
    /// same batch and the server dedups whatever already applied.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ReqError> {
        let mut stamped = reqs.to_vec();
        for req in &mut stamped {
            attach_token(req, self.client_id, &mut self.next_seq);
        }
        self.send_all(&stamped)?;
        reqs.iter().map(|_| self.read_response()).collect()
    }

    /// Encode `reqs` into one buffer and write it, redialing first if the
    /// last attempt dropped the connection.
    fn send_all(&mut self, reqs: &[Request]) -> Result<(), ReqError> {
        let mut out = BytesMut::new();
        for req in reqs {
            binary::write_request(&mut out, req);
        }
        if self.conn.is_none() {
            self.conn = Some(Self::dial(&self.addr, &self.policy)?);
        }
        let conn = self.conn.as_mut().expect("just dialed");
        if let Err(e) = conn.get_mut().write_all(&out) {
            self.disconnect();
            return Err(e.into());
        }
        self.in_flight += reqs.len();
        Ok(())
    }

    fn disconnect(&mut self) {
        self.conn = None;
        self.in_flight = 0;
    }
}

impl ClientApi for ReqBinClient {
    fn call(&mut self, req: &Request) -> Result<Response, ReqError> {
        let mut req = req.clone();
        attach_token(&mut req, self.client_id, &mut self.next_seq);
        let mut attempt = 0u32;
        loop {
            let result = self.send(&req).and_then(|()| self.read_response());
            match result {
                // `Busy` (shed) and `Unavailable` (read-only) replies had
                // no side effect; read-only heals on the next snapshot
                // rotation. An `Io` reply or a transport failure is
                // ambiguous (the record may or may not have reached the
                // WAL), but every mutation carries a token by now, so the
                // dedup window applies a re-send once; queries are
                // naturally idempotent.
                Ok(Response::Err {
                    kind: ErrorKind::Busy | ErrorKind::Unavailable | ErrorKind::Io,
                    msg: _,
                })
                | Err(ReqError::Io(_))
                    if attempt < self.policy.max_retries => {}
                result => return result,
            }
            std::thread::sleep(self.policy.backoff(attempt));
            attempt += 1;
        }
    }
}
