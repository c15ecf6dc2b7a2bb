//! A blocking client for the wire protocol with a **pipelined** API:
//! the classic call-and-wait methods ([`Client::query`],
//! [`Client::commit`], [`Client::stats`]) plus a send/receive split
//! ([`Client::send_query`] → [`Client::recv_query`], and batched
//! [`Client::query_many`]) that keeps many requests in flight on one
//! connection.
//!
//! Responses may arrive **out of order** (the server answers `Stats`
//! out of band, ahead of queued queries), so every receive matches by
//! request id: frames for other outstanding requests are parked in a
//! held-responses map and handed out when their turn comes.
//!
//! # Pipelining, worked example
//!
//! ```no_run
//! use rbat::Value;
//! use rcy_server::Client;
//!
//! # fn main() -> Result<(), rcy_server::ClientError> {
//! let mut client = Client::connect("127.0.0.1:4444")?; // handshakes v2
//!
//! // Ship three queries without waiting for any answer ...
//! let a = client.send_query("count_range", &[Value::Int(0), Value::Int(100)])?;
//! let b = client.send_query("count_range", &[Value::Int(50), Value::Int(150)])?;
//! let c = client.send_query("count_range", &[Value::Int(0), Value::Int(500)])?;
//!
//! // ... and collect them in any order you like: each recv matches its
//! // request id, parking frames that belong to the others.
//! let rc = client.recv_query(c)?;
//! let ra = client.recv_query(a)?;
//! let rb = client.recv_query(b)?;
//! println!("{:?} {:?} {:?}", ra.exports, rb.exports, rc.exports);
//!
//! // Or batched: one flush, all in flight together.
//! let params: Vec<Vec<Value>> = (0..8).map(|i| vec![Value::Int(i), Value::Int(i + 40)]).collect();
//! let batch: Vec<(&str, &[Value])> =
//!     params.iter().map(|p| ("count_range", p.as_slice())).collect();
//! for result in client.query_many(&batch)? {
//!     println!("n = {:?}", result.exports[0].1);
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rbat::Value;

use crate::protocol::{
    decode_response, encode_request, read_frame, ProtoError, QueryResult, Request, Response,
    MAX_FRAME, PROTOCOL_VERSION,
};

/// Client-side request failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport / framing / decoding failure.
    Proto(ProtoError),
    /// The server turned the connection away (admission control).
    Busy(String),
    /// The server executed the request and reported an error.
    Remote(String),
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Busy(r) => write!(f, "server busy: {r}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Proto(e.into())
    }
}

/// Retry discipline for [`Client::connect_with_retry`]: up to `attempts`
/// connection attempts, sleeping an exponentially growing, jittered
/// backoff between them. The jitter is a deterministic xorshift stream
/// seeded by `seed`, so a fleet of clients started from distinct seeds
/// de-synchronises (no thundering herd on a recovering server) while any
/// single run stays exactly reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum connection attempts (≥ 1; 0 behaves as 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Ceiling on any one backoff sleep (pre-jitter).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 1,
        }
    }
}

/// One connection to a [`crate::Server`], speaking protocol v2: the
/// constructor performs the `Hello` handshake (which is also where a
/// `Busy` rejection surfaces), and every request carries an id so
/// multiple requests can ride the connection concurrently — see the
/// [module docs](self) for the pipelining worked example.
///
/// The server executes one connection's `Query`/`Commit` requests
/// strictly in send order on one dedicated session, so consecutive
/// requests see each other's effects even when pipelined. `Stats` is
/// answered out of band and may overtake them.
pub struct Client {
    /// Buffered: a reply is one `read`, not length prefix + body, and a
    /// pipelined window's replies arrive a few kilobytes at a time.
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Responses read while waiting for a different id — parked until
    /// their request's `recv_*` comes asking.
    held: HashMap<u64, Response>,
}

impl Client {
    /// Connect and handshake. Fails with [`ClientError::Busy`] when the
    /// server is at its connection limit (the rejection arrives in place
    /// of the handshake ack) and [`ClientError::Remote`] on a protocol
    /// version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            held: HashMap::new(),
        };
        client.send_raw(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        client.writer.flush().map_err(ProtoError::from)?;
        match client.read_response()? {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::Hello { version } => Err(ClientError::Unexpected(format!(
                "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
            ))),
            Response::Busy { reason } => Err(ClientError::Busy(reason)),
            Response::Error { message, .. } => Err(ClientError::Remote(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Connect, retrying [`ClientError::Busy`] rejections and transport
    /// failures with jittered exponential backoff per `policy`. Under
    /// protocol v2 a `Busy` rejection arrives in place of the handshake
    /// ack, so a plain [`Client::connect`] per attempt suffices. Returns
    /// the last error when every attempt is turned away.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let mut jitter = policy.seed | 1; // xorshift state must be nonzero
        let mut backoff = policy.base;
        let mut last = ClientError::Busy("no attempts made".into());
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                // jitter in [50%, 100%] of the nominal backoff
                jitter ^= jitter << 13;
                jitter ^= jitter >> 7;
                jitter ^= jitter << 17;
                let half = backoff.min(policy.cap).as_nanos() as u64 / 2;
                let extra = if half == 0 { 0 } else { jitter % (half + 1) };
                std::thread::sleep(Duration::from_nanos(half + extra));
                backoff = backoff.saturating_mul(2);
            }
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e @ (ClientError::Busy(_) | ClientError::Proto(_))) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    // ----- pipelined API ----------------------------------------------------

    /// Ship a query without waiting for the answer; returns the request
    /// id to pass to [`Self::recv_query`]. The frame is buffered — it
    /// reaches the wire at the next [`Self::flush`] or receive.
    pub fn send_query(&mut self, template: &str, params: &[Value]) -> Result<u64, ClientError> {
        self.send_query_with_deadline(template, params, None)
    }

    /// [`Self::send_query`] with a server-enforced soft deadline,
    /// measured server-side from when the frame is decoded — time spent
    /// queued behind earlier pipelined requests counts.
    pub fn send_query_with_deadline(
        &mut self,
        template: &str,
        params: &[Value],
        budget: Option<Duration>,
    ) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_raw(&Request::Query {
            id,
            template: template.to_string(),
            params: params.to_vec(),
            deadline_ms: budget.map_or(0, |b| (b.as_millis() as u64).max(1)),
        })?;
        Ok(id)
    }

    /// Ship a commit without waiting; returns the id for
    /// [`Self::recv_commit`].
    pub fn send_commit(
        &mut self,
        table: &str,
        inserts: Vec<Vec<Value>>,
        deletes: Vec<u64>,
    ) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_raw(&Request::Commit {
            id,
            table: table.to_string(),
            inserts,
            deletes,
        })?;
        Ok(id)
    }

    /// Ship a stats request without waiting; returns the id for
    /// [`Self::recv_stats`]. The server answers stats out of band — this
    /// response may overtake queries sent before it.
    pub fn send_stats(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_raw(&Request::Stats { id })?;
        Ok(id)
    }

    /// Push every buffered request onto the wire. Receives flush
    /// implicitly; call this when you want requests moving before you
    /// are ready to collect answers.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush().map_err(ProtoError::from)?;
        Ok(())
    }

    /// Wait for the query response with this id (parking any other
    /// responses that arrive first).
    pub fn recv_query(&mut self, id: u64) -> Result<QueryResult, ClientError> {
        match self.recv(id)? {
            Response::Query { result, .. } => Ok(result),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Wait for the commit response with this id; returns
    /// `(inserted, deleted, epoch)`.
    pub fn recv_commit(&mut self, id: u64) -> Result<(u64, u64, u64), ClientError> {
        match self.recv(id)? {
            Response::Commit {
                inserted,
                deleted,
                epoch,
                ..
            } => Ok((inserted, deleted, epoch)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Wait for the stats response with this id.
    pub fn recv_stats(&mut self, id: u64) -> Result<Vec<(String, u64)>, ClientError> {
        match self.recv(id)? {
            Response::Stats { pairs, .. } => Ok(pairs),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Run a batch of queries pipelined: all shipped in one flush, all
    /// in flight together, answers collected by id. Results come back in
    /// batch order regardless of completion order. One failed query
    /// fails the call (its error), matching the batch-or-nothing shape
    /// tests want; pipeline manually with [`Self::send_query`] for
    /// per-request error handling.
    pub fn query_many(
        &mut self,
        batch: &[(&str, &[Value])],
    ) -> Result<Vec<QueryResult>, ClientError> {
        let ids: Vec<u64> = batch
            .iter()
            .map(|(template, params)| self.send_query(template, params))
            .collect::<Result<_, _>>()?;
        ids.into_iter().map(|id| self.recv_query(id)).collect()
    }

    // ----- blocking API -----------------------------------------------------

    /// Run the named prepared template with parameters (send + receive).
    pub fn query(&mut self, template: &str, params: &[Value]) -> Result<QueryResult, ClientError> {
        let id = self.send_query(template, params)?;
        self.recv_query(id)
    }

    /// [`Self::query`] with a server-enforced soft deadline: past
    /// `budget` the server stops admitting/waiting on the recycler and
    /// answers with a deadline error instead of a partial result (which
    /// surfaces here as [`ClientError::Remote`]).
    pub fn query_with_deadline(
        &mut self,
        template: &str,
        params: &[Value],
        budget: Duration,
    ) -> Result<QueryResult, ClientError> {
        let id = self.send_query_with_deadline(template, params, Some(budget))?;
        self.recv_query(id)
    }

    /// Commit inserts/deletes against one table; returns
    /// `(inserted, deleted, epoch)`.
    pub fn commit(
        &mut self,
        table: &str,
        inserts: Vec<Vec<Value>>,
        deletes: Vec<u64>,
    ) -> Result<(u64, u64, u64), ClientError> {
        let id = self.send_commit(table, inserts, deletes)?;
        self.recv_commit(id)
    }

    /// Fetch the server-wide statistics snapshot as name/value pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        let id = self.send_stats()?;
        self.recv_stats(id)
    }

    /// Close the connection cleanly: everything still in flight is
    /// answered (and discarded here), then the server replies `Closed`
    /// and hangs up.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send_raw(&Request::Close)?;
        self.flush()?;
        loop {
            match self.read_response()? {
                Response::Closed => return Ok(()),
                Response::Busy { reason } => return Err(ClientError::Busy(reason)),
                Response::Error { id: 0, message } => return Err(ClientError::Remote(message)),
                _ => continue, // drain answers to still-in-flight requests
            }
        }
    }

    // ----- plumbing ---------------------------------------------------------

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send_raw(&mut self, req: &Request) -> Result<(), ClientError> {
        let payload = encode_request(req)?;
        if payload.len() > MAX_FRAME {
            return Err(ClientError::Proto(ProtoError::TooLarge(
                payload.len() as u64
            )));
        }
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())
            .map_err(ProtoError::from)?;
        self.writer.write_all(&payload).map_err(ProtoError::from)?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.reader)?.ok_or(ProtoError::Truncated)?;
        Ok(decode_response(&payload)?)
    }

    /// Read until the response for `id` arrives, parking responses that
    /// belong to other outstanding requests. A connection-fatal error
    /// (id 0) or `Busy` fails this call whoever it was aimed at.
    fn recv(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(resp) = self.held.remove(&id) {
            return finish(resp);
        }
        self.flush()?;
        loop {
            let resp = self.read_response()?;
            match resp.id() {
                Some(rid) if rid == id => return finish(resp),
                Some(0) => {
                    if let Response::Error { message, .. } = resp {
                        return Err(ClientError::Remote(message));
                    }
                }
                Some(rid) => {
                    self.held.insert(rid, resp);
                }
                None => match resp {
                    Response::Busy { reason } => return Err(ClientError::Busy(reason)),
                    other => return Err(ClientError::Unexpected(format!("{other:?}"))),
                },
            }
        }
    }
}

fn finish(resp: Response) -> Result<Response, ClientError> {
    match resp {
        Response::Error { message, .. } => Err(ClientError::Remote(message)),
        other => Ok(other),
    }
}
