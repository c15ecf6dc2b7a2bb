//! The wire protocol: length-prefixed frames over a byte stream,
//! **version 2 — pipelined**.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by that many payload bytes. Payloads are a tag byte plus a
//! tag-specific body; all integers are little-endian, floats travel as
//! IEEE-754 bit patterns, strings as `u32` length + UTF-8 bytes. The
//! protocol is deliberately tiny and hand-rolled — the build is fully
//! offline (no serde, no tokio).
//!
//! **v2 additions.** A connection opens with a [`Request::Hello`]
//! handshake carrying [`PROTOCOL_VERSION`]; the server answers
//! [`Response::Hello`] (or a fatal `Error` on a version mismatch — the
//! version bump is what tells a v1 client apart from line noise). Every
//! `Query`/`Commit`/`Stats` request then carries a client-chosen
//! **request id**, echoed on its response, so one connection can hold
//! many requests in flight at once (pipelining). Responses **may
//! complete out of order** — `Stats` in particular is answered out of
//! band by the reactor while earlier queries still sit on the session's
//! run queue — and must be matched by id, never by arrival order.
//! `Close` and the connection-level `Busy`/fatal-`Error` frames carry no
//! id (fatal errors use id `0`, which no request may use).
//!
//! Frames larger than [`MAX_FRAME`] are rejected before any allocation,
//! so a malformed or hostile length prefix cannot balloon memory;
//! truncated frames and trailing garbage surface as [`ProtoError`]s.
//! The server decodes incrementally from nonblocking sockets via
//! [`FrameDecoder`]; the blocking [`read_frame`]/[`write_frame`] pair
//! remains for the client side and tests.

use std::fmt;
use std::io::{self, Read, Write};

use rbat::{Date, Oid, Value};

/// Wire protocol version spoken by this crate. Bumped to 2 when request
/// ids and the handshake were introduced; the handshake rejects any
/// other version with a fatal `Error` frame.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame's payload (16 MiB) — rejects hostile length
/// prefixes before allocating.
pub const MAX_FRAME: usize = 16 << 20;

/// Wire protocol errors (framing, decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended inside a frame (or inside a body field).
    Truncated,
    /// A frame length prefix exceeded [`MAX_FRAME`].
    TooLarge(u64),
    /// Structurally invalid payload (unknown tag, bad UTF-8, trailing
    /// bytes, unencodable value).
    Malformed(String),
    /// The read deadline expired mid-frame (slow-loris guard: see
    /// `ServerConfig::read_timeout`). Distinguished from [`Self::Io`] so
    /// the serving loop can close the connection with a typed error
    /// frame instead of treating it as a transport fault.
    Timeout,
    /// Transport error.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Timeout => write!(f, "read timed out"),
            ProtoError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ProtoError::Truncated,
            // Both kinds occur for an expired SO_RCVTIMEO depending on
            // platform; fold them into one typed timeout.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ProtoError::Timeout,
            _ => ProtoError::Io(e.to_string()),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The connection handshake: first frame on every connection,
    /// carrying the client's protocol version. Answered with
    /// [`Response::Hello`] (or a fatal `Error` on mismatch).
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Run the named prepared template with the given parameters.
    Query {
        /// Request id echoed on the response (nonzero).
        id: u64,
        /// Template name (registered on the `Database`).
        template: String,
        /// Parameter values.
        params: Vec<Value>,
        /// Soft deadline budget in milliseconds; `0` means none. The
        /// clock starts when the frame is decoded (so time queued behind
        /// earlier pipelined requests counts) and is enforced at the
        /// recycler's admission points server-side — past it the reply is
        /// an `Error` frame reporting the deadline, never a partial
        /// result.
        deadline_ms: u64,
    },
    /// Commit inserts/deletes against one table.
    Commit {
        /// Request id echoed on the response (nonzero).
        id: u64,
        /// Target table.
        table: String,
        /// Rows to append.
        inserts: Vec<Vec<Value>>,
        /// OIDs to delete.
        deletes: Vec<u64>,
    },
    /// Fetch server-wide recycler statistics. Answered out of band by
    /// the reactor — it may overtake earlier pipelined queries.
    Stats {
        /// Request id echoed on the response (nonzero).
        id: u64,
    },
    /// Close the connection (the server answers everything already in
    /// flight, replies `Closed` and hangs up).
    Close,
}

impl Request {
    /// The request id, if this request kind carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Query { id, .. } | Request::Commit { id, .. } | Request::Stats { id } => {
                Some(*id)
            }
            Request::Hello { .. } | Request::Close => None,
        }
    }
}

/// A query's result set plus its recycling observations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Named exports in export order.
    pub exports: Vec<(String, Value)>,
    /// Marked instructions this invocation saw.
    pub marked: u64,
    /// ... answered from the recycle pool.
    pub reused: u64,
    /// ... executed in subsumed form.
    pub subsumed: u64,
    /// Entries this invocation admitted.
    pub admitted: u64,
    /// Server-side wall time, microseconds.
    pub elapsed_us: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted: the server's protocol version.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Query succeeded.
    Query {
        /// Echo of the request id.
        id: u64,
        /// The result set and recycling observations.
        result: QueryResult,
    },
    /// Commit succeeded.
    Commit {
        /// Echo of the request id.
        id: u64,
        /// Rows appended.
        inserted: u64,
        /// Rows deleted.
        deleted: u64,
        /// Catalog epoch after the commit.
        epoch: u64,
    },
    /// Statistics snapshot as name/value pairs.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Counter name/value pairs: the recycler's lifetime counters, the
        /// server's own (`server_*`), the pool's size and the catalog
        /// epoch. Clients look keys up by name; a key may be retired.
        /// `pool_wipes` (write steps a panic emptied the pool in) took the
        /// place of the three pairs older servers sent about a degraded
        /// pool mode, and the old collector's memory-headroom pair is no
        /// longer sent.
        pairs: Vec<(String, u64)>,
    },
    /// Goodbye (reply to `Close`).
    Closed,
    /// Connection-level admission control turned this connection away
    /// (the server is at its connection limit).
    Busy {
        /// Human-readable reason.
        reason: String,
    },
    /// A request failed server-side. `id` names the failed request; id
    /// `0` is a **fatal** connection-level error (protocol violation,
    /// handshake rejection, read timeout) after which the server hangs
    /// up.
    Error {
        /// Echo of the failed request id, or `0` for a fatal
        /// connection-level error.
        id: u64,
        /// Error rendering.
        message: String,
    },
}

impl Response {
    /// The echoed request id, if this response kind carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Query { id, .. }
            | Response::Commit { id, .. }
            | Response::Stats { id, .. }
            | Response::Error { id, .. } => Some(*id),
            Response::Hello { .. } | Response::Closed | Response::Busy { .. } => None,
        }
    }
}

// ----- frame transport (blocking; the client side) --------------------------

/// Write one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtoError::TooLarge(payload.len() as u64));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between messages); [`ProtoError::Truncated`]
/// on EOF *inside* a frame — including inside the 4-byte length prefix,
/// which `read_exact` alone cannot distinguish from a clean close.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean frame-boundary EOF
            Ok(0) => return Err(ProtoError::Truncated), // EOF inside the prefix
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::TooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ----- incremental frame decoding (the reactor side) ------------------------

/// Incremental frame decoder for nonblocking sockets: feed it whatever
/// bytes `read()` produced ([`Self::push`]), pull complete frame
/// payloads out ([`Self::next_frame`]). Byte-at-a-time feeding decodes
/// exactly what [`read_frame`] would decode from the whole buffer
/// (pinned by a property test).
///
/// A hostile length prefix is rejected as soon as its 4 bytes are in
/// hand — **before** any body allocation — and the body buffer grows
/// only as bytes actually arrive, so memory is bounded by what the peer
/// really sent, never by what it announced.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Partial little-endian length prefix.
    head: [u8; 4],
    /// Prefix bytes received so far (0..=4).
    head_len: usize,
    /// Body length once the prefix is complete.
    need: Option<usize>,
    /// Body bytes received so far.
    body: Vec<u8>,
    /// Completed frames not yet taken: queued rather than returned from
    /// `push` so the reactor can decode everything one `read()` produced
    /// and then drain frames one by one under its backpressure cap.
    done: std::collections::VecDeque<Vec<u8>>,
}

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed raw bytes from the socket. Completed frame payloads become
    /// available via [`Self::next_frame`]; a hostile length prefix
    /// surfaces here as [`ProtoError::TooLarge`] the moment it is
    /// complete, with nothing allocated for the announced body.
    pub fn push(&mut self, mut chunk: &[u8]) -> Result<(), ProtoError> {
        while !chunk.is_empty() {
            match self.need {
                None => {
                    let take = (4 - self.head_len).min(chunk.len());
                    self.head[self.head_len..self.head_len + take].copy_from_slice(&chunk[..take]);
                    self.head_len += take;
                    chunk = &chunk[take..];
                    if self.head_len == 4 {
                        let len = u32::from_le_bytes(self.head) as usize;
                        if len > MAX_FRAME {
                            return Err(ProtoError::TooLarge(len as u64));
                        }
                        self.need = Some(len);
                    }
                }
                Some(need) => {
                    let take = (need - self.body.len()).min(chunk.len());
                    self.body.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.body.len() == need {
                        self.done.push_back(std::mem::take(&mut self.body));
                        self.head_len = 0;
                        self.need = None;
                    }
                }
            }
        }
        Ok(())
    }

    /// Take the next complete frame payload, if any.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.done.pop_front()
    }

    /// True while the decoder sits *inside* a frame (a partial length
    /// prefix or an incomplete body) — the state the slow-loris guard
    /// keys on. False at a clean frame boundary, where an idle
    /// connection must cost nothing.
    pub fn mid_frame(&self) -> bool {
        self.head_len > 0 || self.need.is_some()
    }

    /// Complete frames decoded and not yet taken.
    pub fn ready(&self) -> usize {
        self.done.len()
    }

    /// Bytes currently buffered (partial frame + undelivered frames) —
    /// what an idle connection pays for, which is why an idle one at a
    /// frame boundary reports 0.
    pub fn buffered(&self) -> usize {
        self.head_len + self.body.len() + self.done.iter().map(Vec::len).sum::<usize>()
    }
}

// ----- body encoding --------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode one value. BATs are not wire-encodable — the serving layer
/// summarises them before encoding ([`displayable`]).
fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), ProtoError> {
    match v {
        Value::Nil => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            put_str(out, s);
        }
        Value::Oid(o) => {
            out.push(6);
            out.extend_from_slice(&o.0.to_le_bytes());
        }
        Value::Bat(_) => {
            return Err(ProtoError::Malformed(
                "BAT values are not wire-encodable".into(),
            ))
        }
    }
    Ok(())
}

/// Replace BAT references by a scalar summary so any export is
/// wire-encodable (a full column transfer is not part of this protocol).
pub fn displayable(v: &Value) -> Value {
    match v {
        Value::Bat(b) => Value::str(&format!("<bat:{} rows>", b.len())),
        other => other.clone(),
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    /// A collection length: bounded by the remaining payload so a hostile
    /// count cannot drive a huge allocation.
    fn len(&mut self) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn value(&mut self) -> Result<Value, ProtoError> {
        Ok(match self.u8()? {
            0 => Value::Nil,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Date(Date(self.i32()?)),
            5 => Value::Str(self.str()?.into()),
            6 => Value::Oid(Oid(self.u64()?)),
            t => return Err(ProtoError::Malformed(format!("unknown value tag {t}"))),
        })
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_values(out: &mut Vec<u8>, values: &[Value]) -> Result<(), ProtoError> {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        put_value(out, v)?;
    }
    Ok(())
}

/// Encode a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    match req {
        Request::Query {
            id,
            template,
            params,
            deadline_ms,
        } => {
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(&mut out, template);
            put_values(&mut out, params)?;
            out.extend_from_slice(&deadline_ms.to_le_bytes());
        }
        Request::Commit {
            id,
            table,
            inserts,
            deletes,
        } => {
            out.push(2);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(&mut out, table);
            out.extend_from_slice(&(inserts.len() as u32).to_le_bytes());
            for row in inserts {
                put_values(&mut out, row)?;
            }
            out.extend_from_slice(&(deletes.len() as u32).to_le_bytes());
            for oid in deletes {
                out.extend_from_slice(&oid.to_le_bytes());
            }
        }
        Request::Stats { id } => {
            out.push(3);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Close => out.push(4),
        Request::Hello { version } => {
            out.push(5);
            out.extend_from_slice(&version.to_le_bytes());
        }
    }
    Ok(out)
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        1 => {
            let id = c.u64()?;
            let template = c.str()?;
            let n = c.len()?;
            let params = (0..n).map(|_| c.value()).collect::<Result<_, _>>()?;
            let deadline_ms = c.u64()?;
            Request::Query {
                id,
                template,
                params,
                deadline_ms,
            }
        }
        2 => {
            let id = c.u64()?;
            let table = c.str()?;
            let rows = c.len()?;
            let inserts = (0..rows)
                .map(|_| {
                    let n = c.len()?;
                    (0..n).map(|_| c.value()).collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?;
            let dels = c.len()?;
            let deletes = (0..dels).map(|_| c.u64()).collect::<Result<_, _>>()?;
            Request::Commit {
                id,
                table,
                inserts,
                deletes,
            }
        }
        3 => Request::Stats { id: c.u64()? },
        4 => Request::Close,
        5 => Request::Hello { version: c.u32()? },
        t => return Err(ProtoError::Malformed(format!("unknown request tag {t}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Encode a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    put_response(&mut out, resp)?;
    Ok(out)
}

/// Append one whole response **frame** — length prefix and payload — to
/// `out`, encoding in place: the prefix is reserved, the payload written
/// after it and the length patched in, so a reply costs no intermediate
/// buffer. On an unencodable response `out` is left as it was.
pub fn append_response_frame(out: &mut Vec<u8>, resp: &Response) -> Result<(), ProtoError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    if let Err(e) = put_response(out, resp) {
        out.truncate(start);
        return Err(e);
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

fn put_response(out: &mut Vec<u8>, resp: &Response) -> Result<(), ProtoError> {
    match resp {
        Response::Query { id, result: q } => {
            out.push(0x81);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(q.exports.len() as u32).to_le_bytes());
            for (name, v) in &q.exports {
                put_str(out, name);
                put_value(out, v)?;
            }
            for n in [q.marked, q.reused, q.subsumed, q.admitted, q.elapsed_us] {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        Response::Commit {
            id,
            inserted,
            deleted,
            epoch,
        } => {
            out.push(0x82);
            for n in [id, inserted, deleted, epoch] {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        Response::Stats { id, pairs } => {
            out.push(0x83);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (name, v) in pairs {
                put_str(out, name);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Closed => out.push(0x84),
        Response::Busy { reason } => {
            out.push(0x85);
            put_str(out, reason);
        }
        Response::Hello { version } => {
            out.push(0x86);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Response::Error { id, message } => {
            out.push(0x80);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(out, message);
        }
    }
    Ok(())
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        0x81 => {
            let id = c.u64()?;
            let n = c.len()?;
            let exports = (0..n)
                .map(|_| Ok((c.str()?, c.value()?)))
                .collect::<Result<_, ProtoError>>()?;
            Response::Query {
                id,
                result: QueryResult {
                    exports,
                    marked: c.u64()?,
                    reused: c.u64()?,
                    subsumed: c.u64()?,
                    admitted: c.u64()?,
                    elapsed_us: c.u64()?,
                },
            }
        }
        0x82 => Response::Commit {
            id: c.u64()?,
            inserted: c.u64()?,
            deleted: c.u64()?,
            epoch: c.u64()?,
        },
        0x83 => {
            let id = c.u64()?;
            let n = c.len()?;
            let pairs = (0..n)
                .map(|_| Ok((c.str()?, c.u64()?)))
                .collect::<Result<_, ProtoError>>()?;
            Response::Stats { id, pairs }
        }
        0x84 => Response::Closed,
        0x85 => Response::Busy { reason: c.str()? },
        0x86 => Response::Hello { version: c.u32()? },
        0x80 => Response::Error {
            id: c.u64()?,
            message: c.str()?,
        },
        t => return Err(ProtoError::Malformed(format!("unknown response tag {t}"))),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Query {
                id: 7,
                template: "nearby".into(),
                params: vec![
                    Value::Int(-5),
                    Value::Float(1.25),
                    Value::str("x"),
                    Value::Nil,
                    Value::Bool(true),
                    Value::Date(Date(7000)),
                    Value::Oid(Oid(42)),
                ],
                deadline_ms: 1500,
            },
            Request::Commit {
                id: u64::MAX,
                table: "t".into(),
                inserts: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                deletes: vec![0, 9],
            },
            Request::Stats { id: 3 },
            Request::Close,
        ];
        for req in reqs {
            let bytes = encode_request(&req).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::Query {
                id: 9,
                result: QueryResult {
                    exports: vec![("n".into(), Value::Int(11))],
                    marked: 3,
                    reused: 2,
                    subsumed: 1,
                    admitted: 1,
                    elapsed_us: 99,
                },
            },
            Response::Commit {
                id: 10,
                inserted: 2,
                deleted: 0,
                epoch: 5,
            },
            Response::Stats {
                id: 11,
                pairs: vec![("hits".into(), 7)],
            },
            Response::Closed,
            Response::Busy {
                reason: "full".into(),
            },
            Response::Error {
                id: 0,
                message: "unknown template: zap".into(),
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn appended_frame_equals_prefix_plus_payload() {
        let resp = Response::Error {
            id: 4,
            message: "nope".into(),
        };
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_response(&resp).unwrap()).unwrap();
        // appended behind bytes already queued, not over them
        let mut out = vec![0xaa, 0xbb];
        append_response_frame(&mut out, &resp).unwrap();
        assert_eq!(out[..2], [0xaa, 0xbb]);
        assert_eq!(out[2..], framed[..]);
        // an unencodable response leaves the buffer as it was
        let bat = std::sync::Arc::new(rbat::Bat::from_tail(rbat::Column::from_ints(vec![1])));
        let unencodable = Response::Query {
            id: 1,
            result: QueryResult {
                exports: vec![("b".into(), Value::Bat(bat))],
                ..Default::default()
            },
        };
        assert!(append_response_frame(&mut out, &unencodable).is_err());
        assert_eq!(out.len(), 2 + framed.len());
    }

    #[test]
    fn ids_are_echoed_fields() {
        let req = Request::Query {
            id: 42,
            template: "q".into(),
            params: vec![],
            deadline_ms: 0,
        };
        assert_eq!(req.id(), Some(42));
        assert_eq!(Request::Close.id(), None);
        let resp = Response::Stats {
            id: 42,
            pairs: vec![],
        };
        assert_eq!(resp.id(), Some(42));
        assert_eq!(Response::Closed.id(), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(&Request::Stats { id: 1 }).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = encode_request(&Request::Query {
            id: 1,
            template: "q".into(),
            params: vec![Value::Int(1)],
            deadline_ms: 0,
        })
        .unwrap();
        for cut in 1..bytes.len() {
            let err = decode_request(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtoError::Truncated | ProtoError::Malformed(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut stream: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtoError::TooLarge(_))
        ));
        // the incremental decoder rejects the same prefix the moment it
        // is complete, with nothing buffered for the announced body
        let mut dec = FrameDecoder::new();
        assert!(dec.push(&[0xff, 0xff]).is_ok());
        let err = dec.push(&[0xff, 0xff]).unwrap_err();
        assert!(matches!(err, ProtoError::TooLarge(_)));
    }

    #[test]
    fn eof_between_frames_is_clean_inside_is_truncated() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).unwrap(), None);
        let mut cut: &[u8] = &[8, 0, 0, 0, 1, 2];
        assert!(matches!(read_frame(&mut cut), Err(ProtoError::Truncated)));
        // EOF *inside the length prefix* is truncation too, not a clean
        // close — read_exact alone cannot tell the two apart
        for n in 1..4 {
            let mut prefix_cut: &[u8] = &[9, 0, 0][..n];
            assert!(
                matches!(read_frame(&mut prefix_cut), Err(ProtoError::Truncated)),
                "EOF after {n} prefix bytes must be Truncated"
            );
        }
    }

    #[test]
    fn incremental_decoder_matches_blocking_reader() {
        // a few frames back-to-back, fed in awkward chunk sizes
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 300], vec![3; 7]];
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        for chunk in [1usize, 3, 5, 1024] {
            let mut dec = FrameDecoder::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece).unwrap();
            }
            let mut got = Vec::new();
            while let Some(f) = dec.next_frame() {
                got.push(f);
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert!(!dec.mid_frame());
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn decoder_mid_frame_tracks_partial_state() {
        let mut dec = FrameDecoder::new();
        assert!(!dec.mid_frame());
        dec.push(&[5, 0]).unwrap(); // half a prefix
        assert!(dec.mid_frame());
        dec.push(&[0, 0]).unwrap(); // prefix complete, body outstanding
        assert!(dec.mid_frame());
        dec.push(&[9, 9, 9, 9]).unwrap(); // 4 of 5 body bytes
        assert!(dec.mid_frame());
        dec.push(&[9]).unwrap(); // frame complete
        assert!(!dec.mid_frame());
        assert_eq!(dec.next_frame().unwrap(), vec![9; 5]);
    }

    #[test]
    fn bats_are_not_encodable_but_displayable() {
        use std::sync::Arc;
        let bat = Arc::new(rbat::Bat::from_tail(rbat::Column::from_ints(vec![1, 2, 3])));
        let v = Value::Bat(bat);
        assert!(encode_response(&Response::Query {
            id: 1,
            result: QueryResult {
                exports: vec![("b".into(), v.clone())],
                ..Default::default()
            }
        })
        .is_err());
        assert_eq!(displayable(&v), Value::str("<bat:3 rows>"));
    }
}
