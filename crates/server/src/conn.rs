//! The per-connection state machine: incremental read decoding, a
//! nonblocking write buffer, a queue of decoded requests awaiting
//! execution, the run slot, and the lifecycle phases from handshake to
//! drain.
//!
//! One [`Conn`] exists per accepted socket, shared between the reactor
//! thread and the worker pool behind one mutex. Who may do what, always
//! under that mutex:
//!
//! * **reading** the socket, decoding frames and every `epoll_ctl` — the
//!   reactor only;
//! * **executing** queued requests — whoever holds the run slot
//!   ([`ConnState::running`]): the reactor itself when the connection's
//!   history says the work is smaller than a hand-off
//!   ([`ConnState::cheap`]; the gate is in `server.rs`), a worker
//!   otherwise. Either way through the same `run_conn`;
//! * **writing** the socket — whoever just queued replies: the reactor
//!   (its own inline replies, `EPOLLOUT` turns), or a worker flushing the
//!   replies of the batch it ran. A worker wakes the reactor only when
//!   the flush left bytes behind, reads were paused at the pipeline cap,
//!   or the connection is finishing — the cases that need `epoll_ctl`.
//!
//! The locking discipline is strictly one-connection-at-a-time — nobody
//! ever holds two connection locks — and the lock is released while a
//! request executes (the session is taken out of the state for the
//! duration), so the reactor keeps reading and writing a connection
//! whose request runs on a worker.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Instant;

use recycling::Session;

use crate::protocol::{append_response_frame, FrameDecoder, Request, Response};

/// Write-buffer capacity above which a drained buffer is released
/// rather than kept — the lever behind "flat memory per idle
/// connection": a connection that once shipped a large response must
/// not pin that allocation while it sits idle.
const WBUF_KEEP: usize = 16 * 1024;

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted; the v2 `Hello` frame has not arrived yet. Any other
    /// first frame is a protocol error (this is what a v1 client sees).
    Handshake,
    /// Handshake done; requests flow.
    Serving,
    /// No more reads: flush whatever is buffered, then close. Entered
    /// on `Close`, fatal protocol errors, read timeouts, admission
    /// rejection (the Busy goodbye) and graceful drain.
    Closing,
}

/// One decoded request waiting to be (or being) executed, stamped with
/// its decode time so a wire `deadline_ms` measures from arrival — time
/// spent queued behind earlier pipelined requests counts against the
/// budget, exactly as it would for a thread-per-connection server.
pub struct Work {
    /// The decoded request (only `Query`/`Commit`/`Close` ever queue;
    /// `Hello` and `Stats` are answered by the reactor at decode time).
    pub req: Request,
    /// When the frame was decoded.
    pub at: Instant,
}

/// The mutex-protected state of one connection.
pub struct ConnState {
    /// The nonblocking socket. Only the reactor reads it; whoever holds
    /// this lock and has just queued replies may flush them (the
    /// reactor, or a worker after its batch).
    pub stream: TcpStream,
    /// Incremental inbound frame decoder.
    pub decoder: FrameDecoder,
    /// Outbound bytes not yet accepted by the socket, from `wpos`.
    pub wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf` (compacted on flush).
    pub wpos: usize,
    /// Decoded requests awaiting execution, in arrival order.
    pub pending: VecDeque<Work>,
    /// The connection's database session, created lazily at its first
    /// `Query`/`Commit` — an idle or stats-only connection never pays
    /// for an engine, and never dilutes the per-session credit slices.
    pub session: Option<Session>,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Somebody — a worker, or the reactor executing inline — holds this
    /// connection's run slot (at most one thread executes a given
    /// connection's requests at a time — the session is serial even
    /// though the socket is not).
    pub running: bool,
    /// The connection's recent history, as far as the inline gate cares:
    /// its previous request was a query that finished under the inline
    /// budget, whoever executed it. False on a fresh connection, after a
    /// slow query, a commit, an error or a contained panic — the next
    /// request then goes to a worker, which measures it again.
    pub cheap: bool,
    /// Hard-kill flag: sever as soon as no worker is mid-request. Set by
    /// socket errors, hangups and hard shutdown.
    pub dead: bool,
    /// Whether this connection holds a slot in the live-connection count
    /// (admission control). False for turned-away connections that only
    /// linger to flush their Busy goodbye.
    pub counted: bool,
    /// Interest mask currently registered with epoll (reactor-owned;
    /// tracked to elide no-op `epoll_ctl` calls).
    pub interest: u32,
}

/// One live connection: a token (the epoll user-data) plus the shared
/// state.
pub struct Conn {
    /// Epoll token / map key.
    pub token: u64,
    /// The shared state (reactor + workers).
    pub state: Mutex<ConnState>,
}

impl Conn {
    /// Wrap a freshly accepted socket (already set nonblocking).
    pub fn new(token: u64, stream: TcpStream) -> Conn {
        Conn {
            token,
            state: Mutex::new(ConnState {
                stream,
                decoder: FrameDecoder::new(),
                wbuf: Vec::new(),
                wpos: 0,
                pending: VecDeque::new(),
                session: None,
                phase: Phase::Handshake,
                running: false,
                cheap: false,
                dead: false,
                counted: false,
                interest: 0,
            }),
        }
    }
}

impl ConnState {
    /// Queue a response frame (length prefix + payload), encoded
    /// straight into the write buffer. Unencodable responses (a BAT
    /// slipped through) are skipped — the layer above always summarises
    /// exports first, so this is a never-hit belt-and-braces.
    pub fn queue_response(&mut self, resp: &Response) {
        let _ = append_response_frame(&mut self.wbuf, resp);
    }

    /// Bytes still owed to the socket.
    pub fn unwritten(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Flush as much of the write buffer as the socket will take.
    /// Returns `false` when the connection died mid-write (the caller
    /// severs it). On a clean drain the buffer is reset — and released
    /// entirely when it grew past [`WBUF_KEEP`], keeping idle
    /// connections flat.
    pub fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            if self.wbuf.capacity() > WBUF_KEEP {
                self.wbuf = Vec::new();
            } else {
                self.wbuf.clear();
            }
            self.wpos = 0;
        } else if self.wpos > WBUF_KEEP {
            // mid-flush on a slow peer: compact the consumed prefix so a
            // long pipelined burst cannot pin twice its bytes
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        true
    }

    /// Read whatever the socket has (bounded per call by `scratch`'s
    /// size times `rounds`), feeding the decoder. A read that did not
    /// fill `scratch` emptied the socket: stop there rather than pay a
    /// second `read` for the `EAGAIN` — level-triggered epoll fires again
    /// if more (or the EOF) arrived meanwhile. Returns `Ok(true)` if the
    /// peer half-closed (EOF seen), `Ok(false)` otherwise; `Err` on a
    /// transport error or an oversized/hostile frame.
    pub fn fill(
        &mut self,
        scratch: &mut [u8],
        rounds: usize,
    ) -> Result<bool, crate::protocol::ProtoError> {
        for _ in 0..rounds {
            match (&self.stream).read(scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.decoder.push(&scratch[..n])?;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(crate::protocol::ProtoError::Io(e.to_string())),
            }
        }
        Ok(false)
    }

    /// The epoll interest this connection should hold right now.
    /// Reading is wanted only while serving (or awaiting the handshake)
    /// with headroom under the pipeline cap — a connection at its cap is
    /// simply not read until its queue is drained (backpressure without
    /// buffering). Writing is wanted while bytes are owed.
    pub fn wanted_interest(&self, max_pipeline: usize) -> u32 {
        let mut want = 0;
        if self.phase != Phase::Closing && self.pending.len() < max_pipeline {
            want |= crate::sys::EPOLLIN | crate::sys::EPOLLRDHUP;
        }
        if self.unwritten() > 0 {
            want |= crate::sys::EPOLLOUT;
        }
        want
    }

    /// True when nothing keeps this connection alive: it is closing (or
    /// dead), owes no bytes, has no queued work and nobody mid-run.
    pub fn finished(&self) -> bool {
        self.dead
            || (self.phase == Phase::Closing
                && self.unwritten() == 0
                && self.pending.is_empty()
                && !self.running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wbuf_shrinks_after_large_flush() {
        let (a, b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut st = Conn::new(1, a);
        let state = st.state.get_mut().unwrap();
        state.wbuf = vec![7u8; 200 * 1024];
        // drain via the peer until everything is flushed
        let mut sink = vec![0u8; 64 * 1024];
        b.set_nonblocking(true).unwrap();
        for _ in 0..1000 {
            if !state.flush() {
                panic!("flush died");
            }
            if state.unwritten() == 0 {
                break;
            }
            while let Ok(n) = (&b).read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        }
        assert_eq!(state.unwritten(), 0);
        assert_eq!(state.wbuf.capacity(), 0, "large wbuf must be released");
    }

    #[test]
    fn interest_tracks_phase_and_buffers() {
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut st = Conn::new(1, a);
        let state = st.state.get_mut().unwrap();
        assert_eq!(
            state.wanted_interest(8),
            crate::sys::EPOLLIN | crate::sys::EPOLLRDHUP
        );
        state.wbuf.extend_from_slice(b"x");
        assert_ne!(state.wanted_interest(8) & crate::sys::EPOLLOUT, 0);
        // at the pipeline cap: reads pause, writes continue
        for _ in 0..8 {
            state.pending.push_back(Work {
                req: Request::Close,
                at: Instant::now(),
            });
        }
        assert_eq!(state.wanted_interest(8) & crate::sys::EPOLLIN, 0);
        assert_ne!(state.wanted_interest(8) & crate::sys::EPOLLOUT, 0);
        state.phase = Phase::Closing;
        state.pending.clear();
        assert_eq!(state.wanted_interest(8) & crate::sys::EPOLLIN, 0);
        assert!(!state.finished(), "bytes still owed");
    }
}
