//! The TCP front-end: an **epoll reactor** plus a small worker pool.
//!
//! One reactor thread owns every socket's *read side* and the epoll set:
//! it accepts, reads nonblocking sockets into per-connection incremental
//! frame decoders, and is the only caller of `epoll_ctl`. Decoded
//! `Query`/`Commit`/`Close` requests queue on their connection, and a
//! connection with queued work is given to whoever should execute it:
//!
//! * **the reactor itself** when the connection's own recent history
//!   says the work is smaller than a hand-off — the **inline gate**: the
//!   connection's previous request was a query that finished under
//!   `INLINE_BUDGET_US` (50 µs: what the two wake-ups of a hand-off cost
//!   the request when the worker sits on another CPU — the sizing is on
//!   the constant), the next request is not a `Commit`, and the reactor
//!   has not spent this turn's `INLINE_PER_TURN` (64 requests). It is a
//!   property of the connection's history, never of a setting. The
//!   reactor keeps the connection's run slot, executes through the same
//!   `run_conn` the workers use, and the replies leave in one `write`
//!   in the same turn;
//! * **a worker** otherwise — a fresh connection, one whose last request
//!   was slow (or a commit, or failed), every `Commit`, and whatever is
//!   left when the allowance runs out go to the **ready queue**, from
//!   which `max_sessions` workers pull. A slow query can therefore hold
//!   the reactor at most once: the request that reveals it; the next one
//!   is a worker's. Threads are spent only on *runnable* sessions, and
//!   ten thousand idle connections cost ten thousand small buffers, not
//!   ten thousand parked threads.
//!
//! Whoever queued replies flushes them, under the connection lock: the
//! reactor after its turn, a worker after its batch (`hand_back`). A
//! worker wakes the reactor (eventfd + `dirty` list) only for what needs
//! `epoll_ctl` or a reap: bytes the socket did not take, reads paused at
//! `max_pipeline`, a finishing connection.
//!
//! What one warm `Client::query` round trip costs (one request in
//! flight, everything on one CPU, so every wake-up is a context switch):
//!
//! | step | thread | syscalls | switch |
//! |---|---|---|---|
//! | socket readable → `fill` (a short read ends it) → decode → gate holds → `run_conn` executes → `queue_response` → `flush` → `sync` | reactor | `epoll_wait`, `read`, `write` | client → reactor |
//! | buffered `read_frame` (prefix + body in one read); next `write` | client | `read`, `write` | reactor → client |
//!
//! Three server-side syscalls, two client-side, two context switches.
//! Through the ready queue (the path every request took before the gate
//! existed) the same round trip was `epoll_wait`, `read`, `read`
//! (`EAGAIN`), `futex` wake on the reactor; eventfd `write`, `futex`
//! wait on the worker; `epoll_wait`, eventfd `read`, `write`,
//! `epoll_wait` on the reactor again; `read`, `read`, `write` on the
//! client — ten, three and four. The hand-off that remains is
//! `epoll_wait`, `read`, `futex` wake on the reactor; `write` (the
//! socket), `futex` wait on the worker; `read`, `write` on the client —
//! five, two and three: no eventfd, no third reactor turn.
//!
//! `Hello` (the v2 handshake) and `Stats` are answered by the reactor at
//! decode time — `Stats` needs no session, which is also what makes it
//! the protocol's demonstrably out-of-order response: it overtakes
//! earlier pipelined queries still waiting on a worker.
//!
//! Connection admission is a **live-connection limit**
//! (`max_connections`, defaulting to `max_sessions + backlog` for
//! continuity with the thread-per-connection ancestor): a connection
//! beyond it gets a `Busy` frame queued on a nonblocking write buffer
//! and a short linger to flush it — no dedicated rejection writer
//! threads, and a rejected peer that never reads cannot stall anyone.
//!
//! Read timeouts are **mid-frame only**: the deadline arms when a
//! connection stands inside a frame (or inside the handshake) and
//! disarms at every frame boundary, so a slow-loris trickler is killed
//! with a typed error while an idle keep-alive connection between
//! requests costs nothing, forever.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use recycling::{Database, Session, Update};

use crate::conn::{Conn, ConnState, Phase, Work};
use crate::protocol::{
    decode_request, displayable, ProtoError, QueryResult, Request, Response, PROTOCOL_VERSION,
};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Serving limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads — the number of sessions that *execute*
    /// concurrently on the worker pool. Connections beyond this merely
    /// wait their turn on the ready queue; they are not rejected. The
    /// reactor may additionally execute requests it has proven cheap
    /// (see the module docs), one connection at a time.
    pub max_sessions: usize,
    /// Admission headroom over `max_sessions`: when `max_connections` is
    /// `None`, the live-connection limit is `max_sessions + backlog`
    /// (the same envelope the thread-per-connection ancestor enforced
    /// with its worker pool + wait queue).
    pub backlog: usize,
    /// The slow-loris guard: a connection stalled **mid-frame** (or
    /// mid-handshake) longer than this is closed with a typed `Error`
    /// frame. An idle connection *between* frames is never timed out —
    /// idle costs nothing under the reactor. `None` disables the guard.
    pub read_timeout: Option<Duration>,
    /// Hard cap on live connections; beyond it new connections are
    /// turned away with a `Busy` frame. `None` derives the cap from
    /// `max_sessions + backlog`.
    pub max_connections: Option<usize>,
    /// Per-connection cap on decoded-but-unexecuted pipelined requests.
    /// At the cap the reactor simply stops reading that socket until the
    /// queue is drained — backpressure by readiness, not by buffering.
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 8,
            backlog: 16,
            read_timeout: Some(Duration::from_secs(30)),
            max_connections: None,
            max_pipeline: 64,
        }
    }
}

impl ServerConfig {
    /// `max_pipeline`, at least one (zero would never read a socket).
    fn pipeline_cap(&self) -> usize {
        self.max_pipeline.max(1)
    }

    fn connection_limit(&self) -> usize {
        self.max_connections
            .unwrap_or(self.max_sessions.max(1) + self.backlog)
            .max(1)
    }
}

/// The server's own counters: the faults it absorbs instead of dying
/// (degraded-mode observability) and who executed what (the hand-offs).
/// Plain relaxed atomics, bumped once per event. Exposed via
/// [`Server::counters`] and over the wire in the `Stats` response
/// (`server_*` keys).
#[derive(Debug, Default)]
pub struct ServeCounters {
    worker_panics: AtomicU64,
    accept_errors: AtomicU64,
    read_timeouts: AtomicU64,
    inline_requests: AtomicU64,
    queued_requests: AtomicU64,
    reactor_wakeups: AtomicU64,
}

impl ServeCounters {
    /// Panics the server contained: a request handler that panicked, on
    /// a worker or on the reactor (answered with a typed `Error` frame,
    /// connection kept serving), or a connection whose reactor-side
    /// event handling panicked (that one connection severed, the reactor
    /// kept running).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Transient `accept()` failures absorbed by backoff (fd exhaustion,
    /// aborted handshakes) — the reactor slept and retried instead of
    /// exiting.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Connections closed because they stalled mid-frame past the read
    /// deadline (slow-loris guard, `ServerConfig::read_timeout`).
    pub fn read_timeouts(&self) -> u64 {
        self.read_timeouts.load(Ordering::Relaxed)
    }

    /// Requests the reactor executed itself, keeping the connection's
    /// run slot: no ready queue, no worker, no wake-up.
    pub fn inline_requests(&self) -> u64 {
        self.inline_requests.load(Ordering::Relaxed)
    }

    /// Requests executed by a worker after a ready-queue hand-off.
    pub fn queued_requests(&self) -> u64 {
        self.queued_requests.load(Ordering::Relaxed)
    }

    /// Times the reactor was kicked out of `epoll_wait` through its
    /// eventfd (a worker that needs an `epoll_ctl`, shutdown, drain).
    pub fn reactor_wakeups(&self) -> u64 {
        self.reactor_wakeups.load(Ordering::Relaxed)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the reactor, the workers and the [`Server`]
/// handle.
struct Shared {
    db: Database,
    config: ServerConfig,
    running: AtomicBool,
    draining: AtomicBool,
    /// Connections handed off to the workers: queued work, run slot
    /// taken on the worker's behalf, nobody executing yet.
    ready: Mutex<VecDeque<Arc<Conn>>>,
    ready_cv: Condvar,
    /// Tokens of connections a worker left needing the reactor — the
    /// only thread that calls `epoll_ctl` and reaps. Kept for exactly
    /// three cases (see [`hand_back`]): the worker's flush left bytes
    /// behind (`EPOLLOUT` wanted), reads were paused at `max_pipeline`
    /// (`EPOLLIN` wanted back), or the connection is finishing. A batch
    /// whose replies the socket took whole never comes through here.
    dirty: Mutex<Vec<u64>>,
    /// Kicks the reactor out of `epoll_wait` (the `dirty` cases above,
    /// shutdown, drain).
    wake: EventFd,
    counters: ServeCounters,
    rejected: AtomicU64,
    live: AtomicUsize,
}

impl Shared {
    /// Hand a connection (run slot already taken) to the worker pool.
    fn enqueue(&self, conn: &Arc<Conn>) {
        lock(&self.ready).push_back(Arc::clone(conn));
        self.ready_cv.notify_one();
    }

    fn wake_reactor(&self) {
        self.counters
            .reactor_wakeups
            .fetch_add(1, Ordering::Relaxed);
        self.wake.notify();
    }
}

/// A running TCP front-end over one [`Database`]. Start with
/// [`Server::start`], stop with [`Server::shutdown`] /
/// [`Server::shutdown_graceful`] (drop leaks the threads until process
/// exit — fine for a real server, call `shutdown` in tests).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the reactor thread plus `config.max_sessions` workers. Each
    /// connection gets its own [`Database::session`], created lazily at
    /// its first `Query`/`Commit` — an idle or stats-only connection
    /// never instantiates an engine.
    pub fn start(db: Database, addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.fd(), EPOLLIN, TOKEN_WAKE)?;

        let shared = Arc::new(Shared {
            db,
            config,
            running: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            dirty: Mutex::new(Vec::new()),
            wake,
            counters: ServeCounters::default(),
            rejected: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        });

        let workers: Vec<JoinHandle<()>> = (0..config.max_sessions.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rcy-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rcy-reactor".into())
                .spawn(move || {
                    Reactor {
                        shared,
                        epoll,
                        listener,
                        conns: HashMap::new(),
                        deadlines: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        scratch: vec![0u8; READ_SCRATCH],
                        accept_backoff: ACCEPT_BACKOFF_START,
                        draining_applied: false,
                        inline_left: 0,
                    }
                    .run()
                })
                .expect("spawn reactor")
        };

        Ok(Server {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections turned away by admission control so far.
    pub fn rejected_connections(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Connections currently live (admitted and not yet closed).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// The server's degraded-mode counters (panics contained, accept
    /// errors absorbed, read timeouts enforced).
    pub fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Stop immediately: sever every connection, wake every thread and
    /// join them. Clients with a request in flight see their connection
    /// drop.
    pub fn shutdown(mut self) {
        self.shared.running.store(false, Ordering::Release);
        self.shared.wake_reactor();
        self.shared.ready_cv.notify_all();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        self.shared.ready_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful variant of [`Self::shutdown`]: stop reading new
    /// requests, answer everything already decoded, flush, close. New
    /// connections during the drain are dropped immediately (a clean
    /// close, never a torn reply). Connections still mid-request after
    /// `grace` are severed as in `shutdown` (as are turned-away
    /// connections still lingering over their `Busy` goodbye — they hold
    /// no request).
    pub fn shutdown_graceful(self, grace: Duration) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.wake_reactor();
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if self.shared.live.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shutdown();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-connection read scratch, shared across all connections (one
/// allocation per reactor, zero per connection).
const READ_SCRATCH: usize = 64 * 1024;
/// Socket reads per connection per event turn — bounds how long one hot
/// connection can hold the reactor (level-triggered epoll refires for
/// the rest).
const READ_ROUNDS: usize = 4;
/// Requests one worker executes on one connection before re-queueing it
/// behind other runnable connections — pipelining fairness.
const WORKER_BATCH: usize = 16;
/// The inline gate's budget: a connection whose previous request was a
/// query that ran under this is served on the reactor, without a
/// hand-off. Sized from what the hand-off costs the request it is spared:
/// two wake-ups (reactor → worker, worker → reactor). On one CPU they
/// measure ~10 µs of a warm `sky_tcp` round trip; when the woken thread
/// sits on another, idle vCPU they are ~25 µs each (`benchmark/README`:
/// a round trip of 42 µs with the threads on one CPU, 118 µs spread over
/// two). A request under ~50 µs is answered sooner by the thread that
/// already holds it than it could even reach a worker.
pub const INLINE_BUDGET_US: u64 = 50;
/// Requests the reactor executes inline per event turn, over all
/// connections; what is left goes to the ready queue. One full default
/// pipeline (`max_pipeline` = 64), so a pipelined window of cheap
/// requests is one batch and one flush, while the reactor is held by
/// proven-cheap work for at most 64 budgets (~3 ms) before it looks at
/// its sockets again — and many connections ready at once spill over to
/// the workers instead of queueing behind one thread.
const INLINE_PER_TURN: usize = 64;
/// How long a closing connection may take to drain its goodbye bytes
/// (Busy frames, fatal errors) before being severed — a turned-away
/// peer that never reads is bounded by this.
const CLOSE_LINGER: Duration = Duration::from_secs(2);
/// First sleep after a failed `accept()`; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_CAP`], resets on success.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(5);
/// Ceiling for the accept error backoff.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(250);

// ----- the reactor ----------------------------------------------------------

struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    listener: TcpListener,
    /// Every live connection by token. Reactor-owned: only this thread
    /// inserts, looks up and removes; workers are handed the `Arc`.
    conns: HashMap<u64, Arc<Conn>>,
    /// Armed deadlines by token: mid-frame read deadlines (Serving),
    /// handshake deadlines (Handshake) and goodbye-flush lingers
    /// (Closing). Disarmed at every frame boundary — an idle connection
    /// has no entry here.
    deadlines: HashMap<u64, Instant>,
    next_token: u64,
    scratch: Vec<u8>,
    accept_backoff: Duration,
    draining_applied: bool,
    /// What is left of this turn's [`INLINE_PER_TURN`].
    inline_left: usize,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        loop {
            // Checked here, after the previous turn's events (and its
            // `wake.drain()`) and before blocking: a `shutdown` that
            // stores the flag and notifies while a turn is in progress
            // has its notification drained by that turn, and with no
            // deadline armed the next `epoll_wait` would sleep forever.
            // (Acquire pairs with the Release stores in `shutdown` /
            // `shutdown_graceful`, made before their eventfd write.)
            if !self.shared.running.load(Ordering::Acquire) {
                break;
            }
            if self.shared.draining.load(Ordering::Acquire) && !self.draining_applied {
                self.apply_drain();
            }
            let timeout = self.next_timeout();
            let ready = self.epoll.wait(&mut events, timeout).map_or(0, <[_]>::len);
            self.inline_left = INLINE_PER_TURN;
            for event in &events[..ready] {
                // (the packed struct's fields are read by copy)
                let (token, bits) = (event.data, event.events);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    t => self.conn_event(t, bits),
                }
            }
            self.process_dirty();
            self.check_deadlines();
        }
        self.close_all();
    }

    fn next_timeout(&self) -> Option<Duration> {
        let next = self.deadlines.values().min()?;
        Some(next.saturating_duration_since(Instant::now()))
    }

    fn lookup(&self, token: u64) -> Option<Arc<Conn>> {
        self.conns.get(&token).cloned()
    }

    // --- accepting ---

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_START;
                    if self.shared.draining.load(Ordering::Relaxed)
                        || !self.shared.running.load(Ordering::Relaxed)
                    {
                        continue; // drop: clean close, never a torn reply
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failures (EMFILE, aborted
                    // handshakes) must neither spin the reactor hot (the
                    // listener stays level-triggered ready) nor kill it:
                    // count, back off, try again.
                    self.shared
                        .counters
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        let limit = self.shared.config.connection_limit();
        if self.shared.live.load(Ordering::Relaxed) >= limit {
            // Admission rejection under the reactor: the Busy frame is
            // just bytes on a nonblocking write buffer with a short
            // linger — no writer threads, no way for a non-reading peer
            // to stall anything (the PR 5 stopgap of detached rejection
            // writers is gone).
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let conn = Arc::new(Conn::new(token, stream));
            {
                let mut st = lock(&conn.state);
                st.phase = Phase::Closing;
                st.queue_response(&Response::Busy {
                    reason: format!("server at capacity ({limit} connections)"),
                });
                if !st.flush() || st.unwritten() == 0 {
                    return; // fully sent (or died): drop closes the fd
                }
                st.interest = EPOLLOUT;
                if self
                    .epoll
                    .add(st.stream.as_raw_fd(), EPOLLOUT, token)
                    .is_err()
                {
                    return;
                }
            }
            self.deadlines.insert(token, Instant::now() + CLOSE_LINGER);
            self.conns.insert(token, conn);
            return;
        }
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn::new(token, stream));
        {
            let mut st = lock(&conn.state);
            st.counted = true;
            st.interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(st.stream.as_raw_fd(), st.interest, token)
                .is_err()
            {
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
        // the handshake must arrive within the read deadline — a
        // connection that never says Hello is not "idle", it is a slot
        // squatter
        if let Some(rt) = self.shared.config.read_timeout {
            self.deadlines.insert(token, Instant::now() + rt);
        }
        self.conns.insert(token, conn);
    }

    // --- per-connection events ---

    /// One connection's readiness event, with per-connection panic
    /// containment: a panic anywhere in this connection's handling
    /// (including an injected `wire.*` Panic fault) severs that one
    /// connection, never the reactor.
    fn conn_event(&mut self, token: u64, bits: u32) {
        let Some(conn) = self.lookup(token) else {
            return;
        };
        let drove = catch_unwind(AssertUnwindSafe(|| self.drive(&conn, bits)));
        if drove.is_err() {
            self.shared
                .counters
                .worker_panics
                .fetch_add(1, Ordering::Relaxed);
            lock(&conn.state).dead = true;
            self.finish(&conn);
        }
    }

    fn drive(&mut self, conn: &Arc<Conn>, bits: u32) {
        let now = Instant::now();
        let mut st = lock(&conn.state);
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            st.dead = true;
        }
        if !st.dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 && st.phase != Phase::Closing {
            self.read_turn(&mut st, now);
        }
        self.settle(conn, st, now);
    }

    /// The tail of every turn on a connection. Give queued work with a
    /// free run slot to whoever should execute it — this thread, for as
    /// long as the inline gate holds (see [`run_conn`]), the worker pool
    /// from there on; then flush everything owed — Hello, Stats, fatal
    /// errors, the replies of an inline batch, a worker's leftovers — in
    /// one write, now rather than on an `EPOLLOUT` turn; then [`sync`].
    ///
    /// [`sync`]: Self::sync
    fn settle<'a>(&mut self, conn: &'a Arc<Conn>, mut st: MutexGuard<'a, ConnState>, now: Instant) {
        if !st.dead && !st.running && !st.pending.is_empty() {
            st.running = true;
            st = run_conn(&self.shared, conn, st, Some(&mut self.inline_left));
        }
        try_flush(&mut st);
        self.sync(conn, st, now);
    }

    /// Read whatever the socket has and dispatch every decoded frame.
    fn read_turn(&mut self, st: &mut ConnState, now: Instant) {
        #[cfg(feature = "failpoints")]
        if recycling::fault::fire("wire.read").is_some() {
            // a scripted Io/Deny fault models the transport dying
            // mid-read: report and hang up, exactly like a real one
            fatal(st, &ProtoError::Io("injected fault".into()));
            return;
        }
        match st.fill(&mut self.scratch, READ_ROUNDS) {
            Ok(eof) => {
                self.dispatch_frames(st, now);
                if eof {
                    if st.decoder.mid_frame() {
                        // the peer hung up inside a frame: report the
                        // truncation (its read side may still be open)
                        // and close
                        fatal(st, &ProtoError::Truncated);
                    } else if st.phase != Phase::Closing {
                        // clean half-close at a frame boundary: answer
                        // everything queued, then close
                        st.phase = Phase::Closing;
                    }
                }
            }
            Err(e) => fatal(st, &e),
        }
    }

    fn dispatch_frames(&self, st: &mut ConnState, now: Instant) {
        while st.phase != Phase::Closing {
            let Some(payload) = st.decoder.next_frame() else {
                return;
            };
            let req = match decode_request(&payload) {
                Ok(r) => r,
                Err(e) => {
                    fatal(st, &e);
                    break;
                }
            };
            if req.id() == Some(0) {
                fatal_msg(st, "request id 0 is reserved for fatal errors".into());
                break;
            }
            match (st.phase, req) {
                (Phase::Handshake, Request::Hello { version }) => {
                    if version == PROTOCOL_VERSION {
                        st.queue_response(&Response::Hello {
                            version: PROTOCOL_VERSION,
                        });
                        st.phase = Phase::Serving;
                    } else {
                        fatal_msg(
                            st,
                            format!(
                                "protocol version mismatch: client v{version}, \
                                 server v{PROTOCOL_VERSION}"
                            ),
                        );
                    }
                }
                (Phase::Handshake, _) => {
                    fatal_msg(st, "handshake required: first frame must be Hello".into());
                }
                (_, Request::Hello { .. }) => {
                    fatal_msg(st, "unexpected Hello after handshake".into());
                }
                (_, Request::Stats { id }) => {
                    // the out-of-order fast path: answered here on the
                    // reactor, overtaking queued queries — no session,
                    // no worker, no queueing
                    st.queue_response(&Response::Stats {
                        id,
                        pairs: stats_pairs(&self.shared),
                    });
                }
                (_, req) => st.pending.push_back(Work { req, at: now }),
            }
        }
        // fatal mid-stream: drop frames decoded after the poison one
        while st.decoder.next_frame().is_some() {}
    }

    // --- bookkeeping ---

    /// Recompute one connection's epoll interest, (dis)arm its deadline
    /// and reap it when finished. The single funnel every path ends in.
    fn sync(&mut self, conn: &Arc<Conn>, mut st: MutexGuard<'_, ConnState>, now: Instant) {
        if st.finished() {
            drop(st);
            self.finish(conn);
            return;
        }
        let want = st.wanted_interest(self.shared.config.pipeline_cap());
        if want != st.interest {
            let _ = self.epoll.modify(st.stream.as_raw_fd(), want, conn.token);
            st.interest = want;
        }
        let token = conn.token;
        match st.phase {
            Phase::Closing => {
                if st.unwritten() > 0 {
                    self.deadlines.entry(token).or_insert(now + CLOSE_LINGER);
                } else {
                    self.deadlines.remove(&token);
                }
            }
            Phase::Handshake => {
                if let Some(rt) = self.shared.config.read_timeout {
                    self.deadlines.entry(token).or_insert(now + rt);
                }
            }
            Phase::Serving => {
                // mid-frame only: the deadline re-arms while the decoder
                // stands inside a frame and clears at every boundary, so
                // idle keep-alive connections are free
                match (self.shared.config.read_timeout, st.decoder.mid_frame()) {
                    (Some(rt), true) => {
                        self.deadlines.insert(token, now + rt);
                    }
                    _ => {
                        self.deadlines.remove(&token);
                    }
                }
            }
        }
    }

    /// Sever and forget one connection. Idempotent (keyed on the map
    /// removal); safe while a worker is mid-request on it — the worker
    /// sees `dead` when it relocks and walks away.
    fn finish(&mut self, conn: &Arc<Conn>) {
        if self.conns.remove(&conn.token).is_none() {
            return;
        }
        self.deadlines.remove(&conn.token);
        let mut st = lock(&conn.state);
        st.dead = true;
        let _ = self.epoll.delete(st.stream.as_raw_fd());
        let _ = st.stream.shutdown(std::net::Shutdown::Both);
        if st.counted {
            st.counted = false;
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Resync every connection a worker handed back since the last
    /// turn (bytes left over, reads to re-arm, or finished — see
    /// [`hand_back`]), with the same per-connection panic containment as
    /// [`Self::conn_event`].
    fn process_dirty(&mut self) {
        let tokens = std::mem::take(&mut *lock(&self.shared.dirty));
        if tokens.is_empty() {
            return;
        }
        let now = Instant::now();
        for token in tokens {
            let Some(conn) = self.lookup(token) else {
                continue; // severed meanwhile
            };
            let drove = catch_unwind(AssertUnwindSafe(|| {
                self.settle(&conn, lock(&conn.state), now)
            }));
            if drove.is_err() {
                self.shared
                    .counters
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
                lock(&conn.state).dead = true;
                self.finish(&conn);
            }
        }
    }

    fn check_deadlines(&mut self) {
        if self.deadlines.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<u64> = self
            .deadlines
            .iter()
            .filter(|(_, t)| **t <= now)
            .map(|(k, _)| *k)
            .collect();
        for token in expired {
            self.deadlines.remove(&token);
            let Some(conn) = self.lookup(token) else {
                continue;
            };
            let mut st = lock(&conn.state);
            if st.phase == Phase::Closing {
                // goodbye-flush linger expired: the peer never read
                // its Busy/Error — sever
                st.dead = true;
            } else {
                // slow-loris guard: stalled mid-frame (or never
                // finished the handshake) past the deadline
                self.shared
                    .counters
                    .read_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                fatal_msg(
                    &mut st,
                    "read timeout: no complete frame within the deadline".into(),
                );
                try_flush(&mut st);
            }
            self.sync(&conn, st, now);
        }
    }

    /// Graceful drain: no more reads anywhere; everything already
    /// decoded is answered, flushed, then closed.
    fn apply_drain(&mut self) {
        self.draining_applied = true;
        let conns: Vec<Arc<Conn>> = self.conns.values().cloned().collect();
        let now = Instant::now();
        for conn in conns {
            let mut st = lock(&conn.state);
            st.phase = Phase::Closing;
            try_flush(&mut st);
            self.sync(&conn, st, now);
        }
    }

    fn close_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            let mut st = lock(&conn.state);
            st.dead = true;
            let _ = st.stream.shutdown(std::net::Shutdown::Both);
        }
        self.deadlines.clear();
    }
}

/// Flush what the connection owes its socket, with the outbound
/// failpoint: an injected `wire.write` fault models the transport dying
/// mid-write (the peer sees a close). Called by whoever just queued
/// replies under the connection lock — the reactor or a worker.
fn try_flush(st: &mut ConnState) {
    if st.dead || st.unwritten() == 0 {
        return;
    }
    #[cfg(feature = "failpoints")]
    if recycling::fault::fire("wire.write").is_some() {
        st.dead = true;
        return;
    }
    if !st.flush() {
        st.dead = true;
    }
}

fn fatal(st: &mut ConnState, e: &ProtoError) {
    fatal_msg(st, format!("protocol error: {e}"));
}

/// Queue a connection-fatal `Error` frame (request id 0) and stop
/// reading. Requests already decoded stay queued — they are answered
/// before the close, in order, exactly as a drain would.
fn fatal_msg(st: &mut ConnState, message: String) {
    st.queue_response(&Response::Error { id: 0, message });
    st.phase = Phase::Closing;
}

// ----- the workers ----------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = lock(&shared.ready);
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if !shared.running.load(Ordering::Relaxed) {
                    return;
                }
                q = shared
                    .ready_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let st = run_conn(shared, &conn, lock(&conn.state), None);
        hand_back(shared, &conn, st);
    }
}

/// A worker's epilogue: flush the replies it queued, still under the
/// connection lock, and involve the reactor only for what the reactor
/// alone may do — change the socket's epoll interest (bytes left over:
/// `EPOLLOUT`; reads paused at `max_pipeline` and now drained:
/// `EPOLLIN`) or reap the connection (finished, or dead). A batch whose
/// replies the socket took whole costs no eventfd write, no `dirty`
/// push and no extra reactor turn.
fn hand_back(shared: &Shared, conn: &Conn, mut st: MutexGuard<'_, ConnState>) {
    try_flush(&mut st);
    let reactor_needed =
        st.finished() || st.wanted_interest(shared.config.pipeline_cap()) != st.interest;
    drop(st);
    if reactor_needed {
        lock(&shared.dirty).push(conn.token);
        shared.wake_reactor();
    }
}

/// Execute one connection's queued requests — the only place a request
/// executes, with two callers. The caller holds the connection's run
/// slot (`running`), so the session sees requests strictly in arrival
/// order whoever runs them; the lock comes in and goes out held, and is
/// released around each execution.
///
/// * A **worker** (`inline` = `None`) runs at most [`WORKER_BATCH`]
///   requests before re-queueing the connection behind other runnable
///   ones.
/// * The **reactor** (`inline` = what is left of its per-turn allowance)
///   keeps going only while the **inline gate** holds: the connection's
///   previous request was a query that finished under
///   [`INLINE_BUDGET_US`] ([`ConnState::cheap`]), the next one is not a
///   `Commit`, and allowance is left. The first request that fails the
///   gate, and everything queued behind it, goes to the ready queue with
///   the run slot still taken — so a slow query costs the reactor at
///   most the one request that revealed it.
fn run_conn<'a>(
    shared: &Shared,
    conn: &'a Arc<Conn>,
    mut st: MutexGuard<'a, ConnState>,
    mut inline: Option<&mut usize>,
) -> MutexGuard<'a, ConnState> {
    let mut executed = 0;
    loop {
        if st.dead || !shared.running.load(Ordering::Relaxed) {
            st.running = false;
            return st;
        }
        let Some(next) = st.pending.front() else {
            // nothing left: release the run slot. The reactor appends
            // and dispatches under this same lock, and only dispatches
            // when `running` is already false — no lost work.
            st.running = false;
            return st;
        };
        let keep_going = match inline.as_deref_mut() {
            Some(left) => {
                let gate = st.cheap && *left > 0 && !matches!(next.req, Request::Commit { .. });
                if gate {
                    *left -= 1;
                }
                gate
            }
            // fairness: yield to other runnable connections
            None => executed < WORKER_BATCH,
        };
        if !keep_going {
            // keep the run slot — nobody else may execute this session —
            // and let the next free worker carry on
            shared.enqueue(conn);
            return st;
        }
        let work = st.pending.pop_front().expect("front was Some");
        if matches!(work.req, Request::Close) {
            st.queue_response(&Response::Closed);
            st.phase = Phase::Closing;
            st.pending.clear(); // frames pipelined past Close are void
            st.running = false;
            return st;
        }
        // Lazy session: first Query/Commit pays for the engine; idle and
        // stats-only connections never do. The session leaves the state
        // for the duration of the run so the reactor keeps reading and
        // flushing this very connection while a worker executes on it.
        let mut session = st.session.take();
        drop(st);
        if session.is_none() {
            session = Some(shared.db.session());
        }
        let response = execute_contained(shared, session.as_mut().expect("just filled"), work);
        let ran = if inline.is_some() {
            &shared.counters.inline_requests
        } else {
            &shared.counters.queued_requests
        };
        ran.fetch_add(1, Ordering::Relaxed);
        executed += 1;
        st = lock(&conn.state);
        st.session = session;
        // the history the gate reads: the query's own server-side time,
        // the figure its reply carries anyway (no extra clock read)
        st.cheap = matches!(
            &response,
            Response::Query { result, .. } if result.elapsed_us < INLINE_BUDGET_US
        );
        if !st.dead {
            st.queue_response(&response);
        }
    }
}

/// Run one request under panic containment: a handler that panics costs
/// one typed `Error` reply, never the thread running it — worker or
/// reactor. A panic under the recycler's pool lock emptied the pool
/// before the lock unlocked, so there is nothing to mend here: the next
/// request misses and re-admits.
fn execute_contained(shared: &Shared, session: &mut Session, work: Work) -> Response {
    let id = work.req.id().unwrap_or(0);
    match catch_unwind(AssertUnwindSafe(|| execute(&shared.db, session, work))) {
        Ok(resp) => resp,
        Err(_) => {
            shared
                .counters
                .worker_panics
                .fetch_add(1, Ordering::Relaxed);
            Response::Error {
                id,
                message: "internal error: request panicked; connection still serviceable".into(),
            }
        }
    }
}

/// Execute one request against the connection's session. Wire deadlines
/// (`deadline_ms`) are measured from the frame's decode time, so time
/// spent queued behind earlier pipelined requests counts against the
/// budget.
fn execute(db: &Database, session: &mut Session, work: Work) -> Response {
    match work.req {
        Request::Query {
            id,
            template,
            params,
            deadline_ms,
        } => {
            let result = if deadline_ms > 0 {
                let budget = Duration::from_millis(deadline_ms).saturating_sub(work.at.elapsed());
                session.query_named_with_deadline(&template, &params, budget)
            } else {
                session.query_named(&template, &params)
            };
            match result {
                Ok(reply) => Response::Query {
                    id,
                    result: QueryResult {
                        exports: reply
                            .exports
                            .iter()
                            .map(|(n, v)| (n.clone(), displayable(v)))
                            .collect(),
                        marked: reply.marked,
                        reused: reply.reused,
                        subsumed: reply.subsumed,
                        admitted: reply.admitted,
                        elapsed_us: reply.elapsed.as_micros() as u64,
                    },
                },
                Err(e) => Response::Error {
                    id,
                    message: e.to_string(),
                },
            }
        }
        Request::Commit {
            id,
            table,
            inserts,
            deletes,
        } => {
            let update = Update::to(&table).insert(inserts).delete(deletes);
            match session.commit(update) {
                Ok(report) => Response::Commit {
                    id,
                    inserted: report
                        .inserted
                        .first()
                        .map(|(_, b)| b.len() as u64)
                        .unwrap_or(0),
                    deleted: report.deleted.len() as u64,
                    epoch: db.epoch(),
                },
                Err(e) => Response::Error {
                    id,
                    message: e.to_string(),
                },
            }
        }
        // Hello/Stats never queue (answered at decode time) and Close is
        // `run_conn`'s own
        other => Response::Error {
            id: other.id().unwrap_or(0),
            message: "internal error: request routed to a worker unexpectedly".into(),
        },
    }
}

fn stats_pairs(shared: &Shared) -> Vec<(String, u64)> {
    let db = &shared.db;
    let counters = &shared.counters;
    let s = db.stats();
    let pool = db.pool();
    let pairs: Vec<(&str, u64)> = vec![
        ("monitored", s.monitored),
        ("hits", s.hits),
        ("local_hits", s.local_hits),
        ("global_hits", s.global_hits),
        ("cross_session_hits", s.cross_session_hits),
        ("subsumed", s.subsumed),
        ("admissions", s.admissions),
        ("admission_rejects", s.admission_rejects),
        ("duplicate_admissions", s.duplicate_admissions),
        ("evictions", s.evictions),
        ("inline_evictions", s.inline_evictions),
        ("leaf_index_size", s.leaf_index_size),
        ("evict_gather_visited", s.evict_gather_visited),
        ("evict_gather_rounds", s.evict_gather_rounds),
        ("invalidated", s.invalidated),
        ("sessions", s.sessions),
        ("active_sessions", s.active_sessions),
        // fault observability: recycler-side ...
        ("deadline_skips", s.deadline_skips),
        ("pool_wipes", s.pool_wipes),
        // ... and server-side
        ("server_worker_panics", counters.worker_panics()),
        ("server_accept_errors", counters.accept_errors()),
        ("server_read_timeouts", counters.read_timeouts()),
        ("server_inline_requests", counters.inline_requests()),
        ("server_queued_requests", counters.queued_requests()),
        ("server_reactor_wakeups", counters.reactor_wakeups()),
        (
            "server_live_connections",
            shared.live.load(Ordering::Relaxed) as u64,
        ),
        (
            "server_rejected_connections",
            shared.rejected.load(Ordering::Relaxed),
        ),
        ("pool_entries", pool.len() as u64),
        ("pool_bytes", pool.bytes() as u64),
        ("epoch", db.epoch()),
    ];
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}
