//! The `server_c10k` scenario: thousands of mostly-idle connections plus
//! a handful of hot ones against the epoll reactor front-end.
//!
//! Two claims are measured, the ones the reactor rewrite was for:
//!
//! 1. **flat memory per idle connection** — an idle connection costs a
//!    token, an empty decoder and an empty write buffer, not a thread
//!    stack. RSS is sampled from `/proc/self/statm` before and after the
//!    idle swarm connects (server and swarm share this process, so the
//!    delta is an upper bound on the server's own cost);
//! 2. **no throughput loss** — the hot clients' blocking query rate
//!    through the reactor must match a classic thread-per-connection
//!    server speaking the same protocol (built here from the blocking
//!    `read_frame`/`write_frame` halves the reactor retired), one
//!    call-and-wait connection must match the same connection against
//!    that server — a blocking server never had a hand-off, and a warm
//!    connection no longer pays one here — and the pipelined path must
//!    beat one-at-a-time round trips.
//!
//! The whole scenario runs pinned to one CPU ([`crate::affinity`]):
//! unpinned, both rates are bimodal on a two-vCPU VM and their ratio says
//! which way the scheduler happened to spread the threads.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use rcy_server::protocol::{
    decode_request, decode_response, displayable, encode_request, encode_response, read_frame,
    write_frame, QueryResult, Request, Response,
};
use rcy_server::{Client, Server, ServerConfig};
use recycling::{Database, DatabaseBuilder};
use rmal::{ProgramBuilder, P};

/// What one `server_c10k` run measured.
#[derive(Debug, Clone)]
pub struct C10kOutcome {
    /// Idle connections held open through the hot phase.
    pub idle_connections: usize,
    /// Concurrent hot clients.
    pub hot_clients: usize,
    /// Total queries the hot clients pushed through the reactor.
    pub hot_queries: usize,
    /// Process RSS before the idle swarm connected (bytes).
    pub rss_before_idle: u64,
    /// Process RSS with the whole idle swarm connected (bytes).
    pub rss_with_idle: u64,
    /// RSS delta per idle connection (bytes; client + server side, both
    /// in this process).
    pub per_idle_conn_bytes: f64,
    /// Blocking-client throughput through the reactor, queries/sec.
    pub reactor_qps: f64,
    /// The same hot workload against a thread-per-connection server.
    pub baseline_qps: f64,
    /// One blocking connection, strictly call-and-wait, queries/sec —
    /// the fair comparator for the pipelined number (same single
    /// session, so round trips are the only difference).
    pub sequential_qps: f64,
    /// The same single call-and-wait connection against the
    /// thread-per-connection server: a round trip with no hand-off in
    /// it, the bar `sequential_qps` is held to.
    pub baseline_sequential_qps: f64,
    /// The CPU the scenario was pinned to (`None`: ran unpinned).
    pub pinned_to_cpu: Option<usize>,
    /// One pipelined connection replaying the same queries in batches.
    pub pipelined_qps: f64,
    /// Live connections the server reported at the height of the swarm.
    pub live_connections: u64,
    /// The fd soft limit after raising it (the swarm needs headroom).
    pub nofile_limit: u64,
}

impl C10kOutcome {
    /// Flat-memory verdict: an idle connection must cost less than
    /// `bound` bytes of RSS (both endpoints counted).
    pub fn idle_memory_is_flat(&self, bound: f64) -> bool {
        self.per_idle_conn_bytes <= bound
    }
    /// Throughput verdict with a noise `tolerance` (e.g. `0.75` = the
    /// reactor may be up to 25% slower before the claim fails), on the
    /// hot clients and on the single call-and-wait connection alike.
    pub fn throughput_holds(&self, tolerance: f64) -> bool {
        self.reactor_qps >= self.baseline_qps * tolerance
            && self.sequential_qps >= self.baseline_sequential_qps * tolerance
    }
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..4000i64 {
        tb.push_row(&[Value::Int((i * 37) % 4000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());
    cat
}

fn bench_db() -> Database {
    let mut b = ProgramBuilder::new("count_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    DatabaseBuilder::new(catalog())
        .template("count_range", b.finish())
        .build()
}

/// Resident set size in bytes from `/proc/self/statm` (0 where absent —
/// the scenario then reports zeros rather than failing).
fn rss_bytes() -> u64 {
    const PAGE: u64 = 4096; // the offline build has no sysconf; Linux default
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0)
        * PAGE
}

/// The retired architecture, rebuilt as a bench baseline: one blocking
/// OS thread per accepted connection, `read_frame` → execute →
/// `write_frame`, one session per connection. This is exactly what the
/// reactor replaced, so its hot-path throughput is the bar the reactor
/// must clear.
fn thread_per_conn_server(db: Database) -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind baseline");
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let accept = thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut handles = Vec::new();
        while !stop2.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    stream.set_nodelay(true).ok();
                    let db = db.clone();
                    handles.push(thread::spawn(move || serve_blocking(&db, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(_) => break,
            }
        }
        for h in handles {
            h.join().ok();
        }
    });
    (addr, stop, accept)
}

fn serve_blocking(db: &Database, mut stream: TcpStream) {
    let mut session = None;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            _ => return,
        };
        let resp = match decode_request(&payload) {
            Ok(Request::Hello { version }) => Response::Hello { version },
            Ok(Request::Query {
                id,
                template,
                params,
                ..
            }) => {
                let s = session.get_or_insert_with(|| db.session());
                match s.query_named(&template, &params) {
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
            Ok(Request::Close) => {
                let bytes = encode_response(&Response::Closed).unwrap();
                write_frame(&mut stream, &bytes).ok();
                return;
            }
            _ => return,
        };
        let bytes = encode_response(&resp).unwrap();
        if write_frame(&mut stream, &bytes).is_err() {
            return;
        }
    }
}

/// Replay `per_client` blocking queries from `clients` threads against
/// whatever v2 server answers at `addr`; returns aggregate queries/sec.
fn hot_phase(addr: SocketAddr, clients: usize, per_client: usize) -> f64 {
    let started = Instant::now();
    thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("hot connect");
                for i in 0..per_client {
                    let lo = (((c * 7919 + i * 13) % 3800) as i64).max(0);
                    client
                        .query("count_range", &[Value::Int(lo), Value::Int(lo + 120)])
                        .expect("hot query");
                }
                client.close().ok();
            });
        }
    });
    (clients * per_client) as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// The scenario. `idle` mostly-idle connections are opened (handshake
/// only, then silence), then `hot` clients push `per_client` queries
/// each through the reactor, then one connection replays the same count
/// pipelined. The thread-per-connection baseline serves only the hot
/// phase — giving it the idle swarm would need `idle` OS threads, which
/// is the disease, not the control group.
pub fn server_c10k(idle: usize, hot: usize, per_client: usize) -> C10kOutcome {
    let nofile_limit = rcy_server::raise_nofile_limit().unwrap_or(0);
    // every thread below is spawned, and joined, under the pin
    let pinned = crate::affinity::pin_to_one_cpu();

    // --- baseline first (fresh db, fresh process state) ---
    let (base_addr, base_stop, base_join) = thread_per_conn_server(bench_db());
    let baseline_qps = hot_phase(base_addr, hot, per_client);
    let baseline_sequential_qps = hot_phase(base_addr, 1, hot * per_client);
    base_stop.store(true, Ordering::Relaxed);
    // poke the accept loop awake if it is parked in the poll sleep
    let _ = TcpStream::connect(base_addr);
    base_join.join().ok();

    // --- the reactor, with the idle swarm on top ---
    let server = Server::start(
        bench_db(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: hot.max(1),
            backlog: hot.max(1),
            max_connections: Some(idle + hot + 8),
            ..Default::default()
        },
    )
    .expect("start reactor");
    let addr = server.local_addr();

    let rss_before_idle = rss_bytes();
    // raw sockets, not full `Client`s: an idle peer here is one fd plus
    // nothing, so the RSS delta is dominated by the *server's* per-idle
    // cost — the quantity under test
    let hello = encode_request(&Request::Hello {
        version: rcy_server::PROTOCOL_VERSION,
    })
    .unwrap();
    let mut swarm: Vec<TcpStream> = Vec::with_capacity(idle);
    for _ in 0..idle {
        // a handshaken, then silent, connection — the keep-alive shape
        let mut raw = TcpStream::connect(addr).expect("idle connect");
        write_frame(&mut raw, &hello).expect("idle hello");
        let ack = read_frame(&mut raw)
            .expect("idle handshake read")
            .expect("idle handshake ack");
        assert!(matches!(
            decode_response(&ack).expect("idle ack decode"),
            Response::Hello { .. }
        ));
        swarm.push(raw);
    }
    let rss_with_idle = rss_bytes();
    let live_connections = server.live_connections() as u64;

    let reactor_qps = hot_phase(addr, hot, per_client);

    // one connection, call-and-wait: the pipelining comparator
    let sequential_qps = hot_phase(addr, 1, hot * per_client);

    // --- pipelined: one connection, the whole hot-client volume ---
    let pipelined_qps = {
        let mut client = Client::connect(addr).expect("pipelined connect");
        let total = hot * per_client;
        let started = Instant::now();
        let mut done = 0usize;
        while done < total {
            let batch = 64.min(total - done);
            let params: Vec<Vec<Value>> = (0..batch)
                .map(|i| {
                    let lo = ((((done + i) * 13) % 3800) as i64).max(0);
                    vec![Value::Int(lo), Value::Int(lo + 120)]
                })
                .collect();
            let reqs: Vec<(&str, &[Value])> = params
                .iter()
                .map(|p| ("count_range", p.as_slice()))
                .collect();
            client.query_many(&reqs).expect("pipelined batch");
            done += batch;
        }
        let qps = total as f64 / started.elapsed().as_secs_f64().max(1e-9);
        client.close().ok();
        qps
    };

    drop(swarm);
    server.shutdown();

    let per_idle_conn_bytes = if idle > 0 {
        rss_with_idle.saturating_sub(rss_before_idle) as f64 / idle as f64
    } else {
        0.0
    };
    C10kOutcome {
        idle_connections: idle,
        hot_clients: hot,
        hot_queries: hot * per_client,
        rss_before_idle,
        rss_with_idle,
        per_idle_conn_bytes,
        reactor_qps,
        baseline_qps,
        sequential_qps,
        baseline_sequential_qps,
        pinned_to_cpu: pinned.map(|p| p.cpu),
        pipelined_qps,
        live_connections,
        nofile_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c10k_smoke_idle_swarm_is_cheap_and_throughput_holds() {
        // small but real: enough idle connections to dwarf any fixed
        // cost, few enough to stay fast in CI's unit-test leg
        let out = server_c10k(256, 2, 40);
        assert_eq!(out.idle_connections, 256);
        assert!(
            out.live_connections >= 256,
            "swarm not actually connected: {out:?}"
        );
        assert!(out.reactor_qps > 0.0 && out.baseline_qps > 0.0);
        // both endpoints of an idle connection live in this process;
        // 64 KiB covers them with margin while still catching a
        // thread-stack (512 KiB+) or per-conn-scratch regression cold
        assert!(
            out.idle_memory_is_flat(64.0 * 1024.0),
            "idle connections are not flat: {:.0} bytes each ({out:?})",
            out.per_idle_conn_bytes
        );
    }

    #[test]
    fn baseline_server_speaks_v2() {
        let (addr, stop, join) = thread_per_conn_server(bench_db());
        let mut c = Client::connect(addr).expect("handshake with baseline");
        let reply = c
            .query("count_range", &[Value::Int(0), Value::Int(50)])
            .unwrap();
        assert_eq!(reply.exports[0].1, Value::Int(51));
        c.close().unwrap();
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr);
        join.join().unwrap();
    }
}
