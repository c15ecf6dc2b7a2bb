//! The inline gate of the TCP front-end: the reactor keeps a
//! connection's run slot and executes the requests itself when the
//! connection's own history says they are smaller than a hand-off, and
//! hands everything else to the worker pool. Pinned here, from the
//! server's hand-off counters (`ServeCounters::{inline_requests,
//! queued_requests, reactor_wakeups}`):
//!
//! * a warm connection runs inline with no wake-up at all, a fresh
//!   connection's first request and every `Commit` are queued;
//! * a slow query holds the reactor at most once — the request that
//!   reveals it — and `Stats` is answered while a queued one still runs;
//! * the answer does not depend on which thread executed the request;
//! * a panic in a request executing on the reactor is contained
//!   (`--features failpoints`);
//! * a graceful drain answers everything already decoded, and a wire
//!   deadline still measures from decode time;
//! * `Server::shutdown` cannot lose its wake-up.
//!
//! The gate reads a wall-clock figure (the query's own server-side
//! time), so the tests that need *exact* inline counts run a query far
//! below the budget in a release build, and only bound the counts in a
//! debug build, where the same query may or may not fit.

use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use rcy_server::protocol::{encode_request, write_frame, Request, PROTOCOL_VERSION};
use rcy_server::{Client, ClientError, ServeCounters, Server, ServerConfig};
use recycling::{Database, DatabaseBuilder};
use rmal::{Program, ProgramBuilder, P};

/// Counts and timing are per process (and so is the failpoint registry):
/// one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Rows of the table the slow template sorts.
const BIG_ROWS: i64 = 300_000;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..2000i64 {
        tb.push_row(&[Value::Int((i * 37) % 2000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());
    let mut tb = TableBuilder::new("big").column("v", LogicalType::Int);
    for i in 0..BIG_ROWS {
        tb.push_row(&[Value::Int((i * 7919) % BIG_ROWS)]);
    }
    cat.add_table(tb.finish());
    cat
}

/// Microseconds of work: a range count over 2 000 rows.
fn count_template() -> Program {
    let mut b = ProgramBuilder::new("count_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// Milliseconds of work: select and sort a few hundred thousand rows.
fn slow_template() -> Program {
    let mut b = ProgramBuilder::new("sort_big", 2);
    let col = b.bind("big", "v");
    let sel = b.select_closed(col, P(0), P(1));
    let sorted = b.sort(sel, true);
    let n = b.count(sorted);
    b.export("n", n);
    b.finish()
}

fn builder() -> DatabaseBuilder {
    DatabaseBuilder::new(catalog())
        .template("count_range", count_template())
        .template("sort_big", slow_template())
}

fn serving_db() -> Database {
    builder().build()
}

fn start(db: Database) -> Server {
    Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn cheap(c: &mut Client, lo: i64) -> Result<rcy_server::QueryResult, ClientError> {
    c.query("count_range", &[Value::Int(lo), Value::Int(lo + 100)])
}

const SLOW_PARAMS: [Value; 2] = [Value::Int(0), Value::Int(BIG_ROWS)];

/// `(inline, queued, wake-ups)` so far.
fn counts(c: &ServeCounters) -> (u64, u64, u64) {
    (
        c.inline_requests(),
        c.queued_requests(),
        c.reactor_wakeups(),
    )
}

/// Who executed the request `f` sent: the counters move before the reply
/// is queued, so a finished round trip has been counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ran {
    Inline,
    Queued,
}

fn who_ran(server: &Server, f: impl FnOnce()) -> Ran {
    let before = counts(server.counters());
    f();
    let after = counts(server.counters());
    match (after.0 - before.0, after.1 - before.1) {
        (1, 0) => Ran::Inline,
        (0, 1) => Ran::Queued,
        other => panic!("one request must be executed exactly once, counters moved by {other:?}"),
    }
}

fn stat(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("stats key {name} missing"))
}

// ----- exact counts ---------------------------------------------------------

/// A warm connection costs no hand-off at all: 1 000 round trips run
/// 1 000 requests on the reactor, queue none and never write the eventfd.
/// The first request of a fresh connection and every `Commit` are queued;
/// the request after a commit is too (a commit is not cheap history).
#[test]
fn warm_connection_runs_inline_without_a_wakeup() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(serving_db());

    // The gate reads the query's own wall-clock time, so a reactor that
    // loses its CPU mid-query overruns the budget — and pays exactly one
    // queued request for it. That is rare (a few requests in 20 000 on
    // the two-vCPU box this was written on), so a handful of attempts,
    // each on a fresh connection, make it a non-event. (Fresh, because a
    // session's query log grows by doubling: request 1 024 of a session
    // reallocates it and takes 50–80 µs, every time.)
    let n = 1000;
    let mut exact = false;
    for _attempt in 0..5 {
        let mut c = Client::connect(server.local_addr()).unwrap();
        let connected = counts(server.counters());
        // no history: a worker measures the first request — and flushes
        // its own reply, with nothing left for the reactor to do
        let first = who_ran(&server, || {
            cheap(&mut c, 0).unwrap();
        });
        assert_eq!(first, Ran::Queued);
        assert_eq!(server.counters().reactor_wakeups(), connected.2);
        for i in 0..8 {
            cheap(&mut c, i * 50).unwrap(); // admit the 8 ranges
        }

        let before = counts(server.counters());
        for i in 0..n {
            // warm-pool exact hits
            let reply = cheap(&mut c, (i % 8) * 50).unwrap();
            assert_eq!(reply.exports[0].1, Value::Int(101));
        }
        let after = counts(server.counters());
        assert_eq!(
            (after.0 - before.0) + (after.1 - before.1),
            n as u64,
            "every request is executed exactly once"
        );
        assert_eq!(after.2, before.2, "no eventfd write on either path");
        c.close().unwrap();
        if cfg!(debug_assertions) || after.0 - before.0 == n as u64 {
            exact = true;
            break;
        }
    }
    assert!(exact, "a warm connection must run every request inline");

    // a commit never runs on the reactor, and is not cheap history
    let mut c = Client::connect(server.local_addr()).unwrap();
    cheap(&mut c, 0).unwrap();
    cheap(&mut c, 0).unwrap(); // cheap history
    let row = vec![vec![Value::Int(1), Value::Int(1)]];
    assert_eq!(
        who_ran(&server, || {
            c.commit("t", row, vec![]).unwrap();
        }),
        Ran::Queued
    );
    assert_eq!(
        who_ran(&server, || {
            cheap(&mut c, 0).unwrap();
        }),
        Ran::Queued
    );
    if !cfg!(debug_assertions) {
        assert_eq!(
            who_ran(&server, || {
                cheap(&mut c, 0).unwrap();
            }),
            Ran::Inline
        );
    }

    // the same counters travel in the wire Stats frame
    let pairs = c.stats().unwrap();
    let now = counts(server.counters());
    assert_eq!(stat(&pairs, "server_inline_requests"), now.0);
    assert_eq!(stat(&pairs, "server_queued_requests"), now.1);
    assert_eq!(stat(&pairs, "server_reactor_wakeups"), now.2);
    c.close().unwrap();
    server.shutdown();
}

// ----- a slow query cannot hold the reactor twice ---------------------------

/// One connection alternates a cheap and a deliberately slow template on
/// a recycling-free database (every slow query really is slow). Per
/// cheap → slow transition at most one slow request runs on the reactor —
/// the one that reveals it; every slow request after a slow one is a
/// worker's, and while it runs a second connection's `Stats` is answered
/// at once.
#[test]
fn slow_query_cannot_hold_the_reactor_twice() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(builder().naive().build());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    cheap(&mut a, 0).unwrap();

    let mut slow_inline = 0;
    let mut slow_took = Duration::MAX;
    for _cycle in 0..4 {
        cheap(&mut a, 0).unwrap();
        cheap(&mut a, 50).unwrap();
        // cheap → slow: history says cheap, so this one may run inline
        let started = Instant::now();
        let ran = who_ran(&server, || {
            let r = a.query("sort_big", &SLOW_PARAMS).unwrap();
            assert_eq!(r.exports[0].1, Value::Int(BIG_ROWS));
        });
        slow_took = slow_took.min(started.elapsed());
        slow_inline += u32::from(ran == Ran::Inline);
        // slow → slow: never on the reactor again
        for _ in 0..2 {
            let queued_before = server.counters().queued_requests();
            let ran = who_ran(&server, || {
                let id = a.send_query("sort_big", &SLOW_PARAMS).unwrap();
                a.flush().unwrap();
                // the reactor is free: Stats overtakes the running query
                let asked = Instant::now();
                let pairs = b.stats().unwrap();
                let waited = asked.elapsed();
                assert_eq!(
                    stat(&pairs, "server_queued_requests"),
                    queued_before,
                    "Stats must be answered while the queued slow query still runs \
                     (it waited {waited:?}; a slow query takes {slow_took:?})"
                );
                a.recv_query(id).unwrap();
            });
            assert_eq!(ran, Ran::Queued, "a slow query after a slow one");
        }
    }
    // (at most one per transition by construction: the other slow
    // requests were just asserted queued)
    if !cfg!(debug_assertions) {
        assert!(slow_inline > 0, "the gate never opened: nothing was tested");
    }
    assert_eq!(server.counters().worker_panics(), 0);
    a.close().unwrap();
    b.close().unwrap();
    server.shutdown();
}

// ----- same answers either way ----------------------------------------------

/// The same parameters through the queue path (the first request of a
/// fresh connection, one connection per request) and through the inline
/// path (one warm connection), each against its own identically built
/// database: same exports, same `marked`/`reused`/`subsumed`/`admitted`
/// per request, same database-wide counters, and the stats identity
/// holds on both.
#[test]
fn queue_path_and_inline_path_give_the_same_answers() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // repeats (exact hits), nested ranges (subsumption), fresh ranges
    let ranges: Vec<(i64, i64)> = (0..40)
        .map(|i| match i % 4 {
            0 => (i * 11 % 700, i * 11 % 700 + 900),
            1 => (100, 1000),
            2 => (200 + i, 800 - i),
            _ => ((i * 67) % 800, (i * 67) % 800 + 300),
        })
        .collect();
    let observe =
        |r: rcy_server::QueryResult| (r.exports, r.marked, r.reused, r.subsumed, r.admitted);

    let queued_db = serving_db();
    let queued_server = start(queued_db.clone());
    let by_queue: Vec<_> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let mut c = Client::connect(queued_server.local_addr()).unwrap();
            let r = c.query("count_range", &[Value::Int(lo), Value::Int(hi)]);
            c.close().unwrap();
            observe(r.unwrap())
        })
        .collect();
    let (inline, queued, _) = counts(queued_server.counters());
    assert_eq!((inline, queued), (0, ranges.len() as u64));
    queued_server.shutdown();

    let inline_db = serving_db();
    let inline_server = start(inline_db.clone());
    let mut c = Client::connect(inline_server.local_addr()).unwrap();
    let by_reactor: Vec<_> = ranges
        .iter()
        .map(|&(lo, hi)| {
            observe(
                c.query("count_range", &[Value::Int(lo), Value::Int(hi)])
                    .unwrap(),
            )
        })
        .collect();
    let (inline, queued, _) = counts(inline_server.counters());
    assert_eq!(inline + queued, ranges.len() as u64);
    if !cfg!(debug_assertions) {
        assert!(
            inline >= ranges.len() as u64 / 2,
            "the warm connection must have run inline: {inline} inline, {queued} queued"
        );
    }
    c.close().unwrap();
    inline_server.shutdown();

    assert_eq!(by_queue, by_reactor);
    let (q, i) = (queued_db.stats(), inline_db.stats());
    for s in [&q, &i] {
        assert_eq!(
            s.monitored,
            s.hits + s.admissions + s.duplicate_admissions + s.admission_rejects,
            "{s:?}"
        );
    }
    assert_eq!(
        (q.monitored, q.hits, q.subsumed, q.admissions),
        (i.monitored, i.hits, i.subsumed, i.admissions)
    );
    assert_eq!(queued_db.pool().len(), inline_db.pool().len());
}

// ----- drain and deadlines --------------------------------------------------

/// `shutdown_graceful` answers everything already decoded: a slow query
/// on a worker with twenty cheap ones decoded behind it, a `Stats` at the
/// end of the same write as the proof that all of them were decoded —
/// then the drain. All twenty-one replies arrive, then a clean close.
#[test]
fn graceful_drain_answers_every_decoded_request() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(builder().naive().build());
    let mut c = Client::connect(server.local_addr()).unwrap();
    cheap(&mut c, 0).unwrap();
    c.query("sort_big", &SLOW_PARAMS).unwrap(); // history: slow

    let slow = c.send_query("sort_big", &SLOW_PARAMS).unwrap();
    let behind: Vec<u64> = (0..20)
        .map(|i| {
            c.send_query("count_range", &[Value::Int(i), Value::Int(i + 100)])
                .unwrap()
        })
        .collect();
    let barrier = c.send_stats().unwrap();
    // Stats is answered at decode time, out of band: once it is here,
    // the 21 requests written before it have been decoded too
    c.recv_stats(barrier).unwrap();

    let drained = std::thread::spawn(move || server.shutdown_graceful(Duration::from_secs(30)));
    assert_eq!(
        c.recv_query(slow).unwrap().exports[0].1,
        Value::Int(BIG_ROWS)
    );
    for id in behind {
        assert_eq!(c.recv_query(id).unwrap().exports[0].1, Value::Int(101));
    }
    drained.join().unwrap();
    assert!(
        cheap(&mut c, 0).is_err(),
        "the drained connection is closed after its last reply"
    );
}

/// A wire `deadline_ms` measures from decode time whoever executes: a
/// request decoded together with a slow one ahead of it has spent its
/// budget waiting — on a warm connection (the slow one runs inline, the
/// rest on a worker) and on a slow one (everything on a worker) alike.
#[test]
fn wire_deadline_counts_the_wait_behind_earlier_requests() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(builder().naive().build());
    let mut c = Client::connect(server.local_addr()).unwrap();
    cheap(&mut c, 0).unwrap();
    for slow_history in [false, true] {
        if slow_history {
            c.query("sort_big", &SLOW_PARAMS).unwrap();
        }
        let slow = c.send_query("sort_big", &SLOW_PARAMS).unwrap();
        let hurried = c
            .send_query_with_deadline(
                "count_range",
                &[Value::Int(0), Value::Int(100)],
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        let patient = c
            .send_query_with_deadline(
                "count_range",
                &[Value::Int(0), Value::Int(100)],
                Some(Duration::from_secs(60)),
            )
            .unwrap();
        c.recv_query(slow).unwrap();
        match c.recv_query(hurried) {
            Err(ClientError::Remote(msg)) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("a budget spent queueing must fail the query, got {other:?}"),
        }
        assert_eq!(c.recv_query(patient).unwrap().exports[0].1, Value::Int(101));
    }
    c.close().unwrap();
    server.shutdown();
}

// ----- shutdown -------------------------------------------------------------

/// Regression: `Server::shutdown` could lose its wake-up and hang.
///
/// The reactor used to check `running` once per turn, right after
/// `epoll_wait` returned, and drain the eventfd later in the same turn.
/// A turn that (1) flushed a reply to a client mid-turn and (2) also had
/// the eventfd in its event list — a worker's notification — let that
/// client call `shutdown()` between the check and the drain: `running =
/// false` stored, eventfd written, then the write swallowed by the drain.
/// With no deadline armed the next `epoll_wait(None)` slept forever while
/// `shutdown` blocked in `join` (workers gone, `rcy-reactor` in `ep_poll`,
/// the caller in `futex_do_wait`). It took replies flushed from the
/// reactor's own turn, so it was rare while only `Hello`/`Stats` were;
/// the scratch prototype of inline execution (a reply flushed inline,
/// the client shutting the server down right after its last reply) hung
/// once in four benchmark runs. The reactor now re-checks `running` and
/// `draining` after a turn's events and before blocking again.
///
/// 500 × start / round trips / shutdown, under a watchdog: odd rounds
/// shut down right after an inline reply, even rounds while a worker is
/// handing a closed connection back to the reactor through the eventfd.
#[test]
fn shutdown_never_loses_its_wakeup() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let db = serving_db();
    watchdog(move || {
        for round in 0..500 {
            let server = Server::start(
                db.clone(),
                "127.0.0.1:0",
                ServerConfig {
                    max_sessions: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut c = Client::connect(server.local_addr()).unwrap();
            cheap(&mut c, 0).unwrap(); // a worker's
            cheap(&mut c, 0).unwrap(); // the reactor's, flushed mid-turn
            if round % 2 == 0 {
                // a fresh connection's Close is a worker's: it flushes
                // `Closed` itself, then wakes the reactor to reap — while
                // this thread, holding the reply, shuts the server down
                let other = Client::connect(server.local_addr()).unwrap();
                other.close().unwrap();
            }
            server.shutdown();
        }
    });
}

/// The same lost wake-up, staged instead of hoped for (the loop above
/// needs the scheduler's help to hit the window; this one hung two runs
/// in three on a reactor that checks `running` only right after
/// `epoll_wait`).
/// One turn's event list is arranged to be `[c, d, eventfd]`: while the
/// reactor is held by a slow inline query, `c` sends a cheap request,
/// `d` a slow one, and a worker finishes a closing connection (its
/// notification). The turn answers `c` first — whose thread shuts the
/// server down at once — then spends milliseconds on `d`, then drains
/// the eventfd and with it the shutdown's notification.
#[test]
fn shutdown_in_the_middle_of_a_busy_turn_is_not_lost() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(builder().naive().build());
    watchdog(move || {
        let addr = server.local_addr();
        let warm = || {
            let mut c = Client::connect(addr).unwrap();
            cheap(&mut c, 0).unwrap();
            cheap(&mut c, 0).unwrap();
            c
        };
        let (mut busy, mut c, mut d) = (warm(), warm(), warm());
        let started = Instant::now();
        busy.query("sort_big", &SLOW_PARAMS).unwrap();
        let slow = started.elapsed();
        cheap(&mut busy, 0).unwrap(); // a worker's; cheap history again

        // A worker's notification, at about slow/2: half a slow query
        // and a Close behind it, written raw so that the socket stays
        // open. (Nothing may hang up before the shutdown — the threads
        // below borrow their clients for the same reason: that event
        // alone would rescue a reactor that lost the wake-up.)
        let mut closing = TcpStream::connect(addr).unwrap();
        let frames = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Query {
                id: 1,
                template: "sort_big".into(),
                params: vec![Value::Int(0), Value::Int(BIG_ROWS / 2)],
                deadline_ms: 0,
            },
            Request::Close,
        ];
        for frame in &frames {
            write_frame(&mut closing, &encode_request(frame).unwrap()).unwrap();
        }
        std::thread::sleep(slow / 10);
        std::thread::scope(|s| {
            // the reactor: held until about 1.1 × slow, so that its next
            // turn collects everything that became ready meanwhile
            s.spawn(|| {
                let _ = busy.query("sort_big", &SLOW_PARAMS);
            });
            s.spawn(|| {
                std::thread::sleep(slow / 4);
                let _ = d.query("sort_big", &SLOW_PARAMS);
            });
            std::thread::sleep(slow / 10);
            cheap(&mut c, 0).unwrap();
            server.shutdown();
        });
    });
}

/// Run `f` on its own thread and fail the test if it is still running
/// after a minute (a hung `shutdown` blocks in `join` forever).
fn watchdog(f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        f();
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("Server::shutdown hung: the reactor slept through its wake-up");
    runner.join().unwrap();
}

// ----- containment ----------------------------------------------------------

/// A panic injected into a request executing **on the reactor** costs one
/// typed `Error` reply: the panic is counted, the connection serves its
/// very next request, other connections are served, and the reactor
/// keeps answering `Stats`.
#[cfg(feature = "failpoints")]
#[test]
fn panic_on_the_reactor_is_contained() {
    use recycler::fault::{self, FaultAction, FaultPlan, Trigger};

    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let server = start(serving_db());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let mut other = Client::connect(server.local_addr()).unwrap();
    cheap(&mut other, 0).unwrap();
    cheap(&mut c, 0).unwrap();
    cheap(&mut c, 0).unwrap(); // an exact hit: cheap history whatever the build
    let panics = server.counters().worker_panics();

    // a fresh range misses, reaches the admission and panics there — on
    // the reactor, the connection's history being cheap
    FaultPlan::seeded(5)
        .on("admission.reserve", Trigger::Nth(1), FaultAction::Panic)
        .install();
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut err = None;
    let ran = who_ran(&server, || err = cheap(&mut c, 1234).err());
    std::panic::set_hook(saved);
    fault::clear();
    match err {
        Some(ClientError::Remote(msg)) => assert!(msg.contains("request panicked"), "{msg}"),
        other => panic!("expected a contained-panic Error frame, got {other:?}"),
    }
    if !cfg!(debug_assertions) {
        assert_eq!(ran, Ran::Inline, "the panic was meant for the reactor");
    }
    assert_eq!(server.counters().worker_panics(), panics + 1);

    // same connection (a panic is not cheap history: a worker takes the
    // next one), the other connection, and the reactor's own Stats
    let again = who_ran(&server, || {
        assert_eq!(cheap(&mut c, 1234).unwrap().exports[0].1, Value::Int(101));
    });
    assert_eq!(again, Ran::Queued);
    assert_eq!(cheap(&mut other, 0).unwrap().exports[0].1, Value::Int(101));
    let pairs = other.stats().unwrap();
    assert_eq!(stat(&pairs, "server_worker_panics"), panics + 1);
    c.close().unwrap();
    other.close().unwrap();
    server.shutdown();
}

/// A request that panics under the pool's table lock quarantines the pool
/// (every probe a miss, every commit over torn state). The containment
/// that answers it with an Error frame repairs the pool before the next
/// request, so nobody has to reach `Database::maintenance()`: the next
/// `Stats` reads `quarantined_now` 0, a `Commit` goes through and the pool
/// serves hits again, with the answers a naive database gives.
#[cfg(feature = "failpoints")]
#[test]
fn a_contained_panic_lifts_the_quarantine_it_caused() {
    use recycler::fault::{self, FaultAction, FaultPlan, Trigger};

    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let server = start(serving_db());
    let mut c = Client::connect(server.local_addr()).unwrap();
    cheap(&mut c, 0).unwrap();

    // a fresh range misses and panics inside the select's insert, with
    // the graph wired and the table not: the most torn state there is
    FaultPlan::seeded(9)
        .on("pool.insert.wired", Trigger::Nth(1), FaultAction::Panic)
        .install();
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = cheap(&mut c, 500).err();
    std::panic::set_hook(saved);
    let fired = fault::fired("pool.insert.wired");
    fault::clear();
    assert_eq!(fired, 1);
    match err {
        Some(ClientError::Remote(msg)) => assert!(msg.contains("request panicked"), "{msg}"),
        other => panic!("expected a contained-panic Error frame, got {other:?}"),
    }

    let pairs = c.stats().unwrap();
    assert_eq!(stat(&pairs, "quarantined_now"), 0, "{pairs:?}");
    assert_eq!(stat(&pairs, "shards_quarantined"), 1, "{pairs:?}");
    assert_eq!(stat(&pairs, "shards_repaired"), 1, "{pairs:?}");
    let (inserted, deleted, _) = c
        .commit("t", vec![vec![Value::Int(600), Value::Int(1)]], vec![])
        .expect("a commit after the contained panic goes through");
    assert_eq!((inserted, deleted), (1, 0));

    let naive = DatabaseBuilder::new(catalog()).naive().build();
    let count = naive.prepare(count_template());
    let mut truth = naive.session();
    truth
        .commit(recycling::Update::to("t").insert(vec![vec![Value::Int(600), Value::Int(1)]]))
        .unwrap();
    let expected = truth
        .query(&count, &[Value::Int(500), Value::Int(600)])
        .unwrap();
    for round in 0..2 {
        let reply = cheap(&mut c, 500).unwrap();
        assert_eq!(
            reply.exports[0].1,
            *expected.export("n").unwrap(),
            "round {round}"
        );
        if round == 1 {
            assert_eq!(reply.reused, reply.marked, "the pool serves again");
        }
    }
    c.close().unwrap();
    server.shutdown();
}
