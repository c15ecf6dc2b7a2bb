//! Seeded chaos storm (`--features failpoints`): scripted faults at
//! every layer — admission denials, a mid-insert panic with the pool's
//! table lock held, eviction crashes, wire-level read/write faults —
//! under concurrent in-process sessions, a committer and a TCP client
//! storm. The run is deterministic (fixed seeds, fixed iteration
//! counts) and must end *clean*: faults cleared, pool invariants exact
//! (every write step that panicked emptied the pool before it unlocked),
//! the hit path serving and the server still answering.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use rcy_server::{Client, ClientError, RetryPolicy, Server, ServerConfig};
use recycler::fault::{self, FaultAction, FaultPlan, Trigger};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Update};
use rmal::{Program, ProgramBuilder, P};

// One process-global failpoint registry: serialise the tests here.
static SERIAL: Mutex<()> = Mutex::new(());

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..2000i64 {
        tb.push_row(&[Value::Int((i * 37) % 2000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());
    cat
}

fn count_template() -> Program {
    let mut b = ProgramBuilder::new("count_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// Every miss admitted: the storm's insert and eviction faults need the
/// churn of the paper's KEEPALL baseline to fire, and the entry cap sits
/// below the insert that panics, so inline eviction is already running
/// when the pool is poisoned.
fn chaos_db() -> Database {
    DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .admission(AdmissionPolicy::KeepAll)
                .entry_limit(24)
                .mem_limit(256 << 10),
        )
        .template("count_range", count_template())
        .build()
}

fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(saved);
    out
}

/// The storm: everything at once, all of it scripted.
#[test]
fn seeded_chaos_storm_ends_clean_and_still_serving() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = chaos_db();
    let template = db.template("count_range").unwrap();
    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 4,
            backlog: 8,
            read_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    FaultPlan::seeded(0xC4A0)
        .on("admission.reserve", Trigger::Ratio(1, 8), FaultAction::Deny)
        .on("pool.insert.wired", Trigger::Nth(35), FaultAction::Panic)
        .on("evict.gather", Trigger::Nth(7), FaultAction::Panic)
        .on("evict.remove", Trigger::Nth(11), FaultAction::Panic)
        .on("wire.read", Trigger::Ratio(1, 16), FaultAction::Io)
        .on("wire.write", Trigger::Ratio(1, 24), FaultAction::Io)
        .install();

    let contained = Arc::new(AtomicU64::new(0));
    quiet(|| {
        let mut threads = Vec::new();
        // 4 in-process admitters: every query either answers or panics
        // into our catch_unwind — never wedges, never poisons the run.
        for t in 0..4i64 {
            let db = db.clone();
            let template = template.clone();
            let contained = Arc::clone(&contained);
            threads.push(std::thread::spawn(move || {
                let mut session = db.session();
                for i in 0..60i64 {
                    let lo = (t * 997 + i * 13) % 1900;
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        session.query(&template, &[Value::Int(lo), Value::Int(lo + 25)])
                    }));
                    match r {
                        Ok(reply) => {
                            let reply = reply.expect("query errors are not part of this storm");
                            assert_eq!(reply.export("n"), Some(&Value::Int(26)));
                        }
                        Err(_) => {
                            contained.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        // 1 committer: every commit succeeds — a write step that panicked
        // left an empty pool, never a torn one.
        {
            let db = db.clone();
            threads.push(std::thread::spawn(move || {
                let mut session = db.session();
                for i in 0..10i64 {
                    let update =
                        Update::to("t").insert(vec![vec![Value::Int(10_000 + i), Value::Int(i)]]);
                    session
                        .commit(update)
                        .expect("a commit goes through whatever panicked before it");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }));
        }
        // 3 wire clients: injected wire faults sever connections; the
        // client retries with seeded jittered backoff and carries on.
        for c in 0..3u64 {
            threads.push(std::thread::spawn(move || {
                let policy = RetryPolicy {
                    seed: 0xBEEF + c,
                    ..RetryPolicy::default()
                };
                let mut client: Option<Client> = None;
                for i in 0..30i64 {
                    if client.is_none() {
                        client = Client::connect_with_retry(addr, policy).ok();
                    }
                    let Some(cl) = client.as_mut() else { continue };
                    let lo = (c as i64 * 311 + i * 17) % 1900;
                    match cl.query("count_range", &[Value::Int(lo), Value::Int(lo + 25)]) {
                        Ok(q) => {
                            assert_eq!(q.exports[0].1, Value::Int(26));
                        }
                        Err(ClientError::Remote(_)) => {} // deadline/panic frame
                        Err(_) => client = None,          // severed by a wire fault: reconnect
                    }
                }
            }));
        }
        for t in threads {
            t.join().expect("no storm thread may die");
        }
    });

    // The storm is over: faults off, books exact.
    assert!(
        fault::hits("admission.reserve") > 0,
        "storm never exercised admission"
    );
    // eviction runs inline only: the admitters' own eviction rounds must
    // have reached both eviction sites
    for site in ["evict.gather", "evict.remove"] {
        assert!(
            fault::fired(site) > 0,
            "storm never fired {site} ({} passes)",
            fault::hits(site)
        );
    }
    fault::clear();
    db.pool()
        .check_invariants()
        .expect("clean books after chaos");

    // Still serving, in process and over the wire — including hits.
    let mut session = db.session();
    session
        .query(&template, &[Value::Int(40), Value::Int(80)])
        .unwrap();
    let again = session
        .query(&template, &[Value::Int(40), Value::Int(80)])
        .unwrap();
    assert!(
        again.reused > 0,
        "hit path serves after the storm: {again:?}"
    );
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("stats key {k} missing"))
    };
    // The fault counters travel over the wire.
    get("server_worker_panics");
    get("server_accept_errors");
    get("server_read_timeouts");
    assert!(
        get("pool_wipes") >= 1,
        "a panic under the pool lock emptied the pool"
    );
    client.close().unwrap();
    server.shutdown_graceful(Duration::from_secs(2));
}

/// A request whose handler panics costs one typed `Error` frame; the
/// same connection keeps serving the very next request.
#[test]
fn worker_panic_leaves_the_server_answering() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = chaos_db();
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    FaultPlan::seeded(3)
        .on("admission.reserve", Trigger::Nth(1), FaultAction::Panic)
        .install();
    let mut client = Client::connect(addr).unwrap();
    let err = quiet(|| {
        client
            .query("count_range", &[Value::Int(0), Value::Int(10)])
            .unwrap_err()
    });
    match err {
        ClientError::Remote(msg) => {
            assert!(msg.contains("request panicked"), "{msg}");
        }
        other => panic!("expected a contained-panic Error frame, got {other:?}"),
    }
    fault::clear();

    // Same connection, same worker: the panic was contained.
    let reply = client
        .query("count_range", &[Value::Int(0), Value::Int(10)])
        .expect("connection serves after the contained panic");
    assert_eq!(reply.exports[0].1, Value::Int(11));
    assert!(server.counters().worker_panics() >= 1);
    client.close().unwrap();
    server.shutdown();
}
