//! Poisoned-pool quarantine and repair, driven by deterministic fault
//! injection (`--features failpoints`).
//!
//! The contract under test, end to end: a panic while the pool's table
//! write lock is held must not take the service down or corrupt shared
//! state. The pool is quarantined (every probe degrades to a miss,
//! admissions are rejected), sessions keep serving correct answers, and a
//! repair drops the torn entries — with exact byte books — and returns
//! the pool to service: run by maintenance, or by the next commit, which
//! repairs first instead of refusing.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::fault::{self, FaultAction, FaultPlan, Trigger};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Update};
use rmal::{Program, ProgramBuilder, P};

// The failpoint registry is process-global: serialise the tests in this
// binary and clear the registry on both ends of each.
static SERIAL: Mutex<()> = Mutex::new(());

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..2000i64 {
        // x holds a permutation of 0..2000, so a closed-range count has
        // a closed-form expected value the assertions below rely on
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

fn db_with(config: RecyclerConfig) -> Database {
    DatabaseBuilder::new(catalog())
        .recycler(config)
        .template("count_range", count_template())
        .build()
}

/// Run `f` with panic output silenced (these tests *inject* panics; the
/// default hook would spray backtraces over the test log).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(saved);
    out
}

/// Panic at the nastiest point of `template`'s next admission: the
/// entry's indexes are wired into the lineage graph but the table insert
/// has not happened yet.
fn tear_an_insert(session: &mut recycling::Session, template: &Program, seed: u64) {
    FaultPlan::seeded(seed)
        .on("pool.insert.wired", Trigger::Nth(1), FaultAction::Panic)
        .install();
    let r = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            session.query(template, &[Value::Int(500), Value::Int(900)])
        }))
    });
    assert!(
        r.is_err(),
        "the injected panic must unwind out of the query"
    );
    assert_eq!(fault::fired("pool.insert.wired"), 1);
    fault::clear();
}

#[test]
fn insert_panic_quarantines_the_pool_and_repair_restores_service() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();

    // Warm the pool so the post-repair hit check has something to hit.
    session
        .query(&template, &[Value::Int(0), Value::Int(10)])
        .unwrap();

    tear_an_insert(&mut session, &template, 11);

    // Degraded mode: the pool is quarantined and stats say so.
    assert!(db.pool().has_quarantined());
    let stats = db.stats();
    assert_eq!(stats.shards_quarantined, 1, "{stats:?}");
    assert_eq!(stats.quarantined_now, 1, "{stats:?}");

    // The panicked session and a fresh one both keep answering (every
    // probe of the quarantined pool degrades to a miss, never to an
    // error — the warm range included).
    let reply = session
        .query(&template, &[Value::Int(0), Value::Int(10)])
        .expect("panicked session keeps serving");
    assert_eq!(reply.export("n"), Some(&Value::Int(11)));
    assert_eq!(reply.reused, 0, "a quarantined pool serves nothing");
    let mut other = db.session();
    let reply = other
        .query(&template, &[Value::Int(100), Value::Int(199)])
        .expect("fresh session serves during the outage");
    assert_eq!(reply.export("n"), Some(&Value::Int(100)));

    // Repair under the maintenance guard: torn entries dropped, byte
    // books recomputed exactly (check_invariants recounts bytes and
    // entries from the table and compares against the atomics).
    let report = db.maintenance().repair_quarantined();
    assert!(report.repaired, "{report:?}");
    assert!(!db.pool().has_quarantined());
    let stats = db.stats();
    assert_eq!(stats.shards_repaired, 1, "{stats:?}");
    assert_eq!(stats.quarantined_now, 0, "{stats:?}");
    db.pool()
        .check_invariants()
        .expect("books exact after repair");

    // Full service restored: hits come back and commits go through.
    session
        .query(&template, &[Value::Int(300), Value::Int(700)])
        .unwrap();
    let again = session
        .query(&template, &[Value::Int(300), Value::Int(700)])
        .unwrap();
    assert!(again.reused > 0, "hit path serves again: {again:?}");
    session
        .commit(Update::to("t").insert(vec![vec![Value::Int(5000), Value::Int(1)]]))
        .expect("commit works once repaired");
    db.pool().check_invariants().expect("coherent after commit");
}

#[test]
fn concurrent_sessions_serve_misses_during_a_quarantine_outage() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();

    // Poison the pool.
    FaultPlan::seeded(23)
        .on("pool.insert.wired", Trigger::Nth(1), FaultAction::Panic)
        .install();
    let mut victim = db.session();
    let r = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            victim.query(&template, &[Value::Int(0), Value::Int(50)])
        }))
    });
    assert!(r.is_err());
    fault::clear();
    assert!(db.pool().has_quarantined());

    // Concurrent sessions ride out the outage: every query answers, and
    // answers correctly — the quarantined pool only costs cache misses.
    let threads: Vec<_> = (0..3)
        .map(|t| {
            let db = db.clone();
            let template = template.clone();
            std::thread::spawn(move || {
                let mut s = db.session();
                for i in 0..20i64 {
                    let lo = (t * 100 + i) % 1900;
                    let hi = lo + 42;
                    let reply = s
                        .query(&template, &[Value::Int(lo), Value::Int(hi)])
                        .expect("queries must not fail during the outage");
                    assert_eq!(reply.export("n"), Some(&Value::Int(43)));
                    assert_eq!(reply.reused, 0, "every probe of the outage misses");
                }
            })
        })
        .collect();
    for t in threads {
        t.join()
            .expect("no session thread may die in degraded mode");
    }

    let report = db.maintenance().repair_quarantined();
    assert!(report.repaired);
    db.pool().check_invariants().expect("coherent after repair");
}

/// Regression: a commit used to be refused (`Error::Degraded`) for as
/// long as the pool sat in quarantine, and nothing but an explicit
/// maintenance repair lifted it. The commit repairs first now: it goes
/// through, the pool is back in service, and the answers after it are a
/// naive database's.
#[test]
fn a_commit_repairs_a_quarantined_pool_first() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    session
        .query(&template, &[Value::Int(0), Value::Int(10)])
        .unwrap();
    tear_an_insert(&mut session, &template, 31);
    assert!(db.pool().has_quarantined());

    let row = || vec![vec![Value::Int(700), Value::Int(1)]];
    let report = session
        .commit(Update::to("t").insert(row()))
        .expect("the commit repairs the pool instead of refusing");
    assert_eq!(report.inserted[0].1.len(), 1, "one row appended");
    assert!(!db.pool().has_quarantined());
    let stats = db.stats();
    assert_eq!((stats.shards_repaired, stats.quarantined_now), (1, 0));
    db.pool()
        .check_invariants()
        .expect("coherent after the commit");

    let naive = DatabaseBuilder::new(catalog()).naive().build();
    let count = naive.prepare(count_template());
    let mut truth = naive.session();
    truth.commit(Update::to("t").insert(row())).unwrap();
    for params in [[0, 10], [500, 900], [650, 750], [500, 900]] {
        let params = params.map(Value::Int);
        let got = session.query(&template, &params).unwrap();
        let want = truth.query(&count, &params).unwrap();
        assert_eq!(got.exports, want.exports, "{params:?}");
    }
    let again = session
        .query(&template, &[Value::Int(500), Value::Int(900)])
        .unwrap();
    assert_eq!(again.reused, again.marked, "the pool serves hits again");
}

/// Eviction runs inline, on the admitting query: a round that panics
/// unwinds out of that query while its capacity reservation is pending.
/// The reservation must be released on the way out — left counted, it
/// would make the cap's gate refuse every later eviction, and the full
/// pool would turn every admission away for good.
#[test]
fn a_panicking_eviction_round_leaves_eviction_working() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(
        RecyclerConfig::default()
            .admission(AdmissionPolicy::KeepAll)
            .entry_limit(8),
    );
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    let mut fresh = (0..).map(|i: i64| {
        let lo = (i * 13) % 1900;
        [Value::Int(lo), Value::Int(lo + 9)]
    });

    FaultPlan::seeded(23)
        .on("evict.gather", Trigger::Nth(1), FaultAction::Panic)
        .install();
    quiet(|| {
        for params in fresh.by_ref().take(100) {
            let r = catch_unwind(AssertUnwindSafe(|| session.query(&template, &params)));
            if r.is_err() {
                return;
            }
        }
        panic!("the pool never filled up to an eviction round");
    });
    assert_eq!(fault::fired("evict.gather"), 1);
    fault::clear();

    let before = db.stats().evictions;
    for params in fresh.take(20) {
        let reply = session.query(&template, &params).unwrap();
        assert_eq!(reply.export("n"), Some(&Value::Int(10)));
    }
    let stats = db.stats();
    assert!(
        stats.evictions > before,
        "no eviction after the panicked round: {stats:?}"
    );
    assert_eq!(db.pool().len(), 8, "the full pool keeps admitting");
    db.pool()
        .check_invariants()
        .expect("coherent after the panic");
}

#[test]
fn admission_deny_faults_only_cost_misses() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();

    FaultPlan::seeded(99)
        .on("admission.reserve", Trigger::Ratio(1, 2), FaultAction::Deny)
        .install();
    for i in 0..40i64 {
        let lo = (i * 7) % 1900;
        let reply = session
            .query(&template, &[Value::Int(lo), Value::Int(lo + 9)])
            .expect("denied admissions must not fail queries");
        assert_eq!(reply.export("n"), Some(&Value::Int(10)));
    }
    assert!(fault::hits("admission.reserve") > 0, "site was exercised");
    assert!(fault::fired("admission.reserve") > 0);
    let rejects = db.stats().admission_rejects;
    assert!(rejects > 0, "denied reservations surface as rejects");
    fault::clear();
    db.pool().check_invariants().expect("books survive denials");
}
