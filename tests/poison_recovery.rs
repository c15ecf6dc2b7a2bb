//! One recovery rule, driven by deterministic fault injection
//! (`--features failpoints`).
//!
//! The contract under test, end to end: a panic while the pool's write
//! lock is held must not take the service down or corrupt shared state.
//! The write step that panics empties the pool before the lock unlocks —
//! table, lineage graph and books — and counts one `pool_wipes`. Sessions
//! keep serving correct answers, and the very next query misses,
//! re-admits and is hit again after it: no repair pass, no maintenance
//! call, no commit needed.

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

/// The pool a write step that panicked leaves behind: empty, coherent,
/// one more wipe counted.
fn assert_wiped(db: &Database, wipes_before: u64, site: &str) {
    let pool = db.pool();
    assert_eq!((pool.len(), pool.bytes()), (0, 0), "{site}: pool not empty");
    pool.check_invariants()
        .unwrap_or_else(|e| panic!("{site}: {e}"));
    assert_eq!(db.stats().pool_wipes, wipes_before + 1, "{site}");
}

/// Regression: a torn insert used to leave the pool quarantined until a
/// commit, a maintenance call or the server's panic containment repaired
/// it, so a session that only queries never left the outage — every warm
/// re-run read `reused` 0. Now the write step that panicked emptied the
/// pool, and the session recovers on its own: the next run of a warm
/// query re-admits and the run after it hits.
#[test]
fn a_query_only_session_hits_again_after_a_torn_insert() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    let warm = [Value::Int(300), Value::Int(700)];
    session.query(&template, &warm).unwrap();
    assert!(session.query(&template, &warm).unwrap().reused > 0);

    tear_an_insert(&mut session, &template, 11);
    assert_wiped(&db, 0, "pool.insert.wired");

    let readmit = session.query(&template, &warm).unwrap();
    assert_eq!(readmit.export("n"), Some(&Value::Int(401)));
    assert_eq!(
        readmit.reused, 0,
        "the wiped pool holds nothing: {readmit:?}"
    );
    assert!(readmit.admitted > 0, "the next run re-admits: {readmit:?}");
    let hit = session.query(&template, &warm).unwrap();
    assert_eq!(hit.export("n"), Some(&Value::Int(401)));
    assert!(hit.reused > 0, "the run after it hits: {hit:?}");
    db.pool()
        .check_invariants()
        .expect("coherent after recovery");
}

/// A session replays a repeated all-hit query from the entries its last
/// all-hit run found. When a torn insert of another session wipes the
/// pool in between, none of them is resident: the replay declines, the
/// query runs instruction by instruction against the empty pool and
/// answers as before, and the plan is remembered and replayed again.
#[test]
fn a_pool_wipe_between_recording_and_replay_falls_back() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    let warm = [Value::Int(300), Value::Int(700)];
    let replayed = |s: &recycling::Session| s.last_query().unwrap().replayed;
    for run in 0..3 {
        let reply = session.query(&template, &warm).unwrap();
        assert_eq!(reply.export("n"), Some(&Value::Int(401)));
        assert_eq!(replayed(&session), run == 2, "run {run}");
    }

    let mut other = db.session();
    tear_an_insert(&mut other, &template, 13);
    assert_wiped(&db, 0, "pool.insert.wired");

    let fallback = session.query(&template, &warm).unwrap();
    assert!(!replayed(&session), "nothing the memo names is resident");
    assert_eq!(fallback.export("n"), Some(&Value::Int(401)));
    assert_eq!(fallback.reused, 0, "{fallback:?}");
    let recording = session.query(&template, &warm).unwrap();
    assert!(!replayed(&session));
    assert_eq!(recording.reused, recording.marked, "{recording:?}");
    let again = session.query(&template, &warm).unwrap();
    assert!(replayed(&session), "the plan is replayed again");
    assert_eq!(again.export("n"), Some(&Value::Int(401)));
    db.pool().check_invariants().expect("coherent");
}

/// What a commit's write step does — retire the column, remove what
/// derives from it — and then a panic, still under its write view.
fn tear_a_commit(db: &Database) {
    let column = ("t".to_string(), "x".to_string());
    let torn = quiet(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut view = db.pool().write_view();
            let roots = view.retire_columns(&[column].into_iter().collect());
            assert!(!view.remove_subtree(&roots).is_empty());
            panic!("tearing the commit on purpose");
        }))
    });
    assert!(torn.is_err());
}

/// Every write step that can panic under the lock — the insert's two
/// sites, an eviction round's removal, a commit's write view — leaves the
/// same pool behind: empty, coherent, one wipe counted, and the next
/// admission lands.
#[test]
fn every_write_step_that_panics_empties_the_pool() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let sites = ["pool.insert", "pool.insert.wired", "evict.remove", "commit"];
    for site in sites {
        fault::clear();
        // a full pool: the next fresh range evicts in its own write step
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
        for params in fresh.by_ref().take(8) {
            session.query(&template, &params).unwrap();
        }
        assert_eq!(db.pool().len(), 8, "{site}: the pool is full");
        let wipes = db.stats().pool_wipes;

        if site == "commit" {
            tear_a_commit(&db);
        } else {
            FaultPlan::seeded(5)
                .on(site, Trigger::Nth(1), FaultAction::Panic)
                .install();
            let params = fresh.next().unwrap();
            let torn =
                quiet(|| catch_unwind(AssertUnwindSafe(|| session.query(&template, &params))));
            assert!(torn.is_err(), "{site}: the panic unwinds out of the query");
            assert_eq!(fault::fired(site), 1, "{site}");
            fault::clear();
        }
        assert_wiped(&db, wipes, site);

        let admissions = db.stats().admissions;
        let reply = session.query(&template, &fresh.next().unwrap()).unwrap();
        assert_eq!(reply.export("n"), Some(&Value::Int(10)), "{site}");
        assert!(reply.admitted > 0, "{site}: the next admission lands");
        assert!(db.stats().admissions > admissions, "{site}");
        db.pool().check_invariants().unwrap();
    }
}

/// Concurrent sessions after a wipe: every answer is correct, and each
/// session's re-run of its own range is served from the refilled pool.
#[test]
fn concurrent_sessions_refill_the_pool_after_a_wipe() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default().admission(AdmissionPolicy::KeepAll));
    let template = db.template("count_range").unwrap();
    let mut victim = db.session();
    tear_an_insert(&mut victim, &template, 23);
    assert_wiped(&db, 0, "pool.insert.wired");

    let threads: Vec<_> = (0..3)
        .map(|t| {
            let db = db.clone();
            let template = template.clone();
            std::thread::spawn(move || {
                let mut s = db.session();
                for i in 0..20i64 {
                    let lo = (t * 100 + i) % 1900;
                    let params = [Value::Int(lo), Value::Int(lo + 42)];
                    let first = s.query(&template, &params).unwrap();
                    assert_eq!(first.export("n"), Some(&Value::Int(43)));
                    let again = s.query(&template, &params).unwrap();
                    assert_eq!(again.export("n"), Some(&Value::Int(43)));
                    assert!(again.reused > 0, "the refilled pool serves: {again:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no session thread may die after a wipe");
    }
    db.pool()
        .check_invariants()
        .expect("coherent after the refill");
}

/// A commit after a torn insert meets an empty, coherent pool: it goes
/// through, and the answers after it are a naive database's.
#[test]
fn a_commit_after_a_torn_insert_answers_like_a_naive_database() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = db_with(RecyclerConfig::default());
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    session
        .query(&template, &[Value::Int(0), Value::Int(10)])
        .unwrap();
    tear_an_insert(&mut session, &template, 31);
    assert_wiped(&db, 0, "pool.insert.wired");

    let row = || vec![vec![Value::Int(700), Value::Int(1)]];
    let report = session
        .commit(Update::to("t").insert(row()))
        .expect("the commit goes through");
    assert_eq!(report.inserted[0].1.len(), 1, "one row appended");
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
/// unwinds out of that query. Eviction must keep working afterwards —
/// the full pool must keep admitting. (It once did not: a capacity
/// reservation leaked by the unwind made the cap's gate refuse every later
/// eviction. No reservation outlives its write step any more, and this
/// test stays as the regression for "eviction works after a panicking
/// round".)
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
    assert!(rejects > 0, "denied admissions surface as rejects");
    fault::clear();
    db.pool().check_invariants().expect("books survive denials");
}
