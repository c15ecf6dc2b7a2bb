//! Operator-state artifact storm (`--features failpoints`, release):
//! concurrent sessions admit, reuse and evict typed artifacts (join hash
//! tables, group maps, sorted runs) under a tight memory cap while
//! scripted faults panic inside `pool.insert` and `evict.remove`, a
//! committer keeps invalidating whole build-side lineages, and a checker
//! races the storm proving the artifact byte books stay exact the whole
//! time. The run must end clean: quarantine repaired, invariants exact,
//! artifacts both admitted and reused, and answers identical to a
//! recycling-free engine over the final data.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
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

/// Probe side varies with the range parameters, build side (the bound y
/// column) repeats — the operator-state reuse shape.
fn join_template() -> Program {
    let mut b = ProgramBuilder::new("art_join", 2);
    let x = b.bind("t", "x");
    let y = b.bind("t", "y");
    let sel = b.select_closed(x, P(0), P(1));
    let j = b.join(sel, y);
    let n = b.count(j);
    b.export("n", n);
    b.finish()
}

/// Group and sort over the same bound column: their artifacts share the
/// build-side BAT and die together on commits.
fn group_template() -> Program {
    let mut b = ProgramBuilder::new("art_group", 1);
    let y = b.bind("t", "y");
    let g = b.group(y);
    let s = b.sort(g, true);
    let n = b.count(s);
    let _ = P(0); // keep the template parametric like its sibling
    b.export("n", n);
    b.finish()
}

/// Every build side and result admitted (the paper's KEEPALL baseline), so
/// the storm keeps the pool churning under its cap.
fn storm_db() -> Database {
    DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .admission(AdmissionPolicy::KeepAll)
                .entry_limit(64)
                .mem_limit(384 << 10),
        )
        .recycle_operator_state(true)
        .template("art_join", join_template())
        .template("art_group", group_template())
        .build()
}

fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(saved);
    out
}

#[test]
fn artifact_storm_ends_clean() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let db = storm_db();
    let join_t = db.template("art_join").unwrap();
    let group_t = db.template("art_group").unwrap();

    FaultPlan::seeded(0xA27F)
        .on("pool.insert", Trigger::Ratio(1, 40), FaultAction::Panic)
        .on("evict.remove", Trigger::Ratio(1, 30), FaultAction::Panic)
        .install();

    let contained = Arc::new(AtomicU64::new(0));
    let done = AtomicBool::new(false);
    quiet(|| {
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            // 4 admit/reuse workers cycling probe parameters: the join's
            // build side repeats while its results never exact-match.
            for t in 0..4i64 {
                let db = db.clone();
                let join_t = join_t.clone();
                let group_t = group_t.clone();
                let contained = Arc::clone(&contained);
                workers.push(scope.spawn(move || {
                    let mut session = db.session();
                    for i in 0..120i64 {
                        let lo = (t * 997 + i * 13) % 1900;
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            if i % 3 == 0 {
                                session.query(&group_t, &[Value::Int(0)]).map(drop)
                            } else {
                                session
                                    .query(&join_t, &[Value::Int(lo), Value::Int(lo + 25)])
                                    .map(drop)
                            }
                        }));
                        match r {
                            Ok(reply) => {
                                // refused admissions under quarantine are
                                // fine; query errors are not in this storm
                                reply.expect("query must answer");
                            }
                            Err(_) => {
                                // contained like the server contains a
                                // request: the panic quarantined the
                                // pool, and the containment repairs it
                                contained.fetch_add(1, Ordering::Relaxed);
                                if db.pool().has_quarantined() {
                                    db.maintenance().repair_quarantined();
                                }
                            }
                        }
                    }
                }));
            }
            // a committer invalidating the build-side lineage: every
            // resident artifact descends from t's columns and must die
            {
                let db = db.clone();
                workers.push(scope.spawn(move || {
                    let mut session = db.session();
                    for i in 0..12i64 {
                        let update = Update::to("t")
                            .insert(vec![vec![Value::Int(10_000 + i), Value::Int(i % 97)]]);
                        session
                            .commit(update)
                            .expect("a commit repairs any quarantine and goes through");
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }));
            }
            // a checker racing the storm: the artifact byte book is part
            // of `check_invariants` (artifact ⊆ raw, exact sums, kind
            // coherence), so a torn artifact admission surfaces here
            // mid-storm, not just in the post-mortem
            let db_ref = &db;
            let done_ref = &done;
            let checker = scope.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    db_ref
                        .pool()
                        .check_invariants()
                        .expect("invariants mid-storm");
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            for w in workers {
                w.join().expect("no storm thread may die");
            }
            done.store(true, Ordering::Relaxed);
            checker.join().expect("checker thread");
        });
    });

    // Storm over: faults off, quarantine repaired, books exact.
    fault::clear();
    if db.pool().has_quarantined() {
        let report = db.maintenance().repair_quarantined();
        assert!(report.repaired);
    }
    db.pool()
        .check_invariants()
        .expect("clean books after the artifact storm");

    let stats = db.stats();
    assert!(stats.artifact_admissions > 0, "storm admitted no artifacts");
    assert!(stats.artifact_hits > 0, "storm reused no artifacts");
    assert!(stats.evictions > 0, "the cap never bit: {stats:?}");

    // Answers after the storm match a recycling-free engine over the
    // same (post-commit) data.
    let final_catalog = (*db.catalog()).clone();
    let naive = DatabaseBuilder::new(final_catalog)
        .naive()
        .template("art_join", join_template())
        .build();
    let naive_t = naive.template("art_join").unwrap();
    let params = [Value::Int(100), Value::Int(160)];
    let warm = db.session().query(&join_t, &params).unwrap();
    let cold = naive.session().query(&naive_t, &params).unwrap();
    assert_eq!(warm.export("n"), cold.export("n"));
}
