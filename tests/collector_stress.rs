//! Background-collector stress: lifecycle (the thread joins exactly when
//! the last `Database` handle drops), safety (the collector only ever
//! evicts unpinned childless entries — structural invariants and the
//! leaf-index exactness survive a multi-admitter storm with the collector
//! draining concurrently), and quiescence (a `MaintenanceGuard` freezes
//! rounds for its lifetime and dropping it resumes them). CI re-runs this
//! suite in release mode, where the races are fastest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::{EntryId, RecyclerConfig};
use recycling::{DatabaseBuilder, Update};
use rmal::{ProgramBuilder, P};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in ["hot", "cold"] {
        let mut tb = TableBuilder::new(name)
            .column("x", LogicalType::Int)
            .column("y", LogicalType::Int);
        for i in 0..1500i64 {
            tb.push_row(&[Value::Int((i * 37) % 1500), Value::Int(i % 97)]);
        }
        cat.add_table(tb.finish());
    }
    cat
}

fn count_template(name: &str, table: &str) -> rmal::Program {
    let mut b = ProgramBuilder::new(name, 2);
    let col = b.bind(table, "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

fn collector_config() -> RecyclerConfig {
    RecyclerConfig::default()
        .entry_limit(24)
        .mem_limit(96 << 10)
        .collector(true)
        .water_marks(0.5, 0.8)
}

#[test]
fn collector_thread_joins_when_the_last_handle_drops() {
    let db = DatabaseBuilder::new(catalog())
        .recycler(collector_config())
        .build();
    let shared = Arc::clone(db.recycler());
    assert!(
        shared.collector_running(),
        "collector must spawn with limits configured"
    );
    // give it something to do before the drop, so the join races a thread
    // that has actually woken up at least once
    let t = db.prepare(count_template("join_probe", "cold"));
    let mut session = db.session();
    for q in 0..40i64 {
        session
            .query(
                &t,
                &[
                    Value::Int((q * 31) % 1200),
                    Value::Int((q * 31) % 1200 + 200),
                ],
            )
            .expect("probe query");
    }
    drop(session);
    drop(db);
    // Database drop joins the thread deterministically — not "eventually"
    assert!(
        !shared.collector_running(),
        "collector thread must be joined by the time Database::drop returns"
    );
}

#[test]
fn collector_storm_keeps_the_pool_exact() {
    let db = DatabaseBuilder::new(catalog())
        .recycler(collector_config())
        .build();
    let cold_t = db.prepare(count_template("storm_cold", "cold"));
    let hot_t = db.prepare(count_template("storm_hot", "hot"));

    let admitters = 4usize;
    let queries_per_admitter = 80usize;
    let commits = 8usize;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for a in 0..admitters {
            let mut session = db.session();
            let cold_t = &cold_t;
            workers.push(scope.spawn(move || {
                for q in 0..queries_per_admitter {
                    // mostly-fresh ranges keep admissions flowing (so the
                    // collector has a constant drain load); every 4th query
                    // re-probes a warm range so hits pin entries while the
                    // collector is choosing victims
                    let lo = if q % 4 == 0 {
                        (a as i64 % 2) * 100
                    } else {
                        ((a * queries_per_admitter + q) as i64 * 7) % 1200
                    };
                    session
                        .query(cold_t, &[Value::Int(lo), Value::Int(lo + 180)])
                        .expect("admitter query");
                }
            }));
        }
        let mut writer = db.session();
        let hot_t = &hot_t;
        workers.push(scope.spawn(move || {
            for c in 0..commits {
                writer
                    .query(
                        hot_t,
                        &[Value::Int((c as i64 * 50) % 900), Value::Int(1000)],
                    )
                    .expect("writer query");
                writer
                    .commit(Update::to("hot").insert(vec![vec![
                        Value::Int(c as i64 % 1500),
                        Value::Int(c as i64),
                    ]]))
                    .expect("commit");
            }
        }));
        // a checker racing the storm: check_invariants is atomic against
        // admissions and collector rounds (it holds the pool update
        // mutex), so any structural damage a round left behind surfaces
        // here, between rounds, not just at the end
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
            w.join().expect("worker thread");
        }
        done.store(true, Ordering::Relaxed);
        checker.join().expect("checker thread");
    });

    let stats = db.stats();
    assert!(
        stats.evictions > 0,
        "the caps must force evictions during the storm: {stats:?}"
    );
    assert!(
        stats.background_evictions > 0,
        "the collector must have drained under this pressure: {stats:?}"
    );
    assert!(
        stats.minor_rounds + stats.major_rounds > 0,
        "no collector rounds ran: {stats:?}"
    );

    let pool = db.pool();
    assert!(pool.len() <= 24, "entry cap overshot: {}", pool.len());
    assert!(
        pool.bytes() <= 96 << 10,
        "memory cap overshot: {}",
        pool.bytes()
    );
    pool.check_invariants().expect("structural invariants");
    // quiescent exactness of the leaf index against the brute-force set —
    // the collector's minor rounds feed off this index, so drift would
    // mean it evicted (or skipped) the wrong entries
    let mut indexed = pool.leaf_ids();
    indexed.sort_unstable();
    let mut brute: Vec<EntryId> = pool
        .snapshot_entries()
        .iter()
        .filter(|e| !pool.has_children(e.id))
        .map(|e| e.id)
        .collect();
    brute.sort_unstable();
    assert_eq!(indexed, brute, "leaf index drifted under collector churn");
}

#[test]
fn maintenance_guard_quiesces_the_collector() {
    let db = DatabaseBuilder::new(catalog())
        .recycler(collector_config())
        .build();
    let t = db.prepare(count_template("quiesce_probe", "cold"));
    let mut session = db.session();

    let rounds = |db: &recycling::Database| {
        let s = db.stats();
        s.minor_rounds + s.major_rounds
    };

    {
        let _guard = db.maintenance();
        let frozen_at = rounds(&db);
        // drive admissions well past the high-water mark while the guard
        // holds the round lock: the collector may wake, but no round may
        // start
        for q in 0..60i64 {
            session
                .query(
                    &t,
                    &[
                        Value::Int((q * 13) % 1200),
                        Value::Int((q * 13) % 1200 + 180),
                    ],
                )
                .expect("pressure query");
        }
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(
            rounds(&db),
            frozen_at,
            "a collector round ran while a MaintenanceGuard was held"
        );
    }

    // guard dropped: the collector resumes within a bounded wait (the
    // idle-poll safety net re-checks pressure even if the signal was
    // consumed while frozen)
    let resumed_by = Instant::now() + Duration::from_secs(5);
    let before = rounds(&db);
    let mut resumed = false;
    while Instant::now() < resumed_by {
        for q in 0..8i64 {
            session
                .query(
                    &t,
                    &[
                        Value::Int((q * 17) % 1200),
                        Value::Int((q * 17) % 1200 + 180),
                    ],
                )
                .expect("resume query");
        }
        if rounds(&db) > before {
            resumed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(resumed, "collector did not resume after the guard dropped");
    db.pool()
        .check_invariants()
        .expect("invariants after quiesce");
}
