//! Residency-ladder stress, driven by deterministic fault injection
//! (`--features failpoints`). CI runs this suite in release mode.
//!
//! Two contracts: (1) a concurrent demote/promote/evict storm with the
//! `tier.*` failpoints firing throughout must end — and stay, mid-storm —
//! with exact per-tier byte books and correct answers; (2) a panic at the
//! most torn point of a demotion (entry re-tiered, books not yet moved)
//! quarantines the pool, and `MaintenanceGuard::repair_quarantined`
//! recomputes the tier books exactly and restores service.

#![cfg(feature = "failpoints")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::fault::{self, FaultAction, FaultPlan, Trigger};
use recycler::RecyclerConfig;
use recycling::DatabaseBuilder;
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
        // x is a permutation of 0..2000: a closed-range count has a
        // closed-form expected value the oracle below relies on
        tb.push_row(&[Value::Int((i * 37) % 2000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());
    cat
}

fn range_template() -> Program {
    let mut b = ProgramBuilder::new("tier_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

fn tiered_config() -> RecyclerConfig {
    RecyclerConfig::default()
        .mem_limit(192 << 10)
        .collector(true)
        .water_marks(0.5, 0.75)
        .compression(true)
}

fn spill_scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("recycler-tier-stress-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create spill scratch dir");
    dir
}

/// Run `f` with panic output silenced (the quarantine test *injects* a
/// panic; the default hook would spray a backtrace over the test log).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(saved);
    out
}

#[test]
fn tier_storm_under_failpoints_keeps_books_exact_and_answers_right() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let spill_dir = spill_scratch("storm");
    let db = DatabaseBuilder::new(catalog())
        .recycler(tiered_config())
        .spill_dir(&spill_dir, 16 << 20)
        .build();
    let t = db.prepare(range_template());

    // Every rung misbehaves some of the time: compression denied,
    // spill appends failing with IO errors, rehydration denied (each
    // denied rehydrate degrades a hit to a recomputation).
    FaultPlan::seeded(7)
        .on("tier.compress", Trigger::Ratio(1, 5), FaultAction::Deny)
        .on("tier.spill", Trigger::Ratio(1, 4), FaultAction::Io)
        .on("tier.rehydrate", Trigger::Ratio(1, 3), FaultAction::Deny)
        .install();

    // The oracle: x is a permutation, so count(lo <= x <= hi) is exactly
    // hi - lo + 1 for in-range bounds — every answer is checkable no
    // matter which tier served it.
    let admitters = 4usize;
    let rounds = 60usize;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for a in 0..admitters {
            let mut session = db.session();
            let t = &t;
            workers.push(scope.spawn(move || {
                for q in 0..rounds {
                    // a revisit-heavy mix: a small per-thread alphabet so
                    // demoted entries keep getting re-promoted by hits
                    // while fresh ranges keep the demotion rung loaded
                    let lo = ((a * 17 + (q % 8) * 211) % 1500) as i64;
                    let hi = lo + 300;
                    let reply = session
                        .query(t, &[Value::Int(lo), Value::Int(hi)])
                        .expect("storm query");
                    assert_eq!(
                        reply.export("n"),
                        Some(&Value::Int(hi - lo + 1)),
                        "wrong answer for [{lo}, {hi}] (thread {a}, round {q})"
                    );
                }
            }));
        }
        // a checker racing the storm: tier books are part of
        // check_invariants, so any demote/promote/evict interleaving
        // that desyncs them surfaces mid-storm, not just at the end
        let db_ref = &db;
        let done_ref = &done;
        let checker = scope.spawn(move || {
            while !done_ref.load(Ordering::Relaxed) {
                db_ref
                    .pool()
                    .check_invariants()
                    .expect("tier books mid-storm");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for w in workers {
            w.join().expect("worker thread");
        }
        done.store(true, Ordering::Relaxed);
        checker.join().expect("checker thread");
    });
    // The storm may outrun the collector; keep byte pressure up (faults
    // still armed) until the demote rung has provably run. Bounded: the
    // cap forces rounds within a few wakeups.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut session = db.session();
    let mut q = 0i64;
    while db.stats().demotions_compressed == 0 && Instant::now() < deadline {
        let lo = (q * 131) % 1500;
        session
            .query(&t, &[Value::Int(lo), Value::Int(lo + 300)])
            .expect("settle query");
        q += 1;
    }
    drop(session);
    let compress_faults = fault::fired("tier.compress");
    fault::clear();

    let stats = db.stats();
    assert!(
        stats.demotions_compressed > 0,
        "the cap must have driven the demotion rung: {stats:?}"
    );
    assert!(
        compress_faults > 0,
        "the compress failpoint never fired — the storm missed the rung"
    );
    db.pool()
        .check_invariants()
        .expect("tier books exact after the storm");

    drop(db); // drops the spill file
    std::fs::remove_dir_all(&spill_dir).ok();
    assert!(!spill_dir.exists(), "spill scratch dir must be cleaned up");
}

#[test]
fn demotion_panic_quarantines_and_repair_restores_exact_tier_books() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let spill_dir = spill_scratch("repair");
    let db = DatabaseBuilder::new(catalog())
        .recycler(tiered_config())
        .spill_dir(&spill_dir, 16 << 20)
        .build();
    let t = db.prepare(range_template());
    let mut session = db.session();

    // Panic at the most torn point a demotion can reach: the entry
    // already says Compressed, the books still say raw. The panic
    // unwinds the collector thread with the table write lock held —
    // poisoning it — and the supervisor restarts the collector.
    FaultPlan::seeded(13)
        .on("pool.demote.wired", Trigger::Nth(1), FaultAction::Panic)
        .install();

    // Drive admissions past the high-water mark until the collector's
    // demote rung trips the failpoint. Bounded: the cap forces rounds
    // quickly.
    let deadline = Instant::now() + Duration::from_secs(10);
    quiet(|| {
        let mut q = 0i64;
        while fault::fired("pool.demote.wired") == 0 && Instant::now() < deadline {
            let lo = (q * 131) % 1500;
            session
                .query(&t, &[Value::Int(lo), Value::Int(lo + 300)])
                .expect("pressure query keeps serving");
            q += 1;
        }
        // the poisoned lock is observed (and the pool quarantined) on
        // the next access; probe until the quarantine bit shows up
        while !db.pool().has_quarantined() && Instant::now() < deadline {
            let lo = (q * 131) % 1500;
            session
                .query(&t, &[Value::Int(lo), Value::Int(lo + 300)])
                .expect("degraded-mode query keeps serving");
            q += 1;
        }
    });
    fault::clear();
    assert_eq!(fault::fired("pool.demote.wired"), 0, "registry cleared");
    assert!(
        db.pool().has_quarantined(),
        "the mid-demotion panic must quarantine the torn pool"
    );

    // Repair drops the torn entry and recomputes every book from the
    // survivors; check_invariants then re-derives the tier books from
    // the table and compares — the satellite's acceptance gate.
    let report = db.maintenance().repair_quarantined();
    assert!(report.repaired, "{report:?}");
    assert!(!db.pool().has_quarantined());
    db.pool()
        .check_invariants()
        .expect("tier books exact after repairing a torn demotion");

    // Service restored end to end: the repaired pool admits, hits and
    // answers correctly.
    session
        .query(&t, &[Value::Int(40), Value::Int(90)])
        .expect("post-repair query");
    let again = session
        .query(&t, &[Value::Int(40), Value::Int(90)])
        .expect("post-repair revisit");
    assert_eq!(again.export("n"), Some(&Value::Int(51)));
    assert!(again.reused > 0, "hit path must serve again: {again:?}");

    drop(session);
    drop(db);
    std::fs::remove_dir_all(&spill_dir).ok();
    assert!(!spill_dir.exists(), "spill scratch dir must be cleaned up");
}
