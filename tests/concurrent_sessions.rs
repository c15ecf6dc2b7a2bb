//! Multi-session stress tests: N OS threads sharing one `Database` and
//! its pool must agree with a naive database on every result, reuse each
//! other's intermediates, keep the pool's signature index and lineage
//! graph coherent (`check_invariants` after every run), and never evict an
//! entry pinned by another session's running query — enforced
//! structurally by `RecyclePool::insert`, which gathers its victims from
//! the unpinned leaves inside the write step that admits (a pin is taken
//! under the read lock, so none can appear between gather and removal),
//! and asserted directly by the pinned-survival test below. One flooding
//! session must not starve another's admissions either.

use std::collections::HashMap;
use std::thread;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, RecyclerStats};
use rmal::{Program, ProgramBuilder, P};

fn catalog(n: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..n {
        tb.push_row(&[Value::Int((i * 37) % n), Value::Int(i % 1000)]);
    }
    cat.add_table(tb.finish());
    cat
}

/// Template 1: range count over `x`.
fn select_template() -> Program {
    let mut b = ProgramBuilder::new("stress_select", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// Template 2: select over `x`, projection join into `y`, aggregate.
fn join_template() -> Program {
    let mut b = ProgramBuilder::new("stress_join", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let map = b.row_map(sel);
    let y = b.bind("t", "y");
    let vals = b.join(map, y);
    let s = b.sum(vals);
    let n = b.count(sel);
    b.export("sum", s);
    b.export("n", n);
    b.finish()
}

/// Overlapping workload: every session draws from the same small set of
/// ranges, so exact repeats and subsumable neighbours abound.
fn workload(session: usize, len: usize) -> Vec<(usize, Vec<Value>)> {
    let ranges = [
        (0i64, 800i64),
        (100, 700),
        (100, 700), // exact repeat across sessions
        (200, 600),
        (0, 800),
        (150, 650),
    ];
    (0..len)
        .map(|i| {
            let (lo, hi) = ranges[(session + i) % ranges.len()];
            let template = (session + i) % 2;
            (template, vec![Value::Int(lo), Value::Int(hi)])
        })
        .collect()
}

/// Expected answers, computed once on a naive database.
fn expectations(
    cat: &Catalog,
    templates: &[Program],
    items: &[(usize, Vec<Value>)],
) -> HashMap<String, Vec<(String, Value)>> {
    let db = DatabaseBuilder::new(cat.clone()).naive().build();
    let nts: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    let mut session = db.session();
    let mut map = HashMap::new();
    for (idx, params) in items {
        let key = format!("{idx}:{params:?}");
        map.entry(key).or_insert_with(|| {
            session
                .query(&nts[*idx], params)
                .expect("naive run")
                .exports
        });
    }
    map
}

fn run_stress(
    config: RecyclerConfig,
    sessions: usize,
    queries_each: usize,
) -> (RecyclerStats, Database) {
    let cat = catalog(2000);
    let templates = vec![select_template(), join_template()];

    let all_items: Vec<(usize, Vec<Value>)> = (0..sessions)
        .flat_map(|s| workload(s, queries_each))
        .collect();
    let expected = expectations(&cat, &templates, &all_items);

    let db = DatabaseBuilder::new(cat).recycler(config).build();
    let optimized: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    let optimized = &optimized;
    let expected = &expected;
    let db_ref = &db;

    thread::scope(|scope| {
        for s in 0..sessions {
            let mut session = db_ref.session();
            scope.spawn(move || {
                for (idx, params) in workload(s, queries_each) {
                    let reply = session
                        .query(&optimized[idx], &params)
                        .unwrap_or_else(|e| panic!("session {s}: {e}"));
                    let key = format!("{idx}:{params:?}");
                    assert_eq!(
                        reply.exports, expected[&key],
                        "session {s} diverged from naive on {key}"
                    );
                }
            });
        }
    });

    // pool-entry uniqueness per signature: the bijectivity invariant plus
    // an explicit duplicate scan.
    {
        let pool = db.pool();
        pool.check_invariants().expect("pool coherent after stress");
        let mut seen = std::collections::HashSet::new();
        for e in pool.snapshot_entries() {
            assert!(
                seen.insert(e.sig.fingerprint()),
                "duplicate signature resident in pool"
            );
        }
    }
    let stats = db.stats();
    (stats, db)
}

#[test]
fn four_sessions_overlapping_select_join_streams() {
    let (stats, _) = run_stress(RecyclerConfig::default(), 4, 24);
    assert!(
        stats.cross_session_hits > 0,
        "overlapping streams must produce cross-session reuse: {stats:?}"
    );
    assert!(
        stats.hits * 2 > stats.monitored,
        "with six overlapping range variants most marked instructions \
         must be answered from the pool: {stats:?}"
    );
    assert_eq!(stats.sessions, 4, "one session per stream");
    assert_eq!(
        stats.active_sessions, 0,
        "stream sessions must close on drop"
    );
}

#[test]
fn eight_sessions_still_agree_with_naive() {
    let (stats, _) = run_stress(RecyclerConfig::default(), 8, 12);
    assert!(stats.cross_session_hits > 0, "{stats:?}");
}

#[test]
fn tight_memory_limit_evicts_but_never_a_pinned_entry() {
    // Small budget: admissions constantly trigger eviction while other
    // sessions hold pins. The admission's write step takes only unpinned
    // leaves as victims, under the write lock, so a wrongly evicted
    // pinned entry would surface as a diverging result or a broken
    // invariant check; results must still equal naive.
    let limit = 48 * 1024;
    let config = RecyclerConfig::default().mem_limit(limit);
    let (stats, db) = run_stress(config, 6, 20);
    assert!(
        stats.evictions > 0 || stats.admission_rejects > 0,
        "a 48 KiB pool must be under pressure: {stats:?}"
    );
    // the cap is STRICT even under concurrent admissions: the cap check,
    // the eviction and the insert are one write step, so the pool can
    // never overshoot (debug builds assert it after every insert)
    assert!(
        db.pool().bytes() <= limit,
        "resident {} bytes exceed the {} byte cap",
        db.pool().bytes(),
        limit
    );
}

/// Across 16 threads on one pool, the stats identity must be *exact* —
/// every marked instruction either hits or executes-and-admits, and each
/// admission resolves as exactly one of {admission, duplicate, reject}.
/// Any lost counter update or a double-resolved duplicate race breaks the
/// identity.
#[test]
fn sixteen_threads_stats_totals_exact() {
    let config = RecyclerConfig::default().subsumption(false);
    let sessions = 16;
    let queries_each = 12;
    let (stats, _) = run_stress(config, sessions, queries_each);
    assert_eq!(
        stats.monitored,
        stats.hits + stats.admissions + stats.duplicate_admissions + stats.admission_rejects,
        "stats must account for every marked instruction exactly: {stats:?}"
    );
    assert_eq!(
        stats.hits,
        stats.local_hits + stats.global_hits,
        "hit breakdown must be exact: {stats:?}"
    );
    assert!(stats.cross_session_hits > 0, "{stats:?}");
    assert!(
        stats.cross_session_hits <= stats.global_hits,
        "cross-session hits are a subset of global hits: {stats:?}"
    );
}

/// The tentpole invariant under real concurrency: once the pool is warm
/// and every stream repeats the same queries, the exact-match hit path
/// acquires no table write lock.
#[test]
fn warm_concurrent_hits_take_no_write_lock() {
    let cat = catalog(2000);
    let templates = [select_template(), join_template()];
    let db = DatabaseBuilder::new(cat)
        .recycler(RecyclerConfig::default())
        .build();
    let optimized: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    // warm the pool with every (template, params) pair the streams use
    let mut warmer = db.session();
    for s in 0..4 {
        for (idx, params) in workload(s, 12) {
            warmer.query(&optimized[idx], &params).unwrap();
        }
    }
    let w0 = db.pool().write_lock_acquisitions();
    let hits0 = db.stats().hits;
    let optimized = &optimized;
    let db_ref = &db;
    thread::scope(|scope| {
        for s in 0..4 {
            let mut session = db_ref.session();
            scope.spawn(move || {
                for (idx, params) in workload(s, 12) {
                    let reply = session.query(&optimized[idx], &params).unwrap();
                    assert_eq!(
                        reply.reused, reply.marked,
                        "warm streams must hit on every marked instruction"
                    );
                }
            });
        }
    });
    assert_eq!(
        db.pool().write_lock_acquisitions(),
        w0,
        "warm exact-match streams must never take a table write lock"
    );
    assert!(db.stats().hits > hits0);
    db.pool().check_invariants().unwrap();
}

#[test]
fn skyserver_mix_across_sessions() {
    // The paper's workload shape: the dominant nearby-template with two
    // overlapping parameter regions, replayed by 4 concurrent sessions.
    let cat = skyserver::generate(skyserver::SkyScale::new(4000));
    let (templates, log) = skyserver::sample_log(64, 2008);
    let items: Vec<rcy_bench::BenchItem> = log
        .into_iter()
        .map(|l| rcy_bench::BenchItem {
            query_idx: l.query_idx,
            label: l.query_idx as u8,
            params: l.params,
        })
        .collect();
    let streams = rcy_bench::partition_streams(&items, 4);
    let outcome = rcy_bench::run_concurrent(cat, &templates, &streams, RecyclerConfig::default());
    assert_eq!(outcome.sessions, 4);
    assert!(outcome.stats.cross_session_hits > 0, "{:?}", outcome.stats);
    assert!(
        outcome.hit_ratio() > 0.3,
        "template-heavy log should reuse heavily, got {}",
        outcome.hit_ratio()
    );
}

/// The starvation regression: a flooding session hammers distinct ranges
/// until the capped pool is full, then a victim session runs a modest
/// workload of its own. One admission gate serves both — no per-session
/// slice — and still the flooder cannot starve the victim: the admission
/// that finds the pool full evicts to make room, and a reuse-paced account
/// belongs to one template instruction, so the flooder drains its own keys
/// only. The victim admits, query by query, exactly what it admits on a
/// fresh database without the flooder, under KEEPALL and PACED alike, and
/// its repeat is served entirely from the pool.
#[test]
fn flooding_session_cannot_starve_another_sessions_admissions() {
    fn two_tables() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["flood", "victim"] {
            let mut tb = TableBuilder::new(name)
                .column("x", LogicalType::Int)
                .column("y", LogicalType::Int);
            for i in 0..2000i64 {
                tb.push_row(&[Value::Int((i * 37) % 2000), Value::Int(i % 97)]);
            }
            cat.add_table(tb.finish());
        }
        cat
    }
    fn range_count(name: &str, table: &str) -> Program {
        let mut b = ProgramBuilder::new(name, 2);
        let col = b.bind(table, "x");
        let sel = b.select_closed(col, P(0), P(1));
        let n = b.count(sel);
        b.export("n", n);
        b.finish()
    }
    /// The victim's per-query admissions, after `flood` distinct flooder
    /// queries on the same database.
    fn victim_admissions(admission: AdmissionPolicy, flood: i64) -> Vec<u64> {
        let db = DatabaseBuilder::new(two_tables())
            .recycler(
                RecyclerConfig::default()
                    .admission(admission)
                    .subsumption(false)
                    .entry_limit(20),
            )
            .build();
        let flood_t = db.prepare(range_count("flood_q", "flood"));
        let victim_t = db.prepare(range_count("victim_q", "victim"));
        let mut flooder = db.session();
        let mut victim = db.session();
        for i in 0..flood {
            flooder
                .query(&flood_t, &[Value::Int(i * 7), Value::Int(i * 7 + 3)])
                .unwrap();
        }
        if flood > 0 && admission == AdmissionPolicy::KeepAll {
            assert_eq!(db.pool().len(), 20, "the flooder must fill the pool");
        }
        let range = |i: i64| [Value::Int(i * 100), Value::Int(i * 100 + 50)];
        let admitted = (0..5)
            .map(|i| victim.query(&victim_t, &range(i)).unwrap().admitted)
            .collect();
        let repeat = victim.query(&victim_t, &range(0)).unwrap();
        assert_eq!(
            repeat.reused, repeat.marked,
            "{admission:?}: the victim's repeat must fully hit"
        );
        db.pool().check_invariants().unwrap();
        admitted
    }
    for admission in [AdmissionPolicy::KeepAll, AdmissionPolicy::Paced] {
        let alone = victim_admissions(admission, 0);
        assert!(alone.iter().sum::<u64>() > 0, "{admission:?}: {alone:?}");
        assert_eq!(
            victim_admissions(admission, 100),
            alone,
            "{admission:?}: the flooder changed what the victim admits"
        );
    }
}
