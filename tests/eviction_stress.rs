//! Concurrent eviction stress: admitting sessions under tight caps (so
//! every few admissions trigger an eviction round), a committing writer
//! invalidating lineage, and repeated warm probes pinning entries — all
//! at once over one shared pool. The run must end with the structural
//! invariants intact, including the incremental evictable-leaf index
//! equalling the brute-force childless set: batched eviction trusts the
//! index completely, so any drift under this churn would surface here.
//! CI re-runs this suite in release mode, where the races are fastest.

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

#[test]
fn concurrent_admissions_evictions_and_commits_keep_the_pool_exact() {
    let db = DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .entry_limit(24)
                .mem_limit(96 << 10),
        )
        .build();
    let cold_t = db.prepare(count_template("stress_cold", "cold"));
    let hot_t = db.prepare(count_template("stress_hot", "hot"));

    let admitters = 4usize;
    let queries_per_admitter = 80usize;
    let commits = 8usize;
    std::thread::scope(|scope| {
        for a in 0..admitters {
            let mut session = db.session();
            let cold_t = &cold_t;
            scope.spawn(move || {
                for q in 0..queries_per_admitter {
                    // mostly-fresh ranges keep admissions (and therefore
                    // evictions) flowing; every 4th query re-probes a warm
                    // range so hits pin entries mid-eviction
                    let lo = if q % 4 == 0 {
                        (a as i64 % 2) * 100
                    } else {
                        ((a * queries_per_admitter + q) as i64 * 7) % 1200
                    };
                    session
                        .query(cold_t, &[Value::Int(lo), Value::Int(lo + 180)])
                        .expect("admitter query");
                }
            });
        }
        let mut writer = db.session();
        let hot_t = &hot_t;
        scope.spawn(move || {
            for c in 0..commits {
                // admit a hot chain right before committing, so the
                // commit has a lineage closure to invalidate even while
                // the admitters' churn keeps evicting everything else
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
        });
    });

    let stats = db.stats();
    assert!(
        stats.evictions > 0,
        "the caps must force evictions during the stress: {stats:?}"
    );
    // mid-storm the strict admission gate may reject the writer's chains
    // (concurrent reservations), so pin the invalidation path on one
    // quiescent query+commit instead of racing it against the churn
    {
        let mut writer = db.session();
        writer
            .query(&hot_t, &[Value::Int(0), Value::Int(700)])
            .expect("quiescent hot query");
        writer
            .commit(Update::to("hot").insert(vec![vec![Value::Int(1), Value::Int(1)]]))
            .expect("quiescent commit");
        assert!(
            db.stats().invalidated > 0,
            "a commit over a resident hot chain must invalidate it: {:?}",
            db.stats()
        );
    }

    let pool = db.pool();
    assert!(pool.len() <= 24, "entry cap overshot: {}", pool.len());
    assert!(
        pool.bytes() <= 96 << 10,
        "memory cap overshot: {}",
        pool.bytes()
    );
    pool.check_invariants().expect("structural invariants");
    // quiescent exactness of the leaf index against the brute-force set
    let mut indexed = pool.leaf_ids();
    indexed.sort_unstable();
    let mut brute: Vec<EntryId> = pool
        .snapshot_entries()
        .iter()
        .filter(|e| !pool.has_children(e.id))
        .map(|e| e.id)
        .collect();
    brute.sort_unstable();
    assert_eq!(indexed, brute, "leaf index drifted during concurrent churn");
    // gather work stayed O(leaves): with at most 24 resident entries no
    // round may ever have visited more than the cap
    let rounds = pool.eviction_gather_rounds().max(1);
    assert!(
        pool.eviction_gather_visited() <= rounds * 24,
        "gather visited {} entries over {} rounds with a 24-entry cap",
        pool.eviction_gather_visited(),
        rounds
    );
}
