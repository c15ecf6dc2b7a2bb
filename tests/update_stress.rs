//! Update invalidation: recycled answers stay equal to a naive database's
//! across insert and delete commits, and a commit removes exactly what the
//! lineage graph derives from the columns it rewrote — nothing from an
//! unrelated table, no stale persistent registration. Under concurrency,
//! reader sessions working against other tables must keep probing and
//! admitting (and never deadlock) while the writer commits, and a
//! post-commit probe must never be served a pre-commit result — even when
//! an old-epoch straggler re-admits stale entries mid-commit (versioned
//! bind signatures make those structurally unreachable).

use std::collections::BTreeSet;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::EntryId;
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Session, Update};
use rmal::{ExecHook, HookAction, Program, ProgramBuilder, P};

/// Two independent tables: `hot` receives the writer's commits, `cold`
/// serves the reader sessions.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in ["hot", "cold"] {
        let mut tb = TableBuilder::new(name)
            .column("x", LogicalType::Int)
            .column("y", LogicalType::Int);
        for i in 0..1500i64 {
            tb.push_row(&[Value::Int((i * 31) % 1500), Value::Int(i % 97)]);
        }
        cat.add_table(tb.finish());
    }
    cat
}

fn range_template(name: &str, table: &str, column: &str) -> Program {
    let mut b = ProgramBuilder::new(name, 2);
    let col = b.bind(table, column);
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// A naive database over the given snapshot — the ground truth engine.
fn naive_over(cat: Catalog) -> Database {
    DatabaseBuilder::new(cat).naive().build()
}

/// The entries derived from `table` — anchored on one of its columns or
/// below an entry that is, as the lineage graph has it.
fn derived_from_table(db: &Database, table: &str) -> usize {
    let derived = db.pool().derived_by_column();
    let of_table = derived.iter().filter(|((t, _), _)| t == table);
    of_table.map(|(_, ids)| ids.len()).sum()
}

/// 1 writer committing deltas to `hot` while 8 reader sessions replay a
/// warm workload against `cold`: no deadlock, readers stay pure-hit and
/// keep their answers through the commits, and
/// post-commit probes of `hot` recompute rather than reuse anything
/// pre-commit.
#[test]
fn update_vs_query_stress_readers_never_blocked_or_stale() {
    let readers = 8usize;
    let rounds = 30usize;
    let commits = 4usize;

    // six distinct instances are warmed before anything is reused, more
    // than a paced key's starting balance: every one must be admitted
    let db = DatabaseBuilder::new(catalog())
        .recycler(RecyclerConfig::default().admission(AdmissionPolicy::KeepAll))
        .build();
    let th = db.prepare(range_template("hot_q", "hot", "x"));
    let tc = db.prepare(range_template("cold_q", "cold", "x"));

    let params: Vec<Vec<Value>> = (0..6i64)
        .map(|i| vec![Value::Int(i * 90), Value::Int(i * 90 + 500)])
        .collect();

    // expected cold answers from a naive database (cold never changes)
    let naive_db = naive_over((*db.catalog()).clone());
    let nc = naive_db.prepare(range_template("cold_q", "cold", "x"));
    let mut naive = naive_db.session();
    let expected: Vec<_> = params
        .iter()
        .map(|p| naive.query(&nc, p).unwrap().exports)
        .collect();

    // warm every (template, params) pair the readers will replay, plus the
    // hot chain the writer will invalidate
    {
        let mut warmer = db.session();
        for p in &params {
            warmer.query(&tc, p).unwrap();
            warmer.query(&th, p).unwrap();
        }
    }
    assert!(
        derived_from_table(&db, "hot") > 0,
        "the writer has a closure to invalidate"
    );

    let (db_ref, th, tc, params, expected) = (&db, &th, &tc, &params, &expected);
    thread::scope(|scope| {
        for r in 0..readers {
            let mut session = db_ref.session();
            scope.spawn(move || {
                for i in 0..rounds {
                    let p = &params[(r + i) % params.len()];
                    let reply = session.query(tc, p).unwrap();
                    assert_eq!(
                        reply.reused, reply.marked,
                        "warm cold streams must stay pure-hit across commits"
                    );
                    assert_eq!(
                        &reply.exports,
                        &expected[(r + i) % params.len()],
                        "reader {r} diverged on round {i}"
                    );
                }
            });
        }
        let mut writer = db_ref.session();
        scope.spawn(move || {
            for c in 0..commits {
                writer
                    .commit(
                        Update::to("hot")
                            .insert(vec![vec![Value::Int(c as i64), Value::Int(c as i64)]]),
                    )
                    .unwrap();
            }
        });
    });

    // the cold lineage the readers hit survived every commit
    assert!(derived_from_table(&db, "cold") > 0);
    db.pool().check_invariants().unwrap();

    // no stale reuse: a post-commit probe of hot recomputes from the
    // current snapshot and agrees with a naive database on it
    let mut post = db.session();
    let p = vec![Value::Int(0), Value::Int(700)];
    let got = post.query(th, &p).unwrap();
    assert_eq!(
        got.reused, 0,
        "post-commit hot probes must not reuse pre-commit intermediates"
    );
    let naive_post = naive_over((*db.catalog()).clone());
    let nh = naive_post.prepare(range_template("hot_q", "hot", "x"));
    assert_eq!(
        got.exports,
        naive_post.session().query(&nh, &p).unwrap().exports
    );
}

/// An old-epoch straggler admitting a bind *after* the commit's
/// invalidation pass must never be able to serve a post-commit probe:
/// bind signatures carry the table's commit version, so the stale entry
/// is unreachable (and merely awaits eviction). The straggler is driven
/// at the hook level through the database's white-box recycler handle —
/// the race window cannot be scripted through the session API.
#[test]
fn stale_bind_from_old_epoch_never_serves_post_commit_probes() {
    let db = DatabaseBuilder::new(catalog()).build();
    let th = db.prepare(range_template("hot_q", "hot", "x"));
    let mut w = db.session();

    // a reader pinned the pre-commit epoch...
    let old_cat = (*db.catalog()).clone();
    // ...then the writer commits (pool holds nothing yet, so the
    // invalidation pass has nothing to remove — the race window is the
    // straggler's admission landing after it)
    w.commit(Update::to("hot").insert(vec![vec![Value::Int(5), Value::Int(5)]]))
        .unwrap();

    // the straggler executes and admits the hot bind against its
    // pre-commit snapshot
    let mut straggler = db.recycler().session();
    let bind = th.instrs[0].clone();
    assert_eq!(bind.op, rmal::Opcode::Bind);
    let bind_args = vec![Value::str("hot"), Value::str("x")];
    straggler.query_start(&th);
    assert!(matches!(
        straggler.before(&old_cat, 0, &bind, &bind_args, Instant::now()),
        HookAction::Proceed
    ));
    let stale = rmal::execute_op(&old_cat, &bind.op, &bind_args).unwrap();
    straggler.after(
        &old_cat,
        0,
        &bind,
        &bind_args,
        &stale,
        Duration::from_micros(5),
        Instant::now(),
    );
    straggler.query_end(&th);
    assert_eq!(db.pool().len(), 1, "the stale bind is resident");

    // a post-commit query must MISS the stale entry and recompute
    let p = vec![Value::Int(0), Value::Int(800)];
    let got = w.query(&th, &p).unwrap();
    assert_eq!(
        got.reused, 0,
        "a post-commit probe reused a pre-commit bind — stale reuse"
    );
    let naive_db = naive_over((*db.catalog()).clone());
    let nt = naive_db.prepare(range_template("hot_q", "hot", "x"));
    assert_eq!(
        got.exports,
        naive_db.session().query(&nt, &p).unwrap().exports
    );
    db.pool().check_invariants().unwrap();
}

// ----- commit scripts against a naive database ------------------------------
//
// TPC-H Q4 (a date window and the late-lineitem thread) replayed across
// insert and delete blocks on `orders` / `lineitem`: the recycled answers
// stay equal to a naive database's, and a commit removes exactly what the
// lineage graph derives from the columns it rewrote.

#[allow(clippy::type_complexity)]
fn tpch_databases() -> (Database, Database, Program, Program) {
    let cat = tpch::generate(tpch::TpchScale::new(0.003));
    let q = tpch::query(4);
    let naive = DatabaseBuilder::new(cat.clone()).naive().build();
    let nt = naive.prepare(q.template.clone());
    let rec = DatabaseBuilder::new(cat).build();
    let rt = rec.prepare(q.template.clone());
    (naive, rec, nt, rt)
}

fn apply_same_update(naive: &mut Session, rec: &mut Session, seed: u64, with_deletes: bool) {
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let cat_a = naive.database().catalog();
    let cat_b = rec.database().catalog();
    let block_a = tpch::insert_block(&cat_a, &mut rng_a, 6);
    let block_b = tpch::insert_block(&cat_b, &mut rng_b, 6);
    naive
        .commit(Update::to("orders").insert(block_a.order_rows))
        .unwrap();
    naive
        .commit(Update::to("lineitem").insert(block_a.lineitem_rows))
        .unwrap();
    rec.commit(Update::to("orders").insert(block_b.order_rows))
        .unwrap();
    rec.commit(Update::to("lineitem").insert(block_b.lineitem_rows))
        .unwrap();
    if with_deletes {
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 1);
        let mut rng_b = SmallRng::seed_from_u64(seed ^ 1);
        let cat_a = naive.database().catalog();
        let cat_b = rec.database().catalog();
        let del_a = tpch::delete_block(&cat_a, &mut rng_a, 3);
        let del_b = tpch::delete_block(&cat_b, &mut rng_b, 3);
        naive
            .commit(Update::to("lineitem").delete(del_a.delete_lineitems))
            .unwrap();
        naive
            .commit(Update::to("orders").delete(del_a.delete_orders))
            .unwrap();
        rec.commit(Update::to("lineitem").delete(del_b.delete_lineitems))
            .unwrap();
        rec.commit(Update::to("orders").delete(del_b.delete_orders))
            .unwrap();
    }
}

fn q4_params() -> Vec<Value> {
    vec![Value::date("1994-03-01")]
}

#[test]
fn invalidation_keeps_answers_fresh() {
    let (naive_db, rec_db, nt, rt) = tpch_databases();
    let mut naive = naive_db.session();
    let mut rec = rec_db.session();
    let p = q4_params();
    for round in 0..4 {
        let expect = naive.query(&nt, &p).unwrap().exports;
        let got = rec.query(&rt, &p).unwrap().exports;
        assert_eq!(expect, got, "round {round}");
        apply_same_update(&mut naive, &mut rec, 100 + round, round % 2 == 1);
    }
    assert!(rec_db.stats().invalidated > 0, "updates must invalidate");
}

#[test]
fn unrelated_table_updates_do_not_disturb_pool() {
    let (naive_db, rec_db, _nt, rt) = tpch_databases();
    let mut naive = naive_db.session();
    let mut rec = rec_db.session();
    let p = q4_params();
    rec.query(&rt, &p).unwrap();
    let entries = rec_db.pool().len();
    // region is untouched by Q4
    let atlantis = || {
        vec![vec![
            Value::Int(5),
            Value::str("ATLANTIS"),
            Value::str("sunken"),
        ]]
    };
    naive
        .commit(Update::to("region").insert(atlantis()))
        .unwrap();
    rec.commit(Update::to("region").insert(atlantis())).unwrap();
    assert_eq!(rec_db.pool().len(), entries);
}

fn resident_ids(db: &Database) -> BTreeSet<EntryId> {
    db.pool().snapshot_entries().iter().map(|e| e.id).collect()
}

#[test]
fn a_commit_invalidates_exactly_what_the_graph_derives_from_its_columns() {
    // An insert rewrites every column of its table and the join indices
    // ending in it: the entries anchored on those columns, and whatever
    // hangs below them, go; nothing else does, and the counter says as much.
    let (_naive_db, rec_db, _nt, rt) = tpch_databases();
    let mut rec = rec_db.session();
    rec.query(&rt, &q4_params()).unwrap();
    let before = resident_ids(&rec_db);
    let derived = rec_db.pool().derived_by_column();
    let block = tpch::insert_block(&rec_db.catalog(), &mut SmallRng::seed_from_u64(7), 6);
    let report = rec
        .commit(Update::to("orders").insert(block.order_rows))
        .unwrap();
    let cat = rec_db.catalog();
    let schema = cat.table("orders").unwrap().schema().to_vec();
    let mut rewritten: BTreeSet<(String, String)> =
        (schema.into_iter().map(|(c, _)| ("orders".to_string(), c))).collect();
    for def in report
        .rebuilt_indices
        .iter()
        .map(|i| cat.index_def(i).unwrap())
    {
        rewritten.insert((def.from_table.clone(), def.from_column.clone()));
        rewritten.insert((def.to_table.clone(), def.to_key.clone()));
    }
    let hit = derived
        .iter()
        .filter(|(column, _)| rewritten.contains(column));
    let expected: BTreeSet<EntryId> = hit.flat_map(|(_, ids)| ids.clone()).collect();
    let survivors = resident_ids(&rec_db);
    let victims: BTreeSet<EntryId> = before.difference(&survivors).copied().collect();
    assert!(!victims.is_empty() && !survivors.is_empty(), "vacuous");
    assert_eq!(victims, expected);
    assert_eq!(rec_db.stats().invalidated, expected.len() as u64);
    rec_db.pool().check_invariants().unwrap();
}

#[test]
fn commits_do_not_leak_persistent_registrations() {
    // Regression: a commit must forget the replaced buffers'
    // registrations in the step that lists its roots — once, a rewritten
    // column's old buffer stayed registered forever, one stale
    // registration per column per commit.
    let (_naive_db, rec_db, _nt, rt) = tpch_databases();
    let mut rec = rec_db.session();
    let mut after_first_block = None;
    for round in 0..6 {
        rec.query(&rt, &q4_params()).unwrap();
        let block = tpch::insert_block(&rec_db.catalog(), &mut SmallRng::seed_from_u64(round), 4);
        rec.commit(Update::to("orders").insert(block.order_rows))
            .unwrap();
        rec.commit(Update::to("lineitem").insert(block.lineitem_rows))
            .unwrap();
        let registered = rec_db.pool().persistent_bats();
        let bound = *after_first_block.get_or_insert(registered.len());
        assert!(
            registered.len() <= bound,
            "round {round}: {} registrations, {bound} after the first block",
            registered.len()
        );
        // a registered column buffer is the one the catalog binds now
        // (join indices stand for two columns)
        let cat = rec_db.catalog();
        for (bat, of) in registered.iter().filter(|(_, of)| of.len() == 1) {
            let live = |(t, c): &(String, String)| cat.bind(t, c).unwrap().id() == *bat;
            assert!(
                of.iter().all(live),
                "round {round}: stale {bat:?} of {of:?}"
            );
        }
    }
    rec_db.pool().check_invariants().unwrap();
}
