//! Update synchronisation: invalidation and delta propagation must both
//! keep recycled answers identical to a naive database's across commits.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::Value;
use recycler::EntryId;
use recycling::{Database, DatabaseBuilder, RecyclerConfig, Session, Update, UpdateMode};
use rmal::Program;

#[allow(clippy::type_complexity)]
fn databases(mode: UpdateMode) -> (Database, Database, Program, Program) {
    let cat = tpch::generate(tpch::TpchScale::new(0.003));
    let q = tpch::query(4); // date window + late-lineitem thread
    let naive = DatabaseBuilder::new(cat.clone()).naive().build();
    let nt = naive.prepare(q.template.clone());
    let rec = DatabaseBuilder::new(cat)
        .recycler(RecyclerConfig::default().update_mode(mode))
        .build();
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
    let (naive_db, rec_db, nt, rt) = databases(UpdateMode::Invalidate);
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
fn propagation_keeps_answers_fresh_on_inserts() {
    let (naive_db, rec_db, nt, rt) = databases(UpdateMode::Propagate);
    let mut naive = naive_db.session();
    let mut rec = rec_db.session();
    let p = q4_params();
    for round in 0..4 {
        let expect = naive.query(&nt, &p).unwrap().exports;
        let got = rec.query(&rt, &p).unwrap().exports;
        assert_eq!(expect, got, "round {round}");
        apply_same_update(&mut naive, &mut rec, 200 + round, false);
    }
    assert!(
        rec_db.stats().propagated > 0,
        "insert-only commits must propagate"
    );
    rec_db.pool().check_invariants().expect("coherent");
}

#[test]
fn propagation_falls_back_to_invalidation_on_deletes() {
    let (naive_db, rec_db, nt, rt) = databases(UpdateMode::Propagate);
    let mut naive = naive_db.session();
    let mut rec = rec_db.session();
    let p = q4_params();
    let before = naive.query(&nt, &p).unwrap().exports;
    assert_eq!(before, rec.query(&rt, &p).unwrap().exports);
    apply_same_update(&mut naive, &mut rec, 300, true);
    let after = naive.query(&nt, &p).unwrap().exports;
    assert_eq!(after, rec.query(&rt, &p).unwrap().exports);
    assert!(
        rec_db.stats().invalidated > 0,
        "deleting commits must invalidate"
    );
}

#[test]
fn propagated_entries_keep_matching() {
    // after an insert-only commit the refreshed pool must keep serving
    // hits for the parameter-independent thread
    let (naive_db, rec_db, _nt, rt) = databases(UpdateMode::Propagate);
    let mut naive = naive_db.session();
    let mut rec = rec_db.session();
    let p = q4_params();
    rec.query(&rt, &p).unwrap();
    let hits_before = rec_db.stats().hits;
    apply_same_update(&mut naive, &mut rec, 400, false);
    let reply = rec.query(&rt, &p).unwrap();
    let hits_after = rec_db.stats().hits;
    assert!(
        hits_after > hits_before,
        "refreshed entries must be rediscoverable (got {} hits in re-run, stats {:?})",
        reply.reused,
        rec_db.stats()
    );
}

#[test]
fn unrelated_table_updates_do_not_disturb_pool() {
    let (naive_db, rec_db, _nt, rt) = databases(UpdateMode::Invalidate);
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
    let (_naive_db, rec_db, _nt, rt) = databases(UpdateMode::Invalidate);
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
fn propagating_commits_do_not_leak_persistent_registrations() {
    // Regression: under `Propagate` every rewritten column's old buffer
    // stayed registered forever (the `retain` lived on the invalidation
    // path only) — one stale registration per column per commit.
    let (_naive_db, rec_db, _nt, rt) = databases(UpdateMode::Propagate);
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
    assert!(rec_db.stats().propagated > 0);
    rec_db.pool().check_invariants().unwrap();
}
