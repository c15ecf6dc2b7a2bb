//! Per-session admission budgets (credit slices): one flooding session
//! must never starve another session's admissions — the ROADMAP
//! "Admission under contention" item, closed as part of the facade API.

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycling::{AdmissionPolicy, DatabaseBuilder, RecyclerConfig};
use rmal::{Program, ProgramBuilder, P};

fn catalog() -> Catalog {
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

fn range_template(name: &str, table: &str) -> Program {
    let mut b = ProgramBuilder::new(name, 2);
    let col = b.bind(table, "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// The starvation regression: a flooder hammers distinct queries (every
/// one admits fresh entries) until it has saturated its slice and the
/// overflow lane; a victim session arriving afterwards must still admit
/// every entry of its own modest workload, because its fair slice is
/// reserved by construction.
#[test]
fn flooding_session_cannot_starve_another_sessions_admissions() {
    let budget = 40u64;
    let db = DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .admission(AdmissionPolicy::KeepAll)
                .subsumption(false)
                .session_credits(budget),
        )
        .build();
    let flood_t = db.prepare(range_template("flood_q", "flood"));
    let victim_t = db.prepare(range_template("victim_q", "victim"));

    // two open sessions → fair slice = budget / 2
    let mut flooder = db.session();
    let mut victim = db.session();

    // the flooder runs 100 distinct ranges: ~2 admissions each (select +
    // count; the bind admits once) — far beyond the whole budget
    for i in 0..100i64 {
        flooder
            .query(&flood_t, &[Value::Int(i * 7), Value::Int(i * 7 + 3)])
            .unwrap();
    }
    let stats = db.stats();
    assert!(
        stats.session_budget_rejects > 0,
        "the flooder must run into its slice: {stats:?}"
    );
    let flooder_resident = db.pool().resident_of_session(flooder.id());
    assert!(
        flooder_resident <= budget + 2,
        "the flooder's footprint is bounded by budget + in-flight slop, \
         got {flooder_resident} of budget {budget}"
    );

    // the victim's modest workload (5 distinct ranges ≈ 11 entries,
    // within its slice of 20) must admit every single entry
    let rejects_before = db.stats().session_budget_rejects;
    for i in 0..5i64 {
        let reply = victim
            .query(&victim_t, &[Value::Int(i * 100), Value::Int(i * 100 + 50)])
            .unwrap();
        assert!(
            reply.admitted > 0,
            "victim query {i} admitted nothing — starved by the flooder"
        );
    }
    assert_eq!(
        db.stats().session_budget_rejects,
        rejects_before,
        "no victim admission may be budget-rejected while under its slice"
    );
    let victim_resident = db.pool().resident_of_session(victim.id());
    assert!(
        victim_resident >= 10,
        "the victim's entries must be resident ({victim_resident})"
    );
    // and the victim now reuses its own entries — the pool works for it
    let reply = victim
        .query(&victim_t, &[Value::Int(0), Value::Int(50)])
        .unwrap();
    assert_eq!(reply.reused, reply.marked, "victim repeat must fully hit");
    db.pool().check_invariants().unwrap();
}

/// Closing sessions rebalances the slices: after the flooder closes and
/// its entries are invalidated, a session that was previously pinned to a
/// half-budget slice can use the whole budget.
#[test]
fn slices_rebalance_on_session_close() {
    let budget = 20u64;
    let db = DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .admission(AdmissionPolicy::KeepAll)
                .subsumption(false)
                .session_credits(budget),
        )
        .build();
    let t = db.prepare(range_template("flood_q", "flood"));

    // a second active session halves the slice while it lives
    let mut solo = db.session();
    let other = db.session();
    assert_eq!(db.stats().active_sessions, 2);
    drop(other);
    assert_eq!(
        db.stats().active_sessions,
        1,
        "dropping a session must deregister it"
    );

    // alone again, the remaining session's slice is the whole budget
    for i in 0..30i64 {
        solo.query(&t, &[Value::Int(i * 11), Value::Int(i * 11 + 4)])
            .unwrap();
    }
    let resident = db.pool().resident_of_session(solo.id());
    assert!(
        resident >= budget,
        "a lone session may fill the whole budget (resident {resident})"
    );
}

/// Entries removed by eviction or invalidation release their session's
/// budget — the books live at the pool's insert/remove funnels.
#[test]
fn removed_entries_release_budget() {
    let db = DatabaseBuilder::new(catalog())
        .recycler(
            RecyclerConfig::default()
                .subsumption(false)
                .session_credits(10),
        )
        .build();
    let t = db.prepare(range_template("flood_q", "flood"));
    let mut session = db.session();
    for i in 0..20i64 {
        session
            .query(&t, &[Value::Int(i * 13), Value::Int(i * 13 + 5)])
            .unwrap();
    }
    let before = db.pool().resident_of_session(session.id());
    assert!(before > 0);
    // invalidate everything derived from `flood`
    session
        .commit(recycling::Update::to("flood").insert(vec![vec![Value::Int(1), Value::Int(1)]]))
        .unwrap();
    assert_eq!(
        db.pool().resident_of_session(session.id()),
        0,
        "invalidation must release the admitting session's budget"
    );
    // and the session can admit again
    let reply = session.query(&t, &[Value::Int(0), Value::Int(5)]).unwrap();
    assert!(reply.admitted > 0, "budget must be usable after release");
    db.pool().check_invariants().unwrap();
}
