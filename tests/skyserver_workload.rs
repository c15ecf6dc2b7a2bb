//! SkyServer workload integration: the sampled log replays correctly and
//! profitably through the recycler, driven through the facade.

use recycling::DatabaseBuilder;
use rmal::Program;
use skyserver::{generate, sample_log, SkyScale};

#[test]
fn log_replay_equals_naive() {
    let cat = generate(SkyScale::new(6000));
    let (templates, log) = sample_log(60, 17);

    let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
    let nts: Vec<Program> = templates
        .iter()
        .map(|t| naive_db.prepare(t.clone()))
        .collect();
    let mut naive = naive_db.session();

    let db = DatabaseBuilder::new(cat).build();
    let rts: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    let mut rec = db.session();

    // a repeated all-hit query is replayed in one read step of the pool:
    // its answers are held to the naive ones like every other
    let mut replayed = 0;
    for (i, item) in log.iter().enumerate() {
        let expect = naive.query(&nts[item.query_idx], &item.params).unwrap();
        let got = rec.query(&rts[item.query_idx], &item.params).unwrap();
        let record = rec.last_query().expect("a recycling session");
        replayed += record.replayed as usize;
        assert_eq!(
            expect.exports, got.exports,
            "log item {i} ({:?}, replayed: {})",
            item.kind, record.replayed
        );
    }
    assert!(replayed > 0, "no query of the log was replayed");

    // the dominant template must recycle heavily (the paper reports 95.6%)
    let stats = db.stats();
    let rate = stats.hits as f64 / stats.monitored.max(1) as f64;
    assert!(
        rate > 0.5,
        "reuse rate {rate:.2} too low for a template-heavy log"
    );
    db.pool().check_invariants().expect("coherent");
}

#[test]
fn pool_breakdown_has_expected_families() {
    let cat = generate(SkyScale::new(4000));
    let (templates, log) = sample_log(40, 23);
    let db = DatabaseBuilder::new(cat).build();
    let rts: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    let mut rec = db.session();
    for item in &log {
        rec.query(&rts[item.query_idx], &item.params).unwrap();
    }
    let snap = db.snapshot();
    for family in ["bind", "select", "join"] {
        assert!(
            snap.by_family.contains_key(family),
            "family {family} missing from pool breakdown"
        );
    }
    // binds and views must be charged (almost) nothing
    let bind_row = &snap.by_family["bind"];
    assert!(
        bind_row.bytes < 10_000,
        "binds charge {} bytes",
        bind_row.bytes
    );
    // joins carry real memory (19 projections worth)
    assert!(snap.by_family["join"].bytes > bind_row.bytes);
}
