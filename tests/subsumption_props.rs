//! Property-based tests: subsumed execution is semantically invisible.

use proptest::prelude::*;
use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycling::{AdmissionPolicy, DatabaseBuilder, RecyclerConfig};
use rmal::{Program, ProgramBuilder, P};

fn catalog(n: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("w", LogicalType::Float);
    for i in 0..n {
        tb.push_row(&[
            Value::Int((i * 2_654_435_761) % n),
            Value::Float((i % 101) as f64),
        ]);
    }
    cat.add_table(tb.finish());
    cat
}

fn range_template() -> Program {
    let mut b = ProgramBuilder::new("props_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let map = b.row_map(sel);
    let w = b.bind("t", "w");
    let vals = b.join(map, w);
    let s = b.sum(vals);
    let n = b.count(sel);
    b.export("sum", s);
    b.export("n", n);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of range queries answered with recycling+subsumption
    /// equals naive execution.
    #[test]
    fn random_ranges_equal_naive(ranges in prop::collection::vec((0i64..2000, 0i64..2000), 1..12)) {
        let cat = catalog(2000);
        let template = range_template();
        let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
        let nt = naive_db.prepare(template.clone());
        let mut naive = naive_db.session();
        let db = DatabaseBuilder::new(cat).recycler(RecyclerConfig::default()).build();
        let rt = db.prepare(template.clone());
        let mut rec = db.session();
        for (a, b) in ranges {
            let (lo, hi) = (a.min(b), a.max(b));
            let params = [Value::Int(lo), Value::Int(hi)];
            let expect = naive.query(&nt, &params).unwrap();
            let got = rec.query(&rt, &params).unwrap();
            prop_assert_eq!(expect.export("n"), got.export("n"));
            prop_assert_eq!(expect.export("sum"), got.export("sum"));
        }
        db.pool().check_invariants().map_err(|e| {
            TestCaseError::fail(format!("pool invariant: {e}"))
        })?;
    }

    /// Nested ranges force the subsumption path specifically.
    #[test]
    fn nested_ranges_subsume_and_agree(
        lo in 0i64..500,
        width in 100i64..1500,
        shrink in 1i64..40,
    ) {
        let cat = catalog(2000);
        let template = range_template();
        let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
        let nt = naive_db.prepare(template.clone());
        let mut naive = naive_db.session();
        let db = DatabaseBuilder::new(cat).recycler(RecyclerConfig::default()).build();
        let rt = db.prepare(template.clone());
        let mut rec = db.session();

        let outer = [Value::Int(lo), Value::Int(lo + width)];
        let inner = [Value::Int(lo + shrink), Value::Int(lo + width - shrink)];
        let _ = rec.query(&rt, &outer).unwrap();
        let got = rec.query(&rt, &inner).unwrap();
        let expect = naive.query(&nt, &inner).unwrap();
        prop_assert_eq!(expect.export("n"), got.export("n"));
        prop_assert_eq!(expect.export("sum"), got.export("sum"));
        // the inner selection must have been answered in subsumed form
        // (strictly smaller range over the same operand)
        prop_assert!(got.subsumed >= 1 || shrink * 2 >= width);
    }
}

#[test]
fn combined_subsumption_microbench_is_exact() {
    let cat = skyserver::generate(skyserver::SkyScale::new(5000));
    let (template, items) = skyserver::microbench(6, 3, 0.05, 11);
    let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
    let nt = naive_db.prepare(template.clone());
    let mut naive = naive_db.session();
    // every cover admitted, however many: the pieces the seeds need
    let db = DatabaseBuilder::new(cat)
        .recycler(RecyclerConfig::default().admission(AdmissionPolicy::KeepAll))
        .build();
    let rt = db.prepare(template.clone());
    let mut rec = db.session();
    let mut seeds_subsumed = 0;
    for item in &items {
        let expect = naive.query(&nt, &item.params).unwrap();
        let got = rec.query(&rt, &item.params).unwrap();
        // tuple counts are exact
        assert_eq!(expect.export("objects"), got.export("objects"));
        // float sums to the bit: a combined answer is gathered in the
        // operand's order, so the same values are added in the same order
        let e = expect.export("dec_sum").and_then(|v| v.as_float()).unwrap();
        let g = got.export("dec_sum").and_then(|v| v.as_float()).unwrap();
        assert_eq!(e.to_bits(), g.to_bits(), "dec_sum diverged: {e} vs {g}");
        if item.is_seed && got.subsumed > 0 {
            seeds_subsumed += 1;
        }
    }
    assert!(
        seeds_subsumed >= 4,
        "most seeds must be answered by combined subsumption ({seeds_subsumed}/6)"
    );
}

/// `semijoin(t.w, sel)` after a selection `sel` over `t.x`: a filter of
/// the selection `select(sel, 100, 600)` when `narrow`, else the selection
/// `select(t.x, 0, 1500)` itself.
fn semijoin_template(narrow: bool) -> Program {
    let mut b = ProgramBuilder::new(if narrow { "sj_narrow" } else { "sj_wide" }, 0);
    let x = b.bind("t", "x");
    let w = b.bind("t", "w");
    let mut sel = b.select_closed(x, Value::Int(0), Value::Int(1500));
    if narrow {
        sel = b.select_closed(sel, Value::Int(100), Value::Int(600));
    }
    let sj = b.semijoin(w, sel);
    let s = b.sum(sj);
    let n = b.count(sj);
    b.export("sum", s);
    b.export("n", n);
    b.finish()
}

/// The semijoin rule (§5.1) through the hook: a resident `semijoin(X, V)`
/// answers `semijoin(X, W)` for a `W` whose producer filters `V` — a
/// subset relation read off the lineage, recorded nowhere.
#[test]
fn semijoin_is_subsumed_through_the_lineage_of_its_operand() {
    let cat = catalog(2000);
    let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
    let mut naive = naive_db.session();
    let db = DatabaseBuilder::new(cat)
        .recycler(RecyclerConfig::default())
        .build();
    let mut rec = db.session();
    for narrow in [false, true] {
        let template = semijoin_template(narrow);
        let expect = naive
            .query(&naive_db.prepare(template.clone()), &[])
            .unwrap();
        let got = rec.query(&db.prepare(template), &[]).unwrap();
        // the second query hits the binds and `V`, admits `W` and
        // rewrites its semijoin onto the first query's
        assert_eq!(got.subsumed, narrow as u64, "{got:?}");
        assert_eq!(expect.export("n"), got.export("n"));
        assert_eq!(expect.export("sum"), got.export("sum"));
    }
    db.pool().check_invariants().unwrap();
}
