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
        // float sums may differ in the last ulp: pieced execution adds the
        // same values in a different order
        let e = expect.export("dec_sum").and_then(|v| v.as_float()).unwrap();
        let g = got.export("dec_sum").and_then(|v| v.as_float()).unwrap();
        assert!(
            (e - g).abs() <= 1e-9 * e.abs().max(1.0),
            "dec_sum diverged: {e} vs {g}"
        );
        if item.is_seed && got.subsumed > 0 {
            seeds_subsumed += 1;
        }
    }
    assert!(
        seeds_subsumed >= 4,
        "most seeds must be answered by combined subsumption ({seeds_subsumed}/6)"
    );
}
