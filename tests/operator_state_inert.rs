//! Inertness contract for the operator-state knob. Operator-state
//! recycling is gone; `DatabaseBuilder::recycle_operator_state` survives
//! only as a no-op for callers that still name it. Whatever it is set to,
//! a join / group / sort / topN script — repeats, shifted ranges, one
//! shared build side — must prepare the same plan, answer the same and
//! count the same as a build that never names it: wired to any admission,
//! eviction, subsumption or limit setting, or to a pass that moves the
//! plan, it would not.

use std::time::Duration;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycling::{Database, DatabaseBuilder, RecyclerStats};
use rmal::{Program, ProgramBuilder, P};

fn catalog() -> Catalog {
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..2_000i64 {
        tb.push_row(&[Value::Int(i % 97), Value::Int((i * 31) % 1_009)]);
    }
    let mut cat = Catalog::new();
    cat.add_table(tb.finish());
    cat
}

/// A pool small enough that eviction runs too.
fn builder() -> DatabaseBuilder {
    DatabaseBuilder::new(catalog()).memory_budget(100_000)
}

/// The join / group / sort spine the operator-state hook used to assist.
fn template() -> Program {
    let mut b = ProgramBuilder::new("spine", 2);
    let x = b.bind("t", "x");
    let y = b.bind("t", "y");
    let sel = b.select_closed(x, P(0), P(1));
    let j = b.join(sel, y);
    let g = b.group(j);
    let sorted = b.sort(g, true);
    let top = b.topn(y, 25, false);
    let n = b.count(sorted);
    b.export("n", n);
    b.export("top", top);
    b.finish()
}

/// `stats` without its wall-clock fields: what two runs of one script
/// must agree on.
fn counts(stats: RecyclerStats) -> RecyclerStats {
    RecyclerStats {
        time_saved: Duration::ZERO,
        overhead: Duration::ZERO,
        subsume_search: Duration::ZERO,
        ..stats
    }
}

/// An export by its tuples: two builds mint different BAT identities.
fn tuples((name, v): (String, Value)) -> (String, String) {
    match v.as_bat() {
        Some(b) => {
            let column = |c: &rbat::Column| c.iter_values().collect::<Vec<_>>();
            (
                name,
                format!("{:?} {:?}", column(b.head()), column(b.tail())),
            )
        }
        None => (name, format!("{v:?}")),
    }
}

struct Run {
    /// The plan as prepared on an empty pool.
    listing: String,
    exports: Vec<Vec<(String, String)>>,
    stats: RecyclerStats,
}

fn run(db: Database) -> Run {
    let t = db.prepare(template());
    let mut s = db.session();
    // repeats (exact hits), ranges inside one resident range and across
    // two (singleton and combined subsumption), fresh ones
    let ranges = [
        (0, 30),
        (0, 30),
        (10, 40),
        (10, 40),
        (5, 25),
        (5, 35),
        (40, 70),
        (0, 60),
        (20, 50),
        (0, 30),
    ];
    let exports = ranges
        .into_iter()
        .map(|(lo, hi)| {
            let params = [Value::Int(lo), Value::Int(hi)];
            let out = s.query(&t, &params).expect("spine query");
            out.exports.into_iter().map(tuples).collect()
        })
        .collect();
    db.pool().check_invariants().expect("pool coherent");
    Run {
        listing: t.listing(),
        exports,
        stats: counts(db.stats()),
    }
}

#[test]
fn knob_off_plans_are_bitwise_identical() {
    // One build never mentions the knob; the other turns it off
    // explicitly. Prepared listings must match byte for byte.
    let silent = builder().build().prepare(template());
    let explicit = builder()
        .recycle_operator_state(false)
        .build()
        .prepare(template());
    assert_eq!(
        silent.listing(),
        explicit.listing(),
        "knob-off plans must be identical"
    );
}

#[test]
fn knob_on_with_empty_pool_is_still_inert() {
    // With the knob on and no reuse history the plan must not move, and
    // the script must answer exactly as without it.
    let off = run(builder().build());
    let on = run(builder().recycle_operator_state(true).build());
    assert_eq!(
        on.listing, off.listing,
        "the knob changed the prepared plan"
    );
    assert_eq!(on.exports, off.exports, "the knob changed an answer");
}

#[test]
fn knob_off_never_touches_artifacts() {
    // The pool holds instruction results and nothing else: set either way,
    // the knob leaves every counter where a build that never names it
    // puts them, and plain result recycling still does all its work.
    let silent = run(builder().build());
    let s = &silent.stats;
    assert!(s.hits > 0, "plain result recycling still works");
    assert!(s.subsumed > 0 && s.admission_rejects > 0 && s.evictions > 0);
    for on in [false, true] {
        let knob = run(builder().recycle_operator_state(on).build());
        assert_eq!(
            knob.stats, silent.stats,
            "recycle_operator_state({on}) changed the recycler's counts"
        );
    }
}
