//! Inertness contract for the builder methods whose layers are gone:
//! `recycle_operator_state` (operator-state recycling), and
//! `background_collector`, `compression` and `spill_dir` (the background
//! collector and the residency tiers — eviction runs inline only); and for
//! the two configuration methods, `RecyclerConfig::session_credits` (the
//! per-session credit slices) and `RecyclerConfig::update_mode` (delta
//! propagation — a commit only invalidates). They survive as no-ops for
//! callers that still name them. Whatever they are set to, a join / group /
//! sort / topN script — repeats, shifted ranges, one shared build side, an
//! insert-only commit half-way — must prepare the same plan, answer the
//! same and count the same as a build that never names them, write
//! nothing under the spill directory, and the builder methods must build
//! without a cap: wired to any admission, eviction, subsumption, update or
//! limit setting, to a pass that moves the plan, or to a file, they would
//! not.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycling::{Database, DatabaseBuilder, RecyclerConfig, RecyclerStats, Update, UpdateMode};
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
const BUDGET: usize = 100_000;

fn builder() -> DatabaseBuilder {
    DatabaseBuilder::new(catalog()).memory_budget(BUDGET)
}

type Shim = Box<dyn Fn(DatabaseBuilder) -> DatabaseBuilder>;

/// Every way of naming the inert methods, each beside its label: one at a
/// time, either way where they take a flag, and the three layers the way
/// the benchmark's `--knobs collector,compression,spill` names them.
fn shims(dir: &Path) -> Vec<(&'static str, Shim)> {
    let spill = dir.to_path_buf();
    let all = dir.to_path_buf();
    vec![
        (
            "recycle_operator_state(false)",
            Box::new(|b: DatabaseBuilder| b.recycle_operator_state(false)),
        ),
        (
            "recycle_operator_state(true)",
            Box::new(|b: DatabaseBuilder| b.recycle_operator_state(true)),
        ),
        (
            "background_collector(0.5, 0.8)",
            Box::new(|b: DatabaseBuilder| b.background_collector(0.5, 0.8)),
        ),
        (
            "compression(true)",
            Box::new(|b: DatabaseBuilder| b.compression(true)),
        ),
        (
            "spill_dir(dir, 8 << 20)",
            Box::new(move |b: DatabaseBuilder| b.spill_dir(&spill, 8 << 20)),
        ),
        (
            "background_collector + compression + spill_dir",
            Box::new(move |b: DatabaseBuilder| {
                b.background_collector(0.5, 0.8)
                    .compression(true)
                    .spill_dir(&all, 8 << 20)
            }),
        ),
    ]
}

/// Every way of naming the inert configuration methods, the way the
/// benchmark's `--knobs credits,propagate` does: on a default
/// configuration handed to the capped builder, which then holds exactly
/// the configuration [`builder`] gives — plus the shim.
fn config_shims() -> Vec<(&'static str, Shim)> {
    let capped = |config: RecyclerConfig| {
        Box::new(move |b: DatabaseBuilder| b.recycler(config).memory_budget(BUDGET)) as Shim
    };
    let default = RecyclerConfig::default;
    vec![
        (
            "session_credits(4096)",
            capped(default().session_credits(4096)),
        ),
        (
            "update_mode(Propagate)",
            capped(default().update_mode(UpdateMode::Propagate)),
        ),
        (
            "session_credits(4096) + update_mode(Propagate)",
            capped(
                default()
                    .session_credits(4096)
                    .update_mode(UpdateMode::Propagate),
            ),
        ),
    ]
}

/// Both lists: what the three capped tests name.
fn all_shims(dir: &Path) -> Vec<(&'static str, Shim)> {
    let mut all = shims(dir);
    all.extend(config_shims());
    all
}

/// A spill directory of this test's own, empty; removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("inert-shims-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }

    fn assert_empty(&self) {
        let left: Vec<_> = std::fs::read_dir(&self.0)
            .expect("scratch dir still there")
            .collect();
        assert!(
            left.is_empty(),
            "a shim wrote under the spill dir: {left:?}"
        );
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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
    // two (singleton and combined subsumption), fresh ones; an insert-only
    // commit to `t` half-way, where delta propagation would have acted
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
        .enumerate()
        .map(|(i, (lo, hi))| {
            if i == ranges.len() / 2 {
                let row = vec![vec![Value::Int(7), Value::Int(11)]];
                s.commit(Update::to("t").insert(row)).expect("commit");
            }
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
fn shims_leave_prepared_plans_bitwise_identical() {
    // One build never mentions the shims; the others name them. Prepared
    // listings must match byte for byte.
    let dir = ScratchDir::new("plans");
    let silent = builder().build().prepare(template());
    for (label, shim) in all_shims(&dir.0) {
        let named = shim(builder()).build().prepare(template());
        assert_eq!(silent.listing(), named.listing(), "{label} moved the plan");
    }
    dir.assert_empty();
}

#[test]
fn shims_leave_answers_unchanged() {
    // With no reuse history the plan must not move, and the script must
    // answer exactly as without them.
    let dir = ScratchDir::new("answers");
    let silent = run(builder().build());
    for (label, shim) in all_shims(&dir.0) {
        let named = run(shim(builder()).build());
        assert_eq!(named.listing, silent.listing, "{label} moved the plan");
        assert_eq!(named.exports, silent.exports, "{label} changed an answer");
    }
    dir.assert_empty();
}

#[test]
fn shims_leave_recycler_counts_unchanged() {
    // The pool holds instruction results and nothing else, evicts inline
    // and invalidates on commit: set any way, the shims leave every
    // counter where a build that never names them puts them, and plain
    // result recycling still does all its work.
    let dir = ScratchDir::new("counts");
    let silent = run(builder().build());
    let s = &silent.stats;
    assert!(s.hits > 0, "plain result recycling still works");
    assert!(s.subsumed > 0 && s.admission_rejects > 0 && s.evictions > 0);
    assert_eq!(s.inline_evictions, s.evictions, "every eviction is inline");
    assert!(s.invalidated > 0, "the commit invalidates");
    assert_eq!(s.propagated, 0, "and propagates nothing");
    for (label, shim) in all_shims(&dir.0) {
        let named = run(shim(builder()).build());
        assert_eq!(
            named.stats, silent.stats,
            "{label} changed the recycler's counts"
        );
    }
    dir.assert_empty();
}

#[test]
fn shims_build_without_a_cap() {
    // Named on a pool with no cap to evict toward, the shims must build,
    // and the script must answer and count as it does uncapped without
    // them.
    let dir = ScratchDir::new("uncapped");
    let uncapped = || DatabaseBuilder::new(catalog());
    let silent = run(uncapped().build());
    for (label, shim) in shims(&dir.0) {
        let db = shim(uncapped())
            .try_build()
            .unwrap_or_else(|e| panic!("{label} refused an uncapped build: {e}"));
        let named = run(db);
        assert_eq!(named.exports, silent.exports, "{label} changed an answer");
        assert_eq!(
            named.stats, silent.stats,
            "{label} changed the recycler's counts"
        );
    }
    dir.assert_empty();
}
