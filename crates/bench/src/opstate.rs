//! The `operator_reuse` scenario: operator-state recycling on vs off.
//!
//! The workload is shaped so plain result recycling cannot help — every
//! query's *answer* is new — while the expensive operator state behind
//! the answers repeats: a join whose probe window shifts every
//! invocation over a fixed build side, and a family of top-N templates
//! with different cut-offs over one bound column (they share a single
//! sorted run but never a result). With `recycle_operator_state(true)`
//! the recycler serves the hash table and the sorted run from the pool;
//! with it off, every query rebuilds them. The gap between the two runs
//! is the build time the artifact pool buys back.

use std::time::Duration;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use rmal::{Program, ProgramBuilder, P};

use crate::driver::{run_recycled, BenchItem};

/// One side (knob on or off) of the comparison.
#[derive(Debug)]
pub struct OpStateRun {
    /// Whether operator-state recycling was enabled.
    pub operator_state: bool,
    /// Total wall time over the batch.
    pub elapsed: Duration,
    /// Exact-match result hits (sanity: the workload starves these).
    pub result_hits: u64,
    /// Artifact reuses served from the pool.
    pub artifact_hits: u64,
    /// Artifacts admitted into the pool.
    pub artifact_admissions: u64,
    /// Bytes held by resident artifacts at the end of the run.
    pub artifact_bytes: u64,
    /// Build time avoided through artifact reuse.
    pub artifact_saved: Duration,
    /// Per-query exports, for the cross-run identity check.
    pub exports: Vec<Vec<(String, Value)>>,
}

/// Outcome of [`operator_reuse`].
#[derive(Debug)]
pub struct OperatorReuseOutcome {
    /// Rows in the build-side table.
    pub rows: usize,
    /// Queries per side.
    pub queries: usize,
    /// The `recycle_operator_state(false)` side.
    pub without_state: OpStateRun,
    /// The `recycle_operator_state(true)` side.
    pub with_state: OpStateRun,
}

impl OperatorReuseOutcome {
    /// Fraction of artifact probes that hit: hits over hits+admissions
    /// (every miss that admits is a probe that found nothing).
    pub fn artifact_hit_ratio(&self) -> f64 {
        let h = self.with_state.artifact_hits;
        let total = h + self.with_state.artifact_admissions;
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// The acceptance gate: operator-state recycling reused artifacts
    /// AND finished the batch faster than the same recycler without it.
    pub fn reuse_wins(&self) -> bool {
        self.with_state.artifact_hits > 0 && self.with_state.elapsed < self.without_state.elapsed
    }
}

fn catalog(rows: usize) -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("fact")
        .column("k", LogicalType::Int)
        .column("v", LogicalType::Int);
    for i in 0..rows as i64 {
        // k spreads over the probe-window domain; v is the payload the
        // top-N templates rank (pseudorandom so sorting does real work)
        tb.push_row(&[
            Value::Int((i * 37) % rows as i64),
            Value::Int((i * 2654435761) % 1_000_003),
        ]);
    }
    cat.add_table(tb.finish());
    cat
}

/// Probe window shifts per invocation (params), build side (`fact.v`)
/// repeats — the hash table is the recyclable half.
fn join_template() -> Program {
    let mut b = ProgramBuilder::new("op_join", 2);
    let k = b.bind("fact", "k");
    let v = b.bind("fact", "v");
    let sel = b.select_closed(k, P(0), P(1));
    let j = b.join(sel, v);
    let n = b.count(j);
    b.export("n", n);
    b.finish()
}

/// Top-N over `fact.v` with a per-template cut-off: the results differ
/// (no exact-match hit possible) but every template's `TopN` shares one
/// sorted run keyed on the bound column and direction.
fn topn_template(n: i64) -> Program {
    let mut b = ProgramBuilder::new(&format!("op_top{n}"), 0);
    let v = b.bind("fact", "v");
    let t = b.topn(v, n, false);
    let c = b.count(t);
    b.export("n", c);
    b.finish()
}

fn side(
    cat: Catalog,
    templates: &[Program],
    items: &[BenchItem],
    operator_state: bool,
) -> OpStateRun {
    let config = crate::driver::keepall().recycle_operator_state(operator_state);
    let (outcome, db) = run_recycled(cat, templates, items, config, false);
    let stats = db.stats();
    OpStateRun {
        operator_state,
        elapsed: outcome.total,
        result_hits: stats.hits,
        artifact_hits: stats.artifact_hits,
        artifact_admissions: stats.artifact_admissions,
        artifact_bytes: stats.artifact_bytes,
        artifact_saved: stats.artifact_saved,
        exports: outcome.runs.into_iter().map(|r| r.exports).collect(),
    }
}

/// Run the scenario: `queries` invocations alternating shifting-window
/// joins with the top-N family, once per knob setting, over the same
/// catalog and item list.
pub fn operator_reuse(rows: usize, queries: usize) -> OperatorReuseOutcome {
    let cat = catalog(rows);
    let templates = vec![
        join_template(),
        topn_template(10),
        topn_template(25),
        topn_template(50),
    ];
    let mut items = Vec::with_capacity(queries);
    for i in 0..queries as i64 {
        if i % 3 == 2 {
            // rotate the top-N family: distinct results, one shared run
            items.push(BenchItem {
                query_idx: 1 + ((i / 3) % 3) as usize,
                label: 2,
                params: vec![],
            });
        } else {
            // shifting probe window: every answer is new, the build side
            // is not
            let lo = (i * 131) % (rows as i64 / 2);
            items.push(BenchItem {
                query_idx: 0,
                label: 1,
                params: vec![Value::Int(lo), Value::Int(lo + 40)],
            });
        }
    }
    let without_state = side(cat.clone(), &templates, &items, false);
    let with_state = side(cat, &templates, &items, true);
    assert_eq!(
        without_state.exports, with_state.exports,
        "operator-state recycling changed an answer"
    );
    OperatorReuseOutcome {
        rows,
        queries,
        without_state,
        with_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_reuse_pays() {
        let out = operator_reuse(6_000, 24);
        assert!(
            out.with_state.artifact_hits > 0,
            "no artifact reuse: {out:?}"
        );
        assert!(
            out.with_state.artifact_admissions > 0,
            "no artifact admitted: {out:?}"
        );
        assert!(out.artifact_hit_ratio() > 0.0);
        assert!(
            out.with_state.artifact_saved > Duration::ZERO,
            "reuse saved no build time: {out:?}"
        );
        // answers identical on both sides is asserted inside the runner
    }
}
