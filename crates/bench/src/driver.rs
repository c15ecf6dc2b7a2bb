//! Batch driver: run query sequences through the `recycling` facade
//! (naive or recycler-backed databases) and collect per-query
//! observations.

use std::time::{Duration, Instant};

use rbat::{Catalog, Value};
use recycler::{AdmissionPolicy, RecyclerConfig};
use recycling::{Database, DatabaseBuilder, Session};
use rmal::Program;

/// One query invocation to drive: template index + parameters.
#[derive(Debug, Clone)]
pub struct BenchItem {
    /// Index into the template list.
    pub query_idx: usize,
    /// Reporting label (e.g. TPC-H query number).
    pub label: u8,
    /// Parameters.
    pub params: Vec<Value>,
}

/// Observations for one executed query.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Reporting label.
    pub label: u8,
    /// Wall time of the invocation.
    pub elapsed: Duration,
    /// Marked instructions (0 for naive runs).
    pub monitored: u64,
    /// Exact-match pool hits.
    pub hits: u64,
    /// Local hits (intra-invocation).
    pub local_hits: u64,
    /// Global hits.
    pub global_hits: u64,
    /// Subsumed executions.
    pub subsumed: u64,
    /// Estimated time saved by reuse.
    pub saved: Duration,
    /// Pool bytes after the query.
    pub pool_bytes: usize,
    /// Pool entries after the query.
    pub pool_entries: usize,
    /// Pool bytes in reused entries after the query.
    pub reused_bytes: usize,
    /// Pool entries reused at least once after the query.
    pub reused_entries: usize,
    /// Exported results (for cross-engine equality checks).
    pub exports: Vec<(String, Value)>,
}

/// Outcome of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query observations in execution order.
    pub runs: Vec<QueryRun>,
    /// Total wall time over all queries.
    pub total: Duration,
}

impl BatchOutcome {
    /// Sum of hits over the batch.
    pub fn hits(&self) -> u64 {
        self.runs.iter().map(|r| r.hits).sum()
    }

    /// Sum of potential hits (monitored instructions).
    pub fn monitored(&self) -> u64 {
        self.runs.iter().map(|r| r.monitored).sum()
    }

    /// Cumulative hit-ratio series against potential hits — the y-axis of
    /// the paper's Figures 10 and 11.
    pub fn cumulative_hit_ratio(&self) -> Vec<f64> {
        let mut hits = 0u64;
        let mut pot = 0u64;
        self.runs
            .iter()
            .map(|r| {
                hits += r.hits;
                pot += r.monitored;
                if pot == 0 {
                    0.0
                } else {
                    hits as f64 / pot as f64
                }
            })
            .collect()
    }
}

/// The paper's baseline configuration: KEEPALL admission, every other
/// setting at its default. The paper's experiments run on it; the
/// product's default admission is reuse-paced.
pub fn keepall() -> RecyclerConfig {
    RecyclerConfig::default().admission(AdmissionPolicy::KeepAll)
}

/// Build a naive (recycling-off) database over `catalog` with the
/// templates prepared — the baseline side of every comparison.
pub fn naive_database(catalog: Catalog, templates: &[Program]) -> (Database, Vec<Program>) {
    let db = DatabaseBuilder::new(catalog).naive().build();
    let prepared = templates.iter().map(|t| db.prepare(t.clone())).collect();
    (db, prepared)
}

/// Build a recycler-backed database over `catalog` with the templates
/// prepared (marking pass included).
pub fn recycled_database(
    catalog: Catalog,
    templates: &[Program],
    config: RecyclerConfig,
) -> (Database, Vec<Program>) {
    let db = DatabaseBuilder::new(catalog).recycler(config).build();
    let prepared = templates.iter().map(|t| db.prepare(t.clone())).collect();
    (db, prepared)
}

/// Run a batch on a naive database (no recycling).
pub fn run_naive(catalog: Catalog, templates: &[Program], items: &[BenchItem]) -> BatchOutcome {
    let (db, templates) = naive_database(catalog, templates);
    let mut session = db.session();
    run_items(&db, &mut session, &templates, items)
}

/// Run a batch on a recycler database; `warmup` executes one instance per
/// template first and then empties the pool (the paper's preparation step
/// that factors out IO and fills the query cache). Returns the database
/// for post-hoc inspection (`stats`, `pool`, `snapshot`).
pub fn run_recycled(
    catalog: Catalog,
    templates: &[Program],
    items: &[BenchItem],
    config: RecyclerConfig,
    warmup: bool,
) -> (BatchOutcome, Database) {
    let (db, templates) = recycled_database(catalog, templates, config);
    let mut session = db.session();
    if warmup {
        for (idx, t) in templates.iter().enumerate() {
            if let Some(item) = items.iter().find(|i| i.query_idx == idx) {
                let _ = session.query(t, &item.params);
            }
        }
        db.maintenance().clear_pool();
    }
    (run_items(&db, &mut session, &templates, items), db)
}

fn run_items(
    db: &Database,
    session: &mut Session,
    templates: &[Program],
    items: &[BenchItem],
) -> BatchOutcome {
    let mut runs = Vec::with_capacity(items.len());
    let started = Instant::now();
    for item in items {
        let t = &templates[item.query_idx];
        let reply = session
            .query(t, &item.params)
            .unwrap_or_else(|e| panic!("query {} failed: {e}", t.name));
        let snap = db.snapshot();
        // the local / global split and the time saved come from the
        // session's record of this query; naive runs keep zeros
        let record = session.last_query().cloned().unwrap_or_default();
        runs.push(QueryRun {
            label: item.label,
            elapsed: reply.elapsed,
            monitored: reply.marked,
            hits: reply.reused,
            local_hits: record.local_hits,
            global_hits: record.global_hits,
            subsumed: reply.subsumed,
            saved: record.saved,
            pool_bytes: snap.bytes,
            pool_entries: snap.entries,
            reused_bytes: snap.reused_bytes,
            reused_entries: snap.reused_entries,
            exports: reply.exports,
        });
    }
    BatchOutcome {
        runs,
        total: started.elapsed(),
    }
}

/// Convenience wrapper dispatching on an optional recycler config.
pub fn run_batch(
    catalog: Catalog,
    templates: &[Program],
    items: &[BenchItem],
    config: Option<RecyclerConfig>,
    warmup: bool,
) -> BatchOutcome {
    match config {
        None => {
            let _ = warmup;
            run_naive(catalog, templates, items)
        }
        Some(c) => run_recycled(catalog, templates, items, c, warmup).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_batch() -> (Catalog, Vec<Program>, Vec<BenchItem>) {
        let cat = tpch::generate(tpch::TpchScale::new(0.001));
        let q = tpch::query(6);
        let mut rng = SmallRng::seed_from_u64(11);
        let params = (q.params)(&mut rng);
        let items = vec![
            BenchItem {
                query_idx: 0,
                label: 6,
                params: params.clone(),
            },
            BenchItem {
                query_idx: 0,
                label: 6,
                params,
            },
        ];
        (cat, vec![q.template], items)
    }

    #[test]
    fn naive_and_recycled_agree() {
        let (cat, templates, items) = tiny_batch();
        let naive = run_naive(cat.clone(), &templates, &items);
        let (rec, db) = run_recycled(cat, &templates, &items, RecyclerConfig::default(), false);
        assert_eq!(naive.runs[0].exports, rec.runs[0].exports);
        assert_eq!(naive.runs[1].exports, rec.runs[1].exports);
        assert!(rec.runs[1].hits > 0, "second identical instance must hit");
        assert!(db.stats().hits > 0);
    }

    #[test]
    fn warmup_clears_pool_but_keeps_working() {
        let (cat, templates, items) = tiny_batch();
        let (rec, _) = run_recycled(cat, &templates, &items, RecyclerConfig::default(), true);
        // identical params as warmup instance → but pool was cleared, so
        // the first batch query recomputes
        assert_eq!(rec.runs[0].hits, 0);
        assert!(rec.runs[1].hits > 0);
    }

    #[test]
    fn cumulative_ratio_monotone_parts() {
        let (cat, templates, items) = tiny_batch();
        let (rec, _) = run_recycled(cat, &templates, &items, RecyclerConfig::default(), false);
        let series = rec.cumulative_hit_ratio();
        assert_eq!(series.len(), 2);
        assert!(series[1] > series[0]);
    }
}
