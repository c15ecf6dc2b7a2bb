//! Machine-readable benchmark report: `BENCH_recycler.json`.
//!
//! `repro bench` (and `repro all`) runs a small canonical workload set —
//! naive engine vs recycler, sequential vs concurrent sessions — and
//! emits one JSON document so successive PRs accumulate a perf
//! trajectory that scripts can diff. The JSON is hand-rolled: the
//! container builds offline, so no serde.

use std::fmt;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use recycler::RecyclerConfig;
use rmal::Program;

use crate::concurrent::{
    partition_streams, pool_scaling, run_concurrent, server_mixed, update_mixed, ScalePoint,
};
use crate::driver::{run_naive, run_recycled, BenchItem};
use crate::experiments::ExpEnv;

/// A minimal JSON value (strings, numbers, bools, arrays, objects).
#[derive(Debug, Clone)]
pub enum Json {
    /// Float (serialised with enough precision for millisecond timings).
    Num(f64),
    /// Unsigned integer.
    Int(u64),
    /// String (escaped on render).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array.
    Arr(Vec<Json>),
    /// Object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Int(i) => write!(f, "{i}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape(s, &mut buf);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut kb = String::new();
                    escape(k, &mut kb);
                    write!(f, "\"{kb}\":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn ms(d: Duration) -> Json {
    Json::Num((d.as_secs_f64() * 1e3 * 1000.0).round() / 1000.0)
}

/// One naive-vs-recycler comparison over a template/item batch.
fn compare(
    name: &str,
    catalog: rbat::Catalog,
    templates: &[Program],
    items: &[BenchItem],
    config: RecyclerConfig,
) -> Json {
    let naive = run_naive(catalog.clone(), templates, items);
    let (rec, db) = run_recycled(catalog, templates, items, config, false);
    let stats = db.stats();
    let (pool_entries, pool_bytes) = {
        let pool = db.pool();
        (pool.len() as u64, pool.bytes() as u64)
    };
    let speedup = if rec.total.as_secs_f64() > 0.0 {
        naive.total.as_secs_f64() / rec.total.as_secs_f64()
    } else {
        0.0
    };
    Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("queries", Json::Int(items.len() as u64)),
        ("naive_ms", ms(naive.total)),
        ("recycled_ms", ms(rec.total)),
        ("speedup", Json::Num((speedup * 1000.0).round() / 1000.0)),
        ("monitored", Json::Int(rec.monitored())),
        ("hits", Json::Int(rec.hits())),
        ("subsumed", Json::Int(stats.subsumed)),
        ("admissions", Json::Int(stats.admissions)),
        ("evictions", Json::Int(stats.evictions)),
        ("evict_gather_rounds", Json::Int(stats.evict_gather_rounds)),
        (
            "evict_gather_visited",
            Json::Int(stats.evict_gather_visited),
        ),
        ("leaf_index_size", Json::Int(stats.leaf_index_size)),
        ("pool_entries", Json::Int(pool_entries)),
        ("pool_bytes", Json::Int(pool_bytes)),
        ("time_saved_ms", ms(stats.time_saved)),
        ("overhead_ms", ms(stats.overhead)),
    ])
}

/// The `eviction_pressure` scenario: eviction gather cost at a fixed leaf
/// population across growing pool sizes — visited-per-round must stay
/// flat (O(leaves), not O(pool)) now that eviction gathers from the
/// incremental leaf index.
fn eviction_pressure_experiment() -> Json {
    let out = crate::pressure::eviction_pressure(64, &[1, 4, 16, 64], 32);
    Json::obj(vec![
        ("name", Json::Str("eviction_pressure".to_string())),
        ("chains", Json::Int(out.chains as u64)),
        ("evict_per_point", Json::Int(out.evict_per_point as u64)),
        (
            "gather_size_independent",
            Json::Bool(out.gather_is_size_independent(1.0)),
        ),
        (
            "points",
            Json::Arr(
                out.points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("depth", Json::Int(p.depth as u64)),
                            ("pool_entries", Json::Int(p.pool_entries as u64)),
                            ("leaves", Json::Int(p.leaves as u64)),
                            ("evicted", Json::Int(p.evicted as u64)),
                            ("gather_rounds", Json::Int(p.gather_rounds)),
                            ("gather_visited", Json::Int(p.gather_visited)),
                            (
                                "visited_per_round",
                                Json::Num((p.visited_per_round * 100.0).round() / 100.0),
                            ),
                            ("elapsed_ms", ms(p.elapsed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serialize one side of the `background_eviction` comparison.
fn background_run_json(r: &crate::pressure::BackgroundRun) -> Json {
    Json::obj(vec![
        ("collector", Json::Bool(r.collector)),
        ("queries", Json::Int(r.queries as u64)),
        ("p50_ms", ms(r.p50)),
        ("p99_ms", ms(r.p99)),
        (
            "steady_inline_evictions",
            Json::Int(r.steady_inline_evictions),
        ),
        ("inline_evictions", Json::Int(r.inline_evictions)),
        ("background_evictions", Json::Int(r.background_evictions)),
        ("minor_rounds", Json::Int(r.minor_rounds)),
        ("major_rounds", Json::Int(r.major_rounds)),
        (
            "avg_minor_ms",
            Json::Num((r.avg_minor_ms * 1000.0).round() / 1000.0),
        ),
        (
            "avg_major_ms",
            Json::Num((r.avg_major_ms * 1000.0).round() / 1000.0),
        ),
        ("headroom_bytes", Json::Int(r.headroom_bytes)),
    ])
}

/// The `background_eviction` scenario: steady-phase admission latency at
/// the lowmem 1 MiB cap with the background collector off vs on. The
/// steady phase with the collector must be free of inline evictions —
/// that is the whole point of the collector — and the JSON records the
/// p50/p99 tail on both sides so the trajectory shows what that buys.
fn background_eviction_experiment(env: &ExpEnv) -> Json {
    let out = crate::pressure::background_eviction(env.sf, 60, 15, 1 << 20);
    Json::obj(vec![
        ("name", Json::Str("background_eviction".to_string())),
        ("cap_bytes", Json::Int(out.cap_bytes as u64)),
        ("warmup", Json::Int(out.warmup as u64)),
        (
            "without_collector",
            background_run_json(&out.without_collector),
        ),
        ("with_collector", background_run_json(&out.with_collector)),
    ])
}

/// Serialize one side of the `tiered_lowmem` comparison.
fn tiered_run_json(r: &crate::tiered::TieredRun) -> Json {
    Json::obj(vec![
        ("tiered", Json::Bool(r.tiered)),
        ("queries", Json::Int(r.queries as u64)),
        ("elapsed_ms", ms(r.elapsed)),
        ("hits", Json::Int(r.hits)),
        ("monitored", Json::Int(r.monitored)),
        (
            "hit_ratio",
            Json::Num((r.hit_ratio * 1000.0).round() / 1000.0),
        ),
        ("evictions", Json::Int(r.evictions)),
        ("inline_evictions", Json::Int(r.inline_evictions)),
        ("demotions_compressed", Json::Int(r.demotions_compressed)),
        ("demotions_spilled", Json::Int(r.demotions_spilled)),
        ("tier_promotions", Json::Int(r.tier_promotions)),
        ("raw_bytes", Json::Int(r.raw_bytes)),
        ("compressed_bytes", Json::Int(r.compressed_bytes)),
        ("spilled_bytes", Json::Int(r.spilled_bytes)),
        ("decompress_ms", ms(r.decompress_cost)),
        ("rehydrate_ms", ms(r.rehydrate_cost)),
    ])
}

/// The `tiered_lowmem` scenario: hit retention at the same 1 MiB cap with
/// the residency ladder off vs on. The tiered side must hold a hit ratio
/// at least as high as the raw side — that is the acceptance gate the
/// trajectory keeps re-proving — and the per-tier counters show *how*:
/// cold entries demote (compress, then spill off-cap) instead of dying.
fn tiered_lowmem_experiment(env: &ExpEnv) -> Json {
    let out = crate::tiered::tiered_lowmem(env.sf, 16, 3, 1 << 20);
    Json::obj(vec![
        ("name", Json::Str("tiered_lowmem".to_string())),
        ("cap_bytes", Json::Int(out.cap_bytes as u64)),
        ("distinct", Json::Int(out.distinct as u64)),
        ("cycles", Json::Int(out.cycles as u64)),
        (
            "tiering_retains_hits",
            Json::Bool(out.tiering_retains_hits()),
        ),
        ("without_tiering", tiered_run_json(&out.without_tiering)),
        ("with_tiering", tiered_run_json(&out.with_tiering)),
    ])
}

/// Serialize one side of the `operator_reuse` comparison.
fn opstate_run_json(r: &crate::opstate::OpStateRun) -> Json {
    Json::obj(vec![
        ("operator_state", Json::Bool(r.operator_state)),
        ("elapsed_ms", ms(r.elapsed)),
        ("result_hits", Json::Int(r.result_hits)),
        ("artifact_hits", Json::Int(r.artifact_hits)),
        ("artifact_admissions", Json::Int(r.artifact_admissions)),
        ("artifact_bytes", Json::Int(r.artifact_bytes)),
        ("artifact_saved_ms", ms(r.artifact_saved)),
    ])
}

/// The `operator_reuse` scenario: a workload whose *answers* never repeat
/// but whose operator state (one join hash table, one sorted run shared
/// by a top-N family) always does, run with `recycle_operator_state` off
/// vs on. The gate `operator_reuse_wins` requires the on-side to both
/// reuse artifacts and finish faster — artifact recycling must pay for
/// itself where result recycling is starved.
fn operator_reuse_experiment() -> Json {
    let out = crate::opstate::operator_reuse(20_000, 36);
    Json::obj(vec![
        ("name", Json::Str("operator_reuse".to_string())),
        ("rows", Json::Int(out.rows as u64)),
        ("queries", Json::Int(out.queries as u64)),
        (
            "artifact_hit_ratio",
            Json::Num((out.artifact_hit_ratio() * 1000.0).round() / 1000.0),
        ),
        ("operator_reuse_wins", Json::Bool(out.reuse_wins())),
        ("without_state", opstate_run_json(&out.without_state)),
        ("with_state", opstate_run_json(&out.with_state)),
    ])
}

/// The concurrent-sessions experiment: the same SkyServer log replayed by
/// one session and by `n` sessions over one shared pool.
fn concurrent_experiment(env: &ExpEnv, n: usize) -> Json {
    let cat = skyserver::generate(skyserver::SkyScale::new(env.sky_objects.min(20_000)));
    let (templates, log) = skyserver::sample_log(96, env.seed);
    let items: Vec<BenchItem> = log
        .into_iter()
        .map(|l| BenchItem {
            query_idx: l.query_idx,
            label: l.query_idx as u8,
            params: l.params,
        })
        .collect();

    let sequential = run_concurrent(
        cat.clone(),
        &templates,
        &partition_streams(&items, 1),
        RecyclerConfig::default(),
    );
    let concurrent = run_concurrent(
        cat,
        &templates,
        &partition_streams(&items, n),
        RecyclerConfig::default(),
    );
    Json::obj(vec![
        ("name", Json::Str(format!("skyserver_concurrent_{n}x"))),
        ("queries", Json::Int(items.len() as u64)),
        ("sessions", Json::Int(n as u64)),
        ("sequential_ms", ms(sequential.elapsed)),
        ("concurrent_ms", ms(concurrent.elapsed)),
        ("hits", Json::Int(concurrent.stats.hits)),
        (
            "cross_session_hits",
            Json::Int(concurrent.stats.cross_session_hits),
        ),
        (
            "duplicate_admissions",
            Json::Int(concurrent.stats.duplicate_admissions),
        ),
        ("evictions", Json::Int(concurrent.stats.evictions)),
        ("pool_entries", Json::Int(concurrent.pool_entries as u64)),
        ("pool_bytes", Json::Int(concurrent.pool_bytes as u64)),
        (
            "hit_ratio",
            Json::Num((concurrent.hit_ratio() * 1000.0).round() / 1000.0),
        ),
    ])
}

/// Serialize one [`ScalePoint`].
fn scale_point_json(p: &ScalePoint) -> Json {
    Json::obj(vec![
        ("sessions", Json::Int(p.sessions as u64)),
        ("queries", Json::Int(p.queries as u64)),
        ("elapsed_ms", ms(p.elapsed)),
        (
            "queries_per_sec",
            Json::Num((p.queries_per_sec * 10.0).round() / 10.0),
        ),
        (
            "ops_per_sec",
            Json::Num((p.ops_per_sec * 10.0).round() / 10.0),
        ),
        (
            "hit_ratio",
            Json::Num((p.hit_ratio * 1000.0).round() / 1000.0),
        ),
        ("cross_session_hits", Json::Int(p.cross_session_hits)),
        ("duplicate_admissions", Json::Int(p.duplicate_admissions)),
    ])
}

/// The `pool_scaling` experiment: per-session-count probe+admission
/// throughput and hit ratio on the sharded pool, plus the pre-shard
/// single-lock baseline at 8 sessions for the contention comparison.
fn pool_scaling_experiment() -> Json {
    const QUERIES_PER_SESSION: usize = 192;
    let sharded = pool_scaling(
        &[1, 2, 4, 8, 16],
        QUERIES_PER_SESSION,
        RecyclerConfig::default(),
    );
    let single_lock = pool_scaling(
        &[8],
        QUERIES_PER_SESSION,
        RecyclerConfig::default().shards(1),
    );
    let speedup_8x = match (
        sharded.iter().find(|p| p.sessions == 8),
        single_lock.first(),
    ) {
        (Some(s), Some(b)) if b.ops_per_sec > 0.0 => s.ops_per_sec / b.ops_per_sec,
        _ => 0.0,
    };
    // Scaling numbers only mean something relative to the hardware: on a
    // single-core host the sweep measures per-op overhead, not
    // parallelism (there are no idle cores for sharding to feed).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("name", Json::Str("pool_scaling".to_string())),
        ("cores", Json::Int(cores as u64)),
        ("queries_per_session", Json::Int(QUERIES_PER_SESSION as u64)),
        (
            "points",
            Json::Arr(sharded.iter().map(scale_point_json).collect()),
        ),
        (
            "single_lock_8x",
            single_lock
                .first()
                .map(scale_point_json)
                .unwrap_or(Json::Bool(false)),
        ),
        (
            "sharded_vs_single_lock_8x",
            Json::Num((speedup_8x * 1000.0).round() / 1000.0),
        ),
    ])
}

/// The `update_mixed` experiment: N reader sessions replaying a warm
/// alphabet against one table while a writer commits deltas to another —
/// scoped invalidation keeps the readers pure-hit, and one quiescent
/// instrumented commit reports how many shards it write-locked out of the
/// pool's total.
fn update_mixed_experiment() -> Json {
    let out = update_mixed(
        8,
        24,
        6,
        recycler::RecyclerConfig::default()
            .shards(16)
            .update_mode(recycler::UpdateMode::Propagate),
    );
    Json::obj(vec![
        ("name", Json::Str("update_mixed".to_string())),
        ("readers", Json::Int(out.readers as u64)),
        ("reader_queries", Json::Int(out.reader_queries as u64)),
        ("commits", Json::Int(out.commits as u64)),
        ("elapsed_ms", ms(out.elapsed)),
        (
            "reader_qps",
            Json::Num((out.reader_qps * 10.0).round() / 10.0),
        ),
        (
            "reader_hit_ratio",
            Json::Num((out.reader_hit_ratio * 1000.0).round() / 1000.0),
        ),
        ("invalidated", Json::Int(out.invalidated)),
        ("propagated", Json::Int(out.propagated)),
        (
            "commit_locked_shards",
            Json::Int(out.commit_locked_shards as u64),
        ),
        ("shards", Json::Int(out.shards as u64)),
    ])
}

/// The `server_mixed` scenario: N TCP clients replay the SkyServer mix
/// against the `rcy-server` front-end — the full wire path (framing,
/// per-connection sessions, recycling, replies) becomes part of the perf
/// trajectory.
fn server_mixed_experiment(env: &ExpEnv) -> Json {
    let out = server_mixed(4, 64, env.sky_objects.min(8_000), env.seed);
    Json::obj(vec![
        ("name", Json::Str("server_mixed".to_string())),
        ("clients", Json::Int(out.clients as u64)),
        ("queries", Json::Int(out.queries as u64)),
        ("elapsed_ms", ms(out.elapsed)),
        (
            "queries_per_sec",
            Json::Num((out.queries_per_sec * 10.0).round() / 10.0),
        ),
        (
            "hit_ratio",
            Json::Num((out.hit_ratio * 1000.0).round() / 1000.0),
        ),
        ("cross_session_hits", Json::Int(out.cross_session_hits)),
        ("server_sessions", Json::Int(out.server_sessions)),
        ("rejected_connections", Json::Int(out.rejected_connections)),
    ])
}

/// The `server_c10k` scenario: an idle swarm plus hot clients against
/// the epoll reactor, with the retired thread-per-connection
/// architecture rebuilt as the throughput baseline. The two headline
/// numbers are `per_idle_conn_bytes` (must stay flat — buffers, not
/// thread stacks) and `reactor_qps` vs `baseline_qps` (must not lose).
/// Scaled by `REPRO_C10K_IDLE` / `REPRO_C10K_HOT` for the CI smoke leg.
fn server_c10k_experiment() -> Json {
    let idle: usize = std::env::var("REPRO_C10K_IDLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let hot: usize = std::env::var("REPRO_C10K_HOT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let out = crate::c10k::server_c10k(idle, hot, 150);
    Json::obj(vec![
        ("name", Json::Str("server_c10k".to_string())),
        ("idle_connections", Json::Int(out.idle_connections as u64)),
        ("hot_clients", Json::Int(out.hot_clients as u64)),
        ("hot_queries", Json::Int(out.hot_queries as u64)),
        ("live_connections", Json::Int(out.live_connections)),
        ("nofile_limit", Json::Int(out.nofile_limit)),
        ("rss_before_idle", Json::Int(out.rss_before_idle)),
        ("rss_with_idle", Json::Int(out.rss_with_idle)),
        (
            "per_idle_conn_bytes",
            Json::Num((out.per_idle_conn_bytes * 10.0).round() / 10.0),
        ),
        (
            "idle_memory_flat",
            Json::Bool(out.idle_memory_is_flat(64.0 * 1024.0)),
        ),
        (
            "reactor_qps",
            Json::Num((out.reactor_qps * 10.0).round() / 10.0),
        ),
        (
            "baseline_qps",
            Json::Num((out.baseline_qps * 10.0).round() / 10.0),
        ),
        (
            "sequential_qps",
            Json::Num((out.sequential_qps * 10.0).round() / 10.0),
        ),
        (
            "baseline_sequential_qps",
            Json::Num((out.baseline_sequential_qps * 10.0).round() / 10.0),
        ),
        (
            "pipelined_qps",
            Json::Num((out.pipelined_qps * 10.0).round() / 10.0),
        ),
        (
            "reactor_vs_baseline",
            Json::Num(if out.baseline_qps > 0.0 {
                ((out.reactor_qps / out.baseline_qps) * 1000.0).round() / 1000.0
            } else {
                0.0
            }),
        ),
    ])
}

/// Build the whole report document.
pub fn bench_report(env: &ExpEnv) -> Json {
    let mut experiments: Vec<Json> = Vec::new();

    // TPC-H mixed batch: the paper's §7 shape.
    {
        let cat = env.tpch();
        let (qs, items) = tpch::mixed_batch(&tpch::workload::MIXED_QUERIES, 4, env.seed);
        let templates: Vec<Program> = qs.iter().map(|q| q.template.clone()).collect();
        let items: Vec<BenchItem> = items
            .into_iter()
            .map(|i| BenchItem {
                query_idx: i.query_idx,
                label: i.query_no,
                params: i.params,
            })
            .collect();
        experiments.push(compare(
            "tpch_mixed_batch",
            cat.clone(),
            &templates,
            &items,
            RecyclerConfig::default(),
        ));
        // The same batch under a 1 MiB budget: eviction policy cost and
        // churn become part of the perf trajectory (the unlimited runs
        // never evict).
        experiments.push(compare(
            "tpch_mixed_lowmem",
            cat,
            &templates,
            &items,
            RecyclerConfig::default().mem_limit(1 << 20),
        ));
    }

    // TPC-H repeat instances of the flagship Q18 (paper Fig. 4b).
    {
        let cat = env.tpch();
        let q = tpch::query(18);
        let mut rng = SmallRng::seed_from_u64(env.seed);
        let params = (q.params)(&mut rng);
        let items: Vec<BenchItem> = (0..6)
            .map(|_| BenchItem {
                query_idx: 0,
                label: 18,
                params: params.clone(),
            })
            .collect();
        experiments.push(compare(
            "tpch_q18_repeat",
            cat,
            std::slice::from_ref(&q.template),
            &items,
            RecyclerConfig::default(),
        ));
    }

    // SkyServer log replay (paper §8.2).
    {
        let cat = skyserver::generate(skyserver::SkyScale::new(env.sky_objects.min(20_000)));
        let (templates, log) = skyserver::sample_log(60, env.seed);
        let items: Vec<BenchItem> = log
            .into_iter()
            .map(|l| BenchItem {
                query_idx: l.query_idx,
                label: l.query_idx as u8,
                params: l.params,
            })
            .collect();
        experiments.push(compare(
            "skyserver_log",
            cat,
            &templates,
            &items,
            RecyclerConfig::default(),
        ));
    }

    // Multi-session serving over one shared pool.
    experiments.push(concurrent_experiment(env, 4));

    // Session-count sweep on the sharded pool.
    experiments.push(pool_scaling_experiment());

    // Readers vs one committing writer (scoped update invalidation).
    experiments.push(update_mixed_experiment());

    // N TCP clients over the SkyServer mix through the serving front-end.
    experiments.push(server_mixed_experiment(env));

    // Thousands of idle connections + hot clients vs the retired
    // thread-per-connection baseline.
    experiments.push(server_c10k_experiment());

    // Eviction gather cost vs pool size (the leaf-index O(leaves) bound).
    experiments.push(eviction_pressure_experiment());

    // Admission latency at the lowmem cap, collector off vs on.
    experiments.push(background_eviction_experiment(env));

    // Hit retention at the lowmem cap, residency ladder off vs on.
    experiments.push(tiered_lowmem_experiment(env));

    // Operator-state recycling (typed artifacts) off vs on, on a
    // workload where result recycling is starved.
    experiments.push(operator_reuse_experiment());

    Json::obj(vec![
        ("schema", Json::Str("recycler-bench/v1".to_string())),
        (
            "config",
            Json::obj(vec![
                ("tpch_sf", Json::Num(env.sf)),
                ("sky_objects", Json::Int(env.sky_objects as u64)),
                ("seed", Json::Int(env.seed)),
            ]),
        ),
        ("experiments", Json::Arr(experiments)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::obj(vec![
            ("a", Json::Int(3)),
            ("b", Json::Str("x\"y\n".to_string())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(1.5)])),
        ]);
        assert_eq!(j.to_string(), r#"{"a":3,"b":"x\"y\n","c":[true,1.5]}"#);
    }

    #[test]
    fn report_has_all_experiments() {
        let env = ExpEnv {
            sf: 0.002,
            sky_objects: 2000,
            seed: 11,
        };
        let report = bench_report(&env);
        let text = report.to_string();
        for name in [
            "tpch_mixed_batch",
            "tpch_mixed_lowmem",
            "tpch_q18_repeat",
            "skyserver_log",
            "skyserver_concurrent_4x",
            "cross_session_hits",
            "pool_scaling",
            "single_lock_8x",
            "update_mixed",
            "commit_locked_shards",
            "server_mixed",
            "rejected_connections",
            "server_c10k",
            "per_idle_conn_bytes",
            "reactor_vs_baseline",
            "eviction_pressure",
            "gather_size_independent",
            "evict_gather_visited",
            "background_eviction",
            "steady_inline_evictions",
            "background_evictions",
            "tiered_lowmem",
            "tiering_retains_hits",
            "demotions_compressed",
            "tier_promotions",
            "operator_reuse",
            "artifact_hit_ratio",
            "artifact_saved_ms",
        ] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        // the collector side of background_eviction must keep the steady
        // phase free of inline evictions
        let bg = text
            .split("\"name\":\"background_eviction\"")
            .nth(1)
            .expect("background_eviction experiment present");
        let with = bg
            .split("\"with_collector\":")
            .nth(1)
            .expect("with_collector side present");
        assert!(
            with.contains("\"steady_inline_evictions\":0"),
            "steady-state admissions evicted inline: {with}"
        );
        assert!(
            text.contains("\"gather_size_independent\":true"),
            "gather cost must be flat across pool sizes: {text}"
        );
        assert!(
            text.contains("\"tiering_retains_hits\":true"),
            "the residency ladder lost hits vs the raw pool: {text}"
        );
        // operator-state recycling must reuse artifacts AND beat the
        // artifact-free recycler on the starved-result workload
        assert!(
            text.contains("\"operator_reuse_wins\":true"),
            "operator-state recycling did not pay for itself: {text}"
        );
        let op = text
            .split("\"name\":\"operator_reuse\"")
            .nth(1)
            .expect("operator_reuse experiment present");
        let with = op
            .split("\"with_state\":")
            .nth(1)
            .expect("with_state side present");
        let artifact_hits: u64 = with
            .split("\"artifact_hits\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .expect("artifact_hits field");
        assert!(artifact_hits > 0, "no artifact reuse in the report: {op}");
        // the low-memory run must actually exercise eviction
        let lowmem = text
            .split("\"name\":\"tpch_mixed_lowmem\"")
            .nth(1)
            .expect("lowmem experiment present");
        let evictions: u64 = lowmem
            .split("\"evictions\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .expect("evictions field");
        assert!(evictions > 0, "1 MiB budget must evict: {lowmem}");
    }
}
