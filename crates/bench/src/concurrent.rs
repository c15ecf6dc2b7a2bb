//! Multi-session workload driver: N OS threads firing query streams at
//! one shared [`Database`] — and, for the `server_mixed` scenario, N TCP
//! clients firing the same streams at a `rcy-server` front-end.
//!
//! This is the serving shape the paper's architecture targets (§8: one
//! recycler inside the server, shared by every SkyServer web session):
//! each stream runs on its own [`Database::session`] — same `Arc`-shared
//! column storage, same optimiser pipeline, one shared recycle pool —
//! concurrently with the others, reusing their intermediates.

use std::thread;
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::{RecyclerConfig, RecyclerStats};
use recycling::{Database, DatabaseBuilder, Update};
use rmal::{Program, ProgramBuilder, P};

use crate::driver::BenchItem;

/// What one session thread observed.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session index (0-based thread number).
    pub session: usize,
    /// Queries this session executed.
    pub queries: usize,
    /// Marked instructions this session saw.
    pub monitored: u64,
    /// Exact-match reuses this session got (its own or other sessions'
    /// intermediates).
    pub hits: u64,
    /// Subsumed executions.
    pub subsumed: u64,
    /// Wall time of this session's stream.
    pub elapsed: Duration,
}

/// Outcome of a concurrent run.
#[derive(Debug)]
pub struct ConcurrentOutcome {
    /// Number of session threads.
    pub sessions: usize,
    /// Total queries over all sessions.
    pub queries: usize,
    /// Wall time from first spawn to last join.
    pub elapsed: Duration,
    /// Shared recycler statistics after the run (cross-session hits,
    /// duplicate admissions, evictions, ...).
    pub stats: RecyclerStats,
    /// Per-session observations.
    pub per_session: Vec<SessionOutcome>,
    /// Pool size after the run.
    pub pool_entries: usize,
    /// Pool bytes after the run.
    pub pool_bytes: usize,
}

impl ConcurrentOutcome {
    /// Fraction of monitored instructions answered from the pool, for
    /// *this run only* — computed from the per-session observations, not
    /// from `stats` (which is lifetime state of the shared service and
    /// spans every batch ever run against it).
    pub fn hit_ratio(&self) -> f64 {
        let monitored: u64 = self.per_session.iter().map(|s| s.monitored).sum();
        let hits: u64 = self.per_session.iter().map(|s| s.hits).sum();
        if monitored == 0 {
            0.0
        } else {
            hits as f64 / monitored as f64
        }
    }
}

/// Deal `items` round-robin into `n` session streams.
pub fn partition_streams(items: &[BenchItem], n: usize) -> Vec<Vec<BenchItem>> {
    let mut streams: Vec<Vec<BenchItem>> = vec![Vec::new(); n.max(1)];
    for (i, item) in items.iter().enumerate() {
        streams[i % n.max(1)].push(item.clone());
    }
    streams
}

/// Run one stream per thread against a fresh database built from
/// `config`. The templates are prepared once (with the recycler marking
/// pass) and shared read-only by every session.
pub fn run_concurrent(
    catalog: Catalog,
    templates: &[Program],
    streams: &[Vec<BenchItem>],
    config: RecyclerConfig,
) -> ConcurrentOutcome {
    let db = DatabaseBuilder::new(catalog).recycler(config).build();
    run_concurrent_shared(&db, templates, streams)
}

/// [`run_concurrent`] against a caller-provided database — lets a harness
/// run several batches (or mix drivers) over one pool.
pub fn run_concurrent_shared(
    db: &Database,
    templates: &[Program],
    streams: &[Vec<BenchItem>],
) -> ConcurrentOutcome {
    let optimized: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
    let optimized = &optimized;

    let started = Instant::now();
    let per_session: Vec<SessionOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(idx, stream)| {
                let mut session = db.session();
                scope.spawn(move || {
                    let s0 = Instant::now();
                    let mut out = SessionOutcome {
                        session: idx,
                        queries: stream.len(),
                        monitored: 0,
                        hits: 0,
                        subsumed: 0,
                        elapsed: Duration::ZERO,
                    };
                    for item in stream {
                        let reply = session
                            .query(&optimized[item.query_idx], &item.params)
                            .unwrap_or_else(|e| {
                                panic!("session {idx}: query q{} failed: {e}", item.label)
                            });
                        out.monitored += reply.marked;
                        out.hits += reply.reused;
                        out.subsumed += reply.subsumed;
                    }
                    out.elapsed = s0.elapsed();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let (pool_entries, pool_bytes) = {
        let pool = db.pool();
        (pool.len(), pool.bytes())
    };
    ConcurrentOutcome {
        sessions: streams.len(),
        queries: streams.iter().map(|s| s.len()).sum(),
        elapsed,
        stats: db.stats(),
        per_session,
        pool_entries,
        pool_bytes,
    }
}

/// One measured point of the [`pool_scaling`] sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Concurrent session threads.
    pub sessions: usize,
    /// Total queries executed at this point.
    pub queries: usize,
    /// Wall time from first spawn to last join.
    pub elapsed: Duration,
    /// Queries per wall second (aggregate over all sessions).
    pub queries_per_sec: f64,
    /// Marked (probe+admission) instructions per wall second — the
    /// recycler's hot-path throughput.
    pub ops_per_sec: f64,
    /// Fraction of marked instructions answered from the pool.
    pub hit_ratio: f64,
    /// Cross-session exact-match reuses.
    pub cross_session_hits: u64,
    /// Racing duplicate admissions resolved first-writer-wins.
    pub duplicate_admissions: u64,
}

/// Micro workload for the scaling sweep: a small catalog and cheap
/// bind→select→aggregate templates, so recycler bookkeeping (probe, hit
/// accounting, admission) dominates the per-query cost and the sweep
/// exposes pool-lock contention rather than operator time.
fn scaling_setup() -> (Catalog, Vec<Program>, Vec<BenchItem>) {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..1000i64 {
        tb.push_row(&[Value::Int((i * 37) % 1000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());

    let mut b = ProgramBuilder::new("scale_count", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    let count_t = b.finish();

    let mut b = ProgramBuilder::new("scale_sum", 2);
    let col = b.bind("t", "y");
    let sel = b.select_closed(col, P(0), P(1));
    let s = b.sum(sel);
    b.export("s", s);
    let sum_t = b.finish();

    // a small parameter alphabet: most probes repeat (hits), the rest
    // admit fresh entries — both sides of the hot path are exercised
    let ranges = [
        (0i64, 800i64),
        (100, 700),
        (200, 600),
        (0, 500),
        (300, 900),
        (50, 450),
        (150, 850),
        (250, 750),
    ];
    let items: Vec<BenchItem> = (0..ranges.len() * 2)
        .map(|i| {
            let (lo, hi) = ranges[i % ranges.len()];
            BenchItem {
                query_idx: i % 2,
                label: i as u8,
                params: vec![Value::Int(lo), Value::Int(hi)],
            }
        })
        .collect();
    (cat, vec![count_t, sum_t], items)
}

/// The `pool_scaling` experiment: sweep session counts over the same
/// per-session query volume (weak scaling), each point against a FRESH
/// shared pool, and report aggregate probe+admission throughput plus hit
/// ratio per point under `config`.
pub fn pool_scaling(
    counts: &[usize],
    queries_per_session: usize,
    config: RecyclerConfig,
) -> Vec<ScalePoint> {
    let (cat, templates, alphabet) = scaling_setup();
    counts
        .iter()
        .map(|&n| {
            let total = n.max(1) * queries_per_session;
            let batch: Vec<BenchItem> = (0..total)
                .map(|i| alphabet[i % alphabet.len()].clone())
                .collect();
            let streams = partition_streams(&batch, n.max(1));
            let outcome = run_concurrent(cat.clone(), &templates, &streams, config);
            let monitored: u64 = outcome.per_session.iter().map(|s| s.monitored).sum();
            let secs = outcome.elapsed.as_secs_f64().max(1e-9);
            ScalePoint {
                sessions: outcome.sessions,
                queries: outcome.queries,
                elapsed: outcome.elapsed,
                queries_per_sec: outcome.queries as f64 / secs,
                ops_per_sec: monitored as f64 / secs,
                hit_ratio: outcome.hit_ratio(),
                cross_session_hits: outcome.stats.cross_session_hits,
                duplicate_admissions: outcome.stats.duplicate_admissions,
            }
        })
        .collect()
}

/// Outcome of the [`update_mixed`] scenario: N reader sessions replaying
/// queries against an untouched table while one writer commits deltas to
/// another.
#[derive(Debug)]
pub struct UpdateMixedOutcome {
    /// Concurrent reader session threads.
    pub readers: usize,
    /// Total reader queries executed.
    pub reader_queries: usize,
    /// Commits the writer applied during the run.
    pub commits: usize,
    /// Wall time from first spawn to last join.
    pub elapsed: Duration,
    /// Reader queries per wall second, aggregate.
    pub reader_qps: f64,
    /// Fraction of the readers' marked instructions served from the pool
    /// — stays near 1.0 when commits never block or invalidate them.
    pub reader_hit_ratio: f64,
    /// Entries invalidated by the writer's commits.
    pub invalidated: u64,
}

/// Mixed update/query workload: one writer session commits insert deltas
/// to a `hot` table in a loop (re-admitting its own hot chain between
/// commits) while `readers` sessions replay a warm query alphabet against
/// a `cold` table — one database, one shared pool, one shared catalog
/// cell. A commit holds the pool's table write lock for its invalidation
/// only; readers stay pure-hit throughout.
pub fn update_mixed(
    readers: usize,
    queries_per_reader: usize,
    commits: usize,
    config: RecyclerConfig,
) -> UpdateMixedOutcome {
    let mut cat = Catalog::new();
    for name in ["hot", "cold"] {
        let mut tb = TableBuilder::new(name)
            .column("x", LogicalType::Int)
            .column("y", LogicalType::Int);
        for i in 0..1200i64 {
            tb.push_row(&[Value::Int((i * 37) % 1200), Value::Int(i % 97)]);
        }
        cat.add_table(tb.finish());
    }
    let db = DatabaseBuilder::new(cat).recycler(config).build();

    let template = |name: &str, table: &str| {
        let mut b = ProgramBuilder::new(name, 2);
        let col = b.bind(table, "x");
        let sel = b.select_closed(col, P(0), P(1));
        let n = b.count(sel);
        b.export("n", n);
        b.finish()
    };
    let cold_t = db.prepare(template("mixed_cold", "cold"));
    let hot_t = db.prepare(template("mixed_hot", "hot"));
    let alphabet: Vec<Vec<Value>> = (0..8i64)
        .map(|i| vec![Value::Int(i * 100), Value::Int(i * 100 + 500)])
        .collect();
    {
        let mut warmer = db.session();
        for p in &alphabet {
            warmer.query(&cold_t, p).unwrap();
            warmer.query(&hot_t, p).unwrap();
        }
    }

    let stats0 = db.stats();
    let started = Instant::now();
    let (db_ref, cold_ref, hot_ref, alphabet_ref) = (&db, &cold_t, &hot_t, &alphabet);
    let (monitored, hits) = thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let mut session = db_ref.session();
                scope.spawn(move || {
                    let (mut monitored, mut hits) = (0u64, 0u64);
                    for i in 0..queries_per_reader {
                        let p = &alphabet_ref[(r + i) % alphabet_ref.len()];
                        let reply = session.query(cold_ref, p).unwrap();
                        monitored += reply.marked;
                        hits += reply.reused;
                    }
                    (monitored, hits)
                })
            })
            .collect();
        let mut writer = db_ref.session();
        let writer_handle = scope.spawn(move || {
            for c in 0..commits {
                writer
                    .commit(Update::to("hot").insert(vec![vec![
                        Value::Int(c as i64 % 1200),
                        Value::Int(c as i64),
                    ]]))
                    .unwrap();
                // re-admit the hot chain so the next commit has a closure
                // to invalidate
                writer
                    .query(hot_ref, &alphabet_ref[c % alphabet_ref.len()])
                    .unwrap();
            }
        });
        let mut totals = (0u64, 0u64);
        for h in reader_handles {
            let (m, hit) = h.join().expect("reader thread panicked");
            totals.0 += m;
            totals.1 += hit;
        }
        writer_handle.join().expect("writer thread panicked");
        totals
    });
    let elapsed = started.elapsed();

    let stats = db.stats();
    let queries = readers * queries_per_reader;
    UpdateMixedOutcome {
        readers,
        reader_queries: queries,
        commits,
        elapsed,
        reader_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
        reader_hit_ratio: if monitored == 0 {
            0.0
        } else {
            hits as f64 / monitored as f64
        },
        invalidated: stats.invalidated - stats0.invalidated,
    }
}

/// Outcome of the [`server_mixed`] scenario: N TCP clients replaying the
/// SkyServer mix against a `rcy-server` front-end over one database.
#[derive(Debug)]
pub struct ServerMixedOutcome {
    /// Concurrent TCP clients.
    pub clients: usize,
    /// Total queries executed over the wire.
    pub queries: usize,
    /// Wall time from first connect to last close.
    pub elapsed: Duration,
    /// Queries per wall second, aggregate over all clients.
    pub queries_per_sec: f64,
    /// Fraction of the clients' marked instructions answered from the
    /// pool (reported per query over the wire).
    pub hit_ratio: f64,
    /// Cross-session exact-match reuses (server stats).
    pub cross_session_hits: u64,
    /// Sessions the server opened (one per served connection).
    pub server_sessions: u64,
    /// Connections rejected by admission control.
    pub rejected_connections: u64,
}

/// The `server_mixed` scenario: build a SkyServer database, register the
/// log's templates by name, start a TCP front-end, and replay the log mix
/// from `clients` concurrent TCP clients (round-robin partition). The
/// whole query path — framing, session mapping, recycling, reply — runs
/// over the wire.
pub fn server_mixed(
    clients: usize,
    queries: usize,
    objects: usize,
    seed: u64,
) -> ServerMixedOutcome {
    let cat = skyserver::generate(skyserver::SkyScale::new(objects));
    let (templates, log) = skyserver::sample_log(queries, seed);
    let items: Vec<BenchItem> = log
        .into_iter()
        .map(|l| BenchItem {
            query_idx: l.query_idx,
            label: l.query_idx as u8,
            params: l.params,
        })
        .collect();

    let mut builder = DatabaseBuilder::new(cat);
    for (i, t) in templates.iter().enumerate() {
        builder = builder.template(&format!("q{i}"), t.clone());
    }
    let db = builder.build();
    let server = rcy_server::Server::start(
        db,
        "127.0.0.1:0",
        rcy_server::ServerConfig {
            max_sessions: clients.max(1),
            backlog: clients.max(1),
            ..Default::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let streams = partition_streams(&items, clients.max(1));
    let started = Instant::now();
    let (monitored, hits): (u64, u64) = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client = rcy_server::Client::connect(addr).expect("connect");
                    let (mut monitored, mut hits) = (0u64, 0u64);
                    for item in stream {
                        let reply = client
                            .query(&format!("q{}", item.query_idx), &item.params)
                            .expect("wire query");
                        monitored += reply.marked;
                        hits += reply.reused;
                    }
                    client.close().expect("close");
                    (monitored, hits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .fold((0, 0), |acc, (m, h)| (acc.0 + m, acc.1 + h))
    });
    let elapsed = started.elapsed();
    let rejected = server.rejected_connections();
    // read the server-side stats over the wire before shutting down
    let stats = {
        let mut c = rcy_server::Client::connect(addr).expect("connect for stats");
        let pairs = c.stats().expect("stats");
        c.close().ok();
        pairs
    };
    server.shutdown();
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    let total = streams.iter().map(|s| s.len()).sum::<usize>();
    ServerMixedOutcome {
        clients: streams.len(),
        queries: total,
        elapsed,
        queries_per_sec: total as f64 / elapsed.as_secs_f64().max(1e-9),
        hit_ratio: if monitored == 0 {
            0.0
        } else {
            hits as f64 / monitored as f64
        },
        cross_session_hits: stat("cross_session_hits"),
        server_sessions: stat("sessions"),
        rejected_connections: rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::Value;

    use crate::driver::keepall;

    fn sky_setup(objects: usize, n: usize, seed: u64) -> (Catalog, Vec<Program>, Vec<BenchItem>) {
        let cat = skyserver::generate(skyserver::SkyScale::new(objects));
        let (templates, log) = skyserver::sample_log(n, seed);
        let items: Vec<BenchItem> = log
            .into_iter()
            .map(|l| BenchItem {
                query_idx: l.query_idx,
                label: l.query_idx as u8,
                params: l.params,
            })
            .collect();
        (cat, templates, items)
    }

    #[test]
    fn four_sessions_share_the_pool() {
        let (cat, templates, items) = sky_setup(3000, 48, 5);
        let streams = partition_streams(&items, 4);
        let outcome = run_concurrent(cat, &templates, &streams, keepall());
        assert_eq!(outcome.sessions, 4);
        assert_eq!(outcome.queries, 48);
        assert!(
            outcome.stats.cross_session_hits > 0,
            "overlapping streams must reuse across sessions: {:?}",
            outcome.stats
        );
        assert!(outcome.hit_ratio() > 0.2, "ratio {}", outcome.hit_ratio());
    }

    #[test]
    fn single_stream_degenerates_to_sequential() {
        let (cat, templates, items) = sky_setup(2000, 10, 9);
        let streams = partition_streams(&items, 1);
        let outcome = run_concurrent(cat, &templates, &streams, keepall());
        assert_eq!(outcome.sessions, 1);
        assert_eq!(outcome.stats.cross_session_hits, 0);
        assert!(outcome.stats.hits > 0);
    }

    #[test]
    fn pool_scaling_sweeps_and_hits() {
        let points = pool_scaling(&[1, 2, 4], 16, keepall());
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].sessions, 1);
        assert_eq!(points[2].sessions, 4);
        for p in &points {
            assert_eq!(p.queries, p.sessions * 16);
            assert!(p.ops_per_sec > 0.0);
            assert!(p.hit_ratio > 0.3, "repetitive alphabet must hit: {p:?}");
        }
        assert!(points[2].cross_session_hits > 0);
    }

    #[test]
    fn update_mixed_keeps_readers_hitting_and_scopes_commits() {
        let out = update_mixed(4, 10, 3, keepall());
        assert_eq!(out.readers, 4);
        assert_eq!(out.reader_queries, 40);
        assert_eq!(out.commits, 3);
        assert!(
            out.reader_hit_ratio > 0.9,
            "warm cold readers must stay pure-hit through commits: {out:?}"
        );
        assert!(out.invalidated > 0, "commits must invalidate hot: {out:?}");
    }

    #[test]
    fn server_mixed_serves_the_log_over_tcp() {
        let out = server_mixed(4, 32, 2500, 7);
        assert_eq!(out.clients, 4);
        assert_eq!(out.queries, 32);
        assert!(
            out.hit_ratio > 0.2,
            "template-heavy log must recycle over the wire: {out:?}"
        );
        assert!(
            out.server_sessions >= 4,
            "one session per served connection: {out:?}"
        );
        assert_eq!(out.rejected_connections, 0, "{out:?}");
    }

    #[test]
    fn partitioning_is_balanced() {
        let items: Vec<BenchItem> = (0..10)
            .map(|i| BenchItem {
                query_idx: 0,
                label: i as u8,
                params: vec![Value::Int(i)],
            })
            .collect();
        let streams = partition_streams(&items, 4);
        let sizes: Vec<usize> = streams.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }
}
