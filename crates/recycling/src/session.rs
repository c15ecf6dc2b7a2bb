//! The per-client [`Session`] handle and its typed request/reply types.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rbat::catalog::CommitReport;
use rbat::delta::Row;
use rbat::Value;
use recycler::{QueryRecord, Recycler, RecyclerStats};
use rmal::interp::NoHook;
use rmal::{Engine, Program};

use crate::database::Database;
use crate::error::{Error, Result};

/// A typed update request: staged inserts and deletes against one table,
/// committed atomically by [`Session::commit`].
#[derive(Debug, Clone, Default)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Rows to append (one `Vec<Value>` per row, in schema order).
    pub inserts: Vec<Row>,
    /// OIDs to delete.
    pub deletes: Vec<u64>,
}

impl Update {
    /// Start an empty update of `table`.
    pub fn to(table: &str) -> Update {
        Update {
            table: table.to_string(),
            ..Default::default()
        }
    }

    /// Builder-style: append rows.
    pub fn insert(mut self, rows: Vec<Row>) -> Update {
        self.inserts.extend(rows);
        self
    }

    /// Builder-style: delete OIDs.
    pub fn delete(mut self, oids: Vec<u64>) -> Update {
        self.deletes.extend(oids);
        self
    }
}

/// The reply to one [`Session::query`]: the exported result values plus
/// the recycling observations of this invocation.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Named result values, in export order.
    pub exports: Vec<(String, Value)>,
    /// Marked (recyclable) instructions this invocation saw.
    pub marked: u64,
    /// ... of which answered from the recycle pool (exact match).
    pub reused: u64,
    /// ... of which executed in subsumed (rewritten/pieced) form.
    pub subsumed: u64,
    /// Entries this invocation admitted to the pool.
    pub admitted: u64,
    /// Wall-clock time of the invocation.
    pub elapsed: Duration,
}

impl QueryReply {
    /// Fetch an exported value by name.
    pub fn export(&self, name: &str) -> Option<&Value> {
        self.exports.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Hit ratio against this invocation's potential hits.
    pub fn hit_ratio(&self) -> f64 {
        if self.marked == 0 {
            0.0
        } else {
            self.reused as f64 / self.marked as f64
        }
    }
}

/// One engine: recycling sessions carry the recycler hook, naive
/// ([`crate::DatabaseBuilder::naive`]) ones run bare — the baseline the
/// experiment harness compares against. Hidden behind `Session` so the
/// generic hook parameter never leaks into the public API.
enum EngineKind {
    // Boxed: the recycler hook carries per-session admission state, so
    // this variant dwarfs the naive one and would bloat every Session.
    Recycled(Box<Engine<Recycler>>),
    Naive(Engine<NoHook>),
}

/// A cheap per-client handle on a [`Database`]: typed requests
/// ([`Self::query`], [`Self::commit`], [`Self::stats`]) against the
/// database's shared recycler and catalog.
///
/// Sessions are independent and `Send`: create one per connection or
/// thread ([`Database::session`]) and run them concurrently — they reuse
/// each other's intermediates through the shared pool. Every query runs
/// against an epoch-pinned catalog snapshot (refreshed at query start),
/// so commits from other sessions become visible at the next query, never
/// halfway through one.
///
/// Dropping a session closes it: the per-session credit slices of the
/// remaining sessions rebalance (see
/// [`RecyclerConfig::session_credits`](recycler::RecyclerConfig::session_credits)).
pub struct Session {
    db: Database,
    engine: EngineKind,
}

impl Session {
    pub(crate) fn recycled(db: Database, engine: Engine<Recycler>) -> Session {
        Session {
            db,
            engine: EngineKind::Recycled(Box::new(engine)),
        }
    }

    pub(crate) fn naive(db: Database, engine: Engine<NoHook>) -> Session {
        Session {
            db,
            engine: EngineKind::Naive(engine),
        }
    }

    /// The database this session is attached to.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// This session's id on the shared recycler (0 for naive sessions).
    pub fn id(&self) -> u64 {
        match &self.engine {
            EngineKind::Recycled(e) => e.hook.session_id(),
            EngineKind::Naive(_) => 0,
        }
    }

    /// Execute a prepared template with the given parameters. The
    /// template must come from [`Database::prepare`] (or
    /// [`Database::template`]); running an unoptimised program works but
    /// skips recycling entirely (nothing is marked).
    pub fn query(&mut self, template: &Program, params: &[Value]) -> Result<QueryReply> {
        match &mut self.engine {
            EngineKind::Recycled(e) => {
                let out = e.run(template, params)?;
                let admitted = e.hook.query_log().back().map(|r| r.admitted).unwrap_or(0);
                Ok(QueryReply {
                    exports: out.exports,
                    marked: out.stats.marked as u64,
                    reused: out.stats.reused as u64,
                    subsumed: out.stats.subsumed as u64,
                    admitted,
                    elapsed: out.stats.elapsed,
                })
            }
            EngineKind::Naive(e) => {
                let out = e.run(template, params)?;
                Ok(QueryReply {
                    exports: out.exports,
                    marked: 0,
                    reused: 0,
                    subsumed: 0,
                    admitted: 0,
                    elapsed: out.stats.elapsed,
                })
            }
        }
    }

    /// Execute a prepared template under a soft deadline of `budget`
    /// from now.
    ///
    /// The deadline is enforced at the recycler's **admission and
    /// eviction-wait points**: past it, the query stops admitting
    /// intermediates (and therefore can no longer block behind inline
    /// eviction at the capacity gate) and skips subsumption searches;
    /// exact-match hits still serve. Operator execution itself is not
    /// interrupted mid-instruction — when the clock has run out by the
    /// time the run returns, the reply is discarded and
    /// [`Error::Deadline`] is reported (nothing admitted past the
    /// deadline is left in the pool, so a timed-out query cannot have
    /// polluted the cache with work nobody waited for). A zero `budget`
    /// fails fast without running at all.
    pub fn query_with_deadline(
        &mut self,
        template: &Program,
        params: &[Value],
        budget: Duration,
    ) -> Result<QueryReply> {
        if budget.is_zero() {
            return Err(Error::Deadline);
        }
        let deadline = Instant::now()
            .checked_add(budget)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(u32::MAX as u64));
        if let EngineKind::Recycled(e) = &mut self.engine {
            e.hook.set_deadline(Some(deadline));
        }
        let reply = self.query(template, params);
        if let EngineKind::Recycled(e) = &mut self.engine {
            e.hook.set_deadline(None);
        }
        if Instant::now() >= deadline {
            return Err(Error::Deadline);
        }
        reply
    }

    /// [`Self::query_with_deadline`] for a template registered under
    /// `name` — the request shape the TCP front-end's wire deadline field
    /// maps onto.
    pub fn query_named_with_deadline(
        &mut self,
        name: &str,
        params: &[Value],
        budget: Duration,
    ) -> Result<QueryReply> {
        let template = self
            .db
            .template(name)
            .ok_or_else(|| Error::UnknownTemplate(name.to_string()))?;
        self.query_with_deadline(&template, params, budget)
    }

    /// Execute a prepared template and return the abstract machine's full
    /// [`rmal::QueryOutput`] — exports plus the per-instruction execution
    /// profile. The experiment harness uses this to attribute time to
    /// individual operators; prefer [`Self::query`] everywhere else.
    pub fn query_output(
        &mut self,
        template: &Program,
        params: &[Value],
    ) -> Result<rmal::QueryOutput> {
        match &mut self.engine {
            EngineKind::Recycled(e) => Ok(e.run(template, params)?),
            EngineKind::Naive(e) => Ok(e.run(template, params)?),
        }
    }

    /// Execute a template registered under `name`
    /// ([`crate::DatabaseBuilder::template`] / [`Database::register`]) —
    /// the request shape the TCP front-end speaks.
    pub fn query_named(&mut self, name: &str, params: &[Value]) -> Result<QueryReply> {
        let template = self
            .db
            .template(name)
            .ok_or_else(|| Error::UnknownTemplate(name.to_string()))?;
        self.query(&template, params)
    }

    /// Commit a typed [`Update`]: stage inserts and deletes, commit
    /// through the shared catalog's single-writer cell, and synchronise
    /// the recycle pool (invalidation or delta propagation per the
    /// configured update mode). Other sessions observe the commit at
    /// their next query.
    ///
    /// A pool quarantined by an earlier panic (its table may be torn) is
    /// repaired first ([`Database::maintenance`]'s `repair_quarantined`),
    /// so the invalidation or propagation runs over consistent state and
    /// the commit is never refused for it.
    pub fn commit(&mut self, update: Update) -> Result<CommitReport> {
        if self.db.pool().has_quarantined() {
            self.db.maintenance().repair_quarantined();
        }
        let Update {
            table,
            inserts,
            deletes,
        } = update;
        let report = match &mut self.engine {
            EngineKind::Recycled(e) => e.update(&table, inserts, deletes)?,
            EngineKind::Naive(e) => e.update(&table, inserts, deletes)?,
        };
        Ok(report)
    }

    /// Snapshot of the shared recycler's lifetime statistics (the same
    /// numbers every session sees — the pool is one).
    pub fn stats(&self) -> RecyclerStats {
        self.db.stats()
    }

    /// Per-query records of *this* session, oldest first: appended at
    /// every query end, the newest `recycler::runtime::QUERY_LOG_CAP`
    /// kept (empty for naive sessions).
    pub fn query_log(&self) -> &VecDeque<QueryRecord> {
        static NONE: VecDeque<QueryRecord> = VecDeque::new();
        match &self.engine {
            EngineKind::Recycled(e) => e.hook.query_log(),
            EngineKind::Naive(_) => &NONE,
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id()).finish()
    }
}
