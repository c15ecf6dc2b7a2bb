//! The recycler session: per-session run-time support (paper Algorithm 1)
//! as an interpreter hook over the [`SharedRecycler`] service.
//!
//! The paper's recycler is a *server-wide* facility: one pool shared by
//! every user session (§8 relies on cross-session reuse). Accordingly the
//! run-time support is split in two:
//!
//! * [`SharedRecycler`] (see [`crate::shared`]) — the pool, the
//!   admission accounts, eviction state and lifetime statistics, behind
//!   interior locking; one instance per server.
//! * [`Recycler`] (this module) — a cheap per-session handle implementing
//!   [`rmal::ExecHook`]: the current invocation, the pins its query holds,
//!   what the query still owes the shared accounts and statistics, and the
//!   per-query record log. Cloning a `Recycler` attaches a *new* session
//!   to the same shared service.
//!
//! The exact-match hit path — the hot path of every marked instruction —
//! is one fingerprint over the borrowed arguments, one table **read**
//! lock, no allocation and one clock read of its own: probe, reuse
//! counters, pinning and result cloning are a single
//! [`RecyclePool::probe`] call over per-entry atomics; what the hit owes
//! the rest of the service is summed in the session and handed over
//! once, at query end. Admissions
//! go through one funnel: resolve the BAT arguments in one read of the
//! lineage graph, pin the parents (a table read lock each), then insert
//! under the table write lock — the new entry records
//! its parents and copies nothing from them; see the locking invariants in
//! [`crate::shared`].
//!
//! `Recycler::new` remains the one-line way to get a single-session
//! engine: it creates a private `SharedRecycler` under the hood.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbat::catalog::CommitReport;
use rbat::{Catalog, Value};
use rmal::{ExecHook, HookAction, Instr, Opcode, Program};

use crate::config::{AdmissionPolicy, RecyclerConfig, UpdateMode};
use crate::entry::{Admitter, Anchors, EntryId, InstrKey, Lineage, Payload, Pin, PoolEntry};
use crate::lineage::Resolved;
use crate::pool::Admitted;
use crate::propagate::propagate_commit;
use crate::shared::{AccountNotes, PoolRef, SharedRecycler};
use crate::signature::{Sig, SigRef};
use crate::stats::{PoolSnapshot, QueryRecord, RecyclerStats};
use crate::subsume::{self, Subsumption};
use crate::tier::CompressedBat;

#[cfg(doc)]
use crate::pool::RecyclePool;

/// What one exact-match probe observed (computed under the table read
/// lock, consumed after it is released). The payload is handed out as
/// found: a raw result clones an `Arc`; demoted entries hand out the blob
/// or spill ticket for rehydration *outside* the lock.
struct HitOutcome {
    id: EntryId,
    payload: Payload,
    saved: Duration,
    creator: InstrKey,
    local: bool,
    cross_session: bool,
    return_credit: bool,
    pin: Pin,
}

/// Capacity reserved for one in-flight admission (strict limits under
/// concurrency), released when the insert settles, whatever its outcome —
/// RAII, so a panic unwinding out of `insert` (which poisons and
/// quarantines the pool) cannot leak the pending reservation and choke
/// future admissions against the cap.
struct Reservation<'a> {
    shared: &'a SharedRecycler,
    bytes: usize,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.shared.release_reservation(self.bytes);
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: runs on the admitting thread between the funnel's pins
    /// (and reservation) and its insert — where a racing commit orphans
    /// the candidate.
    static BEFORE_INSERT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// The columns a bind-family instruction anchors (paper §6.4): the bound
/// column, or both endpoints of the bound join index. Every other opcode
/// anchors nothing of its own — its lineage is its parents.
fn bind_anchors(catalog: &Catalog, op: Opcode, args: &[Value]) -> Anchors {
    let name = |i: usize| args.get(i).and_then(Value::as_str);
    let mut anchors = Anchors::new();
    match op {
        Opcode::Bind => {
            if let (Some(t), Some(c)) = (name(0), name(1)) {
                anchors.insert((t.to_string(), c.to_string()));
            }
        }
        Opcode::BindIdx => {
            if let Some(def) = name(0).and_then(|n| catalog.index_def(n)) {
                anchors.insert((def.from_table.clone(), def.from_column.clone()));
                anchors.insert((def.to_table.clone(), def.to_key.clone()));
            }
        }
        _ => {}
    }
    anchors
}

/// Overlapping candidates fed to the combined subsumption search (`k` in
/// the paper's micro-benchmarks, Algorithm 2).
const COMBINED_MAX_CANDIDATES: usize = 16;

/// Most recent per-query records a session retains: the log is a ring
/// that drops its oldest record once full — a server session lives as
/// long as its connection and must not grow without bound.
pub const QUERY_LOG_CAP: usize = 4096;

/// A recycler session: implements `recycleEntry`/`recycleExit` around every
/// marked instruction against the shared pool, and keeps this session's
/// query records (capped at [`QUERY_LOG_CAP`] recent entries). Create
/// with [`Recycler::new`] (private pool) or [`SharedRecycler::session`]
/// (shared pool); clone to attach further sessions to the same pool.
pub struct Recycler {
    shared: Arc<SharedRecycler>,
    session_id: u64,
    /// Invocation id of the currently running query (globally unique —
    /// distinguishes local from global reuse).
    invocation: u64,
    /// Between `query_start` and the settling of that query.
    in_query: bool,
    /// One guard per use the current query made of a pool entry; dropping
    /// them at `query_end` unpins without touching the pool.
    pins: Vec<Pin>,
    /// What the current query owes the shared accounts.
    notes: AccountNotes,
    query_log: VecDeque<QueryRecord>,
    /// The current query's counts — the session's record of it and, at
    /// `query_end`, its contribution to the shared lifetime statistics.
    current: QueryRecord,
    /// Soft deadline for the currently running query (set by the facade's
    /// `query_with_deadline`). Past it the hook sheds optional work:
    /// admissions (and therefore any inline eviction they could trigger)
    /// and subsumption searches are skipped — hits still serve, results
    /// stay correct, the query just stops paying cache-maintenance costs
    /// it can no longer amortise.
    deadline: Option<Instant>,
}

impl Recycler {
    /// Create a recycler with its own private [`SharedRecycler`] — the
    /// single-session configuration every example and test started from.
    pub fn new(config: RecyclerConfig) -> Recycler {
        SharedRecycler::new(config).session()
    }

    /// Attach a session to a shared service (use
    /// [`SharedRecycler::session`]).
    pub(crate) fn attach(shared: Arc<SharedRecycler>) -> Recycler {
        let session_id = shared.next_session_id();
        shared.open_session();
        Recycler {
            shared,
            session_id,
            invocation: 0,
            in_query: false,
            pins: Vec::new(),
            notes: AccountNotes::default(),
            query_log: VecDeque::new(),
            current: QueryRecord::default(),
            deadline: None,
        }
    }

    /// The shared service this session is attached to.
    pub fn shared(&self) -> &Arc<SharedRecycler> {
        &self.shared
    }

    /// This session's id (1-based, unique per shared service).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Live configuration (admission/eviction/limits/update mode).
    pub fn config(&self) -> RecyclerConfig {
        self.shared.config()
    }

    /// Read access to the shared pool (diagnostics, tests, experiment
    /// harness). The pool locks internally per call — holding this
    /// reference blocks nobody.
    pub fn pool(&self) -> PoolRef<'_> {
        self.shared.pool()
    }

    /// Snapshot of the shared lifetime statistics.
    pub fn stats(&self) -> RecyclerStats {
        self.shared.stats()
    }

    /// Per-query records of *this session*, oldest first: appended at
    /// every `query_end`, the newest [`QUERY_LOG_CAP`] kept.
    pub fn query_log(&self) -> &VecDeque<QueryRecord> {
        &self.query_log
    }

    /// Snapshot of the pool content (Table III material).
    pub fn snapshot(&self) -> PoolSnapshot {
        self.shared.snapshot()
    }

    /// Set (or clear) the soft deadline enforced at the recycler's
    /// admission and eviction-wait points for queries run through this
    /// session. Past the deadline, admissions are shed *before* the
    /// capacity reservation — the one place a query can block behind
    /// inline eviction — and subsumption searches are skipped; exact
    /// hits still serve (they are the cheap path). The engine's operator
    /// execution itself is not interrupted: the facade checks the clock
    /// again after the run and reports a deadline error without caching
    /// costs having been paid.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Has the current query's soft deadline passed?
    pub fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    // ----- internal helpers -------------------------------------------------

    /// The exact-match probe: one table read lock, atomics only. On a hit
    /// the reuse counters, last-use stamp, credit flag and pin are all
    /// settled inside the lock; what the accounts and the lifetime
    /// statistics are owed is noted in the session and handed over at query
    /// end. A demoted payload is rehydrated (outside any lock) before its
    /// result is handed out.
    ///
    /// Kept out of line: inlined into its one caller, `before`, the
    /// all-hit `sky_hot` workload measured ~3 % slower.
    #[inline(never)]
    fn try_hit(&mut self, sig: &SigRef<'_>) -> Option<Value> {
        let shared = &self.shared;
        let (invocation, session_id) = (self.invocation, self.session_id);
        let hit = shared.pool_inner().probe(sig, |e| {
            let tick = shared.next_tick();
            e.last_used.store(tick, Ordering::Relaxed);
            let local = e.admitted_invocation == invocation;
            if local {
                e.local_reuses.fetch_add(1, Ordering::Relaxed);
            } else {
                e.global_reuses.fetch_add(1, Ordering::Relaxed);
            }
            // first *local* reuse returns the admission credit; the
            // CAS makes a racing pair of hits return it exactly once
            let return_credit = local
                && e.credit_returned
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            HitOutcome {
                id: e.id,
                payload: e.payload().clone(),
                saved: e.cpu,
                creator: e.creator,
                local,
                cross_session: e.admitted_session != session_id,
                return_credit,
                pin: Pin::take(e),
            }
        })?;
        let value = match hit.payload {
            Payload::Raw(value) => value,
            // torn record or injected fault: degrade this probe to a miss
            // (`?` drops the pin) — the instruction recomputes, correctness
            // is untouched
            demoted => self.rehydrate_hit(hit.id, demoted)?,
        };
        self.pins.push(hit.pin);
        self.notes.reuses.push((hit.creator, hit.return_credit));
        self.current.saved += hit.saved;
        self.current.hits += 1;
        if hit.local {
            self.current.local_hits += 1;
        } else {
            self.current.global_hits += 1;
        }
        self.current.cross_session_hits += hit.cross_session as u64;
        Some(value)
    }

    /// Rehydrate a demoted entry's payload on the hit path: decompress the
    /// blob (for spilled entries, first read the record back from the
    /// spill file), then promote the entry to raw so subsequent hits are
    /// cheap again. All of it runs *outside* the table lock —
    /// [`RecyclePool::retier`] revalidates under the table write lock.
    /// Returns `None` when rehydration fails (torn record, injected
    /// `tier.rehydrate` fault); the caller degrades the probe to a miss.
    fn rehydrate_hit(&self, id: EntryId, demoted: Payload) -> Option<Value> {
        #[cfg(feature = "failpoints")]
        if crate::fault::fire("tier.rehydrate").is_some() {
            return None;
        }
        let pool = self.shared.pool_inner();
        let t0 = Instant::now();
        let (bat, spilled) = match demoted {
            Payload::Compressed(blob) => (blob.decompress().ok()?, false),
            Payload::Spilled(ticket) => {
                let record = pool.spill()?.read(ticket).ok()?;
                (CompressedBat::from_bytes(record).decompress().ok()?, true)
            }
            _ => return None,
        };
        let cost = t0.elapsed();
        let raw_bytes = bat.resident_bytes();
        let value = Value::Bat(Arc::new(bat));
        // A concurrent hit may have promoted first (the entry is raw by
        // now and the move is refused) — our value is equally correct
        // either way; only the winner records the promotion.
        let promoted = pool.retier(id, Payload::Raw(value.clone()), raw_bytes, |_| true);
        if promoted.is_some() {
            let (decompress, rehydrate) = if spilled {
                (Duration::ZERO, cost)
            } else {
                (cost, Duration::ZERO)
            };
            self.shared.count_tier_promotion(decompress, rehydrate);
        }
        Some(value)
    }

    /// Pin `id` (filed under `key`) for the remainder of this query if it
    /// is still resident. The pin is taken under the table read lock
    /// (invariant 3 in [`crate::shared`]).
    fn pin_live(&mut self, id: EntryId, key: u64) -> bool {
        let pin = self.shared.pool_inner().entry_at(id, key, Pin::take);
        let alive = pin.is_some();
        self.pins.extend(pin);
        alive
    }

    /// Record that `id` served as a subsumption source (read lock only).
    /// Under PACED that is a reuse of the source's creator, noted like a
    /// hit's; the paper's policies count exact reuses only.
    fn register_subsumption_source(&mut self, id: EntryId) {
        let shared = &self.shared;
        let used = shared.pool_inner().entry(id, |e| {
            e.last_used.store(shared.next_tick(), Ordering::Relaxed);
            e.subsumption_uses.fetch_add(1, Ordering::Relaxed);
            (Pin::take(e), e.creator)
        });
        if let Some((pin, creator)) = used {
            self.pins.push(pin);
            if shared.config().admission == AdmissionPolicy::Paced {
                self.notes.reuses.push((creator, false));
            }
        }
    }

    /// Give the current query's pins back and hand its notes and counts to
    /// the shared service: `query_end`, or — for a query that never got
    /// there — the next `query_start` or the session's drop.
    fn settle_query(&mut self) -> QueryRecord {
        self.in_query = false;
        self.pins.clear();
        self.shared.flush_accounts(&mut self.notes);
        let record = std::mem::take(&mut self.current);
        self.shared.count_query(&record);
        record
    }

    /// The admission funnel — the body of `recycleExit` (paper Algorithm
    /// 1): `result` was computed by `op` over `args` at cost `cpu`. It is
    /// filed under the instruction's versioned signature, charged
    /// [`Payload::charge_bytes`] against the cap and the session's credit
    /// slice, anchors its lineage in `args`, and leaves through exactly
    /// one of the exits below — every one of which returns what it took
    /// (credit, reservation), so a shed or lost admission costs a future
    /// miss and nothing else.
    fn admit(
        &mut self,
        catalog: &Catalog,
        pc: usize,
        op: Opcode,
        args: &[Value],
        result: &Value,
        cpu: Duration,
    ) {
        let shared = Arc::clone(&self.shared);
        let pool = shared.pool_inner();
        let key: InstrKey = (self.current.template, pc);
        // Deadline shedding: past the soft deadline this query must not
        // pay for cache maintenance — in particular it must not enter
        // `reserve_admission`, whose cap gate is the one place an
        // admission can block behind inline eviction. Skipping the whole
        // exit (including a bind's persistent registration) only costs
        // admissibility of downstream results, i.e. misses.
        if self.past_deadline() {
            shared.count_deadline_skip();
            return;
        }
        let payload = Payload::Raw(result.clone());
        let bytes = payload.charge_bytes(op);
        // a bind registers the persistent buffer it returns first: that
        // identity anchors coherence whether or not the bind is admitted
        let mut lineage = Lineage {
            anchors: bind_anchors(catalog, op, args),
            ..Lineage::default()
        };
        match result {
            Value::Bat(b) if !lineage.anchors.is_empty() => {
                pool.register_persistent(b.id(), lineage.anchors.clone());
            }
            _ => {}
        }
        // Bottom-up matching coherence (paper §4.1: keep whole threads
        // intact): every BAT argument must be reachable as a pool result
        // or a persistent BAT — otherwise coherence cannot be anchored and
        // the admission is skipped. One read of the lineage graph answers
        // every argument. A pool-resident producer becomes a parent and is
        // *pinned* here, so eviction cannot take the prefix out from under
        // this admission; `insert` revalidates it once more inside its
        // critical section (a concurrent update may still invalidate —
        // invariant 6). Nothing is copied from it: what the entry derives
        // from is the graph's to answer. Only a persistent BAT nobody
        // resident produced hands its columns over, as the entry's own
        // anchors. A producer lost between the read and the pin (evicted,
        // invalidated, the pool quarantined) breaks the thread.
        let bats = args.iter().filter_map(Value::as_bat).map(|b| b.id());
        for resolved in pool.resolve(bats) {
            match resolved {
                Resolved::Entry(id, key) if self.pin_live(id, key) => lineage.parents.push(id),
                Resolved::Persistent(columns) => lineage.anchors.extend(columns),
                Resolved::Entry(..) | Resolved::Unknown => {
                    shared.count_admission_reject();
                    return;
                }
            }
        }
        let grant = shared.admission_grant(key, &mut self.notes);
        if !grant.allowed {
            shared.count_admission_reject();
            return;
        }
        // Per-session credit slice (ROADMAP "Admission under contention"):
        // a session past its fair share of the global budget — with the
        // overflow lane closed — is turned away before any room-making
        // work, so one flooding session cannot starve the others'
        // admissions. The footprint charge itself is implicit: the pool's
        // ledger moves the per-session count at the insert/remove funnels.
        if !shared.session_admission_allowed(self.session_id) {
            shared.count_session_budget_reject();
            shared.count_admission_reject();
            shared.undo_admission_charge(key, grant);
            return;
        }
        if !shared.reserve_admission(bytes) {
            shared.count_admission_reject();
            shared.undo_admission_charge(key, grant);
            return;
        }
        let reservation = Reservation {
            shared: &shared,
            bytes,
        };
        // subset semantics for the subsumption machinery (§5.1), recorded
        // atomically with the insert
        let subset_of = match (result, args.first()) {
            (Value::Bat(_), Some(Value::Bat(arg0)))
                if matches!(
                    op,
                    Opcode::Select
                        | Opcode::Uselect
                        | Opcode::Like
                        | Opcode::SelectNotNil
                        | Opcode::Semijoin
                        | Opcode::Diff
                        | Opcode::Kunique
                        | Opcode::Sort
                        | Opcode::TopN
                ) =>
            {
                Some(arg0.id())
            }
            _ => None,
        };
        let entry = PoolEntry::new(
            pool.alloc_id(),
            Sig::versioned(catalog, op, args),
            args.to_vec(),
            payload,
            bytes,
            cpu,
            lineage,
            Admitter {
                tick: shared.next_tick(),
                invocation: self.invocation,
                session: self.session_id,
                creator: key,
            },
        );
        // born pinned on this session's behalf (`PoolEntry::new`)
        let born = Pin::adopt(&entry);
        #[cfg(test)]
        if let Some(hook) = BEFORE_INSERT.take() {
            hook();
        }
        let admitted = pool.insert(entry, subset_of);
        drop(reservation);
        match admitted {
            Admitted::Inserted(_) => {
                self.pins.push(born);
                shared.count_admission();
                self.current.admitted += 1;
                self.current.bytes_admitted += bytes as u64;
            }
            Admitted::Duplicate(existing) => {
                // Concurrent-admission resolution (first writer wins): the
                // pool kept the resident instance, pinned it on our behalf
                // and aliased our result BAT (if any) onto it — all inside
                // the table critical section. Return the credit and take
                // over the pin (gone with the winner if an update removed
                // it since).
                shared.count_duplicate_admission();
                shared.undo_admission_charge(key, grant);
                self.pins.extend(pool.entry(existing, Pin::adopt));
            }
            Admitted::Orphaned | Admitted::Quarantined => {
                // Orphaned: an update invalidated a parent between
                // resolution and insertion — the thread is broken,
                // admitting would leave dangling lineage. Quarantined:
                // the pool sits out after a poisoning panic and refused
                // the candidate without touching torn
                // state. Either way the candidate never entered the pool,
                // so no bytes were counted; the admission credit (when one
                // was charged) goes back to the account so repeated
                // orphaning cannot drain it — degraded mode costs this
                // session a miss, nothing more.
                shared.count_admission_reject();
                shared.undo_admission_charge(key, grant);
            }
        }
    }
}

impl Clone for Recycler {
    /// Cloning attaches a **new session** to the same shared service:
    /// fresh session id, empty query log, no pins. This is what makes the
    /// hook handle cloneable for multi-session engines
    /// ([`rmal::Engine::session`]).
    fn clone(&self) -> Recycler {
        self.shared.session()
    }
}

impl Drop for Recycler {
    /// Closing a session deregisters it from the shared service's active
    /// set, rebalancing every remaining session's credit slice (the slice
    /// divisor is the live active count). Entries this session admitted
    /// stay resident and keep holding budget until eviction or
    /// invalidation removes them. A query that never reached `query_end`
    /// is settled here, so its pins and its notes do not outlive the
    /// session.
    fn drop(&mut self) {
        if self.in_query {
            self.settle_query();
        }
        self.shared.close_session();
    }
}

impl std::fmt::Debug for Recycler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recycler")
            .field("session_id", &self.session_id)
            .field("invocation", &self.invocation)
            .field("pins", &self.pins.len())
            .finish()
    }
}

impl ExecHook for Recycler {
    fn query_start(&mut self, program: &Program) {
        if self.in_query {
            // safety net: the previous query aborted without `query_end`
            self.settle_query();
        }
        self.in_query = true;
        self.invocation = self.shared.next_invocation();
        self.notes.invocation = Some(program.id);
        self.current.template = program.id;
    }

    fn before(
        &mut self,
        catalog: &Catalog,
        pc: usize,
        instr: &Instr,
        args: &[Value],
        t0: Instant,
    ) -> HookAction {
        self.current.monitored += 1;
        // Bind-family signatures carry the table's commit version, so a
        // probe can never exact-match an entry admitted against another
        // commit epoch (see `SigRef::versioned`).
        let sig = SigRef::versioned(catalog, instr.op, args);

        // Phase 1: exact match (paper §3.3) — one table read lock and no
        // other lock (invariant 2 in `crate::shared`).
        if let Some(result) = self.try_hit(&sig) {
            self.current.overhead += t0.elapsed();
            return HookAction::Reuse(result);
        }
        let config = self.shared.config();

        // Phase 2: subsumption (paper §5). The candidates are read under
        // the table read lock; argument values are cloned out, so a
        // concurrent eviction of the source cannot invalidate the rewrite
        // (`Arc`-shared BATs). Past the soft deadline the search (and any
        // piecing) is optional work the query can no longer amortise;
        // exact hits above still served.
        if config.subsumption && !self.past_deadline() {
            let attempt = {
                let pool = self.shared.pool_inner();
                match instr.op {
                    Opcode::Select => subsume::subsume_select(pool, args),
                    Opcode::Uselect => subsume::subsume_uselect(pool, args),
                    Opcode::Like => subsume::subsume_like(pool, args),
                    Opcode::Semijoin => subsume::subsume_semijoin(pool, args),
                    _ => None,
                }
            };
            if let Some(Subsumption::Rewrite {
                args: new_args,
                source,
            }) = attempt
            {
                self.register_subsumption_source(source);
                self.current.subsumed += 1;
                self.current.overhead += t0.elapsed();
                return HookAction::Rewrite(new_args);
            }
            if config.combined_subsumption && instr.op == Opcode::Select {
                let pieced = {
                    let pool = self.shared.pool_inner();
                    match subsume::subsume_combined(pool, args, COMBINED_MAX_CANDIDATES) {
                        Some(Subsumption::Combined {
                            segments,
                            search_time,
                        }) => {
                            self.shared.add_subsume_search(search_time);
                            let exec0 = Instant::now();
                            subsume::execute_combined(pool, &segments)
                                .map(|bat| (segments, bat, exec0.elapsed()))
                        }
                        _ => None,
                    }
                };
                if let Some((segments, bat, cpu)) = pieced {
                    let result = Value::Bat(Arc::new(bat));
                    for (id, _) in &segments {
                        self.register_subsumption_source(*id);
                    }
                    self.current.subsumed += 1;
                    // recycleExit for the pieced result, under the
                    // ORIGINAL signature.
                    self.admit(catalog, pc, instr.op, args, &result, cpu);
                    self.current.overhead += t0.elapsed();
                    return HookAction::Computed(result);
                }
            }
        }
        self.current.overhead += t0.elapsed();
        HookAction::Proceed
    }

    fn after(
        &mut self,
        catalog: &Catalog,
        pc: usize,
        instr: &Instr,
        args: &[Value],
        result: &Value,
        cpu: Duration,
        t0: Instant,
    ) {
        self.admit(catalog, pc, instr.op, args, result, cpu);
        self.current.overhead += t0.elapsed();
    }

    fn query_end(&mut self, _program: &Program) {
        let record = self.settle_query();
        // at most one record moves per query: no bulk trim to show up as
        // a latency outlier every few thousand queries
        if self.query_log.len() == QUERY_LOG_CAP {
            self.query_log.pop_front();
        }
        self.query_log.push_back(record);
    }

    fn update_event(&mut self, report: &CommitReport, catalog: &Catalog) {
        // DDL-free engine: every commit is DML on one table.
        if report.inserted.is_empty() && report.deleted.is_empty() {
            return;
        }
        // Inserts and deletes affect every column of the table (the row
        // set changed); rebuilt indices affect their endpoints (§6.4).
        let mut affected = Anchors::new();
        if let Ok(table) = catalog.table(&report.table) {
            for (c, _) in table.schema() {
                affected.insert((report.table.clone(), c.clone()));
            }
        }
        for idx in &report.rebuilt_indices {
            if let Some(def) = catalog.index_def(idx) {
                affected.insert((def.from_table.clone(), def.from_column.clone()));
                affected.insert((def.to_table.clone(), def.to_key.clone()));
            }
        }
        // One rule for both modes: the lineage graph lists the entries
        // anchored on the affected columns (and forgets the replaced
        // buffers' registrations in the same step); everything derived
        // from those columns hangs below these roots. The rewrite holds the
        // table write lock — taken after the catalog merge, for the
        // invalidation or propagation only — so queries observe the pool
        // entirely before or after it (per-instruction atomicity — a query
        // already past an instruction keeps its pre-update intermediate,
        // as in the paper's transaction-isolation discussion §6.1). A root
        // admitted from a pre-commit snapshot after this read is harmless:
        // its bind thread carries the pre-commit version signature, which
        // no post-commit probe can match.
        let shared = Arc::clone(&self.shared);
        let pool = shared.pool_inner();
        let roots = pool.retire_columns(&affected);
        if roots.is_empty() {
            return;
        }
        let mut view = pool.write_view();
        let removed =
            if shared.config().update_mode == UpdateMode::Propagate && report.deleted.is_empty() {
                // Delta propagation (§6.3) refreshes the bind-family roots in
                // place and walks down from them.
                let outcome = propagate_commit(&mut view, &roots, report, catalog);
                shared.count_propagated(outcome.refreshed);
                outcome.invalidated
            } else {
                // Immediate column-wise invalidation (§6.4). Removal overrides
                // pins — correctness beats retention; stale pins are cleaned
                // up by their sessions' `query_end`.
                view.remove_subtree(&roots)
            };
        drop(view);
        // what the removed entries owe is settled as an eviction's is
        shared.settle_invalidations(&removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::{LogicalType, TableBuilder};
    use rmal::{Engine, ProgramBuilder, P};

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t")
            .column("x", LogicalType::Int)
            .column("y", LogicalType::Int);
        for i in 0..n {
            tb.push_row(&[Value::Int((i * 37) % n), Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        cat
    }

    fn engine(config: RecyclerConfig) -> Engine<Recycler> {
        let mut e = Engine::with_hook(catalog(1000), Recycler::new(config));
        e.add_pass(Box::new(crate::mark::RecycleMark));
        e
    }

    fn range_template() -> rmal::Program {
        let mut b = ProgramBuilder::new("range_count", 2);
        let col = b.bind("t", "x");
        let sel = b.select_closed(col, P(0), P(1));
        let n = b.count(sel);
        b.export("n", n);
        b.finish()
    }

    #[test]
    fn second_invocation_hits() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        let first = e.run(&t, &p).unwrap();
        assert_eq!(first.stats.reused, 0);
        let second = e.run(&t, &p).unwrap();
        assert_eq!(second.stats.reused, second.stats.marked);
        assert_eq!(first.export("n"), second.export("n"));
        assert_eq!(e.hook.stats().global_hits, second.stats.reused as u64);
        e.hook.pool().check_invariants().unwrap();
    }

    #[test]
    fn exact_hits_take_no_write_lock() {
        // The tentpole invariant: once the pool is warm, a 100%-hit query
        // acquires table READ locks only — the write-acquisition counter
        // must not move.
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        e.run(&t, &p).unwrap(); // warm: admissions take write locks
        let w0 = e.hook.pool().write_lock_acquisitions();
        for _ in 0..5 {
            let out = e.run(&t, &p).unwrap();
            assert_eq!(out.stats.reused, out.stats.marked, "all marked must hit");
        }
        let w1 = e.hook.pool().write_lock_acquisitions();
        assert_eq!(w0, w1, "exact-match hits must not take any write lock");
        assert!(e.hook.stats().hits > 0);
    }

    #[test]
    fn different_params_subsume() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let wide = e.run(&t, &[Value::Int(0), Value::Int(900)]).unwrap();
        let narrow = e.run(&t, &[Value::Int(100), Value::Int(500)]).unwrap();
        // bind hits; select runs in subsumed form
        assert!(narrow.stats.reused >= 1);
        assert_eq!(narrow.stats.subsumed, 1);
        // correctness: count equals a fresh engine's answer
        let mut naive = Engine::new(catalog(1000));
        let mut t2 = range_template();
        naive.optimize(&mut t2);
        let expect = naive.run(&t2, &[Value::Int(100), Value::Int(500)]).unwrap();
        assert_eq!(narrow.export("n"), expect.export("n"));
        let _ = wide;
    }

    #[test]
    fn subsumption_can_be_disabled() {
        let mut e = engine(RecyclerConfig::default().subsumption(false));
        let mut t = range_template();
        e.optimize(&mut t);
        e.run(&t, &[Value::Int(0), Value::Int(900)]).unwrap();
        let narrow = e.run(&t, &[Value::Int(100), Value::Int(500)]).unwrap();
        assert_eq!(narrow.stats.subsumed, 0);
    }

    #[test]
    fn entry_limit_caps_pool() {
        let cfg = RecyclerConfig::default().entry_limit(2);
        let mut e = engine(cfg);
        let mut t = range_template();
        e.optimize(&mut t);
        for i in 0..5 {
            e.run(&t, &[Value::Int(i * 10), Value::Int(i * 10 + 100)])
                .unwrap();
        }
        assert!(e.hook.pool().len() <= 2);
        assert!(e.hook.stats().evictions > 0);
        e.hook.pool().check_invariants().unwrap();
    }

    #[test]
    fn mem_limit_respected() {
        let cfg = RecyclerConfig::default().mem_limit(16 * 1024);
        let mut e = engine(cfg);
        let mut t = range_template();
        e.optimize(&mut t);
        for i in 0..6 {
            e.run(&t, &[Value::Int(i * 7), Value::Int(i * 7 + 400)])
                .unwrap();
        }
        assert!(e.hook.pool().bytes() <= 16 * 1024);
        e.hook.pool().check_invariants().unwrap();
    }

    #[test]
    fn credit_policy_stops_admitting() {
        let cfg = RecyclerConfig::default()
            .admission(AdmissionPolicy::Credit(2))
            .subsumption(false);
        let mut e = engine(cfg);
        let mut t = range_template();
        e.optimize(&mut t);
        // disjoint ranges: no reuse, credits drain after 2 admissions
        for i in 0..5 {
            e.run(&t, &[Value::Int(i * 100), Value::Int(i * 100 + 50)])
                .unwrap();
        }
        // bind is admitted once then always hit; the select+count threads
        // spend their credits after 2 instances each
        let selects = e
            .hook
            .pool()
            .snapshot_entries()
            .iter()
            .filter(|en| en.family == "select")
            .count();
        assert_eq!(selects, 2, "credit(2) must cap select instances");
        assert!(e.hook.stats().admission_rejects > 0);
    }

    // ----- the one funnel: every exit returns what it took -------------------

    /// Program counter (and so credit key `(0, PC)`) of every candidate.
    const PC: usize = 1;

    /// A shared service whose `t.x` bind was admitted by a *setup* session,
    /// and a second session about to push candidates over that column
    /// through [`Recycler::admit`] — so this session's own books start at
    /// zero and only its own admissions can move them.
    struct Funnel {
        shared: Arc<SharedRecycler>,
        cat: Catalog,
        setup: Recycler,
        session: Recycler,
        col: Value,
    }

    /// A range select's arguments and its result.
    type Candidate = (Vec<Value>, Value);

    const CPU: Duration = Duration::from_micros(5);

    impl Funnel {
        fn new(config: RecyclerConfig) -> Funnel {
            let shared = SharedRecycler::new(config);
            let cat = catalog(1000);
            let bind_args = [Value::str("t"), Value::str("x")];
            let col = rmal::execute_op(&cat, &Opcode::Bind, &bind_args).unwrap();
            let mut f = Funnel {
                setup: shared.session(),
                session: shared.session(),
                shared,
                cat,
                col,
            };
            f.admit_bind(0);
            f
        }

        /// (Re-)admit the `t.x` bind from the setup session. Under
        /// `Credit(0)` the bind itself is denied; its column is registered
        /// persistent all the same and anchors the candidates' lineage.
        fn admit_bind(&mut self, pc: usize) {
            let args = [Value::str("t"), Value::str("x")];
            self.setup
                .admit(&self.cat, pc, Opcode::Bind, &args, &self.col, CPU);
        }

        /// A range select over `operand` (`tag` keeps signatures apart).
        fn candidate(&self, operand: &Value, tag: i64) -> Candidate {
            let args = vec![
                operand.clone(),
                Value::Int(tag),
                Value::Int(tag + 400),
                Value::Bool(true),
                Value::Bool(true),
            ];
            let result = rmal::execute_op(&self.cat, &Opcode::Select, &args).unwrap();
            (args, result)
        }

        fn admit(&mut self, (args, result): Candidate) {
            self.session
                .admit(&self.cat, PC, Opcode::Select, &args, &result, CPU);
        }

        /// The setup session admits an equivalent candidate first.
        fn first_writer(&mut self, (args, result): &Candidate) {
            self.setup
                .admit(&self.cat, 9, Opcode::Select, args, result, CPU);
        }

        /// What an admission that does not land must leave untouched: the
        /// candidate's credit balance, this session's resident book and
        /// the pending `(bytes, entries)` reservations.
        fn books(&self) -> (i64, u64, (usize, usize)) {
            (
                self.shared.credit_balance((0, PC)),
                self.shared
                    .pool_inner()
                    .resident_of_session(self.session.session_id()),
                self.shared.pending(),
            )
        }
    }

    fn credit(k: u32) -> RecyclerConfig {
        RecyclerConfig::default().admission(AdmissionPolicy::Credit(k))
    }

    /// Unwind a panic through the table write lock: the pool quarantines.
    fn poison(pool: &crate::pool::RecyclePool) {
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _view = pool.write_view();
            panic!("poisoning the pool for the test");
        }));
        assert!(poison.is_err() && pool.has_quarantined());
    }

    /// `arrange` sets the funnel up so that the candidate it returns
    /// leaves through one particular exit; the books must read the same
    /// before and after the admission, `counter` proves the intended exit
    /// was taken, and nothing lands.
    fn assert_exit_refunds(
        exit: &str,
        config: RecyclerConfig,
        counter: fn(&RecyclerStats) -> u64,
        arrange: impl Fn(&mut Funnel) -> Candidate,
    ) {
        let mut f = Funnel::new(config);
        let candidate = arrange(&mut f);
        let (books, stats) = (f.books(), f.shared.stats());
        f.admit(candidate);
        assert_eq!(f.books(), books, "{exit}: books moved");
        let after = f.shared.stats();
        assert_eq!(counter(&after), counter(&stats) + 1, "{exit}: wrong exit");
        assert_eq!(
            after.admissions, stats.admissions,
            "{exit}: the candidate must not land"
        );
        f.shared.maintenance().repair_quarantined();
        f.shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn every_funnel_exit_leaves_the_books_untouched() {
        let rejects = |s: &RecyclerStats| s.admission_rejects;
        assert_exit_refunds(
            "past the soft deadline",
            credit(5),
            |s| s.deadline_skips,
            |f| {
                f.session.set_deadline(Some(Instant::now()));
                f.candidate(&f.col, 1)
            },
        );
        // an operand that no pool entry and no persistent registration
        // vouches for
        assert_exit_refunds("unanchored lineage", credit(5), rejects, |f| {
            let stray =
                rmal::execute_op(&f.cat, &Opcode::Reverse, std::slice::from_ref(&f.col)).unwrap();
            f.candidate(&stray, 1)
        });
        assert_exit_refunds("credit denied", credit(0), rejects, |f| {
            f.candidate(&f.col, 1)
        });
        // slice used up (one resident entry of this session) with the
        // overflow lane closed (the pool holds the whole budget)
        assert_exit_refunds(
            "per-session slice",
            credit(5).session_credits(1),
            |s| s.session_budget_rejects,
            |f| {
                let pool = f.shared.pool_inner();
                let mut own = PoolEntry::test_stub(pool.alloc_id(), -1, vec![], 8);
                own.admitted_session = f.session.session_id();
                assert!(pool.insert(own, None).inserted());
                f.candidate(&f.col, 1)
            },
        );
        // no room beside the (pinned) 64-byte bind, whatever the size
        assert_exit_refunds("cap reservation", credit(5).mem_limit(70), rejects, |f| {
            f.candidate(&f.col, 1)
        });
        // another session's equivalent admission landed first
        assert_exit_refunds(
            "duplicate",
            credit(5),
            |s| s.duplicate_admissions,
            |f| {
                let candidate = f.candidate(&f.col, 1);
                f.first_writer(&candidate);
                assert_eq!(f.shared.pool().len(), 2, "the first writer lands");
                candidate
            },
        );
        // a panic unwound through the table write lock; the candidate
        // stands on the persistent column alone (its bind evicted), so it
        // pins nothing and is refused at the insert
        assert_exit_refunds("quarantined", credit(5), rejects, |f| {
            let pool = f.shared.pool_inner();
            let bind = pool.entry_of_result(f.col.as_bat().unwrap().id());
            assert!(pool.remove(bind.expect("bind resident")).is_some());
            poison(pool);
            f.candidate(&f.col, 1)
        });
    }

    #[test]
    fn a_parent_that_cannot_be_pinned_is_a_pin_time_reject() {
        // The bind resolves in the graph but its pin fails: the pool is
        // quarantined. The funnel leaves at the pin — before it asks the
        // accounts for a credit or reserves capacity, and without reaching
        // the insert — and the books read as before.
        let mut f = Funnel::new(credit(2).mem_limit(1 << 30));
        let candidate = f.candidate(&f.col, 1);
        poison(f.shared.pool_inner());
        let (books, rejects) = (f.books(), f.shared.stats().admission_rejects);
        let writes = f.shared.pool().write_lock_acquisitions();
        let accounts = SharedRecycler::accounts_locks_on_this_thread();
        f.admit(candidate);
        assert_eq!(
            SharedRecycler::accounts_locks_on_this_thread(),
            accounts,
            "no credit was asked for"
        );
        assert_eq!(
            f.shared.pool().write_lock_acquisitions(),
            writes,
            "the insert was never reached"
        );
        assert_eq!(f.books(), books);
        assert_eq!(f.shared.stats().admission_rejects, rejects + 1);
        assert_eq!(f.shared.pool().len(), 1, "only the bind");
        f.shared.maintenance().repair_quarantined();
        f.shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn orphaned_admissions_never_drain_credits_or_bytes() {
        // Regression: an admission whose parent is invalidated between
        // its resolution (parent pinned, credit charged, capacity
        // reserved) and the insert comes back `Admitted::Orphaned`; the
        // funnel must leave the credit account, the session book and the
        // pending reservations exactly where they started, every time —
        // repeated orphaning used to be able to drain an instruction's
        // credits for good. The interleaving is forced by the hook between
        // pin and insert: with the parent pinned and the reservation
        // pending, a commit removes the parent (invalidation overrides
        // pins), and the insert finds it gone.
        let mut f = Funnel::new(credit(2).mem_limit(1 << 30));
        let bytes_before = f.shared.pool().bytes();
        for round in 0..8usize {
            let parent = f
                .shared
                .pool()
                .entry_of_result(f.col.as_bat().unwrap().id())
                .expect("bind resident");
            let candidate = f.candidate(&f.col, 1);
            let (books, rejects) = (f.books(), f.shared.stats().admission_rejects);
            assert_eq!(books.0, 2, "credits drained after {round} orphanings");
            let committer = Arc::clone(&f.shared);
            BEFORE_INSERT.set(Some(Box::new(move || {
                assert_eq!(committer.pending().1, 1, "the reservation is in flight");
                assert!(committer.pool().write_view().remove(parent).is_some());
            })));
            let writes = f.shared.pool().write_lock_acquisitions();
            f.admit(candidate);
            assert_eq!(
                f.shared.pool().write_lock_acquisitions() - writes,
                2,
                "the commit's write lock, then the insert's (parent gone)"
            );
            assert_eq!(f.books(), books, "round {round}");
            assert_eq!(f.shared.stats().admission_rejects, rejects + 1);
            assert!(f.shared.pool().is_empty(), "the orphan never entered");
            f.admit_bind(100 + round);
            // no byte may ever be double-counted for a dropped candidate
            assert_eq!(f.shared.pool().bytes(), bytes_before, "round {round}");
        }
        f.shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn uncharged_grants_refund_nothing() {
        // ADAPT promotes a reused instruction to unlimited admissions,
        // which are *not* charged. A duplicate resolution of such an
        // admission must not mint credits out of thin air: the refund
        // must be exactly what the grant charged.
        let mut f = Funnel::new(RecyclerConfig::default().admission(AdmissionPolicy::Adaptive(1)));
        let key: InstrKey = (0, PC);
        // the first writer lands while its own key still has credit
        let candidate = f.candidate(&f.col, 1);
        f.first_writer(&candidate);
        // burn the starting credit, record a reuse, pass the decision
        // point
        let mut notes = AccountNotes {
            invocation: Some(0),
            ..AccountNotes::default()
        };
        assert!(f.shared.admission_grant(key, &mut notes).charged);
        notes.reuses.push((key, false));
        for _ in 0..2 {
            notes.invocation = Some(0);
            f.shared.flush_accounts(&mut notes);
        }
        let grant = f.shared.admission_grant(key, &mut notes);
        assert!(grant.allowed && !grant.charged, "unlimited keys are free");
        let books = f.books();
        f.admit(candidate);
        assert_eq!(f.shared.stats().duplicate_admissions, 1);
        assert_eq!(f.books(), books, "a free grant refunds nothing");
        let again = f.shared.admission_grant(key, &mut notes);
        assert!(again.allowed && !again.charged);
    }

    #[test]
    fn invalidation_on_update() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(0), Value::Int(500)];
        e.run(&t, &p).unwrap();
        assert!(!e.hook.pool().is_empty());
        e.update("t", vec![vec![Value::Int(1), Value::Int(1)]], vec![])
            .unwrap();
        assert_eq!(
            e.hook.pool().len(),
            0,
            "all intermediates derive from t and must be invalidated"
        );
        // next run recomputes and matches fresh binds
        let out = e.run(&t, &p).unwrap();
        assert_eq!(out.stats.reused, 0);
        let out2 = e.run(&t, &p).unwrap();
        assert!(out2.stats.reused > 0);
    }

    #[test]
    fn untouched_tables_survive_update() {
        let mut cat = catalog(100);
        let mut tb = TableBuilder::new("other").column("z", LogicalType::Int);
        tb.push_row(&[Value::Int(1)]);
        cat.add_table(tb.finish());
        let mut e = Engine::with_hook(cat, Recycler::new(RecyclerConfig::default()));
        e.add_pass(Box::new(crate::mark::RecycleMark));
        let mut t = range_template();
        e.optimize(&mut t);
        e.run(&t, &[Value::Int(0), Value::Int(50)]).unwrap();
        let before = e.hook.pool().len();
        e.update("other", vec![vec![Value::Int(2)]], vec![])
            .unwrap();
        assert_eq!(e.hook.pool().len(), before, "t-derived entries survive");
    }

    #[test]
    fn pool_listing_renders_table1_view() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        e.run(&t, &[Value::Int(5), Value::Int(300)]).unwrap();
        let listing = e.hook.pool().listing();
        assert!(listing.contains("sql.bind"), "{listing}");
        assert!(listing.contains("algebra.select"));
        assert!(listing.contains("bat#"));
        assert!(listing.lines().count() >= 4);
    }

    #[test]
    fn query_log_records() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(1), Value::Int(2)];
        e.run(&t, &p).unwrap();
        e.run(&t, &p).unwrap();
        let log = e.hook.query_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].hits, 0);
        assert!(log[1].hits > 0);
        assert!(log[1].hit_ratio() > 0.9);
    }

    #[test]
    fn query_log_is_a_ring_of_the_newest_records() {
        // Regression: the log used to grow to 2 × QUERY_LOG_CAP and then
        // drain its older half in one ~0.4 MB memmove — a 50–80 µs outlier
        // every 4 096 queries of a session.
        let mut hook = Recycler::new(RecyclerConfig::default());
        let program = range_template();
        for n in 0..3 * QUERY_LOG_CAP as u64 {
            hook.query_start(&program);
            hook.current.monitored = n;
            hook.query_end(&program);
            assert!(hook.query_log().len() <= QUERY_LOG_CAP, "query {n}");
        }
        let kept: Vec<u64> = hook.query_log().iter().map(|r| r.monitored).collect();
        let newest = 2 * QUERY_LOG_CAP as u64..3 * QUERY_LOG_CAP as u64;
        assert_eq!(kept, newest.collect::<Vec<u64>>(), "the newest, in order");
        assert!(
            hook.query_log().capacity() < 2 * QUERY_LOG_CAP,
            "the ring must not hold room for more than it keeps"
        );
    }

    // ----- shared-service behaviour ----------------------------------------

    #[test]
    fn sessions_share_one_pool_and_hit_cross_session() {
        let shared = SharedRecycler::new(RecyclerConfig::default());
        let cat = catalog(1000);
        let mut a = Engine::with_hook(cat.clone(), shared.session());
        a.add_pass(Box::new(crate::mark::RecycleMark));
        let mut b = Engine::with_hook(cat, shared.session());
        b.add_pass(Box::new(crate::mark::RecycleMark));

        let mut t = range_template();
        a.optimize(&mut t);

        let p = [Value::Int(100), Value::Int(600)];
        let first = a.run(&t, &p).unwrap();
        assert_eq!(first.stats.reused, 0);
        // session B reuses session A's intermediates wholesale
        let second = b.run(&t, &p).unwrap();
        assert_eq!(second.stats.reused, second.stats.marked);
        assert_eq!(first.export("n"), second.export("n"));

        let stats = shared.stats();
        assert!(stats.cross_session_hits > 0, "{stats:?}");
        assert_eq!(stats.cross_session_hits, stats.hits);
        assert_eq!(stats.sessions, 2);
        shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn clone_attaches_a_new_session() {
        let r = Recycler::new(RecyclerConfig::default());
        let r2 = r.clone();
        assert_ne!(r.session_id(), r2.session_id());
        assert!(Arc::ptr_eq(r.shared(), r2.shared()));
    }

    #[test]
    fn concurrent_duplicate_admission_first_writer_wins() {
        // Interleave two sessions at the hook level: both probe (miss),
        // both execute, both admit the same bind signature. The pool must
        // keep a single instance and charge the loser nothing.
        let shared = SharedRecycler::new(RecyclerConfig::default());
        let cat = catalog(100);
        let mut s1 = shared.session();
        let mut s2 = shared.session();

        use rmal::optimizer::OptPass as _;
        let mut prog = range_template();
        crate::mark::RecycleMark.run(&mut prog, &cat);
        let bind = prog.instrs[0].clone();
        assert_eq!(bind.op, Opcode::Bind);
        let args = vec![Value::str("t"), Value::str("x")];

        s1.query_start(&prog);
        s2.query_start(&prog);
        // both probe and miss
        assert!(matches!(
            s1.before(&cat, 0, &bind, &args, Instant::now()),
            HookAction::Proceed
        ));
        assert!(matches!(
            s2.before(&cat, 0, &bind, &args, Instant::now()),
            HookAction::Proceed
        ));
        // both execute and admit
        let r1 = rmal::execute_op(&cat, &bind.op, &args).unwrap();
        let r2 = rmal::execute_op(&cat, &bind.op, &args).unwrap();
        s1.after(
            &cat,
            0,
            &bind,
            &args,
            &r1,
            Duration::from_micros(5),
            Instant::now(),
        );
        s2.after(
            &cat,
            0,
            &bind,
            &args,
            &r2,
            Duration::from_micros(5),
            Instant::now(),
        );
        s1.query_end(&prog);
        s2.query_end(&prog);

        let stats = shared.stats();
        assert_eq!(stats.admissions, 1, "single resident instance");
        assert_eq!(stats.duplicate_admissions, 1, "loser resolved explicitly");
        assert_eq!(shared.pool().len(), 1);
        shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn duplicate_loser_chain_stays_admissible() {
        // Race the SELECT (whose executed results carry distinct BatIds,
        // unlike binds, which the catalog caches): the losing session's
        // result is aliased onto the resident entry, so its downstream
        // count still passes admission coherence instead of being
        // silently rejected.
        let shared = SharedRecycler::new(RecyclerConfig::default());
        let cat = catalog(1000);
        let mut s1 = shared.session();
        let mut s2 = shared.session();

        use rmal::optimizer::OptPass as _;
        let mut prog = range_template();
        crate::mark::RecycleMark.run(&mut prog, &cat);
        let bind = prog.instrs[0].clone();
        let select = prog.instrs[1].clone();
        let count = prog.instrs[2].clone();
        let bind_args = vec![Value::str("t"), Value::str("x")];

        s1.query_start(&prog);
        s2.query_start(&prog);
        // s1 admits the bind; s2 hits it — both sessions now hold the
        // same column BAT, so their select signatures agree.
        assert!(matches!(
            s1.before(&cat, 0, &bind, &bind_args, Instant::now()),
            HookAction::Proceed
        ));
        let col = rmal::execute_op(&cat, &bind.op, &bind_args).unwrap();
        s1.after(
            &cat,
            0,
            &bind,
            &bind_args,
            &col,
            Duration::from_micros(5),
            Instant::now(),
        );
        let col2 = match s2.before(&cat, 0, &bind, &bind_args, Instant::now()) {
            HookAction::Reuse(v) => v,
            other => panic!("bind must hit, got {other:?}"),
        };
        // both probe the select before either admits it (the race window)
        let sel_args = |c: &Value| {
            vec![
                c.clone(),
                Value::Int(100),
                Value::Int(600),
                Value::Bool(true),
                Value::Bool(true),
            ]
        };
        let a1 = sel_args(&col);
        let a2 = sel_args(&col2);
        assert!(matches!(
            s1.before(&cat, 1, &select, &a1, Instant::now()),
            HookAction::Proceed
        ));
        assert!(matches!(
            s2.before(&cat, 1, &select, &a2, Instant::now()),
            HookAction::Proceed
        ));
        let sel1 = rmal::execute_op(&cat, &select.op, &a1).unwrap();
        let sel2 = rmal::execute_op(&cat, &select.op, &a2).unwrap();
        assert_ne!(
            sel1.as_bat().unwrap().id(),
            sel2.as_bat().unwrap().id(),
            "distinct materialisations"
        );
        s1.after(
            &cat,
            1,
            &select,
            &a1,
            &sel1,
            Duration::from_micros(5),
            Instant::now(),
        );
        s2.after(
            &cat,
            1,
            &select,
            &a2,
            &sel2,
            Duration::from_micros(5),
            Instant::now(),
        );
        assert_eq!(shared.stats().duplicate_admissions, 1);

        // the loser's downstream count references ITS select result
        let cnt_args = vec![sel2.clone()];
        assert!(matches!(
            s2.before(&cat, 2, &count, &cnt_args, Instant::now()),
            HookAction::Proceed
        ));
        let n = rmal::execute_op(&cat, &count.op, &cnt_args).unwrap();
        let rejects_before = shared.stats().admission_rejects;
        s2.after(
            &cat,
            2,
            &count,
            &cnt_args,
            &n,
            Duration::from_micros(5),
            Instant::now(),
        );
        assert_eq!(
            shared.stats().admission_rejects,
            rejects_before,
            "aliased lineage must keep the loser's chain admissible"
        );
        s1.query_end(&prog);
        s2.query_end(&prog);
        shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn eviction_never_frees_entries_pinned_by_another_session() {
        // Session A starts a query and hits an entry (pinning it); session
        // B then floods a tiny pool. A's pinned entry must survive B's
        // evictions.
        let shared = SharedRecycler::new(RecyclerConfig::default().entry_limit(2));
        let cat = catalog(1000);
        let mut a = Engine::with_hook(cat.clone(), shared.session());
        a.add_pass(Box::new(crate::mark::RecycleMark));
        let mut t = range_template();
        a.optimize(&mut t);
        // admit the bind + select + count thread
        a.run(&t, &[Value::Int(1), Value::Int(2)]).unwrap();
        let protected_sig = shared
            .pool()
            .snapshot_entries()
            .into_iter()
            .find(|e| e.family == "bind")
            .unwrap()
            .sig
            .clone();

        // hold a pin from a simulated in-flight query of session A
        let mut holder = shared.session();
        holder.query_start(&t);
        let bind_instr = t.instrs[0].clone();
        let bind_args = vec![Value::str("t"), Value::str("x")];
        let action = holder.before(&cat, 0, &bind_instr, &bind_args, Instant::now());
        assert!(matches!(action, HookAction::Reuse(_)), "bind must hit");

        // session B floods the pool with disjoint selections
        let mut b = Engine::with_hook(cat.clone(), shared.session());
        b.add_pass(Box::new(crate::mark::RecycleMark));
        for i in 0..6 {
            b.run(&t, &[Value::Int(i * 50), Value::Int(i * 50 + 30)])
                .unwrap();
        }
        assert!(shared.stats().evictions > 0, "pressure must evict");
        assert!(
            shared.pool().lookup(&protected_sig).is_some(),
            "the entry pinned by the in-flight session must survive"
        );
        holder.query_end(&t);
        shared.pool().check_invariants().unwrap();
    }
}
