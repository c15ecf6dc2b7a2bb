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
//!   record of its last query, and its whole-plan memos. Cloning a
//!   `Recycler` attaches a *new* session to the same shared service.
//!
//! The hot path is one pool **read** step per repeated all-hit query, and
//! otherwise one per marked instruction. A query whose every marked
//! instruction hit last time is answered by a *whole-plan replay* (below):
//! one read step for all of them, with no per-instruction dispatch. Any
//! other query walks its marked instructions one by one, and an
//! exact-match hit is one fingerprint over the borrowed arguments, one
//! read lock, no allocation and one clock read of its own: probe, reuse
//! counters, pinning and result cloning are a single
//! [`RecyclePool::probe`] call over per-entry atomics; what the hit owes
//! the rest of the service is summed in the session and handed over
//! once, at query end. Admissions
//! go through one funnel: resolve the BAT arguments and pin their
//! producers under one read lock, then insert — making room first if the
//! pool is full — under one write lock; the new entry records its parents
//! and copies nothing from them. See the locking invariants in
//! [`crate::shared`]. A subsumption attempt is one more read of the
//! pool, which pins and stamps its sources in the same step — the
//! singleton, or the pieces a combined answer is gathered from there
//! ([`crate::subsume`]); either answer is admitted by `after`, like any
//! executed instruction's.
//!
//! # Whole-plan replay
//!
//! *Recording.* Every hit notes the id of the entry it hit. A walk in
//! which every marked instruction hit (so nothing was admitted or
//! subsumed) leaves a memo in the session at `query_end`: the template
//! id, the parameters, the catalog's [generation](Catalog::generation)
//! and the entry ids in pc order, keyed by a fingerprint of (template,
//! parameters) and checked by equality.
//!
//! *Replay.* [`ExecHook::replay`] finds the memo of an equal query and
//! takes one read step: if the generation matches and every id is still
//! resident, it settles each entry, in pc order, and hands the results to
//! the interpreter. The step's time is `overhead`. If a check fails, the
//! memo goes and the query walks; the walk is the only path that records
//! or admits.
//!
//! *Settlement.* Each entry gets what the walk's hit on it would leave
//! behind, at the least cost that leaves it:
//! - **one tick range:** the k ticks are reserved with one step of the
//!   event clock and stamped `T + 1 ..= T + k` in pc order — with no other
//!   session drawing ticks meanwhile, the very ticks the walk's k hits
//!   draw one by one;
//! - **every reuse global:** the invocation began just before the replay,
//!   so it admitted none of the entries — each reuse bumps
//!   `global_reuses`, and no credit flag is touched (only a first *local*
//!   reuse returns a credit);
//! - **no pin:** a pin keeps resident what a query's *later admissions*
//!   hang their lineage on (the pin `resolve` takes — invariant 6 in
//!   [`crate::shared`]). A replayed query admits nothing, and the values
//!   it hands out are `Arc` clones that stay valid whatever is evicted
//!   (invariant 4), so another session may evict a replayed entry before
//!   this query ends and nothing is lost but a later hit;
//! - **as a hit does:** the account note, `saved`, and the hit counters.
//!
//! *Why a replay answers what the walk would.* Entry ids are never
//! reused, and a resident entry never changes; at most one entry per
//! signature is resident (a duplicate admission loses). Take a replay
//! with the recording run's template (a template id names one program,
//! and the memo holds one id per marked instruction), parameters and
//! generation — so the same catalog content — and every memo'd entry
//! resident. Induction over the pcs: the arguments the walk would
//! evaluate at pc are built from constants, parameters, unmarked pure
//! instructions over those, and the results of earlier marked
//! instructions, which by induction are the memo'd entries' results, the
//! very values the recording run used. So the walk's signature at pc is
//! the recording run's, the one resident entry with it is the memo'd one,
//! and the walk would hit exactly it.
//!
//! *Bounds.* No setting: a memo goes when a replay finds it stale, and
//! before the map would outgrow the pool's entry count, stale memos are
//! swept in one read step. No lock is added and the lock order is
//! unchanged; the memos are the session's own.
//!
//! `Recycler::new` remains the one-line way to get a single-session
//! engine: it creates a private `SharedRecycler` under the hood.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbat::catalog::CommitReport;
use rbat::{Catalog, Value};
use rmal::{ExecHook, HookAction, Instr, Opcode, Program};

use crate::config::{AdmissionPolicy, RecyclerConfig};
use crate::entry::{charge_bytes, Admitter, Anchors, EntryId, InstrKey, Lineage, Pin, PoolEntry};
use crate::eviction::Caps;
use crate::pool::{Admitted, RecyclePool};
use crate::shared::{AccountNotes, SharedRecycler};
use crate::signature::{self, ArgSig, FingerprintMap, Sig, SigRef};
use crate::stats::{PoolSnapshot, QueryRecord, RecyclerStats};
use crate::subsume::{self, Subsumption};

/// What an all-hit run of a template over some parameters found: the
/// entry each marked instruction hit, in pc order, and the catalog
/// generation it ran against.
struct PlanMemo {
    template: u64,
    /// Signatures, not values: a BAT parameter is remembered by identity
    /// and not kept alive.
    params: Vec<ArgSig>,
    generation: u64,
    ids: Vec<EntryId>,
}

impl PlanMemo {
    /// Is this the memo of `template` run over `params`?
    fn answers(&self, template: u64, params: &[Value]) -> bool {
        let same = |(memo, param): (&ArgSig, &Value)| memo.matches(param);
        self.template == template
            && self.params.len() == params.len()
            && self.params.iter().zip(params).all(same)
    }
}

/// A session's whole-plan memos (module docs, *Whole-plan replay*).
#[derive(Default)]
struct PlanMemos {
    /// Keyed by the fingerprint of (template, params); a memo answers only
    /// a query equal in both.
    memos: FingerprintMap<PlanMemo>,
    /// The running query, when [`Recycler::replay`] did not answer it: its
    /// key and catalog generation, for `query_end` to record under ...
    pending: Option<(u64, u64)>,
    /// ... its parameters ...
    params: Vec<ArgSig>,
    /// ... and the entries it hit, in pc order (buffers kept across
    /// queries).
    hit_ids: Vec<EntryId>,
    /// Memos the map may hold before stale ones are swept: the pool's
    /// entry count as last read — by a replay or a sweep, in the read step
    /// each takes anyway — or, if more, the hits of the run being recorded
    /// (every one of them was resident a moment ago).
    room: usize,
}

#[cfg(test)]
thread_local! {
    /// Test hook: runs on the admitting thread between the funnel's pins
    /// and its insert — where a racing session wins the admission or a
    /// racing commit orphans the candidate.
    static BEFORE_INSERT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
    /// Test hook: while set, [`Recycler::replay`] never answers, so a
    /// script runs instruction by instruction — the reference a replayed
    /// run is compared with.
    static NO_REPLAY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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

/// A recycler session: implements `recycleEntry`/`recycleExit` around every
/// marked instruction against the shared pool, and keeps the record of
/// this session's last query. Create with [`Recycler::new`] (private pool)
/// or [`SharedRecycler::session`] (shared pool); clone to attach further
/// sessions to the same pool.
pub struct Recycler {
    shared: Arc<SharedRecycler>,
    session_id: u64,
    /// Invocation id of the currently running query (globally unique —
    /// distinguishes local from global reuse).
    invocation: u64,
    /// Between `query_start` and the settling of that query.
    in_query: bool,
    /// One guard per use the current query made of a pool entry while
    /// walking (a replayed query holds none); dropping them at `query_end`
    /// unpins without touching the pool.
    pins: Vec<Pin>,
    /// Whole-plan memos: how this session answers a repeated all-hit
    /// query in one read step.
    plans: PlanMemos,
    /// What the current query owes the shared accounts.
    notes: AccountNotes,
    /// The record of the last query that reached `query_end`.
    last_query: QueryRecord,
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
            plans: PlanMemos::default(),
            notes: AccountNotes::default(),
            last_query: QueryRecord::default(),
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

    /// Live configuration (admission, eviction, limits).
    pub fn config(&self) -> RecyclerConfig {
        self.shared.config()
    }

    /// The shared pool (diagnostics, tests, experiment harness). The pool
    /// locks internally per call — holding this reference blocks nobody.
    pub fn pool(&self) -> &RecyclePool {
        self.shared.pool()
    }

    /// Snapshot of the shared lifetime statistics.
    pub fn stats(&self) -> RecyclerStats {
        self.shared.stats()
    }

    /// The record of *this session's* last query to reach `query_end`
    /// (all zeros before the first).
    pub fn last_query(&self) -> &QueryRecord {
        &self.last_query
    }

    /// Snapshot of the pool content (Table III material).
    pub fn snapshot(&self) -> PoolSnapshot {
        self.shared.snapshot()
    }

    /// Set (or clear) the soft deadline enforced at the recycler's
    /// admission points for queries run through this session. Past the
    /// deadline, admissions are shed before anything is resolved or
    /// inserted — so no inline eviction is paid either — and subsumption
    /// searches are skipped; exact hits still serve (they are the cheap
    /// path). The engine's operator
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

    /// The exact-match probe: one pool read lock, atomics only. On a hit
    /// the reuse counters, last-use stamp, credit flag and pin are all
    /// settled inside the lock; what the accounts and the lifetime
    /// statistics are owed is noted in the session and handed over at query
    /// end. The entry's id is noted too, for a plan memo.
    ///
    /// Kept out of line: inlined into its one caller, `before`, the
    /// all-hit `sky_hot` workload measured ~3 % slower.
    #[inline(never)]
    fn try_hit(&mut self, sig: &SigRef<'_>) -> Option<Value> {
        let Recycler {
            shared,
            pins,
            notes,
            current,
            plans,
            invocation,
            session_id,
            ..
        } = self;
        let (id, value) = shared.pool().probe(sig, |e| {
            e.last_used.store(shared.next_tick(), Ordering::Relaxed);
            let local = e.admitted_invocation == *invocation;
            if local {
                e.local_reuses.fetch_add(1, Ordering::Relaxed);
                current.local_hits += 1;
            } else {
                e.global_reuses.fetch_add(1, Ordering::Relaxed);
                current.global_hits += 1;
            }
            // first *local* reuse returns the admission credit; the CAS
            // makes a racing pair of hits return it exactly once
            let return_credit = local
                && e.credit_returned
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            pins.push(Pin::take(e));
            notes.reuses.push((e.creator, return_credit));
            current.saved += e.cpu;
            current.hits += 1;
            current.cross_session_hits += (e.admitted_session != *session_id) as u64;
            (e.id, e.value().clone())
        })?;
        plans.hit_ids.push(id);
        Some(value)
    }

    /// The whole-plan replay: the memo under `key` answers `program` over
    /// `params` and a catalog of `generation` if it was made for both and
    /// every entry it lists is still resident — then each is settled, in
    /// pc order, as the walk's hit on it would be, all in one read step
    /// (module docs, *Whole-plan replay*). `None`, with nothing reused, if
    /// any check fails.
    fn replay_memo(
        &mut self,
        key: u64,
        generation: u64,
        program: &Program,
        params: &[Value],
    ) -> Option<Vec<Value>> {
        let Recycler {
            shared,
            notes,
            current,
            plans,
            invocation,
            session_id,
            ..
        } = self;
        let memo = plans.memos.get(&key)?;
        if !memo.answers(program.id, params)
            || memo.generation != generation
            || memo.ids.len() != program.marked_count()
        {
            return None;
        }
        let view = shared.pool().read_view();
        // every entry is found before any is used: a failed check reuses
        // nothing
        let mut entries = Vec::with_capacity(memo.ids.len());
        for id in &memo.ids {
            entries.push(view.entry(*id)?);
        }
        // the k ticks the walk's k hits would draw, reserved in one step
        let first = shared.next_ticks(entries.len() as u64);
        let mut values = Vec::with_capacity(entries.len());
        for (tick, e) in (first..).zip(entries) {
            // the invocation began just now: it admitted nothing, so every
            // reuse is global and returns no credit; it admits nothing
            // either, so nothing needs the entry resident — no pin
            debug_assert_ne!(e.admitted_invocation, *invocation);
            e.last_used.store(tick, Ordering::Relaxed);
            e.global_reuses.fetch_add(1, Ordering::Relaxed);
            notes.reuses.push((e.creator, false));
            current.saved += e.cpu;
            current.cross_session_hits += (e.admitted_session != *session_id) as u64;
            values.push(e.value().clone());
        }
        plans.room = view.len();
        drop(view);
        let k = values.len() as u64;
        current.monitored += k;
        current.hits += k;
        current.global_hits += k;
        current.replayed = true;
        Some(values)
    }

    /// Record the plan memo of the query that just ended — every marked
    /// instruction of it hit, [`PlanMemos::hit_ids`] lists them — under
    /// the key and generation [`Self::replay`] left pending. A map that
    /// would outgrow the pool's entry count ([`PlanMemos::room`]) is swept
    /// first, in one read step: memos of another generation or naming an
    /// entry no longer resident go, and if more than half the room is
    /// still taken, all go — so a sweep is paid for by at least half a
    /// room of recordings.
    fn remember(&mut self, template: u64, key: u64, generation: u64) {
        let plans = &mut self.plans;
        plans.room = plans.room.max(plans.hit_ids.len());
        if plans.memos.len() >= plans.room && !plans.memos.contains_key(&key) {
            let view = self.shared.pool().read_view();
            plans.memos.retain(|_, m| {
                m.generation == generation && m.ids.iter().all(|id| view.entry(*id).is_some())
            });
            plans.room = view.len();
            drop(view);
            if plans.memos.len() * 2 > plans.room {
                plans.memos.clear();
            }
        }
        let memo = PlanMemo {
            template,
            params: plans.params.clone(),
            generation,
            ids: plans.hit_ids.clone(),
        };
        plans.memos.insert(key, memo);
    }

    /// Subsumption (paper §5), one more read of the pool: each source —
    /// the singleton, or every piece of a combined answer (§5.2) — is
    /// pinned, stamped and cloned in the step that found it (`Arc`-shared
    /// BATs outlive its eviction). Under PACED a source is a reuse of its
    /// creator, noted like a hit's; the paper's policies count exact reuses
    /// only. A combined answer is admitted by `after`, as an executed
    /// rewrite is.
    ///
    /// Kept out of line, like [`Self::try_hit`], so that `before` — the
    /// all-hit path's caller — stays small.
    #[inline(never)]
    fn try_subsume(
        &mut self,
        instr: &Instr,
        args: &[Value],
        config: RecyclerConfig,
    ) -> Option<HookAction> {
        let paced = config.admission == AdmissionPolicy::Paced;
        let (shared, pins, notes) = (&self.shared, &mut self.pins, &mut self.notes);
        let use_source = |e: &PoolEntry| {
            e.last_used.store(shared.next_tick(), Ordering::Relaxed);
            e.subsumption_uses.fetch_add(1, Ordering::Relaxed);
            pins.push(Pin::take(e));
            if paced {
                notes.reuses.push((e.creator, false));
            }
        };
        let (pool, combined) = (shared.pool(), config.combined_subsumption);
        let action = match subsume::attempt(pool, instr.op, args, combined, use_source)? {
            Subsumption::Rewrite(new_args) => HookAction::Rewrite(new_args),
            Subsumption::Combined {
                result,
                search_time,
            } => {
                shared.add_subsume_search(search_time);
                HookAction::Computed(Value::Bat(Arc::new(result)))
            }
        };
        self.current.subsumed += 1;
        Some(action)
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
    /// [`charge_bytes`] against the cap, anchors its lineage in `args`,
    /// and leaves through exactly one of the exits below — every one of
    /// which returns the credit it took, so a shed or lost admission costs
    /// a future miss and nothing else.
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
        let pool = shared.pool();
        let key: InstrKey = (self.current.template, pc);
        // Deadline shedding: past the soft deadline this query must not
        // pay for cache maintenance — in particular not for the inline
        // eviction an insert into a full pool makes. Skipping the whole
        // exit (including a bind's persistent registration) only costs
        // admissibility of downstream results, i.e. misses.
        if self.past_deadline() {
            shared.count_deadline_skip();
            return;
        }
        let bytes = charge_bytes(op, result);
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
        // the admission is skipped. One read of the pool answers every
        // argument. A pool-resident producer becomes a parent and is
        // *pinned* in that read, so eviction cannot take the prefix out
        // from under this admission; `insert` revalidates it once more
        // inside its write step (a concurrent update may still invalidate
        // — invariant 6). Nothing is copied from it: what the entry
        // derives from is the graph's to answer. Only a persistent BAT
        // nobody resident produced hands its columns over, as the entry's
        // own anchors.
        let bats = args.iter().filter_map(Value::as_bat).map(|b| b.id());
        if !pool.resolve(bats, &mut lineage, &mut self.pins) {
            shared.count_admission_reject();
            return;
        }
        let grant = shared.admission_grant(key, &mut self.notes);
        if !grant.allowed {
            shared.count_admission_reject();
            return;
        }
        // Failpoint: a denied admission is one that found no room.
        #[cfg(feature = "failpoints")]
        if let Some(crate::fault::FaultAction::Deny) = crate::fault::fire("admission.reserve") {
            shared.count_admission_reject();
            shared.undo_admission_charge(key, grant);
            return;
        }
        // the clock eviction ranks by, read before the entry draws its tick
        let caps = Caps::of(&shared.config(), shared.current_tick());
        let entry = PoolEntry::new(
            pool.alloc_id(),
            Sig::versioned(catalog, op, args),
            result.clone(),
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
        let (admitted, evicted) = pool.insert(entry, caps);
        shared.settle_evictions(&evicted);
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
            Admitted::NoRoom | Admitted::Orphaned => {
                // NoRoom: the candidate does not fit and only pinned or
                // parent entries are left to evict. Orphaned: an update
                // invalidated a parent between resolution and insertion —
                // the thread is broken, admitting would leave dangling
                // lineage. Either way the candidate never entered the
                // pool, so no bytes were counted; the admission credit
                // (when one was charged) goes back to the account so
                // repeated orphaning cannot drain it.
                shared.count_admission_reject();
                shared.undo_admission_charge(key, grant);
            }
        }
    }
}

impl Clone for Recycler {
    /// Cloning attaches a **new session** to the same shared service:
    /// fresh session id, no last query, no pins. This is what makes the
    /// hook handle cloneable for multi-session engines
    /// ([`rmal::Engine::session`]).
    fn clone(&self) -> Recycler {
        self.shared.session()
    }
}

impl Drop for Recycler {
    /// Closing a session deregisters it from the shared service's active
    /// set. Entries this session admitted stay resident until eviction or
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
        self.plans.pending = None;
        self.plans.hit_ids.clear();
    }

    /// One read step for a repeated all-hit query (module docs,
    /// *Whole-plan replay*). With no memo for (template, params), or a
    /// stale one — dropped here — the query runs instruction by
    /// instruction, and is remembered at `query_end` if all of it hits.
    fn replay(
        &mut self,
        catalog: &Catalog,
        program: &Program,
        params: &[Value],
    ) -> Option<Vec<Value>> {
        #[cfg(test)]
        if NO_REPLAY.get() {
            return None;
        }
        let key = signature::fingerprint((program.id, params));
        let generation = catalog.generation();
        if self.plans.memos.contains_key(&key) {
            let t0 = Instant::now();
            let values = self.replay_memo(key, generation, program, params);
            self.current.overhead += t0.elapsed();
            if values.is_some() {
                return values;
            }
            self.plans.memos.remove(&key);
        }
        self.plans.pending = Some((key, generation));
        self.plans.params.clear();
        self.plans.params.extend(params.iter().map(ArgSig::of));
        None
    }

    fn before(
        &mut self,
        catalog: &Catalog,
        _pc: usize,
        instr: &Instr,
        args: &[Value],
        t0: Instant,
    ) -> HookAction {
        self.current.monitored += 1;
        // Bind-family signatures carry the table's commit version, so a
        // probe can never exact-match an entry admitted against another
        // commit epoch (see `SigRef::versioned`).
        let sig = SigRef::versioned(catalog, instr.op, args);

        // Phase 1: exact match (paper §3.3) — one pool read lock and no
        // other lock (invariant 2 in `crate::shared`).
        if let Some(result) = self.try_hit(&sig) {
            self.current.overhead += t0.elapsed();
            return HookAction::Reuse(result);
        }
        let config = self.shared.config();

        // Phase 2: subsumption (paper §5). Past the soft deadline the
        // search (and a combined gather) is optional work the query can no
        // longer amortise; exact hits above still served.
        let subsumed = if config.subsumption && !self.past_deadline() {
            self.try_subsume(instr, args, config)
        } else {
            None
        };
        self.current.overhead += t0.elapsed();
        subsumed.unwrap_or(HookAction::Proceed)
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

    fn query_end(&mut self, program: &Program) {
        let record = self.settle_query();
        if let Some((key, generation)) = self.plans.pending.take() {
            // a run that hit at every marked instruction admitted and
            // subsumed nothing
            if record.monitored > 0 && record.hits == record.monitored {
                self.remember(program.id, key, generation);
            }
        }
        self.last_query = record;
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
        // One rule, one write step — taken after the catalog merge, for
        // the invalidation only — so queries observe the pool entirely
        // before or after it (per-instruction atomicity — a query already
        // past an instruction keeps its pre-update intermediate, as in the
        // paper's transaction-isolation discussion §6.1): the lineage
        // graph lists the entries anchored on the affected columns (and
        // forgets the replaced buffers' registrations); everything derived
        // from those columns hangs below these roots. A root admitted from
        // a pre-commit snapshot after this step is harmless: its bind
        // thread carries the pre-commit version signature, which no
        // post-commit probe can match. Immediate column-wise invalidation
        // (§6.4) overrides pins — correctness beats retention; stale pins
        // are cleaned up by their sessions' `query_end`.
        let removed = {
            let mut view = self.shared.pool().write_view();
            let roots = view.retire_columns(&affected);
            view.remove_subtree(&roots)
        };
        // what the removed entries owe is settled as an eviction's is
        self.shared.settle_invalidations(&removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::catalog::CatalogCell;
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
        /// candidate's credit balance and the pool's resident `(bytes,
        /// entries)`.
        fn books(&self) -> (i64, (usize, usize)) {
            let pool = self.shared.pool();
            (
                self.shared.credit_balance((0, PC)),
                (pool.bytes(), pool.len()),
            )
        }
    }

    fn credit(k: u32) -> RecyclerConfig {
        RecyclerConfig::default().admission(AdmissionPolicy::Credit(k))
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
        // no room beside the (pinned) 64-byte bind, whatever the size
        assert_exit_refunds("no room", credit(5).mem_limit(70), rejects, |f| {
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
    }

    #[test]
    fn orphaned_admissions_never_drain_credits_or_bytes() {
        // Regression: an admission whose parent is invalidated between
        // its resolution (parent pinned, credit charged) and the insert
        // comes back `Admitted::Orphaned`; the funnel must leave the
        // credit account exactly where it started, and add nothing to the
        // pool's books, every time — repeated orphaning used to be able to
        // drain an instruction's credits for good. The interleaving is
        // forced by the hook between pin and insert: with the parent
        // pinned, a commit removes the parent (invalidation overrides
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
                assert!(committer.pool().write_view().remove(parent).is_some());
            })));
            let writes = f.shared.pool().write_lock_acquisitions();
            f.admit(candidate);
            assert_eq!(
                f.shared.pool().write_lock_acquisitions() - writes,
                2,
                "the commit's write lock, then the insert's (parent gone)"
            );
            // the pool lost the parent and gained nothing
            assert_eq!(f.books(), (books.0, (0, 0)), "round {round}");
            assert_eq!(f.shared.stats().admission_rejects, rejects + 1);
            assert!(f.shared.pool().is_empty(), "the orphan never entered");
            f.admit_bind(100 + round);
            // no byte may ever be double-counted for a dropped candidate
            assert_eq!(f.shared.pool().bytes(), bytes_before, "round {round}");
        }
        f.shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn a_losing_admission_evicts_nothing() {
        // A pool at its entry cap — the bind and three unpinned leaves
        // over it — and an admission that loses in its write step, forced
        // by the hook between pin and insert: another session admits the
        // same result first, making its own room, or a commit removes the
        // parent. The loser must evict nothing, and the winner must not be
        // refused for the loser's demand.
        const CAP: usize = 4;
        for race in ["duplicate", "orphaned"] {
            let mut f = Funnel::new(credit(5).entry_limit(CAP));
            let program = range_template();
            f.setup.query_start(&program);
            for tag in 100..100 + CAP as i64 - 1 {
                let (args, result) = f.candidate(&f.col, tag);
                f.setup
                    .admit(&f.cat, 9, Opcode::Select, &args, &result, CPU);
            }
            f.setup.query_end(&program); // every pin given back
            assert_eq!(f.shared.pool().len(), CAP, "{race}: the pool is full");
            let candidate = f.candidate(&f.col, 1);
            let (shared, cat, twin) = (Arc::clone(&f.shared), f.cat.clone(), candidate.clone());
            let bind = f.col.as_bat().unwrap().id();
            BEFORE_INSERT.set(Some(Box::new(move || {
                if race == "duplicate" {
                    let (args, result) = twin;
                    let mut winner = shared.session();
                    winner.admit(&cat, 9, Opcode::Select, &args, &result, CPU);
                } else {
                    let bind = shared.pool().entry_of_result(bind).expect("bind resident");
                    assert_eq!(shared.pool().remove_subtree(bind).len(), CAP);
                }
            })));
            let before = f.shared.stats();
            f.admit(candidate);
            let after = f.shared.stats();
            let delta = |counter: fn(&RecyclerStats) -> u64| counter(&after) - counter(&before);
            if race == "duplicate" {
                assert_eq!(delta(|s| s.admissions), 1, "the winner lands");
                assert_eq!(delta(|s| s.duplicate_admissions), 1, "the loser loses");
                assert_eq!(delta(|s| s.admission_rejects), 0, "nobody is refused");
                assert_eq!(delta(|s| s.evictions), 1, "the winner's room, no more");
                assert_eq!(f.shared.pool().len(), CAP);
            } else {
                assert_eq!(delta(|s| s.admission_rejects), 1, "the orphan is dropped");
                assert_eq!(delta(|s| s.evictions), 0, "the orphan evicts nothing");
                assert!(f.shared.pool().is_empty());
            }
            f.shared.pool().check_invariants().unwrap();
        }
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
    fn last_query_records() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(1), Value::Int(2)];
        assert_eq!(e.hook.last_query().monitored, 0, "no query yet");
        e.run(&t, &p).unwrap();
        assert_eq!(e.hook.last_query().hits, 0);
        assert!(e.hook.last_query().admitted > 0);
        e.run(&t, &p).unwrap();
        assert!(e.hook.last_query().hits > 0);
        assert!(e.hook.last_query().hit_ratio() > 0.9);
    }

    // ----- whole-plan replay ------------------------------------------------

    /// Two sessions on one shared catalog and one pool.
    fn sessions_on(cell: &Arc<CatalogCell>, config: RecyclerConfig) -> Vec<Engine<Recycler>> {
        let shared = SharedRecycler::new(config);
        let session = |_| {
            let mut e = Engine::with_shared_catalog(cell, shared.session());
            e.add_pass(Box::new(crate::mark::RecycleMark));
            e
        };
        (0..2).map(session).collect()
    }

    /// `range_template` and a five-entry thread over both columns: a
    /// selection on `y` semijoined into `x`, counted.
    fn replay_templates() -> Vec<rmal::Program> {
        let mut b = ProgramBuilder::new("y_into_x", 2);
        let y = b.bind("t", "y");
        let sel = b.select_closed(y, P(0), P(1));
        let x = b.bind("t", "x");
        let both = b.semijoin(x, sel);
        let n = b.count(both);
        b.export("n", n);
        let e = engine(RecyclerConfig::default());
        let mut templates = vec![range_template(), b.finish()];
        templates.iter_mut().for_each(|t| e.optimize(t));
        templates
    }

    /// A [`QueryRecord`]'s counts: template, monitored, hits, local,
    /// global and cross-session hits, subsumed, admitted and its bytes.
    type QueryCounts = [u64; 9];

    /// What a script leaves behind, clock readings taken out: per query
    /// the exports and the record's counts, per resident entry `(id,
    /// local_reuses, global_reuses, last_used, pins)`, every template
    /// instruction's credit balance, the accounts-mutex acquisitions and
    /// account lookups the script made (one per reuse booked), and the
    /// lifetime statistics.
    #[derive(Debug, PartialEq)]
    struct ScriptOutcome {
        queries: Vec<(Vec<(String, Value)>, QueryCounts)>,
        entries: Vec<(EntryId, u64, u64, u64, u32)>,
        balances: Vec<i64>,
        accounts: (u64, u64),
        stats: RecyclerStats,
    }

    /// Two sessions alternate over `templates` with three parameter pairs
    /// (so most queries repeat one seen before), under a ten-entry cap (so
    /// admissions evict what memos name), with a commit half way. Returns
    /// the outcome and how many queries were replayed.
    fn run_replay_script(
        config: RecyclerConfig,
        templates: &[rmal::Program],
        replay: bool,
    ) -> (ScriptOutcome, usize) {
        NO_REPLAY.set(!replay);
        let locks = SharedRecycler::accounts_locks_on_this_thread();
        let lookups = SharedRecycler::account_lookups_on_this_thread();
        let cell = CatalogCell::new(catalog(1000));
        let mut sessions = sessions_on(&cell, config.entry_limit(10));
        let mut queries = Vec::new();
        let mut replayed = 0;
        for step in 0..96 {
            if step == 48 {
                let row = vec![Value::Int(150), Value::Int(150)];
                sessions[1].update("t", vec![row], vec![]).unwrap();
            }
            let session = &mut sessions[step % 2];
            let template = &templates[(step / 2) % templates.len()];
            let lo = 100 * ((step / 8) % 3) as i64;
            let out = session
                .run(template, &[Value::Int(lo), Value::Int(lo + 400)])
                .unwrap();
            let r = session.hook.last_query();
            replayed += r.replayed as usize;
            let counts = [
                r.template,
                r.monitored,
                r.hits,
                r.local_hits,
                r.global_hits,
                r.cross_session_hits,
                r.subsumed,
                r.admitted,
                r.bytes_admitted,
            ];
            queries.push((out.exports, counts));
        }
        NO_REPLAY.set(false);
        let accounts = (
            SharedRecycler::accounts_locks_on_this_thread() - locks,
            SharedRecycler::account_lookups_on_this_thread() - lookups,
        );
        let shared = Arc::clone(sessions[0].hook.shared());
        let pool = shared.pool();
        pool.check_invariants().unwrap();
        let mut entries = Vec::new();
        pool.for_each_entry(|e| {
            let pins = e.pins.load(Ordering::Relaxed);
            entries.push((
                e.id,
                e.local_reuses(),
                e.global_reuses(),
                e.last_used(),
                pins,
            ));
        });
        entries.sort_unstable();
        let keys = templates
            .iter()
            .flat_map(|t| (0..t.instrs.len()).map(|pc| (t.id, pc)));
        let balances = keys.map(|key| shared.credit_balance(key)).collect();
        let stats = RecyclerStats {
            time_saved: Duration::ZERO,
            overhead: Duration::ZERO,
            subsume_search: Duration::ZERO,
            ..shared.stats()
        };
        let outcome = ScriptOutcome {
            queries,
            entries,
            balances,
            accounts,
            stats,
        };
        (outcome, replayed)
    }

    #[test]
    fn a_replayed_script_leaves_what_the_walked_script_leaves() {
        let templates = replay_templates();
        for admission in [
            AdmissionPolicy::Paced,
            AdmissionPolicy::KeepAll,
            AdmissionPolicy::Credit(3),
        ] {
            let config = RecyclerConfig::default().admission(admission);
            let (walked, none) = run_replay_script(config, &templates, false);
            let (replayed, some) = run_replay_script(config, &templates, true);
            assert_eq!(none, 0, "{admission:?}: replay was suppressed");
            assert!(some >= 8, "{admission:?}: only {some} queries replayed");
            assert_eq!(walked.queries.len(), replayed.queries.len());
            for (i, (w, r)) in walked.queries.iter().zip(&replayed.queries).enumerate() {
                assert_eq!(w, r, "{admission:?}: query {i}");
            }
            assert_eq!(walked, replayed, "{admission:?}");
            // the script did evict and invalidate what memos named
            assert!(walked.stats.evictions > 0 && walked.stats.invalidated > 0);
        }
    }

    /// Warm `template` over `params` in `e` until its runs are replayed.
    fn warm_until_replayed(e: &mut Engine<Recycler>, t: &rmal::Program, p: &[Value]) {
        e.run(t, p).unwrap(); // admits
        e.run(t, p).unwrap(); // all hits: remembered
        assert!(!e.hook.last_query().replayed);
        e.run(t, p).unwrap();
        assert!(e.hook.last_query().replayed, "the third run is replayed");
    }

    /// The answer of a database that never recycles.
    fn naive_answer(cat: &Catalog, p: &[Value]) -> Option<Value> {
        let mut naive = Engine::new(cat.clone());
        let mut t = range_template();
        naive.optimize(&mut t);
        naive.run(&t, p).unwrap().export("n").cloned()
    }

    #[test]
    fn replay_falls_back_across_a_commit() {
        let cell = CatalogCell::new(catalog(1000));
        let mut sessions = sessions_on(&cell, RecyclerConfig::default());
        let mut t = range_template();
        sessions[0].optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        warm_until_replayed(&mut sessions[0], &t, &p);
        let before = sessions[0].run(&t, &p).unwrap().export("n").cloned();

        // the other session commits a row inside the range; a third
        // session, still on the pre-commit snapshot, re-admits the whole
        // thread after the commit's invalidation step — under new ids and
        // the pre-commit bind version
        let stale = cell.snapshot();
        let row = vec![Value::Int(150), Value::Int(0)];
        sessions[1].update("t", vec![row], vec![]).unwrap();
        let shared = Arc::clone(sessions[0].hook.shared());
        let mut late = Engine::with_hook((*stale).clone(), shared.session());
        let late_answer = late.run(&t, &p).unwrap().export("n").cloned();
        assert_eq!(late_answer, before, "the snapshot's answer");
        assert_eq!(late.hook.last_query().admitted, 3, "the thread re-admitted");

        let expect = naive_answer(&cell.snapshot(), &p);
        assert_ne!(expect, before, "the commit moved the answer");
        let after = sessions[0].run(&t, &p).unwrap();
        assert!(!sessions[0].hook.last_query().replayed);
        assert_eq!(after.export("n").cloned(), expect);
        assert_eq!(after.stats.reused, 0, "the post-commit bind is new");
        // the plan is remembered again, and replayed with the new answer
        sessions[0].run(&t, &p).unwrap();
        let again = sessions[0].run(&t, &p).unwrap();
        assert!(sessions[0].hook.last_query().replayed);
        assert_eq!(again.export("n").cloned(), expect);
        shared.pool().check_invariants().unwrap();
    }

    #[test]
    fn replay_falls_back_when_a_memo_entry_was_evicted() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        warm_until_replayed(&mut e, &t, &p);
        let expect = naive_answer(&e.catalog, &p);
        // the count, the thread's one leaf, leaves the pool
        let leaves = e.hook.pool().leaf_ids();
        assert_eq!(leaves.len(), 1);
        assert!(e.hook.pool().remove(leaves[0]).is_some());

        let fallback = e.run(&t, &p).unwrap();
        assert!(!e.hook.last_query().replayed);
        assert_eq!(fallback.export("n").cloned(), expect);
        assert_eq!(e.hook.last_query().admitted, 1, "the count, re-admitted");
        let recording = e.run(&t, &p).unwrap();
        assert!(!e.hook.last_query().replayed, "all hits: remembered again");
        assert_eq!(recording.stats.reused, recording.stats.marked);
        let replayed = e.run(&t, &p).unwrap();
        assert!(e.hook.last_query().replayed);
        assert_eq!(replayed.export("n").cloned(), expect);
        e.hook.pool().check_invariants().unwrap();
    }

    #[test]
    fn a_replay_pins_nothing_and_stamps_one_tick_range() {
        let mut e = engine(RecyclerConfig::default());
        let mut t = range_template();
        e.optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        warm_until_replayed(&mut e, &t, &p);
        let ids = e.hook.plans.memos.values().next().unwrap().ids.clone();
        assert_eq!(ids.len(), t.marked_count());
        let tick = e.hook.shared().current_tick();

        e.hook.query_start(&t);
        let values = e.hook.replay(&e.catalog, &t, &p).expect("replayed");
        assert_eq!(values.len(), ids.len());
        assert!(e.hook.pins.is_empty(), "a replayed query holds no pin");
        let pool = e.hook.pool();
        let settled: Vec<_> = ids
            .iter()
            .map(|id| pool.entry(*id, |en| (en.pin_count(), en.last_used())))
            .collect::<Option<_>>()
            .expect("every memo'd entry resident");
        let stamps: Vec<_> = (tick + 1..).take(ids.len()).map(|t| (0, t)).collect();
        assert_eq!(settled, stamps, "unpinned, stamped T+1..=T+k in pc order");
        e.hook.query_end(&t);
        assert_eq!(e.hook.last_query().global_hits, ids.len() as u64);
        e.hook.pool().check_invariants().unwrap();
    }

    /// Runs `between` right after the wrapped session's replay answers —
    /// inside the replayed query, before its `query_end`.
    struct AfterReplay<'a> {
        session: &'a mut Recycler,
        between: Option<Box<dyn FnOnce() + 'a>>,
    }

    impl ExecHook for AfterReplay<'_> {
        fn query_start(&mut self, program: &Program) {
            self.session.query_start(program);
        }

        fn replay(
            &mut self,
            catalog: &Catalog,
            program: &Program,
            params: &[Value],
        ) -> Option<Vec<Value>> {
            let values = self.session.replay(catalog, program, params)?;
            if let Some(between) = self.between.take() {
                between();
            }
            Some(values)
        }

        fn query_end(&mut self, program: &Program) {
            self.session.query_end(program);
        }
    }

    #[test]
    fn a_replayed_entry_may_be_evicted_before_its_query_ends() {
        // a pool capped at the one thread A replays: bind, select, count
        let cell = CatalogCell::new(catalog(1000));
        let config = RecyclerConfig::default().subsumption(false).entry_limit(3);
        let mut sessions = sessions_on(&cell, config);
        let mut t = range_template();
        sessions[0].optimize(&mut t);
        let p = [Value::Int(100), Value::Int(600)];
        warm_until_replayed(&mut sessions[0], &t, &p);
        let shared = Arc::clone(sessions[0].hook.shared());
        let before = shared.stats();
        let expect = naive_answer(&cell.snapshot(), &p);

        // B admits its own select and count in the middle of A's replayed
        // query: both need room, and only A's entries are unpinned leaves
        let (a, b) = sessions.split_at_mut(1);
        let (a, b) = (&mut a[0], &mut b[0]);
        let (b_template, b_params) = (&t, [Value::Int(700), Value::Int(800)]);
        let out = {
            let mut hook = AfterReplay {
                session: &mut a.hook,
                between: Some(Box::new(move || {
                    b.run(b_template, &b_params).unwrap();
                    assert_eq!(b.hook.last_query().admitted, 2, "B found room");
                })),
            };
            rmal::interp::run(&a.catalog, &t, &p, &mut hook).unwrap()
        };
        assert!(a.hook.last_query().replayed);
        let after = shared.stats();
        let evicted = after.evictions - before.evictions;
        assert_eq!(evicted, 2, "A's select and count");
        assert_eq!(after.admission_rejects, before.admission_rejects);
        assert_eq!(out.export("n").cloned(), expect);
        shared.pool().check_invariants().unwrap();

        // A's memo is stale now: the next run walks, and answers the same
        let again = a.run(&t, &p).unwrap();
        assert!(!a.hook.last_query().replayed);
        assert_eq!(again.export("n").cloned(), expect);
        shared.pool().check_invariants().unwrap();
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
