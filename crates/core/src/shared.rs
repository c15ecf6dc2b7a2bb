//! The shared half of the recycler: one pool, many sessions.
//!
//! The paper's recycler lives inside the server process and is shared by
//! *all* user sessions — cross-query reuse between concurrent query
//! streams is where the SkyServer gains come from (§8). This module holds
//! everything that is per-*server* rather than per-*session*:
//!
//! * the [`RecyclePool`] — a concurrent structure of its own: one
//!   `RwLock` over one table that is entry slab and exact-match index at
//!   once, one [lineage graph](crate::lineage) over the entry ids behind
//!   its own lock, and every byte/entry book in one
//!   [ledger](crate::ledger) moved only under the table write lock;
//! * the admission accounts (PACED, CREDIT, ADAPT) behind one [`Mutex`] —
//!   inherently global (credits are per template instruction: one map
//!   entry each, holding every policy's state for that key) but touched
//!   only on admission decisions and once per query, never per hit (a
//!   session buffers what its hits and subsumption sources owe the
//!   accounts: [`AccountNotes`]; booking one reuse is one map lookup);
//! * lifetime statistics and the event clock as plain atomics, so
//!   sessions never contend just to count (per-hit counters are summed in
//!   the session and added once per query).
//!
//! # Locking invariants
//!
//! 1. **Order:** *maintenance mutex* → *collector round lock* → *eviction
//!    mutex* → *pool table lock* → *leaf locks*. A thread may skip tiers
//!    but never goes back up, and holds the table lock at most once — a
//!    thread holding it (either mode) calls no method that takes it
//!    again. The leaf locks are the pool's lineage-graph lock, the
//!    ledger's per-session book and the accounts mutex, and the one rule
//!    for them is that **a leaf lock is held alone**: it is taken for one
//!    plain map operation and nothing is acquired, and no caller-supplied
//!    code runs, until it is released — so the leaves need no order among
//!    themselves. The collector round lock is the background collector's
//!    quiescence point: every collector round runs under it, and
//!    [`MaintenanceGuard`] acquires it (after the maintenance mutex,
//!    **before** the table lock its operations take) and holds it for its
//!    whole lifetime — maintenance surgery and background eviction rounds
//!    can therefore never interleave, and the guard's acquisition blocks
//!    until the in-flight round, if any, completes. The collector thread
//!    never takes the maintenance mutex, so the hierarchy stays acyclic.
//!    Multi-entry writers — a commit's [`RecyclePool::write_view`],
//!    `clear` and `repair` for maintenance — hold the one table write lock
//!    for their whole rewrite; `check_invariants` holds the read lock.
//! 2. **An exact hit is one table read lock — and no other lock.** A hit
//!    is served entirely under the table's *read* lock: the reuse
//!    counters, last-use stamp, pin count and credit-return flag are
//!    per-entry atomics ([`crate::entry`]). What the hit owes the accounts
//!    waits in the session's [`AccountNotes`] (one accounts-mutex
//!    acquisition per *query*), and its pin is given back at query end by
//!    dropping a guard, not by finding the entry again. The pool's
//!    write- and read-lock counters and
//!    [`SharedRecycler::accounts_locks_on_this_thread`] pin this down in
//!    tests.
//! 3. **Pins are race-free by lock polarity.** Pinning bumps the entry's
//!    atomic pin count under the table *read* lock; eviction checks the
//!    pin count and removes under the table *write* lock. The `RwLock`
//!    serialises the two, so an entry is either pinned before the
//!    eviction check (and skipped) or removed first (and the pinning probe
//!    revalidates and misses). Unpinning takes no lock: a late decrement
//!    can only make eviction skip an entry once more.
//! 4. **No lock across execution:** operator execution happens outside
//!    every lock; only combined-subsumption piecing reads pooled BATs,
//!    entry-by-entry under the table read lock, and `Arc`-shared results
//!    stay valid regardless of eviction.
//! 5. **One funnel; first writer wins, atomically.** Results and operator
//!    state are admitted by the same funnel ([`Recycler`]'s `admit`) and
//!    every exit of it returns what it took (credit, reservation). Racing
//!    duplicate admissions are
//!    resolved inside [`RecyclePool::insert`]'s critical section:
//!    the resident entry stays and is pinned for the loser, the loser's
//!    result BAT is aliased onto it, and the caller returns the admission
//!    credit (`duplicate_admissions`).
//! 6. **Admission coherence is revalidated inside `wire`.** Every BAT
//!    argument is resolved in one read of the lineage graph — a resident
//!    producer, else a registered persistent buffer (the registry is part
//!    of the graph), else the admission is dropped — and the producers are
//!    pinned (a table read lock each) before insertion. The new
//!    entry records them as parents and copies no lineage from them: only
//!    a bind, or an entry standing directly on a persistent buffer, holds
//!    `(table, column)` anchors. [`RecyclePool::insert`]
//!    wires the candidate into the graph in one step under the table
//!    write lock, and that step begins by re-checking every parent: if an
//!    update invalidated one in between, nothing is wired and the
//!    candidate is dropped as orphaned. The orphan check, the parents'
//!    leaf transitions and the new entry's own indexes cannot be observed
//!    apart.
//! 7. **Pins are inviolable to eviction:** an entry pinned by *any*
//!    session is never evicted. When nothing evictable remains, admission
//!    fails instead (`admission_rejects`). Updates override pins —
//!    correctness beats retention. Evictors serialise on the eviction
//!    mutex so concurrent memory pressure does not over-evict — and the
//!    eviction *trigger* is sized from resident demand plus the evicting
//!    admission alone, never from other sessions' in-flight reservations
//!    (phantom demand must not cost resident entries; the strict gate
//!    over-rejects instead). Eviction rounds gather from the lineage
//!    graph's evictable-leaf set (O(leaves), no full-pool scan; pins are
//!    not part of the set — they are filtered at gather and revalidated at
//!    removal) and consume their victims in batches: one table write-lock
//!    acquisition per round
//!    ([`RecyclePool::remove_batch_if_evictable`]). A victim's pin count
//!    is re-read under the write lock and its leaf status inside
//!    `unwire`, the same graph step that removes it — a child wired since
//!    the gather always wins.
//! 8. **Update synchronisation has one rule and one lock:** a commit asks
//!    the lineage graph once for the entries anchored on the columns it
//!    rewrote ([`RecyclePool::retire_columns`], which forgets the replaced
//!    buffers' registrations in the same step — no pool scan);
//!    invalidation removes their subtrees, delta propagation refreshes
//!    from the bind-family ones down. Either runs under the table write
//!    lock ([`RecyclePool::write_view`]), taken after the catalog merge
//!    and held for the rewrite only. Concurrent queries observe the
//!    affected entries entirely before or entirely after the commit;
//!    bind signatures carry the table's commit version
//!    ([`crate::signature::Sig::versioned`]), so an admission racing the
//!    commit from a pre-commit snapshot can never be exact-matched by a
//!    post-commit probe — stale reuse is structurally impossible, the
//!    worst case is an unreachable entry awaiting eviction. Invalidation
//!    still overrides pins — correctness beats retention.
//! 9. **Poison means quarantine, not propagation.** A panic unwinding
//!    through the table write lock may leave the table's slab/index
//!    wiring torn. The pool notices the poisoned lock at the next
//!    acquisition (or via a lock-free `is_poisoned` probe on the hit
//!    path), raises its quarantine flag and degrades: probes miss,
//!    admissions come back [`crate::pool::Admitted::Quarantined`] and are
//!    refunded, eviction skips the pool — the recycler is advisory, so the
//!    worst legal outcome is a cache miss.
//!    [`MaintenanceGuard::repair_quarantined`] (the table write lock,
//!    collector quiesced) rebuilds consistent state from the surviving
//!    table — the lineage graph and the ledger are each re-derived from it
//!    by one function and stored — clears the lock poison and lifts the
//!    quarantine. Callers that can afford the pass run it as soon as they
//!    see a quarantine: the facade's commit before committing, the server
//!    after containing a panicked request.
//! 10. **One payload, one transition, one ledger.** What an entry holds is
//!     a single [`Payload`](crate::entry::Payload); it changes only through
//!     the pool's one transition function (table documented on `Payload`),
//!     under the table write lock, which moves the ledger in the same
//!     step and is — with removal and repair — the only path that retires
//!     a spill ticket. Every book is a pure function of the resident
//!     entries, so `check_invariants` and repair need one sum
//!     (`Ledger::recompute`), not one per book — and one graph
//!     (`LineageGraph::rebuild`), not one pass per index.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rbat::hash::FxHashMap;

use crate::collector::{self, CollectorControl};
use crate::config::{AdmissionPolicy, RecyclerConfig};
use crate::entry::{InstrKey, PoolEntry};
use crate::eviction::{evict, EvictTrigger};
use crate::pool::RecyclePool;
use crate::runtime::Recycler;
use crate::stats::{PoolSnapshot, QueryRecord, RecyclerStats};

/// Outcome of one admission decision: whether the entry may enter the
/// pool, and whether a credit was spent for it (the refundable part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdmissionGrant {
    /// May the candidate be admitted?
    pub allowed: bool,
    /// Was a credit charged for this grant? Only charged grants are
    /// refunded when the admission fails to complete.
    pub charged: bool,
}

impl AdmissionGrant {
    pub(crate) const FREE: AdmissionGrant = AdmissionGrant {
        allowed: true,
        charged: false,
    };
    pub(crate) const CHARGED: AdmissionGrant = AdmissionGrant {
        allowed: true,
        charged: true,
    };
    pub(crate) const DENIED: AdmissionGrant = AdmissionGrant {
        allowed: false,
        charged: false,
    };
}

/// `K` of [`AdmissionPolicy::Paced`]: the balance a template instruction
/// starts with and the cap on it. Chosen by a sweep over {2, 3, 4, 8} on
/// the repo benchmark's `tpch_mix` and `tpch_refresh` (interleaved runs,
/// CHANGES.md): 4 had the best median on both and the lowest `tpch_mix`
/// p99. Smaller balances drain keys whose first reuse comes a few
/// instances late; 8 lets instructions that are never reused churn twice
/// as many instances through a capped pool per phase.
pub const PACED_CREDITS: u32 = 4;

/// One template instruction's admission account — everything any policy
/// keeps per [`InstrKey`], in one map entry, so booking a reuse is one
/// lookup.
#[derive(Debug, Clone, Copy)]
struct KeyAccount {
    /// Credits left: CREDIT's, ADAPT's before its verdict, PACED's balance
    /// in `[0, PACED_CREDITS]`.
    credits: i64,
    /// Reuses of the key's instances booked so far (ADAPT's verdict input).
    reuses: u64,
    /// ADAPT's one-time verdict: unlimited (free) or barred (denied).
    verdict: Option<AdmissionGrant>,
    /// PACED, drained: attempts denied since the key drained or since its
    /// last probation.
    denied: u64,
    /// PACED: probations since the key's last repayment (`j`).
    probations: u32,
}

impl KeyAccount {
    /// Spend one credit, if any is left.
    fn charge(&mut self) -> AdmissionGrant {
        if self.credits > 0 {
            self.credits -= 1;
            AdmissionGrant::CHARGED
        } else {
            AdmissionGrant::DENIED
        }
    }

    /// PACED: spend one credit; a drained key gets one uncharged probation
    /// admission after `2^j` denied attempts.
    fn pace(&mut self) -> AdmissionGrant {
        let grant = self.charge();
        if grant.allowed {
            return grant;
        }
        if self.denied >= 1u64.checked_shl(self.probations).unwrap_or(u64::MAX) {
            self.denied = 0;
            self.probations += 1;
            return AdmissionGrant::FREE;
        }
        self.denied += 1;
        AdmissionGrant::DENIED
    }

    /// PACED: a reuse repays one credit at once, up to the cap, and the
    /// key's probation history starts over.
    fn repay(&mut self) {
        self.credits = (self.credits + 1).min(PACED_CREDITS as i64);
        self.denied = 0;
        self.probations = 0;
    }
}

/// The admission accounts, guarded by their own mutex (a leaf lock: held
/// alone, see the lock order above).
pub(crate) struct AccountState {
    policy: AdmissionPolicy,
    /// The balance an untouched account holds under `policy`.
    start: i64,
    keys: FxHashMap<InstrKey, KeyAccount>,
    /// Invocations per template (ADAPT's decision point).
    template_invocations: FxHashMap<u64, u64>,
}

/// What a session's running query owes the accounts, buffered so that
/// neither `query_start` nor a hit takes the mutex. Booked at query end
/// and — so a credit returned by a local reuse is spendable by the same
/// query — inside the session's next [`SharedRecycler::admission_grant`].
#[derive(Default)]
pub(crate) struct AccountNotes {
    /// The template whose invocation is not yet counted (ADAPT input).
    pub invocation: Option<u64>,
    /// Per reuse: the instance's creator, and whether to return its
    /// admission credit under CREDIT / ADAPT (first local reuse, paper
    /// §4.2). PACED repays every note.
    pub reuses: Vec<(InstrKey, bool)>,
}

impl AccountState {
    fn new(policy: AdmissionPolicy) -> AccountState {
        let start = match policy {
            AdmissionPolicy::KeepAll => 0,
            AdmissionPolicy::Credit(k) | AdmissionPolicy::Adaptive(k) => k as i64,
            AdmissionPolicy::Paced => PACED_CREDITS as i64,
        };
        AccountState {
            policy,
            start,
            keys: FxHashMap::default(),
            template_invocations: FxHashMap::default(),
        }
    }

    /// `key`'s account, opened at the policy's starting balance.
    fn account(&mut self, key: InstrKey) -> &mut KeyAccount {
        ACCOUNT_LOOKUPS.with(|n| n.set(n.get() + 1));
        self.keys.entry(key).or_insert(KeyAccount {
            credits: self.start,
            reuses: 0,
            verdict: None,
            denied: 0,
            probations: 0,
        })
    }

    /// The admission decision for one instance of `key`.
    fn grant(&mut self, key: InstrKey) -> AdmissionGrant {
        match self.policy {
            AdmissionPolicy::KeepAll => AdmissionGrant::FREE,
            AdmissionPolicy::Credit(_) => self.account(key).charge(),
            AdmissionPolicy::Paced => self.account(key).pace(),
            AdmissionPolicy::Adaptive(k) => {
                let invocations = self.template_invocations.get(&key.0).copied();
                let account = self.account(key);
                if let Some(verdict) = account.verdict {
                    return verdict;
                }
                if invocations.unwrap_or(0) <= k as u64 {
                    return account.charge();
                }
                // decision time: reused at least once → unlimited
                let verdict = AdmissionGrant {
                    allowed: account.reuses >= 1,
                    charged: false,
                };
                account.verdict = Some(verdict);
                verdict
            }
        }
    }

    fn take(&mut self, notes: &mut AccountNotes) {
        let policy = self.policy;
        if let (Some(template), AdmissionPolicy::Adaptive(_)) = (notes.invocation.take(), policy) {
            *self.template_invocations.entry(template).or_insert(0) += 1;
        }
        if policy == AdmissionPolicy::KeepAll {
            // nothing reads a KEEPALL account
            notes.reuses.clear();
            return;
        }
        for (creator, return_credit) in notes.reuses.drain(..) {
            let account = self.account(creator);
            account.reuses += 1;
            if policy == AdmissionPolicy::Paced {
                account.repay();
            } else if return_credit {
                account.credits += 1;
            }
        }
    }
}

thread_local! {
    static ACCOUNTS_LOCKS: Cell<u64> = const { Cell::new(0) };
    static ACCOUNT_LOOKUPS: Cell<u64> = const { Cell::new(0) };
}

/// Lifetime counters as atomics: incremented from any session without a
/// lock, snapshot into [`RecyclerStats`] on demand.
#[derive(Default)]
pub(crate) struct SharedStats {
    monitored: AtomicU64,
    hits: AtomicU64,
    local_hits: AtomicU64,
    global_hits: AtomicU64,
    cross_session_hits: AtomicU64,
    subsumed: AtomicU64,
    admissions: AtomicU64,
    admission_rejects: AtomicU64,
    session_budget_rejects: AtomicU64,
    duplicate_admissions: AtomicU64,
    evictions: AtomicU64,
    inline_evictions: AtomicU64,
    background_evictions: AtomicU64,
    invalidated: AtomicU64,
    propagated: AtomicU64,
    deadline_skips: AtomicU64,
    time_saved_ns: AtomicU64,
    overhead_ns: AtomicU64,
    subsume_search_ns: AtomicU64,
    demotions_compressed: AtomicU64,
    demotions_spilled: AtomicU64,
    tier_promotions: AtomicU64,
    decompress_ns: AtomicU64,
    rehydrate_ns: AtomicU64,
}

#[inline]
fn add_ns(cell: &AtomicU64, d: Duration) {
    cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

#[inline]
fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

/// The shared concurrent recycler service: one instance per server, any
/// number of [`Recycler`] session handles attached via [`Self::session`].
pub struct SharedRecycler {
    config: RecyclerConfig,
    pool: RecyclePool,
    accounts: Mutex<AccountState>,
    stats: SharedStats,
    /// Monotone event counter (LRU / HP ageing) — lock-free.
    tick: AtomicU64,
    invocations: AtomicU64,
    session_ids: AtomicU64,
    /// Sessions currently open: attached via [`Self::session`] /
    /// [`Recycler`] clones and not yet dropped. The per-session credit
    /// slice is `session_credits / active_sessions` — rebalanced
    /// implicitly on every open/close because the slice is computed from
    /// the live count at each admission decision. A plain counter (each
    /// `Recycler` opens once on attach and closes once on drop), so the
    /// admission gate stays lock-free.
    active_sessions: std::sync::atomic::AtomicUsize,
    /// Serialises whole maintenance sequences ([`Self::maintenance`]):
    /// each individual operation additionally runs under the pool's table
    /// write lock, so it is atomic with respect to every concurrent
    /// session.
    maintenance_lock: Mutex<()>,
    /// Serialises evictors (the eviction tier of the lock order):
    /// concurrent memory pressure from many sessions must not over-evict
    /// the pool. Shared by the inline admission path and the background
    /// collector's rounds.
    evict_lock: Mutex<()>,
    /// The background collector's control block (condvar, round lock,
    /// water marks, round statistics) — `Arc`-shared with the collector
    /// thread so the thread can hold only a [`std::sync::Weak`] to the
    /// recycler itself. Present even when the collector is disabled (it
    /// is a handful of words); the thread is spawned only when
    /// [`RecyclerConfig::background_collector`] is set and a limit
    /// exists.
    collector: Arc<CollectorControl>,
    /// Bytes reserved by in-flight admissions (capacity checked, entry
    /// not yet inserted). Makes the configured limits *strict* under
    /// concurrency: the capacity check and the insert run under
    /// different locks, so concurrent admissions must see each other's
    /// demand here or they could collectively overshoot the cap.
    pending_bytes: std::sync::atomic::AtomicUsize,
    /// Entry slots reserved by in-flight admissions (see
    /// `pending_bytes`).
    pending_entries: std::sync::atomic::AtomicUsize,
}

/// Read access to the live pool. The pool's own methods lock internally
/// (the table read lock per call), so this is a cheap reference wrapper —
/// it no longer blocks writers for its lifetime.
pub struct PoolRef<'a> {
    pool: &'a RecyclePool,
}

impl Deref for PoolRef<'_> {
    type Target = RecyclePool;

    fn deref(&self) -> &RecyclePool {
        self.pool
    }
}

impl SharedRecycler {
    /// Create a shared recycler service with the given configuration.
    /// When the config enables the background collector (and has a limit
    /// to drain toward), the collector thread is spawned here and joined
    /// on [`Self::shutdown_collector`] / drop.
    pub fn new(config: RecyclerConfig) -> Arc<SharedRecycler> {
        SharedRecycler::with_spill(config, None)
    }

    /// Create a shared recycler service with the disk tier attached:
    /// `spill` is the append-only block file the coldest compressed
    /// entries demote to (`DatabaseBuilder::spill_dir` builds one and
    /// routes it here). The pool takes ownership before it is shared, so
    /// no synchronisation is needed for the attachment itself.
    pub fn with_spill(
        config: RecyclerConfig,
        spill: Option<Arc<crate::tier::SpillFile>>,
    ) -> Arc<SharedRecycler> {
        let mut pool = RecyclePool::new();
        pool.set_spill(spill);
        let shared = Arc::new(SharedRecycler {
            config,
            pool,
            accounts: Mutex::new(AccountState::new(config.admission)),
            stats: SharedStats::default(),
            tick: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            session_ids: AtomicU64::new(0),
            active_sessions: std::sync::atomic::AtomicUsize::new(0),
            maintenance_lock: Mutex::new(()),
            evict_lock: Mutex::new(()),
            collector: Arc::new(CollectorControl::new(&config)),
            pending_bytes: std::sync::atomic::AtomicUsize::new(0),
            pending_entries: std::sync::atomic::AtomicUsize::new(0),
        });
        if config.background_collector
            && (config.mem_limit.is_some() || config.entry_limit.is_some())
        {
            collector::spawn(&shared);
        }
        shared
    }

    /// Attach a new session. Sessions are cheap: a handle plus per-query
    /// scratch state; create one per connection/thread.
    pub fn session(self: &Arc<Self>) -> Recycler {
        Recycler::attach(Arc::clone(self))
    }

    /// The live configuration (immutable after construction — a concurrent
    /// service cannot honour per-session policy changes).
    pub fn config(&self) -> RecyclerConfig {
        self.config
    }

    /// Number of sessions ever attached.
    pub fn session_count(&self) -> u64 {
        self.session_ids.load(Ordering::Relaxed)
    }

    /// Number of sessions currently open (attached and not dropped).
    pub fn active_session_count(&self) -> usize {
        self.active_sessions.load(Ordering::Relaxed)
    }

    /// Register a freshly attached session as active (called by
    /// [`Recycler`](crate::Recycler) on attach). Rebalances every
    /// session's credit slice by growing the divisor.
    pub(crate) fn open_session(&self) {
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregister a dropped session. Its resident entries keep holding
    /// their budget until eviction/invalidation removes them (the pool's
    /// per-session books are released at the removal funnel), but the
    /// slice divisor shrinks immediately.
    pub(crate) fn close_session(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// The per-session admission gate: may `session` admit one more entry
    /// right now? Always true without a configured budget. With a budget
    /// `B` and `n` active sessions, a session below its fair slice
    /// `max(1, B/n)` is *always* admitted (starvation-freedom); beyond the
    /// slice the overflow lane applies — idle capacity is up for grabs
    /// while the pool holds fewer than `B` entries in total. The check is
    /// advisory-exact: concurrent admissions racing the same decision can
    /// overshoot by at most the number of in-flight admissions, never
    /// starve anyone.
    pub(crate) fn session_admission_allowed(&self, session: u64) -> bool {
        let Some(budget) = self.config.session_credits else {
            return true;
        };
        let active = self.active_session_count().max(1) as u64;
        let slice = (budget / active).max(1);
        if self.pool.resident_of_session(session) < slice {
            return true;
        }
        (self.pool.len() as u64) < budget
    }

    /// Acquire the maintenance lock: server-wide pool surgery
    /// ([`MaintenanceGuard::clear_pool`], [`MaintenanceGuard::reset`])
    /// serialises here, and each operation runs atomically against every
    /// concurrent session by taking the pool's table write lock.
    ///
    /// The guard also **quiesces the background collector**: it acquires
    /// the collector's round lock (after the maintenance mutex, before
    /// the table lock — see the lock order above) and holds it
    /// until dropped, waiting out the in-flight round first, so
    /// maintenance surgery and background eviction rounds can never
    /// interleave. The collector resumes automatically when the guard
    /// drops.
    pub fn maintenance(&self) -> MaintenanceGuard<'_> {
        let serial = self
            .maintenance_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        MaintenanceGuard {
            shared: self,
            _serial: serial,
            _quiesce: self.collector.quiesce(),
        }
    }

    // ----- background collector ---------------------------------------------

    pub(crate) fn collector_control(&self) -> &Arc<CollectorControl> {
        &self.collector
    }

    /// Is the collector thread spawned and not yet joined?
    pub fn collector_running(&self) -> bool {
        self.collector.has_handle()
    }

    /// Stop and join the background collector thread (idempotent; a no-op
    /// when the collector was never spawned). Called by the facade when
    /// the `Database` drops — asserting a clean join, no detached-thread
    /// leak — and again from this type's own `Drop` as a backstop for
    /// embedders driving [`SharedRecycler`] directly.
    pub fn shutdown_collector(&self) {
        self.collector.request_stop();
        if let Some(handle) = self.collector.take_handle() {
            if handle.thread().id() == std::thread::current().id() {
                // The last strong reference was dropped ON the collector
                // thread (it had upgraded its Weak mid-activation):
                // joining ourselves would deadlock. The loop is already
                // exiting on the stop flag; dropping the handle detaches
                // a thread with nothing left to run.
                return;
            }
            let _ = handle.join();
        }
    }

    // ----- pool access ------------------------------------------------------

    /// Read access to the pool (diagnostics, tests, experiment harness).
    pub fn pool(&self) -> PoolRef<'_> {
        PoolRef { pool: &self.pool }
    }

    pub(crate) fn pool_inner(&self) -> &RecyclePool {
        &self.pool
    }

    /// Advance and return the event clock.
    pub(crate) fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool content (Table III material).
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot::capture(&self.pool)
    }

    /// Empty the recycle pool (the experiments' "emptied recycle pool"
    /// preparation step) without resetting credit accounts or statistics.
    /// The entry-id counter stays monotone so stale per-session pin sets
    /// can never alias a post-clear entry. Reached through
    /// [`Self::maintenance`] — the operation is server-wide.
    fn clear_pool(&self) {
        self.pool.clear();
    }

    /// Reset pool, accounts and statistics. Affects every attached
    /// session — this is a server-wide operation reached through
    /// [`Self::maintenance`]. Entry ids and the event clock stay monotone
    /// (see [`Self::clear_pool`]).
    fn reset(&self) {
        self.pool.clear();
        *self.lock_accounts() = AccountState::new(self.config.admission);
        // one exhaustive destructuring: a counter added to `SharedStats`
        // does not compile until it is listed here
        macro_rules! zero {
            ($($cell:ident),*) => {{
                let SharedStats { $($cell),* } = &self.stats;
                $($cell.store(0, Ordering::Relaxed);)*
            }};
        }
        zero!(
            monitored,
            hits,
            local_hits,
            global_hits,
            cross_session_hits,
            subsumed,
            admissions,
            admission_rejects,
            session_budget_rejects,
            duplicate_admissions,
            evictions,
            inline_evictions,
            background_evictions,
            invalidated,
            propagated,
            deadline_skips,
            time_saved_ns,
            overhead_ns,
            subsume_search_ns,
            demotions_compressed,
            demotions_spilled,
            tier_promotions,
            decompress_ns,
            rehydrate_ns
        );
        self.collector.reset_stats();
    }

    // ----- admission support ------------------------------------------------

    fn limits_configured(&self) -> bool {
        self.config.mem_limit.is_some() || self.config.entry_limit.is_some()
    }

    fn drop_reservation(&self, need_bytes: usize) {
        self.pending_bytes.fetch_sub(need_bytes, Ordering::Relaxed);
        self.pending_entries.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reserve capacity for one admission of `need_bytes`, evicting if
    /// necessary; returns false (reservation dropped) when room cannot be
    /// made. The capacity check and the eventual insert run under
    /// different locks, so concurrent admissions account their in-flight
    /// demand in the pending counters — the configured limits stay
    /// *strict*: resident bytes/entries never exceed the caps, even with
    /// many sessions admitting at once (an admission may be counted in
    /// both `pending` and the pool for an instant, which only over-rejects,
    /// never overshoots). On success the caller MUST call
    /// [`Self::release_reservation`] once its insert has settled.
    ///
    /// Evictors serialise on the eviction mutex, gather candidates under
    /// the table read lock and write-lock the table once per round.
    /// Pinned entries (any session) are never evicted: when only pinned
    /// leaves remain, admission fails instead — see the locking invariants
    /// above.
    pub(crate) fn reserve_admission(&self, need_bytes: usize) -> bool {
        #[cfg(feature = "failpoints")]
        if let Some(crate::fault::FaultAction::Deny) = crate::fault::fire("admission.reserve") {
            self.count_admission_reject();
            return false;
        }
        let config = self.config;
        if !self.limits_configured() {
            return true; // unlimited: no accounting, no contention
        }
        self.pending_bytes.fetch_add(need_bytes, Ordering::Relaxed);
        self.pending_entries.fetch_add(1, Ordering::Relaxed);
        let ok = self.cap_holds(config.mem_limit, need_bytes, |s| {
            (
                s.pool.bytes(),
                s.pending_bytes.load(Ordering::Relaxed),
                EvictTrigger::Memory,
            )
        }) && self.cap_holds(config.entry_limit, 1, |s| {
            (
                s.pool.len(),
                s.pending_entries.load(Ordering::Relaxed),
                EvictTrigger::Entries,
            )
        });
        if !ok {
            self.drop_reservation(need_bytes);
        }
        if config.background_collector {
            // resident + in-flight demand at or above a high-water mark
            // wakes the collector, which drains toward the low-water mark
            // off the query path; below high water this costs two atomic
            // loads
            self.collector.maybe_signal(
                self.pool.bytes() + self.pending_bytes.load(Ordering::Relaxed),
                self.pool.len() + self.pending_entries.load(Ordering::Relaxed),
            );
        }
        ok
    }

    /// One cap's check-evict-recheck cycle: `measure` reads the resident
    /// and pending units (bytes or entries) and names the eviction trigger
    /// for that unit. Used for both configured limits so the two caps
    /// cannot drift apart behaviourally.
    ///
    /// The admission *gate* stays strict — resident plus every in-flight
    /// reservation must fit under the cap, so concurrent admissions can
    /// only over-reject, never overshoot. The eviction *trigger*, however,
    /// is computed from resident plus **this** admission alone: other
    /// sessions' pending reservations may never land (dropped on
    /// rejection, lost to a duplicate race, orphaned by an update), and
    /// evicting resident entries to cover such phantom demand destroys
    /// cached work for nothing — the over-eviction bug this method once
    /// had. When this admission already fits in resident space, nothing
    /// is evicted at all; the strict gate alone arbitrates.
    fn cap_holds(
        &self,
        limit: Option<usize>,
        this_admission: usize,
        measure: impl Fn(&Self) -> (usize, usize, fn(usize) -> EvictTrigger),
    ) -> bool {
        let Some(limit) = limit else {
            return true;
        };
        if this_admission > limit {
            return false;
        }
        let gate = |s: &Self| {
            let (resident, pending, _) = measure(s);
            resident + pending <= limit
        };
        if gate(self) {
            return true;
        }
        let _g = self.lock_evict();
        // another evictor may have freed enough already
        if gate(self) {
            return true;
        }
        let (resident, pending, trigger) = measure(self);
        // What the gate needs freed vs what this admission justifies
        // freeing. `pending` includes this admission's own reservation,
        // so needed ≥ allowed always; they are equal exactly when no
        // OTHER reservation is in flight. When needed exceeds allowed,
        // even the full permitted eviction could not satisfy the gate —
        // evicting would destroy resident entries only to reject anyway
        // (phantom demand again, through the back door), so reject
        // without touching the pool.
        let needed = (resident + pending).saturating_sub(limit);
        let allowed = (resident + this_admission).saturating_sub(limit);
        if needed > allowed || allowed == 0 {
            return false;
        }
        let evicted = evict(
            &self.pool,
            self.config.eviction,
            trigger(allowed),
            self.current_tick(),
        );
        // this is the INLINE path — eviction latency charged to the
        // admitting query because the pool was genuinely full; with the
        // background collector keeping residency near the low-water mark
        // it should be the rare exception (`inline_evictions` vs
        // `background_evictions` in the stats)
        self.settle_evictions(&evicted, false);
        gate(self)
    }

    /// Release an admission reservation taken by
    /// [`Self::reserve_admission`] — called after the insert settled
    /// (inserted, duplicate or orphaned alike: the resident pool counters
    /// now tell the whole truth).
    pub(crate) fn release_reservation(&self, need_bytes: usize) {
        if self.limits_configured() {
            self.drop_reservation(need_bytes);
        }
    }

    // ----- lock plumbing ----------------------------------------------------

    fn lock_accounts(&self) -> MutexGuard<'_, AccountState> {
        ACCOUNTS_LOCKS.with(|n| n.set(n.get() + 1));
        self.accounts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accounts-mutex acquisitions by the calling thread, on any recycler —
    /// the test probe for "one per query, none per hit".
    pub fn accounts_locks_on_this_thread() -> u64 {
        ACCOUNTS_LOCKS.with(Cell::get)
    }

    /// Lookups of a template instruction's account — to decide an
    /// admission, book a reuse or return a deferred credit — by the calling
    /// thread, on any recycler: the test probe for "one per reuse booked".
    pub fn account_lookups_on_this_thread() -> u64 {
        ACCOUNT_LOOKUPS.with(Cell::get)
    }

    pub(crate) fn lock_evict(&self) -> MutexGuard<'_, ()> {
        self.evict_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // ----- statistics -------------------------------------------------------

    /// Snapshot the lifetime statistics.
    pub fn stats(&self) -> RecyclerStats {
        let s = &self.stats;
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let col = self.collector.stats();
        let tier_bytes = self.pool.tier_bytes();
        RecyclerStats {
            inline_evictions: ld(&s.inline_evictions),
            background_evictions: ld(&s.background_evictions),
            minor_rounds: col.minor_rounds,
            major_rounds: col.major_rounds,
            avg_minor_ms: col.avg_minor_ms,
            avg_major_ms: col.avg_major_ms,
            headroom_bytes: self
                .config
                .mem_limit
                .map(|l| l.saturating_sub(self.pool.bytes()) as u64)
                .unwrap_or(0),
            monitored: ld(&s.monitored),
            hits: ld(&s.hits),
            local_hits: ld(&s.local_hits),
            global_hits: ld(&s.global_hits),
            cross_session_hits: ld(&s.cross_session_hits),
            subsumed: ld(&s.subsumed),
            admissions: ld(&s.admissions),
            admission_rejects: ld(&s.admission_rejects),
            session_budget_rejects: ld(&s.session_budget_rejects),
            duplicate_admissions: ld(&s.duplicate_admissions),
            evictions: ld(&s.evictions),
            leaf_index_size: self.pool.leaf_index_size() as u64,
            evict_gather_visited: self.pool.eviction_gather_visited(),
            evict_gather_rounds: self.pool.eviction_gather_rounds(),
            invalidated: ld(&s.invalidated),
            propagated: ld(&s.propagated),
            deadline_skips: ld(&s.deadline_skips),
            collector_restarts: col.restarts,
            shards_quarantined: self.pool.quarantined_total(),
            shards_repaired: self.pool.repaired_total(),
            quarantined_now: self.pool.has_quarantined() as u64,
            sessions: self.session_count(),
            active_sessions: self.active_session_count() as u64,
            time_saved: Duration::from_nanos(ld(&s.time_saved_ns)),
            overhead: Duration::from_nanos(ld(&s.overhead_ns)),
            subsume_search: Duration::from_nanos(ld(&s.subsume_search_ns)),
            raw_bytes: tier_bytes.0 as u64,
            compressed_bytes: tier_bytes.1 as u64,
            spilled_bytes: tier_bytes.2 as u64,
            demotions_compressed: ld(&s.demotions_compressed),
            demotions_spilled: ld(&s.demotions_spilled),
            tier_promotions: ld(&s.tier_promotions),
            decompress_cost: Duration::from_nanos(ld(&s.decompress_ns)),
            rehydrate_cost: Duration::from_nanos(ld(&s.rehydrate_ns)),
        }
    }

    pub(crate) fn next_invocation(&self) -> u64 {
        self.invocations.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn next_session_id(&self) -> u64 {
        self.session_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add one settled query's counts to the lifetime statistics (the
    /// session sums them, so a hit costs no shared counter).
    pub(crate) fn count_query(&self, record: &QueryRecord) {
        let s = &self.stats;
        for (cell, n) in [
            (&s.monitored, record.monitored),
            (&s.hits, record.hits),
            (&s.local_hits, record.local_hits),
            (&s.global_hits, record.global_hits),
            (&s.cross_session_hits, record.cross_session_hits),
            (&s.subsumed, record.subsumed),
        ] {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        add_ns(&s.time_saved_ns, record.saved);
        add_ns(&s.overhead_ns, record.overhead);
    }

    pub(crate) fn count_admission(&self) {
        bump(&self.stats.admissions);
    }

    pub(crate) fn count_admission_reject(&self) {
        bump(&self.stats.admission_rejects);
    }

    pub(crate) fn count_session_budget_reject(&self) {
        bump(&self.stats.session_budget_rejects);
    }

    pub(crate) fn count_duplicate_admission(&self) {
        bump(&self.stats.duplicate_admissions);
    }

    pub(crate) fn count_deadline_skip(&self) {
        bump(&self.stats.deadline_skips);
    }

    pub(crate) fn count_evictions(&self, n: u64) {
        self.stats.evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_invalidated(&self, n: u64) {
        self.stats.invalidated.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_propagated(&self, n: u64) {
        self.stats.propagated.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_subsume_search(&self, d: Duration) {
        add_ns(&self.stats.subsume_search_ns, d);
    }

    pub(crate) fn count_demotions_compressed(&self, n: u64) {
        self.stats
            .demotions_compressed
            .fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_demotions_spilled(&self, n: u64) {
        self.stats.demotions_spilled.fetch_add(n, Ordering::Relaxed);
    }

    /// Note a hit-side promotion back to raw and the cost paid for it:
    /// decompressing the blob (and, for spilled entries, reading the
    /// record back first — `rehydrate` covers the I/O + decode path).
    pub(crate) fn count_tier_promotion(&self, decompress: Duration, rehydrate: Duration) {
        bump(&self.stats.tier_promotions);
        add_ns(&self.stats.decompress_ns, decompress);
        add_ns(&self.stats.rehydrate_ns, rehydrate);
    }

    // ----- admission accounts ----------------------------------------------

    /// Book a session's buffered notes.
    pub(crate) fn flush_accounts(&self, notes: &mut AccountNotes) {
        self.lock_accounts().take(notes);
    }

    /// The admission decision of `recycleExit` (paper §4.2, ADAPT §7.2,
    /// PACED), made after booking the deciding session's `notes` in the
    /// same critical section. `charged` records whether a credit was
    /// actually spent — the exact amount [`Self::undo_admission_charge`]
    /// may later refund. An admission that is allowed without charge
    /// (KEEPALL, an ADAPT unlimited key, a PACED probation) must never mint
    /// a credit when it fails to complete.
    pub(crate) fn admission_grant(
        &self,
        key: InstrKey,
        notes: &mut AccountNotes,
    ) -> AdmissionGrant {
        let mut acc = self.lock_accounts();
        acc.take(notes);
        acc.grant(key)
    }

    /// `key`'s credit balance: what its CREDIT / ADAPT / PACED account
    /// has left (the policy's starting balance while the account is
    /// untouched; 0 under KEEPALL). A diagnostic — it takes the accounts
    /// mutex.
    pub fn credit_balance(&self, key: InstrKey) -> i64 {
        let acc = self.lock_accounts();
        acc.keys.get(&key).map_or(acc.start, |a| a.credits)
    }

    /// Test probe: `(bytes, entries)` reserved by in-flight admissions.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> (usize, usize) {
        (
            self.pending_bytes.load(Ordering::Relaxed),
            self.pending_entries.load(Ordering::Relaxed),
        )
    }

    /// Return a charged credit after an admission that did not complete
    /// (room could not be made, a concurrent duplicate won the race, or a
    /// parent was invalidated mid-flight and the candidate came back
    /// [`crate::pool::Admitted::Orphaned`]). Refunds exactly what the
    /// grant charged: an uncharged grant refunds nothing.
    pub(crate) fn undo_admission_charge(&self, key: InstrKey, grant: AdmissionGrant) {
        if !grant.charged {
            return;
        }
        let mut acc = self.lock_accounts();
        // a PACED balance may have been repaid to its cap meanwhile
        let cap = match acc.policy {
            AdmissionPolicy::Paced => PACED_CREDITS as i64,
            _ => i64::MAX,
        };
        // (an account `reset` dropped meanwhile is not reopened)
        if let Some(account) = acc.keys.get_mut(&key) {
            account.credits = (account.credits + 1).min(cap);
        }
    }

    /// Settle evicted entries: statistics plus the credits they owe.
    /// `background` attributes the batch to the collector thread rather
    /// than an admitting session's inline path (two disjoint sub-counters
    /// of `evictions`).
    pub(crate) fn settle_evictions(&self, evicted: &[PoolEntry], background: bool) {
        self.count_evictions(evicted.len() as u64);
        let attributed = if background {
            &self.stats.background_evictions
        } else {
            &self.stats.inline_evictions
        };
        attributed.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        self.return_deferred_credits(evicted);
    }

    /// Settle entries a commit removed: statistics plus the credits they
    /// owe — the same as an eviction's.
    pub(crate) fn settle_invalidations(&self, removed: &[PoolEntry]) {
        self.count_invalidated(removed.len() as u64);
        self.return_deferred_credits(removed);
    }

    /// The deferred credit return of CREDIT and ADAPT (paper §4.2): an
    /// instance that was reused globally, and not yet locally, gives its
    /// admission credit back when it leaves the pool — evicted or
    /// invalidated alike. KEEPALL keeps no credits, and PACED repaid every
    /// reuse when it was booked.
    fn return_deferred_credits(&self, removed: &[PoolEntry]) {
        if !matches!(
            self.config.admission,
            AdmissionPolicy::Credit(_) | AdmissionPolicy::Adaptive(_)
        ) {
            return;
        }
        let mut acc = self.lock_accounts();
        for e in removed {
            if e.global_reuses() > 0 && !e.credit_returned() {
                acc.account(e.creator).credits += 1;
            }
        }
    }
}

/// Exclusive handle for server-wide pool maintenance, acquired via
/// [`SharedRecycler::maintenance`] (the facade exposes it as
/// `Database::maintenance()`).
///
/// Semantics: every operation here affects **all** attached sessions — the
/// pool is shared state, there is no session-local clear. Each operation
/// is atomic with respect to concurrent queries (it runs under the pool's
/// table write lock, the same serialisation point update commits use), and
/// whole maintenance sequences
/// serialise against each other on the guard. Sessions keep running
/// afterwards: their pins are gone, which is safe — pins only guard
/// eviction policy, and entry ids stay monotone so a stale pin can never
/// alias a post-clear entry.
///
/// While the guard is alive the **background collector is quiesced**: the
/// guard holds the collector's round lock (acquired after the maintenance
/// mutex, before the table lock — the documented lock order), so
/// no background eviction round can start, and acquisition waited out the
/// round that was in flight. Dropping the guard resumes the collector.
pub struct MaintenanceGuard<'a> {
    shared: &'a SharedRecycler,
    _serial: MutexGuard<'a, ()>,
    _quiesce: MutexGuard<'a, ()>,
}

impl MaintenanceGuard<'_> {
    /// Empty the recycle pool (the experiments' "emptied recycle pool"
    /// preparation step) without touching credit accounts or statistics.
    pub fn clear_pool(&self) {
        self.shared.clear_pool();
    }

    /// Reset pool, admission accounts and lifetime statistics.
    pub fn reset(&self) {
        self.shared.reset();
    }

    /// Repair a quarantined pool and return it to service —
    /// [`RecyclePool::repair`] run at the sanctioned point: the guard
    /// quiesces the background collector and serialises against other
    /// maintenance, and the repair pass itself takes the table write lock
    /// (the same serialisation `clear_pool` uses). Returns what was
    /// dropped; after it, [`RecyclePool::check_invariants`] holds again
    /// and probes serve hits instead of degraded misses.
    pub fn repair_quarantined(&self) -> crate::pool::RepairReport {
        self.shared.pool_inner().repair()
    }
}

impl Drop for SharedRecycler {
    /// Backstop shutdown for embedders driving the service directly: the
    /// facade joins the collector on `Database` drop, but a bare
    /// [`SharedRecycler`] must not leak its thread either. Idempotent —
    /// the handle is taken exactly once.
    fn drop(&mut self) {
        self.shutdown_collector();
    }
}

impl std::fmt::Debug for SharedRecycler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRecycler")
            .field("config", &self.config)
            .field("entries", &self.pool.len())
            .field("bytes", &self.pool.bytes())
            .field("sessions", &self.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_resident(shared: &SharedRecycler, tag: i64, bytes: usize) {
        let pool = shared.pool_inner();
        let e = PoolEntry::test_stub(pool.alloc_id(), tag, vec![], bytes);
        assert!(pool.insert(e, None).inserted());
    }

    /// Regression: another session's in-flight reservation that never
    /// lands (dropped, duplicate-raced or orphaned) must not get resident
    /// entries evicted on its behalf. `cap_holds` used to target
    /// `resident + ALL pending − limit`, so session B's small admission
    /// evicted cached work to make room for session A's phantom demand.
    #[test]
    fn phantom_reservation_does_not_evict_residents() {
        let shared = SharedRecycler::new(RecyclerConfig::default().mem_limit(1000));
        for t in 0..3 {
            put_resident(&shared, t, 100);
        }
        // session A reserves 650 bytes and never completes the admission
        assert!(shared.reserve_admission(650), "room for A: 300 + 650");
        // session B's own demand fits resident space (300 + 100 ≤ 1000):
        // nothing may be evicted, whatever A's reservation says
        let ok_b = shared.reserve_admission(100);
        assert_eq!(shared.pool().len(), 3, "no resident entry evicted");
        assert_eq!(
            shared.stats().evictions,
            0,
            "no eviction for phantom demand"
        );
        // the strict gate still holds: B is over-rejected while A's
        // reservation is outstanding (over-rejection is the benign
        // direction — the caps can never overshoot) ...
        assert!(!ok_b, "B defers to the strict gate, keeping the cap exact");
        // ... and admits cleanly once A's reservation is gone
        shared.release_reservation(650);
        assert!(shared.reserve_admission(100));
        assert_eq!(shared.pool().len(), 3);
        shared.release_reservation(100);
    }

    /// Even when this admission's own demand WOULD justify eviction, no
    /// resident entry goes if the strict gate is unsatisfiable because of
    /// someone else's in-flight reservation: evicting and then rejecting
    /// anyway would be the phantom-demand bug through the back door.
    #[test]
    fn no_evict_then_reject_under_phantom_pressure() {
        let shared = SharedRecycler::new(RecyclerConfig::default().mem_limit(1000));
        for t in 0..3 {
            put_resident(&shared, t, 100);
        }
        assert!(shared.reserve_admission(650), "A reserves and never lands");
        // B's 800 would need eviction on its own (300 + 800 > 1000), but
        // with A's phantom 650 outstanding the gate can never pass —
        // B must be rejected with the pool untouched
        let ok_b = shared.reserve_admission(800);
        assert!(!ok_b);
        assert_eq!(shared.pool().len(), 3, "no resident entry evicted");
        assert_eq!(shared.stats().evictions, 0);
        // once A's reservation drops, the same admission evicts and lands
        shared.release_reservation(650);
        assert!(shared.reserve_admission(800));
        assert!(
            shared.stats().evictions > 0,
            "now the eviction is for B itself"
        );
        shared.release_reservation(800);
    }

    /// An admission whose own demand exceeds the cap still evicts —
    /// exactly enough for itself.
    #[test]
    fn own_demand_still_evicts_exactly_enough() {
        let shared = SharedRecycler::new(RecyclerConfig::default().mem_limit(1000));
        for t in 0..3 {
            put_resident(&shared, t, 100);
        }
        assert!(shared.reserve_admission(800), "evicts 100 to fit 800");
        assert_eq!(
            shared.stats().evictions,
            1,
            "one victim covers 300+800−1000"
        );
        assert_eq!(shared.pool().len(), 2);
        shared.release_reservation(800);
    }

    /// The entry-count cap takes the same phantom-proof path.
    #[test]
    fn phantom_reservation_does_not_evict_under_entry_cap() {
        let shared = SharedRecycler::new(RecyclerConfig::default().entry_limit(4));
        for t in 0..3 {
            put_resident(&shared, t, 10);
        }
        assert!(shared.reserve_admission(10)); // A: 3 resident + 1 pending = 4
        let ok_b = shared.reserve_admission(10); // B: would be the 5th slot
        assert_eq!(shared.pool().len(), 3, "no resident entry evicted");
        assert_eq!(shared.stats().evictions, 0);
        assert!(!ok_b);
        shared.release_reservation(10);
        assert!(shared.reserve_admission(10));
        shared.release_reservation(10);
    }
}
