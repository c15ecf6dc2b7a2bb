//! The shared half of the recycler: one pool, many sessions.
//!
//! The paper's recycler lives inside the server process and is shared by
//! *all* user sessions — cross-query reuse between concurrent query
//! streams is where the SkyServer gains come from (§8). This module holds
//! everything that is per-*server* rather than per-*session*:
//!
//! * the [`RecyclePool`] — a concurrent structure of its own: one
//!   `RwLock` over one table that is entry slab and exact-match index at
//!   once, its resident byte total (moved only under the lock's write
//!   guard) and the one [lineage graph](crate::lineage) over the entry ids;
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
//! 1. **Order:** *pool lock* → *accounts mutex*, and there is no other
//!    lock. A thread holds the pool lock at most once — a thread holding
//!    it (either mode) calls no method that takes it again — and **the
//!    accounts mutex is held alone**: it is taken for one plain map
//!    operation, and nothing is acquired, and no caller-supplied code
//!    runs, until it is released. What a write step takes out of the pool
//!    (evicted or invalidated entries) is settled with the accounts after
//!    the pool lock is released. Every step that changes the pool is one
//!    write guard held for the whole step — an admission with the room it
//!    makes ([`RecyclePool::insert`]), a commit's
//!    [`RecyclePool::write_view`], `clear` for maintenance — so no step
//!    observes another half done. Every read is one hold of the read
//!    guard: a probe, an admission's resolution, a subsumption attempt
//!    (its search, and the pinning and stamping of its source), a
//!    whole-plan replay, a diagnostic such as `len`, `bytes` or
//!    `check_invariants`.
//! 2. **An exact hit is one pool read lock — and no other lock.** A hit
//!    is served entirely under the pool's *read* lock: the reuse
//!    counters, last-use stamp, pin count and credit-return flag are
//!    per-entry atomics ([`crate::entry`]). What the hit owes the accounts
//!    waits in the session's [`AccountNotes`] (one accounts-mutex
//!    acquisition per *query*), and its pin is given back at query end by
//!    dropping a guard, not by finding the entry again. A whole-plan
//!    replay ([`crate::runtime`]) serves the k hits of a repeated all-hit
//!    query under **one** hold of the read guard: it finds all k entries
//!    first, then settles each — reuse counter, one stamp from a k-tick
//!    range, account note — before the guard goes, and pins none of them
//!    (invariant 3): one read lock for the query, and no other lock. The
//!    pool's write- and read-lock counters and
//!    [`SharedRecycler::accounts_locks_on_this_thread`] pin this down in
//!    tests.
//! 3. **Pins are race-free by lock polarity.** Pinning bumps the entry's
//!    atomic pin count under the pool's *read* lock; eviction checks the
//!    pin count and removes under its *write* lock. The `RwLock`
//!    serialises the two, so an entry is either pinned before eviction
//!    gathers (and skipped) or removed first (and the pinning probe
//!    misses). Unpinning takes no lock: a late decrement can only make
//!    eviction skip an entry once more. Only what a query may still hang
//!    an admission on is pinned — its hits, its subsumption sources, the
//!    parents its admissions resolve. A replayed query admits nothing, so
//!    it pins nothing: its values are `Arc` clones (invariant 4), and an
//!    entry it replayed is evictable at once.
//! 4. **No lock across execution:** operator execution happens outside
//!    every lock. A subsumption attempt clones its source's `Arc`-shared
//!    result in its read step; a rewritten instruction runs on that clone,
//!    which stays valid whatever is evicted meanwhile. The one exception is
//!    combined subsumption's gather ([`crate::subsume`]): one scan of the
//!    chosen pieces and one gather over the operand, run under the
//!    attempt's read guard so that a piece is handed over only for an
//!    answer that exists; it clones nothing, and a writer waits for it.
//! 5. **One funnel; first writer wins, atomically.** Every result is
//!    admitted by one funnel ([`Recycler`]'s `admit`) and every exit of it
//!    returns the credit it took. Racing duplicate admissions are
//!    resolved inside [`RecyclePool::insert`]'s write step, before it
//!    makes any room: the resident entry stays and is pinned for the
//!    loser, the loser's result BAT is aliased onto it, nothing is
//!    evicted, and the caller returns the admission credit
//!    (`duplicate_admissions`).
//! 6. **Admission coherence is revalidated in the write step.** Every BAT
//!    argument is resolved, and its resident producer pinned, in one read
//!    of the pool lock — a resident producer, else a registered
//!    persistent buffer (the registry is part of the graph), else the
//!    admission is dropped. The new entry records the producers as
//!    parents and copies no lineage from them: only a bind, or an entry
//!    standing directly on a persistent buffer, holds `(table, column)`
//!    anchors. [`RecyclePool::insert`] re-checks every parent under the
//!    write lock before it makes room: if an update invalidated one in
//!    between, nothing is evicted or wired and the candidate is dropped as
//!    orphaned. The orphan check, the parents' leaf transitions and the
//!    new entry's own indexes cannot be observed apart.
//! 7. **Room is made in the step that admits; pins are inviolable to
//!    it.** An admission that does not fit under the caps evicts unpinned
//!    leaves inside its own write step, then inserts
//!    ([`RecyclePool::insert`], paper §4.3's `recycleExit`): the cap
//!    check, the eviction and the insert cannot be separated, so resident
//!    bytes and entries never exceed the caps at any instant (a debug
//!    assertion checks it after every insert), and an admission evicts
//!    for its own demand alone — nothing is reserved across steps, so no
//!    other session's demand is in flight to count. An entry pinned by
//!    *any* session is never evicted (a replayed entry is not pinned, so
//!    it may be — invariant 3): when nothing evictable remains the
//!    admission fails instead ([`crate::pool::Admitted::NoRoom`],
//!    `admission_rejects`). Updates override pins — correctness beats
//!    retention. Eviction gathers from the lineage graph's evictable-leaf
//!    set (O(leaves), no full-pool scan; pins are not part of the set and
//!    are filtered at gather); under the write lock no victim can be
//!    pinned or gain a child between gather and removal, so nothing is
//!    revalidated and nothing retried.
//! 8. **Update synchronisation has one rule and one write step:** after
//!    the catalog merge, a commit takes the pool's write lock once
//!    ([`RecyclePool::write_view`]); in that step the lineage graph lists
//!    the entries anchored on the columns it rewrote
//!    ([`crate::pool::PoolWriteView::retire_columns`], which forgets the
//!    replaced buffers' registrations — no pool scan) and their subtrees
//!    are removed. Concurrent queries observe the affected entries
//!    entirely before or entirely after the commit; bind signatures carry
//!    the table's commit version
//!    ([`crate::signature::Sig::versioned`]), so an admission racing the
//!    commit from a pre-commit snapshot can never be exact-matched by a
//!    post-commit probe — stale reuse is structurally impossible, the
//!    worst case is an unreachable entry awaiting eviction. Invalidation
//!    still overrides pins — correctness beats retention.
//! 9. **A torn step empties the pool.** A panic unwinding through a
//!    write step may leave the table, the graph or the books torn. The
//!    step's guard ([`crate::pool::PoolWriteView`]) sees the unwind in its
//!    `Drop` and, before the lock unlocks, replaces the table, its byte
//!    total and the graph with empty ones and counts one wipe
//!    (`pool_wipes`). The poisoned lock then guards a consistent, empty
//!    pool, and both lock modes take it without consulting the poison
//!    flag. The recycler is advisory: the next query misses, re-registers
//!    its binds and re-admits — recovery costs misses and nothing else,
//!    with no mending pass and no caller that has to run one.
//! 10. **One result, one byte total.** An entry holds its result `Value`
//!     directly and is immutable once admitted: its value and its charge
//!     never change, so the pool's byte total moves only at insert and at
//!     removal, both under the write lock, and the entry count is the
//!     table's own length. Both are pure functions of the resident
//!     entries, so `check_invariants` needs one sum over the table — and
//!     one graph (`LineageGraph::rebuild`), not one pass per index.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rbat::hash::FxHashMap;

use crate::config::{AdmissionPolicy, RecyclerConfig};
use crate::entry::{InstrKey, PoolEntry};
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

/// The admission accounts, guarded by their own mutex (held alone, see the
/// lock order above).
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
    duplicate_admissions: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
    deadline_skips: AtomicU64,
    time_saved_ns: AtomicU64,
    overhead_ns: AtomicU64,
    subsume_search_ns: AtomicU64,
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
    /// [`Recycler`] clones and not yet dropped — a gauge for the
    /// statistics. A plain counter: each `Recycler` opens once on attach
    /// and closes once on drop.
    active_sessions: std::sync::atomic::AtomicUsize,
}

impl SharedRecycler {
    /// Create a shared recycler service with the given configuration.
    pub fn new(config: RecyclerConfig) -> Arc<SharedRecycler> {
        Arc::new(SharedRecycler {
            config,
            pool: RecyclePool::new(),
            accounts: Mutex::new(AccountState::new(config.admission)),
            stats: SharedStats::default(),
            tick: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            session_ids: AtomicU64::new(0),
            active_sessions: std::sync::atomic::AtomicUsize::new(0),
        })
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
    /// [`Recycler`](crate::Recycler) on attach).
    pub(crate) fn open_session(&self) {
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregister a dropped session. The entries it admitted stay
    /// resident, shared like any other, until eviction or invalidation
    /// removes them.
    pub(crate) fn close_session(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// The handle for server-wide pool surgery
    /// ([`MaintenanceGuard::clear_pool`], [`MaintenanceGuard::reset`]):
    /// each operation runs atomically against every concurrent session —
    /// its queries and their inline eviction alike — by taking the pool's
    /// write lock.
    pub fn maintenance(&self) -> MaintenanceGuard<'_> {
        MaintenanceGuard { shared: self }
    }

    // ----- pool access ------------------------------------------------------

    /// The pool (diagnostics, tests, experiment harness). Its methods lock
    /// internally, per call.
    pub fn pool(&self) -> &RecyclePool {
        &self.pool
    }

    /// Advance and return the event clock.
    pub(crate) fn next_tick(&self) -> u64 {
        self.next_ticks(1)
    }

    /// Advance the event clock by `n` in one step and return the first of
    /// the `n` ticks drawn: `T + 1` of `T + 1 ..= T + n`.
    pub(crate) fn next_ticks(&self, n: u64) -> u64 {
        self.tick.fetch_add(n, Ordering::Relaxed) + 1
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
            duplicate_admissions,
            evictions,
            invalidated,
            deadline_skips,
            time_saved_ns,
            overhead_ns,
            subsume_search_ns
        );
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

    // ----- statistics -------------------------------------------------------

    /// Snapshot the lifetime statistics.
    pub fn stats(&self) -> RecyclerStats {
        let s = &self.stats;
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RecyclerStats {
            inline_evictions: ld(&s.evictions),
            monitored: ld(&s.monitored),
            hits: ld(&s.hits),
            local_hits: ld(&s.local_hits),
            global_hits: ld(&s.global_hits),
            cross_session_hits: ld(&s.cross_session_hits),
            subsumed: ld(&s.subsumed),
            admissions: ld(&s.admissions),
            admission_rejects: ld(&s.admission_rejects),
            duplicate_admissions: ld(&s.duplicate_admissions),
            evictions: ld(&s.evictions),
            leaf_index_size: self.pool.leaf_index_size() as u64,
            evict_gather_visited: self.pool.eviction_gather_visited(),
            evict_gather_rounds: self.pool.eviction_gather_rounds(),
            invalidated: ld(&s.invalidated),
            propagated: 0,
            deadline_skips: ld(&s.deadline_skips),
            pool_wipes: self.pool.wipes(),
            sessions: self.session_count(),
            active_sessions: self.active_session_count() as u64,
            time_saved: Duration::from_nanos(ld(&s.time_saved_ns)),
            overhead: Duration::from_nanos(ld(&s.overhead_ns)),
            subsume_search: Duration::from_nanos(ld(&s.subsume_search_ns)),
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

    pub(crate) fn add_subsume_search(&self, d: Duration) {
        add_ns(&self.stats.subsume_search_ns, d);
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
    pub(crate) fn settle_evictions(&self, evicted: &[PoolEntry]) {
        self.count_evictions(evicted.len() as u64);
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
        if removed.is_empty()
            || !matches!(
                self.config.admission,
                AdmissionPolicy::Credit(_) | AdmissionPolicy::Adaptive(_)
            )
        {
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
/// is atomic with respect to concurrent queries and the evictions their
/// admissions make (it runs under the pool's write lock, the same
/// serialisation point admissions and update commits use). Sessions keep
/// running afterwards: their pins are gone, which is safe — pins only
/// guard eviction policy, and entry ids stay monotone so a stale pin can
/// never alias a post-clear entry.
pub struct MaintenanceGuard<'a> {
    shared: &'a SharedRecycler,
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
    use crate::eviction::Caps;

    /// The room-making step of an admission under the configured byte cap:
    /// with 300 bytes resident under 1000, a 100-byte admission fits as it
    /// is, an 800-byte one evicts one 100-byte leaf — exactly
    /// 300 + 800 − 1000 — and one bigger than the cap evicts nothing.
    #[test]
    fn own_demand_still_evicts_exactly_enough() {
        let shared = SharedRecycler::new(RecyclerConfig::default().mem_limit(1000));
        let pool = shared.pool();
        let admit = |tag: i64, bytes: usize| {
            let e = PoolEntry::test_stub(pool.alloc_id(), tag, vec![], bytes);
            let caps = Caps::of(&shared.config(), shared.current_tick());
            let (admitted, evicted) = pool.insert(e, caps);
            (admitted.inserted(), evicted.len())
        };
        for tag in 0..3 {
            assert_eq!(admit(tag, 100), (true, 0));
        }
        assert_eq!(admit(10, 1001), (false, 0), "alone over the cap");
        assert_eq!(admit(11, 800), (true, 1), "one victim covers 300+800−1000");
        assert_eq!((pool.len(), pool.bytes()), (3, 1000));
        pool.check_invariants().unwrap();
    }
}
