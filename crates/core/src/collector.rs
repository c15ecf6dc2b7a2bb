//! The background collector: a GC-style maintenance thread that keeps
//! admissions off the eviction path.
//!
//! With only inline eviction, an admission that hits the configured cap
//! pays the whole gather-sort-remove cycle on the query path — the
//! `tpch_mixed_lowmem` bench measured 233 gather rounds / 889 evictions
//! charged to admitting queries under a 1 MiB cap. The collector converts
//! that latency into amortised background work: admissions that fit under
//! the cap proceed immediately and merely *signal* the collector when
//! resident + in-flight demand crosses the **high-water mark**; the
//! collector then drains the pool down to the **low-water mark**. Only
//! when the pool is genuinely full (the strict gate at the cap fails)
//! does an admission fall back to the inline path — tracked separately as
//! `inline_evictions` vs `background_evictions` in
//! [`RecyclerStats`](crate::RecyclerStats).
//!
//! The round structure mirrors a generational garbage collector:
//!
//! * **Minor rounds** are cheap sweeps over the *nursery* — a small ring
//!   of recently-leafed entry ids the [lineage graph](crate::lineage)
//!   feeds at its leaf set's 0↔1 transitions (fresh entries, parents
//!   stripped of their last dependent). Fresh leaves are the entries most
//!   likely to be evictable, so a minor round usually finds its victims
//!   without touching the full leaf set.
//! * **Major rounds** — one per [`MINOR_PER_MAJOR`] minors, or
//!   immediately when a minor round comes up empty — run the full
//!   [`evict`] pass over the evictable-leaf set (O(leaves)).
//!
//! With the compression tier on ([`RecyclerConfig::compression`]), every
//! round is preceded by a **demotion rung**: cold leaves are compressed
//! in place (and, when a spill file is configured, the coldest compressed
//! leaves are written out to disk) *before* any eviction victim is
//! selected. Eviction proper becomes the last rung of the residency
//! ladder — hot raw → compressed → spilled → gone.
//!
//! Each activation is bounded by the [`TIMESLICE`] budget: once a burst
//! of rounds exceeds it, the collector re-signals itself and yields, so it
//! can never monopolise the eviction mutex against inline admitters (or
//! starve maintenance, which quiesces it via the round lock).
//!
//! # Lifecycle and locking
//!
//! The thread holds a [`Weak`] reference to its [`SharedRecycler`] —
//! upgraded per activation — so the service's refcount cycle is broken
//! and the recycler can drop while the thread sleeps. Shutdown is
//! explicit and idempotent ([`SharedRecycler::shutdown_collector`],
//! called from the facade's `Database` drop and from the recycler's own
//! `Drop` as a backstop): set the stop flag, notify, join. Every round
//! runs under the **round lock**, which sits between the maintenance
//! lock and the eviction mutex in the documented lock order (see
//! [`crate::shared`]); `MaintenanceGuard` holds it for its whole
//! lifetime, so maintenance surgery and collector rounds can never
//! interleave.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbat::hash::FxHashSet;
use rbat::{Bat, Value};

use crate::config::RecyclerConfig;
use crate::entry::{EntryId, Payload, PoolEntry};
use crate::eviction::{evict, policy_key, EvictTrigger};
use crate::pool::RecyclePool;
use crate::shared::SharedRecycler;
use crate::tier::CompressedBat;

/// Sleep between wake-ups when no admission signals the collector — a
/// safety net against lost notifications; pressure is normally
/// condvar-driven.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Nursery ids consumed per minor round.
const MINOR_BATCH: usize = 64;

/// Entries demoted per rung per demote round (mirrors [`MINOR_BATCH`]:
/// each round does a bounded slice of work and yields the round lock).
const DEMOTE_BATCH: usize = 64;

/// Cap on the remembered-incompressible id set; crossing it clears the
/// set wholesale (bounded memory at the price of a rare re-proof).
const INCOMPRESSIBLE_CAP: usize = 4096;

/// Minor rounds (cheap sweeps over the nursery) per major round (a full
/// pass over the evictable-leaf set).
const MINOR_PER_MAJOR: u64 = 8;

/// Wall-time budget of one collector activation: a burst of rounds that
/// has spent this much yields and reschedules itself, so the collector can
/// never monopolise the eviction mutex against inline admitters.
const TIMESLICE: Duration = Duration::from_millis(4);

/// Raw entries below this size are never compressed: tiny intermediates
/// cost more per-entry codec overhead than their bytes are worth.
const COMPRESS_MIN_BYTES: usize = 256;

struct Flags {
    signalled: bool,
    stop: bool,
}

/// The collector's control block, owned by [`SharedRecycler`] and shared
/// (via `Arc`) with the collector thread so the thread can outlive its
/// last activation without keeping the recycler alive.
pub(crate) struct CollectorControl {
    state: Mutex<Flags>,
    cv: Condvar,
    /// Every collector round runs under this lock; `MaintenanceGuard`
    /// holds it for its lifetime to quiesce the collector. Tier: after
    /// the maintenance lock, before the eviction mutex.
    round_lock: Mutex<()>,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Absolute water marks, resolved from the config's ratios once.
    low_bytes: Option<usize>,
    high_bytes: Option<usize>,
    low_entries: Option<usize>,
    high_entries: Option<usize>,
    minors_since_major: AtomicU64,
    minor_rounds: AtomicU64,
    major_rounds: AtomicU64,
    minor_ns: AtomicU64,
    major_ns: AtomicU64,
    /// Activations that panicked and were restarted by the thread's
    /// supervisor loop instead of silently killing the collector.
    restarts: AtomicU64,
    /// Entry ids whose payloads the codec sampler could not shrink —
    /// skipped by later demote rounds so the collector doesn't burn CPU
    /// re-proving the same bytes incompressible. Cleared wholesale past
    /// [`INCOMPRESSIBLE_CAP`].
    incompressible: Mutex<FxHashSet<EntryId>>,
}

/// Round-count / mean-duration snapshot for [`crate::RecyclerStats`].
pub(crate) struct CollectorStats {
    pub(crate) minor_rounds: u64,
    pub(crate) major_rounds: u64,
    pub(crate) avg_minor_ms: f64,
    pub(crate) avg_major_ms: f64,
    pub(crate) restarts: u64,
}

impl CollectorControl {
    pub(crate) fn new(config: &RecyclerConfig) -> CollectorControl {
        let mark = |limit: Option<usize>, ratio: f64| {
            limit.map(|l| (((l as f64) * ratio) as usize).min(l))
        };
        CollectorControl {
            state: Mutex::new(Flags {
                signalled: false,
                stop: false,
            }),
            cv: Condvar::new(),
            round_lock: Mutex::new(()),
            handle: Mutex::new(None),
            low_bytes: mark(config.mem_limit, config.low_water_ratio),
            high_bytes: mark(config.mem_limit, config.high_water_ratio),
            low_entries: mark(config.entry_limit, config.low_water_ratio),
            high_entries: mark(config.entry_limit, config.high_water_ratio),
            minors_since_major: AtomicU64::new(0),
            minor_rounds: AtomicU64::new(0),
            major_rounds: AtomicU64::new(0),
            minor_ns: AtomicU64::new(0),
            major_ns: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            incompressible: Mutex::new(FxHashSet::default()),
        }
    }

    fn is_incompressible(&self, id: EntryId) -> bool {
        self.incompressible
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&id)
    }

    fn note_incompressible(&self, id: EntryId) {
        let mut set = self
            .incompressible
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if set.len() >= INCOMPRESSIBLE_CAP {
            set.clear();
        }
        set.insert(id);
    }

    fn lock_state(&self) -> MutexGuard<'_, Flags> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake the collector if resident + in-flight demand sits at or above
    /// a high-water mark. Two atomic loads and (rarely) one short mutex —
    /// the admission hot path below high water pays almost nothing.
    pub(crate) fn maybe_signal(&self, bytes: usize, entries: usize) {
        let pressed = self.high_bytes.map(|h| bytes >= h).unwrap_or(false)
            || self.high_entries.map(|h| entries >= h).unwrap_or(false);
        if !pressed {
            return;
        }
        let mut st = self.lock_state();
        if !st.signalled {
            st.signalled = true;
            self.cv.notify_one();
        }
    }

    /// Re-arm the signal (timeslice expired with pressure left over).
    fn resignal(&self) {
        let mut st = self.lock_state();
        st.signalled = true;
        self.cv.notify_one();
    }

    /// Block until signalled or stopped; `false` means stop. A timeout
    /// counts as a signal so pressure missed by a lost notification is
    /// still drained.
    fn wait_for_signal(&self) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.stop {
                return false;
            }
            if st.signalled {
                st.signalled = false;
                return true;
            }
            let (guard, timeout) = self
                .cv
                .wait_timeout(st, IDLE_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() {
                if st.stop {
                    return false;
                }
                st.signalled = false;
                return true;
            }
        }
    }

    fn stopping(&self) -> bool {
        self.lock_state().stop
    }

    pub(crate) fn request_stop(&self) {
        let mut st = self.lock_state();
        st.stop = true;
        self.cv.notify_all();
    }

    pub(crate) fn take_handle(&self) -> Option<JoinHandle<()>> {
        self.handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    pub(crate) fn has_handle(&self) -> bool {
        self.handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Hold off collector rounds for the guard's lifetime (maintenance
    /// quiescence). Blocks until the in-flight round, if any, completes.
    pub(crate) fn quiesce(&self) -> MutexGuard<'_, ()> {
        self.round_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn stats(&self) -> CollectorStats {
        let minor = self.minor_rounds.load(Ordering::Relaxed);
        let major = self.major_rounds.load(Ordering::Relaxed);
        let avg = |total_ns: &AtomicU64, rounds: u64| {
            if rounds == 0 {
                0.0
            } else {
                total_ns.load(Ordering::Relaxed) as f64 / rounds as f64 / 1e6
            }
        };
        CollectorStats {
            minor_rounds: minor,
            major_rounds: major,
            avg_minor_ms: avg(&self.minor_ns, minor),
            avg_major_ms: avg(&self.major_ns, major),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset_stats(&self) {
        for c in [
            &self.minors_since_major,
            &self.minor_rounds,
            &self.major_rounds,
            &self.minor_ns,
            &self.major_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Units above the low-water marks — what a round should free.
    fn over_low(&self, pool: &RecyclePool) -> (usize, usize) {
        let bytes = self
            .low_bytes
            .map(|lw| pool.bytes().saturating_sub(lw))
            .unwrap_or(0);
        let entries = self
            .low_entries
            .map(|lw| pool.len().saturating_sub(lw))
            .unwrap_or(0);
        (bytes, entries)
    }
}

/// Spawn the collector thread for `shared` and park its join handle in
/// the control block. Called once from [`SharedRecycler::new`] when the
/// config enables the collector and has a limit to drain toward.
///
/// The thread body is a **supervisor loop**: each activation's
/// `run_rounds` runs under `catch_unwind`, so a panicking round (torn
/// pool state, an injected failpoint) is logged, counted in
/// `collector_restarts`, backed off with a capped exponential delay and
/// then *resumed* — the collector never dies silently, and a table lock
/// the panic may have poisoned quarantines the pool by itself.
pub(crate) fn spawn(shared: &Arc<SharedRecycler>) {
    let weak: Weak<SharedRecycler> = Arc::downgrade(shared);
    let ctl = Arc::clone(shared.collector_control());
    let thread_ctl = Arc::clone(&ctl);
    const BACKOFF_START: Duration = Duration::from_millis(10);
    const BACKOFF_CAP: Duration = Duration::from_millis(500);
    let handle = std::thread::Builder::new()
        .name("recycler-collector".to_string())
        .spawn(move || {
            let mut backoff = BACKOFF_START;
            loop {
                if !thread_ctl.wait_for_signal() {
                    return;
                }
                let Some(shared) = weak.upgrade() else {
                    return;
                };
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_rounds(&shared)));
                drop(shared);
                // the Arc drops above: if the last external handle went
                // away mid-activation, SharedRecycler::drop runs on THIS
                // thread — shutdown_collector detects the self-join and
                // detaches
                match outcome {
                    Ok(()) => backoff = BACKOFF_START,
                    Err(_) => {
                        let n = thread_ctl.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                        eprintln!(
                            "recycler-collector: activation #{n} panicked; \
                             restarting after {backoff:?}"
                        );
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        // pressure that woke this activation may remain:
                        // re-arm instead of waiting for the next signal
                        thread_ctl.resignal();
                    }
                }
            }
        })
        .expect("spawn recycler collector thread");
    *ctl.handle.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
}

/// One collector activation: rounds until the pool sits at or below the
/// low-water marks, nothing evictable remains, the timeslice budget is
/// spent, or a stop is requested. Each round runs under the round lock,
/// released between rounds so maintenance can cut in.
pub(crate) fn run_rounds(shared: &SharedRecycler) {
    let ctl = shared.collector_control();
    let activation = Instant::now();
    loop {
        let _round = ctl.quiesce();
        if ctl.stopping() {
            return;
        }
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("collector.round");
        let pool = shared.pool_inner();
        let (need_bytes, need_entries) = ctl.over_low(pool);
        if need_bytes == 0 && need_entries == 0 {
            return;
        }
        let major_due = ctl.minors_since_major.load(Ordering::Relaxed) >= MINOR_PER_MAJOR;
        let started = Instant::now();
        // Demotion rung first: with the compression tier on, cold leaves
        // step down the residency ladder (raw → compressed → spilled)
        // *before* any victim is selected, so eviction proper becomes the
        // ladder's last rung. Demotion time is charged to whichever round
        // type this iteration records.
        let demoted = if shared.config().compression && need_bytes > 0 {
            demote_round(shared, need_bytes)
        } else {
            0
        };
        let (need_bytes, need_entries) = if demoted > 0 {
            ctl.over_low(pool)
        } else {
            (need_bytes, need_entries)
        };
        let evicted = if need_bytes == 0 && need_entries == 0 {
            Vec::new()
        } else if major_due {
            major_round(shared, need_bytes, need_entries)
        } else {
            minor_round(shared, need_bytes, need_entries)
        };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        if major_due {
            ctl.major_rounds.fetch_add(1, Ordering::Relaxed);
            ctl.major_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            ctl.minors_since_major.store(0, Ordering::Relaxed);
        } else {
            ctl.minor_rounds.fetch_add(1, Ordering::Relaxed);
            ctl.minor_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            ctl.minors_since_major.fetch_add(1, Ordering::Relaxed);
        }
        shared.settle_evictions(&evicted, true);
        if evicted.is_empty() && demoted == 0 {
            if major_due {
                // even the full leaf-index pass found nothing evictable
                // (all pinned, or non-leaves): sleep until the next signal
                return;
            }
            // dry nursery: escalate — the next round is a major
            ctl.minors_since_major
                .store(MINOR_PER_MAJOR, Ordering::Relaxed);
            continue;
        }
        if activation.elapsed() >= TIMESLICE {
            // budget spent with pressure possibly left: yield the round
            // lock and re-arm so the next activation resumes promptly
            ctl.resignal();
            return;
        }
    }
}

/// A minor round: sweep up to [`MINOR_BATCH`] recently-leafed ids from
/// the nursery, keep the resident unpinned leaves, order them by the
/// configured eviction policy and evict enough to cover the need.
/// Revalidation (pins, leaf-ness, residency) happens inside
/// [`RecyclePool::remove_batch_if_evictable`]'s critical section,
/// exactly as inline eviction does.
fn minor_round(shared: &SharedRecycler, need_bytes: usize, need_entries: usize) -> Vec<PoolEntry> {
    let pool = shared.pool_inner();
    let ids = pool.drain_nursery(MINOR_BATCH);
    if ids.is_empty() {
        return Vec::new();
    }
    let policy = shared.config().eviction;
    let tick = shared.current_tick();
    let mut candidates: Vec<(f64, usize, EntryId)> = Vec::new();
    for id in ids {
        pool.entry(id, |e| {
            if e.pin_count() == 0 && !pool.has_children(id) {
                // spilled entries charge nothing against the cap: under
                // pure byte pressure they are not minor-round victims
                // (their last rung is the major round's layer peel)
                if e.bytes() == 0 && need_entries == 0 {
                    return;
                }
                candidates.push((policy_key(policy, e, tick), e.bytes(), id));
            }
        });
    }
    candidates.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.2.cmp(&b.2))
    });
    let mut victims: Vec<EntryId> = Vec::new();
    let (mut freed_bytes, mut freed_entries) = (0usize, 0usize);
    for (_, bytes, id) in candidates {
        if freed_bytes >= need_bytes && freed_entries >= need_entries {
            break;
        }
        victims.push(id);
        freed_bytes += bytes;
        freed_entries += 1;
    }
    if victims.is_empty() {
        return Vec::new();
    }
    let _evict = shared.lock_evict();
    pool.remove_batch_if_evictable(&victims)
}

/// A major round: the full eviction pass over the evictable-leaf index
/// (O(leaves)), draining first the byte pressure, then whatever entry
/// pressure remains. Serialised with inline evictors on the eviction
/// mutex like every other eviction.
fn major_round(shared: &SharedRecycler, need_bytes: usize, need_entries: usize) -> Vec<PoolEntry> {
    let ctl = shared.collector_control();
    let pool = shared.pool_inner();
    let policy = shared.config().eviction;
    let tick = shared.current_tick();
    let _evict = shared.lock_evict();
    let mut out = Vec::new();
    if need_bytes > 0 {
        out.extend(evict(pool, policy, EvictTrigger::Memory(need_bytes), tick));
    }
    let still_over = if need_entries > 0 {
        ctl.low_entries
            .map(|lw| pool.len().saturating_sub(lw))
            .unwrap_or(0)
    } else {
        0
    };
    if still_over > 0 {
        out.extend(evict(pool, policy, EvictTrigger::Entries(still_over), tick));
    }
    out
}

/// The demotion rung: before eviction selects a single victim, walk the
/// pool and push its coldest unpinned entries one rung down the
/// residency ladder — raw → compressed in place, then (when a spill file
/// is configured) compressed → spilled off the cap. Bytes freed here come
/// off the memory cap *without losing the entries*, so a later hit pays a
/// decompress or a record read instead of a recomputation.
///
/// All CPU (codec work) and IO (spill appends) run outside the table lock;
/// [`RecyclePool::retier`] revalidates under the table write lock and
/// refuses entries that got pinned, removed or re-tiered meanwhile.
/// Returns the resident bytes freed — the progress signal [`run_rounds`]'s
/// escalation logic folds in next to eviction's.
fn demote_round(shared: &SharedRecycler, need_bytes: usize) -> usize {
    let ctl = shared.collector_control();
    let pool = shared.pool_inner();
    let spill_on = pool.spill().is_some();

    // Gather under the table read lock only: raw entries to compress,
    // already-compressed entries to spill. Unlike eviction, demotion is
    // *not* restricted to childless leaves — a demoted interior node keeps
    // its `result_id` and indexes, so descendants stay matchable; in
    // chain-shaped plans the big early intermediates are interior nodes
    // and a leaves-only rung would free almost nothing.
    let mut raw: Vec<(u64, EntryId, Arc<Bat>, usize)> = Vec::new();
    let mut cold: Vec<(u64, EntryId, Arc<CompressedBat>)> = Vec::new();
    pool.for_each_entry(|e| {
        if e.pin_count() != 0 {
            return;
        }
        match e.payload() {
            Payload::Raw(Value::Bat(b)) => {
                // `bind` results are Arc-shared with the catalog:
                // demoting one frees no real memory, and rehydration
                // would forge a second live copy of a base column.
                if e.bytes() < COMPRESS_MIN_BYTES
                    || e.family == "bind"
                    || ctl.is_incompressible(e.id)
                {
                    return;
                }
                // views alias another BAT's buffers — nothing to free
                if !b.head().is_view() && !b.tail().is_view() {
                    raw.push((e.last_used(), e.id, Arc::clone(b), e.bytes()));
                }
            }
            Payload::Compressed(blob) if spill_on => {
                cold.push((e.last_used(), e.id, Arc::clone(blob)));
            }
            // scalars (the codecs target columnar BATs) and spilled
            // records have no rung below them
            _ => {}
        }
    });

    let mut freed = 0usize;

    // Rung 1: compress the coldest raw leaves in place.
    raw.sort_unstable_by_key(|&(tick, id, _, _)| (tick, id));
    raw.truncate(DEMOTE_BATCH);
    let mut compressed_n = 0u64;
    for (tick, id, bat, bytes) in raw {
        if freed >= need_bytes {
            break;
        }
        #[cfg(feature = "failpoints")]
        if crate::fault::fire("tier.compress").is_some() {
            // injected Deny/Io: skip this entry, keep the round alive
            continue;
        }
        let blob = Arc::new(CompressedBat::compress(&bat));
        drop(bat);
        let blob_bytes = blob.byte_size();
        if blob_bytes >= bytes {
            // even the best codec choice doesn't shrink this payload;
            // remember that instead of re-sampling it every round
            ctl.note_incompressible(id);
            continue;
        }
        let was = pool.retier(
            id,
            Payload::Compressed(Arc::clone(&blob)),
            blob_bytes,
            |e| e.pin_count() == 0 && blob_bytes < e.bytes(),
        );
        if let Some(was) = was {
            freed += was - blob_bytes;
            compressed_n += 1;
            // freshly compressed entries are the coldest on the ladder:
            // make them spill candidates *this* round, or continued
            // pressure evicts them before the next round can
            cold.push((tick, id, blob));
        }
    }
    if compressed_n > 0 {
        shared.count_demotions_compressed(compressed_n);
    }

    // Rung 2: spill the coldest compressed leaves off the cap entirely.
    if spill_on && freed < need_bytes {
        let spill = Arc::clone(pool.spill().expect("spill checked above"));
        cold.sort_unstable_by_key(|&(tick, id, _)| (tick, id));
        cold.truncate(DEMOTE_BATCH);
        let mut spilled_n = 0u64;
        for (_, id, blob) in cold {
            if freed >= need_bytes {
                break;
            }
            #[cfg(feature = "failpoints")]
            if crate::fault::fire("tier.spill").is_some() {
                continue;
            }
            let Ok(ticket) = spill.append(blob.as_bytes()) else {
                // spill budget exhausted (or a real IO error): stop
                // appending this round; eviction covers what remains
                break;
            };
            // a spilled entry stops charging resident bytes entirely
            let was = pool.retier(id, Payload::Spilled(ticket), 0, |e| {
                e.pin_count() == 0
                    && matches!(e.payload(), Payload::Compressed(b) if Arc::ptr_eq(b, &blob))
            });
            if let Some(was) = was {
                freed += was;
                spilled_n += 1;
            }
        }
        if spilled_n > 0 {
            shared.count_demotions_spilled(spilled_n);
        }
    }
    freed
}
