//! Pool entries: a cached instruction instance with lineage and statistics.
//!
//! # Concurrency
//!
//! An entry's *identity* (signature, result, lineage) is fixed at
//! admission and never rewritten: an entry leaves the pool whole, by
//! eviction or invalidation, and nothing changes it in place. Its *usage
//! statistics* — reuse counters, the last-use stamp, the pin count and the
//! credit-return flag — are plain atomics, so the exact-match hit path
//! can update them while holding nothing stronger than the pool **read**
//! lock. This is what makes the pool's hit path write-lock-free
//! (see the locking invariants in [`crate::shared`]).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rbat::{BatId, Value};
use rmal::Opcode;

use crate::signature::Sig;

/// Identifier of a pool entry.
pub type EntryId = u64;

/// Bytes an entry holding `value` as the result of `op` charges against
/// the pool cap: only what the instruction newly materialised. Binds
/// reference persistent storage and zero-cost viewpoint instructions
/// share their operand's buffers (paper §2.3, Table III shows bind/markT
/// at 0 MB), so they pay a flat 64 bytes.
pub fn charge_bytes(op: Opcode, value: &Value) -> usize {
    if matches!(op, Opcode::Bind | Opcode::BindIdx) || op.zero_cost() {
        return 64;
    }
    value
        .as_bat()
        .map(|b| b.resident_bytes())
        .unwrap_or(std::mem::size_of::<Value>())
}

/// Identity of the *source instruction* in its query template:
/// `(template id, program counter)`. Stable across invocations — the unit
/// the CREDIT policy accounts against (paper §4.2).
pub type InstrKey = (u64, usize);

/// Persistent `(table, column)` pairs.
pub type Anchors = BTreeSet<(String, String)>;

/// Where an entry comes from in the pool's lineage graph.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// Pool entries whose results feed this instruction.
    pub parents: Vec<EntryId>,
    /// The columns it is anchored on itself (see [`PoolEntry::anchors`]).
    pub anchors: Anchors,
}

/// Who admitted an entry, and when.
#[derive(Debug, Clone, Copy, Default)]
pub struct Admitter {
    /// Logical admission tick (also the initial last-use stamp).
    pub tick: u64,
    /// Invocation counter value at admission.
    pub invocation: u64,
    /// Admitting session.
    pub session: u64,
    /// Source instruction identity (for credit returns).
    pub creator: InstrKey,
}

/// One reference a running query holds on a pool entry, given back when the
/// guard drops — no lookup, no lock: the count lives behind an `Arc` shared
/// with the entry (if that is gone by then, nobody reads the decrement).
#[derive(Debug)]
pub struct Pin(Arc<AtomicU32>);

impl Pin {
    /// Pin `entry`. The caller holds the pool lock (any mode).
    pub fn take(entry: &PoolEntry) -> Pin {
        entry.pins.fetch_add(1, Ordering::Relaxed);
        Pin::adopt(entry)
    }

    /// Guard a reference already counted on the session's behalf: the one
    /// an entry is born with, or the one `RecyclePool::insert` takes on the
    /// winner of a duplicate admission.
    pub fn adopt(entry: &PoolEntry) -> Pin {
        Pin(Arc::clone(&entry.pins))
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A recycled intermediate: the instruction as executed, its result,
/// lineage links and the execution/reuse statistics that drive the
/// admission and eviction policies.
#[derive(Debug)]
pub struct PoolEntry {
    /// Pool-unique id (never reused, monotone across pool clears).
    pub id: EntryId,
    /// Matching signature (opcode + argument values/identities).
    pub sig: Sig,
    /// The materialised result (BAT or scalar), `Arc`-shared so the hit
    /// path hands out a clone under the pool read lock. Private together
    /// with `bytes`: the pair is what the pool's byte total counts at
    /// insert and at removal, so neither changes while the entry is
    /// resident.
    value: Value,
    /// Identity of the result BAT, when the result is one.
    pub result_id: Option<BatId>,
    /// Resident bytes charged against the pool's memory budget for the
    /// result ([`charge_bytes`] at admission).
    bytes: usize,
    /// Measured CPU cost of computing the result — `Cost(I)` in eq. (1).
    pub cpu: Duration,
    /// Coarse instruction family (Table III breakdown).
    pub family: &'static str,
    /// Pool entries whose results feed this instruction.
    pub parents: Vec<EntryId>,
    /// The persistent columns this entry is anchored on *itself* — the
    /// invalidation key on updates (§6.4): the column of a `Bind`, both
    /// endpoints of a `BindIdx`, or those of a persistent BAT argument that
    /// had no resident producer at admission. Empty for every other entry:
    /// what it derives from transitively is its `parents`' business, and
    /// the lineage graph answers it ([`crate::lineage`], *Anchors*).
    pub anchors: Anchors,
    /// Logical admission tick (for the HISTORY policy's ageing).
    pub admitted_tick: u64,
    /// Invocation counter value when admitted — distinguishes local from
    /// global reuse.
    pub admitted_invocation: u64,
    /// Session that admitted this entry — a hit from any other session is
    /// a *cross-session* reuse, the multi-user payoff the paper's shared
    /// pool exists for (§8).
    pub admitted_session: u64,
    /// Source instruction identity (for credit returns).
    pub creator: InstrKey,
    /// Last computation-or-reuse tick (LRU ordering). Atomic: stamped on
    /// every hit under the pool read lock.
    pub last_used: AtomicU64,
    /// Reuses within the admitting invocation. Atomic: bumped on hit.
    pub local_reuses: AtomicU64,
    /// Reuses from other invocations. Atomic: bumped on hit.
    pub global_reuses: AtomicU64,
    /// Times this entry served as a subsumption source (§5).
    pub subsumption_uses: AtomicU64,
    /// References running queries hold on this entry, one [`Pin`] per use.
    /// A pinned entry is never evicted; invalidation may still remove it —
    /// correctness beats retention. Taken under the pool read lock,
    /// checked under its write lock: the table `RwLock` makes
    /// pin-vs-evict races impossible. Pin state is deliberately NOT part
    /// of the pool's evictable-leaf index (it flips here, on the
    /// read-lock-only hit path, far too often to maintain an index on):
    /// a pinned leaf stays listed, is filtered at eviction gather and
    /// revalidated at removal.
    pub pins: Arc<AtomicU32>,
    /// Has the admission credit already been returned to the creator
    /// (first local reuse returns it immediately; a globally reused entry
    /// returns it at eviction — never both, paper §4.2)? Atomic flag so a
    /// racing pair of local hits returns the credit exactly once.
    pub credit_returned: AtomicBool,
}

impl Clone for PoolEntry {
    /// Snapshot clone: atomics are copied at their current value. Used by
    /// diagnostics; the pool itself never clones entries.
    fn clone(&self) -> PoolEntry {
        PoolEntry {
            id: self.id,
            sig: self.sig.clone(),
            value: self.value.clone(),
            result_id: self.result_id,
            bytes: self.bytes,
            cpu: self.cpu,
            family: self.family,
            parents: self.parents.clone(),
            anchors: self.anchors.clone(),
            admitted_tick: self.admitted_tick,
            admitted_invocation: self.admitted_invocation,
            admitted_session: self.admitted_session,
            creator: self.creator,
            last_used: AtomicU64::new(self.last_used()),
            local_reuses: AtomicU64::new(self.local_reuses()),
            global_reuses: AtomicU64::new(self.global_reuses()),
            subsumption_uses: AtomicU64::new(self.subsumption_uses()),
            pins: Arc::new(AtomicU32::new(self.pin_count())),
            credit_returned: AtomicBool::new(self.credit_returned()),
        }
    }
}

impl PoolEntry {
    /// A fresh entry as the admission funnel builds it: every statistic
    /// zeroed, last use stamped with the admission tick, and **born
    /// pinned** once on behalf of the admitting session. The result
    /// identity is read off the value, the family off the opcode.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: EntryId,
        sig: Sig,
        value: Value,
        bytes: usize,
        cpu: Duration,
        lineage: Lineage,
        admitter: Admitter,
    ) -> PoolEntry {
        PoolEntry {
            id,
            result_id: value.as_bat().map(|b| b.id()),
            family: sig.op.family(),
            sig,
            value,
            bytes,
            cpu,
            parents: lineage.parents,
            anchors: lineage.anchors,
            admitted_tick: admitter.tick,
            admitted_invocation: admitter.invocation,
            admitted_session: admitter.session,
            creator: admitter.creator,
            last_used: AtomicU64::new(admitter.tick),
            local_reuses: AtomicU64::new(0),
            global_reuses: AtomicU64::new(0),
            subsumption_uses: AtomicU64::new(0),
            pins: Arc::new(AtomicU32::new(1)),
            credit_returned: AtomicBool::new(false),
        }
    }

    /// The materialised result.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Resident bytes the entry charges against the pool cap.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Last computation-or-reuse tick.
    pub fn last_used(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }

    /// Reuses within the admitting invocation.
    pub fn local_reuses(&self) -> u64 {
        self.local_reuses.load(Ordering::Relaxed)
    }

    /// Reuses from other invocations.
    pub fn global_reuses(&self) -> u64 {
        self.global_reuses.load(Ordering::Relaxed)
    }

    /// Times this entry served as a subsumption source.
    pub fn subsumption_uses(&self) -> u64 {
        self.subsumption_uses.load(Ordering::Relaxed)
    }

    /// Cumulative execution time avoided through exact-match reuse: every
    /// reuse saves the recorded cost.
    pub fn time_saved(&self) -> Duration {
        let reuses = self.local_reuses() + self.global_reuses();
        Duration::from_nanos((self.cpu.as_nanos() as u64).saturating_mul(reuses))
    }

    /// Sessions currently pinning this entry.
    pub fn pin_count(&self) -> u32 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Has the admission credit been returned to the creator?
    pub fn credit_returned(&self) -> bool {
        self.credit_returned.load(Ordering::Relaxed)
    }

    /// Total references: the initial computation plus every reuse —
    /// `k` in the paper's weight function (eq. 2).
    pub fn k(&self) -> u64 {
        1 + self.local_reuses() + self.global_reuses()
    }

    /// Weight function of eq. (2): entries with demonstrated *global*
    /// reuse weigh `k − 1`; entries never reused, or reused only locally,
    /// get the minimal weight 0.1 (no incentive to keep them beyond the
    /// query scope).
    pub fn weight(&self) -> f64 {
        if self.global_reuses() > 0 {
            (self.k() - 1) as f64
        } else {
            0.1
        }
    }

    /// Benefit of eq. (1): `B(I) = Cost(I) · Weight(I)`.
    pub fn benefit(&self) -> f64 {
        self.cpu.as_secs_f64() * self.weight()
    }

    /// History-policy benefit of eq. (3): benefit per tick of residence.
    pub fn history_benefit(&self, now_tick: u64) -> f64 {
        let age = now_tick.saturating_sub(self.admitted_tick).max(1);
        self.benefit() / age as f64
    }

    /// Was this entry ever reused (locally or globally)?
    pub fn reused(&self) -> bool {
        self.local_reuses() + self.global_reuses() > 0
    }

    /// Test/bench support: a minimal, unpinned select-family entry —
    /// signature and scalar result keyed by `tag`, `last_used` stamped with
    /// it, 1 ms of cost. Not part of the engine's admission path; it
    /// exists so test fixtures across the workspace don't each spell out a
    /// full [`Self::new`]. Override individual fields after construction
    /// when a test needs more.
    #[doc(hidden)]
    pub fn test_stub(id: EntryId, tag: i64, parents: Vec<EntryId>, bytes: usize) -> PoolEntry {
        let e = PoolEntry::new(
            id,
            Sig::of(Opcode::Select, &[Value::Int(tag)]),
            Value::Int(tag),
            bytes,
            Duration::from_millis(1),
            Lineage {
                parents,
                ..Lineage::default()
            },
            Admitter {
                tick: tag as u64,
                ..Admitter::default()
            },
        );
        e.pins.store(0, Ordering::Relaxed);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> PoolEntry {
        let mut e = PoolEntry::test_stub(1, 1, vec![], 64);
        e.cpu = Duration::from_millis(100);
        e.admitted_tick = 10;
        e
    }

    #[test]
    fn weight_never_reused_is_minimal() {
        let e = entry();
        assert_eq!(e.k(), 1);
        assert!((e.weight() - 0.1).abs() < 1e-12);
        assert!((e.benefit() - 0.01).abs() < 1e-9); // 0.1s * 0.1
    }

    #[test]
    fn weight_local_only_stays_minimal() {
        let e = entry();
        e.local_reuses.store(5, Ordering::Relaxed);
        assert!((e.weight() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn weight_global_reuse_counts_references() {
        let e = entry();
        e.global_reuses.store(2, Ordering::Relaxed);
        e.local_reuses.store(1, Ordering::Relaxed);
        assert_eq!(e.k(), 4);
        assert!((e.weight() - 3.0).abs() < 1e-12);
        assert!((e.benefit() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn history_benefit_ages() {
        let e = entry();
        e.global_reuses.store(1, Ordering::Relaxed);
        let fresh = e.history_benefit(11);
        let old = e.history_benefit(1010);
        assert!(fresh > old);
    }

    #[test]
    fn clone_snapshots_atomics() {
        let e = entry();
        e.local_reuses.store(3, Ordering::Relaxed);
        e.pins.store(2, Ordering::Relaxed);
        let c = e.clone();
        assert_eq!(c.local_reuses(), 3);
        assert_eq!(c.pin_count(), 2);
        assert_eq!(c.id, e.id);
    }
}
