//! Eviction: choosing leaf entries to drop under resource pressure.
//!
//! Implements paper §4.3: all policies operate on the set of *leaf*
//! instructions (no dependents in the pool), protect every entry pinned by
//! a running query — of **any** session sharing the pool — and exist in
//! per-entry and per-memory variants. The memory variants solve the
//! complementary binary-knapsack problem with the classic greedy
//! 2-approximation [Martello & Toth 1990].
//!
//! This module is the policy: [`victims`] picks, from the unpinned leaves
//! of one gather, the ones a cap needs gone. The mechanics are
//! `recycleExit`'s one step, [`RecyclePool::insert`]: an admission that
//! does not fit under its [`Caps`] gathers the lineage graph's
//! evictable-leaf set (O(leaves), independent of total pool size; the
//! pool's gather-cost counters pin this down in tests), removes the
//! victims and inserts itself, all under the pool's one write lock. While
//! it is held no hit can pin an entry and no child edge can be wired, so a
//! victim chosen is a victim removed — there is no snapshot to revalidate
//! and no retry. Only a removal that exposes new leaves (a dependency
//! layer peeled off) starts another gather. Eviction runs inline only, on
//! the admission that finds the pool full: there is no background evictor.
//!
//! [`RecyclePool::insert`]: crate::pool::RecyclePool::insert

use crate::config::{EvictionPolicy, RecyclerConfig};
use crate::entry::{EntryId, PoolEntry};

/// What an admission must fit under, and how room is made when it does
/// not: the configured caps, the eviction policy, and the event-clock
/// reading the policy ranks by (HISTORY's ageing) — taken before the
/// admitted entry draws its own tick.
#[derive(Debug, Clone, Copy)]
pub struct Caps {
    /// Byte cap (`None` = unlimited).
    pub bytes: Option<usize>,
    /// Entry-count cap (`None` = unlimited).
    pub entries: Option<usize>,
    /// Which unpinned leaves go first.
    pub policy: EvictionPolicy,
    /// The event clock at the admission.
    pub now_tick: u64,
}

impl Caps {
    /// No cap: an insert never evicts.
    pub const NONE: Caps = Caps {
        bytes: None,
        entries: None,
        policy: EvictionPolicy::Lru,
        now_tick: 0,
    };

    /// The caps and the policy `config` sets, ranked at `now_tick`.
    pub(crate) fn of(config: &RecyclerConfig, now_tick: u64) -> Caps {
        Caps {
            bytes: config.mem_limit,
            entries: config.entry_limit,
            policy: config.eviction,
            now_tick,
        }
    }

    /// Do `bytes` in `entries` entries fit under both caps?
    pub(crate) fn hold(&self, bytes: usize, entries: usize) -> bool {
        self.bytes.is_none_or(|cap| bytes <= cap) && self.entries.is_none_or(|cap| entries <= cap)
    }
}

/// What a cap counts, and so what eviction under it frees: entry slots or
/// bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Unit {
    Entries,
    Bytes,
}

impl Unit {
    /// What removing `e` frees, in this unit.
    pub(crate) fn of(self, e: &PoolEntry) -> usize {
        match self {
            Unit::Entries => 1,
            Unit::Bytes => e.bytes(),
        }
    }
}

/// An unpinned leaf as a policy sees it.
pub(crate) struct Candidate {
    id: EntryId,
    bytes: usize,
    /// The policy's ordering key (smaller = evicted first).
    key: f64,
    last_used: u64,
}

impl Candidate {
    pub(crate) fn of(policy: EvictionPolicy, e: &PoolEntry, now_tick: u64) -> Candidate {
        let key = match policy {
            EvictionPolicy::Lru => e.last_used() as f64,
            EvictionPolicy::Benefit => e.benefit(),
            EvictionPolicy::History => e.history_benefit(now_tick),
        };
        Candidate {
            id: e.id,
            bytes: e.bytes(),
            key,
            last_used: e.last_used(),
        }
    }
}

/// The victims `policy` takes from one gather's `leaves` (ascending id, so
/// a policy's ties break by id) toward freeing `need` units; empty when
/// nothing is left to take.
///
/// Per entry (BPent / HPent / plain LRU): the leaves with the smallest
/// keys, as many as still needed. Per memory, for LRU: the
/// oldest leaves until enough bytes are free (ties on the last-use stamp
/// take the largest entries first, so the fewest victims pay for the
/// bytes); for BP/HP: greedy knapsack over the leaves — keep the maximal
/// total benefit that fits within `total_leaf_bytes − need`, evict the
/// rest; the greedy order is profit density `B(I)/M(I)` and the solution
/// is compared against the single item of maximum profit (worst case at
/// most 2× off optimal). If the leaves do not release enough space, all of
/// them go and another round starts (paper §4.3).
pub(crate) fn victims(
    policy: EvictionPolicy,
    unit: Unit,
    need: usize,
    mut leaves: Vec<Candidate>,
) -> Vec<EntryId> {
    match unit {
        Unit::Entries => {
            leaves.sort_unstable_by(|a, b| {
                a.key
                    .partial_cmp(&b.key)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id.cmp(&b.id))
            });
            leaves.iter().take(need).map(|c| c.id).collect()
        }
        Unit::Bytes => {
            let leaf_bytes: usize = leaves.iter().map(|c| c.bytes).sum();
            if leaf_bytes <= need {
                // not enough in this layer: evict all of it and iterate
                return leaves.iter().map(|c| c.id).collect();
            }
            match policy {
                EvictionPolicy::Lru => {
                    // ties on `last_used` break largest-bytes-first: the
                    // bytes freed then cost the fewest victims (smallest-
                    // first would maximise the entries destroyed for the
                    // same relief)
                    let mut ordered: Vec<(u64, std::cmp::Reverse<usize>, EntryId)> = leaves
                        .iter()
                        .map(|c| (c.last_used, std::cmp::Reverse(c.bytes), c.id))
                        .collect();
                    ordered.sort_unstable();
                    let mut take = Vec::new();
                    let mut sum = 0usize;
                    for (_, std::cmp::Reverse(bytes), id) in ordered {
                        if sum >= need {
                            break;
                        }
                        sum += bytes;
                        take.push(id);
                    }
                    take
                }
                EvictionPolicy::Benefit | EvictionPolicy::History => {
                    knapsack_victims(&leaves, leaf_bytes - need)
                }
            }
        }
    }
}

/// Solve the *complementary* knapsack: keep the best leaves within
/// `capacity` bytes, return the ones to evict.
fn knapsack_victims(leaves: &[Candidate], capacity: usize) -> Vec<EntryId> {
    // Greedy by profit density.
    let mut order: Vec<usize> = (0..leaves.len()).collect();
    order.sort_by(|&a, &b| {
        let da = leaves[a].key / leaves[a].bytes.max(1) as f64;
        let db = leaves[b].key / leaves[b].bytes.max(1) as f64;
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: rbat::hash::FxHashSet<EntryId> = rbat::hash::FxHashSet::default();
    let mut used = 0usize;
    let mut greedy_benefit = 0.0;
    for &i in &order {
        if used + leaves[i].bytes <= capacity {
            used += leaves[i].bytes;
            greedy_benefit += leaves[i].key;
            kept.insert(leaves[i].id);
        }
    }
    // 2-approximation guard: compare with keeping only the max-profit item.
    if let Some(best) = leaves
        .iter()
        .filter(|c| c.bytes <= capacity)
        .max_by(|a, b| {
            a.key
                .partial_cmp(&b.key)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    {
        if best.key > greedy_benefit {
            kept.clear();
            kept.insert(best.id);
        }
    }
    leaves
        .iter()
        .filter(|c| !kept.contains(&c.id))
        .map(|c| c.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RecyclePool;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    /// Make room — `n` entry slots or `n` bytes — for a
    /// 0-byte newcomer, through the one entry point: the evicted entries in
    /// removal order.
    fn evict(
        pool: &RecyclePool,
        policy: EvictionPolicy,
        unit: Unit,
        n: usize,
        now_tick: u64,
    ) -> Vec<PoolEntry> {
        let mut caps = Caps {
            policy,
            now_tick,
            ..Caps::NONE
        };
        match unit {
            Unit::Entries => caps.entries = Some(pool.len() + 1 - n),
            Unit::Bytes => caps.bytes = Some(pool.bytes() - n),
        }
        let newcomer = PoolEntry::test_stub(pool.alloc_id(), -1, vec![], 0);
        pool.insert(newcomer, caps).1
    }

    fn put(
        pool: &RecyclePool,
        tag: i64,
        bytes: usize,
        cpu_ms: u64,
        global_reuses: u64,
        last_used: u64,
    ) -> EntryId {
        let mut e = PoolEntry::test_stub(pool.alloc_id(), tag, vec![], bytes);
        e.cpu = Duration::from_millis(cpu_ms);
        e.global_reuses.store(global_reuses, Ordering::Relaxed);
        e.last_used.store(last_used, Ordering::Relaxed);
        pool.insert(e, Caps::NONE).0.id()
    }

    #[test]
    fn lru_evicts_oldest() {
        let pool = RecyclePool::new();
        let old = put(&pool, 1, 100, 10, 0, 1);
        let newer = put(&pool, 2, 100, 10, 0, 5);
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Entries, 1, 10);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, old);
        assert!(pool.entry(newer, |_| ()).is_some());
    }

    #[test]
    fn benefit_keeps_reused_expensive() {
        let pool = RecyclePool::new();
        let cheap = put(&pool, 1, 100, 1, 0, 9); // tiny benefit
        let valuable = put(&pool, 2, 100, 1000, 3, 1); // reused, expensive
        let ev = evict(&pool, EvictionPolicy::Benefit, Unit::Entries, 1, 10);
        assert_eq!(ev[0].id, cheap, "LRU would have taken the valuable one");
        assert!(pool.entry(valuable, |_| ()).is_some());
    }

    #[test]
    fn memory_eviction_frees_enough() {
        let pool = RecyclePool::new();
        for i in 0..10 {
            put(&pool, i, 1000, 10, (i % 3) as u64, i as u64);
        }
        let before = pool.bytes();
        let ev = evict(&pool, EvictionPolicy::Benefit, Unit::Bytes, 2500, 100);
        let freed: usize = ev.iter().map(|e| e.bytes()).sum();
        assert!(freed >= 2500, "freed only {freed}");
        assert_eq!(pool.bytes(), before - freed);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn pinned_entries_survive() {
        let pool = RecyclePool::new();
        let a = put(&pool, 1, 100, 10, 0, 1);
        let b = put(&pool, 2, 100, 10, 0, 2);
        pool.entry(a, |e| e.pins.store(1, Ordering::Relaxed));
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Entries, 1, 10);
        assert_eq!(ev[0].id, b, "the older entry was pinned");
        assert!(pool.entry(a, |_| ()).is_some());
    }

    #[test]
    fn fully_pinned_pool_yields_nothing() {
        let pool = RecyclePool::new();
        for i in 0..4 {
            let id = put(&pool, i, 100, 10, 0, i as u64);
            pool.entry(id, |e| e.pins.store(1, Ordering::Relaxed));
        }
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Entries, 2, 10);
        assert!(ev.is_empty(), "pinned entries must never be evicted");
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn lru_ties_evict_largest_first() {
        // three leaves share one last_used stamp; freeing 900 bytes must
        // cost ONE victim (the 1000-byte entry), not the two smallest —
        // the old (last_used, bytes, id) ascending sort took 100+400 first
        // and still needed the big one: three victims for 900 bytes
        let pool = RecyclePool::new();
        let small = put(&pool, 1, 100, 10, 0, 5);
        let mid = put(&pool, 2, 400, 10, 0, 5);
        let big = put(&pool, 3, 1000, 10, 0, 5);
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Bytes, 900, 10);
        assert_eq!(ev.len(), 1, "largest-first ties need one victim");
        assert_eq!(ev[0].id, big);
        assert!(pool.entry(small, |_| ()).is_some());
        assert!(pool.entry(mid, |_| ()).is_some());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn lru_older_entry_still_beats_larger_newer() {
        // the tie-break must not override the LRU order itself
        let pool = RecyclePool::new();
        let old_small = put(&pool, 1, 100, 10, 0, 1);
        let new_big = put(&pool, 2, 1000, 10, 0, 9);
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Bytes, 50, 10);
        assert_eq!(ev[0].id, old_small);
        assert!(pool.entry(new_big, |_| ()).is_some());
    }

    #[test]
    fn gather_cost_tracks_leaves_not_pool_size() {
        // two pools with the SAME leaf count but 8x different total size:
        // one eviction round must visit the same number of entries in both
        let build = |depth: usize| {
            let pool = RecyclePool::new();
            let mut tag = 0i64;
            for _ in 0..6 {
                let mut parent: Option<EntryId> = None;
                for _ in 0..depth {
                    tag += 1;
                    let parents = parent.map(|p| vec![p]).unwrap_or_default();
                    let e = PoolEntry::test_stub(pool.alloc_id(), tag, parents, 100);
                    parent = Some(pool.insert(e, Caps::NONE).0.id());
                }
            }
            pool
        };
        let small = build(2); // 12 entries, 6 leaves
        let large = build(16); // 96 entries, 6 leaves
        assert_eq!(large.len(), 8 * small.len());
        let visits = |pool: &RecyclePool| {
            let v0 = pool.eviction_gather_visited();
            let r0 = pool.eviction_gather_rounds();
            let ev = evict(pool, EvictionPolicy::Lru, Unit::Entries, 2, 100);
            assert_eq!(ev.len(), 2);
            let rounds = pool.eviction_gather_rounds() - r0;
            assert_eq!(rounds, 1, "2 victims from 6 leaves need one round");
            pool.eviction_gather_visited() - v0
        };
        let small_visits = visits(&small);
        let large_visits = visits(&large);
        assert_eq!(
            small_visits, large_visits,
            "gather work must depend on the leaf count, not the pool size"
        );
        assert_eq!(small_visits, 6, "one round visits exactly the leaves");
        small.check_invariants().unwrap();
        large.check_invariants().unwrap();
    }

    #[test]
    fn eviction_round_takes_one_table_write_lock() {
        let pool = RecyclePool::new();
        for i in 0..24 {
            put(&pool, i, 100, 10, 0, i as u64);
        }
        let before = pool.write_lock_acquisitions();
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Entries, 24, 100);
        assert_eq!(ev.len(), 24);
        assert_eq!(
            pool.write_lock_acquisitions() - before,
            1,
            "a single batched round takes the pool write lock once"
        );
        pool.check_invariants().unwrap();
    }

    #[test]
    fn dependency_layers_peel() {
        // parent <- child: child must go before parent can.
        let pool = RecyclePool::new();
        let parent = put(&pool, 1, 1000, 10, 5, 1);
        let mut child = PoolEntry::test_stub(pool.alloc_id(), 99, vec![parent], 1000);
        child.family = "view";
        child.last_used.store(9, Ordering::Relaxed);
        pool.insert(child, Caps::NONE);
        let ev = evict(&pool, EvictionPolicy::Lru, Unit::Bytes, 1500, 10);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].family, "view", "leaf (child) must be evicted first");
        pool.check_invariants().unwrap();
    }
}
