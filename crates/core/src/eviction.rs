//! Eviction: choosing leaf entries to drop under resource pressure.
//!
//! Implements paper §4.3: all policies operate on the set of *leaf*
//! instructions (no dependents in the pool), protect every entry pinned by
//! a running query — of **any** session sharing the pool — and exist in
//! per-entry and per-memory variants. The memory variants solve the
//! complementary binary-knapsack problem with the classic greedy
//! 2-approximation [Martello & Toth 1990].
//!
//! Concurrency and cost: [`evict`] *gathers* its
//! candidates from the lineage graph's **evictable-leaf set**
//! ([`RecyclePool::for_each_leaf_entry`]) — the childless entries, kept
//! exact by the graph's `wire` / `unwire` steps — so a gather round costs
//! O(leaves), independent of total pool size; no eviction path scans the
//! whole pool (the pool's gather-cost counters pin this down in tests).
//! Victims are chosen from the snapshot and consumed
//! in **batches**: each round feeds every victim it selected to
//! [`RecyclePool::remove_batch_if_evictable`], which takes the table's
//! write lock once per round — not once per victim — revalidating the pin
//! count and the leaf property inside the critical section, so a
//! concurrent hit or a freshly wired child edge
//! always wins over the stale snapshot. Only when victims are rejected or
//! a removal exposes new leaves (a dependency layer peeled off) does the
//! loop re-gather. Callers serialise evictors through the
//! [`SharedRecycler`](crate::SharedRecycler)'s eviction mutex (tier 1 of
//! the lock order) so concurrent memory pressure never over-evicts.

use crate::config::EvictionPolicy;
use crate::entry::{EntryId, PoolEntry};
use crate::pool::RecyclePool;

/// What triggered eviction: an entry-count ceiling or a memory ceiling.
#[derive(Debug, Clone, Copy)]
pub enum EvictTrigger {
    /// Free this many entry slots.
    Entries(usize),
    /// Free at least this many bytes.
    Memory(usize),
}

/// A gathered eviction candidate: the policy inputs snapshot at gather
/// time (victim selection revalidates at removal).
struct Candidate {
    id: EntryId,
    bytes: usize,
    key: f64,
    last_used: u64,
}

/// The policy's victim-ordering key (smaller = evicted first) — shared
/// with the background collector's minor rounds, which order their
/// nursery candidates exactly as a full gather would.
pub(crate) fn policy_key(policy: EvictionPolicy, e: &PoolEntry, now_tick: u64) -> f64 {
    match policy {
        // smaller = evicted first
        EvictionPolicy::Lru => e.last_used() as f64,
        EvictionPolicy::Benefit => e.benefit(),
        EvictionPolicy::History => e.history_benefit(now_tick),
    }
}

/// Snapshot the evictable leaves from the lineage graph's leaf set, in
/// the ascending id order the graph hands them out in (so a policy's ties
/// break by id): O(leaves) work, no full-pool scan. Pin state is not part
/// of the set (pins flip on the read-lock-only hit path), so pinned leaves
/// are filtered here — and revalidated again at removal, where it counts.
fn gather(pool: &RecyclePool, policy: EvictionPolicy, now_tick: u64) -> Vec<Candidate> {
    #[cfg(feature = "failpoints")]
    let _ = crate::fault::fire("evict.gather");
    let mut out = Vec::new();
    pool.for_each_leaf_entry(|e| {
        if e.pin_count() == 0 {
            out.push(Candidate {
                id: e.id,
                bytes: e.bytes(),
                key: policy_key(policy, e, now_tick),
                last_used: e.last_used(),
            });
        }
    });
    out
}

/// Evict per `policy` until the trigger is satisfied; returns the evicted
/// entries (the caller settles credit returns and statistics). May return
/// fewer than requested when the pool runs out of evictable entries.
pub fn evict(
    pool: &RecyclePool,
    policy: EvictionPolicy,
    trigger: EvictTrigger,
    now_tick: u64,
) -> Vec<PoolEntry> {
    match trigger {
        EvictTrigger::Entries(need) => evict_entries(pool, policy, need, now_tick),
        EvictTrigger::Memory(need) => evict_memory(pool, policy, need, now_tick),
    }
}

/// Per-entry variant (BPent / HPent / plain LRU): take the leaves with the
/// smallest policy keys, as many per gathered snapshot as the trigger
/// still needs, and remove them in one batched round (one table write
/// lock). Re-gathers only when victims were rejected by
/// revalidation or when peeling a layer exposed new leaves.
fn evict_entries(
    pool: &RecyclePool,
    policy: EvictionPolicy,
    need: usize,
    now_tick: u64,
) -> Vec<PoolEntry> {
    let mut evicted = Vec::new();
    let mut stalled = 0u32;
    while evicted.len() < need {
        let mut leaves = gather(pool, policy, now_tick);
        if leaves.is_empty() {
            break;
        }
        leaves.sort_unstable_by(|a, b| {
            a.key
                .partial_cmp(&b.key)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let want = need - evicted.len();
        let victims: Vec<EntryId> = leaves.iter().take(want).map(|c| c.id).collect();
        let removed = pool.remove_batch_if_evictable(&victims);
        if removed.is_empty() {
            // the whole snapshot went stale (concurrent hits pinned the
            // victims, or they gained children); re-gather, but give up
            // if no round makes progress
            stalled += 1;
            if stalled > 3 {
                break;
            }
        } else {
            stalled = 0;
            evicted.extend(removed);
        }
    }
    evicted
}

/// Memory variant. For LRU: evict oldest leaves until enough bytes are
/// free (ties on the last-use stamp evict the largest entries first, so
/// the fewest victims pay for the bytes). For BP/HP: greedy knapsack over the leaves — keep the maximal
/// total benefit that fits within `total_leaf_bytes − need`, evict the
/// rest; the greedy order is profit density `B(I)/M(I)` and the solution
/// is compared against the single item of maximum profit (worst case at
/// most 2× off optimal). If the leaves do not release enough space, all of
/// them go and another iteration starts (paper §4.3).
fn evict_memory(
    pool: &RecyclePool,
    policy: EvictionPolicy,
    need: usize,
    now_tick: u64,
) -> Vec<PoolEntry> {
    let mut evicted = Vec::new();
    let mut freed = 0usize;
    let mut stalled = 0u32;
    while freed < need {
        let leaves = gather(pool, policy, now_tick);
        if leaves.is_empty() {
            break;
        }
        let leaf_bytes: usize = leaves.iter().map(|c| c.bytes).sum();
        let remaining_need = need - freed;
        let victims: Vec<EntryId> = if leaf_bytes <= remaining_need {
            // Not enough in this layer: evict the whole charged layer and
            // iterate. Spilled (zero-charge) leaves are spared as long as
            // any leaf still charges bytes — evicting them frees nothing,
            // and they are exactly the entries the ladder paid to keep.
            // Once *every* leaf is spilled the layer goes wholesale: that
            // frees no cap bytes either, but exposes the charged layer
            // beneath for the next iteration, which keeps byte pressure
            // resolvable. It is the ladder's true last rung: spilled → gone.
            if leaves.iter().any(|c| c.bytes > 0) {
                leaves
                    .iter()
                    .filter(|c| c.bytes > 0)
                    .map(|c| c.id)
                    .collect()
            } else {
                leaves.iter().map(|c| c.id).collect()
            }
        } else {
            match policy {
                EvictionPolicy::Lru => {
                    // ties on `last_used` break largest-bytes-first: the
                    // bytes freed then cost the fewest victims (smallest-
                    // first would maximise the entries destroyed for the
                    // same relief). Spilled leaves charge nothing against
                    // the cap, so evicting them here buys no relief —
                    // they are filtered out and survive until the
                    // evict-all branch above has nothing else left.
                    let mut ordered: Vec<(u64, std::cmp::Reverse<usize>, EntryId)> = leaves
                        .iter()
                        .filter(|c| c.bytes > 0)
                        .map(|c| (c.last_used, std::cmp::Reverse(c.bytes), c.id))
                        .collect();
                    ordered.sort_unstable();
                    let mut take = Vec::new();
                    let mut sum = 0usize;
                    for (_, std::cmp::Reverse(bytes), id) in ordered {
                        if sum >= remaining_need {
                            break;
                        }
                        sum += bytes;
                        take.push(id);
                    }
                    take
                }
                EvictionPolicy::Benefit | EvictionPolicy::History => {
                    // spilled (zero-byte) leaves fit any capacity for
                    // free, so the knapsack always keeps them — the same
                    // last-rung protection the LRU filter gives
                    knapsack_victims(&leaves, leaf_bytes - remaining_need)
                }
            }
        };
        if victims.is_empty() {
            break;
        }
        // one batched removal round: one table write lock
        let removed = pool.remove_batch_if_evictable(&victims);
        let progressed = !removed.is_empty();
        for e in removed {
            freed += e.bytes();
            evicted.push(e);
        }
        if !progressed {
            stalled += 1;
            if stalled > 3 {
                break;
            }
        } else {
            stalled = 0;
        }
    }
    evicted
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
    use std::sync::atomic::Ordering;
    use std::time::Duration;

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
        pool.insert(e, None).id()
    }

    #[test]
    fn lru_evicts_oldest() {
        let pool = RecyclePool::new();
        let old = put(&pool, 1, 100, 10, 0, 1);
        let newer = put(&pool, 2, 100, 10, 0, 5);
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Entries(1), 10);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, old);
        assert!(pool.entry(newer, |_| ()).is_some());
    }

    #[test]
    fn benefit_keeps_reused_expensive() {
        let pool = RecyclePool::new();
        let cheap = put(&pool, 1, 100, 1, 0, 9); // tiny benefit
        let valuable = put(&pool, 2, 100, 1000, 3, 1); // reused, expensive
        let ev = evict(&pool, EvictionPolicy::Benefit, EvictTrigger::Entries(1), 10);
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
        let ev = evict(
            &pool,
            EvictionPolicy::Benefit,
            EvictTrigger::Memory(2500),
            100,
        );
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
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Entries(1), 10);
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
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Entries(2), 10);
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
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Memory(900), 10);
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
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Memory(50), 10);
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
                    parent = Some(pool.insert(e, None).id());
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
            let ev = evict(pool, EvictionPolicy::Lru, EvictTrigger::Entries(2), 100);
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
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Entries(24), 100);
        assert_eq!(ev.len(), 24);
        assert_eq!(
            pool.write_lock_acquisitions() - before,
            1,
            "a single batched round takes the table write lock once"
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
        pool.insert(child, None);
        let ev = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Memory(1500), 10);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].family, "view", "leaf (child) must be evicted first");
        pool.check_invariants().unwrap();
    }
}
