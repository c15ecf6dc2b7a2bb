//! Memory-pressure scenario: `eviction_pressure` (eviction gather cost vs
//! pool size).
//!
//! Before the incremental evictable-leaf index, every eviction round
//! re-scanned the whole pool to find the childless entries, so gather
//! work grew with *pool size* — O(pool) per round, O(pool²) across a
//! pressure spike. The index makes a round O(leaves). This scenario
//! builds pools with a **fixed leaf population but growing dependency
//! depth** (so total size grows while the leaf layer stays put), drives
//! eviction rounds through each, and reports the gather-visited counter
//! per round: the series must be flat across pool sizes for the O(leaves)
//! bound to hold — the module's test asserts it.

use std::time::{Duration, Instant};

use recycler::{Caps, EntryId, EvictionPolicy, PoolEntry, RecyclePool};

/// One measured point: a pool of `chains × depth` entries with exactly
/// `chains` evictable leaves, put under entry pressure.
#[derive(Debug, Clone)]
pub struct PressurePoint {
    /// Dependency-chain depth (the pool-size multiplier).
    pub depth: usize,
    /// Total entries resident before eviction.
    pub pool_entries: usize,
    /// Leaves resident before eviction (constant across points).
    pub leaves: usize,
    /// Entries evicted by the pressure round.
    pub evicted: usize,
    /// Gather rounds the eviction performed.
    pub gather_rounds: u64,
    /// Entries visited across those rounds.
    pub gather_visited: u64,
    /// Visited entries per round — the number that must stay flat as
    /// `pool_entries` grows.
    pub visited_per_round: f64,
    /// Wall time of the admission that evicted.
    pub elapsed: Duration,
}

/// Outcome of [`eviction_pressure`]: one point per chain depth.
#[derive(Debug)]
pub struct EvictionPressureOutcome {
    /// Leaf population shared by every point.
    pub chains: usize,
    /// Victims requested from each point's eviction.
    pub evict_per_point: usize,
    /// The per-depth measurements.
    pub points: Vec<PressurePoint>,
}

impl EvictionPressureOutcome {
    /// Is gather work flat across pool sizes (max/min visited-per-round
    /// ratio ≤ `tolerance`)? With the leaf index the ratio is exactly 1.
    pub fn gather_is_size_independent(&self, tolerance: f64) -> bool {
        let per_round: Vec<f64> = self.points.iter().map(|p| p.visited_per_round).collect();
        let (min, max) = per_round
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        min > 0.0 && max / min <= tolerance
    }
}

fn chain_entry(pool: &RecyclePool, tag: i64, parent: Option<EntryId>) -> PoolEntry {
    let parents = parent.map(|p| vec![p]).unwrap_or_default();
    let mut e = PoolEntry::test_stub(pool.alloc_id(), tag, parents, 256);
    e.cpu = Duration::from_micros(10);
    e
}

/// Build a pool of `chains` parent→child chains of length `depth` (total
/// `chains × depth` entries, exactly `chains` leaves — the chain tails),
/// then admit one more entry under an entry cap that makes it evict
/// `evict` entries first, and record the gather cost.
fn measure(chains: usize, depth: usize, evict: usize, policy: EvictionPolicy) -> PressurePoint {
    let pool = RecyclePool::new();
    let mut tag = 0i64;
    for _ in 0..chains {
        let mut parent: Option<EntryId> = None;
        for _ in 0..depth {
            tag += 1;
            let (admitted, _) = pool.insert(chain_entry(&pool, tag, parent), Caps::NONE);
            parent = Some(admitted.id());
        }
    }
    let pool_entries = pool.len();
    let leaves = pool.leaf_index_size();
    let v0 = pool.eviction_gather_visited();
    let r0 = pool.eviction_gather_rounds();
    let caps = Caps {
        entries: Some(pool_entries + 1 - evict),
        policy,
        now_tick: tag as u64 + 1,
        ..Caps::NONE
    };
    let newcomer = chain_entry(&pool, tag + 1, None);
    let started = Instant::now();
    let (_, evicted) = pool.insert(newcomer, caps);
    let elapsed = started.elapsed();
    let gather_rounds = pool.eviction_gather_rounds() - r0;
    let gather_visited = pool.eviction_gather_visited() - v0;
    pool.check_invariants().expect("pool stays exact");
    PressurePoint {
        depth,
        pool_entries,
        leaves,
        evicted: evicted.len(),
        gather_rounds,
        gather_visited,
        visited_per_round: gather_visited as f64 / gather_rounds.max(1) as f64,
        elapsed,
    }
}

/// The `eviction_pressure` scenario: sweep chain depths (pool sizes) at a
/// fixed leaf population, evicting the same victim count from each pool.
pub fn eviction_pressure(
    chains: usize,
    depths: &[usize],
    evict_per_point: usize,
) -> EvictionPressureOutcome {
    let points = depths
        .iter()
        .map(|&d| measure(chains, d, evict_per_point, EvictionPolicy::Lru))
        .collect();
    EvictionPressureOutcome {
        chains,
        evict_per_point,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_work_is_independent_of_pool_size() {
        // 16× pool growth at a constant leaf layer: visited-per-round must
        // not move at all
        let out = eviction_pressure(12, &[1, 4, 16], 6);
        assert_eq!(out.points.len(), 3);
        assert_eq!(out.points[0].pool_entries, 12);
        assert_eq!(out.points[2].pool_entries, 192);
        for p in &out.points {
            assert_eq!(p.leaves, 12, "leaf layer constant by construction: {p:?}");
            assert_eq!(p.evicted, 6);
        }
        assert!(
            out.gather_is_size_independent(1.0),
            "gather cost grew with pool size: {:?}",
            out.points
        );
    }

    #[test]
    fn deep_pressure_peels_layers_in_leaf_sized_rounds() {
        // evicting past the first layer forces re-gathers; each must still
        // be bounded by the *current* leaf count, never the pool size
        let out = eviction_pressure(8, &[8], 24);
        let p = &out.points[0];
        assert_eq!(p.pool_entries, 64);
        assert_eq!(p.evicted, 24);
        assert!(
            p.gather_visited <= p.gather_rounds * 8,
            "a round visited more than the leaf layer: {p:?}"
        );
    }
}
