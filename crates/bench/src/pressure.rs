//! Memory-pressure scenarios: `eviction_pressure` (eviction gather cost
//! vs pool size) and `background_eviction` (admission latency with the
//! background collector on vs off at the same cap).
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

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::{Catalog, Value};
use recycler::{EntryId, EvictionPolicy, PoolEntry, RecyclePool, RecyclerConfig};
use recycling::DatabaseBuilder;
use rmal::Program;

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
    /// Wall time of the eviction call.
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
/// then evict `evict` entries and record the gather cost.
fn measure(chains: usize, depth: usize, evict: usize, policy: EvictionPolicy) -> PressurePoint {
    let pool = RecyclePool::new();
    let mut tag = 0i64;
    for _ in 0..chains {
        let mut parent: Option<EntryId> = None;
        for _ in 0..depth {
            tag += 1;
            let admitted = pool.insert(chain_entry(&pool, tag, parent), None);
            parent = Some(admitted.id());
        }
    }
    let pool_entries = pool.len();
    let leaves = pool.leaf_index_size();
    let v0 = pool.eviction_gather_visited();
    let r0 = pool.eviction_gather_rounds();
    let started = Instant::now();
    let evicted = recycler::eviction::evict(
        &pool,
        policy,
        recycler::eviction::EvictTrigger::Entries(evict),
        tag as u64 + 1,
    );
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

/// One side (collector on or off) of the [`background_eviction`]
/// comparison: admission latency percentiles over the steady phase plus
/// the eviction/collector counters at the end of the run.
#[derive(Debug, Clone)]
pub struct BackgroundRun {
    /// Was the background collector enabled for this run?
    pub collector: bool,
    /// Queries measured in the steady phase (after warm-up).
    pub queries: usize,
    /// Median query latency over the steady phase.
    pub p50: Duration,
    /// 99th-percentile query latency over the steady phase — the tail the
    /// collector exists to protect from inline eviction stalls.
    pub p99: Duration,
    /// Inline evictions incurred *during the steady phase* (lifetime count
    /// at the end minus the count at the warm-up snapshot). With the
    /// collector on this must be zero: admissions never evict on the query
    /// path once the water-mark regime is established.
    pub steady_inline_evictions: u64,
    /// Lifetime inline evictions (warm-up included).
    pub inline_evictions: u64,
    /// Lifetime background (collector) evictions.
    pub background_evictions: u64,
    /// Minor collector rounds run.
    pub minor_rounds: u64,
    /// Major collector rounds run.
    pub major_rounds: u64,
    /// Mean minor-round wall time, milliseconds.
    pub avg_minor_ms: f64,
    /// Mean major-round wall time, milliseconds.
    pub avg_major_ms: f64,
    /// Headroom under the cap at the end of the run.
    pub headroom_bytes: u64,
}

/// Outcome of [`background_eviction`]: the same workload, cap and water
/// marks, with the collector off then on.
#[derive(Debug)]
pub struct BackgroundEvictionOutcome {
    /// The shared memory cap (bytes) — the lowmem scenario uses 1 MiB.
    pub cap_bytes: usize,
    /// Warm-up queries excluded from the latency sample.
    pub warmup: usize,
    /// Run with inline eviction only (the seed behaviour).
    pub without_collector: BackgroundRun,
    /// Run with the collector draining toward the low-water mark.
    pub with_collector: BackgroundRun,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn drive_pressure(
    catalog: Catalog,
    template: &Program,
    items: &[Vec<Value>],
    warmup: usize,
    config: RecyclerConfig,
) -> BackgroundRun {
    let collector = config.background_collector;
    let db = DatabaseBuilder::new(catalog).recycler(config).build();
    let t = db.prepare(template.clone());
    let mut session = db.session();
    for params in &items[..warmup] {
        session.query(&t, params).expect("warmup query");
    }
    if collector {
        // let the collector finish absorbing the warm-up burst so the
        // steady phase starts inside the water-mark regime (the signal
        // fired during warm-up; IDLE_POLL bounds how long this takes)
        let settle = Instant::now();
        let high = (db.config().mem_limit.unwrap_or(usize::MAX) as f64
            * db.config().high_water_ratio) as usize;
        while db.pool().bytes() > high && settle.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let at_warmup = db.stats();
    let mut latencies: Vec<Duration> = Vec::with_capacity(items.len() - warmup);
    for params in &items[warmup..] {
        let started = Instant::now();
        session.query(&t, params).expect("steady query");
        latencies.push(started.elapsed());
    }
    let stats = db.stats();
    db.pool()
        .check_invariants()
        .expect("pool exact after pressure run");
    latencies.sort();
    BackgroundRun {
        collector,
        queries: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        steady_inline_evictions: stats.inline_evictions - at_warmup.inline_evictions,
        inline_evictions: stats.inline_evictions,
        background_evictions: stats.background_evictions,
        minor_rounds: stats.minor_rounds,
        major_rounds: stats.major_rounds,
        avg_minor_ms: stats.avg_minor_ms,
        avg_major_ms: stats.avg_major_ms,
        headroom_bytes: stats.headroom_bytes,
    }
}

/// The `background_eviction` scenario: drive a stream of distinct-parameter
/// TPC-H Q6 instances (every instance admits fresh intermediates) through
/// a pool capped at `cap_bytes`, once with inline-only eviction and once
/// with the background collector (water marks 0.5/0.75), and compare
/// steady-phase admission latency and where the evictions ran.
pub fn background_eviction(
    sf: f64,
    queries: usize,
    warmup: usize,
    cap_bytes: usize,
) -> BackgroundEvictionOutcome {
    assert!(warmup < queries, "need a steady phase to measure");
    let catalog = tpch::generate(tpch::TpchScale::new(sf));
    let q = tpch::query(6);
    let mut rng = SmallRng::seed_from_u64(42);
    let items: Vec<Vec<Value>> = (0..queries).map(|_| (q.params)(&mut rng)).collect();
    let base = crate::driver::keepall()
        .eviction(EvictionPolicy::Lru)
        .mem_limit(cap_bytes);
    let without = drive_pressure(catalog.clone(), &q.template, &items, warmup, base);
    let with = drive_pressure(
        catalog,
        &q.template,
        &items,
        warmup,
        base.collector(true).water_marks(0.5, 0.75),
    );
    BackgroundEvictionOutcome {
        cap_bytes,
        warmup,
        without_collector: without,
        with_collector: with,
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
    fn collector_keeps_admissions_off_the_eviction_path() {
        // same 1 MiB cap both sides; the workload genuinely overflows it
        // (the collector-off run must evict), and with the collector on no
        // steady-phase admission may evict inline
        let out = background_eviction(0.002, 60, 15, 1 << 20);
        assert_eq!(out.without_collector.queries, 45);
        assert!(
            out.without_collector.inline_evictions > 0,
            "cap never bound — the scenario exerts no pressure: {:?}",
            out.without_collector
        );
        assert_eq!(
            out.with_collector.steady_inline_evictions, 0,
            "an admission evicted inline despite the collector: {:?}",
            out.with_collector
        );
        assert!(
            out.with_collector.background_evictions > 0,
            "collector never drained anything: {:?}",
            out.with_collector
        );
        assert!(
            out.with_collector.minor_rounds + out.with_collector.major_rounds > 0,
            "collector ran no rounds: {:?}",
            out.with_collector
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
