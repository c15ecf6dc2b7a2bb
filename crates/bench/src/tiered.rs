//! The `tiered_lowmem` scenario: hit retention at the lowmem cap with the
//! residency ladder off vs on.
//!
//! The 1 MiB cap forces the seed recycler to throw cold intermediates
//! away, so a workload that *revisits* its parameters keeps recomputing
//! what the pool just evicted. With the tiering subsystem on, the
//! background collector demotes those entries instead — compressing them
//! in place, then spilling the coldest to disk off-cap — and a revisit
//! pays a decompress (or a record read-back) instead of a recomputation.
//! The scenario drives the *same* cycling parameter alphabet through the
//! same cap both ways and reports the hit ratio, wall time and per-tier
//! traffic; the module's test holds the ladder to retaining the hits the
//! raw pool loses.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::{Catalog, Value};
use recycler::{EvictionPolicy, RecyclerConfig};
use recycling::DatabaseBuilder;
use rmal::Program;

/// One side (tiering off or on) of the [`tiered_lowmem`] comparison.
#[derive(Debug, Clone)]
pub struct TieredRun {
    /// Was the tiering subsystem (compression + spill) enabled?
    pub tiered: bool,
    /// Queries executed (all cycles).
    pub queries: usize,
    /// Wall time for the whole run.
    pub elapsed: Duration,
    /// Exact-match hits over the run.
    pub hits: u64,
    /// Marked instructions intercepted (the hit-ratio divisor).
    pub monitored: u64,
    /// `hits / monitored` — the headline retention number.
    pub hit_ratio: f64,
    /// Entries evicted (inline + background): what the ladder *avoids*.
    pub evictions: u64,
    /// Inline evictions on the query path (must stay 0 with the
    /// collector on, tiering or not).
    pub inline_evictions: u64,
    /// Entries demoted raw → compressed.
    pub demotions_compressed: u64,
    /// Entries demoted compressed → spilled.
    pub demotions_spilled: u64,
    /// Demoted entries promoted back to raw by hits.
    pub tier_promotions: u64,
    /// End-of-run per-tier byte gauges.
    pub raw_bytes: u64,
    /// Bytes held by in-memory compressed blobs at the end of the run.
    pub compressed_bytes: u64,
    /// Live spilled bytes on disk at the end of the run (off-cap).
    pub spilled_bytes: u64,
    /// Cumulative decompress time paid by hits on compressed entries.
    pub decompress_cost: Duration,
    /// Cumulative read-back + decode time paid by hits on spilled entries.
    pub rehydrate_cost: Duration,
}

/// Outcome of [`tiered_lowmem`]: the same cycling workload and cap,
/// tiering off then on.
#[derive(Debug)]
pub struct TieredLowmemOutcome {
    /// The shared memory cap (bytes) — 1 MiB, as in the other lowmem
    /// scenarios.
    pub cap_bytes: usize,
    /// Distinct parameter sets in the cycling alphabet.
    pub distinct: usize,
    /// Passes over the alphabet.
    pub cycles: usize,
    /// Run with the raw pool (collector on, no tiering).
    pub without_tiering: TieredRun,
    /// Run with compression + spill enabled at the same cap.
    pub with_tiering: TieredRun,
}

impl TieredLowmemOutcome {
    /// The acceptance gate: at the same cap, the ladder must retain at
    /// least the hit ratio the raw pool manages (in practice it retains
    /// strictly more once the alphabet overflows the cap).
    pub fn tiering_retains_hits(&self) -> bool {
        self.with_tiering.hit_ratio >= self.without_tiering.hit_ratio
    }
}

fn drive_tiered(
    catalog: Catalog,
    template: &Program,
    alphabet: &[Vec<Value>],
    cycles: usize,
    config: RecyclerConfig,
    spill: Option<(std::path::PathBuf, usize)>,
) -> TieredRun {
    let tiered = config.compression;
    let mut builder = DatabaseBuilder::new(catalog).recycler(config);
    if let Some((dir, budget)) = spill {
        builder = builder.spill_dir(dir, budget);
    }
    let db = builder.build();
    let t = db.prepare(template.clone());
    let mut session = db.session();
    let high = (db.config().mem_limit.unwrap_or(usize::MAX) as f64 * db.config().high_water_ratio)
        as usize;
    let started = Instant::now();
    for _ in 0..cycles {
        for params in alphabet {
            session.query(&t, params).expect("tiered_lowmem query");
        }
        // Think time between passes: let the collector absorb the burst
        // (demoting or evicting down from the high-water mark) the way a
        // served workload would between request waves. Bounded so a wedged
        // collector cannot hang the bench.
        let settle = Instant::now();
        while db.pool().bytes() > high && settle.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let elapsed = started.elapsed();
    let stats = db.stats();
    db.pool()
        .check_invariants()
        .expect("pool exact after tiered run");
    TieredRun {
        tiered,
        queries: alphabet.len() * cycles,
        elapsed,
        hits: stats.hits,
        monitored: stats.monitored,
        hit_ratio: if stats.monitored == 0 {
            0.0
        } else {
            stats.hits as f64 / stats.monitored as f64
        },
        evictions: stats.evictions,
        inline_evictions: stats.inline_evictions,
        demotions_compressed: stats.demotions_compressed,
        demotions_spilled: stats.demotions_spilled,
        tier_promotions: stats.tier_promotions,
        raw_bytes: stats.raw_bytes,
        compressed_bytes: stats.compressed_bytes,
        spilled_bytes: stats.spilled_bytes,
        decompress_cost: stats.decompress_cost,
        rehydrate_cost: stats.rehydrate_cost,
    }
}

/// The `tiered_lowmem` scenario: cycle `distinct` TPC-H Q6 parameter sets
/// `cycles` times through a pool capped at `cap_bytes` (collector on,
/// water marks 0.5/0.75 — the `background_eviction` regime), once with
/// the raw pool and once with compression + an off-cap spill file, and
/// compare what fraction of the revisits still hit.
///
/// The spill directory lives under the OS temp dir and is removed before
/// returning — the spill file itself is deleted by the recycler when the
/// database drops.
pub fn tiered_lowmem(
    sf: f64,
    distinct: usize,
    cycles: usize,
    cap_bytes: usize,
) -> TieredLowmemOutcome {
    assert!(cycles >= 2, "retention needs at least one revisit pass");
    let catalog = tpch::generate(tpch::TpchScale::new(sf));
    let q = tpch::query(6);
    let mut rng = SmallRng::seed_from_u64(42);
    let alphabet: Vec<Vec<Value>> = (0..distinct).map(|_| (q.params)(&mut rng)).collect();
    let base = crate::driver::keepall()
        .eviction(EvictionPolicy::Lru)
        .mem_limit(cap_bytes)
        .collector(true)
        .water_marks(0.5, 0.75);
    let without = drive_tiered(catalog.clone(), &q.template, &alphabet, cycles, base, None);
    let spill_dir =
        std::env::temp_dir().join(format!("recycler-tiered-lowmem-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let with = drive_tiered(
        catalog,
        &q.template,
        &alphabet,
        cycles,
        base.compression(true),
        Some((spill_dir.clone(), 32 << 20)),
    );
    // the DB drop above removed the spill file; drop its directory too so
    // repeated bench runs leave nothing behind in the temp dir
    std::fs::remove_dir_all(&spill_dir).ok();
    TieredLowmemOutcome {
        cap_bytes,
        distinct,
        cycles,
        without_tiering: without,
        with_tiering: with,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiering_retains_hits_at_the_lowmem_cap() {
        // an alphabet that overflows 1 MiB, revisited three times: the raw
        // pool must evict; the ladder must demote instead and serve the
        // revisits at least as well
        let out = tiered_lowmem(0.002, 16, 3, 1 << 20);
        assert_eq!(out.without_tiering.queries, 48);
        assert!(
            out.without_tiering.evictions > 0,
            "cap never bound — the scenario exerts no pressure: {:?}",
            out.without_tiering
        );
        assert!(
            out.with_tiering.demotions_compressed > 0,
            "the ladder never demoted anything: {:?}",
            out.with_tiering
        );
        assert!(
            out.tiering_retains_hits(),
            "tiering lost hits vs the raw pool: raw {:?} vs tiered {:?}",
            out.without_tiering,
            out.with_tiering
        );
        // the spill scratch space must be gone when the scenario returns
        let dir =
            std::env::temp_dir().join(format!("recycler-tiered-lowmem-{}", std::process::id()));
        assert!(!dir.exists(), "spill dir leaked: {}", dir.display());
    }
}
