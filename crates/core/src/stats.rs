//! Recycler statistics: global counters, per-query records and pool
//! snapshots (the raw material for the paper's tables and figures).

use std::collections::BTreeMap;
use std::time::Duration;

use crate::pool::RecyclePool;

/// Global counters accumulated over the recycler's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecyclerStats {
    /// Marked instructions intercepted (potential hits, binds included).
    pub monitored: u64,
    /// Exact-match reuses served from the pool.
    pub hits: u64,
    /// ... of which within the admitting invocation (local).
    pub local_hits: u64,
    /// ... of which across invocations (global).
    pub global_hits: u64,
    /// ... of which admitted by a *different session* than the one
    /// hitting — the cross-session reuse a shared pool exists for (a
    /// subset of `global_hits`).
    pub cross_session_hits: u64,
    /// Instructions executed in subsumed (rewritten or pieced) form.
    pub subsumed: u64,
    /// Results admitted to the pool.
    pub admissions: u64,
    /// Admissions declined by the admission policy.
    pub admission_rejects: u64,
    /// Concurrent duplicate admissions resolved first-writer-wins: the
    /// session computed a result another session had already admitted
    /// under the same signature; its copy was dropped and its credit
    /// returned.
    pub duplicate_admissions: u64,
    /// ... of which denied specifically because the admitting session had
    /// exhausted its per-session credit slice (and the overflow lane was
    /// closed). A subset of `admission_rejects`.
    pub session_budget_rejects: u64,
    /// Sessions ever attached to the shared recycler.
    pub sessions: u64,
    /// Sessions currently open (attached and not yet dropped) — the
    /// divisor of the per-session credit slices.
    pub active_sessions: u64,
    /// Entries evicted under resource pressure (inline + background).
    pub evictions: u64,
    /// ... of which evicted *inline* on an admitting session's query path
    /// (the pool was genuinely full: the strict gate at the cap failed).
    /// With the background collector enabled this should stay flat in
    /// steady state — the `background_eviction` bench asserts it.
    pub inline_evictions: u64,
    /// ... of which evicted by the background collector thread draining
    /// toward the low-water mark (a subset of `evictions`, disjoint from
    /// `inline_evictions`).
    pub background_evictions: u64,
    /// Minor collector rounds run (cheap sweeps over the nursery of
    /// recently-leafed entries).
    pub minor_rounds: u64,
    /// Major collector rounds run (full passes over the evictable-leaf
    /// index).
    pub major_rounds: u64,
    /// Mean wall time of a minor round, in milliseconds (0 when none ran).
    pub avg_minor_ms: f64,
    /// Mean wall time of a major round, in milliseconds (0 when none ran).
    pub avg_major_ms: f64,
    /// Bytes of headroom under the configured memory cap (`mem_limit −
    /// resident bytes`; 0 when no memory cap is configured). The gauge the
    /// collector's draining keeps positive.
    pub headroom_bytes: u64,
    /// Current size of the pool's incremental evictable-leaf index (the
    /// childless entries an eviction round gathers from).
    pub leaf_index_size: u64,
    /// Entries visited by eviction gathers, lifetime. With the leaf index
    /// this grows by O(leaves) per round, independent of pool size — the
    /// eviction gather-cost trajectory benchmarks track.
    pub evict_gather_visited: u64,
    /// Eviction gather rounds, lifetime (the divisor for per-round gather
    /// cost).
    pub evict_gather_rounds: u64,
    /// Entries invalidated by updates.
    pub invalidated: u64,
    /// Entries refreshed in place by delta propagation.
    pub propagated: u64,
    /// Admission attempts shed because the session's query deadline had
    /// already passed (the entry is simply not cached — deadline shedding
    /// costs misses, never wrong answers).
    pub deadline_skips: u64,
    /// Background-collector activations that panicked and were restarted
    /// by the collector thread's supervisor loop.
    pub collector_restarts: u64,
    /// Times the pool was quarantined after a poisoning panic
    /// (cumulative; see [`crate::pool::RecyclePool::repair`] for the
    /// degraded-mode semantics). The name predates the one-table pool and
    /// is kept for the wire.
    pub shards_quarantined: u64,
    /// Repairs that returned the quarantined pool to service
    /// (cumulative; named for the wire, like `shards_quarantined`).
    pub shards_repaired: u64,
    /// 1 while the pool sits in quarantine (probes degrade to misses
    /// until a repair runs), else 0.
    pub quarantined_now: u64,
    /// Execution time avoided through exact-match reuse (sum of the stored
    /// CPU costs of hit entries).
    pub time_saved: Duration,
    /// Time spent inside recycler bookkeeping (matching, admission,
    /// eviction) — the overhead the paper keeps "well below one
    /// microsecond per instruction".
    pub overhead: Duration,
    /// Time spent inside the combined-subsumption search (Algorithm 2).
    pub subsume_search: Duration,
    /// Bytes currently charged by raw (hot-tier) entries.
    pub raw_bytes: u64,
    /// Bytes currently charged by in-memory compressed blobs. With the
    /// compression tier on, `raw_bytes + compressed_bytes` equals the
    /// pool's resident total.
    pub compressed_bytes: u64,
    /// Bytes of live spilled records on disk — off-cap: they count
    /// against the spill budget, not the memory limit.
    pub spilled_bytes: u64,
    /// Entries demoted raw → compressed by collector rounds (lifetime).
    pub demotions_compressed: u64,
    /// Entries demoted compressed → spilled (lifetime).
    pub demotions_spilled: u64,
    /// Demoted entries promoted back to raw by hits (lifetime).
    pub tier_promotions: u64,
    /// Cumulative time hits spent decompressing demoted payloads.
    pub decompress_cost: Duration,
    /// Cumulative time hits spent rehydrating *spilled* payloads (record
    /// read-back + decode; disjoint from `decompress_cost`, which covers
    /// the in-memory compressed tier).
    pub rehydrate_cost: Duration,
}

/// Per-query record appended at every `query_end` — the unit the
/// experiment harness consumes.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// Template id.
    pub template: u64,
    /// Marked instructions seen this invocation.
    pub monitored: u64,
    /// Exact-match reuses this invocation.
    pub hits: u64,
    /// Local (intra-invocation) reuses.
    pub local_hits: u64,
    /// Global reuses.
    pub global_hits: u64,
    /// ... of which of entries another session admitted.
    pub cross_session_hits: u64,
    /// Subsumed executions this invocation.
    pub subsumed: u64,
    /// Execution time avoided this invocation.
    pub saved: Duration,
    /// Bytes admitted this invocation.
    pub bytes_admitted: u64,
    /// Entries admitted this invocation.
    pub admitted: u64,
    /// Time this invocation spent inside recycler bookkeeping.
    pub overhead: Duration,
}

impl QueryRecord {
    /// Hit ratio against the potential hits of this invocation.
    pub fn hit_ratio(&self) -> f64 {
        if self.monitored == 0 {
            0.0
        } else {
            self.hits as f64 / self.monitored as f64
        }
    }
}

/// Per-instruction-family aggregation of the pool content — one row of the
/// paper's Table III.
#[derive(Debug, Clone, Default)]
pub struct FamilyRow {
    /// Number of cache lines (entries).
    pub lines: u64,
    /// Resident bytes.
    pub bytes: u64,
    /// Mean execution cost of the stored instances.
    pub avg_cpu: Duration,
    /// Entries that have been reused at least once.
    pub reused_lines: u64,
    /// Total number of reuses.
    pub reuses: u64,
    /// Total execution time avoided by reusing entries of this family.
    pub time_saved: Duration,
}

/// A point-in-time summary of the pool.
#[derive(Debug, Clone, Default)]
pub struct PoolSnapshot {
    /// Entry count.
    pub entries: usize,
    /// Total resident bytes.
    pub bytes: usize,
    /// Entries with at least one reuse.
    pub reused_entries: usize,
    /// Bytes held by entries with at least one reuse.
    pub reused_bytes: usize,
    /// Breakdown per instruction family.
    pub by_family: BTreeMap<&'static str, FamilyRow>,
}

impl PoolSnapshot {
    /// Build a snapshot from the live pool (the table read lock; atomics
    /// sampled in passing).
    pub fn capture(pool: &RecyclePool) -> PoolSnapshot {
        let mut snap = PoolSnapshot {
            entries: pool.len(),
            bytes: pool.bytes(),
            ..Default::default()
        };
        let mut cpu_sums: BTreeMap<&'static str, Duration> = BTreeMap::new();
        pool.for_each_entry(|e| {
            let reuses = e.local_reuses() + e.global_reuses();
            if reuses > 0 {
                snap.reused_entries += 1;
                snap.reused_bytes += e.bytes();
            }
            let row = snap.by_family.entry(e.family).or_default();
            row.lines += 1;
            row.bytes += e.bytes() as u64;
            row.reuses += reuses;
            if reuses > 0 {
                row.reused_lines += 1;
            }
            row.time_saved += e.time_saved();
            *cpu_sums.entry(e.family).or_default() += e.cpu;
        });
        for (fam, row) in snap.by_family.iter_mut() {
            if row.lines > 0 {
                row.avg_cpu = cpu_sums[fam] / row.lines as u32;
            }
        }
        snap
    }

    /// Fraction of pool memory that has paid for itself through reuse.
    pub fn reused_memory_pct(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            100.0 * self.reused_bytes as f64 / self.bytes as f64
        }
    }

    /// Fraction of pool entries reused at least once.
    pub fn reused_entries_pct(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            100.0 * self.reused_entries as f64 / self.entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zero() {
        let pool = RecyclePool::new();
        let s = PoolSnapshot::capture(&pool);
        assert_eq!(s.entries, 0);
        assert_eq!(s.reused_memory_pct(), 0.0);
        assert_eq!(s.reused_entries_pct(), 0.0);
    }

    #[test]
    fn query_record_ratio() {
        let r = QueryRecord {
            monitored: 10,
            hits: 4,
            ..Default::default()
        };
        assert!((r.hit_ratio() - 0.4).abs() < 1e-12);
    }
}
