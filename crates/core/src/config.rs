//! Recycler configuration: admission, eviction, resource limits, updates.

/// Admission policies deciding which executed intermediates enter the pool
/// (paper §4.2 and the adaptive refinement of §7.2, plus the reuse-paced
/// default). Every policy accounts per template instruction: the
/// [`InstrKey`](crate::entry::InstrKey) `(template, pc)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Keep every instruction instance the optimiser advised — the paper's
    /// baseline, which preserves entire execution threads. No longer the
    /// default: the paper's experiments select it explicitly.
    KeepAll,
    /// Reuse-paced admission — the default. A template instruction keeps
    /// admitting only while its instances get reused:
    ///
    /// * **balance** — each key holds a balance in `[0, K]`, starting at
    ///   `K` ([`PACED_CREDITS`](crate::shared::PACED_CREDITS));
    /// * **spend and repay** — an admission spends one credit; every reuse
    ///   of an instance the key created (a local hit, a global hit, use as
    ///   a subsumption source) repays one at once, up to `K`; eviction and
    ///   invalidation repay nothing;
    /// * **probation** — a drained key gets one uncharged admission after
    ///   `2^j` denied attempts, where `j` counts its probations since its
    ///   last repayment, so a key drained in one phase of a workload
    ///   recovers in the next;
    /// * **no clock** — decisions read counts only, so a single-client
    ///   script admits the same instances on every run.
    ///
    /// Bounds: a key that is never reused admits at most
    /// `K + ⌈log2 misses⌉` instances; a key reused at least once per
    /// admission never drains and behaves as under [`Self::KeepAll`].
    Paced,
    /// The CREDIT policy: each template instruction starts with `k`
    /// credits; admitting an instance costs one credit; a *local* reuse
    /// (within the admitting invocation) returns the credit immediately,
    /// a *global* reuse returns it when the reused instance is evicted.
    Credit(u32),
    /// The adaptive CREDIT policy: behaves like `Credit(k)` for the first
    /// `k` invocations of a template, after which instructions that have
    /// been reused at least once receive unlimited credits and all others
    /// are barred from the pool.
    Adaptive(u32),
}

/// Eviction policies choosing which *leaf* entries to drop under resource
/// pressure (paper §4.3). Each policy exists in a per-entry and a
/// per-memory flavour; which one runs is decided by the limit that
/// triggered eviction (entry-count limit vs memory limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used (computation or reuse time).
    Lru,
    /// Benefit policy (BP): evict the smallest `B(I) = Cost(I)·Weight(I)`.
    Benefit,
    /// History policy (HP): benefit aged by pool residence time,
    /// `B(I) / (t_cur − t_adm)`.
    History,
}

/// How the recycle pool is synchronised with committed updates (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Immediate column-level invalidation of affected intermediates —
    /// what the paper's implementation ships (§6.4).
    Invalidate,
    /// Delta propagation (§6.3): refresh bind/select/view/join chains with
    /// the committed insert deltas; falls back to invalidation for
    /// operators without a propagation rule and for deleting commits.
    Propagate,
}

/// Full recycler configuration.
#[derive(Debug, Clone, Copy)]
pub struct RecyclerConfig {
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Memory budget for intermediates, in bytes (`None` = unlimited).
    pub mem_limit: Option<usize>,
    /// Maximum number of pool entries ("cache lines"; `None` = unlimited).
    pub entry_limit: Option<usize>,
    /// Enable singleton subsumption (range select / LIKE / semijoin, §5.1).
    pub subsumption: bool,
    /// Enable combined subsumption (Algorithm 2, §5.2). Requires
    /// `subsumption`.
    pub combined_subsumption: bool,
    /// Update synchronisation mode.
    pub update_mode: UpdateMode,
    /// Per-session admission budget: a *global* allowance of resident
    /// pool entries shared fairly between the active sessions. Each
    /// session may keep up to `budget / active_sessions` entries of its
    /// own resident (rebalanced as sessions open and close), plus an
    /// overflow lane: while the pool as a whole holds fewer than `budget`
    /// entries, idle slices are up for grabs. A session below its fair
    /// slice can therefore *always* admit — one flooding session can
    /// saturate its slice and the overflow, but never starve another
    /// session's admissions (`None` = no per-session budget).
    pub session_credits: Option<u64>,
    /// Run the background collector thread: a GC-style maintenance
    /// service that continuously drains the pool toward the low-water
    /// mark so admissions under pressure merely *signal* it instead of
    /// evicting synchronously on the query path. Requires at least one
    /// configured limit (`mem_limit` / `entry_limit`) — validated at
    /// facade build time. Off by default: without the collector the
    /// recycler behaves exactly as before (inline eviction at the cap).
    pub background_collector: bool,
    /// Low-water mark as a fraction of the configured cap(s), in `(0,
    /// 1]`: the collector drains the pool down to `ratio × cap` (bytes
    /// and entries alike) once signalled. Must be below
    /// [`Self::high_water_ratio`].
    pub low_water_ratio: f64,
    /// High-water mark as a fraction of the configured cap(s), in `(0,
    /// 1]`: admissions signal the collector when resident + in-flight
    /// demand crosses `ratio × cap`. The gap to the cap itself is the
    /// headroom admissions can consume while the collector catches up —
    /// only when the pool is *genuinely full* (the strict gate at the cap
    /// fails) does an admission fall back to inline eviction.
    pub high_water_ratio: f64,
    /// Enable the compression tier: collector rounds demote cold raw
    /// entries to lightweight-compressed blobs *in place* before the
    /// evict path ever fires, so eviction becomes the last rung of the
    /// demotion ladder (raw → compressed → [spilled →] gone). A hit on
    /// a compressed entry decompresses and re-promotes to raw, recording
    /// the decompress cost. Requires the background collector (demotion
    /// is a background activity) — validated at facade build time. Off
    /// by default: without it the pool behaves exactly as before.
    pub compression: bool,
}

impl Default for RecyclerConfig {
    /// Reuse-paced admission ([`AdmissionPolicy::Paced`]), LRU eviction, no
    /// resource limits, singleton + combined subsumption enabled,
    /// invalidation on update. The paper's baseline setting is this with
    /// `.admission(AdmissionPolicy::KeepAll)`: under a cap, KEEPALL admits
    /// every miss and evicts to make room, so instances that are never
    /// reused push out the ones that are; pacing admits a template
    /// instruction only while its instances pay for themselves.
    fn default() -> Self {
        RecyclerConfig {
            admission: AdmissionPolicy::Paced,
            eviction: EvictionPolicy::Lru,
            mem_limit: None,
            entry_limit: None,
            subsumption: true,
            combined_subsumption: true,
            update_mode: UpdateMode::Invalidate,
            session_credits: None,
            background_collector: false,
            low_water_ratio: 0.5,
            high_water_ratio: 0.8,
            compression: false,
        }
    }
}

impl RecyclerConfig {
    /// Builder-style: set the admission policy.
    pub fn admission(mut self, a: AdmissionPolicy) -> Self {
        self.admission = a;
        self
    }

    /// Builder-style: set the eviction policy.
    pub fn eviction(mut self, e: EvictionPolicy) -> Self {
        self.eviction = e;
        self
    }

    /// Builder-style: cap pool memory.
    pub fn mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Builder-style: cap pool entries.
    pub fn entry_limit(mut self, n: usize) -> Self {
        self.entry_limit = Some(n);
        self
    }

    /// Builder-style: toggle subsumption.
    pub fn subsumption(mut self, on: bool) -> Self {
        self.subsumption = on;
        if !on {
            self.combined_subsumption = false;
        }
        self
    }

    /// Builder-style: toggle combined subsumption.
    pub fn combined(mut self, on: bool) -> Self {
        self.combined_subsumption = on && self.subsumption;
        self
    }

    /// Builder-style: set the update mode.
    pub fn update_mode(mut self, m: UpdateMode) -> Self {
        self.update_mode = m;
        self
    }

    /// Builder-style: set the global per-session admission budget (fair
    /// slices of `n` resident entries over the active sessions, with an
    /// overflow lane for idle capacity).
    pub fn session_credits(mut self, n: u64) -> Self {
        self.session_credits = Some(n.max(1));
        self
    }

    /// Builder-style: enable the background collector thread (see
    /// [`Self::background_collector`]). Pair with a `mem_limit` /
    /// `entry_limit` — a collector with nothing to drain toward is a
    /// configuration error.
    pub fn collector(mut self, on: bool) -> Self {
        self.background_collector = on;
        self
    }

    /// Builder-style: set the collector's low/high water marks as
    /// fractions of the configured cap(s). Validated at facade build time:
    /// both in `(0, 1]` and `low < high`.
    pub fn water_marks(mut self, low: f64, high: f64) -> Self {
        self.low_water_ratio = low;
        self.high_water_ratio = high;
        self
    }

    /// Builder-style: enable the compression tier (see
    /// [`Self::compression`]). Pair with the background collector and a
    /// resource cap — demotion is driven by collector rounds under
    /// pressure.
    pub fn compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Validate the configuration, returning a human-readable description
    /// of the first violation. Checked by the facade at build time
    /// (`DatabaseBuilder::try_build` maps this into a typed
    /// `recycling::Error::Config`); the core constructors trust their
    /// input, so embedders driving [`crate::SharedRecycler`] directly
    /// should call this themselves.
    pub fn validate(&self) -> Result<(), String> {
        let ratio_ok = |r: f64| r > 0.0 && r <= 1.0 && r.is_finite();
        if !ratio_ok(self.low_water_ratio) {
            return Err(format!(
                "low_water_ratio must be in (0, 1], got {}",
                self.low_water_ratio
            ));
        }
        if !ratio_ok(self.high_water_ratio) {
            return Err(format!(
                "high_water_ratio must be in (0, 1], got {}",
                self.high_water_ratio
            ));
        }
        if self.low_water_ratio >= self.high_water_ratio {
            return Err(format!(
                "low water mark must sit below the high water mark, got low {} ≥ high {}",
                self.low_water_ratio, self.high_water_ratio
            ));
        }
        if self.background_collector && self.mem_limit.is_none() && self.entry_limit.is_none() {
            return Err(
                "background collector requires a mem_limit or entry_limit to drain toward"
                    .to_string(),
            );
        }
        if self.compression {
            if !self.background_collector {
                return Err(
                    "the compression tier requires the background collector (demotion \
                     is a background activity)"
                        .to_string(),
                );
            }
            if self.mem_limit.is_none() && self.entry_limit.is_none() {
                return Err(
                    "the compression tier requires a mem_limit or entry_limit — without \
                     pressure there is nothing to demote for"
                        .to_string(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paced_unlimited() {
        let c = RecyclerConfig::default();
        assert_eq!(c.admission, AdmissionPolicy::Paced);
        assert!(c.mem_limit.is_none() && c.entry_limit.is_none());
        assert!(c.subsumption && c.combined_subsumption);
    }

    #[test]
    fn builder_chains() {
        let c = RecyclerConfig::default()
            .admission(AdmissionPolicy::Credit(3))
            .eviction(EvictionPolicy::Benefit)
            .mem_limit(1 << 20)
            .entry_limit(100);
        assert_eq!(c.admission, AdmissionPolicy::Credit(3));
        assert_eq!(c.eviction, EvictionPolicy::Benefit);
        assert_eq!(c.mem_limit, Some(1 << 20));
        assert_eq!(c.entry_limit, Some(100));
    }

    #[test]
    fn disabling_subsumption_disables_combined() {
        let c = RecyclerConfig::default().subsumption(false);
        assert!(!c.combined_subsumption);
    }

    #[test]
    fn collector_defaults_off_and_validates() {
        let c = RecyclerConfig::default();
        assert!(!c.background_collector);
        assert!(c.validate().is_ok(), "defaults must validate");
        let on = RecyclerConfig::default().mem_limit(1 << 20).collector(true);
        assert!(on.validate().is_ok());
        assert!((on.low_water_ratio - 0.5).abs() < 1e-12);
        assert!((on.high_water_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn water_mark_validation_rejects_bad_configs() {
        let base = RecyclerConfig::default().mem_limit(1 << 20).collector(true);
        for (low, high) in [
            (0.0, 0.8),  // low out of (0,1]
            (0.5, 1.5),  // high above the cap
            (0.8, 0.5),  // inverted
            (0.7, 0.7),  // degenerate band
            (-0.1, 0.8), // negative
            (f64::NAN, 0.8),
        ] {
            assert!(
                base.water_marks(low, high).validate().is_err(),
                "({low}, {high}) must be rejected"
            );
        }
        assert!(
            RecyclerConfig::default()
                .collector(true)
                .validate()
                .is_err(),
            "a collector without limits has nothing to drain toward"
        );
    }

    #[test]
    fn tiering_knobs_default_off_and_validate() {
        let c = RecyclerConfig::default();
        assert!(!c.compression);
        // compression without a collector (or without a cap) is an error
        assert!(RecyclerConfig::default()
            .compression(true)
            .validate()
            .is_err());
        assert!(RecyclerConfig::default()
            .mem_limit(1 << 20)
            .compression(true)
            .validate()
            .is_err());
        let ok = RecyclerConfig::default()
            .mem_limit(1 << 20)
            .collector(true)
            .compression(true);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn session_credits_configurable() {
        assert_eq!(RecyclerConfig::default().session_credits, None);
        let c = RecyclerConfig::default().session_credits(32);
        assert_eq!(c.session_credits, Some(32));
        assert_eq!(
            RecyclerConfig::default().session_credits(0).session_credits,
            Some(1),
            "a zero budget would deadlock every admission"
        );
    }
}
