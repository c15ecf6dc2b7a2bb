//! Recycler configuration: admission, eviction, resource limits.

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

/// The argument type of the inert [`RecyclerConfig::update_mode`]. A
/// commit always invalidates what derives from the columns it rewrote
/// (paper §6.4); delta propagation (§6.3) was removed, and both variants
/// select that one rule.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Immediate column-level invalidation (the one rule).
    Invalidate,
    /// Formerly delta propagation; now the same as [`Self::Invalidate`].
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
}

impl Default for RecyclerConfig {
    /// Reuse-paced admission ([`AdmissionPolicy::Paced`]), LRU eviction, no
    /// resource limits, singleton + combined subsumption enabled. The
    /// paper's baseline setting is this with
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

    /// No-op, kept so existing callers build: delta propagation was
    /// removed, and every commit invalidates (paper §6.4).
    #[doc(hidden)]
    pub fn update_mode(self, _mode: UpdateMode) -> Self {
        self
    }

    /// No-op, kept so existing callers build: the per-session credit
    /// slices were removed. Under a cap, inline eviction makes room for
    /// any admission and a PACED account drains only its own template
    /// instruction, so one session cannot starve another's admissions.
    #[doc(hidden)]
    pub fn session_credits(self, _n: u64) -> Self {
        self
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
}
