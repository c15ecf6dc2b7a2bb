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
