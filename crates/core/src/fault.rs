//! Deterministic fault injection — the `failpoints` test harness.
//!
//! Compiled only under the `failpoints` cargo feature; default builds
//! carry **zero** code from this module and zero checks at the
//! injection sites. With the feature on, a handful of named sites
//! across the admission, pool, eviction and wire layers consult a
//! process-global registry on every pass and either proceed, panic,
//! deny the operation, or surface an injected I/O error — exactly as a
//! test scripted via [`FaultPlan`].
//!
//! Everything is deterministic: probabilistic triggers draw from a
//! seeded xorshift PRNG (no wall clock, no OS entropy), and counting
//! triggers fire on exact hit ordinals. Two runs with the same seed and
//! the same serialized operation order inject the same faults. Per-site
//! hit counters ([`hits`]) let tests assert a site was actually
//! exercised rather than silently skipped.
//!
//! The registry is global, so tests that install plans must serialise
//! themselves (a `static Mutex` works) and [`clear`] the registry when
//! done. Sites are plain strings; the ones wired today, with what a
//! firing costs (a panic at a site under the pool's write lock empties
//! the pool before the lock unlocks — one `pool_wipes`):
//!
//! | site                | layer                    | honoured actions | outcome |
//! |---------------------|--------------------------|------------------|---------|
//! | `admission.reserve` | admission, before insert (Deny: no room) | Deny, Panic | a miss; a panic leaves the pool untouched |
//! | `pool.insert`       | insert, lock held        | Panic            | pool wiped |
//! | `pool.insert.wired` | insert, indexes half-wired | Panic          | pool wiped |
//! | `evict.gather`      | insert about to make room, lock held | Panic | pool wiped |
//! | `evict.remove`      | eviction round, lock held | Panic           | pool wiped |
//! | `wire.read`         | server frame read        | Io, Panic        | Io: connection severed |
//! | `wire.write`        | server frame write       | Io, Panic        | Io: connection severed |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (exercises unwind containment and lock
    /// poisoning).
    Panic,
    /// Deny the operation: the site reports failure through its normal
    /// "no" path (e.g. an admission finds no room).
    Deny,
    /// Surface an injected I/O error at the site (wire sites only).
    Io,
}

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the `n`-th hit of the site only (1-based), never again.
    Nth(u64),
    /// Skip the first `skip` hits, then fire on the next `fire` hits.
    Times {
        /// Hits to let through first.
        skip: u64,
        /// Hits to fire on after the skip window.
        fire: u64,
    },
    /// Fire on roughly `num` out of `den` hits, decided by the plan's
    /// seeded PRNG — deterministic for a fixed seed and hit order.
    Ratio(u32, u32),
}

struct Rule {
    trigger: Trigger,
    action: FaultAction,
    /// Hits this rule has evaluated (not necessarily fired on).
    seen: u64,
    /// Times this rule has fired.
    fired: u64,
}

#[derive(Default)]
struct Inner {
    /// xorshift64* state; 0 means "no PRNG" (non-Ratio plans).
    rng: u64,
    rules: HashMap<&'static str, Vec<Rule>>,
    hits: HashMap<String, u64>,
}

struct Registry {
    /// Fast path: no plan installed ⇒ one relaxed load per site pass.
    armed: AtomicBool,
    inner: Mutex<Inner>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        armed: AtomicBool::new(false),
        inner: Mutex::new(Inner::default()),
    })
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A scripted set of failpoint rules, installed atomically.
///
/// ```ignore
/// FaultPlan::seeded(42)
///     .on("pool.insert.wired", Trigger::Nth(1), FaultAction::Panic)
///     .on("admission.reserve", Trigger::Ratio(1, 8), FaultAction::Deny)
///     .install();
/// ```
#[derive(Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(&'static str, Trigger, FaultAction)>,
}

impl FaultPlan {
    /// Start an empty plan whose [`Trigger::Ratio`] draws come from a
    /// xorshift PRNG seeded with `seed` (zero is remapped to a fixed
    /// non-zero constant — xorshift has no zero state).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
            rules: Vec::new(),
        }
    }

    /// Arm `site` with `trigger`/`action`. Multiple rules per site are
    /// evaluated in installation order; the first that fires wins.
    pub fn on(mut self, site: &'static str, trigger: Trigger, action: FaultAction) -> FaultPlan {
        self.rules.push((site, trigger, action));
        self
    }

    /// Install this plan, replacing any previous one and resetting all
    /// hit counters.
    pub fn install(self) {
        let reg = registry();
        let mut inner = reg.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.rng = self.seed;
        inner.hits.clear();
        inner.rules.clear();
        for (site, trigger, action) in self.rules {
            inner.rules.entry(site).or_default().push(Rule {
                trigger,
                action,
                seen: 0,
                fired: 0,
            });
        }
        let armed = !inner.rules.is_empty();
        reg.armed.store(armed, Ordering::Release);
    }
}

/// Remove every armed rule and reset hit counters. Sites become
/// zero-cost-ish again (one relaxed load per pass).
pub fn clear() {
    let reg = registry();
    let mut inner = reg.inner.lock().unwrap_or_else(PoisonError::into_inner);
    inner.rules.clear();
    inner.hits.clear();
    inner.rng = 0;
    reg.armed.store(false, Ordering::Release);
}

/// Total hits recorded for `site` since the last [`FaultPlan::install`]
/// / [`clear`] — fired or not. Lets tests assert a site was exercised.
pub fn hits(site: &str) -> u64 {
    let reg = registry();
    let inner = reg.inner.lock().unwrap_or_else(PoisonError::into_inner);
    inner.hits.get(site).copied().unwrap_or(0)
}

/// Times any rule on `site` actually fired since the last install/clear.
pub fn fired(site: &str) -> u64 {
    let reg = registry();
    let inner = reg.inner.lock().unwrap_or_else(PoisonError::into_inner);
    inner
        .rules
        .get(site)
        .map(|rules| rules.iter().map(|r| r.fired).sum())
        .unwrap_or(0)
}

/// Evaluate `site` against the installed plan without acting: returns
/// the action to take, if any. Prefer [`fire`] at injection sites.
pub fn check(site: &str) -> Option<FaultAction> {
    let reg = registry();
    if !reg.armed.load(Ordering::Acquire) {
        return None;
    }
    let mut inner = reg.inner.lock().unwrap_or_else(PoisonError::into_inner);
    let inner = &mut *inner;
    let rules = inner.rules.get_mut(site)?;
    // Count the hit only for armed sites: an unarmed site returned above
    // via `get_mut`'s None, keeping the unarmed pass allocation-free.
    let hit = {
        let h = inner.hits.entry(site.to_owned()).or_insert(0);
        *h += 1;
        *h
    };
    for rule in rules.iter_mut() {
        rule.seen += 1;
        let fires = match rule.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::Times { skip, fire } => rule.seen > skip && rule.seen <= skip + fire,
            Trigger::Ratio(num, den) => {
                let den = den.max(1) as u64;
                (xorshift(&mut inner.rng) % den) < num as u64
            }
        };
        if fires {
            rule.fired += 1;
            return Some(rule.action);
        }
    }
    None
}

/// Evaluate `site`; if the planned action is [`FaultAction::Panic`],
/// panic right here (the site's stack is the interesting one). Any
/// other firing action is returned for the call site to interpret.
pub fn fire(site: &str) -> Option<FaultAction> {
    match check(site) {
        Some(FaultAction::Panic) => panic!("failpoint '{site}': injected panic"),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The registry is process-global: serialise the tests in this module.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn nth_fires_exactly_once() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        FaultPlan::seeded(1)
            .on("t.nth", Trigger::Nth(3), FaultAction::Deny)
            .install();
        let got: Vec<bool> = (0..5).map(|_| check("t.nth").is_some()).collect();
        assert_eq!(got, vec![false, false, true, false, false]);
        assert_eq!(hits("t.nth"), 5);
        assert_eq!(fired("t.nth"), 1);
        clear();
    }

    #[test]
    fn times_window_and_clear() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        FaultPlan::seeded(1)
            .on(
                "t.win",
                Trigger::Times { skip: 2, fire: 2 },
                FaultAction::Io,
            )
            .install();
        let got: Vec<bool> = (0..6).map(|_| check("t.win").is_some()).collect();
        assert_eq!(got, vec![false, false, true, true, false, false]);
        clear();
        assert_eq!(check("t.win"), None);
        assert_eq!(hits("t.win"), 0);
    }

    #[test]
    fn ratio_is_deterministic_for_a_seed() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let run = |seed: u64| -> Vec<bool> {
            FaultPlan::seeded(seed)
                .on("t.ratio", Trigger::Ratio(1, 4), FaultAction::Deny)
                .install();
            let got = (0..64).map(|_| check("t.ratio").is_some()).collect();
            clear();
            got
        };
        assert_eq!(run(7), run(7));
        let fired = run(7).iter().filter(|b| **b).count();
        assert!(fired > 0 && fired < 64, "ratio fired {fired}/64");
    }

    #[test]
    fn unarmed_sites_cost_one_load() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        assert_eq!(check("t.unarmed"), None);
        assert_eq!(hits("t.unarmed"), 0);
        FaultPlan::seeded(1)
            .on("t.other", Trigger::Always, FaultAction::Panic)
            .install();
        // Unrelated armed plan: this site still passes and is not counted.
        assert_eq!(check("t.unarmed"), None);
        assert_eq!(hits("t.unarmed"), 0);
        clear();
    }

    #[test]
    fn fire_panics_on_panic_action() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        FaultPlan::seeded(1)
            .on("t.boom", Trigger::Always, FaultAction::Panic)
            .install();
        let r = std::panic::catch_unwind(|| fire("t.boom"));
        assert!(r.is_err());
        clear();
    }
}
