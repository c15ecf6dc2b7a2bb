//! Property tests for the pool's ledger.
//!
//! A random script of insert / remove / evict / invalidate / clear /
//! tear-and-repair steps runs while the test keeps its *own* model of what
//! is resident. After every step:
//!
//! * `check_invariants()` holds — which includes the live ledger being
//!   equal to `Ledger::recompute` over the table, and
//! * every public book (`len`, `bytes`) equals what the model says.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rbat::{Bat, Column, Value};
use recycler::entry::{charge_bytes, Admitter, Lineage};
use recycler::signature::Sig;
use recycler::{EntryId, PoolEntry, RecyclePool};
use rmal::Opcode;

/// The test's own record of one resident entry.
struct Live {
    id: EntryId,
    /// Bytes charged against the cap.
    bytes: usize,
}

/// Every book the pool exposes, as one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    entries: usize,
    bytes: usize,
}

#[derive(Default)]
struct Rig {
    pool: RecyclePool,
    live: Vec<Live>,
    next_tag: i64,
}

fn ints(seed: i64, n: usize) -> Arc<Bat> {
    let vals = (0..n as i64).map(|i| seed + i / 8).collect();
    Arc::new(Bat::from_tail(Column::from_ints(vals)))
}

impl Rig {
    fn fresh_sig(&mut self) -> Sig {
        self.next_tag += 1;
        Sig::of(Opcode::Select, &[Value::Int(self.next_tag)])
    }

    /// Insert an unpinned raw entry whose result `pick` shapes.
    fn insert(&mut self, pick: usize) {
        let value = Value::Bat(ints(pick as i64, 64 + 16 * (pick % 7)));
        let sig = self.fresh_sig();
        let bytes = charge_bytes(sig.op, &value);
        let e = PoolEntry::new(
            self.pool.alloc_id(),
            sig,
            value,
            bytes,
            Duration::from_micros(1),
            Lineage::default(),
            Admitter::default(),
        );
        e.pins.store(0, std::sync::atomic::Ordering::Relaxed);
        let id = self.pool.insert(e, None).id();
        self.live.push(Live { id, bytes });
    }

    /// A commit's removal unwound half-way: its first removal landed, then
    /// a panic poisoned the table under the write view. Repair must keep
    /// exactly the survivors, and store books equal to them.
    fn tear_and_repair(&mut self, at: usize) {
        let gone = self.live.swap_remove(at);
        let pool = &self.pool;
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut view = pool.write_view();
            assert!(view.remove(gone.id).is_some());
            panic!("ledger_props: tearing the commit on purpose");
        }));
        assert!(torn.is_err() && pool.has_quarantined());
        let report = pool.repair();
        assert!(report.repaired);
        assert_eq!(report.entries_dropped, 0, "a removal is never torn");
        assert!(!pool.has_quarantined());
    }

    fn expected(&self) -> Books {
        Books {
            entries: self.live.len(),
            bytes: self.live.iter().map(|l| l.bytes).sum(),
        }
    }

    fn observed(&self) -> Books {
        Books {
            entries: self.pool.len(),
            bytes: self.pool.bytes(),
        }
    }

    fn settled(&self, step: &str) -> Result<(), TestCaseError> {
        if let Err(e) = self.pool.check_invariants() {
            return Err(TestCaseError::fail(format!("after {step}: {e}")));
        }
        let (observed, expected) = (self.observed(), self.expected());
        prop_assert!(
            observed == expected,
            "after {}: pool says {:?}, model says {:?}",
            step,
            observed,
            expected
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ledger_tracks_every_transition(
        script in prop::collection::vec((0u8..8, 0usize..64, 0usize..5000), 1..48),
    ) {
        let mut rig = Rig::default();
        for (op, a, b) in script {
            if rig.live.is_empty() || op < 3 {
                rig.insert(a);
                rig.settled("insert")?;
                continue;
            }
            let at = a % rig.live.len();
            match op {
                3 => {
                    let gone = rig.live.swap_remove(at);
                    prop_assert!(rig.pool.remove(gone.id).is_some());
                    rig.settled("remove")?;
                }
                4 => {
                    let gone = rig.live.swap_remove(at);
                    prop_assert!(rig.pool.remove_if_evictable(gone.id).is_some());
                    rig.settled("evict")?;
                }
                5 => {
                    let gone = rig.live.swap_remove(at);
                    prop_assert_eq!(rig.pool.remove_subtree(gone.id).len(), 1);
                    rig.settled("invalidate")?;
                }
                _ if b % 4 == 0 => {
                    rig.pool.clear();
                    rig.live.clear();
                    rig.settled("clear")?;
                }
                _ => {
                    rig.tear_and_repair(at);
                    rig.settled("tear and repair")?;
                }
            }
        }
        // drain: every book returns to zero
        for l in std::mem::take(&mut rig.live) {
            rig.pool.remove(l.id);
        }
        rig.settled("drain")?;
        prop_assert_eq!(rig.pool.bytes(), 0);
    }
}
