//! Property tests for the pool's ledger.
//!
//! A random script of insert / remove / evict / invalidate / resize (delta
//! propagation's in-place rewrite) / rekey (re-filed under the new key) /
//! clear / tear-and-repair steps runs while the test keeps its *own* model
//! of what is resident. After every step:
//!
//! * `check_invariants()` holds — which includes the live ledger being
//!   equal to `Ledger::recompute` over the table, and
//! * every public book (`len`, `bytes`, the per-session resident counts)
//!   equals what the model says.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rbat::{Bat, Column, Value};
use recycler::entry::{charge_bytes, Admitter, Lineage};
use recycler::signature::Sig;
use recycler::{EntryId, PoolEntry, RecyclePool};
use rmal::Opcode;

const SESSIONS: u64 = 3;

/// The test's own record of one resident entry.
#[derive(Debug, Clone)]
struct Live {
    id: EntryId,
    sig: Sig,
    session: u64,
    /// Bytes charged against the cap.
    bytes: usize,
    /// The entry's result BAT.
    bat: Arc<Bat>,
}

/// Every book the pool exposes, as one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    entries: usize,
    bytes: usize,
    by_session: Vec<u64>,
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
    fn insert(&mut self, pick: usize, session: u64) {
        let bat = ints(pick as i64, 64 + 16 * (pick % 7));
        let value = Value::Bat(Arc::clone(&bat));
        let sig = self.fresh_sig();
        let bytes = charge_bytes(sig.op, &value);
        let e = PoolEntry::new(
            self.pool.alloc_id(),
            sig.clone(),
            vec![],
            value,
            bytes,
            Duration::from_micros(1),
            Lineage::default(),
            Admitter {
                session,
                ..Admitter::default()
            },
        );
        e.pins.store(0, std::sync::atomic::Ordering::Relaxed);
        let id = self.pool.insert(e, None).id();
        self.live.push(Live {
            id,
            sig,
            session,
            bytes,
            bat,
        });
    }

    /// Delta propagation's in-place rewrite: same result, new charge.
    fn resize(&mut self, at: usize, bytes: usize) -> bool {
        let l = &self.live[at];
        let value = Value::Bat(Arc::clone(&l.bat));
        let mut view = self.pool.write_view();
        let moved = view.set_raw(l.id, value, bytes);
        drop(view);
        if moved {
            self.live[at].bytes = bytes;
        }
        moved
    }

    /// Re-key under the write view: the entry is re-filed under its new
    /// signature's key, its charge untouched.
    fn rekey(&mut self, at: usize) {
        let new_sig = self.fresh_sig();
        let l = &mut self.live[at];
        let mut view = self.pool.write_view();
        view.get_mut(l.id).expect("live").sig = new_sig.clone();
        let result_id = view.get(l.id).expect("live").result_id;
        view.rekey(l.id, &l.sig, result_id);
        drop(view);
        l.sig = new_sig;
    }

    /// Misfile one entry (signature edited, indexes not), let a panic
    /// unwind through the table write lock, then repair: the misfiled
    /// entry is dropped — never `apply`-ed out of the ledger, only the
    /// stored recompute can account for it — and every book is exact again.
    fn tear_and_repair(&mut self, at: usize) {
        let stray = self.fresh_sig();
        let l = self.live[at].clone();
        let pool = &self.pool;
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut view = pool.write_view();
            view.get_mut(l.id).expect("live").sig = stray;
            panic!("ledger_props: tearing the table on purpose");
        }));
        assert!(torn.is_err() && pool.has_quarantined());
        let report = pool.repair();
        assert!(report.repaired);
        assert!(!pool.has_quarantined());
        self.live.retain(|l| pool.entry(l.id, |_| ()).is_some());
    }

    fn expected(&self) -> Books {
        let mut b = Books {
            entries: self.live.len(),
            bytes: 0,
            by_session: vec![0; SESSIONS as usize],
        };
        for l in &self.live {
            b.bytes += l.bytes;
            b.by_session[l.session as usize] += 1;
        }
        b
    }

    fn observed(&self) -> Books {
        Books {
            entries: self.pool.len(),
            bytes: self.pool.bytes(),
            by_session: (0..SESSIONS)
                .map(|s| self.pool.resident_of_session(s))
                .collect(),
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
        script in prop::collection::vec((0u8..10, 0usize..64, 0usize..5000), 1..48),
    ) {
        let mut rig = Rig::default();
        for (op, a, b) in script {
            if rig.live.is_empty() || op < 3 {
                rig.insert(a, b as u64 % SESSIONS);
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
                6 => {
                    prop_assert!(rig.resize(at, b));
                    rig.settled("resize")?;
                }
                7 => {
                    rig.rekey(at);
                    rig.settled("rekey")?;
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
