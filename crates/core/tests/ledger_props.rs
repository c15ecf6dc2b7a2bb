//! Property tests for the pool's ledger and the payload transition table.
//!
//! A random script of insert / remove / evict / compress / spill /
//! promote / resize / rekey (re-filed under the new key) / clear /
//! tear-and-repair steps runs over entries of all three payload variants
//! while the test keeps its *own* model of what is resident. After every
//! step:
//!
//! * `check_invariants()` holds — which includes the live ledger being
//!   equal to `Ledger::recompute` over the table, and
//! * every public book (`len`, `bytes`, the raw / compressed / spilled
//!   totals, the per-session resident counts, the spill file's live
//!   bytes) equals what the model says.
//!
//! Every move the table on `Payload` forbids is attempted too, and must
//! be refused with every one of those books untouched.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rbat::{Bat, Column, Value};
use recycler::entry::{Admitter, Lineage};
use recycler::signature::Sig;
use recycler::tier::{CompressedBat, SpillFile};
use recycler::{EntryId, Payload, PoolEntry, RecyclePool};
use rmal::Opcode;

const SESSIONS: u64 = 3;

/// Which rung the model believes an entry sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Raw,
    Compressed,
    Spilled,
}

/// The test's own record of one resident entry.
#[derive(Debug, Clone)]
struct Live {
    id: EntryId,
    sig: Sig,
    session: u64,
    rung: Rung,
    /// Bytes charged against the cap (0 while spilled).
    bytes: usize,
    /// Length of the spilled record (0 unless spilled).
    spilled: usize,
    /// The entry's result BAT (what promotion restores).
    bat: Arc<Bat>,
}

/// Every book the pool exposes, as one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    entries: usize,
    bytes: usize,
    raw: usize,
    compressed: usize,
    spilled: usize,
    by_session: Vec<u64>,
    spill_live: usize,
}

struct Rig {
    pool: RecyclePool,
    spill: Arc<SpillFile>,
    live: Vec<Live>,
    next_tag: i64,
    dir: std::path::PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn ints(seed: i64, n: usize) -> Arc<Bat> {
    // low-cardinality runs: compressible, so blobs differ from raw sizes
    let vals = (0..n as i64).map(|i| seed + i / 8).collect();
    Arc::new(Bat::from_tail(Column::from_ints(vals)))
}

impl Rig {
    fn new(name: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("ledger-props-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = Arc::new(SpillFile::create(&dir, 64 << 20).expect("spill file"));
        let mut pool = RecyclePool::new();
        pool.set_spill(Some(Arc::clone(&spill)));
        Rig {
            pool,
            spill,
            live: Vec::new(),
            next_tag: 0,
            dir,
        }
    }

    fn fresh_sig(&mut self) -> Sig {
        self.next_tag += 1;
        Sig::of(Opcode::Select, &[Value::Int(self.next_tag)])
    }

    /// Insert an unpinned raw entry whose result `pick` shapes.
    fn insert(&mut self, pick: usize, session: u64) {
        let bat = ints(pick as i64, 64 + 16 * (pick % 7));
        let payload = Payload::Raw(Value::Bat(Arc::clone(&bat)));
        let sig = self.fresh_sig();
        let bytes = payload.charge_bytes(sig.op);
        let e = PoolEntry::new(
            self.pool.alloc_id(),
            sig.clone(),
            vec![],
            payload,
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
            rung: Rung::Raw,
            bytes,
            spilled: 0,
            bat,
        });
    }

    /// A blob for entry `at`: the one it holds, or its result compressed.
    fn blob_for(&self, at: usize) -> Arc<CompressedBat> {
        let held = self.pool.entry(self.live[at].id, |e| match e.payload() {
            Payload::Compressed(blob) => Some(Arc::clone(blob)),
            _ => None,
        });
        held.flatten()
            .unwrap_or_else(|| Arc::new(CompressedBat::compress(&self.live[at].bat)))
    }

    fn compress(&mut self, at: usize) -> bool {
        let blob = self.blob_for(at);
        let bytes = blob.byte_size();
        let moved = self
            .pool
            .retier(self.live[at].id, Payload::Compressed(blob), bytes, |_| true)
            .is_some();
        if moved {
            let l = &mut self.live[at];
            (l.rung, l.bytes) = (Rung::Compressed, bytes);
        }
        moved
    }

    fn spill(&mut self, at: usize) -> bool {
        let blob = self.blob_for(at);
        let ticket = self.spill.append(blob.as_bytes()).expect("spill budget");
        let moved = self
            .pool
            .retier(self.live[at].id, Payload::Spilled(ticket), 0, |_| true)
            .is_some();
        if moved {
            let l = &mut self.live[at];
            (l.rung, l.bytes, l.spilled) = (Rung::Spilled, 0, ticket.len as usize);
        }
        moved
    }

    fn promote(&mut self, at: usize) -> bool {
        let bat = Arc::clone(&self.live[at].bat);
        let bytes = bat.resident_bytes();
        let moved = self
            .pool
            .retier(
                self.live[at].id,
                Payload::Raw(Value::Bat(bat)),
                bytes,
                |_| true,
            )
            .is_some();
        if moved {
            let l = &mut self.live[at];
            (l.rung, l.bytes, l.spilled) = (Rung::Raw, bytes, 0);
        }
        moved
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
            raw: 0,
            compressed: 0,
            spilled: 0,
            by_session: vec![0; SESSIONS as usize],
            spill_live: 0,
        };
        for l in &self.live {
            b.bytes += l.bytes;
            match l.rung {
                Rung::Raw => b.raw += l.bytes,
                Rung::Compressed => b.compressed += l.bytes,
                Rung::Spilled => b.spilled += l.spilled,
            }
            b.by_session[l.session as usize] += 1;
            b.spill_live += l.spilled;
        }
        b
    }

    fn observed(&self) -> Books {
        let (raw, compressed, spilled) = self.pool.tier_bytes();
        Books {
            entries: self.pool.len(),
            bytes: self.pool.bytes(),
            raw,
            compressed,
            spilled,
            by_session: (0..SESSIONS)
                .map(|s| self.pool.resident_of_session(s))
                .collect(),
            spill_live: self.spill.live_bytes(),
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

    /// Attempt `mv` on entry `at`; `legal` is what the table says about it.
    /// A refusal must leave every book — the spill file's included — as
    /// it was (a refused spill retires its freshly appended record).
    fn attempt(
        &mut self,
        step: &str,
        at: usize,
        legal: bool,
        mv: impl FnOnce(&mut Rig, usize) -> bool,
    ) -> Result<(), TestCaseError> {
        let before = self.observed();
        let moved = mv(self, at);
        prop_assert!(
            moved == legal,
            "{} from {:?}: moved={}, table says {}",
            step,
            self.live[at].rung,
            moved,
            legal
        );
        if !legal {
            prop_assert!(
                self.observed() == before,
                "refused {} moved a book: {:?} -> {:?}",
                step,
                before,
                self.observed()
            );
        }
        self.settled(step)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ledger_tracks_every_transition(
        script in prop::collection::vec((0u8..14, 0usize..64, 0usize..5000), 1..48),
    ) {
        let mut rig = Rig::new("script");
        for (op, a, b) in script {
            if rig.live.is_empty() || op < 3 {
                rig.insert(a, b as u64 % SESSIONS);
                rig.settled("insert")?;
                continue;
            }
            let at = a % rig.live.len();
            let rung = rig.live[at].rung;
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
                5 | 6 => rig.attempt("compress", at, rung == Rung::Raw, Rig::compress)?,
                7 | 8 => rig.attempt("spill", at, rung == Rung::Compressed, Rig::spill)?,
                9 | 10 => {
                    let demoted = matches!(rung, Rung::Compressed | Rung::Spilled);
                    rig.attempt("promote", at, demoted, Rig::promote)?
                }
                11 => rig.attempt("resize", at, rung == Rung::Raw, |r, at| r.resize(at, b))?,
                12 => {
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

/// The forbidden moves, one by one (the script above meets them only when
/// the dice say so): each is refused and moves no book.
#[test]
fn illegal_transitions_are_refused_and_touch_nothing() {
    let mut rig = Rig::new("illegal");
    for session in 0..3 {
        rig.insert(0, session);
    }
    assert!(rig.compress(1), "raw -> compressed");
    assert!(
        rig.compress(2) && rig.spill(2),
        "raw -> compressed -> spilled"
    );
    rig.settled("setup").unwrap();

    type Move = fn(&mut Rig, usize) -> bool;
    let resize: Move = |r, at| r.resize(at, 10);
    let refused: [(&str, usize, Move); 7] = [
        ("raw -> promote", 0, Rig::promote),
        ("raw -> spilled", 0, Rig::spill),
        ("compressed -> compressed", 1, Rig::compress),
        ("compressed resize", 1, resize),
        ("spilled -> compressed", 2, Rig::compress),
        ("spilled -> spilled", 2, Rig::spill),
        ("spilled resize", 2, resize),
    ];
    for (step, at, mv) in refused {
        rig.attempt(step, at, false, mv).unwrap();
    }
    // the ladder still works end to end afterwards
    assert!(rig.promote(1) && rig.promote(2));
    rig.settled("promote back").unwrap();
}
