//! # recycler — recycling intermediates in a column-store
//!
//! This crate is the primary contribution of Ivanova, Kersten, Nes &
//! Gonçalves, *"An Architecture for Recycling Intermediates in a
//! Column-store"* (SIGMOD 2009), rebuilt in Rust on top of the `rbat`
//! column engine and the `rmal` abstract machine.
//!
//! The architecture has three pieces:
//!
//! * **The recycler optimiser** ([`RecycleMark`]) — an optimiser-pipeline
//!   pass that inspects a MAL program and marks the instructions worth
//!   monitoring: an instruction qualifies when its opcode is eligible and
//!   all its arguments are constants, template parameters or results of
//!   already-marked instructions (paper §3.1). The net effect is that
//!   operator threads rooted at `sql.bind` are marked as far up the plan as
//!   possible.
//!
//! * **The shared service** ([`SharedRecycler`]) — the server-wide half of
//!   the run-time support: the [`RecyclePool`], the credit/ADAPT accounts,
//!   eviction state and lifetime statistics behind interior locking. The
//!   paper's recycler is explicitly shared by *all* user sessions (§8's
//!   SkyServer gains come from cross-session reuse), so the pool lives in
//!   one `Arc`-shared instance: one table and the lineage graph over it,
//!   behind one `RwLock`. An exact-match hit is one read lock over
//!   per-entry atomic counters and no other lock, an admission — with the
//!   eviction that makes its room — takes the write lock once, and racing
//!   duplicate admissions resolve first-writer-wins inside that critical
//!   section. See [`shared`] for the locking invariants.
//!
//! * **The session handle** ([`Recycler`]) — a cheap per-session
//!   [`rmal::ExecHook`] implementing the paper's Algorithm 1 against the
//!   shared pool. Before a marked instruction executes, `recycleEntry`
//!   searches for an exact match (bottom-up sequence matching, §3.4
//!   alternative 1) or a *subsuming* intermediate (§5); after an
//!   execution, `recycleExit` decides admission via the configured
//!   [`AdmissionPolicy`] and makes room via the [`EvictionPolicy`], both of
//!   which respect instruction lineage (§4). Eviction is synchronous: the
//!   admission that finds the pool full evicts leaves itself, in the write
//!   step that inserts it — there is no background thread and no second
//!   residency for an intermediate. A query whose every marked instruction
//!   hit last time is answered from the session's memo of those entries
//!   in one read step (a *whole-plan replay*, [`runtime`]'s module docs).
//!   Cloning a session handle — or calling [`rmal::Engine::session`] —
//!   attaches another session to the same pool; `Recycler::new` keeps the
//!   one-session case a one-liner.
//!
//! Admission defaults to [`AdmissionPolicy::Paced`]: a template
//! instruction keeps admitting only while its instances get reused. The
//! paper's baseline, KEEPALL — admit every advised instance and let
//! eviction sort it out — is no longer the default and must be selected
//! explicitly (`RecyclerConfig::default().admission(AdmissionPolicy::KeepAll)`),
//! as the paper's experiments in `rcy-bench` do.
//!
//! Updates are handled as the paper's implementation ships them (§6.4):
//! immediate column-level invalidation. Under one hold of the pool's write
//! lock ([`pool::PoolWriteView`]), taken after the catalog merge, the
//! lineage graph lists the entries anchored on the committed columns and
//! their subtrees are removed — atomically with respect
//! to instruction boundaries of concurrent queries. Versioned bind
//! signatures guarantee a post-commit probe can never reuse a pre-commit
//! result. A pool entry is immutable once admitted.
//!
//! ## Quickstart
//!
//! ```
//! use rbat::{Catalog, TableBuilder, LogicalType, Value};
//! use rmal::{Engine, ProgramBuilder, P};
//! use recycler::{Recycler, RecyclerConfig, RecycleMark};
//!
//! let mut cat = Catalog::new();
//! let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
//! for i in 0..1000 { tb.push_row(&[Value::Int(i)]); }
//! cat.add_table(tb.finish());
//!
//! let mut engine = Engine::with_hook(cat, Recycler::new(RecyclerConfig::default()));
//! engine.add_pass(Box::new(RecycleMark));
//!
//! let mut b = ProgramBuilder::new("count_range", 2);
//! let col = b.bind("t", "x");
//! let sel = b.select_half_open(col, P(0), P(1));
//! let n = b.count(sel);
//! b.export("n", n);
//! let mut tmpl = b.finish();
//! engine.optimize(&mut tmpl);
//!
//! let p = [Value::Int(10), Value::Int(500)];
//! let first = engine.run(&tmpl, &p).unwrap();
//! let second = engine.run(&tmpl, &p).unwrap();
//! assert_eq!(first.export("n"), second.export("n"));
//! assert!(second.stats.reused > 0, "second run reuses intermediates");
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod entry;
pub mod eviction;
#[cfg(feature = "failpoints")]
pub mod fault;
pub mod lineage;
pub mod mark;
pub mod pool;
pub mod runtime;
pub mod shared;
pub mod signature;
pub mod stats;
pub mod subsume;

pub use config::{AdmissionPolicy, EvictionPolicy, RecyclerConfig, UpdateMode};
pub use entry::{EntryId, PoolEntry};
pub use eviction::Caps;
pub use mark::RecycleMark;
pub use pool::{Admitted, PoolWriteView, RecyclePool};
pub use runtime::Recycler;
pub use shared::{MaintenanceGuard, SharedRecycler};
pub use stats::{FamilyRow, PoolSnapshot, QueryRecord, RecyclerStats};
