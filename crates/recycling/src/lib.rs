//! # recycling — the public facade of the recycler engine
//!
//! The paper's recycler is a *server-side* facility: one shared pool
//! inside one database process, fielding many concurrent client sessions
//! (§8 replays the SkyServer query log against one MonetDB instance).
//! This crate is that server's front door. Instead of hand-assembling an
//! engine — picking a constructor, wiring a `CatalogCell`, forking
//! per-thread engines, threading a recycler hook through — an embedder
//! builds one [`Database`] and vends cheap [`Session`] handles:
//!
//! ```
//! use rbat::{Catalog, LogicalType, TableBuilder, Value};
//! use recycling::DatabaseBuilder;
//! use rmal::{ProgramBuilder, P};
//!
//! let mut cat = Catalog::new();
//! let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
//! for i in 0..1000 { tb.push_row(&[Value::Int(i)]); }
//! cat.add_table(tb.finish());
//!
//! let db = DatabaseBuilder::new(cat).build();
//!
//! let mut b = ProgramBuilder::new("count_range", 2);
//! let col = b.bind("t", "x");
//! let sel = b.select_half_open(col, P(0), P(1));
//! let n = b.count(sel);
//! b.export("n", n);
//! let template = db.prepare(b.finish());
//!
//! let mut session = db.session();
//! let p = [Value::Int(10), Value::Int(500)];
//! let first = session.query(&template, &p).unwrap();
//! let second = session.query(&template, &p).unwrap();
//! assert_eq!(first.export("n"), second.export("n"));
//! assert!(second.reused > 0, "second run reuses intermediates");
//! ```
//!
//! The facade owns three things the old API exposed piecemeal:
//!
//! * **the shared recycler** — pool, admission accounts, statistics; one
//!   per database, shared by all sessions (cross-session reuse is the
//!   whole point). Admission is reuse-paced by default
//!   ([`AdmissionPolicy::Paced`]); the paper's KEEPALL baseline must be
//!   selected explicitly through [`DatabaseBuilder::recycler`];
//! * **the shared catalog cell** — single-writer/multi-reader epoch
//!   snapshots, so [`Session::commit`] from one session becomes visible
//!   to the others at their next query;
//! * **the optimiser pipeline** — [`Database::prepare`] turns a freshly
//!   built program into a recyclable template once; sessions then replay
//!   it with parameters.
//!
//! Sessions carry **per-session credit slices**: with
//! [`RecyclerConfig::session_credits`] configured, each session draws
//! admissions against `budget / active_sessions` (rebalanced as sessions
//! open and close), with an overflow lane so idle slices aren't wasted —
//! one flooding client cannot starve the others' admissions.
//!
//! The `rcy-server` crate puts a TCP front-end on top: a length-prefixed
//! wire protocol (query / commit / stats / close) served by a bounded
//! worker pool, one [`Database::session`] per connection.

#![deny(missing_docs)]

mod database;
mod error;
mod session;

pub use database::{Database, DatabaseBuilder};
pub use error::{Error, Result};
pub use session::{QueryReply, Session, Update};

// The configuration and observability vocabulary callers need alongside
// the facade, re-exported so `use recycling::*` is one-stop.
pub use recycler::{
    AdmissionPolicy, EvictionPolicy, MaintenanceGuard, PoolSnapshot, QueryRecord, RecyclerConfig,
    RecyclerStats, UpdateMode,
};

/// Deterministic fault injection (`--features failpoints` builds only):
/// re-export of [`recycler::fault`] so the TCP front-end and test
/// harnesses can script failures at every layer through one registry.
#[cfg(feature = "failpoints")]
pub use recycler::fault;
