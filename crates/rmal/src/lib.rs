//! # rmal — a MAL-style abstract machine for the column store
//!
//! This crate reproduces the middle layer of the MonetDB software stack
//! (paper §2): a concise abstract-machine language over the binary
//! relational algebra of `rbat`, an optimiser pipeline, and a linear
//! interpreter.
//!
//! * [`Program`] — a linear sequence of [`Instr`]s over a register frame;
//!   SQL queries are compiled (here: built via [`ProgramBuilder`]) into
//!   *query templates* whose literal constants are factored out as
//!   parameters (`A0..An`), exactly as MonetDB's SQL front end does. This is
//!   load-bearing for recycling: different instantiations of one template
//!   share the parameter-independent prefix of their plans.
//! * [`Opcode`] — the instruction set: catalogue access (`sql.bind`),
//!   binary relational algebra (`algebra.*`, `group.*`, `aggr.*`) and
//!   zero-cost viewpoint instructions (`bat.reverse`, `bat.mirror`,
//!   `algebra.markT`).
//! * [`interp`] — executes programs one instruction at a time, giving an
//!   [`ExecHook`] the chance to intercept each *marked* instruction before
//!   and after execution. The recycler crate implements its run-time
//!   support (paper Algorithm 1) as such a hook.
//! * [`Engine`] — the top-level façade: a catalog, an optimiser pipeline, a
//!   hook, and update entry points that notify the hook (paper §6).

#![deny(missing_docs)]

pub mod builder;
pub mod engine;
pub mod error;
pub mod exec;
pub mod interp;
pub mod opcode;
pub mod optimizer;
pub mod profile;
pub mod program;

pub use builder::{ProgramBuilder, P};
pub use engine::Engine;
pub use error::{MalError, Result};
pub use exec::execute_op;
pub use interp::{ExecHook, HookAction, NoHook};
pub use opcode::Opcode;
pub use optimizer::OptPass;
pub use profile::{ExecStats, InstrProfile, QueryOutput};
pub use program::{Arg, Instr, Program, Var};
