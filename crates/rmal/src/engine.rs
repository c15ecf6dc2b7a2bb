//! The execution engine: catalog + optimiser pipeline + hook.

use std::sync::Arc;

use rbat::catalog::{CatalogCell, CommitReport};
use rbat::delta::Row;
use rbat::{Catalog, Value};

use crate::error::Result;
use crate::interp::{self, ExecHook, NoHook};
use crate::optimizer::{default_pipeline, OptPass};
use crate::profile::QueryOutput;
use crate::program::Program;

/// The top-level engine façade.
///
/// An `Engine<NoHook>` is the *naive* system (plain MonetDB-style
/// execution); an `Engine<Recycler>` (from the `recycler` crate) is the
/// system with the recycler run-time support attached. The hook is a
/// public field so experiments can inspect recycler state between queries.
///
/// One engine value is one **session**: `run` takes `&mut self` and
/// queries on it serialise. To serve concurrent query streams, fork one
/// engine per thread with [`Engine::session`] — forks share the catalog's
/// column storage (`Catalog` clones are `Arc`-backed), the optimiser
/// pipeline, and — when the hook handle is cloneable onto a shared
/// service, as `recycler::Recycler` is — one recycle pool.
///
/// Sessions can additionally share one **updatable** catalog through a
/// [`CatalogCell`] ([`Engine::with_shared_catalog`]): each session then
/// runs every query against an epoch-pinned bind snapshot (refreshed at
/// query start) and routes [`Engine::update`] through the cell's
/// single-writer commit, so one session's DML becomes visible to the
/// others at their next query — without any reader ever blocking on the
/// commit work.
pub struct Engine<H: ExecHook = NoHook> {
    /// The SQL catalog with persistent tables (this session's epoch
    /// snapshot when a [`CatalogCell`] is attached).
    pub catalog: Catalog,
    /// The run-time hook (recycler or [`NoHook`]).
    pub hook: H,
    passes: Vec<Arc<dyn OptPass>>,
    /// Shared updatable catalog, when sessions must observe each other's
    /// commits. `None` keeps the original private-catalog behaviour.
    cell: Option<Arc<CatalogCell>>,
    /// The cell epoch `catalog` was snapshot at.
    cell_epoch: u64,
}

impl Engine<NoHook> {
    /// Engine without recycling.
    pub fn new(catalog: Catalog) -> Engine<NoHook> {
        Engine::with_hook(catalog, NoHook)
    }
}

impl<H: ExecHook> Engine<H> {
    /// Engine with an explicit run-time hook.
    pub fn with_hook(catalog: Catalog, hook: H) -> Engine<H> {
        Engine {
            catalog,
            hook,
            passes: default_pipeline(),
            cell: None,
            cell_epoch: 0,
        }
    }

    /// Engine over a shared updatable catalog: queries run against an
    /// epoch-pinned snapshot (refreshed at query start), updates commit
    /// through the cell. Fork per-thread sessions with
    /// [`Engine::session`]; all forks share the cell.
    pub fn with_shared_catalog(cell: &Arc<CatalogCell>, hook: H) -> Engine<H> {
        let (epoch, snapshot) = cell.pinned();
        Engine {
            catalog: (*snapshot).clone(),
            hook,
            passes: default_pipeline(),
            cell: Some(Arc::clone(cell)),
            cell_epoch: epoch,
        }
    }

    /// Re-pin this session's catalog snapshot if the shared cell advanced.
    /// Cheap when nothing changed (one atomic load); a private-catalog
    /// engine is a no-op.
    fn refresh_epoch(&mut self) {
        if let Some(cell) = &self.cell {
            if cell.epoch() != self.cell_epoch {
                let (epoch, snapshot) = cell.pinned();
                self.catalog = (*snapshot).clone();
                self.cell_epoch = epoch;
            }
        }
    }

    /// Append an optimiser pass to the pipeline (e.g. the recycler marking
    /// pass, which must come after constant folding and dead-code
    /// elimination — paper §3.1).
    pub fn add_pass(&mut self, pass: Box<dyn OptPass>) {
        self.passes.push(Arc::from(pass));
    }

    /// Fork a session engine: same storage (the catalog clone `Arc`-shares
    /// every column BAT, so BAT identities — and therefore recycler
    /// signatures — agree across sessions), same optimiser pipeline, and a
    /// clone of the hook handle. For `recycler::Recycler` the clone is a
    /// *new session on the same shared pool*, which makes this the entry
    /// point for multi-session serving: fork once per thread, run
    /// concurrently, reuse each other's intermediates.
    pub fn session(&self) -> Engine<H>
    where
        H: Clone,
    {
        Engine {
            catalog: self.catalog.clone(),
            hook: self.hook.clone(),
            passes: self.passes.clone(),
            cell: self.cell.clone(),
            cell_epoch: self.cell_epoch,
        }
    }

    /// Run the optimiser pipeline over a freshly built template. Call once
    /// per template, then invoke [`Engine::run`] many times.
    pub fn optimize(&self, program: &mut Program) {
        for pass in &self.passes {
            pass.run(program, &self.catalog);
        }
    }

    /// Execute a (template) program with the given parameter values. With
    /// a shared catalog attached the whole query runs against one epoch
    /// snapshot: a commit landing mid-query is observed at the *next* run,
    /// never halfway through this one. No per-instruction profile is
    /// recorded ([`crate::ExecStats::profile`] stays empty); use
    /// [`Self::run_profiled`] for one.
    pub fn run(&mut self, program: &Program, params: &[Value]) -> Result<QueryOutput> {
        self.refresh_epoch();
        interp::run(&self.catalog, program, params, &mut self.hook)
    }

    /// [`Self::run`], recording the per-instruction profile: each executed
    /// instruction's time, outcome and result bytes.
    pub fn run_profiled(&mut self, program: &Program, params: &[Value]) -> Result<QueryOutput> {
        self.refresh_epoch();
        interp::run_profiled(&self.catalog, program, params, &mut self.hook)
    }

    /// Stage inserts, stage deletes, and commit — notifying the hook so the
    /// recycle pool can be synchronised (paper §6). Returns the commit
    /// report. With a shared catalog attached the commit goes through the
    /// cell (single writer, epoch publication); otherwise it mutates this
    /// session's private catalog as before.
    pub fn update(
        &mut self,
        table: &str,
        inserts: Vec<Row>,
        deletes: Vec<u64>,
    ) -> Result<CommitReport> {
        let report = match &self.cell {
            Some(cell) => {
                let report = cell.update(table, inserts, deletes)?;
                self.refresh_epoch();
                report
            }
            None => {
                if !inserts.is_empty() {
                    self.catalog.append(table, inserts)?;
                }
                if !deletes.is_empty() {
                    self.catalog.delete(table, deletes)?;
                }
                self.catalog.commit(table)?
            }
        };
        self.hook.update_event(&report, &self.catalog);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProgramBuilder, P};
    use rbat::{LogicalType, TableBuilder};

    fn engine() -> Engine {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
        for i in 0..100 {
            tb.push_row(&[Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        Engine::new(cat)
    }

    #[test]
    fn optimize_then_run() {
        let mut e = engine();
        let mut b = ProgramBuilder::new("q", 1);
        let col = b.bind("t", "x");
        let up = b.add_months(Value::date("1996-01-01"), 1);
        let _dead = b.reverse(col);
        let s = b.select_closed(col, P(0), Value::Int(50));
        let n = b.count(s);
        b.export("n", n);
        b.export("date", up);
        let mut p = b.finish();
        let before = p.instrs.len();
        e.optimize(&mut p);
        assert!(p.instrs.len() < before, "pipeline must shrink the program");
        let out = e.run(&p, &[Value::Int(40)]).unwrap();
        assert_eq!(out.export("n"), Some(&Value::Int(11)));
        assert_eq!(out.export("date"), Some(&Value::date("1996-02-01")));
    }

    #[test]
    fn update_roundtrip() {
        let mut e = engine();
        let report = e
            .update("t", vec![vec![Value::Int(1000)]], vec![0, 1])
            .unwrap();
        assert_eq!(report.deleted, vec![0, 1]);
        assert_eq!(e.catalog.table("t").unwrap().nrows(), 99);
    }

    #[test]
    fn shared_catalog_sessions_observe_each_others_commits() {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
        for i in 0..100 {
            tb.push_row(&[Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        let cell = CatalogCell::new(cat);

        let mut writer = Engine::with_shared_catalog(&cell, NoHook);
        let mut reader = writer.session();

        let mut b = ProgramBuilder::new("count_all", 0);
        let col = b.bind("t", "x");
        let n = b.count(col);
        b.export("n", n);
        let mut p = b.finish();
        writer.optimize(&mut p);

        let before = reader.run(&p, &[]).unwrap();
        assert_eq!(before.export("n"), Some(&Value::Int(100)));
        writer
            .update("t", vec![vec![Value::Int(7)], vec![Value::Int(8)]], vec![])
            .unwrap();
        // the reader re-pins the epoch at its next query and sees the rows
        let after = reader.run(&p, &[]).unwrap();
        assert_eq!(after.export("n"), Some(&Value::Int(102)));
        assert_eq!(cell.epoch(), 1);
    }
}
