//! The [`Database`] facade and its builder.

use std::sync::{Arc, PoisonError, RwLock};

use rbat::catalog::CatalogCell;
use rbat::hash::FxHashMap;
use rbat::Catalog;
use recycler::{
    MaintenanceGuard, PoolSnapshot, RecycleMark, RecyclePool, RecyclerConfig, RecyclerStats,
    SharedRecycler,
};
use rmal::interp::NoHook;
use rmal::optimizer::{default_pipeline, OptPass};
use rmal::{Engine, Program};

use crate::error::Error;
use crate::session::Session;

/// Builder for a [`Database`]: the dataset (a fully built [`Catalog`] —
/// hand-assembled, or generated by `tpch::generate` / `skyserver::generate`),
/// the [`RecyclerConfig`], a memory budget, and extra optimiser passes.
///
/// ```
/// use rbat::{Catalog, LogicalType, TableBuilder, Value};
/// use recycling::DatabaseBuilder;
///
/// let mut cat = Catalog::new();
/// let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
/// for i in 0..100 { tb.push_row(&[Value::Int(i)]); }
/// cat.add_table(tb.finish());
///
/// let db = DatabaseBuilder::new(cat)
///     .memory_budget(64 << 20)   // 64 MiB of pooled intermediates
///     .build();
/// let mut session = db.session();
/// # let _ = session.stats();
/// ```
pub struct DatabaseBuilder {
    catalog: Catalog,
    config: RecyclerConfig,
    recycling: bool,
    passes: Vec<Arc<dyn OptPass>>,
    templates: Vec<(String, Program)>,
}

impl DatabaseBuilder {
    /// Start from a fully built catalog with the default recycler
    /// configuration (reuse-paced admission, no limits).
    pub fn new(catalog: Catalog) -> DatabaseBuilder {
        DatabaseBuilder {
            catalog,
            config: RecyclerConfig::default(),
            recycling: true,
            passes: Vec::new(),
            templates: Vec::new(),
        }
    }

    /// Use an explicit recycler configuration (admission/eviction
    /// policies, limits, subsumption).
    pub fn recycler(mut self, config: RecyclerConfig) -> DatabaseBuilder {
        self.config = config;
        self.recycling = true;
        self
    }

    /// Disable recycling entirely: sessions execute every instruction —
    /// the naive baseline the experiment harness compares against.
    pub fn naive(mut self) -> DatabaseBuilder {
        self.recycling = false;
        self
    }

    /// Cap the memory the recycle pool may hold (bytes). Shorthand for
    /// setting `mem_limit` on the recycler config.
    pub fn memory_budget(mut self, bytes: usize) -> DatabaseBuilder {
        self.config = self.config.mem_limit(bytes);
        self
    }

    /// No-op: the background collector is gone — eviction runs inline, at
    /// the admission that finds the pool full. Kept only because the
    /// `benchmark` package's `Knobs::apply` still calls it.
    #[doc(hidden)]
    pub fn background_collector(self, _low: f64, _high: f64) -> DatabaseBuilder {
        self
    }

    /// No-op: the compression tier is gone. Kept only because the
    /// `benchmark` package's `Knobs::apply` still calls it.
    #[doc(hidden)]
    pub fn compression(self, _on: bool) -> DatabaseBuilder {
        self
    }

    /// No-op: the spill tier is gone, and nothing is written under `dir`.
    /// Kept only because the `benchmark` package's `Knobs::apply` still
    /// calls it.
    #[doc(hidden)]
    pub fn spill_dir(self, _dir: impl Into<std::path::PathBuf>, _budget: usize) -> DatabaseBuilder {
        self
    }

    /// No-op: operator-state recycling is gone; kept only because the
    /// `benchmark` package's `Knobs::apply` still calls it.
    #[doc(hidden)]
    pub fn recycle_operator_state(self, _on: bool) -> DatabaseBuilder {
        self
    }

    /// Append a custom optimiser pass. Passes run after the default
    /// pipeline (constant folding, dead code) and before the recycler
    /// marking pass.
    pub fn pass(mut self, pass: Box<dyn OptPass>) -> DatabaseBuilder {
        self.passes.push(Arc::from(pass));
        self
    }

    /// Register a named query template, optimised at [`Self::build`] —
    /// the handle remote clients reference in wire `Query` requests.
    pub fn template(mut self, name: &str, program: Program) -> DatabaseBuilder {
        self.templates.push((name.to_string(), program));
        self
    }

    /// Build the database: wires the shared catalog cell, the shared
    /// recycler and the optimiser pipeline, and prepares the registered
    /// templates.
    pub fn build(self) -> Database {
        let mut passes = default_pipeline();
        passes.extend(self.passes);
        let shared = SharedRecycler::new(self.config);
        if self.recycling {
            passes.push(Arc::new(RecycleMark));
        }
        let db = Database {
            inner: Arc::new(DbInner {
                shared,
                cell: CatalogCell::new(self.catalog),
                passes,
                recycling: self.recycling,
                templates: RwLock::new(FxHashMap::default()),
            }),
        };
        for (name, program) in self.templates {
            db.register(&name, program);
        }
        db
    }

    /// [`Self::build`] behind a `Result`; no configuration is rejected, so
    /// it is always `Ok`. Kept because the `benchmark` package calls it.
    pub fn try_build(self) -> Result<Database, Error> {
        Ok(self.build())
    }
}

struct DbInner {
    shared: Arc<SharedRecycler>,
    cell: Arc<CatalogCell>,
    passes: Vec<Arc<dyn OptPass>>,
    recycling: bool,
    templates: RwLock<FxHashMap<String, Arc<Program>>>,
}

/// One database: the single owner of the shared recycler service, the
/// updatable catalog cell and the optimiser pipeline; vends cheap
/// [`Session`] handles. This is the facade the paper's serving
/// architecture implies — one recycler inside the server, shared by every
/// client session (§8) — and what the engine constructors used to make
/// every embedder hand-assemble.
///
/// `Database` is cheaply cloneable (an `Arc` handle); clones share
/// everything.
///
/// # Serving over TCP
///
/// The `rcy-server` crate maps network connections onto sessions — ten
/// lines end to end:
///
/// ```ignore
/// use recycling::DatabaseBuilder;
/// use rcy_server::{Client, Server, ServerConfig};
///
/// let db = DatabaseBuilder::new(catalog)
///     .template("nearby", nearby_template)
///     .build();
/// let server = Server::start(db, "127.0.0.1:0", ServerConfig::default())?;
/// let mut client = Client::connect(server.local_addr())?;
/// let reply = client.query("nearby", &[Value::Float(180.0), Value::Float(1.5)])?;
/// println!("{} rows, {} of {} instructions recycled",
///          reply.exports.len(), reply.reused, reply.marked);
/// client.close()?;
/// server.shutdown();
/// ```
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// Open a new session. Sessions are cheap — a recycler handle plus an
    /// epoch-pinned catalog snapshot; create one per connection or
    /// thread.
    pub fn session(&self) -> Session {
        if self.inner.recycling {
            let hook = self.inner.shared.session();
            Session::recycled(
                self.clone(),
                Engine::with_shared_catalog(&self.inner.cell, hook),
            )
        } else {
            Session::naive(
                self.clone(),
                Engine::with_shared_catalog(&self.inner.cell, NoHook),
            )
        }
    }

    /// Run the optimiser pipeline (including the recycler marking pass)
    /// over a freshly built program. Call once per template, then
    /// [`Session::query`] it many times.
    pub fn prepare(&self, mut program: Program) -> Program {
        let cat = self.inner.cell.snapshot();
        for pass in &self.inner.passes {
            pass.run(&mut program, &cat);
        }
        program
    }

    /// Prepare `program` and register it under `name` for
    /// [`Session::query_named`] and the TCP front-end. Replaces any
    /// previous template of that name; returns the prepared handle.
    pub fn register(&self, name: &str, program: Program) -> Arc<Program> {
        let prepared = Arc::new(self.prepare(program));
        self.lock_templates()
            .insert(name.to_string(), Arc::clone(&prepared));
        prepared
    }

    /// Look up a registered template.
    pub fn template(&self, name: &str) -> Option<Arc<Program>> {
        self.inner
            .templates
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Names of all registered templates (sorted).
    pub fn template_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .templates
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Snapshot of the shared recycler's lifetime statistics.
    pub fn stats(&self) -> RecyclerStats {
        self.inner.shared.stats()
    }

    /// The shared recycle pool (diagnostics, tests, experiment harness).
    pub fn pool(&self) -> &RecyclePool {
        self.inner.shared.pool()
    }

    /// Snapshot of the pool content (the paper's Table III material).
    pub fn snapshot(&self) -> PoolSnapshot {
        self.inner.shared.snapshot()
    }

    /// The current committed catalog snapshot (advances with every
    /// [`Session::commit`]).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.inner.cell.snapshot()
    }

    /// The catalog's commit epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.cell.epoch()
    }

    /// The live recycler configuration.
    pub fn config(&self) -> RecyclerConfig {
        self.inner.shared.config()
    }

    /// Server-wide pool maintenance — emptying or resetting the shared
    /// pool. These operations affect **every** session (there is no
    /// session-local clear: the pool is shared state); each operation is
    /// atomic against concurrent queries via the pool's write lock. Nothing
    /// here is needed after a panic: a write step that panics has already
    /// emptied the pool.
    pub fn maintenance(&self) -> MaintenanceGuard<'_> {
        self.inner.shared.maintenance()
    }

    /// White-box access to the shared recycler service, for diagnostics
    /// and hook-level tests. Application code should not need this.
    pub fn recycler(&self) -> &Arc<SharedRecycler> {
        &self.inner.shared
    }

    fn lock_templates(&self) -> std::sync::RwLockWriteGuard<'_, FxHashMap<String, Arc<Program>>> {
        self.inner
            .templates
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("recycling", &self.inner.recycling)
            .field("epoch", &self.epoch())
            .field("pool_entries", &self.pool().len())
            .field("templates", &self.template_names())
            .finish()
    }
}
