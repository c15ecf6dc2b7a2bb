//! The [`Database`] facade and its builder.

use std::sync::{Arc, PoisonError, RwLock};

use rbat::catalog::CatalogCell;
use rbat::hash::FxHashMap;
use rbat::Catalog;
use recycler::{
    MaintenanceGuard, PoolRef, PoolSnapshot, RecycleMark, RecyclerConfig, RecyclerStats,
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
    spill: Option<(std::path::PathBuf, usize)>,
}

impl DatabaseBuilder {
    /// Start from a fully built catalog with the default recycler
    /// configuration (the paper's baseline setting).
    pub fn new(catalog: Catalog) -> DatabaseBuilder {
        DatabaseBuilder {
            catalog,
            config: RecyclerConfig::default(),
            recycling: true,
            passes: Vec::new(),
            templates: Vec::new(),
            spill: None,
        }
    }

    /// Use an explicit recycler configuration (admission/eviction
    /// policies, limits, per-session credit slices, update mode).
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

    /// Enable the background collector thread with the given water marks
    /// (fractions of the configured limits).
    ///
    /// With the collector on, an admission that fits under the cap never
    /// evicts inline: it merely signals the collector once occupancy
    /// crosses `high` (say 80% of the cap), and the collector drains the
    /// pool back down to `low` (say 50%) off the query path. Inline
    /// eviction remains only as the last-resort path when the pool is
    /// genuinely full.
    ///
    /// Requires a memory or entry limit; validated at [`Self::try_build`]
    /// (`0 < low < high <= 1`).
    ///
    /// # Worked example: the low-memory scenario
    ///
    /// The paper's low-memory experiment squeezes the SkyServer workload
    /// into a 1 MiB pool, where the seed recycler spent 233 gather rounds
    /// and 889 inline evictions on the query path. The same cap with the
    /// collector enabled keeps steady-state admissions eviction-free:
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
    ///     .memory_budget(1 << 20)            // the lowmem 1 MiB cap
    ///     .background_collector(0.5, 0.8)    // drain to 50% once past 80%
    ///     .try_build()
    ///     .expect("valid water marks");
    /// // ... run the workload ...
    /// let stats = db.stats();
    /// assert_eq!(stats.inline_evictions, 0); // nothing evicted on the query path yet
    /// ```
    pub fn background_collector(mut self, low: f64, high: f64) -> DatabaseBuilder {
        self.config = self.config.collector(true).water_marks(low, high);
        self
    }

    /// Enable the in-memory **compression tier**: the background
    /// collector demotes cold pooled intermediates to a compact columnar
    /// encoding *in place* instead of evicting them, and a later hit
    /// transparently decompresses and re-promotes the entry. Requires the
    /// collector ([`Self::background_collector`]) and a limit; validated
    /// at [`Self::try_build`].
    ///
    /// # Worked example: the residency ladder under a tiny cap
    ///
    /// With compression on (and optionally a spill file), a 1 MiB pool
    /// stops throwing cold intermediates away — it shrinks them, then
    /// parks them on disk, and only evicts as the very last rung:
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
    /// let spill = std::env::temp_dir().join("recycler-doc-spill");
    /// std::fs::create_dir_all(&spill).unwrap();
    /// let db = DatabaseBuilder::new(cat)
    ///     .memory_budget(1 << 20)            // the lowmem 1 MiB cap
    ///     .background_collector(0.5, 0.8)    // demotion rides its rounds
    ///     .compression(true)                 // rung 1: compress in place
    ///     .spill_dir(&spill, 8 << 20)        // rung 2: 8 MiB on disk, off-cap
    ///     .try_build()
    ///     .expect("valid tiering configuration");
    /// // ... run the workload; cold entries now demote instead of dying ...
    /// let stats = db.stats();
    /// assert_eq!(stats.raw_bytes + stats.compressed_bytes, 0); // nothing admitted yet
    /// assert_eq!(stats.spilled_bytes, 0);
    /// # drop(db);
    /// # std::fs::remove_dir_all(&spill).ok();
    /// ```
    pub fn compression(mut self, on: bool) -> DatabaseBuilder {
        self.config = self.config.compression(on);
        self
    }

    /// Route the coldest *compressed* entries to an append-only spill
    /// file under `dir`, holding at most `budget` bytes of live records.
    /// Spilled bytes stop counting against the memory cap entirely; a hit
    /// on a spilled entry reads the record back and re-promotes it.
    /// Requires [`Self::compression`] — the spill tier is the rung below
    /// the compressed tier (see the worked example there). The file is
    /// removed when the database drops.
    pub fn spill_dir(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        budget: usize,
    ) -> DatabaseBuilder {
        self.spill = Some((dir.into(), budget));
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
    ///
    /// Panics if the recycler configuration is invalid (inverted water
    /// marks, a collector without limits, ...). Use [`Self::try_build`]
    /// to surface those as [`Error::Config`] instead.
    pub fn build(self) -> Database {
        self.try_build()
            .expect("DatabaseBuilder: invalid recycler configuration")
    }

    /// Like [`Self::build`], but validates the recycler configuration
    /// first and returns [`Error::Config`] when a constraint fails
    /// (ratios outside `(0, 1]`, `low >= high`, a collector enabled
    /// without any memory/entry limit, a zero round budget).
    pub fn try_build(self) -> Result<Database, Error> {
        self.config.validate().map_err(Error::Config)?;
        let spill = match &self.spill {
            None => None,
            Some(_) if !self.config.compression => {
                return Err(Error::Config(
                    "spill_dir requires compression: the spill tier is the rung \
                     below the compressed tier"
                        .to_string(),
                ));
            }
            Some((dir, budget)) => Some(
                recycler::tier::SpillFile::create(dir, *budget)
                    .map(Arc::new)
                    .map_err(|e| Error::Config(format!("cannot create spill file: {e}")))?,
            ),
        };
        let mut passes = default_pipeline();
        passes.extend(self.passes);
        let shared = SharedRecycler::with_spill(self.config, spill);
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
        Ok(db)
    }
}

struct DbInner {
    shared: Arc<SharedRecycler>,
    cell: Arc<CatalogCell>,
    passes: Vec<Arc<dyn OptPass>>,
    recycling: bool,
    templates: RwLock<FxHashMap<String, Arc<Program>>>,
}

impl Drop for DbInner {
    /// Dropping the last `Database` handle joins the background collector
    /// deterministically, so no stray thread outlives the facade. (The
    /// recycler's own `Drop` is only a backstop for white-box users who
    /// cloned the `Arc<SharedRecycler>` out of [`Database::recycler`].)
    fn drop(&mut self) {
        self.shared.shutdown_collector();
    }
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
    /// thread. Closing (dropping) it rebalances the remaining sessions'
    /// credit slices.
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

    /// Read access to the shared recycle pool (diagnostics, tests,
    /// experiment harness).
    pub fn pool(&self) -> PoolRef<'_> {
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
    /// session-local clear: the pool is shared state); the guard
    /// serialises maintenance sequences against each other, and each
    /// operation is atomic against concurrent queries via the pool's
    /// table write lock. This replaces the old per-session
    /// `Recycler::clear_pool`/`reset` footgun.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::{LogicalType, TableBuilder, Value};

    fn tiny_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
        for i in 0..8 {
            tb.push_row(&[Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        cat
    }

    #[test]
    fn try_build_rejects_inverted_water_marks() {
        let err = DatabaseBuilder::new(tiny_catalog())
            .memory_budget(1 << 20)
            .background_collector(0.8, 0.5)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        assert!(err.to_string().contains("low water mark"));
    }

    #[test]
    fn try_build_rejects_out_of_range_ratios() {
        for (low, high) in [(0.0, 0.8), (0.5, 1.5), (-0.1, 0.8), (f64::NAN, 0.8)] {
            let err = DatabaseBuilder::new(tiny_catalog())
                .memory_budget(1 << 20)
                .background_collector(low, high)
                .try_build()
                .unwrap_err();
            assert!(
                matches!(err, Error::Config(_)),
                "({low}, {high}) should be rejected"
            );
        }
    }

    #[test]
    fn try_build_rejects_collector_without_limits() {
        let err = DatabaseBuilder::new(tiny_catalog())
            .background_collector(0.5, 0.8)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("mem_limit or entry_limit"));
    }

    #[test]
    fn try_build_accepts_valid_collector_config_and_joins_on_drop() {
        let db = DatabaseBuilder::new(tiny_catalog())
            .memory_budget(1 << 20)
            .background_collector(0.5, 0.8)
            .try_build()
            .expect("valid config");
        let shared = Arc::clone(db.recycler());
        assert!(shared.collector_running(), "collector spawns at build");
        drop(db);
        assert!(
            !shared.collector_running(),
            "dropping the last Database handle joins the collector"
        );
    }

    #[test]
    fn default_build_stays_infallible_without_collector() {
        let db = DatabaseBuilder::new(tiny_catalog()).build();
        assert!(!db.recycler().collector_running());
    }
}
