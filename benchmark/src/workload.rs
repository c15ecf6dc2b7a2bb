//! The five workloads: what each one's inputs are, how its database is
//! set up, and through which door its single client talks to it.
//!
//! Every workload is a closed loop with one client — one session thread
//! or one TCP connection — because the users are analysts (or a web
//! front-end) who wait for each reply, and a loader committing refresh
//! blocks. The box has two cores and the server is in-process, so a
//! second client would measure the scheduler.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbat::{Catalog, Value};
use rcy_server::{Client, ClientError, Server, ServerConfig};
use recycling::{Database, DatabaseBuilder, RecyclerConfig, Session, Update, UpdateMode};
use rmal::Program;
use tpch::workload::MIXED_QUERIES;

use crate::trace::Tracer;

/// Sizes of the inputs. [`Sizes::CONTRACT`] is what `BENCHMARK.json`'s
/// command runs; the harness self-tests use [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Objects in the synthetic sky catalogue.
    pub sky_objects: usize,
    /// Entries in the sampled SkyServer log (one pass of the script).
    pub sky_log: usize,
    /// TPC-H scale factor.
    pub tpch_sf: f64,
    /// Rounds in the TPC-H script; a round is [`TPCH_ROUND`] queries.
    pub tpch_rounds: usize,
    /// Recycle-pool cap of the TPC-H workloads, smaller than what one
    /// pass of the script admits, so admission and eviction never rest.
    pub tpch_pool_bytes: usize,
}

impl Sizes {
    /// The sizes of the contract run.
    pub const CONTRACT: Sizes = Sizes {
        sky_objects: 40_000,
        sky_log: 20_000,
        tpch_sf: 0.01,
        tpch_rounds: 100,
        tpch_pool_bytes: 4 << 20,
    };

    /// Small inputs for the harness self-tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        sky_objects: 2_000,
        sky_log: 320,
        tpch_sf: 0.001,
        tpch_rounds: 4,
        tpch_pool_bytes: 256 << 10,
    };
}

/// Queries in one TPC-H round: two fresh instances of each of the ten
/// queries of the paper's mixed workload, shuffled. Whole rounds keep the
/// query mix of every repetition identical; `tpch_refresh` commits one
/// refresh block after each round (paper Fig. 12: every 20 queries).
pub const TPCH_ROUND: usize = 2 * MIXED_QUERIES.len();
/// Orders inserted or deleted by one refresh block.
pub const REFRESH_ORDERS: usize = 8;
/// Requests in flight per window on `sky_tcp_pipe`.
pub const PIPE_WINDOW: usize = 32;
/// Every how many operations an answer is digested and later compared
/// with the naive database's.
pub const CHECK_EVERY: usize = 16;

/// The workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SkyHot,
    SkyTcp,
    SkyTcpPipe,
    TpchMix,
    TpchRefresh,
}

impl Workload {
    /// All of them, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SkyHot,
        Workload::SkyTcp,
        Workload::SkyTcpPipe,
        Workload::TpchMix,
        Workload::TpchRefresh,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkyHot => "sky_hot",
            Workload::SkyTcp => "sky_tcp",
            Workload::SkyTcpPipe => "sky_tcp_pipe",
            Workload::TpchMix => "tpch_mix",
            Workload::TpchRefresh => "tpch_refresh",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sky(self) -> bool {
        !self.is_tpch()
    }

    pub fn is_tpch(self) -> bool {
        matches!(self, Workload::TpchMix | Workload::TpchRefresh)
    }

    pub fn over_tcp(self) -> bool {
        matches!(self, Workload::SkyTcp | Workload::SkyTcpPipe)
    }

    /// Operations the client ships before it waits.
    pub fn window(self) -> usize {
        if self == Workload::SkyTcpPipe {
            PIPE_WINDOW
        } else {
            1
        }
    }

    /// Operations between two looks at the clock: the time budget is
    /// checked at these boundaries only, so every repetition runs whole
    /// TPC-H rounds and whole pipeline windows.
    pub fn chunk(self) -> usize {
        match self {
            Workload::SkyHot | Workload::SkyTcpPipe => 1024,
            Workload::SkyTcp => 128,
            Workload::TpchMix => TPCH_ROUND,
            Workload::TpchRefresh => TPCH_ROUND + 1,
        }
    }

    /// Untimed operations at the head of each repetition. The sky log is
    /// replayed once in full so that every later query is an exact hit
    /// (the TCP workloads warm the pool in-process first, then the
    /// connection); the TPC-H pool fills its cap within the first round
    /// and is in steady eviction after four.
    pub fn warmup_ops(self, script: &Script) -> usize {
        match self {
            Workload::SkyHot => script.ops.len(),
            Workload::SkyTcp | Workload::SkyTcpPipe => 1024,
            Workload::TpchMix | Workload::TpchRefresh => 4 * self.chunk(),
        }
    }
}

/// Opt-in recycler layers for later ablation runs (`--knobs a,b,...`).
/// A run with any knob set is not a contract run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Knobs(Vec<String>);

impl Knobs {
    /// The knob names [`Knobs::parse`] accepts.
    pub const NAMES: [&'static str; 7] = [
        "collector",
        "compression",
        "spill",
        "opstate",
        "credits",
        "no-subsumption",
        "propagate",
    ];

    /// Parse a comma-separated list; unknown names are an error.
    pub fn parse(list: &str) -> Result<Knobs, String> {
        let names: Vec<String> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        match names.iter().find(|n| !Knobs::NAMES.contains(&n.as_str())) {
            Some(bad) => Err(format!(
                "unknown knob `{bad}` (known: {})",
                Knobs::NAMES.join(",")
            )),
            None => Ok(Knobs(names)),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn names(&self) -> &[String] {
        &self.0
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|n| n == name)
    }

    /// Map the knobs onto the product's existing builder methods.
    fn apply(&self, mut builder: DatabaseBuilder, config: RecyclerConfig) -> DatabaseBuilder {
        let mut config = config;
        if self.has("credits") {
            config = config.session_credits(4096);
        }
        if self.has("no-subsumption") {
            config = config.subsumption(false);
        }
        if self.has("propagate") {
            config = config.update_mode(UpdateMode::Propagate);
        }
        builder = builder.recycler(config);
        if self.has("collector") {
            builder = builder.background_collector(0.5, 0.8);
        }
        if self.has("compression") {
            builder = builder.compression(true);
        }
        if self.has("spill") {
            builder = builder.spill_dir(out_dir().join("spill"), 8 << 20);
        }
        if self.has("opstate") {
            builder = builder.recycle_operator_state(true);
        }
        builder
    }
}

/// The benchmark's own directory (the one holding its manifest).
pub fn manifest_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string())
        .into()
}

/// Where the benchmark writes: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

/// One step of a script.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run template `template` with these parameters.
    Query { template: usize, params: Vec<Value> },
    /// Commit the next TPC-H refresh block (made from the live catalog,
    /// alternating insert and delete).
    Refresh,
}

/// The inputs of one workload, made from the seed alone.
#[derive(Debug, Clone)]
pub struct Script {
    /// Query templates, unprepared.
    pub templates: Vec<Program>,
    /// The operations, replayed cyclically.
    pub ops: Vec<Op>,
    /// Seed of the refresh-block generator.
    pub refresh_seed: u64,
}

impl Script {
    /// The script of `workload` for `seed`.
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64) -> Script {
        let refresh_seed = seed ^ 0x5eed_b10c;
        if workload.is_sky() {
            let (templates, items) = skyserver::sample_log(sizes.sky_log, seed);
            let ops = items
                .into_iter()
                .map(|i| Op::Query {
                    template: i.query_idx,
                    params: i.params,
                })
                .collect();
            return Script {
                templates,
                ops,
                refresh_seed,
            };
        }
        let mut round_seeds = SmallRng::seed_from_u64(seed);
        let mut templates = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..sizes.tpch_rounds {
            let (queries, items) = tpch::mixed_batch(
                &MIXED_QUERIES,
                TPCH_ROUND / MIXED_QUERIES.len(),
                round_seeds.gen(),
            );
            if templates.is_empty() {
                templates = queries.into_iter().map(|q| q.template).collect();
            }
            ops.extend(items.into_iter().map(|i| Op::Query {
                template: i.query_idx,
                params: i.params,
            }));
            if workload == Workload::TpchRefresh {
                ops.push(Op::Refresh);
            }
        }
        Script {
            templates,
            ops,
            refresh_seed,
        }
    }

    /// Does replaying the script change the database?
    pub fn has_commits(&self) -> bool {
        self.ops.contains(&Op::Refresh)
    }
}

/// Generates and commits the refresh blocks of one database, in order.
/// Two databases fed by generators of the same seed see the same blocks.
pub struct Refresher {
    rng: SmallRng,
    blocks: u64,
}

impl Refresher {
    pub fn new(seed: u64) -> Refresher {
        Refresher {
            rng: SmallRng::seed_from_u64(seed),
            blocks: 0,
        }
    }

    /// Make the next block from `db`'s live catalog (outside the clock),
    /// then commit it through `session`; returns the time the commits
    /// took, which is what the loader waited for.
    pub fn commit_next(
        &mut self,
        db: &Database,
        session: &mut Session,
    ) -> Result<(Instant, Instant), recycling::Error> {
        let catalog = db.catalog();
        let insert = self.blocks.is_multiple_of(2);
        self.blocks += 1;
        let updates = if insert {
            let block = tpch::insert_block(&catalog, &mut self.rng, REFRESH_ORDERS);
            [
                Update::to("orders").insert(block.order_rows),
                Update::to("lineitem").insert(block.lineitem_rows),
            ]
        } else {
            let block = tpch::delete_block(&catalog, &mut self.rng, REFRESH_ORDERS);
            [
                Update::to("lineitem").delete(block.delete_lineitems),
                Update::to("orders").delete(block.delete_orders),
            ]
        };
        let start = Instant::now();
        for update in updates {
            session.commit(update)?;
        }
        Ok((start, Instant::now()))
    }
}

/// What set-up produced: the generated data and the script. Each
/// repetition builds its own fresh database from these.
pub struct Inputs {
    pub catalog: Catalog,
    pub script: Script,
}

/// A database ready to be queried, and the server in front of it if the
/// workload talks TCP.
pub struct System {
    pub db: Database,
    /// The script's templates, prepared; registered under their names.
    pub templates: Vec<Arc<Program>>,
    pub server: Option<Server>,
}

impl System {
    /// Stop the server, if any, and wait for its threads.
    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// Data generation. The data is the substrate's default data set — the
/// one the rest of the repo measures on — whatever the seed: the seed
/// picks the script (log entries, query parameters, refresh blocks). A
/// seeded data set moved `sky_hot` throughput by ±7 % between seeds, which
/// is the size of effect the benchmark exists to detect.
pub fn generate_inputs(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
) -> Inputs {
    let start = Instant::now();
    let (name, catalog) = if workload.is_sky() {
        let scale = skyserver::SkyScale::new(sizes.sky_objects);
        ("skyserver.gen", skyserver::generate(scale))
    } else {
        let scale = tpch::TpchScale::new(sizes.tpch_sf);
        ("tpch.gen", tpch::generate(scale))
    };
    tracer.span(name, start, Instant::now(), None, 0);
    Inputs {
        catalog,
        script: Script::generate(workload, sizes, seed),
    }
}

/// Build a database over `inputs`, prepare and register the templates,
/// and start the server if the workload needs one. `naive` builds the
/// recycling-off reference the answers are checked against.
pub fn build_system(
    workload: Workload,
    sizes: &Sizes,
    knobs: &Knobs,
    inputs: &Inputs,
    naive: bool,
    tracer: &mut Tracer,
) -> Result<System, String> {
    let start = Instant::now();
    let mut builder = DatabaseBuilder::new(inputs.catalog.clone());
    if naive {
        builder = builder.naive();
    } else {
        let mut config = RecyclerConfig::default();
        if workload.is_tpch() {
            config = config.mem_limit(sizes.tpch_pool_bytes);
        }
        builder = knobs.apply(builder, config);
    }
    let db = builder.try_build().map_err(|e| e.to_string())?;
    tracer.span("recycling.build", start, Instant::now(), None, 0);

    let start = Instant::now();
    let templates = inputs
        .script
        .templates
        .iter()
        .map(|t| db.register(&t.name, t.clone()))
        .collect();
    tracer.span("recycling.prepare", start, Instant::now(), None, 0);

    let server = if workload.over_tcp() && !naive {
        let start = Instant::now();
        let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        tracer.span("server.start", start, Instant::now(), None, 0);
        Some(server)
    } else {
        None
    };
    Ok(System {
        db,
        templates,
        server,
    })
}

/// One full set-up as a user pays for it — data generation, database
/// build, template preparation, server start — and how long it took.
pub fn setup(
    workload: Workload,
    sizes: &Sizes,
    knobs: &Knobs,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Inputs, Duration), String> {
    let start = Instant::now();
    let inputs = generate_inputs(workload, sizes, seed, tracer);
    let system = build_system(workload, sizes, knobs, &inputs, false, tracer)?;
    let took = start.elapsed();
    system.shutdown();
    Ok((inputs, took))
}

/// The workload's one client.
pub enum Door {
    /// A session in the benchmark's own thread.
    InProcess(Session),
    /// One connection to the server on loopback.
    Tcp(Client),
}

impl Door {
    /// Open the client side of `system`.
    pub fn open(system: &System) -> Result<Door, ClientError> {
        match &system.server {
            Some(server) => Client::connect(server.local_addr()).map(Door::Tcp),
            None => Ok(Door::InProcess(system.db.session())),
        }
    }

    /// Close the connection, if there is one.
    pub fn close(self) {
        if let Door::Tcp(client) = self {
            let _ = client.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for workload in Workload::ALL {
            let a = Script::generate(workload, &Sizes::TINY, 7);
            let b = Script::generate(workload, &Sizes::TINY, 7);
            let c = Script::generate(workload, &Sizes::TINY, 8);
            assert_eq!(a.ops, b.ops, "{}", workload.name());
            assert_ne!(a.ops, c.ops, "{}", workload.name());
            assert_eq!(a.has_commits(), workload == Workload::TpchRefresh);
        }
    }

    #[test]
    fn tpch_rounds_are_whole_and_balanced() {
        let script = Script::generate(Workload::TpchRefresh, &Sizes::TINY, 1);
        assert_eq!(script.ops.len(), Sizes::TINY.tpch_rounds * (TPCH_ROUND + 1));
        for round in script.ops.chunks(TPCH_ROUND + 1) {
            assert_eq!(round.last(), Some(&Op::Refresh));
            let mut per_template = vec![0; script.templates.len()];
            for op in &round[..TPCH_ROUND] {
                match op {
                    Op::Query { template, .. } => per_template[*template] += 1,
                    Op::Refresh => panic!("refresh inside a round"),
                }
            }
            assert!(per_template.iter().all(|n| *n == 2), "{per_template:?}");
        }
    }

    #[test]
    fn knobs_reject_unknown_names() {
        assert!(Knobs::parse("collector,opstate").is_ok());
        assert!(Knobs::parse("").unwrap().is_empty());
        assert!(Knobs::parse("collector,turbo").is_err());
    }
}
