//! The fixed-script oracle: "same behaviour" for anything touching the
//! pool, shown on a script whose every query is fixed in advance.
//!
//! Four scripts — PACED and KEEPALL admission, each with and without a
//! refresh block committed after every round — and a naive database's
//! run of each shape replay the TPC-H mix the
//! way the repo benchmark's `tpch_mix` / `tpch_refresh` seed it (seed 42,
//! SF 0.01, a 4 MiB pool; 64 rounds of `mixed_batch(&MIXED_QUERIES, 2, ·)`
//! seeded from one `SmallRng`; refresh blocks from `seed ^ 0x5eed_b10c`,
//! insert and delete in turn, 8 orders each). The first 80 queries warm the
//! pool; over the 1 200 counted ones each script prints the deltas of the
//! recycler's counters, the pool read and write locks its query and commit
//! calls took, a hash of every export and a hash of the pool's
//! `(invalidated, bytes, len)` after each commit — and must print exactly
//! its section of `tests/golden/fixed_script.txt`. Each recycled script's
//! export hash must also equal the naive run's of its shape: the hard
//! contract, a recycled answer bit-identical to a cold one, on 1 200
//! answers.
//!
//! The timed benchmark cannot show this: a faster build gets further into
//! its script. A change that means to change behaviour regenerates the
//! golden (the failure message prints the new section) and states the
//! difference; one that does not must leave it as it is. Each script is
//! its own test, so they run side by side.

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler::RecyclePool;
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Update};
use tpch::workload::MIXED_QUERIES;

const SEED: u64 = 42;
const SF: f64 = 0.01;
const POOL_BYTES: usize = 4 << 20;
const ROUNDS: usize = 64;
const WARMUP: usize = 80;
const COUNTED: usize = 1200;
const REFRESH_ORDERS: usize = 8;

const GOLDEN: &str = include_str!("golden/fixed_script.txt");

/// FNV-1a, fixed here so the golden does not depend on the standard
/// library's hasher.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const START: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn feed(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The pool locks the calling thread's query and commit calls take.
#[derive(Default)]
struct Locks {
    reads: u64,
    writes: u64,
}

impl Locks {
    fn around<R>(&mut self, db: &Database, call: impl FnOnce() -> R) -> R {
        let (reads, writes) = (
            RecyclePool::read_locks_on_this_thread(),
            db.pool().write_lock_acquisitions(),
        );
        let out = call();
        self.reads += RecyclePool::read_locks_on_this_thread() - reads;
        self.writes += db.pool().write_lock_acquisitions() - writes;
        out
    }
}

/// The next refresh block, made from the live catalog: an insert block
/// on even blocks, a delete block on odd ones.
fn refresh_block(db: &Database, rng: &mut SmallRng, block: usize) -> [Update; 2] {
    let catalog = db.catalog();
    if block.is_multiple_of(2) {
        let rows = tpch::insert_block(&catalog, rng, REFRESH_ORDERS);
        [
            Update::to("orders").insert(rows.order_rows),
            Update::to("lineitem").insert(rows.lineitem_rows),
        ]
    } else {
        let rows = tpch::delete_block(&catalog, rng, REFRESH_ORDERS);
        [
            Update::to("lineitem").delete(rows.delete_lineitems),
            Update::to("orders").delete(rows.delete_orders),
        ]
    }
}

/// Replay one script — recycled under `admission`, or naive without one —
/// and render its section of the golden.
fn replay(name: &str, admission: Option<AdmissionPolicy>, refreshes: bool) -> String {
    let builder = DatabaseBuilder::new(tpch::generate(tpch::TpchScale::new(SF)));
    let db = match admission {
        Some(admission) => builder.recycler(
            RecyclerConfig::default()
                .admission(admission)
                .mem_limit(POOL_BYTES),
        ),
        None => builder.naive(),
    }
    .build();
    let mut round_seeds = SmallRng::seed_from_u64(SEED);
    let mut refresh_rng = SmallRng::seed_from_u64(SEED ^ 0x5eed_b10c);
    let mut templates = Vec::new();
    let mut session = db.session();
    let (mut locks, mut exports, mut commits) = (Locks::default(), Fnv::START, Fnv::START);
    let mut before = None;
    let mut queries = 0;
    for round in 0..ROUNDS {
        let (round_queries, items) = tpch::mixed_batch(&MIXED_QUERIES, 2, round_seeds.gen());
        if templates.is_empty() {
            let prepare = |q: tpch::TpchQuery| db.prepare(q.template);
            templates = round_queries.into_iter().map(prepare).collect();
        }
        for item in items {
            if queries == WARMUP {
                before = Some(db.stats());
                locks = Locks::default();
            }
            let template = &templates[item.query_idx];
            let reply = locks
                .around(&db, || session.query(template, &item.params))
                .expect("the query runs");
            if queries >= WARMUP {
                exports.feed(&format!("{:?}", reply.exports));
            }
            queries += 1;
        }
        if refreshes {
            for update in refresh_block(&db, &mut refresh_rng, round) {
                locks
                    .around(&db, || session.commit(update))
                    .expect("the commit applies");
                if queries > WARMUP {
                    let pool = db.pool();
                    let after = (db.stats().invalidated, pool.bytes(), pool.len());
                    commits.feed(&format!("{after:?}"));
                }
            }
        }
    }
    assert_eq!(
        queries,
        WARMUP + COUNTED,
        "the script is {ROUNDS} whole rounds"
    );
    let (before, after) = (before.expect("past the warm-up"), db.stats());
    db.pool().check_invariants().expect("a consistent pool");
    let mut out = format!("[{name}]\n");
    for (counter, then, now) in [
        ("hits", before.hits, after.hits),
        ("admissions", before.admissions, after.admissions),
        ("evictions", before.evictions, after.evictions),
        ("subsumed", before.subsumed, after.subsumed),
        (
            "admission_rejects",
            before.admission_rejects,
            after.admission_rejects,
        ),
        ("invalidated", before.invalidated, after.invalidated),
        ("read_locks", 0, locks.reads),
        ("write_locks", 0, locks.writes),
    ] {
        let _ = writeln!(out, "{counter} {}", now - then);
    }
    let _ = writeln!(out, "exports {:016x}", exports.0);
    let _ = writeln!(out, "commits {:016x}", commits.0);
    out
}

/// The golden's section for `name`: from its header to the blank line
/// (empty when there is none, so that the failure prints the new one).
fn golden(name: &str) -> &'static str {
    let Some(start) = GOLDEN.find(&format!("[{name}]\n")) else {
        return "";
    };
    let section = &GOLDEN[start..];
    section.find("\n\n").map_or(section, |end| &section[..=end])
}

/// The `exports` line of a section.
fn exports_of(section: &str) -> &str {
    let line = section.lines().find(|l| l.starts_with("exports "));
    line.expect("an exports line")
}

fn check(name: &str, admission: Option<AdmissionPolicy>, refreshes: bool) {
    let printed = replay(name, admission, refreshes);
    assert!(
        printed == golden(name),
        "{name} differs from tests/golden/fixed_script.txt; it printed\n{printed}"
    );
    let naive = golden(if refreshes { "naive_refresh" } else { "naive" });
    assert_eq!(
        exports_of(&printed),
        exports_of(naive),
        "{name} answers what a naive database does not"
    );
}

#[test]
fn paced() {
    check("paced", Some(AdmissionPolicy::Paced), false);
}

#[test]
fn keepall() {
    check("keepall", Some(AdmissionPolicy::KeepAll), false);
}

#[test]
fn paced_refresh() {
    check("paced_refresh", Some(AdmissionPolicy::Paced), true);
}

#[test]
fn keepall_refresh() {
    check("keepall_refresh", Some(AdmissionPolicy::KeepAll), true);
}

#[test]
fn naive() {
    check("naive", None, false);
}

#[test]
fn naive_refresh() {
    check("naive_refresh", None, true);
}
