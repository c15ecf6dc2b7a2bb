//! Admission and eviction policy behaviour on real workloads, driven
//! through the `Database`/`Session` facade.

use std::collections::BTreeSet;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::shared::PACED_CREDITS;
use recycler::Recycler;
use recycling::{
    AdmissionPolicy, Database, DatabaseBuilder, EvictionPolicy, QueryReply, RecyclerConfig,
    RecyclerStats, Update,
};
use rmal::{ExecHook, HookAction, Opcode, Program, ProgramBuilder, P};

fn drive(config: RecyclerConfig, instances: usize) -> Database {
    let cat = tpch::generate(tpch::TpchScale::new(0.004));
    let (qs, items) = tpch::mixed_batch(&tpch::workload::MIXED_QUERIES, instances, 99);
    let db = DatabaseBuilder::new(cat).recycler(config).build();
    let templates: Vec<Program> = qs.iter().map(|q| db.prepare(q.template.clone())).collect();
    let mut session = db.session();
    for item in &items {
        session
            .query(&templates[item.query_idx], &item.params)
            .expect("query");
    }
    db
}

#[test]
fn credit_uses_less_memory_than_keepall() {
    let keepall = drive(
        RecyclerConfig::default().admission(AdmissionPolicy::KeepAll),
        5,
    );
    let credit = drive(
        RecyclerConfig::default().admission(AdmissionPolicy::Credit(2)),
        5,
    );
    assert!(
        credit.pool().bytes() < keepall.pool().bytes(),
        "credit(2): {} vs keepall: {}",
        credit.pool().bytes(),
        keepall.pool().bytes()
    );
    assert!(credit.stats().admission_rejects > 0);
}

#[test]
fn adaptive_beats_plain_credit_on_hits() {
    let credit = drive(
        RecyclerConfig::default().admission(AdmissionPolicy::Credit(3)),
        8,
    );
    let adapt = drive(
        RecyclerConfig::default().admission(AdmissionPolicy::Adaptive(3)),
        8,
    );
    // once an instruction demonstrates reuse, ADAPT grants unlimited
    // credits — hits must be at least on par with the plain credit policy
    assert!(
        adapt.stats().hits * 100 >= credit.stats().hits * 95,
        "adapt {} vs credit {}",
        adapt.stats().hits,
        credit.stats().hits
    );
}

#[test]
fn entry_limit_is_hard() {
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Benefit,
        EvictionPolicy::History,
    ] {
        let db = drive(
            RecyclerConfig::default().eviction(policy).entry_limit(50),
            4,
        );
        assert!(
            db.pool().len() <= 50,
            "{policy:?}: {} entries",
            db.pool().len()
        );
        db.pool().check_invariants().expect("coherent");
        assert!(db.stats().evictions > 0, "{policy:?} must evict");
    }
}

#[test]
fn memory_limit_is_hard() {
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Benefit,
        EvictionPolicy::History,
    ] {
        let limit = 256 * 1024;
        let db = drive(
            RecyclerConfig::default().eviction(policy).mem_limit(limit),
            4,
        );
        assert!(
            db.pool().bytes() <= limit,
            "{policy:?}: {} bytes",
            db.pool().bytes()
        );
        db.pool().check_invariants().expect("coherent");
    }
}

#[test]
fn limited_pool_still_produces_correct_results() {
    let cat = tpch::generate(tpch::TpchScale::new(0.004));
    let q = tpch::query(18);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
    let params = (q.params)(&mut rng);

    let naive_db = DatabaseBuilder::new(cat.clone()).naive().build();
    let nt = naive_db.prepare(q.template.clone());
    let expected = naive_db.session().query(&nt, &params).unwrap().exports;

    let cfg = RecyclerConfig::default()
        .eviction(EvictionPolicy::Benefit)
        .entry_limit(8)
        .mem_limit(64 * 1024);
    let db = DatabaseBuilder::new(cat).recycler(cfg).build();
    let t = db.prepare(q.template.clone());
    let mut session = db.session();
    for round in 0..3 {
        let got = session.query(&t, &params).unwrap().exports;
        assert_eq!(got, expected, "round {round} under tight limits");
    }
    db.pool().check_invariants().expect("coherent");
}

/// Per-policy totals over the paper's Fig. 4–5 scripts (ten instances each
/// of Q11, Q18, Q19, Q14, every query on a fresh database): `(hits,
/// admissions, admission rejects)`.
fn fig4_5_decisions(admission: AdmissionPolicy) -> Vec<(u64, u64, u64)> {
    let cat = tpch::generate(tpch::TpchScale::new(0.004));
    [11u8, 18, 19, 14]
        .into_iter()
        .map(|qno| {
            let (qs, items) = tpch::query_batch(qno, 10, 42);
            let db = DatabaseBuilder::new(cat.clone())
                .recycler(RecyclerConfig::default().admission(admission))
                .build();
            let template = db.prepare(qs[0].template.clone());
            let mut session = db.session();
            let (mut hits, mut admitted) = (0, 0);
            for item in &items {
                let reply = session.query(&template, &item.params).expect("query");
                hits += reply.reused;
                admitted += reply.admitted;
            }
            let stats = db.stats();
            assert_eq!((stats.hits, stats.admissions), (hits, admitted));
            (hits, admitted, stats.admission_rejects)
        })
        .collect()
}

#[test]
fn deferred_accounts_decide_as_the_per_hit_accounts_did() {
    // The totals the per-hit accounts mutex produced (recorded at the
    // commit before the accounts were buffered per session): booking
    // reuses and invocations at the session's next admission decision or
    // at query end must not change one admit/deny decision.
    assert_eq!(
        fig4_5_decisions(AdmissionPolicy::Credit(2)),
        [(252, 112, 56), (117, 26, 27), (248, 94, 318), (60, 35, 105)],
        "Credit(2)"
    );
    assert_eq!(
        fig4_5_decisions(AdmissionPolicy::Adaptive(2)),
        [(252, 112, 56), (126, 44, 0), (249, 97, 314), (60, 140, 0)],
        "Adaptive(2)"
    );
}

/// A database over one small table and a recycler session driven by hand,
/// hook call by hook call — what the interpreter does, with the freedom to
/// probe one instruction twice or to stop before `query_end`.
struct ByHand {
    db: Database,
    session: Recycler,
    template: Program,
}

/// One table, `t.x` a permutation of `0..1000`, and `range_count` over it,
/// prepared: a bind (pc 0), a closed range select (pc 1) and its count
/// (pc 2).
fn range_db(config: RecyclerConfig) -> (Database, Program) {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
    for i in 0..1000i64 {
        tb.push_row(&[Value::Int((i * 37) % 1000)]);
    }
    cat.add_table(tb.finish());
    let db = DatabaseBuilder::new(cat).recycler(config).build();
    let mut b = ProgramBuilder::new("range_count", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    let template = db.prepare(b.finish());
    assert_eq!(template.instrs[1].op, Opcode::Select);
    (db, template)
}

fn range(session: &mut recycling::Session, t: &Program, lo: i64, hi: i64) -> QueryReply {
    session.query(t, &[Value::Int(lo), Value::Int(hi)]).unwrap()
}

impl ByHand {
    fn new(admission: AdmissionPolicy) -> ByHand {
        let config = RecyclerConfig::default()
            .admission(admission)
            .subsumption(false);
        let (db, template) = range_db(config);
        ByHand {
            session: db.recycler().session(),
            db,
            template,
        }
    }

    /// Run instruction `pc` over `args`: probe, and on a miss execute and
    /// offer the result for admission. Returns the value and whether it
    /// came from the pool.
    fn step(&mut self, pc: usize, args: &[Value]) -> (Value, bool) {
        let (cat, instr) = (self.db.catalog(), &self.template.instrs[pc]);
        match self.session.before(&cat, pc, instr, args, Instant::now()) {
            HookAction::Reuse(v) => (v, true),
            HookAction::Proceed => {
                let v = rmal::execute_op(&cat, &instr.op, args).unwrap();
                let (cpu, now) = (Duration::from_micros(5), Instant::now());
                self.session.after(&cat, pc, instr, args, &v, cpu, now);
                (v, false)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn bind(&mut self) -> (Value, bool) {
        self.step(0, &[Value::str("t"), Value::str("x")])
    }

    /// The range select (pc 1) starting at `lo`; was it a hit?
    fn select(&mut self, col: &Value, lo: i64) -> bool {
        let bounds = [Value::Int(lo), Value::Int(lo + 100)];
        let closed = [Value::Bool(true), Value::Bool(true)];
        let args = [std::slice::from_ref(col), &bounds, &closed].concat();
        self.step(1, &args).1
    }
}

#[test]
fn a_credit_returned_by_a_local_reuse_is_spendable_in_the_same_query() {
    let mut h = ByHand::new(AdmissionPolicy::Credit(1));
    h.session.query_start(&h.template);
    let (col, _) = h.bind();
    assert!(!h.select(&col, 0), "first instance: computed, admitted");
    assert!(h.select(&col, 0), "probed again: a local reuse");
    // the select's one credit went into the first instance; only the local
    // reuse — still sitting in the session's buffer — gives it back
    assert!(!h.select(&col, 200));
    let stats = h.db.stats();
    assert_eq!((stats.admissions, stats.admission_rejects), (3, 0));
    // ... and with no further reuse the next instance is turned away
    assert!(!h.select(&col, 400));
    let stats = h.db.stats();
    assert_eq!((stats.admissions, stats.admission_rejects), (3, 1));
    h.session.query_end(&h.template);
    h.db.pool().check_invariants().unwrap();
}

#[test]
fn an_aborted_query_is_settled_by_the_next_query_start() {
    let mut h = ByHand::new(AdmissionPolicy::Adaptive(1));
    h.session.query_start(&h.template);
    let (col, _) = h.bind();
    assert!(!h.select(&col, 0));
    h.session.query_end(&h.template);
    let pins = |h: &ByHand| -> Vec<u32> {
        let entries = h.db.pool().snapshot_entries();
        entries.iter().map(|e| e.pin_count()).collect()
    };
    assert_eq!(pins(&h), [0, 0]);

    // hits both entries, then dies before `query_end`
    h.session.query_start(&h.template);
    assert!(h.bind().1 && h.select(&col, 0));
    assert_eq!(pins(&h), [1, 1], "the running query pins what it uses");
    assert_eq!(h.db.stats().hits, 0, "counted when the query is settled");

    h.session.query_start(&h.template);
    assert_eq!(pins(&h), [0, 0], "pins of the aborted query released");
    assert_eq!(h.db.stats().hits, 2, "its hits counted");
    // Its notes reached the accounts too: this is the template's third
    // invocation, past ADAPT's decision point (k = 1), and the select is
    // granted unlimited admissions only because its one reuse — made by
    // the aborted query — was booked.
    assert!(h.bind().1 && !h.select(&col, 200));
    let stats = h.db.stats();
    assert_eq!((stats.admissions, stats.admission_rejects), (3, 0));
    h.session.query_end(&h.template);
    h.db.pool().check_invariants().unwrap();
}

/// `MaintenanceGuard::reset` had no test, and its hand list of counters had
/// forgotten `deadline_skips`.
#[test]
fn reset_zeroes_every_lifetime_counter_and_keeps_ids_and_the_clock_monotone() {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
    (0..100).for_each(|i| tb.push_row(&[Value::Int(i)]));
    cat.add_table(tb.finish());
    let db = DatabaseBuilder::new(cat)
        .recycler(RecyclerConfig::default().entry_limit(4))
        .build();
    let mut b = ProgramBuilder::new("range_count", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    let t = db.prepare(b.finish());
    let mut session = db.session();
    let range = |lo, hi| [Value::Int(lo), Value::Int(hi)];
    // admissions, hits on the bind, a subsumed select, evictions at the
    // cap; then a query past its deadline, and an invalidating commit
    for (lo, hi) in [(0, 90), (10, 50), (60, 70)] {
        session.query(&t, &range(lo, hi)).unwrap();
    }
    let late = session.query_with_deadline(&t, &range(1, 2), Duration::from_nanos(1));
    assert!(late.is_err());
    session
        .commit(Update::to("t").insert(vec![vec![Value::Int(7)]]))
        .unwrap();
    session.query(&t, &range(0, 90)).unwrap();
    let lived = db.stats();
    for counter in [
        lived.hits,
        lived.admissions,
        lived.subsumed,
        lived.evictions,
        lived.deadline_skips,
        lived.invalidated,
    ] {
        assert!(counter > 0, "the script must move the counters: {lived:?}");
    }
    let residents = db.pool().snapshot_entries();
    let newest = residents.iter().map(|e| (e.id, e.last_used())).max();

    db.maintenance().reset();
    let gauges = RecyclerStats {
        sessions: lived.sessions,
        active_sessions: lived.active_sessions,
        evict_gather_visited: lived.evict_gather_visited,
        evict_gather_rounds: lived.evict_gather_rounds,
        ..RecyclerStats::default()
    };
    assert_eq!(db.stats(), gauges, "only what is not a counter survives");
    assert!(db.pool().is_empty() && db.pool().persistent_bats().is_empty());
    // the service keeps working, on fresh ids and later ticks
    session.query(&t, &range(0, 9)).unwrap();
    assert_eq!(db.stats().admissions, 3);
    let readmitted = db.pool().snapshot_entries();
    let oldest = readmitted.iter().map(|e| (e.id, e.admitted_tick)).min();
    assert!(oldest > newest, "{oldest:?} after {newest:?}");
    db.pool().check_invariants().unwrap();
}

/// Regression: CREDIT gives a globally reused instance's credit back when
/// the instance leaves the pool (paper §4.2) — and a commit's invalidation
/// is one way of leaving it. It used to return nothing there, so every key
/// whose instances commits removed lost a credit per commit and was barred
/// after `k` of them.
#[test]
fn credit_of_an_invalidated_global_reuse_comes_back() {
    let config = RecyclerConfig::default()
        .admission(AdmissionPolicy::Credit(2))
        .subsumption(false);
    let (db, t) = range_db(config);
    let (mut a, mut b) = (db.session(), db.session());
    for commit in 0..=4i64 {
        if commit > 0 {
            let row = vec![vec![Value::Int(1000 + commit)]];
            a.commit(Update::to("t").insert(row)).unwrap();
        }
        let first = range(&mut a, &t, 100, 400);
        assert_eq!(
            (first.admitted, first.reused),
            (3, 0),
            "after {commit} commits: bind, select and count admitted again"
        );
        let again = range(&mut b, &t, 100, 400);
        assert_eq!(again.reused, again.marked, "after {commit} commits: hit");
    }
    assert_eq!(db.stats().admission_rejects, 0);
    db.pool().check_invariants().unwrap();
}

// ----- PACED, the default admission ---------------------------------------

const K: u32 = PACED_CREDITS;

/// One template instruction's PACED account as the rule states it — the
/// model the recycler is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PacedKey {
    balance: u32,
    /// Denied attempts since the key drained or since its last probation.
    denied: u64,
    /// Probations since the last repayment (`j`).
    probations: u32,
}

impl Default for PacedKey {
    fn default() -> Self {
        PacedKey {
            balance: K,
            denied: 0,
            probations: 0,
        }
    }
}

impl PacedKey {
    /// An instance missed and asks to be admitted: spend a credit, or — the
    /// key drained — take the probation due after `2^j` denials.
    fn admit(&mut self) -> bool {
        if self.balance > 0 {
            self.balance -= 1;
        } else if self.denied >= 1 << self.probations {
            (self.denied, self.probations) = (0, self.probations + 1);
        } else {
            self.denied += 1;
            return false;
        }
        true
    }

    /// An instance the key created was reused: one credit back, up to
    /// `K`, and the probation history starts over.
    fn reuse(&mut self) {
        *self = PacedKey {
            balance: (self.balance + 1).min(K),
            ..PacedKey::default()
        };
    }
}

/// `range_count` under PACED with no cap (nothing is ever evicted): which
/// selections and counts are resident, and the accounts of the select
/// (pc 1) and the count (pc 2).
#[derive(Default)]
struct RangeModel {
    bind_resident: bool,
    selects: BTreeSet<(i64, i64)>,
    counts: BTreeSet<(i64, i64)>,
    select: PacedKey,
    count: PacedKey,
}

impl RangeModel {
    /// One query over `[lo, hi]`: what it admits, reuses and subsumes.
    fn query(&mut self, (lo, hi): (i64, i64)) -> (u64, u64, u64) {
        let (mut admitted, mut reused, mut subsumed) = (0, 0, 0);
        if self.bind_resident {
            reused += 1;
        } else {
            self.bind_resident = true;
            admitted += 1;
        }
        if self.selects.contains(&(lo, hi)) {
            reused += 1;
            self.select.reuse();
        } else {
            if self.selects.iter().any(|&(a, b)| a <= lo && hi <= b) {
                // a resident selection covers it: a subsumption source
                subsumed += 1;
                self.select.reuse();
            }
            if !self.select.admit() {
                // the count runs over a result the pool does not hold
                return (admitted, reused, subsumed);
            }
            admitted += 1;
            self.selects.insert((lo, hi));
        }
        if self.counts.contains(&(lo, hi)) {
            reused += 1;
            self.count.reuse();
        } else if self.count.admit() {
            admitted += 1;
            self.counts.insert((lo, hi));
        }
        (admitted, reused, subsumed)
    }
}

/// Replay `script` on a default-configured `range_count` database and on
/// the model; every query must admit, reuse and subsume what the model
/// says, and the select's balance must be the model's after it.
fn assert_follows_the_model(name: &str, script: &[(i64, i64)]) {
    let (db, t) = range_db(RecyclerConfig::default());
    let mut session = db.session();
    let mut model = RangeModel::default();
    for (step, &(lo, hi)) in script.iter().enumerate() {
        let reply = range(&mut session, &t, lo, hi);
        let did = (reply.admitted, reply.reused, reply.subsumed);
        let want = model.query((lo, hi));
        assert_eq!(
            did, want,
            "{name}, step {step} [{lo}, {hi}]: (admitted, reused, subsumed)"
        );
        let balance = db.recycler().credit_balance((t.id, 1));
        assert_eq!(balance, model.select.balance as i64, "{name}, step {step}");
    }
    db.pool().check_invariants().unwrap();
}

/// A range in `[500, 1000)` no other script range overlaps.
fn fresh(i: i64) -> (i64, i64) {
    (500 + 3 * i, 501 + 3 * i)
}

/// The wide selection every subsumed range of the scripts lies in.
const WIDE: (i64, i64) = (0, 400);

#[test]
fn paced_admissions_follow_the_rule_query_by_query() {
    // the cap: a reused key holds K, however often it is reused
    let mut capped = vec![WIDE; 12];
    capped.extend((0..8).map(fresh));
    // the probation reset: drain, probe twice, repay once, drain again
    let mut reset: Vec<_> = std::iter::once(WIDE).chain((0..12).map(fresh)).collect();
    reset.push(fresh(11));
    reset.extend((12..20).map(fresh));
    // the subsumption repayment: drain, then ranges inside WIDE
    let mut subsumed: Vec<_> = std::iter::once(WIDE).chain((0..6).map(fresh)).collect();
    subsumed.extend((0..6).map(|i| (10 * i, 10 * i + 5)));
    for (name, script) in [("cap", capped), ("reset", reset), ("subsumption", subsumed)] {
        assert_follows_the_model(name, &script);
    }
    // random mixes of fresh misses, repeats and subsumed ranges
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut script = vec![WIDE];
        let mut fresh_used = 0;
        for _ in 0..120 {
            let next = match rng.gen_range(0..20u32) {
                0..=7 => {
                    fresh_used += 1;
                    fresh(fresh_used - 1)
                }
                8..=14 => script[rng.gen_range(0..script.len())],
                _ => {
                    let lo = rng.gen_range(WIDE.0..WIDE.1 - 8);
                    (lo, lo + rng.gen_range(0..8i64))
                }
            };
            script.push(next);
        }
        assert_follows_the_model(&format!("seed {seed}"), &script);
    }
}

#[test]
fn paced_never_reused_key_admits_at_most_k_plus_log2_misses() {
    let (db, t) = range_db(RecyclerConfig::default());
    let mut session = db.session();
    let misses = 100;
    for i in 0..misses {
        let (lo, hi) = fresh(i);
        range(&mut session, &t, lo, hi);
    }
    let selects = db.pool().snapshot_entries();
    let selects = selects.iter().filter(|e| e.family == "select").count();
    let bound = K as usize + (misses as f64).log2().ceil() as usize;
    assert!(
        selects <= bound,
        "{selects} instances admitted, bound {bound}"
    );
    // no fewer either: K, then one probation per doubling of the denials
    assert_eq!(selects, K as usize + 6);
}

#[test]
fn paced_key_reused_once_per_admission_never_drains() {
    let (db, t) = range_db(RecyclerConfig::default());
    let mut session = db.session();
    // every instance is asked for again two queries after its first use,
    // so at most two admissions are ever waiting for their first reuse
    let mut log = vec![fresh(0)];
    for i in 1..40 {
        log.extend([fresh(i), fresh(i - 1)]);
    }
    for &(lo, hi) in &log {
        range(&mut session, &t, lo, hi);
    }
    assert_eq!(db.stats().admission_rejects, 0, "no admission was denied");
    for &(lo, hi) in &log {
        let reply = range(&mut session, &t, lo, hi);
        assert_eq!(reply.hit_ratio(), 1.0, "second pass: [{lo}, {hi}]");
    }
}

#[test]
fn paced_key_drained_in_one_phase_is_admitted_and_hit_in_the_next() {
    for (admission, recovers) in [
        (AdmissionPolicy::Paced, true),
        (AdmissionPolicy::Adaptive(K), false),
    ] {
        let (db, t) = range_db(RecyclerConfig::default().admission(admission));
        let mut session = db.session();
        // phase 1: forty instances nobody asks for again drain both keys
        for i in 0..40 {
            let (lo, hi) = fresh(i);
            range(&mut session, &t, lo, hi);
        }
        // phase 2: one parameter vector, asked for over and over
        let phase2: Vec<QueryReply> = (0..80).map(|_| range(&mut session, &t, 100, 300)).collect();
        let first_hit = phase2.iter().position(|r| r.hit_ratio() == 1.0);
        if !recovers {
            assert_eq!(first_hit, None, "{admission:?} bars the key for good");
            continue;
        }
        let first_hit = first_hit.expect("admitted again, then hit");
        assert!(
            phase2[first_hit - 1].admitted > 0,
            "a probation admitted it"
        );
        assert!(
            phase2[first_hit..].iter().all(|r| r.hit_ratio() == 1.0),
            "and it stays"
        );
    }
}

/// The warm-then-replay shape of the update stress: six distinct instances
/// warmed before any is reused — more than a key starts with — then the
/// alphabet replayed. The first replay repays the warm ones and admits the
/// rest; every later round is all hits.
#[test]
fn paced_replay_of_an_alphabet_wider_than_k_becomes_all_hits() {
    let (db, t) = range_db(RecyclerConfig::default());
    let mut session = db.session();
    let alphabet: Vec<(i64, i64)> = (0..6).map(|i| (i * 90, i * 90 + 500)).collect();
    for &(lo, hi) in &alphabet {
        range(&mut session, &t, lo, hi);
    }
    let rounds: Vec<bool> = (0..4)
        .map(|_| {
            let hits: Vec<f64> = alphabet
                .iter()
                .map(|&(lo, hi)| range(&mut session, &t, lo, hi).hit_ratio())
                .collect();
            hits.iter().all(|h| *h == 1.0)
        })
        .collect();
    let warm_fits = alphabet.len() <= K as usize;
    assert_eq!(rounds, [warm_fits, true, true, true]);
    db.pool().check_invariants().unwrap();
}

#[test]
fn paced_balance_stays_within_0_and_k_under_four_sessions() {
    let (db, t) = range_db(RecyclerConfig::default());
    let keys = [(t.id, 0), (t.id, 1), (t.id, 2)];
    let in_bounds = |db: &Database| {
        keys.iter().all(|&key| {
            let balance = db.recycler().credit_balance(key);
            (0..=K as i64).contains(&balance)
        })
    };
    thread::scope(|scope| {
        let workers: Vec<_> = (0..4u64)
            .map(|seed| {
                let (mut session, t) = (db.session(), &t);
                scope.spawn(move || {
                    // a small alphabet: hits, subsumptions and fresh misses
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for _ in 0..300 {
                        let lo = rng.gen_range(0..60i64) * 15;
                        let hi = lo + rng.gen_range(0..3i64) * 40;
                        range(&mut session, t, lo, hi);
                    }
                })
            })
            .collect();
        while workers.iter().any(|w| !w.is_finished()) {
            assert!(in_bounds(&db), "a balance left [0, {K}]");
        }
        for w in workers {
            w.join().unwrap();
        }
    });
    assert!(in_bounds(&db));
    assert!(db.stats().hits > 0 && db.stats().admission_rejects > 0);
    db.pool().check_invariants().unwrap();
}

#[test]
fn paced_counts_repeat_exactly_over_two_runs_of_one_script() {
    let config = RecyclerConfig::default().mem_limit(256 << 10);
    let counts = |db: Database| {
        let s = db.stats();
        let counts = (s.monitored, s.hits, s.subsumed, s.admissions);
        (counts, s.admission_rejects, s.evictions)
    };
    let first = counts(drive(config, 6));
    assert_eq!(first, counts(drive(config, 6)));
    let (_, rejects, evictions) = first;
    assert!(rejects > 0 && evictions > 0, "{first:?}");
}
