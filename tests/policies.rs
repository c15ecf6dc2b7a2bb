//! Admission and eviction policy behaviour on real workloads, driven
//! through the `Database`/`Session` facade.

use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::Recycler;
use recycling::{
    AdmissionPolicy, Database, DatabaseBuilder, EvictionPolicy, RecyclerConfig, RecyclerStats,
    Update,
};
use rmal::{ExecHook, HookAction, Program, ProgramBuilder, P};

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
    let keepall = drive(RecyclerConfig::default(), 5);
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

impl ByHand {
    fn new(admission: AdmissionPolicy) -> ByHand {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
        for i in 0..1000i64 {
            tb.push_row(&[Value::Int((i * 37) % 1000)]);
        }
        cat.add_table(tb.finish());
        let config = RecyclerConfig::default()
            .admission(admission)
            .subsumption(false);
        let db = DatabaseBuilder::new(cat).recycler(config).build();
        let mut b = ProgramBuilder::new("range_count", 2);
        let col = b.bind("t", "x");
        let sel = b.select_closed(col, P(0), P(1));
        let n = b.count(sel);
        b.export("n", n);
        let template = db.prepare(b.finish());
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
