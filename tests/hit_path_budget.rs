//! The budget of the exact-hit path: what a warm, all-hit query may cost in
//! heap allocations and in locks — probe by probe the first time, one
//! whole-plan replay for every repeat — held as exact counts — a counting global
//! allocator for the former, the pool's and the accounts' per-thread lock
//! probes for the latter — and, beside it, the budget of the miss path in
//! the pool's one lock: what an admission, an admission that evicts, a
//! subsumption attempt and a commit may take, and that an admission
//! allocates the same under a lineage one column wide or sixteen. (Each test runs on its own thread,
//! so the per-thread probes see this test's locks only; the allocator
//! counts on a thread-local too.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::{Caps, PoolEntry, RecyclePool, SharedRecycler};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Session, Update};
use rmal::{ExecHook, HookAction, Opcode, Program, ProgramBuilder, P};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc` calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` (const-initialised, no destructor), so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
    for i in 0..4000i64 {
        tb.push_row(&[Value::Int((i * 37) % 4000)]);
    }
    cat.add_table(tb.finish());
    cat
}

/// A bind, a chain of `selects` ever narrower range selections and a
/// count: `selects + 2` marked instructions, one export.
fn chain(name: &str, selects: i64) -> Program {
    let mut b = ProgramBuilder::new(name, 0);
    let mut cur = b.bind("t", "x");
    for i in 0..selects {
        cur = b.select_closed(cur, Value::Int(i), Value::Int(3900 - i));
    }
    let n = b.count(cur);
    b.export("n", n);
    b.finish()
}

fn database(admission: AdmissionPolicy) -> Database {
    DatabaseBuilder::new(catalog())
        .recycler(RecyclerConfig::default().admission(admission))
        .build()
}

/// Warm the pool with `template` and return how many instructions of a
/// warm run are marked — all of them reused. The warm run is remembered:
/// the session replays the template's next runs.
fn warm(session: &mut Session, template: &Program) -> u64 {
    session.query(template, &[]).unwrap();
    let reply = session.query(template, &[]).unwrap();
    assert!(
        reply.marked > 0 && reply.reused == reply.marked,
        "{reply:?}"
    );
    reply.marked
}

/// The fewest allocations any of `runs` warm queries makes (a table or
/// list a query shares with the others may grow now and then; the
/// minimum is the query's own cost).
fn warm_query_allocations(session: &mut Session, template: &Program, runs: usize) -> u64 {
    (0..runs)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            session.query(template, &[]).unwrap();
            ALLOCATIONS.with(Cell::get) - before
        })
        .min()
        .expect("at least one run")
}

#[test]
fn a_warm_query_allocates_a_constant_whatever_the_number_of_probes() {
    let db = database(AdmissionPolicy::KeepAll);
    let (few, many) = (db.prepare(chain("few", 1)), db.prepare(chain("many", 28)));
    let mut session = db.session();
    assert_eq!(warm(&mut session, &few), 3);
    assert_eq!(warm(&mut session, &many), 30);
    let few_allocs = warm_query_allocations(&mut session, &few, 8);
    let many_allocs = warm_query_allocations(&mut session, &many, 8);
    assert!(session.last_query().unwrap().replayed);
    assert_eq!(
        many_allocs, few_allocs,
        "30 replayed instructions must allocate exactly what 3 do"
    );
    // the interpreter's frame and argument buffer, the export list and its
    // one name; the replay's entry list and its values (no profile: a
    // plain query records none)
    assert!(few_allocs <= 6, "{few_allocs} allocations in a warm query");
}

#[test]
fn a_hit_is_one_table_read_lock_and_a_query_one_accounts_lock() {
    for admission in [
        AdmissionPolicy::Paced,
        AdmissionPolicy::KeepAll,
        AdmissionPolicy::Credit(3),
        AdmissionPolicy::Adaptive(3),
    ] {
        let db = database(admission);
        let template = db.prepare(chain("probes", 10));
        let mut session = db.session();
        let first = session.query(&template, &[]).unwrap();
        assert_eq!(first.reused, 0, "{admission:?}: the first run admits");
        let marked = first.marked;
        // KEEPALL keeps no account to book a reuse in
        let booked = if admission == AdmissionPolicy::KeepAll {
            0
        } else {
            marked
        };
        // the first all-hit run probes instruction by instruction and is
        // remembered; its repeats are replayed in one read step
        for run in 0..6 {
            let writes = db.pool().write_lock_acquisitions();
            let reads = RecyclePool::read_locks_on_this_thread();
            let accounts = SharedRecycler::accounts_locks_on_this_thread();
            let lookups = SharedRecycler::account_lookups_on_this_thread();
            let reply = session.query(&template, &[]).unwrap();
            assert_eq!(reply.reused, marked);
            let replayed = session.last_query().unwrap().replayed;
            assert_eq!(replayed, run > 0, "{admission:?}, run {run}");
            assert_eq!(
                RecyclePool::read_locks_on_this_thread() - reads,
                if replayed { 1 } else { marked },
                "{admission:?}, run {run}: one table read lock per reused \
                 instruction, or one for a replayed query"
            );
            assert_eq!(
                SharedRecycler::accounts_locks_on_this_thread() - accounts,
                1,
                "{admission:?}, run {run}: one accounts-mutex acquisition per query"
            );
            assert_eq!(
                SharedRecycler::account_lookups_on_this_thread() - lookups,
                booked,
                "{admission:?}, run {run}: booking a reuse is one account lookup"
            );
            assert_eq!(db.pool().write_lock_acquisitions(), writes);
        }
        db.pool().check_invariants().unwrap();
    }
}

/// A bind, two selections over it, their semijoin (two pool-resident
/// parents) and a count: five marked instructions with 0, 1, 1, 2 and 1
/// parents.
fn two_parent_plan() -> Program {
    let mut b = ProgramBuilder::new("two_parents", 0);
    let x = b.bind("t", "x");
    let wide = b.select_closed(x, Value::Int(0), Value::Int(3000));
    let narrow = b.select_closed(x, Value::Int(100), Value::Int(200));
    let both = b.semijoin(wide, narrow);
    let n = b.count(both);
    b.export("n", n);
    b.finish()
}

#[test]
fn an_admission_is_one_read_lock_and_one_write_lock() {
    // no cap: no admission evicts; no subsumption: a miss searches nothing
    let db = DatabaseBuilder::new(catalog())
        .recycler(RecyclerConfig::default().subsumption(false))
        .build();
    // the first plan admits the bind (one more write lock: its column
    // buffer is registered persistent), the second hits it; the plans'
    // admissions pin 11 and 5 pool-resident producers
    for (plan, binds) in [(chain("one_parent_each", 10), 1), (two_parent_plan(), 0)] {
        let template = db.prepare(plan);
        let mut session = db.session();
        let writes = db.pool().write_lock_acquisitions();
        let reads = RecyclePool::read_locks_on_this_thread();
        let accounts = SharedRecycler::accounts_locks_on_this_thread();
        let reply = session.query(&template, &[]).unwrap();
        assert_eq!(reply.admitted, reply.marked - (1 - binds), "{reply:?}");
        assert_eq!(
            db.pool().write_lock_acquisitions() - writes,
            reply.admitted + binds,
            "one write lock per eviction-free admission, one per registration"
        );
        assert_eq!(
            RecyclePool::read_locks_on_this_thread() - reads,
            reply.marked + reply.admitted,
            "one read lock per probe, one per admission however many parents it pins"
        );
        assert_eq!(
            SharedRecycler::accounts_locks_on_this_thread() - accounts,
            reply.admitted + 1,
            "one grant per admission, one settlement per query"
        );
    }
    db.pool().check_invariants().unwrap();
}

/// `width` columns of one table folded into a single intermediate by
/// semijoins (same dense head: every row survives; a lone column is folded
/// with itself, so the select's operand is a semijoin's output at every
/// width), and a range select over it: the select derives from `width`
/// base columns.
fn wide_lineage_plan(width: usize) -> Program {
    let mut b = ProgramBuilder::new(&format!("wide{width}"), 2);
    let mut wide = b.bind("w", "c0");
    for col in 1..width.max(2) {
        let next = b.bind("w", &format!("c{}", col % width));
        wide = b.semijoin(wide, next);
    }
    let sel = b.select_closed(wide, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

#[test]
fn an_admission_allocates_the_same_whatever_the_width_of_its_lineage() {
    const COLUMNS: usize = 16;
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("w");
    for col in 0..COLUMNS {
        tb = tb.column(&format!("c{col}"), LogicalType::Int);
    }
    for i in 0..64i64 {
        tb.push_row(&vec![Value::Int(i); COLUMNS]);
    }
    cat.add_table(tb.finish());
    // every fresh instance admitted, however many
    let config = RecyclerConfig::default()
        .admission(AdmissionPolicy::KeepAll)
        .subsumption(false);
    let db = DatabaseBuilder::new(cat).recycler(config).build();
    // fresh bounds every run: the binds and folds hit (a hit allocates
    // nothing), the select and its count are admitted; the fewest
    // allocations of 32 such runs leave out the growths of the tables and
    // lists the admissions land in
    let mut session = db.session();
    let mut admitting_query_allocations = |width: usize| {
        let template = db.prepare(wide_lineage_plan(width));
        let run = |session: &mut Session, lo: i64| {
            let params = [Value::Int(lo), Value::Int(lo + 8)];
            let before = ALLOCATIONS.with(Cell::get);
            let reply = session.query(&template, &params).unwrap();
            (reply, ALLOCATIONS.with(Cell::get) - before)
        };
        run(&mut session, 0);
        let fewest = (1..=32).map(|lo| {
            let (reply, allocations) = run(&mut session, lo);
            assert_eq!((reply.admitted, reply.reused), (2, reply.marked - 2));

            allocations
        });
        fewest.min().expect("32 runs")
    };
    let (narrow, wide) = (
        admitting_query_allocations(1),
        admitting_query_allocations(COLUMNS),
    );
    assert_eq!(
        wide, narrow,
        "an entry holds its own anchors only: nothing is copied per base column"
    );
    db.pool().check_invariants().unwrap();
}

#[test]
fn a_subsumption_attempt_is_one_read_step() {
    // k resident range selections [400 i, 400 i + 300] over `t.x`: a target
    // inside the first is a singleton rewrite; one straddling its end
    // overlaps it and the gap behind it, which nothing covers — whatever k,
    // a missed select is the exact probe and one attempt, and no write
    let cat = catalog();
    let program = chain("attempt", 1);
    let (bind, select) = (&program.instrs[0], &program.instrs[1]);
    assert_eq!((bind.op, select.op), (Opcode::Bind, Opcode::Select));
    let bind_args = [Value::str("t"), Value::str("x")];
    let col = rmal::execute_op(&cat, &bind.op, &bind_args).unwrap();
    let range = |lo: i64, hi: i64| {
        let bound = |v: i64| Value::Int(v);
        vec![
            col.clone(),
            bound(lo),
            bound(hi),
            Value::Bool(true),
            Value::Bool(true),
        ]
    };
    let cpu = Duration::from_micros(5);
    for k in [0, 1, 8] {
        for (lo, hi, rewrite) in [(10, 20, k > 0), (250, 350, false)] {
            let config = RecyclerConfig::default().admission(AdmissionPolicy::KeepAll);
            let mut session = SharedRecycler::new(config).session();
            session.query_start(&program);
            session.after(&cat, 0, bind, &bind_args, &col, cpu, Instant::now());
            for i in 0..k {
                let args = range(400 * i, 400 * i + 300);
                let result = rmal::execute_op(&cat, &select.op, &args).unwrap();
                session.after(&cat, 1, select, &args, &result, cpu, Instant::now());
            }
            assert_eq!(
                session.pool().len() as i64,
                k + 1,
                "the bind and k selections"
            );
            let writes = session.pool().write_lock_acquisitions();
            let reads = RecyclePool::read_locks_on_this_thread();
            let action = session.before(&cat, 1, select, &range(lo, hi), Instant::now());
            assert_eq!(
                matches!(action, HookAction::Rewrite(_)),
                rewrite,
                "k = {k}, [{lo}, {hi}]: {action:?}"
            );
            assert_eq!(
                RecyclePool::read_locks_on_this_thread() - reads,
                2,
                "k = {k}, [{lo}, {hi}]: the probe and one attempt"
            );
            assert_eq!(session.pool().write_lock_acquisitions(), writes);
            session.query_end(&program);
            session.pool().check_invariants().unwrap();
        }
    }
}

#[test]
fn an_eviction_round_is_one_table_write_lock() {
    // 24 unpinned leaves under a cap of 9 entries: the admission evicts 16
    // and inserts itself in one write step
    let pool = RecyclePool::new();
    for tag in 0..24 {
        let leaf = PoolEntry::test_stub(pool.alloc_id(), tag, vec![], 64);
        assert!(pool.insert(leaf, Caps::NONE).0.inserted());
    }
    let caps = Caps {
        entries: Some(9),
        ..Caps::NONE
    };
    let writes = pool.write_lock_acquisitions();
    let admission = PoolEntry::test_stub(pool.alloc_id(), 99, vec![], 64);
    let (admitted, evicted) = pool.insert(admission, caps);
    assert!(admitted.inserted());
    assert_eq!(evicted.len(), 16);
    assert_eq!(
        pool.write_lock_acquisitions() - writes,
        1,
        "16 victims and the insert under one write lock"
    );
    pool.check_invariants().unwrap();
}

#[test]
fn a_commit_is_one_table_write_lock_one_retire_and_an_unwire_per_victim() {
    let db = database(AdmissionPolicy::KeepAll);
    let template = db.prepare(chain("victims", 6));
    let mut session = db.session();
    warm(&mut session, &template);
    // everything resident derives from `t`: the commit's victims
    let victims = db.pool().len() as u64;
    assert_eq!(victims, 8, "the bind, six selections and the count");
    let invalidated = db.stats().invalidated;
    let writes = db.pool().write_lock_acquisitions();
    session
        .commit(Update::to("t").insert(vec![vec![Value::Int(7)]]))
        .unwrap();
    // naming the roots (`retire`), reading their subtrees and one `unwire`
    // per victim, all in one write step
    assert_eq!(
        db.pool().write_lock_acquisitions() - writes,
        1,
        "the invalidation holds the write lock once"
    );
    assert_eq!(db.stats().invalidated - invalidated, victims);
    assert!(db.pool().is_empty());
    db.pool().check_invariants().unwrap();
}
