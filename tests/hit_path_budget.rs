//! The budget of the exact-hit path: what a warm, all-hit query may cost in
//! heap allocations and in locks, held as exact counts — a counting global
//! allocator for the former, the pool's and the accounts' per-thread lock
//! probes for the latter — and, beside it, the budget of the miss path in
//! lineage-graph and table locks: what an admission, a removal, a leaf
//! gather, an eviction round and a commit may take, and that an admission
//! allocates the same under a lineage one column wide or sixteen. (Each
//! test runs on its own thread, so the per-thread probes see this test's
//! locks only; the allocator counts on a thread-local too.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rbat::{Catalog, LogicalType, TableBuilder, Value};
use recycler::eviction::{evict, EvictTrigger};
use recycler::{EntryId, EvictionPolicy, PoolEntry, RecyclePool, SharedRecycler};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig, Session, Update};
use rmal::{Program, ProgramBuilder, P};

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
/// warm run are marked — all of them reused.
fn warm(session: &mut Session, template: &Program) -> u64 {
    session.query(template, &[]).unwrap();
    let reply = session.query(template, &[]).unwrap();
    assert!(
        reply.marked > 0 && reply.reused == reply.marked,
        "{reply:?}"
    );
    reply.marked
}

/// The fewest allocations any of `runs` warm queries makes (the session's
/// query log doubles its buffer now and then; the minimum is the query's
/// own cost).
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
    assert_eq!(
        many_allocs, few_allocs,
        "30 probes must allocate exactly what 3 probes do"
    );
    // the interpreter's frame, argument buffer (grown once) and profile,
    // the export list and its one name
    assert!(few_allocs <= 8, "{few_allocs} allocations in a warm query");
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
        let marked = warm(&mut session, &template);
        for _ in 0..5 {
            let writes = db.pool().write_lock_acquisitions();
            let reads = RecyclePool::read_locks_on_this_thread();
            let accounts = SharedRecycler::accounts_locks_on_this_thread();
            let graph = RecyclePool::graph_locks_on_this_thread();
            let lookups = SharedRecycler::account_lookups_on_this_thread();
            let reply = session.query(&template, &[]).unwrap();
            assert_eq!(reply.reused, marked);
            assert_eq!(
                RecyclePool::graph_locks_on_this_thread(),
                graph,
                "{admission:?}: an exact hit never touches the lineage graph"
            );
            assert_eq!(
                RecyclePool::read_locks_on_this_thread() - reads,
                marked,
                "{admission:?}: one table read lock per reused instruction"
            );
            assert_eq!(
                SharedRecycler::accounts_locks_on_this_thread() - accounts,
                1,
                "{admission:?}: one accounts-mutex acquisition per query"
            );
            // KEEPALL keeps no account to book a reuse in
            let booked = if admission == AdmissionPolicy::KeepAll {
                0
            } else {
                marked
            };
            assert_eq!(
                SharedRecycler::account_lookups_on_this_thread() - lookups,
                booked,
                "{admission:?}: booking a reuse is one account lookup"
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
fn an_admission_is_two_graph_locks_and_one_table_write_lock() {
    // no cap: no admission evicts; no subsumption: a miss searches nothing
    let db = DatabaseBuilder::new(catalog())
        .recycler(RecyclerConfig::default().subsumption(false))
        .build();
    // the first plan admits the bind (one more graph lock: its column
    // buffer is registered persistent), the second hits it; `parents` is
    // how many pool-resident producers the plan's admissions pin
    for (plan, binds, parents) in [
        (chain("one_parent_each", 10), 1, 11),
        (two_parent_plan(), 0, 5),
    ] {
        let template = db.prepare(plan);
        let mut session = db.session();
        let writes = db.pool().write_lock_acquisitions();
        let reads = RecyclePool::read_locks_on_this_thread();
        let graph = RecyclePool::graph_locks_on_this_thread();
        let accounts = SharedRecycler::accounts_locks_on_this_thread();
        let reply = session.query(&template, &[]).unwrap();
        assert_eq!(reply.admitted, reply.marked - (1 - binds), "{reply:?}");
        assert_eq!(
            db.pool().write_lock_acquisitions() - writes,
            reply.admitted,
            "one table write lock per eviction-free admission"
        );
        assert_eq!(
            RecyclePool::graph_locks_on_this_thread() - graph,
            2 * reply.admitted + binds,
            "one resolve and one wire per admission, however many parents"
        );
        assert_eq!(
            RecyclePool::read_locks_on_this_thread() - reads,
            reply.marked + parents,
            "one table read lock per probe and per pinned parent"
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
fn a_removal_is_one_graph_lock_and_a_leaf_gather_one() {
    let pool = RecyclePool::new();
    let root = pool.alloc_id();
    assert!(pool
        .insert(PoolEntry::test_stub(root, 0, vec![], 64), None)
        .inserted());
    let leaves: Vec<EntryId> = (1..=6)
        .map(|tag| {
            let leaf = PoolEntry::test_stub(pool.alloc_id(), tag, vec![root], 64);
            pool.insert(leaf, None).id()
        })
        .collect();
    let graph_locks = |f: &mut dyn FnMut()| {
        let before = RecyclePool::graph_locks_on_this_thread();
        f();
        RecyclePool::graph_locks_on_this_thread() - before
    };
    let mut seen = 0;
    assert_eq!(
        graph_locks(&mut || pool.for_each_leaf_entry(|_| seen += 1)),
        1
    );
    assert_eq!(seen, 6, "the gather saw every leaf");
    assert_eq!(graph_locks(&mut || assert_eq!(pool.leaf_ids(), leaves)), 1);
    // a batch places its victims in one read, then each removal is one
    // `unwire` — the leaf check, the parent's re-leafing and every index
    // of the victim in that one step (the root, not a leaf, costs its
    // refused `unwire`)
    let mut victims = leaves[..4].to_vec();
    victims.push(root);
    let removed = &mut Vec::new();
    let batch = graph_locks(&mut || *removed = pool.remove_batch_if_evictable(&victims));
    assert_eq!(removed.len(), 4, "the root still has two children");
    assert_eq!(batch, 1 + victims.len() as u64);
    // by id: one read to find the key, one `unwire`
    assert_eq!(
        graph_locks(&mut || assert!(pool.remove(leaves[4]).is_some())),
        2
    );
    pool.check_invariants().unwrap();
}

#[test]
fn an_eviction_round_is_one_table_write_lock() {
    let pool = RecyclePool::new();
    for tag in 0..24 {
        let leaf = PoolEntry::test_stub(pool.alloc_id(), tag, vec![], 64);
        assert!(pool.insert(leaf, None).inserted());
    }
    let writes = pool.write_lock_acquisitions();
    let evicted = evict(&pool, EvictionPolicy::Lru, EvictTrigger::Entries(16), 100);
    assert_eq!(evicted.len(), 16);
    assert_eq!(
        pool.write_lock_acquisitions() - writes,
        1,
        "16 victims, one batched removal under one write lock"
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
    let graph = RecyclePool::graph_locks_on_this_thread();
    session
        .commit(Update::to("t").insert(vec![vec![Value::Int(7)]]))
        .unwrap();
    let graph = RecyclePool::graph_locks_on_this_thread() - graph;
    assert_eq!(
        db.pool().write_lock_acquisitions() - writes,
        1,
        "the invalidation holds the table write lock once"
    );
    // the graph write naming the roots (`retire`), one read of their
    // subtrees, one `unwire` per victim
    assert_eq!(graph, 2 + victims);
    assert_eq!(db.stats().invalidated - invalidated, victims);
    assert!(db.pool().is_empty());
    db.pool().check_invariants().unwrap();
}
