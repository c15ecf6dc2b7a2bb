//! The linear MAL interpreter with recycler hook points.
//!
//! This is the paper's Algorithm 1 skeleton: for every instruction marked
//! for recycling the hook's [`ExecHook::before`] plays the role of
//! `recycleEntry()` (exact-match reuse or subsumption rewrite) and
//! [`ExecHook::after`] the role of `recycleExit()` (admission into the pool).
//! A hook that can vouch for a whole invocation at once answers
//! [`ExecHook::replay`] instead, and the marked instructions are not
//! dispatched one by one.

use std::time::{Duration, Instant};

use rbat::catalog::CommitReport;
use rbat::{Catalog, Value};

use crate::error::{MalError, Result};
use crate::exec::execute_op;
use crate::opcode::Opcode;
use crate::profile::{ExecStats, InstrProfile, QueryOutput};
use crate::program::{Arg, Instr, Program};

/// What the hook decided for a marked instruction about to execute.
#[derive(Debug)]
pub enum HookAction {
    /// No reusable intermediate: execute normally.
    Proceed,
    /// Exact match found in the pool: skip execution, use this result.
    Reuse(Value),
    /// Subsumption found: execute the *same opcode* with this rewritten
    /// argument list (cheaper operands), then restore the original
    /// instruction (paper §5.1).
    Rewrite(Vec<Value>),
    /// The hook computed the result itself (combined subsumption pieces a
    /// result together from several intermediates, paper §5.2); counts as a
    /// subsumed execution. The hook has already done its own admission
    /// bookkeeping — `after` is not called.
    Computed(Value),
}

/// Run-time extension interface of the interpreter. The recycler implements
/// this; [`NoHook`] is the naive engine without recycling.
pub trait ExecHook {
    /// A query invocation is starting.
    fn query_start(&mut self, _program: &Program) {}

    /// Asked once per invocation, right after [`Self::query_start`]: can
    /// the hook answer every *marked* instruction of `program` over
    /// `catalog` and `params` at once? `None` (the default) runs the
    /// instructions one by one through [`Self::before`] / [`Self::after`].
    ///
    /// `Some(values)` must hold exactly one value per marked instruction,
    /// in pc order — each the value [`Self::before`] would have answered
    /// [`HookAction::Reuse`] with, had every marked instruction been
    /// dispatched — and the hook must already have booked, for each, what
    /// it books for such a reuse; it need not do what a reuse does only
    /// for the instructions after it (the recycler pins nothing for a
    /// replayed query, which admits nothing). The interpreter then fills
    /// the marked instructions' results from `values` without calling the
    /// hook, resolving their arguments or reading the clock for them; it
    /// still executes the unmarked instructions. [`ExecStats`] counts
    /// every replayed instruction as reused, and the profile, when one is
    /// recorded ([`run_profiled`]), with zero cpu.
    ///
    /// # Panics
    /// The interpreter panics if `values` holds fewer values than
    /// `program` has marked instructions.
    fn replay(
        &mut self,
        _catalog: &Catalog,
        _program: &Program,
        _params: &[Value],
    ) -> Option<Vec<Value>> {
        None
    }

    /// A *marked* instruction is about to execute with the given evaluated
    /// arguments; decide whether to reuse, rewrite or proceed. `now` is the
    /// interpreter's clock reading from just before the call — the
    /// instruction's start, and the start of the hook's own time, so a hook
    /// that meters itself needs one clock read, not two.
    fn before(
        &mut self,
        _catalog: &Catalog,
        _pc: usize,
        _instr: &Instr,
        _args: &[Value],
        _now: Instant,
    ) -> HookAction {
        HookAction::Proceed
    }

    /// A *marked* instruction has executed (normally or rewritten); decide
    /// whether to admit its result. `args` are the ORIGINAL arguments — the
    /// pool stores the instruction as written, so future invocations match
    /// it regardless of the rewrite applied this time. `now` is the clock
    /// reading that ended `cpu`, taken just before the call.
    #[allow(clippy::too_many_arguments)]
    fn after(
        &mut self,
        _catalog: &Catalog,
        _pc: usize,
        _instr: &Instr,
        _args: &[Value],
        _result: &Value,
        _cpu: std::time::Duration,
        _now: Instant,
    ) {
    }

    /// The query invocation finished.
    fn query_end(&mut self, _program: &Program) {}

    /// A transaction committed updates to the catalog; synchronise any
    /// derived state (paper §6).
    fn update_event(&mut self, _report: &CommitReport, _catalog: &Catalog) {}
}

/// The trivial hook: plain execution, no recycling.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl ExecHook for NoHook {}

fn resolve(frame: &[Option<Value>], params: &[Value], arg: &Arg, pc: usize) -> Result<Value> {
    match arg {
        Arg::Const(v) => Ok(v.clone()),
        Arg::Var(v) => frame
            .get(v.index())
            .and_then(|s| s.clone())
            .ok_or(MalError::UnboundVar { var: v.0, pc }),
        Arg::Param(p) => params.get(*p as usize).cloned().ok_or(MalError::BadParam {
            index: *p,
            supplied: params.len(),
        }),
    }
}

/// Interpret `program` against `catalog` with the given parameters,
/// dispatching marked instructions through `hook`. The returned
/// [`ExecStats::profile`] is empty — [`run_profiled`] fills it — and an
/// unmarked instruction takes no clock reading.
pub fn run<H: ExecHook>(
    catalog: &Catalog,
    program: &Program,
    params: &[Value],
    hook: &mut H,
) -> Result<QueryOutput> {
    interpret(catalog, program, params, hook, false)
}

/// [`run`], recording one [`InstrProfile`] per executed instruction
/// (exports excepted) in [`ExecStats::profile`]; every other count is
/// [`run`]'s.
pub fn run_profiled<H: ExecHook>(
    catalog: &Catalog,
    program: &Program,
    params: &[Value],
    hook: &mut H,
) -> Result<QueryOutput> {
    interpret(catalog, program, params, hook, true)
}

/// The profile of instruction `pc`, which produced `result`.
fn profile_of(
    pc: usize,
    instr: &Instr,
    reused: bool,
    subsumed: bool,
    cpu: Duration,
    result: &Value,
) -> InstrProfile {
    InstrProfile {
        pc,
        op: instr.op.name(),
        marked: instr.recycle,
        reused,
        subsumed,
        cpu,
        result_bytes: result.as_bat().map(|b| b.resident_bytes()).unwrap_or(0),
    }
}

/// The interpreter loop behind [`run`] and [`run_profiled`]: `profile`,
/// set by the entry point, says whether to time every instruction and
/// record its [`InstrProfile`].
fn interpret<H: ExecHook>(
    catalog: &Catalog,
    program: &Program,
    params: &[Value],
    hook: &mut H,
    profile: bool,
) -> Result<QueryOutput> {
    let started = Instant::now();
    let mut frame: Vec<Option<Value>> = vec![None; program.nvars as usize];
    let mut exports: Vec<(String, Value)> = Vec::new();
    let mut stats = ExecStats::default();
    if profile {
        stats.profile.reserve_exact(program.instrs.len());
    }
    // one argument buffer for the whole run, not one per instruction
    let mut args: Vec<Value> = Vec::new();
    hook.query_start(program);
    let mut replayed = hook.replay(catalog, program, params).map(Vec::into_iter);

    for (pc, instr) in program.instrs.iter().enumerate() {
        if let Some(values) = replayed.as_mut().filter(|_| instr.recycle) {
            let result = values
                .next()
                .expect("replay: a value per marked instruction");
            stats.instrs += 1;
            stats.marked += 1;
            stats.reused += 1;
            if profile {
                let entry = profile_of(pc, instr, true, false, Duration::ZERO, &result);
                stats.profile.push(entry);
            }
            frame[instr.result.index()] = Some(result);
            continue;
        }
        args.clear();
        for a in &instr.args {
            args.push(resolve(&frame, params, a, pc)?);
        }

        if instr.op == Opcode::Export {
            let name = args
                .first()
                .and_then(|v| v.as_str())
                .unwrap_or("result")
                .to_string();
            if args.len() < 2 {
                return Err(MalError::bad_args("export", "missing value"));
            }
            let value = args.swap_remove(1);
            exports.push((name, value.clone()));
            frame[instr.result.index()] = Some(value);
            stats.instrs += 1;
            continue;
        }

        stats.instrs += 1;
        if !instr.recycle {
            let t0 = profile.then(Instant::now);
            let result = execute_op(catalog, &instr.op, &args)?;
            if let Some(t0) = t0 {
                let entry = profile_of(pc, instr, false, false, t0.elapsed(), &result);
                stats.profile.push(entry);
            }
            frame[instr.result.index()] = Some(result);
            continue;
        }

        let mut reused = false;
        let mut subsumed = false;
        let t0 = Instant::now();
        let result = match hook.before(catalog, pc, instr, &args, t0) {
            HookAction::Reuse(v) => {
                reused = true;
                v
            }
            HookAction::Rewrite(new_args) => {
                subsumed = true;
                let v = execute_op(catalog, &instr.op, &new_args)?;
                let done = Instant::now();
                hook.after(catalog, pc, instr, &args, &v, done - t0, done);
                v
            }
            HookAction::Computed(v) => {
                subsumed = true;
                v
            }
            HookAction::Proceed => {
                let v = execute_op(catalog, &instr.op, &args)?;
                let done = Instant::now();
                hook.after(catalog, pc, instr, &args, &v, done - t0, done);
                v
            }
        };
        let cpu = if reused { Duration::ZERO } else { t0.elapsed() };

        stats.marked += 1;
        if reused {
            stats.reused += 1;
        } else {
            stats.marked_cpu += cpu;
        }
        if subsumed {
            stats.subsumed += 1;
        }
        if profile {
            stats
                .profile
                .push(profile_of(pc, instr, reused, subsumed, cpu, &result));
        }
        frame[instr.result.index()] = Some(result);
    }

    hook.query_end(program);
    stats.elapsed = started.elapsed();
    Ok(QueryOutput { exports, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use rbat::{LogicalType, TableBuilder};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
        for i in 0..10 {
            tb.push_row(&[Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        cat
    }

    #[test]
    fn runs_simple_count() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("count_range", 2);
        let col = b.bind("t", "x");
        let sel = b.select_half_open(col, crate::builder::P(0), crate::builder::P(1));
        let cnt = b.count(sel);
        b.export("n", cnt);
        let p = b.finish();
        let out = run(&cat, &p, &[Value::Int(2), Value::Int(5)], &mut NoHook).unwrap();
        assert_eq!(out.export("n"), Some(&Value::Int(3))); // 2,3,4
        assert!(out.stats.instrs >= 3);
    }

    #[test]
    fn unbound_param_errors() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("p", 1);
        let col = b.bind("t", "x");
        let s = b.uselect(col, crate::builder::P(0));
        b.export("r", s);
        let p = b.finish();
        let err = run(&cat, &p, &[], &mut NoHook).unwrap_err();
        assert!(matches!(err, MalError::BadParam { .. }));
    }

    struct CountingHook {
        before_calls: usize,
        after_calls: usize,
    }

    impl ExecHook for CountingHook {
        fn before(
            &mut self,
            _cat: &Catalog,
            _pc: usize,
            _i: &Instr,
            _a: &[Value],
            _now: Instant,
        ) -> HookAction {
            self.before_calls += 1;
            HookAction::Proceed
        }
        fn after(
            &mut self,
            _cat: &Catalog,
            _pc: usize,
            _i: &Instr,
            _a: &[Value],
            _r: &Value,
            _c: std::time::Duration,
            _now: Instant,
        ) {
            self.after_calls += 1;
        }
    }

    #[test]
    fn hook_sees_only_marked_instructions() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("marked", 0);
        let col = b.bind("t", "x");
        let cnt = b.count(col);
        b.export("n", cnt);
        let mut p = b.finish();
        // mark only the bind
        p.instrs[0].recycle = true;
        let mut hook = CountingHook {
            before_calls: 0,
            after_calls: 0,
        };
        run(&cat, &p, &[], &mut hook).unwrap();
        assert_eq!(hook.before_calls, 1);
        assert_eq!(hook.after_calls, 1);
    }

    struct ReuseHook(Value);

    impl ExecHook for ReuseHook {
        fn before(
            &mut self,
            _cat: &Catalog,
            _pc: usize,
            _i: &Instr,
            _a: &[Value],
            _now: Instant,
        ) -> HookAction {
            HookAction::Reuse(self.0.clone())
        }
    }

    #[test]
    fn reuse_skips_execution() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("reuse", 0);
        let col = b.bind("t", "x");
        let cnt = b.count(col);
        b.export("n", cnt);
        let mut p = b.finish();
        p.instrs[1].recycle = true; // the count
        let mut hook = ReuseHook(Value::Int(999));
        let out = run(&cat, &p, &[], &mut hook).unwrap();
        assert_eq!(out.export("n"), Some(&Value::Int(999)));
        assert_eq!(out.stats.reused, 1);
    }

    /// Replays marked instruction `pc` as the date `1996-0{pc + 1}-15`,
    /// counting the calls a replay must not make.
    #[derive(Default)]
    struct ReplayHook {
        before_calls: usize,
        replays: usize,
    }

    impl ExecHook for ReplayHook {
        fn replay(&mut self, _cat: &Catalog, p: &Program, _params: &[Value]) -> Option<Vec<Value>> {
            self.replays += 1;
            let marked = p.instrs.iter().enumerate().filter(|(_, i)| i.recycle);
            Some(
                marked
                    .map(|(pc, _)| Value::date(&format!("1996-0{}-15", pc + 1)))
                    .collect(),
            )
        }

        fn before(
            &mut self,
            _cat: &Catalog,
            _pc: usize,
            _i: &Instr,
            _a: &[Value],
            _now: Instant,
        ) -> HookAction {
            self.before_calls += 1;
            HookAction::Proceed
        }
    }

    #[test]
    fn a_replay_fills_the_marked_instructions_and_runs_the_rest() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("replayed", 0);
        let col = b.bind("t", "x");
        let cnt = b.count(col);
        let later = b.add_months(cnt, 1);
        b.export("n", cnt);
        b.export("later", later);
        let mut p = b.finish();
        p.instrs[0].recycle = true; // the bind
        p.instrs[1].recycle = true; // the count
        let mut hook = ReplayHook::default();
        let out = run_profiled(&cat, &p, &[], &mut hook).unwrap();
        assert_eq!((hook.replays, hook.before_calls), (1, 0));
        assert_eq!(out.export("n"), Some(&Value::date("1996-02-15")), "pc 1");
        // the unmarked instruction ran over the replayed value
        assert_eq!(out.export("later"), Some(&Value::date("1996-03-15")));
        assert_eq!((out.stats.marked, out.stats.reused), (2, 2));
        let replayed: Vec<_> = out.stats.profile.iter().map(|i| i.reused).collect();
        assert_eq!(replayed, [true, true, false], "exports are not profiled");
        assert!(out.stats.profile[..2].iter().all(|i| i.cpu.is_zero()));
    }

    /// What two runs must agree on whatever the entry point: exports and
    /// every count (the timings are the clock's).
    fn counts(out: &QueryOutput) -> (Vec<(String, Value)>, [usize; 4]) {
        let s = &out.stats;
        (
            out.exports.clone(),
            [s.instrs, s.marked, s.reused, s.subsumed],
        )
    }

    #[test]
    fn run_records_no_profile_and_counts_what_run_profiled_counts() {
        let cat = catalog();
        let mut b = ProgramBuilder::new("profiled", 2);
        let col = b.bind("t", "x");
        let sel = b.select_half_open(col, crate::builder::P(0), crate::builder::P(1));
        let cnt = b.count(sel);
        let later = b.add_months(Value::date("1996-01-15"), 1);
        b.export("n", cnt);
        b.export("later", later);
        let mut p = b.finish();
        p.instrs[1].recycle = true; // the select
        p.instrs[2].recycle = true; // the count
        let params = [Value::Int(2), Value::Int(5)];
        // walked: the hook executes every marked instruction
        let walk = |profiled: bool| {
            let mut hook = CountingHook {
                before_calls: 0,
                after_calls: 0,
            };
            let out = if profiled {
                run_profiled(&cat, &p, &params, &mut hook)
            } else {
                run(&cat, &p, &params, &mut hook)
            };
            (out.unwrap(), (hook.before_calls, hook.after_calls))
        };
        let (plain, plain_calls) = walk(false);
        let (profiled, profiled_calls) = walk(true);
        assert!(plain.stats.profile.is_empty(), "run records no profile");
        assert_eq!(counts(&plain), counts(&profiled));
        assert_eq!(plain_calls, profiled_calls);
        assert_eq!(counts(&plain).1, [6, 2, 0, 0]);
        // one profile per executed instruction, exports excepted
        let pcs: Vec<_> = profiled.stats.profile.iter().map(|i| i.pc).collect();
        assert_eq!(pcs, [0, 1, 2, 3]);
        // replayed: the same counts either way, and no profile from `run`
        let replayed = |profiled: bool| {
            let mut hook = ReplayHook::default();
            let out = if profiled {
                run_profiled(&cat, &p, &params, &mut hook)
            } else {
                run(&cat, &p, &params, &mut hook)
            };
            out.unwrap()
        };
        let (plain, profiled) = (replayed(false), replayed(true));
        assert!(plain.stats.profile.is_empty());
        assert_eq!(counts(&plain), counts(&profiled));
        assert_eq!(counts(&plain).1, [6, 2, 2, 0]);
        assert_eq!(profiled.stats.profile.len(), 4);
    }
}
