//! The optimiser pipeline: passes that rewrite MAL programs.
//!
//! MonetDB glues optimiser modules into a pipeline (paper §3.1); the
//! recycler optimiser must run *after* constant folding and dead-code
//! elimination and *before* garbage-collection injection. This crate
//! provides the base passes; the recycler crate contributes its marking
//! pass via the same [`OptPass`] trait.

use rbat::{Catalog, Value};

use crate::exec::execute_op;
use crate::program::{Arg, Instr, Program, Var};

/// An optimiser pass over a MAL program.
///
/// `Send + Sync` is part of the contract: pipelines are `Arc`-shared
/// between engine sessions ([`crate::Engine::session`]), so a pass must be
/// safe to invoke from any session's thread. Passes are stateless in
/// practice (they transform the program in place through `&self`).
pub trait OptPass: Send + Sync {
    /// Diagnostic name.
    fn name(&self) -> &'static str;

    /// Transform the program in place.
    fn run(&self, program: &mut Program, catalog: &Catalog);
}

/// Evaluates side-effect-free *scalar* instructions whose arguments are all
/// constants (e.g. `mtime.addmonths("1996-07-01", 3)`) and inlines the
/// result into the argument lists of downstream instructions. Parameters
/// block folding — templates stay parametric.
pub struct ConstFold;

impl OptPass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&self, program: &mut Program, catalog: &Catalog) {
        let mut folded: Vec<(Var, Value)> = Vec::new();
        for instr in &program.instrs {
            if !instr.op.scalar_result() || instr.op == crate::opcode::Opcode::Export {
                continue;
            }
            let mut consts = Vec::with_capacity(instr.args.len());
            let mut all_const = true;
            for a in &instr.args {
                match a {
                    Arg::Const(v) => consts.push(v.clone()),
                    Arg::Var(v) => {
                        if let Some((_, val)) = folded.iter().find(|(fv, _)| fv == v) {
                            consts.push(val.clone());
                        } else {
                            all_const = false;
                            break;
                        }
                    }
                    Arg::Param(_) => {
                        all_const = false;
                        break;
                    }
                }
            }
            if !all_const {
                continue;
            }
            if let Ok(v) = execute_op(catalog, &instr.op, &consts) {
                folded.push((instr.result, v));
            }
        }
        if folded.is_empty() {
            return;
        }
        // Substitute folded results into all argument positions; the dead
        // producers are swept by DeadCode afterwards.
        for instr in &mut program.instrs {
            for a in &mut instr.args {
                if let Arg::Var(v) = a {
                    if let Some((_, val)) = folded.iter().find(|(fv, _)| fv == v) {
                        *a = Arg::Const(val.clone());
                    }
                }
            }
        }
    }
}

/// Removes instructions whose result register is never read and that have
/// no side effects.
pub struct DeadCode;

impl OptPass for DeadCode {
    fn name(&self) -> &'static str {
        "deadcode"
    }

    fn run(&self, program: &mut Program, _catalog: &Catalog) {
        let mut used = vec![false; program.nvars as usize];
        for instr in &program.instrs {
            if instr.op == crate::opcode::Opcode::Export {
                // exports keep their value arguments alive
                for a in &instr.args {
                    if let Arg::Var(v) = a {
                        used[v.index()] = true;
                    }
                }
            }
        }
        // Propagate liveness backwards.
        for instr in program.instrs.iter().rev() {
            if used[instr.result.index()] || instr.op == crate::opcode::Opcode::Export {
                for a in &instr.args {
                    if let Arg::Var(v) = a {
                        used[v.index()] = true;
                    }
                }
            }
        }
        program
            .instrs
            .retain(|i| i.op == crate::opcode::Opcode::Export || used[i.result.index()]);
    }
}

/// A point-in-time warmth map over the recycler pool, consumed by
/// [`ReuseAware`]. Keys are `(op, table, column)`: how much pooled,
/// reuse-weighted material exists for instructions of `op` rooted at that
/// base column. Built once per optimisation by the provider (one pass over
/// the pool), then probed O(chain length) times with no locking.
#[derive(Debug, Clone, Default)]
pub struct ReuseHintSnapshot {
    map: rbat::hash::FxHashMap<(crate::opcode::Opcode, String, String), u64>,
}

impl ReuseHintSnapshot {
    /// Accumulate `weight` onto `(op, table, column)`.
    pub fn add(&mut self, op: crate::opcode::Opcode, table: &str, column: &str, weight: u64) {
        *self
            .map
            .entry((op, table.to_string(), column.to_string()))
            .or_insert(0) += weight;
    }

    /// Warmth of `(op, table, column)`; 0 when nothing is pooled for it.
    pub fn warmth(&self, op: crate::opcode::Opcode, table: &str, column: &str) -> u64 {
        // allocation-free probe: the map is small, scan beats keying
        self.map
            .iter()
            .filter(|((o, t, c), _)| *o == op && t == table && c == column)
            .map(|(_, w)| *w)
            .sum()
    }

    /// True when the pool had nothing to hint at (the pass degenerates to
    /// a no-op without touching the program).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Source of [`ReuseHintSnapshot`]s — implemented by the recycler's shared
/// service (`SharedRecycler::reuse_hints`) and by test fixtures.
pub trait ReuseHintProvider: Send + Sync {
    /// Capture the current warmth map (called once per optimisation run).
    fn reuse_hints(&self) -> ReuseHintSnapshot;
}

/// The reuse-aware ordering pass: inside maximal single-use chains of
/// commutative row-filter instructions (`select`/`uselect`/`like`/
/// `selectNotNil`/`semijoin`/`diff`, each consuming the previous step's
/// result as its first argument), hoist the steps the recycle pool is
/// *warm* for — so the exact-match and subsumption probes see the same
/// prefix earlier invocations admitted, instead of a cold permutation of
/// it.
///
/// Every chain op is an order-preserving row filter over its first
/// argument (range/pattern predicates and head-membership tests are
/// per-row and independent), so any permutation of a chain computes
/// bit-identical results; the pass additionally refuses to move a step
/// whose side operands are defined *inside* the chain span, keeping
/// def-before-use intact. With no provider hints the pass is inert and
/// the program is untouched (the default-features CI leg pins this).
pub struct ReuseAware {
    provider: std::sync::Arc<dyn ReuseHintProvider>,
}

impl ReuseAware {
    /// A pass consulting `provider` at each optimisation run.
    pub fn new(provider: std::sync::Arc<dyn ReuseHintProvider>) -> ReuseAware {
        ReuseAware { provider }
    }

    /// Is `op` one of the commutative row filters the pass reorders (and
    /// the recycler's warmth map counts)?
    pub fn is_chain_op(op: crate::opcode::Opcode) -> bool {
        use crate::opcode::Opcode::*;
        matches!(op, Select | Uselect | Like | SelectNotNil | Semijoin | Diff)
    }

    /// Walk `arg` back through first arguments to the rooting `bind`,
    /// returning its constant `(table, column)` pair.
    fn root_column(program: &Program, def: &[usize], arg: &Arg) -> Option<(String, String)> {
        let mut v = match arg {
            Arg::Var(v) => *v,
            _ => return None,
        };
        for _ in 0..program.instrs.len() {
            let d = *def.get(v.index())?;
            let instr = program.instrs.get(d)?;
            if matches!(
                instr.op,
                crate::opcode::Opcode::Bind | crate::opcode::Opcode::BindIdx
            ) {
                let t = match instr.args.first()? {
                    Arg::Const(Value::Str(s)) => s.to_string(),
                    _ => return None,
                };
                let c = match instr.args.get(1)? {
                    Arg::Const(Value::Str(s)) => s.to_string(),
                    _ => return None,
                };
                return Some((t, c));
            }
            v = match instr.args.first()? {
                Arg::Var(v) => *v,
                _ => return None,
            };
        }
        None
    }
}

impl OptPass for ReuseAware {
    fn name(&self) -> &'static str {
        "reuseaware"
    }

    fn run(&self, program: &mut Program, _catalog: &Catalog) {
        let hints = self.provider.reuse_hints();
        if hints.is_empty() {
            return;
        }
        let nvars = program.nvars as usize;
        let len = program.instrs.len();
        // def site and use sites of every register
        let mut def = vec![usize::MAX; nvars];
        let mut uses: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nvars];
        for (i, instr) in program.instrs.iter().enumerate() {
            def[instr.result.index()] = i;
            for (ai, a) in instr.args.iter().enumerate() {
                if let Arg::Var(v) = a {
                    uses[v.index()].push((i, ai));
                }
            }
        }
        let mut in_chain = vec![false; len];
        for head in 0..len {
            if in_chain[head] || !Self::is_chain_op(program.instrs[head].op) {
                continue;
            }
            // `head` starts a chain only if its input is NOT itself the
            // single-use result of an earlier chain op (that one is the
            // real head and will extend through us).
            if let Some(Arg::Var(v)) = program.instrs[head].args.first() {
                let vu = &uses[v.index()];
                if vu.len() == 1
                    && vu[0].1 == 0
                    && def[v.index()] != usize::MAX
                    && Self::is_chain_op(program.instrs[def[v.index()]].op)
                {
                    continue;
                }
            }
            // extend: follow single-use arg0 links through chain ops
            let mut chain = vec![head];
            loop {
                let last = *chain.last().expect("chain is non-empty");
                let r = program.instrs[last].result;
                let ru = &uses[r.index()];
                if ru.len() != 1 || ru[0].1 != 0 {
                    break;
                }
                let next = ru[0].0;
                if !Self::is_chain_op(program.instrs[next].op) {
                    break;
                }
                chain.push(next);
            }
            if chain.len() < 2 {
                continue;
            }
            for &i in &chain {
                in_chain[i] = true;
            }
            // safety: a step only moves if its side operands (everything
            // but arg0) are constants, parameters, or registers defined
            // before the chain span — moving it can then never break
            // def-before-use.
            let movable = chain.iter().all(|&i| {
                program.instrs[i].args.iter().skip(1).all(|a| match a {
                    Arg::Var(v) => def[v.index()] < chain[0],
                    _ => true,
                })
            });
            if !movable {
                continue;
            }
            // warmth: filters key on the chain's rooting column, the
            // membership tests on their probe operand's root — the
            // operand that distinguishes them from their siblings.
            let chain_root = Self::root_column(program, &def, &program.instrs[head].args[0]);
            let warmth: Vec<u64> = chain
                .iter()
                .map(|&i| {
                    let instr = &program.instrs[i];
                    let root = match instr.op {
                        crate::opcode::Opcode::Semijoin | crate::opcode::Opcode::Diff => instr
                            .args
                            .get(1)
                            .and_then(|a| Self::root_column(program, &def, a)),
                        _ => chain_root.clone(),
                    };
                    match root {
                        Some((t, c)) => hints.warmth(instr.op, &t, &c),
                        None => 0,
                    }
                })
                .collect();
            let mut order: Vec<usize> = (0..chain.len()).collect();
            order.sort_by_key(|&j| std::cmp::Reverse(warmth[j]));
            if order.iter().enumerate().all(|(slot, &j)| slot == j) {
                continue;
            }
            // rewire: each original slot keeps its result register (so
            // the downstream consumer of the chain tail is untouched),
            // steps move between slots and re-link through arg0.
            let input = program.instrs[head].args[0].clone();
            let results: Vec<Var> = chain.iter().map(|&i| program.instrs[i].result).collect();
            let steps: Vec<Instr> = order
                .iter()
                .map(|&j| program.instrs[chain[j]].clone())
                .collect();
            let mut prev = input;
            for (slot, mut step) in steps.into_iter().enumerate() {
                step.args[0] = prev;
                step.result = results[slot];
                prev = Arg::Var(step.result);
                program.instrs[chain[slot]] = step;
            }
        }
    }
}

/// The default pipeline the engine applies before the recycler marking pass.
pub fn default_pipeline() -> Vec<std::sync::Arc<dyn OptPass>> {
    vec![
        std::sync::Arc::new(ConstFold),
        std::sync::Arc::new(DeadCode),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProgramBuilder, P};

    #[test]
    fn constfold_inlines_scalar_dates() {
        let cat = Catalog::new();
        let mut b = ProgramBuilder::new("t", 0);
        let d = b.add_months(Value::date("1996-07-01"), 3);
        let col = b.bind("x", "y");
        let s = b.select_half_open(col, Value::date("1996-07-01"), d);
        b.export("r", s);
        let mut p = b.finish();
        ConstFold.run(&mut p, &cat);
        DeadCode.run(&mut p, &cat);
        // addmonths is gone, its value inlined into the select
        assert!(!p.listing().contains("addmonths"));
        let sel = p
            .instrs
            .iter()
            .find(|i| i.op == crate::opcode::Opcode::Select)
            .unwrap();
        assert_eq!(sel.args[2], Arg::Const(Value::date("1996-10-01")));
    }

    #[test]
    fn constfold_blocked_by_params() {
        let cat = Catalog::new();
        let mut b = ProgramBuilder::new("t", 2);
        let d = b.add_months_arg(P(0), P(1));
        let col = b.bind("x", "y");
        let s = b.select_half_open(col, P(0), d);
        b.export("r", s);
        let mut p = b.finish();
        let before = p.instrs.len();
        ConstFold.run(&mut p, &cat);
        DeadCode.run(&mut p, &cat);
        assert_eq!(p.instrs.len(), before, "parametric scalar must survive");
    }

    struct FixedHints(ReuseHintSnapshot);

    impl ReuseHintProvider for FixedHints {
        fn reuse_hints(&self) -> ReuseHintSnapshot {
            self.0.clone()
        }
    }

    fn reuse_pass(fill: impl FnOnce(&mut ReuseHintSnapshot)) -> ReuseAware {
        let mut snap = ReuseHintSnapshot::default();
        fill(&mut snap);
        ReuseAware::new(std::sync::Arc::new(FixedHints(snap)))
    }

    fn select_chain() -> Program {
        // select(select(bind(t,x), P0..P1), P2..P3) — two commutative steps
        let mut b = ProgramBuilder::new("chain", 4);
        let col = b.bind("t", "x");
        let s1 = b.select_closed(col, P(0), P(1));
        let s2 = b.select_closed(s1, P(2), P(3));
        let n = b.count(s2);
        b.export("n", n);
        b.finish()
    }

    #[test]
    fn reuseaware_inert_without_hints() {
        let cat = Catalog::new();
        let mut p = select_chain();
        let before = p.listing();
        reuse_pass(|_| {}).run(&mut p, &cat);
        assert_eq!(p.listing(), before, "no hints → program untouched");
    }

    #[test]
    fn reuseaware_hoists_warm_semijoin() {
        use crate::opcode::Opcode;
        let cat = Catalog::new();
        // bind(t,x) → select → semijoin against a sub-plan on t.y; the
        // pool is warm for the semijoin, so it should move first.
        let mut b = ProgramBuilder::new("hoist", 2);
        let x = b.bind("t", "x");
        let y = b.bind("t", "y");
        let probe = b.select_closed(y, Value::Int(0), Value::Int(10));
        let s1 = b.select_closed(x, P(0), P(1));
        let sj = b.semijoin(s1, probe);
        let n = b.count(sj);
        b.export("n", n);
        let mut p = b.finish();
        let select_result_before = p
            .instrs
            .iter()
            .find(|i| i.op == Opcode::Select && matches!(i.args[1], Arg::Param(0)))
            .unwrap()
            .result;
        reuse_pass(|h| h.add(Opcode::Semijoin, "t", "y", 5)).run(&mut p, &cat);
        // the semijoin now sits in the slot the parametric select held,
        // keeping that slot's result register
        let first_chain_instr = p
            .instrs
            .iter()
            .find(|i| {
                matches!(i.op, Opcode::Select | Opcode::Semijoin)
                    && i.result == select_result_before
            })
            .unwrap();
        assert_eq!(
            first_chain_instr.op,
            Opcode::Semijoin,
            "warm semijoin must be hoisted ahead of the cold select"
        );
        // chain is still well-formed: every var defined before use
        let mut defined = vec![false; p.nvars as usize];
        for instr in &p.instrs {
            for a in &instr.args {
                if let Arg::Var(v) = a {
                    assert!(defined[v.index()], "use before def after reordering");
                }
            }
            defined[instr.result.index()] = true;
        }
    }

    #[test]
    fn reuseaware_keeps_multi_use_chains() {
        use crate::opcode::Opcode;
        let cat = Catalog::new();
        // the intermediate select result is ALSO exported — not a
        // single-use chain, must not be reordered
        let mut b = ProgramBuilder::new("multiuse", 2);
        let x = b.bind("t", "x");
        let y = b.bind("t", "y");
        let probe = b.select_closed(y, Value::Int(0), Value::Int(10));
        let s1 = b.select_closed(x, P(0), P(1));
        let sj = b.semijoin(s1, probe);
        b.export("mid", s1);
        b.export("out", sj);
        let mut p = b.finish();
        let before = p.listing();
        reuse_pass(|h| h.add(Opcode::Semijoin, "t", "y", 5)).run(&mut p, &cat);
        assert_eq!(p.listing(), before, "multi-use intermediate pins the order");
    }

    #[test]
    fn deadcode_removes_unused() {
        let cat = Catalog::new();
        let mut b = ProgramBuilder::new("t", 0);
        let col = b.bind("x", "y");
        let _unused = b.reverse(col);
        let n = b.count(col);
        b.export("n", n);
        let mut p = b.finish();
        DeadCode.run(&mut p, &cat);
        assert!(
            !p.instrs
                .iter()
                .any(|i| i.op == crate::opcode::Opcode::Reverse),
            "unused reverse must be eliminated"
        );
        // bind and count survive
        assert!(p.instrs.iter().any(|i| i.op == crate::opcode::Opcode::Bind));
    }
}
