//! The optimiser pipeline: passes that rewrite MAL programs.
//!
//! MonetDB glues optimiser modules into a pipeline (paper §3.1); the
//! recycler optimiser must run *after* constant folding and dead-code
//! elimination and *before* garbage-collection injection. This crate
//! provides the base passes; the recycler crate contributes its marking
//! pass via the same [`OptPass`] trait.

use rbat::{Catalog, Value};

use crate::exec::execute_op;
use crate::program::{Arg, Program, Var};

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
