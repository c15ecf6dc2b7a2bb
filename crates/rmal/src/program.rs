//! Programs, instructions and arguments.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rbat::Value;

use crate::opcode::Opcode;

/// A register in a program's frame. A deliberate newtype: a bare integer
/// can never silently become a register reference in the builder's
/// `impl Into<Arg>` positions (scalar literals must be passed as
/// [`rbat::Value`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Frame slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An instruction argument: a register, an inline constant, or a reference
/// to a query-template parameter (`A0..An` in the paper's listings).
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Register reference (`Xn`).
    Var(Var),
    /// Inline literal.
    Const(Value),
    /// Query template parameter (`An`).
    Param(u16),
}

impl From<Var> for Arg {
    fn from(v: Var) -> Arg {
        Arg::Var(v)
    }
}

impl From<Value> for Arg {
    fn from(v: Value) -> Arg {
        Arg::Const(v)
    }
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Var(v) => write!(f, "X{}", v.0),
            Arg::Const(c) => write!(f, "{c}"),
            Arg::Param(p) => write!(f, "A{p}"),
        }
    }
}

/// One instruction: an opcode, its arguments and the destination register.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Argument list (shape checked by the executor).
    pub args: Vec<Arg>,
    /// Destination register.
    pub result: Var,
    /// Set by the recycler optimiser: this instruction is monitored at run
    /// time (paper §3.1). Untouched by the base optimiser pipeline.
    pub recycle: bool,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{} := {}(", self.result.0, self.op)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if self.recycle {
            write!(f, "  # recycle")?;
        }
        Ok(())
    }
}

static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// A linear MAL program — when it contains [`Arg::Param`] references it is a
/// *query template*: one compiled plan reusable across invocations with
/// different literal values (paper §2.2).
#[derive(Debug, Clone)]
pub struct Program {
    /// Process-unique template identity (stable across invocations — the
    /// credit admission policy keys its accounts on `(id, pc)`, and the
    /// recycler remembers an all-hit run under `(id, params)`). One id
    /// names one plan: a clone keeps the id, so a clone whose
    /// instructions are edited after either has run needs a fresh one.
    pub id: u64,
    /// Human-readable name, e.g. `"tpch_q18"`.
    pub name: String,
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
    /// Size of the register frame.
    pub nvars: u32,
    /// Number of parameters the template expects.
    pub nparams: u16,
}

impl Program {
    /// Create an empty program (normally via
    /// [`crate::builder::ProgramBuilder`]).
    pub fn new(name: &str) -> Program {
        Program {
            id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            instrs: Vec::new(),
            nvars: 0,
            nparams: 0,
        }
    }

    /// Number of instructions currently marked for recycling.
    pub fn marked_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.recycle).count()
    }

    /// MAL-style listing of the whole program (compare paper Figure 1).
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let params: Vec<String> = (0..self.nparams).map(|i| format!("A{i}")).collect();
        let _ = writeln!(s, "function user.{}({}):void;", self.name, params.join(","));
        for i in &self.instrs {
            let _ = writeln!(s, "    {i};");
        }
        let _ = writeln!(s, "end {};", self.name);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let i = Instr {
            op: Opcode::Select,
            args: vec![
                Arg::Var(Var(5)),
                Arg::Param(0),
                Arg::Const(Value::Int(7)),
                Arg::Const(Value::Bool(true)),
                Arg::Const(Value::Bool(false)),
            ],
            result: Var(9),
            recycle: true,
        };
        let s = i.to_string();
        assert!(s.contains("X9 := algebra.select(X5, A0, 7, true, false)"));
        assert!(s.contains("# recycle"));
    }

    #[test]
    fn program_ids_unique() {
        let a = Program::new("a");
        let b = Program::new("b");
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn listing_shape() {
        let mut p = Program::new("demo");
        p.nparams = 2;
        p.instrs.push(Instr {
            op: Opcode::Bind,
            args: vec![Arg::Const(Value::str("t")), Arg::Const(Value::str("c"))],
            result: Var(0),
            recycle: false,
        });
        p.nvars = 1;
        let l = p.listing();
        assert!(l.starts_with("function user.demo(A0,A1):void;"));
        assert!(l.contains("sql.bind"));
        assert!(l.trim_end().ends_with("end demo;"));
    }
}
