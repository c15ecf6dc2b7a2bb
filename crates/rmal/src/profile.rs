//! Execution statistics collected by the interpreter.

use std::time::Duration;

use rbat::Value;

/// Per-instruction execution record.
#[derive(Debug, Clone)]
pub struct InstrProfile {
    /// Program counter.
    pub pc: usize,
    /// Opcode name (static).
    pub op: &'static str,
    /// Was the instruction marked for recycling?
    pub marked: bool,
    /// Was the result reused from the recycle pool (exact match)?
    pub reused: bool,
    /// Was the instruction executed in rewritten (subsumed) form?
    pub subsumed: bool,
    /// CPU time spent executing (zero when reused).
    pub cpu: Duration,
    /// Resident bytes of the result (0 for scalars).
    pub result_bytes: usize,
}

/// Aggregate statistics of one query invocation.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Wall-clock time of the whole invocation.
    pub elapsed: Duration,
    /// Instructions executed or reused.
    pub instrs: usize,
    /// Instructions that were marked for recycling (potential hits,
    /// excluding binds — see paper Table II).
    pub marked: usize,
    /// Marked instructions satisfied from the pool (exact match).
    pub reused: usize,
    /// Marked instructions executed in subsumed (rewritten) form.
    pub subsumed: usize,
    /// Sum of CPU time spent inside marked instructions that *executed*.
    pub marked_cpu: Duration,
    /// Per-instruction details.
    pub profile: Vec<InstrProfile>,
}

impl ExecStats {
    /// Hit ratio against potential hits: `reused / marked` (0 when no
    /// instruction is marked). This is the per-query "hits ratio" plotted
    /// in the paper's Figures 4 and 5.
    pub fn hit_ratio(&self) -> f64 {
        if self.marked == 0 {
            0.0
        } else {
            self.reused as f64 / self.marked as f64
        }
    }
}

/// The outcome of running a program: the exported result set plus stats.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Named result values, in export order.
    pub exports: Vec<(String, Value)>,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl QueryOutput {
    /// Fetch an exported value by name.
    pub fn export(&self, name: &str) -> Option<&Value> {
        self.exports.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_guards_zero() {
        let s = ExecStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        let s2 = ExecStats {
            marked: 4,
            reused: 3,
            ..Default::default()
        };
        assert!((s2.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn export_lookup() {
        let out = QueryOutput {
            exports: vec![("L1".into(), Value::Int(42))],
            stats: ExecStats::default(),
        };
        assert_eq!(out.export("L1"), Some(&Value::Int(42)));
        assert_eq!(out.export("nope"), None);
    }
}
