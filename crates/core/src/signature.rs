//! Instruction signatures — the matching key of the recycle pool.
//!
//! A signature has two forms and one [fingerprint](SigRef::fingerprint):
//! the borrowed [`SigRef`] a probe is made of (no heap allocation), and the
//! owned structural [`Sig`] built from it on the miss/admission path,
//! which stays on the pool entry. The pool keys its exact-match table on
//! the 64-bit fingerprint alone; a hit verifies the
//! probe against the entry's `Sig`, so a collision costs a miss, never a
//! wrong answer.

use rbat::hash::FxHasher;
use rbat::{BatId, Catalog, Value};
use rmal::Opcode;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Signature of one evaluated argument: scalar constants by value, BAT
/// arguments by identity. Because matching is bottom-up (paper §3.4,
/// alternative 1), a BAT argument can only match when it is *the same
/// materialised object* — i.e. the result of a pool-resident (or
/// persistent) predecessor. Value-comparing whole columns would be
/// prohibitively expensive (paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgSig {
    /// Scalar by value.
    Scalar(Value),
    /// BAT by identity.
    Bat(BatId),
}

impl ArgSig {
    /// Signature of an evaluated argument value.
    pub fn of(v: &Value) -> ArgSig {
        match v {
            Value::Bat(b) => ArgSig::Bat(b.id()),
            other => ArgSig::Scalar(other.clone()),
        }
    }

    /// `ArgSig::of(v) == *self`, without building one.
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match (self, v) {
            (ArgSig::Bat(id), Value::Bat(b)) => *id == b.id(),
            (ArgSig::Bat(_), _) | (ArgSig::Scalar(_), Value::Bat(_)) => false,
            (ArgSig::Scalar(s), v) => s == v,
        }
    }
}

impl Hash for ArgSig {
    /// Hashes as the [`Value`] it is the signature of (which hashes a BAT
    /// by identity): what lets [`SigRef`] fingerprint borrowed arguments
    /// to the same word as the `Sig` built from them.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ArgSig::Scalar(v) => v.hash(state),
            ArgSig::Bat(id) => (7u8, id).hash(state),
        }
    }
}

/// Full instruction signature: opcode plus argument signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sig {
    /// The opcode (aggregate/arithmetic selector included).
    pub op: Opcode,
    /// Argument signatures in call order.
    pub args: Vec<ArgSig>,
}

/// A signature *borrowed* from the interpreter's evaluated arguments — what
/// a probe is made of. Building one allocates nothing.
#[derive(Debug, Clone)]
pub struct SigRef<'a> {
    /// The opcode.
    pub op: Opcode,
    args: &'a [Value],
    versions: [Value; 2],
    nversions: usize,
}

fn fingerprint_of<T: Hash>(op: Opcode, args: impl Iterator<Item = T>) -> u64 {
    fingerprint_with(|h| {
        op.hash(h);
        args.for_each(|a| a.hash(h));
    })
}

/// A 64-bit key over `parts`, made the way a signature's fingerprint is —
/// fit to key a [`FingerprintMap`].
pub(crate) fn fingerprint(parts: impl Hash) -> u64 {
    fingerprint_with(|h| parts.hash(h))
}

fn fingerprint_with(feed: impl FnOnce(&mut FxHasher)) -> u64 {
    let mut h = FxHasher::default();
    // Fx maps a zero state and a zero word to a zero state: unseeded, the
    // leading zeros of `Bind` would vanish from the key.
    h.write_u64(0x9E37_79B9_7F4A_7C15);
    feed(&mut h);
    // Fx leaves the low bits weak, and the pool and its identity-hashed
    // tables use the bottom, middle and top of the word: mix full-width.
    let x = h.finish();
    let x = (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

impl<'a> SigRef<'a> {
    /// The result signature of `op` applied to the evaluated `args`: like
    /// [`Sig::of`], but bind-family instructions additionally carry the
    /// bound table's commit *version* as a trailing scalar (both endpoint
    /// tables' versions for a join index).
    ///
    /// Binds take only scalar arguments (table/column names), so without
    /// the version a bind admitted against a pre-commit catalog would
    /// exact-match a post-commit probe of the same column and serve a
    /// stale column BAT. Versioning the signature closes that hole
    /// structurally: scoped invalidation and epoch readers
    /// ([`rbat::catalog::CatalogCell`]) can race admissions against a
    /// commit and the worst case is an unreachable entry awaiting
    /// eviction — never stale reuse. Every non-bind opcode keys on BAT
    /// *identity*, which commits re-mint, so no version is needed there.
    pub fn versioned(catalog: &Catalog, op: Opcode, args: &'a [Value]) -> SigRef<'a> {
        let mut sig = SigRef::of(op, args);
        let version = |t: &str| catalog.table(t).map(|t| t.version() as i64);
        match (op, args.first().and_then(|v| v.as_str())) {
            (Opcode::Bind, Some(table)) => {
                if let Ok(v) = version(table) {
                    sig.versions[0] = Value::Int(v);
                    sig.nversions = 1;
                }
            }
            (Opcode::BindIdx, Some(index)) => {
                if let Some(def) = catalog.index_def(index) {
                    sig.versions = [&def.from_table, &def.to_table]
                        .map(|t| Value::Int(version(t).unwrap_or(0)));
                    sig.nversions = 2;
                }
            }
            _ => {}
        }
        sig
    }

    /// The signature of `op` applied to the evaluated `args`, unversioned
    /// (see [`Sig::of`]).
    pub fn of(op: Opcode, args: &'a [Value]) -> SigRef<'a> {
        SigRef {
            op,
            args,
            versions: [Value::Nil, Value::Nil],
            nversions: 0,
        }
    }

    fn values(&self) -> impl Iterator<Item = &Value> {
        self.args.iter().chain(&self.versions[..self.nversions])
    }

    /// The pool's key, equal to the [`Sig::fingerprint`] of [`Self::to_sig`].
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.op, self.values())
    }

    /// `self.to_sig() == *sig`, without building one — what a fingerprint
    /// match is verified with.
    pub fn matches(&self, sig: &Sig) -> bool {
        self.op == sig.op
            && sig.args.len() == self.args.len() + self.nversions
            && sig
                .args
                .iter()
                .zip(self.values())
                .all(|(s, v)| s.matches(v))
    }

    /// The owned structural signature — built on the miss/admission path.
    pub fn to_sig(&self) -> Sig {
        Sig {
            op: self.op,
            args: self.values().map(ArgSig::of).collect(),
        }
    }
}

impl Sig {
    /// Build the signature for `op` applied to the evaluated `args`.
    pub fn of(op: Opcode, args: &[Value]) -> Sig {
        SigRef::of(op, args).to_sig()
    }

    /// [`SigRef::versioned`], owned.
    pub fn versioned(catalog: &Catalog, op: Opcode, args: &[Value]) -> Sig {
        SigRef::versioned(catalog, op, args).to_sig()
    }

    /// The first argument's signature, if any — the index key for
    /// subsumption candidate lookups ("same column operand").
    pub fn first_arg(&self) -> Option<&ArgSig> {
        self.args.first()
    }

    /// The 64-bit key the pool files this signature under (see
    /// [`SigRef::fingerprint`], the same word from borrowed arguments).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.op, self.args.iter())
    }
}

/// Identity hasher for tables keyed by a (well-mixed) fingerprint.
#[derive(Default, Clone, Copy)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint tables are keyed by u64");
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }
}

/// A hash map keyed by fingerprint, hashed by identity.
pub(crate) type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::{Bat, Column};
    use std::sync::Arc;

    #[test]
    fn scalar_args_match_by_value() {
        let a = Sig::of(Opcode::Select, &[Value::Int(1), Value::Int(2)]);
        let b = Sig::of(Opcode::Select, &[Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Sig::of(Opcode::Select, &[Value::Int(1), Value::Int(3)]);
        assert_ne!(a, c);
    }

    #[test]
    fn bat_args_match_by_identity() {
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2])));
        let same = Value::Bat(Arc::clone(&bat));
        let a = Sig::of(Opcode::Reverse, &[Value::Bat(Arc::clone(&bat))]);
        let b = Sig::of(Opcode::Reverse, &[same]);
        assert_eq!(a, b);
        // a different materialisation of identical data does NOT match
        let other = Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2])));
        let c = Sig::of(Opcode::Reverse, &[Value::Bat(other)]);
        assert_ne!(a, c);
    }

    #[test]
    fn opcode_distinguishes() {
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![1])));
        let v = Value::Bat(bat);
        let a = Sig::of(Opcode::Reverse, std::slice::from_ref(&v));
        let b = Sig::of(Opcode::Mirror, std::slice::from_ref(&v));
        assert_ne!(a, b);
    }
}
