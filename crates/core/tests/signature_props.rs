//! The borrowed signature and the owned one are the same key: over random
//! opcodes and argument lists — every scalar type, the float corner cases,
//! BATs by identity, bind-family versions on both sides of a commit and
//! none at all — `SigRef` and the `Sig` built from it agree on the
//! fingerprint, and two instructions share a fingerprint (and verify
//! against each other's `Sig`) exactly when their `Sig`s are equal. The
//! universe is small on purpose, so equal pairs are drawn often.

use std::sync::Arc;

use proptest::prelude::*;
use rbat::catalog::JoinIndexDef;
use rbat::{Bat, Catalog, Column, Date, LogicalType, Oid, TableBuilder, Value};
use recycler::signature::{Sig, SigRef};
use rmal::Opcode;

/// The catalog before and after a commit to `t` (which `idx` points into).
fn epochs() -> [Catalog; 2] {
    let mut cat = Catalog::new();
    for name in ["t", "u"] {
        let mut tb = TableBuilder::new(name).column("x", LogicalType::Int);
        for i in 0..4 {
            tb.push_row(&[Value::Int(i)]);
        }
        cat.add_table(tb.finish());
    }
    cat.add_join_index(JoinIndexDef {
        name: "idx".into(),
        from_table: "u".into(),
        from_column: "x".into(),
        to_table: "t".into(),
        to_key: "x".into(),
    })
    .unwrap();
    let mut after = cat.clone();
    after.append("t", vec![vec![Value::Int(9)]]).unwrap();
    after.commit("t").unwrap();
    [cat, after]
}

const OPS: [Opcode; 6] = [
    Opcode::Bind,
    Opcode::BindIdx,
    Opcode::Select,
    Opcode::Like,
    Opcode::Join,
    Opcode::Sort,
];

fn palette(bats: &[Arc<Bat>; 2]) -> Vec<Value> {
    vec![
        Value::Nil,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(0),
        Value::Int(1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(1.0),
        Value::Date(Date(0)),
        Value::Date(Date(1)),
        Value::str("t"),
        Value::str("idx"),
        Value::str(""),
        Value::Oid(Oid(0)),
        Value::Oid(Oid(1)),
        Value::Bat(Arc::clone(&bats[0])),
        Value::Bat(Arc::clone(&bats[1])),
    ]
}

/// One drawn instruction: which epoch it runs in (or none: unversioned),
/// opcode, arguments.
type Draw = (usize, usize, Vec<usize>);

fn sig_ref<'a>(cats: &[Catalog; 2], args: &'a [Value], draw: &Draw) -> SigRef<'a> {
    let (epoch, op, _) = draw;
    match cats.get(*epoch) {
        Some(cat) => SigRef::versioned(cat, OPS[*op], args),
        None => SigRef::of(OPS[*op], args),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn fingerprints_agree_exactly_when_signatures_do(
        a in (0usize..3, 0usize..6, prop::collection::vec(0usize..18, 0..4)),
        b in (0usize..3, 0usize..6, prop::collection::vec(0usize..18, 0..4)),
    ) {
        let cats = epochs();
        // the same data twice: equal contents, different identities
        let bats = [0, 1].map(|_| Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2]))));
        let palette = palette(&bats);
        let values = |d: &Draw| d.2.iter().map(|i| palette[*i].clone()).collect::<Vec<_>>();
        let (args_a, args_b) = (values(&a), values(&b));
        let (ref_a, ref_b) = (sig_ref(&cats, &args_a, &a), sig_ref(&cats, &args_b, &b));
        let (sig_a, sig_b): (Sig, Sig) = (ref_a.to_sig(), ref_b.to_sig());

        // borrowed and owned form are one key
        prop_assert_eq!(ref_a.fingerprint(), sig_a.fingerprint());
        prop_assert!(ref_a.matches(&sig_a));

        let same = sig_a == sig_b;
        prop_assert_eq!(ref_a.fingerprint() == ref_b.fingerprint(), same, "{:?} vs {:?}", sig_a, sig_b);
        prop_assert_eq!(ref_a.matches(&sig_b), same, "{:?} vs {:?}", sig_a, sig_b);
        prop_assert_eq!(ref_b.matches(&sig_a), same, "{:?} vs {:?}", sig_a, sig_b);
    }
}

#[test]
fn a_commit_moves_the_bind_family_fingerprints() {
    let cats = epochs();
    for (op, args) in [
        (Opcode::Bind, vec![Value::str("t"), Value::str("x")]),
        (Opcode::BindIdx, vec![Value::str("idx")]),
    ] {
        let [before, after] = [0, 1].map(|e| SigRef::versioned(&cats[e], op, &args));
        assert_ne!(before.to_sig(), after.to_sig(), "{op:?}");
        assert_ne!(before.fingerprint(), after.fingerprint(), "{op:?}");
        assert!(!before.matches(&after.to_sig()), "{op:?}");
    }
    // a table the commit did not touch keeps its key
    let args = [Value::str("u"), Value::str("x")];
    let [before, after] = [0, 1].map(|e| SigRef::versioned(&cats[e], Opcode::Bind, &args));
    assert_eq!(before.fingerprint(), after.fingerprint());
}
