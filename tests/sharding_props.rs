//! Property tests for the sharded pool's signature→shard mapping: the
//! placement must be *stable* (the same signature always routes to the
//! same shard — exact-match hits depend on it) and *uniform-ish* over a
//! realistic signature corpus (one hot shard would re-create the
//! single-lock bottleneck the sharding PR removed).

use std::sync::Arc;

use proptest::prelude::*;
use rbat::{Bat, Column, Value};
use recycler::signature::Sig;
use recycler::RecyclePool;
use rmal::Opcode;

/// A signature corpus shaped like real recycler traffic: a handful of
/// opcodes over a few shared BAT operands with scalar parameters.
fn corpus_sig(op_pick: u8, bat_pick: u8, lo: i64, hi: i64, bats: &[Arc<Bat>]) -> Sig {
    let bat = &bats[bat_pick as usize % bats.len()];
    match op_pick % 4 {
        0 => Sig::of(
            Opcode::Select,
            &[
                Value::Bat(Arc::clone(bat)),
                Value::Int(lo),
                Value::Int(hi),
                Value::Bool(true),
                Value::Bool(true),
            ],
        ),
        1 => Sig::of(
            Opcode::Uselect,
            &[Value::Bat(Arc::clone(bat)), Value::Int(lo)],
        ),
        2 => Sig::of(Opcode::Bind, &[Value::str("t"), Value::str("x")]),
        _ => Sig::of(Opcode::Kunique, &[Value::Bat(Arc::clone(bat))]),
    }
}

fn shared_bats() -> Vec<Arc<Bat>> {
    (0..4)
        .map(|i| {
            Arc::new(Bat::from_tail(Column::from_ints(
                (0..8).map(|j| i * 100 + j).collect(),
            )))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard_of` is a pure function of the signature: repeated calls and
    /// re-built equal signatures land on the same shard, and the shard is
    /// always in range.
    #[test]
    fn shard_of_is_stable(
        op_pick in 0u8..4,
        bat_pick in 0u8..4,
        lo in -1000i64..1000,
        hi in -1000i64..1000,
    ) {
        let bats = shared_bats();
        let pool = RecyclePool::with_shards(16);
        let a = corpus_sig(op_pick, bat_pick, lo, hi, &bats);
        let b = corpus_sig(op_pick, bat_pick, lo, hi, &bats);
        prop_assert_eq!(a.clone(), b.clone());
        let s1 = pool.shard_of(&a);
        let s2 = pool.shard_of(&a);
        let s3 = pool.shard_of(&b);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(s1, s3);
        prop_assert!(s1 < pool.shard_count());
        // stability across pools of the same width
        let other = RecyclePool::with_shards(16);
        prop_assert_eq!(other.shard_of(&a), s1);
    }
}

/// Uniformity over a large scalar-parameter corpus: with 2048 distinct
/// select signatures over 16 shards, no shard may be empty and no shard
/// may hold more than 4× its fair share (FxHash is not cryptographic —
/// the bound is deliberately loose, but a constant-shard collapse or a
/// badly biased mask fails it immediately).
#[test]
fn shard_placement_is_uniform_ish() {
    let bats = shared_bats();
    let pool = RecyclePool::with_shards(16);
    let n = 2048usize;
    let mut counts = vec![0usize; pool.shard_count()];
    for i in 0..n {
        let sig = corpus_sig(
            (i % 2) as u8, // select/uselect: scalar-parameter families
            (i % 4) as u8,
            (i as i64) * 7 % 911,
            (i as i64) * 13 % 1733,
            &bats,
        );
        counts[pool.shard_of(&sig)] += 1;
    }
    let fair = n / pool.shard_count();
    for (shard, &c) in counts.iter().enumerate() {
        assert!(c > 0, "shard {shard} empty over {n} signatures: {counts:?}");
        assert!(
            c <= fair * 4,
            "shard {shard} holds {c} of {n} (fair share {fair}): {counts:?}"
        );
    }
}

/// The same corpus pushed through a live pool: entries must be resident in
/// exactly the shard `shard_of` names (the invariant checker verifies
/// placement), and every signature must remain findable.
#[test]
fn inserted_corpus_lands_on_its_shards() {
    let bats = shared_bats();
    let pool = RecyclePool::with_shards(8);
    let mut sigs = Vec::new();
    for i in 0..128usize {
        let sig = corpus_sig(0, (i % 4) as u8, i as i64, (i as i64) + 50, &bats);
        if sigs.contains(&sig) {
            continue;
        }
        let mut entry = recycler::PoolEntry::test_stub(pool.alloc_id(), i as i64, vec![], 10);
        entry.sig = sig.clone();
        assert!(pool.insert(entry, None).inserted());
        sigs.push(sig);
    }
    for sig in &sigs {
        assert!(pool.lookup(sig).is_some(), "sig must stay findable");
    }
    pool.check_invariants().expect("placement invariant");
}
