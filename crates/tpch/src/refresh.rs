//! TPC-H refresh functions RF1/RF2 for the update experiments (§7.4).
//!
//! Each update block inserts a handful of new customer orders (7–8 rows
//! into `orders`, 25–56 rows into `lineitem`) and deletes a similar number
//! of old orders together with their lineitems — the shape the paper
//! injects between query blocks in Figures 12 and 13.

use rand::rngs::SmallRng;
use rand::Rng;
use rbat::delta::Row;
use rbat::hash::FxHashSet;
use rbat::{Catalog, Column, Date, TypedSlice, Value};

use crate::text;

/// Rows to insert/delete for one refresh block.
#[derive(Debug, Default)]
pub struct UpdateBlock {
    /// New `orders` rows.
    pub order_rows: Vec<Row>,
    /// New `lineitem` rows.
    pub lineitem_rows: Vec<Row>,
    /// OIDs to delete from `orders`.
    pub delete_orders: Vec<u64>,
    /// OIDs to delete from `lineitem`.
    pub delete_lineitems: Vec<u64>,
}

/// RF1: build insert rows for a block of `n_orders` new orders. Keys
/// continue after the current maximum.
pub fn insert_block(catalog: &Catalog, rng: &mut SmallRng, n_orders: usize) -> UpdateBlock {
    let norders = catalog.table("orders").expect("orders exists").nrows();
    let ncust = catalog.table("customer").expect("customer exists").nrows();
    let npart = catalog.table("part").expect("part exists").nrows();
    let nsupp = catalog.table("supplier").expect("supplier exists").nrows();
    let mut block = UpdateBlock::default();
    for k in 0..n_orders {
        let okey = (norders + k) as i64;
        let odate = Date::from_ymd(1998, rng.gen_range(1..=8), rng.gen_range(1..=28));
        let nlines = rng.gen_range(3..=7usize);
        let mut total = 0.0;
        for ln in 0..nlines {
            let part = rng.gen_range(0..npart);
            let qty = rng.gen_range(1..=50) as f64;
            let price = qty * 95.0;
            total += price;
            let ship = odate.add_days(rng.gen_range(1..=60));
            block.lineitem_rows.push(vec![
                Value::Int(okey),
                Value::Int(part as i64),
                Value::Int(rng.gen_range(0..nsupp) as i64),
                Value::Int(ln as i64 + 1),
                Value::Float(qty),
                Value::Float(price),
                Value::Float(rng.gen_range(0..=10) as f64 / 100.0),
                Value::Float(rng.gen_range(0..=8) as f64 / 100.0),
                Value::str("N"),
                Value::str("O"),
                Value::Date(ship),
                Value::Date(odate.add_days(45)),
                Value::Date(ship.add_days(rng.gen_range(1..=30))),
                Value::str(text::pick(rng, &text::SHIPINSTRUCT)),
                Value::str(text::pick(rng, &text::SHIPMODES)),
                Value::str(&text::comment(rng, 4, 0)),
            ]);
        }
        block.order_rows.push(vec![
            Value::Int(okey),
            Value::Int(rng.gen_range(0..ncust) as i64),
            Value::str("O"),
            Value::Float(total),
            Value::Date(odate),
            Value::str(text::pick(rng, &text::PRIORITIES)),
            Value::str(&format!("Clerk#{:09}", rng.gen_range(0..1000))),
            Value::Int(0),
            Value::str(&text::comment(rng, 6, 10)),
        ]);
    }
    block
}

/// The values of an order-key column, typed.
fn order_keys(column: &Column) -> &[i64] {
    match column.typed() {
        TypedSlice::Int(keys) => keys,
        other => panic!("order keys are Int, not {}", other.logical_type()),
    }
}

/// RF2: pick `n_orders` random existing orders and return the OIDs of the
/// orders and of all their lineitems for deletion.
pub fn delete_block(catalog: &Catalog, rng: &mut SmallRng, n_orders: usize) -> UpdateBlock {
    let orders = catalog.table("orders").expect("orders exists");
    let mut block = UpdateBlock::default();
    if orders.nrows() == 0 {
        return block;
    }
    let okeys = catalog.bind("orders", "o_orderkey").expect("orders bound");
    let okey_values = order_keys(okeys.tail());
    let mut victims: FxHashSet<i64> = FxHashSet::default();
    for _ in 0..n_orders {
        let oid = rng.gen_range(0..orders.nrows());
        if !block.delete_orders.contains(&(oid as u64)) {
            block.delete_orders.push(oid as u64);
            if okeys.tail().is_valid(oid) {
                victims.insert(okey_values[oid]);
            }
        }
    }
    // find the lineitems referencing the victim order keys
    let lkeys = catalog
        .bind("lineitem", "l_orderkey")
        .expect("lineitem bound");
    for (i, k) in order_keys(lkeys.tail()).iter().enumerate() {
        if victims.contains(k) && lkeys.tail().is_valid(i) {
            block.delete_lineitems.push(i as u64);
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchScale};
    use rand::SeedableRng;

    #[test]
    fn insert_block_shapes() {
        let cat = generate(TpchScale::new(0.001));
        let mut rng = SmallRng::seed_from_u64(5);
        let block = insert_block(&cat, &mut rng, 8);
        assert_eq!(block.order_rows.len(), 8);
        assert!(block.lineitem_rows.len() >= 24);
        assert_eq!(block.order_rows[0].len(), 9);
        assert_eq!(block.lineitem_rows[0].len(), 16);
    }

    #[test]
    fn delete_block_consistent() {
        let cat = generate(TpchScale::new(0.001));
        let mut rng = SmallRng::seed_from_u64(5);
        let block = delete_block(&cat, &mut rng, 5);
        assert!(!block.delete_orders.is_empty());
        // every victim lineitem references a victim order key
        let lk = cat.bind("lineitem", "l_orderkey").unwrap();
        let ok = cat.bind("orders", "o_orderkey").unwrap();
        let victim_keys: Vec<Value> = block
            .delete_orders
            .iter()
            .map(|&o| ok.tail().value(o as usize))
            .collect();
        for &li in &block.delete_lineitems {
            let key = lk.tail().value(li as usize);
            assert!(victim_keys.contains(&key));
        }
    }

    /// The benchmark's refresh scripts are made of these blocks, and its
    /// numbers are compared across commits: for a given seed the blocks
    /// must not move with the implementation. Two consecutive blocks of 8
    /// orders over the default SF 0.01 data, for three seeds.
    #[test]
    fn delete_blocks_are_pinned() {
        /// `(delete_orders, delete_lineitems)`
        type Oids = (&'static [u64], &'static [u64]);
        #[rustfmt::skip]
        let golden: [(u64, [Oids; 2]); 3] = [
            (7, [
                (&[5994, 12674, 4638, 12664, 1664, 7721, 2716, 196],
                 &[739, 740, 741, 6462, 6463, 6464, 6465, 6466, 10619, 18416, 23761, 30626, 30627, 30628, 50428, 50429, 50430, 50431, 50432, 50433, 50475, 50476, 50477, 50478, 50479]),
                (&[13408, 9619, 5303, 5896, 11697, 7751, 6930, 4883],
                 &[19398, 19399, 21044, 21045, 23391, 23392, 23393, 23394, 23395, 27487, 30719, 30720, 30721, 30722, 38319, 38320, 38321, 38322, 38323, 38324, 38325, 46577, 46578, 46579, 46580, 53384, 53385, 53386, 53387]),
            ]),
            (42, [
                (&[8742, 3102, 14009, 4193, 2476, 10584, 754, 4407],
                 &[2961, 2962, 2963, 2964, 2965, 9677, 9678, 12176, 16629, 16630, 16631, 16632, 16633, 16634, 17517, 17518, 17519, 17520, 17521, 17522, 17523, 34760, 34761, 42152, 42153, 42154, 42155, 42156, 42157, 42158, 55675, 55676]),
                (&[9958, 4085, 12649, 11893, 8110, 7042, 5293, 370],
                 &[1439, 1440, 1441, 1442, 1443, 1444, 16198, 16199, 16200, 16201, 16202, 21002, 21003, 21004, 27927, 27928, 27929, 27930, 27931, 32205, 32206, 39655, 39656, 39657, 39658, 39659, 39660, 47394, 47395, 47396, 47397, 47398, 50370, 50371, 50372]),
            ]),
            (20240925, [
                (&[9402, 2697, 2665, 12080, 13882, 12619, 14579, 2594],
                 &[10137, 10138, 10139, 10140, 10420, 10421, 10422, 10423, 10550, 10551, 10552, 10553, 37441, 48102, 48103, 48104, 50254, 50255, 55211, 55212, 57949, 57950, 57951, 57952, 57953]),
                (&[14879, 4765, 8527, 9584, 8019, 11557, 14309, 4726],
                 &[18749, 18750, 18751, 18752, 18901, 18902, 18903, 31815, 31816, 31817, 31818, 31819, 31820, 33903, 33904, 33905, 38169, 38170, 38171, 38172, 38173, 38174, 38175, 46042, 46043, 56854, 59127, 59128, 59129]),
            ]),
        ];
        let cat = generate(TpchScale::new(0.01));
        for (seed, blocks) in golden {
            let mut rng = SmallRng::seed_from_u64(seed);
            for (orders, lineitems) in blocks {
                let block = delete_block(&cat, &mut rng, 8);
                assert_eq!(block.delete_orders, orders, "seed {seed}");
                assert_eq!(block.delete_lineitems, lineitems, "seed {seed}");
                assert!(block.order_rows.is_empty() && block.lineitem_rows.is_empty());
            }
        }
    }

    #[test]
    fn applying_block_keeps_engine_running() {
        let cat = generate(TpchScale::new(0.001));
        let mut engine = rmal::Engine::new(cat);
        let mut rng = SmallRng::seed_from_u64(5);
        let ins = insert_block(&engine.catalog, &mut rng, 4);
        engine.update("orders", ins.order_rows, vec![]).unwrap();
        engine
            .update("lineitem", ins.lineitem_rows, vec![])
            .unwrap();
        let del = delete_block(&engine.catalog, &mut rng, 3);
        engine
            .update("lineitem", vec![], del.delete_lineitems)
            .unwrap();
        engine.update("orders", vec![], del.delete_orders).unwrap();
        // a query still runs
        let q = crate::queries::query(6);
        let mut t = q.template;
        engine.optimize(&mut t);
        let mut prng = SmallRng::seed_from_u64(1);
        let p = (q.params)(&mut prng);
        engine.run(&t, &p).unwrap();
    }
}
