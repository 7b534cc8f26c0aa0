//! Incremental-vs-full equivalence for cached views: every view shape ×
//! mutation pattern must leave the DCV materialization multiset-equal
//! (order-insensitive digest) to a cold recompute of the same query at
//! the same snapshot — and the delta-capable shapes must get there
//! *without* a full refresh.
//!
//! Debug builds double-check every incremental step inside the cache
//! itself (`CachedView` verifies against a full recompute), so a digest
//! mismatch here would have already failed the read.

use vdm_cache::multiset_digest;
use vdm_core::{CacheMode, Database};
use vdm_storage::StorageEngine;
use vdm_types::Value;

fn fresh() -> Database {
    let mut db = Database::hana();
    db.execute_script(
        "create table customer (c_id bigint primary key, name text not null);
         create table orders (o_id bigint primary key, cust bigint not null,
                              qty bigint not null, price bigint not null);",
    )
    .unwrap();
    let customers = (1..=4).map(|i| vec![Value::Int(i), Value::str(format!("c{i}"))]).collect();
    db.engine().insert("customer", customers).unwrap();
    db.engine().insert("orders", (1..=40).map(order).collect()).unwrap();
    db
}

fn order(o_id: i64) -> Vec<Value> {
    vec![
        Value::Int(o_id),
        Value::Int(o_id % 4 + 1),    // cust
        Value::Int(o_id % 10),       // qty
        Value::Int((o_id * 7) % 50), // price
    ]
}

/// (name, SQL) for every maintained shape in the equivalence matrix.
const SHAPES: &[(&str, &str)] = &[
    ("filter", "select o_id, qty from orders where qty >= 5"),
    ("project", "select o_id, qty + price as qp from orders"),
    ("fk-join", "select o_id, name, qty from orders join customer on cust = c_id"),
    (
        "agg-over-join",
        "select name, count(*) as n, sum(qty) as sq, min(price) as mn, max(qty) as mx \
         from orders join customer on cust = c_id group by name",
    ),
    (
        "union-all",
        "select o_id from orders where qty < 3 \
         union all select o_id from orders where qty >= 7",
    ),
    // A column that is NULL on some rows: a retraction matches NULL cells.
    ("null-cells", "select o_id, case when qty >= 5 then price end as hi from orders"),
    // A group key that is NULL on some rows: one NULL group.
    (
        "null-group",
        "select case when qty >= 5 then cust end as hc, count(*) as n, sum(price) as sp \
         from orders group by case when qty >= 5 then cust end",
    ),
];

fn insert_only(e: &StorageEngine) {
    e.insert("customer", vec![vec![Value::Int(5), Value::str("c5")]]).unwrap();
    e.insert("orders", (100..110).map(order).collect()).unwrap();
    // Rows for the brand-new customer land in a brand-new group.
    e.insert(
        "orders",
        vec![
            vec![Value::Int(200), Value::Int(5), Value::Int(9), Value::Int(1)],
            vec![Value::Int(201), Value::Int(5), Value::Int(0), Value::Int(49)],
        ],
    )
    .unwrap();
}

fn delete_some(e: &StorageEngine) {
    // Kills the whole `cust = 4` group (o_id % 4 == 3) and a few others —
    // including group extremes, which exercises MIN/MAX group rebuilds.
    e.delete_where("orders", &|r| matches!(r[0], Value::Int(id) if id % 4 == 3 || id % 7 == 0))
        .unwrap();
}

fn update_some(e: &StorageEngine) {
    // An update is a retraction + insertion at one snapshot: price drops
    // to a new group minimum, qty crosses the filter thresholds.
    e.update_where("orders", &|r| r[0] == Value::Int(5), &|r| r[3] = Value::Int(0)).unwrap();
    e.update_where("orders", &|r| r[0] == Value::Int(8), &|r| r[2] = Value::Int(9)).unwrap();
}

fn mixed(e: &StorageEngine) {
    insert_only(e);
    delete_some(e);
    update_some(e);
}

fn empty_delta(_e: &StorageEngine) {}

#[test]
fn incremental_maintenance_matches_full_recompute() {
    type Mutation = fn(&StorageEngine);
    let mutations: &[(&str, Mutation)] = &[
        ("insert-only", insert_only),
        ("delete", delete_some),
        ("update", update_some),
        ("mixed", mixed),
        ("empty-delta", empty_delta),
    ];
    for (shape, sql) in SHAPES {
        for (mutation, mutate) in mutations {
            let db = fresh();
            db.create_cached_view("v", sql, CacheMode::Dynamic).unwrap();
            let baseline = db.read_cached("v").unwrap();
            mutate(db.engine());
            let got = db.read_cached("v").unwrap();
            let cold = db.query(sql).unwrap();
            assert_eq!(
                multiset_digest(&got),
                multiset_digest(&cold),
                "[{shape} × {mutation}] view diverged from cold recompute \
                 ({} vs {} rows)",
                got.num_rows(),
                cold.num_rows()
            );
            let stats = db.cached_view("v").unwrap().stats();
            assert_eq!(
                stats.full_refreshes, 1,
                "[{shape} × {mutation}] expected only the registration materialization: {stats:?}"
            );
            if *mutation == "empty-delta" {
                assert_eq!(
                    multiset_digest(&baseline),
                    multiset_digest(&got),
                    "[{shape}] no mutation, no change"
                );
                assert_eq!(stats.incremental_refreshes, 0, "[{shape}] nothing to fold");
            } else {
                assert!(
                    stats.incremental_refreshes >= 1,
                    "[{shape} × {mutation}] expected incremental maintenance: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn frozen_table_changes_force_full_refresh() {
    // A LEFT OUTER join freezes its augmenter side: changes there cannot
    // be expressed as a delta and must recompute.
    let db = fresh();
    db.create_cached_view(
        "v",
        "select o_id, name from orders left join customer on cust = c_id",
        CacheMode::Dynamic,
    )
    .unwrap();
    let view = db.cached_view("v").unwrap();
    assert_eq!(view.delta_plan().frozen_tables, vec!["customer".to_string()]);

    // Left-side (orders) changes still maintain incrementally.
    db.engine().insert("orders", vec![order(300)]).unwrap();
    db.read_cached("v").unwrap();
    assert_eq!(view.stats().incremental_refreshes, 1);
    assert_eq!(view.stats().full_refreshes, 1);

    // Frozen-side changes recompute.
    db.engine().insert("customer", vec![vec![Value::Int(9), Value::str("c9")]]).unwrap();
    let got = db.read_cached("v").unwrap();
    assert_eq!(view.stats().full_refreshes, 2);
    let cold = db.query("select o_id, name from orders left join customer on cust = c_id").unwrap();
    assert_eq!(multiset_digest(&got), multiset_digest(&cold));
}

#[test]
fn delta_cost_tracks_the_delta_not_the_base() {
    // The observable O(delta) contract: stats count the signed delta rows
    // actually folded, independent of base-table size.
    let db = fresh();
    db.engine().insert("orders", (1000..3000).map(order).collect()).unwrap();
    db.create_cached_view("v", "select o_id, qty from orders where qty >= 5", CacheMode::Dynamic)
        .unwrap();
    let view = db.cached_view("v").unwrap();
    view.set_verify(false); // isolate the delta path from the debug self-check
    db.engine().insert("orders", (5000..5010).map(order).collect()).unwrap();
    db.read_cached("v").unwrap();
    let stats = view.stats();
    assert_eq!(stats.full_refreshes, 1);
    // qty = o_id % 10 >= 5 holds for half the inserted keys.
    assert_eq!(stats.delta_rows, 5, "folded exactly the delta: {stats:?}");
}
