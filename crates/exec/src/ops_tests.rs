//! Operator tests: the basic shapes, then edge cases — empty inputs, NULL
//! join keys, offsets past the end, type coercion across unions, and the
//! budgeted execution path.
//!
//! Every plan runs at each of [`configs`] and must produce the same rows
//! at all of them.

use crate::executor::hash_join;
use crate::kernels;
use crate::{execute_with, ExecOptions, Execution, Metrics, ParallelConfig, QueryProfile};
use std::collections::HashMap;
use std::sync::Arc;
use vdm_catalog::{TableBuilder, TableDef};
use vdm_expr::{AggExpr, AggFunc, BinOp, Expr};
use vdm_plan::{JoinKind, LogicalPlan, PlanRef, SortKey};
use vdm_storage::{Batch, Snapshot, StorageEngine};
use vdm_types::{Decimal, Field, Result, Schema, SplitMix64, SqlType, Value};

/// Program defaults, then 4-row morsels in the serial mode and at four
/// threads — small enough that even these tables split into many morsels
/// and take the partitioned join and aggregation paths.
fn configs() -> [ParallelConfig; 3] {
    [
        ParallelConfig::default(),
        ParallelConfig { threads: 1, morsel_rows: 4 },
        ParallelConfig { threads: 4, morsel_rows: 4 },
    ]
}

/// Runs `plan` at every configuration (same order as [`configs`]),
/// asserting the rows agree.
fn execute_all(plan: &PlanRef, e: &StorageEngine, snapshot: Snapshot) -> Result<Vec<Execution>> {
    let mut runs: Vec<Execution> = Vec::new();
    for parallel in configs() {
        let opts = ExecOptions { snapshot: Some(snapshot), parallel };
        let x = execute_with(plan, e, &opts)?;
        if let Some(first) = runs.first() {
            assert_eq!(x.batch.to_rows(), first.batch.to_rows(), "{parallel:?} diverges");
        }
        runs.push(x);
    }
    Ok(runs)
}

fn execute(plan: &PlanRef, e: &StorageEngine) -> Result<Batch> {
    Ok(execute_all(plan, e, e.snapshot())?.swap_remove(0).batch)
}

fn table(name: &str) -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new(name)
            .column("k", SqlType::Int, false)
            .column("v", SqlType::Int, true)
            .primary_key(&["k"])
            .build()
            .unwrap(),
    )
}

fn engine_with(name: &str, rows: Vec<Vec<Value>>) -> (StorageEngine, Arc<TableDef>) {
    let e = StorageEngine::new();
    let t = table(name);
    e.create_table(Arc::clone(&t)).unwrap();
    e.insert(name, rows).unwrap();
    (e, t)
}

#[test]
fn operators_over_empty_tables() {
    let (e, t) = engine_with("t", vec![]);
    let scan = LogicalPlan::scan(Arc::clone(&t));
    // Filter, project, sort, distinct, limit over empty input.
    let plan = LogicalPlan::limit(
        LogicalPlan::distinct(
            LogicalPlan::sort(
                LogicalPlan::project(
                    LogicalPlan::filter(scan, Expr::col(0).binary(BinOp::Gt, Expr::int(0)))
                        .unwrap(),
                    vec![(Expr::col(0), "k".into())],
                )
                .unwrap(),
                vec![SortKey::asc(0)],
            )
            .unwrap(),
        ),
        0,
        Some(10),
    );
    assert_eq!(execute(&plan, &e).unwrap().num_rows(), 0);
    // Join of two empties.
    let j = LogicalPlan::left_join(
        LogicalPlan::scan(Arc::clone(&t)),
        LogicalPlan::scan(t),
        vec![(0, 0)],
    )
    .unwrap();
    assert_eq!(execute(&j, &e).unwrap().num_rows(), 0);
}

#[test]
fn null_join_keys_never_match() {
    let e = StorageEngine::new();
    let t = Arc::new(
        TableBuilder::new("n")
            .column("k", SqlType::Int, true)
            .column("v", SqlType::Int, false)
            .build()
            .unwrap(),
    );
    e.create_table(Arc::clone(&t)).unwrap();
    e.insert(
        "n",
        vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
        ],
    )
    .unwrap();
    // Inner self-join on the nullable key: NULLs match nothing.
    let inner = LogicalPlan::inner_join(
        LogicalPlan::scan(Arc::clone(&t)),
        LogicalPlan::scan(Arc::clone(&t)),
        vec![(0, 0)],
    )
    .unwrap();
    assert_eq!(execute(&inner, &e).unwrap().num_rows(), 1, "only k=1 matches itself");
    // Left outer: NULL-keyed left rows survive, NULL-padded.
    let outer = LogicalPlan::left_join(
        LogicalPlan::scan(Arc::clone(&t)),
        LogicalPlan::scan(t),
        vec![(0, 0)],
    )
    .unwrap();
    let out = execute(&outer, &e).unwrap();
    assert_eq!(out.num_rows(), 3);
    let padded = out.to_rows().iter().filter(|r| r[2].is_null() && r[3].is_null()).count();
    assert_eq!(padded, 2);
}

#[test]
fn limit_offset_beyond_input() {
    let (e, t) = engine_with("t", vec![vec![Value::Int(1), Value::Int(10)]]);
    let plan = LogicalPlan::limit(LogicalPlan::scan(Arc::clone(&t)), 5, Some(10));
    assert_eq!(execute(&plan, &e).unwrap().num_rows(), 0);
    let plan = LogicalPlan::limit(LogicalPlan::scan(t), 0, Some(0));
    assert_eq!(execute(&plan, &e).unwrap().num_rows(), 0);
}

#[test]
fn union_coerces_int_into_decimal() {
    let e = StorageEngine::new();
    let ints = table("ints");
    let decs = Arc::new(
        TableBuilder::new("decs")
            .column("k", SqlType::Int, false)
            .column("v", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["k"])
            .build()
            .unwrap(),
    );
    e.create_table(Arc::clone(&ints)).unwrap();
    e.create_table(Arc::clone(&decs)).unwrap();
    e.insert("ints", vec![vec![Value::Int(1), Value::Int(7)]]).unwrap();
    e.insert("decs", vec![vec![Value::Int(2), Value::Dec("1.25".parse().unwrap())]]).unwrap();
    let u = LogicalPlan::union_all(vec![LogicalPlan::scan(ints), LogicalPlan::scan(decs)]).unwrap();
    assert_eq!(u.schema().field(1).ty, SqlType::Decimal { scale: 2 });
    let out = execute(&u, &e).unwrap();
    assert_eq!(out.num_rows(), 2);
    let mut vals: Vec<String> = out.to_rows().iter().map(|r| r[1].to_string()).collect();
    vals.sort();
    assert_eq!(vals, vec!["1.25".to_string(), "7.00".to_string()]);
}

#[test]
fn distinct_treats_nulls_as_equal() {
    let e = StorageEngine::new();
    let t = Arc::new(TableBuilder::new("d").column("v", SqlType::Int, true).build().unwrap());
    e.create_table(Arc::clone(&t)).unwrap();
    e.insert(
        "d",
        vec![vec![Value::Null], vec![Value::Null], vec![Value::Int(1)], vec![Value::Int(1)]],
    )
    .unwrap();
    let plan = LogicalPlan::distinct(LogicalPlan::scan(t));
    assert_eq!(execute(&plan, &e).unwrap().num_rows(), 2);
}

#[test]
fn group_by_nullable_key_forms_null_group() {
    let e = StorageEngine::new();
    let t = Arc::new(
        TableBuilder::new("g")
            .column("grp", SqlType::Int, true)
            .column("v", SqlType::Int, false)
            .build()
            .unwrap(),
    );
    e.create_table(Arc::clone(&t)).unwrap();
    e.insert(
        "g",
        vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(7), Value::Int(3)],
        ],
    )
    .unwrap();
    let plan = LogicalPlan::aggregate(
        LogicalPlan::scan(t),
        vec![(Expr::col(0), "g".into())],
        vec![(AggExpr::new(AggFunc::Sum, Expr::col(1)), "s".into())],
    )
    .unwrap();
    let mut rows = execute(&plan, &e).unwrap().to_rows();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Null, Value::Int(3)], "NULLs group together");
    assert_eq!(rows[1], vec![Value::Int(7), Value::Int(3)]);
}

#[test]
fn sort_null_placement_follows_keys() {
    let e = StorageEngine::new();
    let t = Arc::new(TableBuilder::new("s").column("v", SqlType::Int, true).build().unwrap());
    e.create_table(Arc::clone(&t)).unwrap();
    e.insert("s", vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(1)]]).unwrap();
    let asc = LogicalPlan::sort(LogicalPlan::scan(Arc::clone(&t)), vec![SortKey::asc(0)]).unwrap();
    let rows = execute(&asc, &e).unwrap().to_rows();
    assert!(rows[0][0].is_null(), "ASC places NULLs first: {rows:?}");
    let desc = LogicalPlan::sort(LogicalPlan::scan(t), vec![SortKey::desc(0)]).unwrap();
    let rows = execute(&desc, &e).unwrap().to_rows();
    assert!(rows[2][0].is_null(), "DESC places NULLs last: {rows:?}");
}

#[test]
fn budgeted_execution_matches_full_execution() {
    let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 13)]).collect();
    let (e, t) = engine_with("big", rows);
    // Limit over union over projected scans: the budgeted path covers all.
    let mk = || {
        LogicalPlan::project(
            LogicalPlan::scan(Arc::clone(&t)),
            vec![(Expr::col(0), "k".into()), (Expr::col(1), "v".into())],
        )
        .unwrap()
    };
    let u = LogicalPlan::union_all(vec![mk(), mk()]).unwrap();
    let plan = LogicalPlan::limit(u, 3, Some(7));
    for (x, config) in execute_all(&plan, &e, e.snapshot()).unwrap().iter().zip(configs()) {
        assert_eq!(x.batch.num_rows(), 7);
        // One wave of `workers` morsels may overshoot the budget of 3 + 7.
        let m = Metrics::roll_up(&plan, &x.profile);
        assert!(
            m.rows_scanned <= 10 + x.workers * config.morsel_rows,
            "budgeted execution must not scan the full table: {config:?} {m:?}"
        );
    }
    // One `Arc` as both union inputs: a budget the first run covers skips
    // the second, and `operators` counts runs, not tree positions with stats.
    let shared = mk();
    let u = LogicalPlan::union_all(vec![Arc::clone(&shared), shared]).unwrap();
    for (fetch, operators) in [(5, 4), (600, 6)] {
        let plan = LogicalPlan::limit(Arc::clone(&u), 0, Some(fetch));
        for x in execute_all(&plan, &e, e.snapshot()).unwrap() {
            assert_eq!(Metrics::roll_up(&plan, &x.profile).operators, operators, "fetch {fetch}");
        }
    }
    // A filter below the limit disables the scan shortcut but stays correct.
    let f = LogicalPlan::filter(LogicalPlan::scan(Arc::clone(&t)), Expr::col(1).eq(Expr::int(3)))
        .unwrap();
    let plan = LogicalPlan::limit(f, 0, Some(5));
    let batch = execute(&plan, &e).unwrap();
    assert_eq!(batch.num_rows(), 5);
    for row in batch.to_rows() {
        assert_eq!(row[1], Value::Int(3));
    }
}

#[test]
fn values_node_executes() {
    let e = StorageEngine::new();
    let schema = Schema::new(vec![vdm_types::Field::new("x", SqlType::Int, false)]);
    let plan: PlanRef =
        LogicalPlan::values(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
    assert_eq!(execute(&plan, &e).unwrap().num_rows(), 2);
    let limited = LogicalPlan::limit(plan, 0, Some(1));
    assert_eq!(execute(&limited, &e).unwrap().num_rows(), 1);
}

#[test]
fn join_kind_residual_combinations() {
    let (e, t) = engine_with(
        "t",
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]],
    );
    // Inner join with a residual that rejects everything.
    let j = LogicalPlan::join(
        LogicalPlan::scan(Arc::clone(&t)),
        LogicalPlan::scan(Arc::clone(&t)),
        JoinKind::Inner,
        vec![(0, 0)],
        Some(Expr::col(1).binary(BinOp::Gt, Expr::int(100))),
        None,
        false,
    )
    .unwrap();
    assert_eq!(execute(&j, &e).unwrap().num_rows(), 0);
    // Left outer with the same residual: all rows survive, padded.
    let j = LogicalPlan::join(
        LogicalPlan::scan(Arc::clone(&t)),
        LogicalPlan::scan(t),
        JoinKind::LeftOuter,
        vec![(0, 0)],
        Some(Expr::col(1).binary(BinOp::Gt, Expr::int(100))),
        None,
        false,
    )
    .unwrap();
    let out = execute(&j, &e).unwrap();
    assert_eq!(out.num_rows(), 2);
    assert!(out.to_rows().iter().all(|r| r[2].is_null()));
}

#[test]
fn adaptive_inner_join_build_side_agrees() {
    // Small left, big right: the adaptive path builds on the left; the
    // left-outer variant of the same join builds on the right. Their inner
    // rows must agree.
    let e = StorageEngine::new();
    let small = table("small");
    let big = table("big2");
    e.create_table(Arc::clone(&small)).unwrap();
    e.create_table(Arc::clone(&big)).unwrap();
    e.insert("small", (0..5).map(|i| vec![Value::Int(i), Value::Int(i)]).collect()).unwrap();
    e.insert("big2", (0..200).map(|i| vec![Value::Int(i), Value::Int(i % 5)]).collect()).unwrap();
    let inner = LogicalPlan::inner_join(
        LogicalPlan::scan(Arc::clone(&small)),
        LogicalPlan::scan(Arc::clone(&big)),
        vec![(0, 1)],
    )
    .unwrap();
    let outer =
        LogicalPlan::left_join(LogicalPlan::scan(small), LogicalPlan::scan(big), vec![(0, 1)])
            .unwrap();
    let mut inner_rows = execute(&inner, &e).unwrap().to_rows();
    let mut outer_rows: Vec<Vec<Value>> =
        execute(&outer, &e).unwrap().to_rows().into_iter().filter(|r| !r[2].is_null()).collect();
    let sort = |rows: &mut Vec<Vec<Value>>| {
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let c = x.total_cmp(y);
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        })
    };
    sort(&mut inner_rows);
    sort(&mut outer_rows);
    assert_eq!(inner_rows.len(), 200, "every big row matches one small row");
    assert_eq!(inner_rows, outer_rows);
}

fn orders_customer() -> (StorageEngine, Arc<TableDef>, Arc<TableDef>) {
    let orders = Arc::new(
        TableBuilder::new("orders")
            .column("o_orderkey", SqlType::Int, false)
            .column("o_custkey", SqlType::Int, false)
            .column("o_total", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["o_orderkey"])
            .build()
            .unwrap(),
    );
    let customer = Arc::new(
        TableBuilder::new("customer")
            .column("c_custkey", SqlType::Int, false)
            .column("c_name", SqlType::Text, false)
            .primary_key(&["c_custkey"])
            .build()
            .unwrap(),
    );
    let e = StorageEngine::new();
    e.create_table(Arc::clone(&orders)).unwrap();
    e.create_table(Arc::clone(&customer)).unwrap();
    e.insert(
        "customer",
        vec![vec![Value::Int(1), Value::str("alice")], vec![Value::Int(2), Value::str("bob")]],
    )
    .unwrap();
    e.insert(
        "orders",
        vec![
            vec![Value::Int(10), Value::Int(1), Value::Dec("5.00".parse().unwrap())],
            vec![Value::Int(11), Value::Int(1), Value::Dec("7.50".parse().unwrap())],
            vec![Value::Int(12), Value::Int(9), Value::Dec("1.00".parse().unwrap())],
        ],
    )
    .unwrap();
    (e, orders, customer)
}

#[test]
fn scan_filter_project() {
    let (e, orders, _) = orders_customer();
    let scan = LogicalPlan::scan(orders);
    let f = LogicalPlan::filter(scan, Expr::col(1).eq(Expr::int(1))).unwrap();
    let p = LogicalPlan::project(f, vec![(Expr::col(0), "k".into())]).unwrap();
    let b = execute(&p, &e).unwrap();
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.schema.field(0).name, "k");
}

#[test]
fn inner_join_matches() {
    let (e, orders, customer) = orders_customer();
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(orders),
        LogicalPlan::scan(customer),
        vec![(1, 0)],
    )
    .unwrap();
    let b = execute(&j, &e).unwrap();
    assert_eq!(b.num_rows(), 2, "order 12 has no customer 9");
}

#[test]
fn left_outer_join_pads_nulls() {
    let (e, orders, customer) = orders_customer();
    let j = LogicalPlan::left_join(
        LogicalPlan::scan(orders),
        LogicalPlan::scan(customer),
        vec![(1, 0)],
    )
    .unwrap();
    let b = execute(&j, &e).unwrap();
    assert_eq!(b.num_rows(), 3);
    let rows = b.to_rows();
    let unmatched = rows.iter().find(|r| r[0] == Value::Int(12)).unwrap();
    assert!(unmatched[3].is_null() && unmatched[4].is_null());
}

#[test]
fn aggregate_group_by() {
    let (e, orders, _) = orders_customer();
    let a = LogicalPlan::aggregate(
        LogicalPlan::scan(orders),
        vec![(Expr::col(1), "cust".into())],
        vec![
            (AggExpr::count_star(), "n".into()),
            (AggExpr::new(AggFunc::Sum, Expr::col(2)), "total".into()),
        ],
    )
    .unwrap();
    let b = execute(&a, &e).unwrap();
    let mut rows = b.to_rows();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Int(1), Value::Int(2), Value::Dec("12.50".parse().unwrap())]);
}

#[test]
fn global_aggregate_over_empty_input() {
    let (e, orders, _) = orders_customer();
    let empty = LogicalPlan::filter(LogicalPlan::scan(orders), Expr::boolean(false)).unwrap();
    let a = LogicalPlan::aggregate(
        empty,
        vec![],
        vec![
            (AggExpr::count_star(), "n".into()),
            (AggExpr::new(AggFunc::Sum, Expr::col(2)), "s".into()),
        ],
    )
    .unwrap();
    let b = execute(&a, &e).unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.row(0), vec![Value::Int(0), Value::Null]);
}

#[test]
fn sort_and_limit() {
    let (e, orders, _) = orders_customer();
    let s = LogicalPlan::sort(LogicalPlan::scan(orders), vec![SortKey::desc(2)]).unwrap();
    let l = LogicalPlan::limit(s, 1, Some(1));
    let b = execute(&l, &e).unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.row(0)[0], Value::Int(10), "second-highest total");
}

#[test]
fn union_all_and_distinct() {
    let (e, orders, _) = orders_customer();
    let a = LogicalPlan::project(
        LogicalPlan::scan(Arc::clone(&orders)),
        vec![(Expr::col(1), "c".into())],
    )
    .unwrap();
    let b2 =
        LogicalPlan::project(LogicalPlan::scan(orders), vec![(Expr::col(1), "c".into())]).unwrap();
    let u = LogicalPlan::union_all(vec![a, b2]).unwrap();
    let all = execute(&u, &e).unwrap();
    assert_eq!(all.num_rows(), 6);
    let d = LogicalPlan::distinct(u);
    let b = execute(&d, &e).unwrap();
    assert_eq!(b.num_rows(), 2);
}

#[test]
fn snapshot_pinning() {
    let (e, orders, _) = orders_customer();
    let snap = e.snapshot();
    e.insert(
        "orders",
        vec![vec![Value::Int(13), Value::Int(2), Value::Dec("3.00".parse().unwrap())]],
    )
    .unwrap();
    let scan = LogicalPlan::scan(orders);
    for x in execute_all(&scan, &e, snap).unwrap() {
        assert_eq!(x.batch.num_rows(), 3, "pinned snapshot misses the new row");
        assert_eq!(Metrics::roll_up(&scan, &x.profile).rows_scanned, 3);
    }
    assert_eq!(execute(&scan, &e).unwrap().num_rows(), 4);
}

#[test]
fn metrics_count_join_work() {
    let (e, orders, customer) = orders_customer();
    let j = LogicalPlan::left_join(
        LogicalPlan::scan(orders),
        LogicalPlan::scan(customer),
        vec![(1, 0)],
    )
    .unwrap();
    for x in execute_all(&j, &e, e.snapshot()).unwrap() {
        let m = Metrics::roll_up(&j, &x.profile);
        assert_eq!(m.join_build_rows, 2, "customer side builds the hash table");
        assert_eq!(m.join_probe_rows, 3);
        assert_eq!(m.join_output_rows, 3);
        assert_eq!(m.rows_scanned, 5);
    }
}

#[test]
fn roll_up_of_a_hand_built_profile_matches_hand_computed_totals() {
    // #0 UnionAll
    //   #1 Aggregate ── #2 Join ── #3 Filter ── #4 Scan orders
    //                          └── #5 Scan customer
    //   #6 Distinct ── #7 Project ── #3 [shared]
    //   #8 Sort ── #9 Limit ── #10 Project ── #11 Project ── #12 Values  (never ran)
    let (_, orders, customer) = orders_customer();
    let shared =
        LogicalPlan::filter(LogicalPlan::scan(orders), Expr::col(1).eq(Expr::int(1))).unwrap();
    let join =
        LogicalPlan::inner_join(Arc::clone(&shared), LogicalPlan::scan(customer), vec![(1, 0)])
            .unwrap();
    let agg = LogicalPlan::aggregate(
        join,
        vec![(Expr::col(1), "cust".into())],
        vec![(AggExpr::count_star(), "n".into())],
    )
    .unwrap();
    let branch = |p: PlanRef| LogicalPlan::project_cols(p, &[1, 0]).unwrap();
    let literal = LogicalPlan::values(agg.schema().as_ref().clone(), vec![]).unwrap();
    let unrun = LogicalPlan::sort(
        LogicalPlan::limit(branch(branch(literal)), 0, Some(1)),
        vec![SortKey::asc(0)],
    )
    .unwrap();
    let distinct = LogicalPlan::distinct(LogicalPlan::project_cols(shared, &[1, 0]).unwrap());
    let plan = LogicalPlan::union_all(vec![agg, distinct, unrun]).unwrap();

    // (id, rows_in, build_rows, rows_out, nanos), one line per run: the
    // shared filter and its scan ran twice.
    let mut profile = QueryProfile::default();
    for (id, rows_in, build_rows, rows_out, nanos) in [
        (0, 3, 0, 3, 1),   // UnionAll
        (1, 2, 0, 1, 20),  // Aggregate
        (2, 4, 2, 2, 300), // Join: 2 probe + 2 build
        (3, 3, 0, 2, 1_000),
        (3, 3, 0, 2, 3_000), // Filter ×2
        (4, 3, 0, 3, 20_000),
        (4, 3, 0, 3, 30_000),     // Scan orders ×2
        (5, 2, 0, 2, 600_000),    // Scan customer
        (6, 2, 0, 2, 7_000_000),  // Distinct
        (7, 2, 0, 2, 80_000_000), // Project over the shared filter
    ] {
        profile.record(id, rows_in, rows_out, nanos).build_rows += build_rows;
    }
    let m = Metrics::roll_up(&plan, &profile);
    // Runs: 0,1,2,3,4,5 + 6,7 + the shared 3,4 again.
    assert_eq!(m.operators, 10);
    assert_eq!(m.rows_scanned, 8);
    assert_eq!(m.filter_input_rows, 6);
    assert_eq!((m.join_build_rows, m.join_probe_rows, m.join_output_rows), (2, 2, 2));
    assert_eq!(m.agg_input_rows, 2);
    assert_eq!(m.scan_nanos, 650_000);
    assert_eq!(m.filter_nanos, 4_000);
    assert_eq!(m.join_nanos, 300);
    assert_eq!(m.agg_nanos, 20);
    assert_eq!(m.union_nanos, 1);
    assert_eq!(m.distinct_nanos, 7_000_000);
    assert_eq!(m.project_nanos, 80_000_000);
    assert_eq!((m.sort_nanos, m.other_nanos), (0, 0), "the third branch never ran");
}

#[test]
fn join_residual_filter_left_outer_semantics() {
    // ON c.custkey = o.custkey AND c.name = 'bob' — alice orders get NULLs.
    let (e, orders, customer) = orders_customer();
    let j = LogicalPlan::join(
        LogicalPlan::scan(orders),
        LogicalPlan::scan(customer),
        JoinKind::LeftOuter,
        vec![(1, 0)],
        Some(Expr::col(4).eq(Expr::str("bob"))),
        None,
        false,
    )
    .unwrap();
    let b = execute(&j, &e).unwrap();
    assert_eq!(b.num_rows(), 3, "every order survives a left join");
    for r in b.to_rows() {
        assert!(r[4].is_null(), "no order belongs to bob: {r:?}");
    }
}

/// The row-at-a-time hash join the engine ran on small inputs before the
/// partitioned columnar join served every size, kept as the oracle for
/// [`one_hash_join_matches_the_row_wise_reference`]: builds on the right
/// input, probes with the left.
///
/// NULL join keys never match (SQL equi-join semantics). For left-outer
/// joins, a left row whose matches all fail the residual filter is still
/// emitted once, NULL-padded.
fn reference_join(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    schema: Arc<Schema>,
) -> Result<Batch> {
    // Adaptive build side: an inner equi-join commutes, so build the hash
    // table on the smaller input (the economics the paper points at when
    // discussing limit pushdown, §4.4).
    if kind == JoinKind::Inner && residual.is_none() && left.num_rows() < right.num_rows() {
        return reference_join_build_left(left, right, on, schema);
    }
    // Build phase.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.num_rows());
    'build: for i in 0..right.num_rows() {
        let mut key = Vec::with_capacity(on.len());
        for &(_, rc) in on {
            let v = right.columns[rc].get(i);
            if v.is_null() {
                continue 'build;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }
    // Probe phase.
    let right_width = right.schema.len();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..left.num_rows() {
        let left_row = left.row(i);
        let mut key = Vec::with_capacity(on.len());
        let mut null_key = false;
        for &(lc, _) in on {
            let v = left_row[lc].clone();
            if v.is_null() {
                null_key = true;
                break;
            }
            key.push(v);
        }
        let matches = if null_key { None } else { table.get(&key) };
        let mut emitted = false;
        if let Some(matches) = matches {
            for &ri in matches {
                let mut combined = left_row.clone();
                combined.extend(right.row(ri));
                let pass = match residual {
                    Some(f) => f.eval_row(&combined)?.as_bool()? == Some(true),
                    None => true,
                };
                if pass {
                    rows.push(combined);
                    emitted = true;
                }
            }
        }
        if !emitted && kind == JoinKind::LeftOuter {
            let mut combined = left_row;
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            rows.push(combined);
        }
    }
    Batch::from_rows(schema, &rows)
}

/// Inner join building on the (smaller) left input, probing with the
/// right; output column order stays `left ++ right`.
fn reference_join_build_left(
    left: &Batch,
    right: &Batch,
    on: &[(usize, usize)],
    schema: Arc<Schema>,
) -> Result<Batch> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(left.num_rows());
    'build: for i in 0..left.num_rows() {
        let mut key = Vec::with_capacity(on.len());
        for &(lc, _) in on {
            let v = left.columns[lc].get(i);
            if v.is_null() {
                continue 'build;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }
    let mut rows: Vec<Vec<Value>> = Vec::new();
    'probe: for j in 0..right.num_rows() {
        let right_row = right.row(j);
        let mut key = Vec::with_capacity(on.len());
        for &(_, rc) in on {
            let v = right_row[rc].clone();
            if v.is_null() {
                continue 'probe;
            }
            key.push(v);
        }
        if let Some(matches) = table.get(&key) {
            for &li in matches {
                let mut combined = left.row(li);
                combined.extend(right_row.iter().cloned());
                rows.push(combined);
            }
        }
    }
    Batch::from_rows(schema, &rows)
}

/// `rows` random rows `(k, p, s)`: a join key drawn from `domain` (many
/// duplicates, one NULL in six) stored as INT or DECIMAL(2), the row's
/// position as payload so output order is visible, and a nullable string
/// whose dictionary is in this side's first-seen order.
fn join_side(rng: &mut SplitMix64, rows: usize, dec_key: bool, domain: &[i64]) -> Batch {
    let key_ty = if dec_key { SqlType::Decimal { scale: 2 } } else { SqlType::Int };
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", key_ty, true),
        Field::new("p", SqlType::Int, false),
        Field::new("s", SqlType::Text, true),
    ]));
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|p| {
            let k = match rng.random_range(0..=domain.len()) {
                0 => Value::Null,
                i if dec_key => Value::Dec(Decimal::from_units(domain[i - 1] as i128 * 100, 2)),
                i => Value::Int(domain[i - 1]),
            };
            let s = match rng.random_range(0..4u32) {
                0 => Value::Null,
                tag => Value::str(format!("s{tag}")),
            };
            vec![k, Value::Int(p as i64), s]
        })
        .collect();
    Batch::from_rows(schema, &rows).unwrap()
}

/// Five INT keys whose columnar routing hashes agree in their low 12 bits:
/// at these sizes they share a partition and a slot, so one chain carries
/// several distinct keys.
fn colliding_keys() -> Vec<i64> {
    let ints: Vec<Vec<Value>> = (0..200_000).map(|i| vec![Value::Int(i)]).collect();
    let schema = Arc::new(Schema::new(vec![Field::new("k", SqlType::Int, false)]));
    let batch = Batch::from_rows(schema, &ints).unwrap();
    let hashes = kernels::hash_keys(&[&batch.columns[0]], 0..ints.len());
    let keys: Vec<i64> = (0..ints.len())
        .filter(|&i| (hashes[i] ^ hashes[0]) & 0xfff == 0)
        .map(|i| i as i64)
        .collect();
    assert!(keys.len() >= 5, "{keys:?}");
    keys[..5].to_vec()
}

/// The one hash join against the row-wise reference — same rows in the same
/// order — over NULL keys, duplicate build keys (a probe row's matches in
/// build-row order), INT-vs-DECIMAL key pairs, string keys under different
/// dictionaries, composite keys, distinct keys chained in one slot, a
/// residual on every kind, empty sides, and build sides of one chunk up to
/// several partitions, at every thread count.
#[test]
fn one_hash_join_matches_the_row_wise_reference() {
    // Four-row chunks: sizes 7 / 8 / 9 straddle the two-morsel line below
    // which the engine used to fork to the reference algorithm, 40 spreads
    // a build side over several chunks and partitions.
    let sizes = [0usize, 3, 7, 8, 9, 40];
    let residual = Expr::col(1).binary(BinOp::Lt, Expr::col(4));
    let mut rng = SplitMix64::seed_from_u64(16);
    let domains = [(1..=5).collect(), colliding_keys()];
    let ons: [&[(usize, usize)]; 3] = [&[(0, 0)], &[(2, 2)], &[(0, 0), (2, 2)]];
    for (&l, &r) in sizes.iter().flat_map(|l| sizes.iter().map(move |r| (l, r))) {
        for (domain, dec_right) in domains.iter().flat_map(|d| [(d, false), (d, true)]) {
            let left = join_side(&mut rng, l, false, domain);
            let right = join_side(&mut rng, r, dec_right, domain);
            let fields = left.schema.fields().iter().chain(right.schema.fields()).cloned();
            let schema = Arc::new(Schema::new(fields.collect()));
            for (kind, residual) in [
                (JoinKind::Inner, None),
                (JoinKind::Inner, Some(&residual)),
                (JoinKind::LeftOuter, None),
                (JoinKind::LeftOuter, Some(&residual)),
            ] {
                for on in ons {
                    let want =
                        reference_join(&left, &right, kind, on, residual, Arc::clone(&schema))
                            .unwrap()
                            .to_rows();
                    for threads in [1, 2, 4] {
                        let config = ParallelConfig { threads, morsel_rows: 4 };
                        let mut profile = QueryProfile::default();
                        let schema = Arc::clone(&schema);
                        let got = hash_join(
                            &left,
                            &right,
                            kind,
                            on,
                            residual,
                            schema,
                            config,
                            &mut profile,
                        )
                        .unwrap();
                        assert_eq!(
                            got.to_rows(),
                            want,
                            "{l} x {r} rows, keys {domain:?}, dec_right={dec_right}, {kind:?} on \
                             {on:?}, residual={}, threads={threads}",
                            residual.is_some()
                        );
                    }
                }
            }
        }
    }
}

/// An inner join with an empty input, and a LEFT OUTER join with an empty
/// left, is an empty batch with the join's schema, and nothing is built or
/// probed for it; a LEFT OUTER join with an empty right pads every left row.
#[test]
fn a_join_with_an_empty_input_builds_nothing() {
    let mut rng = SplitMix64::seed_from_u64(35);
    let (full, empty) =
        (join_side(&mut rng, 9, false, &[1, 2, 3]), join_side(&mut rng, 0, false, &[1]));
    let schema = |l: &Batch, r: &Batch| {
        Arc::new(Schema::new(l.schema.fields().iter().chain(r.schema.fields()).cloned().collect()))
    };
    let config = ParallelConfig { threads: 1, morsel_rows: 4 };
    let join = |left: &Batch, right: &Batch, kind, profile: &mut QueryProfile| {
        let schema = schema(left, right);
        hash_join(left, right, kind, &[(0, 0)], None, schema, config, profile).unwrap()
    };
    for (left, right, kind) in [
        (&empty, &full, JoinKind::Inner),
        (&full, &empty, JoinKind::Inner),
        (&empty, &full, JoinKind::LeftOuter),
    ] {
        let mut profile = QueryProfile::default();
        let out = join(left, right, kind, &mut profile);
        assert_eq!((out.num_rows(), &out.schema), (0, &schema(left, right)), "{kind:?}");
        assert_eq!(profile.pipelines, 0, "{kind:?}: nothing was built or probed");
    }
    let padded = join(&full, &empty, JoinKind::LeftOuter, &mut QueryProfile::default());
    let pad = |mut row: Vec<Value>| {
        row.extend([Value::Null, Value::Null, Value::Null]);
        row
    };
    assert_eq!(padded.to_rows(), full.to_rows().into_iter().map(pad).collect::<Vec<_>>());
}

/// Operator-at-a-time evaluation of `plan` by reference operators — a whole
/// scan, then one row-wise pass per node ([`reference_join`] for joins, a
/// `Vec<Value>`-keyed map in first-seen order for aggregates): the oracle
/// [`pipelines_match_operator_at_a_time_evaluation`] holds the engine to.
fn reference(plan: &PlanRef, e: &StorageEngine, snap: Snapshot) -> Result<Batch> {
    let truth = |pred: &Expr, row: &[Value]| Ok(pred.eval_row(row)?.as_bool()? == Some(true));
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            let all = e.scan(&table.name, snap)?;
            let columns = match cols.narrowed() {
                Some(ordinals) => ordinals.iter().map(|&c| all.columns[c].clone()).collect(),
                None => all.columns,
            };
            Batch::new(Arc::clone(schema), columns)
        }
        LogicalPlan::Filter { input, predicate } => {
            let input = reference(input, e, snap)?;
            let mut keep = Vec::new();
            for row in input.to_rows() {
                if truth(predicate, &row)? {
                    keep.push(row);
                }
            }
            Batch::from_rows(Arc::clone(&input.schema), &keep)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let rows = reference(input, e, snap)?.to_rows();
            let eval = |row: &Vec<Value>| exprs.iter().map(|(x, _)| x.eval_row(row)).collect();
            let out: Vec<Vec<Value>> = rows.iter().map(eval).collect::<Result<_>>()?;
            Batch::from_rows(Arc::clone(schema), &out)
        }
        LogicalPlan::Join { left, right, kind, on, filter, schema, .. } => {
            let (l, r) = (reference(left, e, snap)?, reference(right, e, snap)?);
            reference_join(&l, &r, *kind, on, filter.as_ref(), Arc::clone(schema))
        }
        LogicalPlan::Aggregate { input, group_by, aggs, schema } => {
            let fresh = || aggs.iter().map(|(a, _)| a.accumulator()).collect::<Vec<_>>();
            let mut slot_of: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut groups: Vec<(Vec<Value>, Vec<vdm_expr::Accumulator>)> = Vec::new();
            if group_by.is_empty() {
                slot_of.insert(Vec::new(), 0);
                groups.push((Vec::new(), fresh()));
            }
            for row in reference(input, e, snap)?.to_rows() {
                let key: Vec<Value> =
                    group_by.iter().map(|(x, _)| x.eval_row(&row)).collect::<Result<_>>()?;
                let slot = *slot_of.entry(key.clone()).or_insert_with(|| {
                    groups.push((key, fresh()));
                    groups.len() - 1
                });
                for ((agg, _), acc) in aggs.iter().zip(&mut groups[slot].1) {
                    let v = agg.arg.as_ref().map_or(Ok(Value::Int(1)), |a| a.eval_row(&row))?;
                    acc.update(&v)?;
                }
            }
            let mut out = Vec::new();
            for (mut row, accs) in groups {
                for acc in &accs {
                    row.push(acc.finish()?);
                }
                out.push(row);
            }
            Batch::from_rows(Arc::clone(schema), &out)
        }
        other => panic!("no reference operator for {}", other.op_name()),
    }
}

/// `fact(k, g, d, amt, s)` — main fragment, unmerged delta, rows deleted from
/// both — beside `dim(id, name, w)` (unique ids, with gaps: an inner join
/// drops rows, a left join pads them) and `multi(id, seq, tag)` (0–3 rows
/// per id: a join on it expands).
fn pipeline_world() -> (StorageEngine, [Arc<TableDef>; 3]) {
    let dec = |u: i64| Value::Dec(Decimal::from_units(u as i128, 2));
    let fact = TableBuilder::new("fact")
        .column("k", SqlType::Int, false)
        .column("g", SqlType::Int, true)
        .column("d", SqlType::Int, false)
        .column("amt", SqlType::Decimal { scale: 2 }, false)
        .column("s", SqlType::Text, true)
        .primary_key(&["k"]);
    let dim = TableBuilder::new("dim")
        .column("id", SqlType::Int, false)
        .column("name", SqlType::Text, false)
        .column("w", SqlType::Int, false)
        .primary_key(&["id"]);
    let multi = TableBuilder::new("multi")
        .column("id", SqlType::Int, false)
        .column("seq", SqlType::Int, false)
        .column("tag", SqlType::Text, true)
        .primary_key(&["id", "seq"]);
    let defs = [fact, dim, multi].map(|t| Arc::new(t.build().unwrap()));
    let e = StorageEngine::new();
    defs.iter().for_each(|t| e.create_table(Arc::clone(t)).unwrap());
    let mut rng = SplitMix64::seed_from_u64(19);
    let mut fact_row = |k: i64| {
        let g = if rng.random_range(0..7u32) == 0 { Value::Null } else { Value::Int(k % 5) };
        let s = match rng.random_range(0..4u32) {
            0 => Value::Null,
            tag => Value::str(format!("s{tag}")),
        };
        vec![Value::Int(k), g, Value::Int(rng.random_range(0..14)), dec(k * 37 % 1000), s]
    };
    e.insert("fact", (0..230).map(&mut fact_row).collect()).unwrap();
    let dims = (0..12i64).filter(|id| id % 4 != 3);
    e.insert(
        "dim",
        dims.map(|id| vec![Value::Int(id), Value::str(format!("n{id}")), Value::Int(id * 20)])
            .collect(),
    )
    .unwrap();
    let multis = (0..12i64).flat_map(|id| (0..id % 4).map(move |seq| (id, seq)));
    let tag = |seq: i64| if seq == 1 { Value::Null } else { Value::str(format!("t{seq}")) };
    e.insert(
        "multi",
        multis.map(|(id, seq)| vec![Value::Int(id), Value::Int(seq), tag(seq)]).collect(),
    )
    .unwrap();
    for t in ["fact", "dim", "multi"] {
        e.merge_delta(t).unwrap();
    }
    e.insert("fact", (230..300).map(&mut fact_row).collect()).unwrap();
    e.insert("dim", vec![vec![Value::Int(12), Value::str("n12"), Value::Int(5)]]).unwrap();
    let doomed = |r: &[Value]| matches!(r[0], Value::Int(k) if k % 11 == 4 || k == 0);
    assert!(e.delete_where("fact", &doomed).unwrap() > 20);
    (e, defs)
}

/// A random stack of 1–5 steps over `fact` — columnar and row-wise filters
/// (one that keeps nothing), column maps, computed projections, an N:1 left
/// join, an inner join that drops rows, a 1:N join that expands, a residual
/// join — under one of four sinks.
fn random_stack(rng: &mut SplitMix64, [fact, dim, multi]: &[Arc<TableDef>; 3]) -> PlanRef {
    let mut plan = LogicalPlan::scan(Arc::clone(fact));
    let typed = |plan: &PlanRef, ty: SqlType| -> Vec<usize> {
        let schema = plan.schema();
        (0..schema.len()).filter(|&c| schema.field(c).ty == ty).collect()
    };
    let pick = |rng: &mut SplitMix64, from: &[usize]| from[rng.random_range(0..from.len())];
    let mut expansions = 0;
    for _ in 0..rng.random_range(1..=5usize) {
        // Every step keeps at least one INT column, so one is always at hand.
        let ints = typed(&plan, SqlType::Int);
        let (a, b) = (pick(rng, &ints), pick(rng, &ints));
        let width = plan.schema().len();
        plan = match rng.random_range(0..9u32) {
            0 => {
                let bound = Expr::int(rng.random_range(0..12));
                let pred = Expr::col(a).binary(BinOp::Lt, bound).or(Expr::col(b).eq(Expr::int(3)));
                LogicalPlan::filter(plan, pred.or(Expr::IsNull(Box::new(Expr::col(a)))))
            }
            1 => {
                let sum = Expr::col(a).binary(BinOp::Add, Expr::col(b));
                LogicalPlan::filter(plan, sum.binary(BinOp::Gt, Expr::int(rng.random_range(0..9))))
            }
            2 => LogicalPlan::filter(plan, Expr::col(a).binary(BinOp::Lt, Expr::int(-1))),
            3 => {
                // Reorder, drop and duplicate; `a` survives.
                let mut map: Vec<usize> =
                    (0..width).filter(|_| rng.random_range(0..3u32) > 0).collect();
                map.insert(rng.random_range(0..=map.len()), a);
                LogicalPlan::project_cols(plan, &map)
            }
            4 => {
                let sum = Expr::col(a).binary(BinOp::Add, Expr::col(b));
                let mut exprs = vec![(Expr::col(a), "a".to_string()), (sum, "sum".to_string())];
                exprs.extend((0..width).map(|c| (Expr::col(c), format!("c{c}"))));
                LogicalPlan::project(plan, exprs)
            }
            5 => LogicalPlan::left_join(plan, LogicalPlan::scan(Arc::clone(dim)), vec![(a, 0)]),
            6 => LogicalPlan::inner_join(plan, LogicalPlan::scan(Arc::clone(dim)), vec![(a, 0)]),
            7 if expansions < 2 => {
                expansions += 1;
                LogicalPlan::inner_join(plan, LogicalPlan::scan(Arc::clone(multi)), vec![(a, 0)])
            }
            _ => {
                let residual = Expr::col(width + 2).binary(BinOp::Gt, Expr::col(b));
                let dim = LogicalPlan::scan(Arc::clone(dim));
                let kind = [JoinKind::Inner, JoinKind::LeftOuter][rng.random_range(0..2usize)];
                LogicalPlan::join(plan, dim, kind, vec![(a, 0)], Some(residual), None, false)
            }
        }
        .unwrap();
    }
    let ints = typed(&plan, SqlType::Int);
    let keys: Vec<usize> = (0..plan.schema().len()).collect();
    let (a, key) = (pick(rng, &ints), pick(rng, &keys));
    let sum = AggExpr::new(AggFunc::Sum, Expr::col(a));
    let aggs = vec![(AggExpr::count_star(), "n".to_string()), (sum, "sum".to_string())];
    match rng.random_range(0..4u32) {
        0 => plan,
        1 => {
            let bucket = Expr::col(a).binary(BinOp::Add, Expr::int(1));
            let group = vec![(Expr::col(key), "key".to_string()), (bucket, "bucket".to_string())];
            LogicalPlan::aggregate(plan, group, aggs).unwrap()
        }
        2 => LogicalPlan::aggregate(plan, vec![], aggs).unwrap(),
        _ => {
            let mut distinct = AggExpr::new(AggFunc::Count, Expr::col(a));
            distinct.distinct = true;
            let group = vec![(Expr::col(key), "key".to_string())];
            LogicalPlan::aggregate(plan, group, vec![(distinct, "distinct".to_string())]).unwrap()
        }
    }
}

/// The engine's pipelines against [`reference`]: same rows in the same order
/// (group order included) at every morsel size and thread count — random
/// stacks, then batch-sourced pipelines: a filter and a computed projection
/// over an aggregate's output, and that output probing a join, in morsels
/// smaller than it.
#[test]
fn pipelines_match_operator_at_a_time_evaluation() {
    let (e, defs) = pipeline_world();
    let snap = e.snapshot();
    let mut rng = SplitMix64::seed_from_u64(2019);
    let mut plans: Vec<PlanRef> = (0..80).map(|_| random_stack(&mut rng, &defs)).collect();
    let per_key = LogicalPlan::aggregate(
        LogicalPlan::scan(Arc::clone(&defs[0])),
        vec![(Expr::col(2), "d".into()), (Expr::col(1), "g".into())],
        vec![(AggExpr::count_star(), "n".into())],
    )
    .unwrap();
    let having =
        LogicalPlan::filter(Arc::clone(&per_key), Expr::col(2).binary(BinOp::Gt, Expr::int(3)));
    let doubled = Expr::col(2).binary(BinOp::Mul, Expr::int(2));
    plans.push(LogicalPlan::project(having.unwrap(), vec![(doubled, "n2".into())]).unwrap());
    let dim = LogicalPlan::scan(Arc::clone(&defs[1]));
    plans.push(LogicalPlan::left_join(per_key, dim, vec![(0, 0)]).unwrap());
    for (n, plan) in plans.iter().enumerate() {
        let want = reference(plan, &e, snap).unwrap().to_rows();
        for morsel_rows in [7, 64, 4096] {
            for threads in [1, 2, 4] {
                let parallel = ParallelConfig { threads, morsel_rows };
                let opts = ExecOptions { snapshot: Some(snap), parallel };
                let got = execute_with(plan, &e, &opts).unwrap().batch.to_rows();
                assert_eq!(got, want, "stack {n} at {parallel:?}:\n{}", vdm_plan::explain(plan));
            }
        }
    }
}
