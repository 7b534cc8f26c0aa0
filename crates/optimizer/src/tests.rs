//! Optimizer tests: the paper's queries as plan builders, checked for plan
//! shape per profile (Tables 1–4) and for result equivalence on data.

use crate::{Capability, Optimizer, Profile};
use std::sync::Arc;
use vdm_catalog::{TableBuilder, TableDef};
use vdm_expr::{AggExpr, AggFunc, BinOp, Expr};
use vdm_plan::{plan_stats, JoinKind, LogicalPlan, PlanRef, SortKey};
use vdm_storage::StorageEngine;
use vdm_types::{SqlType, Value};

// ---------------------------------------------------------------- schema

fn orders() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("orders")
            .column("o_orderkey", SqlType::Int, false)
            .column("o_custkey", SqlType::Int, false)
            .column("o_totalprice", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["o_orderkey"])
            .foreign_key(&["o_custkey"], "customer", &["c_custkey"])
            .build()
            .unwrap(),
    )
}

fn customer() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("customer")
            .column("c_custkey", SqlType::Int, false)
            .column("c_name", SqlType::Text, false)
            .column("c_nationkey", SqlType::Int, false)
            .column("c_acctbal", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["c_custkey"])
            .build()
            .unwrap(),
    )
}

fn nation() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("nation")
            .column("n_nationkey", SqlType::Int, false)
            .column("n_name", SqlType::Text, false)
            .primary_key(&["n_nationkey"])
            .build()
            .unwrap(),
    )
}

fn lineitem() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("lineitem")
            .column("l_orderkey", SqlType::Int, false)
            .column("l_linenumber", SqlType::Int, false)
            .column("l_partkey", SqlType::Int, false)
            .column("l_quantity", SqlType::Int, false)
            .primary_key(&["l_orderkey", "l_linenumber"])
            .build()
            .unwrap(),
    )
}

fn part() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("part")
            .column("p_partkey", SqlType::Int, false)
            .column("p_name", SqlType::Text, false)
            .primary_key(&["p_partkey"])
            .build()
            .unwrap(),
    )
}

/// Populates a small, referentially consistent TPC-H subset.
fn engine() -> StorageEngine {
    let e = StorageEngine::new();
    for t in [orders(), customer(), nation(), lineitem(), part()] {
        e.create_table(t).unwrap();
    }
    let dec = |s: &str| Value::Dec(s.parse().unwrap());
    e.insert("nation", (0..5).map(|i| vec![Value::Int(i), Value::str(format!("N{i}"))]).collect())
        .unwrap();
    e.insert(
        "customer",
        (0..20)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("cust{i}")),
                    Value::Int(i % 5),
                    dec(&format!("{}.50", 100 + i)),
                ]
            })
            .collect(),
    )
    .unwrap();
    e.insert(
        "orders",
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i % 20), dec(&format!("{}.25", 10 * i))])
            .collect(),
    )
    .unwrap();
    e.insert(
        "part",
        (0..10).map(|i| vec![Value::Int(i), Value::str(format!("part{i}"))]).collect(),
    )
    .unwrap();
    let mut li = Vec::new();
    for o in 0..50 {
        for ln in 1..=(o % 3 + 1) {
            li.push(vec![Value::Int(o), Value::Int(ln), Value::Int(o % 10), Value::Int(ln * 7)]);
        }
    }
    e.insert("lineitem", li).unwrap();
    e
}

fn sorted_rows(b: &vdm_storage::Batch) -> Vec<Vec<Value>> {
    let mut rows = b.to_rows();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let c = x.total_cmp(y);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Asserts an optimized plan produces the same rows as the original.
fn assert_equivalent(plan: &PlanRef, optimized: &PlanRef, e: &StorageEngine) {
    let a = vdm_exec::execute(plan, e).unwrap();
    let b = vdm_exec::execute(optimized, e).unwrap();
    assert_eq!(
        sorted_rows(&a),
        sorted_rows(&b),
        "optimized plan changed results!\noriginal:\n{}\noptimized:\n{}",
        vdm_plan::explain(plan),
        vdm_plan::explain(optimized)
    );
}

// ------------------------------------------------ Fig. 5: the UAJ queries

/// `select o_orderkey from orders LEFT JOIN <augmenter> ON o_<k> = <key>`.
fn uaj_query(augmenter: PlanRef, left_key: usize, right_key: usize) -> PlanRef {
    let join =
        LogicalPlan::left_join(LogicalPlan::scan(orders()), augmenter, vec![(left_key, right_key)])
            .unwrap();
    LogicalPlan::project(join, vec![(Expr::col(0), "o_orderkey".into())]).unwrap()
}

pub(crate) fn uaj1() -> PlanRef {
    uaj_query(LogicalPlan::scan(customer()), 1, 0)
}

pub(crate) fn uaj2() -> PlanRef {
    let agg = LogicalPlan::aggregate(
        LogicalPlan::scan(lineitem()),
        vec![(Expr::col(0), "l_orderkey".into())],
        vec![(AggExpr::count_star(), "cnt".into())],
    )
    .unwrap();
    uaj_query(agg, 0, 0)
}

pub(crate) fn uaj3() -> PlanRef {
    let filtered =
        LogicalPlan::filter(LogicalPlan::scan(lineitem()), Expr::col(1).eq(Expr::int(1))).unwrap();
    uaj_query(filtered, 0, 0)
}

pub(crate) fn uaj1a() -> PlanRef {
    // Augmenter: customer ⋈ nation (non-duplicating join added).
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(customer()),
        LogicalPlan::scan(nation()),
        vec![(2, 0)],
    )
    .unwrap();
    uaj_query(j, 1, 0)
}

pub(crate) fn uaj2a() -> PlanRef {
    // Augmenter: group-by over (lineitem ⋈ part).
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(lineitem()),
        LogicalPlan::scan(part()),
        vec![(2, 0)],
    )
    .unwrap();
    let agg = LogicalPlan::aggregate(
        j,
        vec![(Expr::col(0), "l_orderkey".into())],
        vec![(AggExpr::new(AggFunc::Sum, Expr::col(3)), "qty".into())],
    )
    .unwrap();
    uaj_query(agg, 0, 0)
}

pub(crate) fn uaj3a() -> PlanRef {
    // Augmenter: const filter over (lineitem ⋈ part).
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(lineitem()),
        LogicalPlan::scan(part()),
        vec![(2, 0)],
    )
    .unwrap();
    let f = LogicalPlan::filter(j, Expr::col(1).eq(Expr::int(1))).unwrap();
    uaj_query(f, 0, 0)
}

pub(crate) fn uaj1b() -> PlanRef {
    // Augmenter: ORDER BY + LIMIT over customer.
    let s = LogicalPlan::sort(LogicalPlan::scan(customer()), vec![SortKey::desc(3)]).unwrap();
    let l = LogicalPlan::limit(s, 0, Some(10));
    uaj_query(l, 1, 0)
}

fn join_free(optimizer: &Optimizer, plan: &PlanRef) -> bool {
    let opt = optimizer.optimize(plan).unwrap();
    plan_stats(&opt).joins == 0
}

type QueryBuilder = fn() -> PlanRef;

#[test]
fn table1_uaj_matrix_matches_paper() {
    let queries: Vec<(&str, QueryBuilder)> = vec![
        ("UAJ 1", uaj1),
        ("UAJ 2", uaj2),
        ("UAJ 3", uaj3),
        ("UAJ 1a", uaj1a),
        ("UAJ 2a", uaj2a),
        ("UAJ 3a", uaj3a),
        ("UAJ 1b", uaj1b),
    ];
    // Paper Table 1, rows in query order: HANA, Postgres, X, Y, Z.
    let expected = [
        [true, true, false, true, true],
        [true, true, false, false, true],
        [true, true, false, true, true],
        [true, false, false, false, true],
        [true, true, false, false, true],
        [true, false, false, false, true],
        [true, false, false, false, false],
    ];
    let systems = Profile::paper_systems();
    for (qi, (name, q)) in queries.iter().enumerate() {
        for (si, profile) in systems.iter().enumerate() {
            let got = join_free(&Optimizer::new(profile.clone()), &q());
            assert_eq!(
                got,
                expected[qi][si],
                "{name} under {}: expected {}, got {}",
                profile.name(),
                expected[qi][si],
                got
            );
        }
    }
}

#[test]
fn uaj_rewrites_preserve_results() {
    let e = engine();
    let hana = Optimizer::hana();
    for q in [uaj1(), uaj2(), uaj3(), uaj1a(), uaj2a(), uaj3a(), uaj1b()] {
        let opt = hana.optimize(&q).unwrap();
        assert_equivalent(&q, &opt, &e);
    }
}

#[test]
fn uaj_not_removed_when_augmenter_used() {
    // Selecting a customer column keeps the join.
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(customer()),
        vec![(1, 0)],
    )
    .unwrap();
    let q =
        LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(4), "name".into())])
            .unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 1);
}

#[test]
fn uaj_not_removed_when_right_side_not_unique() {
    // orders LEFT JOIN lineitem on o_orderkey = l_orderkey duplicates rows.
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(lineitem()),
        vec![(0, 0)],
    )
    .unwrap();
    let q = LogicalPlan::project(join, vec![(Expr::col(0), "k".into())]).unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 1, "non-unique augmenter must stay");
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn aj2b_empty_augmenter_removed() {
    // Left-outer join against σ(false): many-to-zero (AJ 2b).
    let empty =
        LogicalPlan::filter(LogicalPlan::scan(lineitem()), Expr::int(1).eq(Expr::int(0))).unwrap();
    let join = LogicalPlan::left_join(LogicalPlan::scan(orders()), empty, vec![(0, 0)]).unwrap();
    let q = LogicalPlan::project(join, vec![(Expr::col(0), "k".into())]).unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 0);
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn aj1a_inner_fk_join_removed() {
    // Inner join along the orders→customer FK: exactly-one witness.
    let join = LogicalPlan::inner_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(customer()),
        vec![(1, 0)],
    )
    .unwrap();
    let q = LogicalPlan::project(join, vec![(Expr::col(0), "k".into())]).unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 0);
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn inner_join_without_fk_not_removed() {
    // Same join shape but no FK from lineitem to customer: unsafe.
    let join = LogicalPlan::inner_join(
        LogicalPlan::scan(lineitem()),
        LogicalPlan::scan(customer()),
        vec![(0, 0)],
    )
    .unwrap();
    let q = LogicalPlan::project(join, vec![(Expr::col(0), "k".into())]).unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 1);
}

#[test]
fn declared_cardinality_enables_uaj_without_constraints() {
    // §7.3: no key on the augmenter, but MANY TO ONE declared.
    let keyless = Arc::new(
        TableBuilder::new("curr")
            .column("code", SqlType::Int, false)
            .column("rate", SqlType::Decimal { scale: 4 }, false)
            .build()
            .unwrap(),
    );
    let join = LogicalPlan::join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(keyless),
        JoinKind::LeftOuter,
        vec![(1, 0)],
        None,
        Some(vdm_plan::DeclaredCardinality::ManyToOne),
        false,
    )
    .unwrap();
    let q = LogicalPlan::project(join, vec![(Expr::col(0), "k".into())]).unwrap();
    assert!(join_free(&Optimizer::hana(), &q));
    // Without trust, it stays.
    let no_trust = Optimizer::new(Profile::hana().without(Capability::TrustDeclaredCardinality));
    assert!(!join_free(&no_trust, &q));
}

// ------------------------------------------------- Fig. 6: limit pushdown

fn paging_query() -> PlanRef {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(customer()),
        vec![(1, 0)],
    )
    .unwrap();
    LogicalPlan::limit(join, 1, Some(10))
}

/// True when some Limit sits strictly below some Join.
fn limit_below_join(plan: &PlanRef) -> bool {
    fn walk(p: &PlanRef, under_join: bool) -> bool {
        if matches!(p.as_ref(), vdm_plan::LogicalPlan::Limit { .. }) && under_join {
            return true;
        }
        let is_join = matches!(p.as_ref(), vdm_plan::LogicalPlan::Join { .. });
        p.children().iter().any(|c| walk(c, under_join || is_join))
    }
    walk(plan, false)
}

#[test]
fn table2_limit_pushdown_only_hana() {
    for profile in Profile::paper_systems() {
        let opt = Optimizer::new(profile.clone()).optimize(&paging_query()).unwrap();
        let pushed = limit_below_join(&opt);
        assert_eq!(pushed, profile.name() == "hana", "profile {}", profile.name());
    }
}

#[test]
fn limit_pushdown_preserves_row_count() {
    let e = engine();
    let q = paging_query();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    let a = vdm_exec::execute(&q, &e).unwrap();
    let b = vdm_exec::execute(&opt, &e).unwrap();
    assert_eq!(a.num_rows(), b.num_rows());
    assert_eq!(a.num_rows(), 10);
}

#[test]
fn limit_not_pushed_across_duplicating_join() {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(lineitem()),
        vec![(0, 0)],
    )
    .unwrap();
    let q = LogicalPlan::limit(join, 0, Some(5));
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert!(!limit_below_join(&opt), "limit across a 1:n join is unsound");
}

// --------------------------------------------------- Fig. 10: ASJ queries

/// Fig. 10(a): bare self-join on key.
fn asj_basic() -> PlanRef {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(customer()),
        LogicalPlan::scan(customer()),
        vec![(0, 0)],
    )
    .unwrap();
    // Use an augmenter field: c_name from the right side.
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(5), "name".into())])
        .unwrap()
}

/// Fig. 10(b): anchor is a subquery (projection + filter over the table).
fn asj_subquery() -> PlanRef {
    let anchor = LogicalPlan::project(
        LogicalPlan::filter(
            LogicalPlan::scan(customer()),
            Expr::col(2).binary(BinOp::Gt, Expr::int(0)),
        )
        .unwrap(),
        vec![(Expr::col(0), "k".into()), (Expr::col(3), "bal".into())],
    )
    .unwrap();
    let join = LogicalPlan::left_join(anchor, LogicalPlan::scan(customer()), vec![(0, 0)]).unwrap();
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(3), "name".into())])
        .unwrap()
}

/// Fig. 10(c): filtered augmenter; `subsuming` controls whether the anchor
/// predicate implies the augmenter predicate.
fn asj_filtered(subsuming: bool) -> PlanRef {
    let anchor =
        LogicalPlan::filter(LogicalPlan::scan(customer()), Expr::col(2).eq(Expr::int(1))).unwrap();
    let aug_pred =
        if subsuming { Expr::col(2).eq(Expr::int(1)) } else { Expr::col(2).eq(Expr::int(2)) };
    let aug = LogicalPlan::filter(LogicalPlan::scan(customer()), aug_pred).unwrap();
    let join = LogicalPlan::left_join(anchor, aug, vec![(0, 0)]).unwrap();
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(5), "name".into())])
        .unwrap()
}

fn self_join_gone(optimizer: &Optimizer, plan: &PlanRef) -> bool {
    let opt = optimizer.optimize(plan).unwrap();
    plan_stats(&opt).joins == 0
}

#[test]
fn table3_asj_matrix_only_hana() {
    let queries: Vec<PlanRef> = vec![asj_basic(), asj_subquery(), asj_filtered(true)];
    for profile in Profile::paper_systems() {
        for (i, q) in queries.iter().enumerate() {
            let gone = self_join_gone(&Optimizer::new(profile.clone()), q);
            assert_eq!(gone, profile.name() == "hana", "ASJ query {i} under {}", profile.name());
        }
    }
}

#[test]
fn asj_rewires_preserve_results() {
    let e = engine();
    let hana = Optimizer::hana();
    for q in [asj_basic(), asj_subquery(), asj_filtered(true)] {
        let opt = hana.optimize(&q).unwrap();
        assert_eq!(plan_stats(&opt).joins, 0);
        assert_equivalent(&q, &opt, &e);
    }
}

#[test]
fn asj_blocked_without_subsumption() {
    let q = asj_filtered(false);
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 1, "non-subsuming augmenter filter must stay");
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn asj_blocked_when_anchor_key_computed() {
    // Anchor key is k+0 — not a pure column: re-wiring is unsafe.
    let anchor = LogicalPlan::project(
        LogicalPlan::scan(customer()),
        vec![(Expr::col(0).binary(BinOp::Add, Expr::int(0)), "k".into())],
    )
    .unwrap();
    let join = LogicalPlan::left_join(anchor, LogicalPlan::scan(customer()), vec![(0, 0)]).unwrap();
    let q =
        LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(2), "name".into())])
            .unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).joins, 1);
}

#[test]
fn asj_through_anchor_join() {
    // Anchor contains an extra join; the self-join table sits on its left.
    let anchor = LogicalPlan::left_join(
        LogicalPlan::scan(customer()),
        LogicalPlan::scan(nation()),
        vec![(2, 0)],
    )
    .unwrap();
    let join = LogicalPlan::left_join(anchor, LogicalPlan::scan(customer()), vec![(0, 0)]).unwrap();
    let q = LogicalPlan::project(
        join,
        vec![
            (Expr::col(0), "k".into()),
            (Expr::col(5), "n_name".into()),
            (Expr::col(7), "name".into()),
        ],
    )
    .unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    let stats = plan_stats(&opt);
    assert_eq!(stats.joins, 1, "only the nation join remains:\n{}", vdm_plan::explain(&opt));
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

// ------------------------------------------- Fig. 12: UNION ALL & UAJ

/// Fig. 12(a): augmenter = union of disjoint subsets of customer.
fn uaj_union_disjoint() -> PlanRef {
    let a =
        LogicalPlan::filter(LogicalPlan::scan(customer()), Expr::col(2).eq(Expr::int(1))).unwrap();
    let b = LogicalPlan::filter(
        LogicalPlan::scan(customer()),
        Expr::col(2).binary(BinOp::NotEq, Expr::int(1)),
    )
    .unwrap();
    let u = LogicalPlan::union_all(vec![a, b]).unwrap();
    uaj_query(u, 1, 0)
}

/// Fig. 12(b): augmenter = branch-id union (active ⊎ draft pattern).
fn uaj_union_branch_id() -> PlanRef {
    let mk = |bid: i64| {
        LogicalPlan::project(
            LogicalPlan::scan(customer()),
            vec![
                (Expr::int(bid), "bid".into()),
                (Expr::col(0), "key".into()),
                (Expr::col(1), "name".into()),
            ],
        )
        .unwrap()
    };
    let u = LogicalPlan::union_all(vec![mk(0), mk(1)]).unwrap();
    // orders LEFT JOIN u ON 0 = bid AND o_custkey = key; model the constant
    // bid probe as an extra column on the left side.
    let left = LogicalPlan::project(
        LogicalPlan::scan(orders()),
        vec![
            (Expr::col(0), "o_orderkey".into()),
            (Expr::col(1), "o_custkey".into()),
            (Expr::int(0), "probe_bid".into()),
        ],
    )
    .unwrap();
    let join = LogicalPlan::left_join(left, u, vec![(2, 0), (1, 1)]).unwrap();
    LogicalPlan::project(join, vec![(Expr::col(0), "o_orderkey".into())]).unwrap()
}

#[test]
fn table4_union_uaj_only_hana() {
    for profile in Profile::paper_systems() {
        let opt = Optimizer::new(profile.clone());
        assert_eq!(
            join_free(&opt, &uaj_union_disjoint()),
            profile.name() == "hana",
            "Fig 12(a) under {}",
            profile.name()
        );
        assert_eq!(
            join_free(&opt, &uaj_union_branch_id()),
            profile.name() == "hana",
            "Fig 12(b) under {}",
            profile.name()
        );
    }
}

#[test]
fn union_uaj_preserves_results() {
    let e = engine();
    let hana = Optimizer::hana();
    for q in [uaj_union_disjoint(), uaj_union_branch_id()] {
        let opt = hana.optimize(&q).unwrap();
        assert_equivalent(&q, &opt, &e);
    }
}

// ------------------------------------------- Fig. 13: UNION ALL & ASJ

/// Fig. 13(a): anchor-side UNION ALL, augmenter is the shared table.
fn asj_anchor_union() -> PlanRef {
    let mk = |lo: i64, hi: i64| {
        LogicalPlan::filter(
            LogicalPlan::scan(customer()),
            Expr::col(2)
                .binary(BinOp::GtEq, Expr::int(lo))
                .and(Expr::col(2).binary(BinOp::Lt, Expr::int(hi))),
        )
        .unwrap()
    };
    let anchor = LogicalPlan::union_all(vec![mk(0, 2), mk(2, 10)]).unwrap();
    let join = LogicalPlan::left_join(anchor, LogicalPlan::scan(customer()), vec![(0, 0)]).unwrap();
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(5), "name".into())])
        .unwrap()
}

#[test]
fn asj_through_anchor_union_hana_only() {
    for profile in Profile::paper_systems() {
        let gone = self_join_gone(&Optimizer::new(profile.clone()), &asj_anchor_union());
        assert_eq!(gone, profile.name() == "hana", "Fig 13(a) under {}", profile.name());
    }
    let e = engine();
    let q = asj_anchor_union();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_equivalent(&q, &opt, &e);
}

/// Fig. 13(b): UNION ALL on both sides (active ⊎ draft + custom field),
/// with or without declared CASE JOIN intent; `shallow` controls whether
/// the anchor branches are simple enough for the heuristic.
fn asj_case_join(intent: bool, shallow: bool) -> PlanRef {
    let mk_anchor = |bid: i64| -> PlanRef {
        let base = LogicalPlan::scan(customer());
        // The deep variant adds an extra projection layer: the shallow
        // heuristic only recognizes `Project over [Filter] Scan`, while
        // declared-intent threading walks through arbitrary pure wrappers.
        let base = if shallow {
            base
        } else {
            LogicalPlan::project(base, (0..4).map(|i| (Expr::col(i), format!("p{i}"))).collect())
                .unwrap()
        };
        LogicalPlan::project(
            base,
            vec![
                (Expr::int(bid), "bid".into()),
                (Expr::col(0), "key".into()),
                (Expr::col(1), "name".into()),
            ],
        )
        .unwrap()
    };
    let anchor = LogicalPlan::union_all(vec![mk_anchor(0), mk_anchor(1)]).unwrap();
    let mk_aug = |bid: i64| {
        LogicalPlan::project(
            LogicalPlan::scan(customer()),
            vec![
                (Expr::int(bid), "bid".into()),
                (Expr::col(0), "key".into()),
                (Expr::col(3), "ext".into()),
            ],
        )
        .unwrap()
    };
    let aug = LogicalPlan::union_all(vec![mk_aug(0), mk_aug(1)]).unwrap();
    let join = LogicalPlan::join(
        anchor,
        aug,
        JoinKind::LeftOuter,
        vec![(0, 0), (1, 1)],
        None,
        None,
        intent,
    )
    .unwrap();
    LogicalPlan::project(
        join,
        vec![
            (Expr::col(1), "key".into()),
            (Expr::col(2), "name".into()),
            (Expr::col(5), "ext".into()),
        ],
    )
    .unwrap()
}

#[test]
fn case_join_always_recognized_heuristic_only_shallow() {
    let hana = Optimizer::hana();
    // With intent: both shapes collapse.
    assert!(self_join_gone(&hana, &asj_case_join(true, true)));
    assert!(self_join_gone(&hana, &asj_case_join(true, false)));
    // Without intent (heuristic only — this is Fig. 14a): shallow works,
    // deep does not.
    assert!(self_join_gone(&hana, &asj_case_join(false, true)));
    let opt = hana.optimize(&asj_case_join(false, false)).unwrap();
    assert!(plan_stats(&opt).joins >= 1, "deep shape must defeat the heuristic");
    // Without either capability, nothing collapses.
    let none = Optimizer::new(
        Profile::hana().without(Capability::CaseJoin).without(Capability::AsjUnionHeuristic),
    );
    assert!(!self_join_gone(&none, &asj_case_join(true, true)));
}

#[test]
fn case_join_preserves_results() {
    let e = engine();
    let hana = Optimizer::hana();
    for q in [asj_case_join(true, true), asj_case_join(true, false), asj_case_join(false, true)] {
        let opt = hana.optimize(&q).unwrap();
        assert_equivalent(&q, &opt, &e);
    }
}

// ------------------------------------------------ §7.1: precision loss

#[test]
fn precision_loss_rewrites_sum_of_round() {
    // sum(round(o_totalprice * 1.1, 1)) with allow_precision_loss.
    let arg = Expr::Func {
        func: vdm_expr::ScalarFunc::Round,
        args: vec![
            Expr::col(2).binary(BinOp::Mul, Expr::Lit(Value::Dec("1.1".parse().unwrap()))),
            Expr::int(1),
        ],
    };
    let make = |allow: bool| {
        let mut agg = AggExpr::new(AggFunc::Sum, arg.clone());
        agg.allow_precision_loss = allow;
        LogicalPlan::aggregate(LogicalPlan::scan(orders()), vec![], vec![(agg, "s".into())])
            .unwrap()
    };
    let hana = Optimizer::hana();
    let opt = hana.optimize(&make(true)).unwrap();
    // The aggregate's argument must now be the bare column.
    let found = find_agg_arg(&opt);
    assert_eq!(found, Some(Expr::col(2)), "\n{}", vdm_plan::explain(&opt));
    // Without the flag, the rounding stays inside.
    let opt = hana.optimize(&make(false)).unwrap();
    assert_ne!(find_agg_arg(&opt), Some(Expr::col(2)));
    // Values differ only in the last decimal digits.
    let e = engine();
    let strict = vdm_exec::execute(&make(false), &e).unwrap();
    let loose = vdm_exec::execute(&hana.optimize(&make(true)).unwrap(), &e).unwrap();
    let a = strict.row(0)[0].as_dec().unwrap().to_f64();
    let b = loose.row(0)[0].as_dec().unwrap().to_f64();
    // Max per-row rounding error is 0.05 at scale 1; 50 input rows.
    assert!((a - b).abs() <= 2.5, "controlled precision loss only: {a} vs {b}");
    assert!((a - b).abs() > 0.0, "the interchange must actually change trailing digits");
}

fn find_agg_arg(plan: &PlanRef) -> Option<Expr> {
    if let vdm_plan::LogicalPlan::Aggregate { aggs, .. } = plan.as_ref() {
        return aggs.first().and_then(|(a, _)| a.arg.clone());
    }
    plan.children().iter().find_map(|c| find_agg_arg(c))
}

#[test]
fn eager_aggregation_below_aj() {
    // sum(o_totalprice) group by c_nationkey over orders ⟕ customer.
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(customer()),
        vec![(1, 0)],
    )
    .unwrap();
    let q = LogicalPlan::aggregate(
        join,
        vec![(Expr::col(5), "nat".into())],
        vec![(AggExpr::new(AggFunc::Sum, Expr::col(2)), "rev".into())],
    )
    .unwrap();
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).aggregates, 2, "\n{}", vdm_plan::explain(&opt));
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

// ------------------------------------------------ misc rule soundness

#[test]
fn distinct_removed_over_unique_input() {
    let q = LogicalPlan::distinct(LogicalPlan::scan(customer()));
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).distincts, 0);
    // Over a non-unique projection it stays.
    let p = LogicalPlan::project(LogicalPlan::scan(customer()), vec![(Expr::col(2), "nat".into())])
        .unwrap();
    let q = LogicalPlan::distinct(p);
    let opt = Optimizer::hana().optimize(&q).unwrap();
    assert_eq!(plan_stats(&opt).distincts, 1);
}

#[test]
fn filter_pushdown_moves_predicates_below_joins() {
    let join = LogicalPlan::inner_join(
        LogicalPlan::scan(orders()),
        LogicalPlan::scan(customer()),
        vec![(1, 0)],
    )
    .unwrap();
    let q = LogicalPlan::filter(
        join,
        Expr::col(0).binary(BinOp::Gt, Expr::int(10)).and(Expr::col(4).eq(Expr::str("cust1"))),
    )
    .unwrap();
    let opt = Optimizer::new(Profile::system_x()).optimize(&q).unwrap();
    // Both conjuncts sink below the join.
    fn top_is_filter(p: &PlanRef) -> bool {
        matches!(p.as_ref(), vdm_plan::LogicalPlan::Filter { .. })
    }
    assert!(!top_is_filter(&opt), "\n{}", vdm_plan::explain(&opt));
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn optimizer_is_idempotent() {
    let hana = Optimizer::hana();
    for q in [uaj1a(), asj_subquery(), uaj_union_branch_id(), paging_query()] {
        let once = hana.optimize(&q).unwrap();
        let twice = hana.optimize(&once).unwrap();
        assert_eq!(plan_stats(&once), plan_stats(&twice));
    }
}

#[test]
fn trace_records_passes_that_changed_the_plan() {
    let hana = Optimizer::hana();
    let (opt, trace) = hana.optimize_traced_with(&uaj1a(), None, None).unwrap();
    assert_eq!(plan_stats(&opt).joins, 0);
    assert!(
        trace.steps.iter().any(|(_, name, _, _)| name.contains("UAJ")),
        "trace must mention the UAJ pass: {}",
        trace.render()
    );
    let rendered = trace.render();
    assert!(rendered.contains("joins"), "{rendered}");
    // A plan with nothing to do produces an empty trace.
    let bare = LogicalPlan::scan(orders());
    let (_, trace) = hana.optimize_traced_with(&bare, None, None).unwrap();
    assert_eq!(trace.render(), "no rewrites applied");
}

#[test]
fn filter_pushes_through_projection_and_union() {
    // Filter above a union of projected scans sinks into every child.
    let mk = || {
        LogicalPlan::project(
            LogicalPlan::scan(orders()),
            vec![(Expr::col(0), "k".into()), (Expr::col(1), "c".into())],
        )
        .unwrap()
    };
    let u = LogicalPlan::union_all(vec![mk(), mk()]).unwrap();
    let q = LogicalPlan::filter(u, Expr::col(1).eq(Expr::int(3))).unwrap();
    let opt = Optimizer::new(Profile::system_x()).optimize(&q).unwrap();
    // The top node is no longer a filter; each union child gained one.
    assert!(!matches!(opt.as_ref(), vdm_plan::LogicalPlan::Filter { .. }));
    assert_eq!(plan_stats(&opt).filters, 2, "{}", vdm_plan::explain(&opt));
    let e = engine();
    assert_equivalent(&q, &opt, &e);
}

#[test]
fn limit_pushes_into_union_children() {
    let mk = || LogicalPlan::scan(orders());
    let u = LogicalPlan::union_all(vec![mk(), mk()]).unwrap();
    let q = LogicalPlan::limit(u, 2, Some(5));
    let opt = Optimizer::hana().optimize(&q).unwrap();
    // Children got limited to offset+fetch = 7; the outer limit remains.
    fn count_limits(p: &PlanRef) -> usize {
        let own = matches!(p.as_ref(), vdm_plan::LogicalPlan::Limit { .. }) as usize;
        own + p.children().iter().map(|c| count_limits(c)).sum::<usize>()
    }
    assert_eq!(count_limits(&opt), 3, "{}", vdm_plan::explain(&opt));
    let e = engine();
    let a = vdm_exec::execute(&q, &e).unwrap();
    let b = vdm_exec::execute(&opt, &e).unwrap();
    assert_eq!(a.num_rows(), b.num_rows());
    assert_eq!(a.num_rows(), 5);
}

#[test]
fn cleanup_merges_projection_stacks() {
    let base = LogicalPlan::scan(orders());
    let p1 =
        LogicalPlan::project(base, vec![(Expr::col(1), "c".into()), (Expr::col(0), "k".into())])
            .unwrap();
    let p2 = LogicalPlan::project(p1, vec![(Expr::col(1), "key".into())]).unwrap();
    let opt = Optimizer::new(Profile::system_x()).optimize(&p2).unwrap();
    assert_eq!(plan_stats(&opt).projects, 1, "{}", vdm_plan::explain(&opt));
    let e = engine();
    assert_equivalent(&p2, &opt, &e);
}

#[test]
fn profile_differences_are_purely_about_work() {
    // The same query under every profile: identical rows, monotone work.
    let e = engine();
    let q = uaj2a();
    let mut scans = Vec::new();
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for profile in Profile::paper_systems() {
        let opt = Optimizer::new(profile).optimize(&q).unwrap();
        let vdm_exec::Execution { batch, profile, .. } =
            vdm_exec::execute_with(&opt, &e, &vdm_exec::ExecOptions::default()).unwrap();
        let mut rows = batch.to_rows();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        match &reference {
            None => reference = Some(rows),
            Some(want) => assert_eq!(&rows, want),
        }
        scans.push(vdm_exec::Metrics::roll_up(&opt, &profile).rows_scanned);
    }
    // hana (index 0) does the least scanning; system_x (index 2) the most.
    assert!(scans[0] < scans[2], "scans per profile: {scans:?}");
}
