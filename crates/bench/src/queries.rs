//! The paper's evaluation queries, built against a generated TPC-H catalog.
//!
//! Fig. 5 (UAJ 1/2/3/1a/2a/3a/1b), Fig. 6 (limit on AJ), Fig. 10 (ASJ
//! a/b/c), and Fig. 12 (UNION ALL UAJ patterns). All seven Fig. 5 queries
//! can be optimized into a single projection; the harness checks which
//! profile manages it.

use std::sync::Arc;
use vdm_catalog::{Catalog, TableDef};
use vdm_expr::{AggExpr, AggFunc, BinOp, Expr};
use vdm_plan::{LogicalPlan, PlanRef, SortKey};
use vdm_types::Result;

fn t(catalog: &Catalog, name: &str) -> Arc<TableDef> {
    catalog.table(name).unwrap_or_else(|| panic!("TPC-H table {name} missing"))
}

/// `select o_orderkey from orders LEFT JOIN <augmenter> ON <keys>`.
fn uaj_query(catalog: &Catalog, augmenter: PlanRef, right_key: usize) -> Result<PlanRef> {
    uaj_query_on(catalog, augmenter, 0, right_key)
}

fn uaj_query_on(
    catalog: &Catalog,
    augmenter: PlanRef,
    left_key: usize,
    right_key: usize,
) -> Result<PlanRef> {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(t(catalog, "orders")),
        augmenter,
        vec![(left_key, right_key)],
    )?;
    LogicalPlan::project(join, vec![(Expr::col(0), "o_orderkey".into())])
}

/// UAJ 1: augmenter is `customer` keyed by primary key (AJ 2a-1).
pub fn uaj1(catalog: &Catalog) -> Result<PlanRef> {
    uaj_query_on(catalog, LogicalPlan::scan(t(catalog, "customer")), 1, 0)
}

/// UAJ 2: augmenter is a GROUP BY over lineitem (AJ 2a-2).
pub fn uaj2(catalog: &Catalog) -> Result<PlanRef> {
    let agg = LogicalPlan::aggregate(
        LogicalPlan::scan(t(catalog, "lineitem")),
        vec![(Expr::col(0), "l_orderkey".into())],
        vec![(AggExpr::count_star(), "cnt".into())],
    )?;
    uaj_query(catalog, agg, 0)
}

/// UAJ 3: augmenter is lineitem filtered to `l_linenumber = 1` (AJ 2a-3).
pub fn uaj3(catalog: &Catalog) -> Result<PlanRef> {
    let f = LogicalPlan::filter(
        LogicalPlan::scan(t(catalog, "lineitem")),
        Expr::col(1).eq(Expr::int(1)),
    )?;
    uaj_query(catalog, f, 0)
}

/// UAJ 1a: a non-duplicating join added to the augmenter.
pub fn uaj1a(catalog: &Catalog) -> Result<PlanRef> {
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(t(catalog, "customer")),
        LogicalPlan::scan(t(catalog, "nation")),
        vec![(2, 0)],
    )?;
    uaj_query_on(catalog, j, 1, 0)
}

/// UAJ 2a: GROUP BY over (lineitem ⋈ part).
pub fn uaj2a(catalog: &Catalog) -> Result<PlanRef> {
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(t(catalog, "lineitem")),
        LogicalPlan::scan(t(catalog, "part")),
        vec![(2, 0)],
    )?;
    let agg = LogicalPlan::aggregate(
        j,
        vec![(Expr::col(0), "l_orderkey".into())],
        vec![(AggExpr::new(AggFunc::Sum, Expr::col(4)), "qty".into())],
    )?;
    uaj_query(catalog, agg, 0)
}

/// UAJ 3a: constant filter over (lineitem ⋈ part).
pub fn uaj3a(catalog: &Catalog) -> Result<PlanRef> {
    let j = LogicalPlan::inner_join(
        LogicalPlan::scan(t(catalog, "lineitem")),
        LogicalPlan::scan(t(catalog, "part")),
        vec![(2, 0)],
    )?;
    let f = LogicalPlan::filter(j, Expr::col(1).eq(Expr::int(1)))?;
    uaj_query(catalog, f, 0)
}

/// UAJ 1b: ORDER BY + LIMIT over the augmenter.
pub fn uaj1b(catalog: &Catalog) -> Result<PlanRef> {
    let s = LogicalPlan::sort(LogicalPlan::scan(t(catalog, "customer")), vec![SortKey::desc(3)])?;
    let l = LogicalPlan::limit(s, 0, Some(10));
    uaj_query_on(catalog, l, 1, 0)
}

/// The seven Fig. 5 queries in paper order.
pub fn all_uaj(catalog: &Catalog) -> Vec<(&'static str, PlanRef)> {
    vec![
        ("UAJ 1", uaj1(catalog).expect("uaj1")),
        ("UAJ 2", uaj2(catalog).expect("uaj2")),
        ("UAJ 3", uaj3(catalog).expect("uaj3")),
        ("UAJ 1a", uaj1a(catalog).expect("uaj1a")),
        ("UAJ 2a", uaj2a(catalog).expect("uaj2a")),
        ("UAJ 3a", uaj3a(catalog).expect("uaj3a")),
        ("UAJ 1b", uaj1b(catalog).expect("uaj1b")),
    ]
}

/// Fig. 6: `select * from orders ⟕ customer limit 100 offset 1`.
pub fn paging(catalog: &Catalog) -> Result<PlanRef> {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(t(catalog, "orders")),
        LogicalPlan::scan(t(catalog, "customer")),
        vec![(1, 0)],
    )?;
    Ok(LogicalPlan::limit(join, 1, Some(100)))
}

/// Fig. 10(a): bare self-join on key, augmenter field used.
pub fn asj_basic(catalog: &Catalog) -> Result<PlanRef> {
    let join = LogicalPlan::left_join(
        LogicalPlan::scan(t(catalog, "customer")),
        LogicalPlan::scan(t(catalog, "customer")),
        vec![(0, 0)],
    )?;
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(6), "name".into())])
}

/// Fig. 10(b): the anchor is a subquery.
pub fn asj_subquery(catalog: &Catalog) -> Result<PlanRef> {
    let anchor = LogicalPlan::project(
        LogicalPlan::filter(
            LogicalPlan::scan(t(catalog, "customer")),
            Expr::col(3).binary(BinOp::Gt, Expr::int(0)),
        )?,
        vec![(Expr::col(0), "k".into()), (Expr::col(3), "bal".into())],
    )?;
    let join =
        LogicalPlan::left_join(anchor, LogicalPlan::scan(t(catalog, "customer")), vec![(0, 0)])?;
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(3), "name".into())])
}

/// Fig. 10(c): filtered augmenter whose predicate subsumes the anchor's.
pub fn asj_filtered(catalog: &Catalog) -> Result<PlanRef> {
    let pred = |_: ()| Expr::col(2).eq(Expr::int(1));
    let anchor = LogicalPlan::filter(LogicalPlan::scan(t(catalog, "customer")), pred(()))?;
    let aug = LogicalPlan::filter(LogicalPlan::scan(t(catalog, "customer")), pred(()))?;
    let join = LogicalPlan::left_join(anchor, aug, vec![(0, 0)])?;
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(6), "name".into())])
}

/// Fig. 13(a): anchor-side UNION ALL with the augmenter table in both
/// children (the extended ASJ traversal).
pub fn asj_anchor_union(catalog: &Catalog) -> Result<PlanRef> {
    let mk = |lo: i64, hi: i64| -> Result<PlanRef> {
        LogicalPlan::filter(
            LogicalPlan::scan(t(catalog, "customer")),
            Expr::col(2)
                .binary(BinOp::GtEq, Expr::int(lo))
                .and(Expr::col(2).binary(BinOp::Lt, Expr::int(hi))),
        )
    };
    let anchor = LogicalPlan::union_all(vec![mk(0, 8)?, mk(8, 100)?])?;
    let join =
        LogicalPlan::left_join(anchor, LogicalPlan::scan(t(catalog, "customer")), vec![(0, 0)])?;
    LogicalPlan::project(join, vec![(Expr::col(0), "k".into()), (Expr::col(6), "name".into())])
}

/// The three Fig. 10 queries in paper order.
pub fn all_asj(catalog: &Catalog) -> Vec<(&'static str, PlanRef)> {
    vec![
        ("Fig. 10(a)", asj_basic(catalog).expect("asj a")),
        ("Fig. 10(b)", asj_subquery(catalog).expect("asj b")),
        ("Fig. 10(c)", asj_filtered(catalog).expect("asj c")),
    ]
}

/// Fig. 12(a) via Fig. 11(a): augmenter is a UNION ALL of disjoint subsets.
pub fn union_disjoint(catalog: &Catalog) -> Result<PlanRef> {
    let a = LogicalPlan::filter(
        LogicalPlan::scan(t(catalog, "customer")),
        Expr::col(2).eq(Expr::int(1)),
    )?;
    let b = LogicalPlan::filter(
        LogicalPlan::scan(t(catalog, "customer")),
        Expr::col(2).binary(BinOp::NotEq, Expr::int(1)),
    )?;
    let u = LogicalPlan::union_all(vec![a, b])?;
    uaj_query_on(catalog, u, 1, 0)
}

/// Fig. 12(b) via Fig. 11(b): augmenter is a branch-id UNION ALL.
pub fn union_branch_id(catalog: &Catalog) -> Result<PlanRef> {
    let mk = |bid: i64| -> Result<PlanRef> {
        LogicalPlan::project(
            LogicalPlan::scan(t(catalog, "customer")),
            vec![
                (Expr::int(bid), "bid".into()),
                (Expr::col(0), "key".into()),
                (Expr::col(1), "name".into()),
            ],
        )
    };
    let u = LogicalPlan::union_all(vec![mk(0)?, mk(1)?])?;
    let left = LogicalPlan::project(
        LogicalPlan::scan(t(catalog, "orders")),
        vec![
            (Expr::col(0), "o_orderkey".into()),
            (Expr::col(1), "o_custkey".into()),
            (Expr::int(0), "probe_bid".into()),
        ],
    )?;
    let join = LogicalPlan::left_join(left, u, vec![(2, 0), (1, 1)])?;
    LogicalPlan::project(join, vec![(Expr::col(0), "o_orderkey".into())])
}

/// The two Fig. 12 queries in paper order (labelled by their Fig. 11
/// source patterns, as Table 4 does).
pub fn all_union(catalog: &Catalog) -> Vec<(&'static str, PlanRef)> {
    vec![
        ("Fig. 11(a)", union_disjoint(catalog).expect("union a")),
        ("Fig. 11(b)", union_branch_id(catalog).expect("union b")),
    ]
}

/// §7.1: `sum(round(l_extendedprice * 1.11, 2))` over lineitem, with or
/// without `allow_precision_loss`.
pub fn precision_query(catalog: &Catalog, allow: bool) -> Result<PlanRef> {
    let arg = Expr::Func {
        func: vdm_expr::ScalarFunc::Round,
        args: vec![
            Expr::col(5).binary(
                BinOp::Mul,
                Expr::Lit(vdm_types::Value::Dec("1.11".parse().expect("literal"))),
            ),
            Expr::int(2),
        ],
    };
    let mut agg = AggExpr::new(AggFunc::Sum, arg);
    agg.allow_precision_loss = allow;
    LogicalPlan::aggregate(
        LogicalPlan::scan(t(catalog, "lineitem")),
        vec![(Expr::col(3), "supp".into())],
        vec![(agg, "taxed".into())],
    )
}

/// True when some Limit sits strictly below some Join (the Fig. 6 check).
pub fn limit_below_join(plan: &PlanRef) -> bool {
    fn walk(p: &PlanRef, under_join: bool) -> bool {
        if matches!(p.as_ref(), vdm_plan::LogicalPlan::Limit { .. }) && under_join {
            return true;
        }
        let is_join = matches!(p.as_ref(), vdm_plan::LogicalPlan::Join { .. });
        p.children().iter().any(|c| walk(c, under_join || is_join))
    }
    walk(plan, false)
}
