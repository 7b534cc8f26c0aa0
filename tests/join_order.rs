//! Serial-vs-reordered equivalence for cost-based join ordering.
//!
//! Every connected left-deep join order of the same star and chain
//! workload is built by hand, executed serially without optimization to
//! establish a baseline, and then optimized under each of the five paper
//! capability profiles (with live storage statistics, so the DP
//! join-ordering pass actually fires where the profile allows it) and
//! executed serially again. Results must be bit-identical — asserted via
//! `multiset_digest` — across every ordering × profile combination, plus
//! a feedback-corrected re-optimization seeded from a profiled run.

use std::sync::Arc;
use vdm_cache::multiset_digest;
use vdm_core::{feedback, Database, EngineStats};
use vdm_expr::{BinOp, Expr};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_types::{SplitMix64, Value};

/// A base relation in the workload: name, column count, and an optional
/// pushed filter applied directly above its scan (same in every order).
struct Rel {
    name: &'static str,
    width: usize,
    filter: Option<Expr>,
}

/// An equi-join edge between two relations, by name and column index.
struct Edge {
    a: &'static str,
    a_col: usize,
    b: &'static str,
    b_col: usize,
}

/// One workload: the database plus its relations, join edges, and the
/// canonical output column list (relation name, column index).
type Workload = (Database, Vec<Rel>, Vec<Edge>, Vec<(&'static str, usize)>);

fn le(col: usize, v: i64) -> Expr {
    Expr::col(col).binary(BinOp::LtEq, Expr::int(v))
}

/// Star: fact(f_id, amount, fk1, fk2, fk3) → d1/d2/d3(id, val), with a
/// selective filter on d1. Dimension keys are dense so every fact row
/// joins; d1's filter keeps ~30% of it.
fn star_db() -> Workload {
    let mut db = Database::hana();
    let mut rng = SplitMix64::seed_from_u64(7);
    for d in ["d1", "d2", "d3"] {
        db.execute(&format!("create table {d} (id bigint primary key, val bigint not null)"))
            .unwrap();
        let rows: Vec<Vec<Value>> =
            (0..20).map(|i| vec![Value::Int(i), Value::Int(rng.random_range(0..100))]).collect();
        db.engine().insert(d, rows).unwrap();
    }
    db.execute(
        "create table fact (f_id bigint primary key, amount bigint not null, \
         fk1 bigint not null, fk2 bigint not null, fk3 bigint not null, \
         foreign key (fk1) references d1 (id), \
         foreign key (fk2) references d2 (id), \
         foreign key (fk3) references d3 (id))",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(rng.random_range(0..1_000)),
                Value::Int(rng.random_range(0..20)),
                Value::Int(rng.random_range(0..20)),
                Value::Int(rng.random_range(0..20)),
            ]
        })
        .collect();
    db.engine().insert("fact", rows).unwrap();
    for t in ["fact", "d1", "d2", "d3"] {
        db.engine().merge_delta(t).unwrap();
    }
    let rels = vec![
        Rel { name: "fact", width: 5, filter: None },
        Rel { name: "d1", width: 2, filter: Some(le(1, 30)) },
        Rel { name: "d2", width: 2, filter: None },
        Rel { name: "d3", width: 2, filter: None },
    ];
    let edges = vec![
        Edge { a: "fact", a_col: 2, b: "d1", b_col: 0 },
        Edge { a: "fact", a_col: 3, b: "d2", b_col: 0 },
        Edge { a: "fact", a_col: 4, b: "d3", b_col: 0 },
    ];
    // Canonical output columns, independent of join order.
    let out = vec![("fact", 0), ("fact", 1), ("d1", 1), ("d2", 1), ("d3", 1)];
    (db, rels, edges, out)
}

/// Chain: fact(f_id, nxt, amount) → c1(id, nxt, val) → c2(id, nxt, val)
/// → c3(id, val), with a selective filter on c1.
fn chain_db() -> Workload {
    let mut db = Database::hana();
    let mut rng = SplitMix64::seed_from_u64(11);
    db.execute("create table c3 (id bigint primary key, val bigint not null)").unwrap();
    let rows: Vec<Vec<Value>> =
        (0..20).map(|i| vec![Value::Int(i), Value::Int(rng.random_range(0..100))]).collect();
    db.engine().insert("c3", rows).unwrap();
    for (t, next) in [("c2", "c3"), ("c1", "c2")] {
        db.execute(&format!(
            "create table {t} (id bigint primary key, nxt bigint not null, \
             val bigint not null, foreign key (nxt) references {next} (id))"
        ))
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(rng.random_range(0..20)),
                    Value::Int(rng.random_range(0..100)),
                ]
            })
            .collect();
        db.engine().insert(t, rows).unwrap();
    }
    db.execute(
        "create table fact (f_id bigint primary key, nxt bigint not null, \
         amount bigint not null, foreign key (nxt) references c1 (id))",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(rng.random_range(0..20)),
                Value::Int(rng.random_range(0..1_000)),
            ]
        })
        .collect();
    db.engine().insert("fact", rows).unwrap();
    for t in ["fact", "c1", "c2", "c3"] {
        db.engine().merge_delta(t).unwrap();
    }
    let rels = vec![
        Rel { name: "fact", width: 3, filter: None },
        Rel { name: "c1", width: 3, filter: Some(le(2, 30)) },
        Rel { name: "c2", width: 3, filter: None },
        Rel { name: "c3", width: 2, filter: None },
    ];
    let edges = vec![
        Edge { a: "fact", a_col: 1, b: "c1", b_col: 0 },
        Edge { a: "c1", a_col: 1, b: "c2", b_col: 0 },
        Edge { a: "c2", a_col: 1, b: "c3", b_col: 0 },
    ];
    let out = vec![("fact", 0), ("fact", 2), ("c1", 2), ("c2", 2), ("c3", 1)];
    (db, rels, edges, out)
}

/// All permutations of `0..n` where every prefix is connected under the
/// join edges — the orders a left-deep tree can realize without a cross
/// product.
fn connected_orders(rels: &[Rel], edges: &[Edge]) -> Vec<Vec<usize>> {
    let n = rels.len();
    let adjacent = |a: usize, b: usize| {
        edges.iter().any(|e| {
            (e.a == rels[a].name && e.b == rels[b].name)
                || (e.a == rels[b].name && e.b == rels[a].name)
        })
    };
    let mut orders = Vec::new();
    let mut current = Vec::new();
    fn extend(
        n: usize,
        adjacent: &dyn Fn(usize, usize) -> bool,
        current: &mut Vec<usize>,
        orders: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == n {
            orders.push(current.clone());
            return;
        }
        for next in 0..n {
            if current.contains(&next) {
                continue;
            }
            if !current.is_empty() && !current.iter().any(|&p| adjacent(p, next)) {
                continue;
            }
            current.push(next);
            extend(n, adjacent, current, orders);
            current.pop();
        }
    }
    extend(n, &adjacent, &mut current, &mut orders);
    orders
}

/// Builds the left-deep plan for one relation order: scans (with their
/// pushed filters), inner joins keyed by every edge connecting the new
/// relation to the prefix, and a canonical projection on top so the
/// output schema is identical for every order.
fn left_deep(
    db: &Database,
    rels: &[Rel],
    edges: &[Edge],
    out: &[(&str, usize)],
    order: &[usize],
) -> PlanRef {
    let scan = |idx: usize| -> PlanRef {
        let rel = &rels[idx];
        let table = db.catalog().table(rel.name).expect("table");
        let scanned = LogicalPlan::scan(Arc::clone(&table));
        match &rel.filter {
            Some(pred) => LogicalPlan::filter(scanned, pred.clone()).unwrap(),
            None => scanned,
        }
    };
    // Absolute column offset of each placed relation in the growing row.
    let mut offsets: Vec<Option<usize>> = vec![None; rels.len()];
    offsets[order[0]] = Some(0);
    let mut width = rels[order[0]].width;
    let mut plan = scan(order[0]);
    for &idx in &order[1..] {
        let on: Vec<(usize, usize)> = edges
            .iter()
            .filter_map(|e| {
                if e.a == rels[idx].name {
                    let other = rels.iter().position(|r| r.name == e.b).unwrap();
                    offsets[other].map(|off| (off + e.b_col, e.a_col))
                } else if e.b == rels[idx].name {
                    let other = rels.iter().position(|r| r.name == e.a).unwrap();
                    offsets[other].map(|off| (off + e.a_col, e.b_col))
                } else {
                    None
                }
            })
            .collect();
        assert!(!on.is_empty(), "order must stay connected");
        plan = LogicalPlan::inner_join(plan, scan(idx), on).unwrap();
        offsets[idx] = Some(width);
        width += rels[idx].width;
    }
    let projection = out
        .iter()
        .map(|(name, col)| {
            let idx = rels.iter().position(|r| r.name == *name).unwrap();
            let abs = offsets[idx].expect("all relations placed") + col;
            (Expr::col(abs), format!("{name}_{col}"))
        })
        .collect();
    LogicalPlan::project(plan, projection).unwrap()
}

/// The acceptance criterion: every ordering, optimized under every paper
/// profile, executed serially, is bit-identical to the serial baseline.
fn assert_reorder_equivalence(
    label: &str,
    db: &Database,
    rels: &[Rel],
    edges: &[Edge],
    out: &[(&str, usize)],
) {
    let orders = connected_orders(rels, edges);
    assert!(orders.len() >= 8, "{label}: expected a real sweep, got {} orders", orders.len());
    let stats = EngineStats::new(db.engine());

    let baseline_plan = left_deep(db, rels, edges, out, &orders[0]);
    let (baseline, _) = db.execute_plan_unoptimized(&baseline_plan).unwrap();
    let want = multiset_digest(&baseline);
    assert!(baseline.num_rows() > 0, "{label}: workload must produce rows");

    for order in &orders {
        let plan = left_deep(db, rels, edges, out, order);
        // Unoptimized serial execution of the raw ordering.
        let (raw, _) = db.execute_plan_unoptimized(&plan).unwrap();
        assert_eq!(multiset_digest(&raw), want, "{label}: raw order {order:?} diverged");
        // Optimized under each paper profile, with statistics so the
        // cost-based join-ordering pass runs where the profile allows.
        for profile in Profile::paper_systems() {
            let name = profile.name().to_string();
            let optimizer = Optimizer::new(profile);
            let (optimized, _) = optimizer.optimize_traced_with(&plan, Some(&stats), None).unwrap();
            let (got, _) = db.execute_plan_unoptimized(&optimized).unwrap();
            assert_eq!(
                multiset_digest(&got),
                want,
                "{label}: order {order:?} under {name} diverged"
            );
        }
    }
}

#[test]
fn star_all_leftdeep_orders_all_profiles_bit_identical() {
    let (db, rels, edges, out) = star_db();
    assert_reorder_equivalence("star", &db, &rels, &edges, &out);
}

#[test]
fn chain_all_leftdeep_orders_all_profiles_bit_identical() {
    let (db, rels, edges, out) = chain_db();
    assert_reorder_equivalence("chain", &db, &rels, &edges, &out);
}

#[test]
fn feedback_corrected_reoptimization_is_bit_identical() {
    // The re-optimization path the plan cache takes on a misestimate:
    // observed per-node cardinalities become overriding estimates and the
    // plan is re-ordered around them. The result must not change.
    let (db, rels, edges, out) = star_db();
    let stats = EngineStats::new(db.engine());
    let plan = left_deep(&db, &rels, &edges, &out, &[0, 1, 2, 3]);
    let (baseline, _) = db.execute_plan_unoptimized(&plan).unwrap();
    let want = multiset_digest(&baseline);

    let (estimate_only, _) =
        db.optimizer().optimize_traced_with(&plan, Some(&stats), None).unwrap();
    let parallel = vdm_core::ParallelConfig { threads: 1, morsel_rows: 1024 };
    let opts = vdm_exec::ExecOptions { snapshot: None, parallel };
    let vdm_exec::Execution { batch, profile, .. } =
        vdm_exec::execute_with(&estimate_only, db.engine(), &opts).unwrap();
    assert_eq!(multiset_digest(&batch), want, "estimate-only plan diverged");

    let observed: Vec<(u32, f64)> =
        profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out as f64)).collect();
    let overrides = feedback::overrides_from_observed(&estimate_only, &observed);
    let (corrected, _) =
        db.optimizer().optimize_traced_with(&plan, Some(&stats), Some(&overrides)).unwrap();
    let (got, _) = db.execute_plan_unoptimized(&corrected).unwrap();
    assert_eq!(multiset_digest(&got), want, "feedback-corrected plan diverged");
}
