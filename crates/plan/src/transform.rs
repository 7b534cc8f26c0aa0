//! The shared rewrite driver: bottom-up transformation that visits every
//! DAG node **once** and preserves `Arc` sharing.
//!
//! Before this existed, every optimizer rule hand-rolled its own recursion
//! over `children()` + per-variant rebuild. That recursion is tree-shaped:
//! a subquery shared under two joins is visited once *per path* and — worse
//! — rebuilt once per path, silently exploding the shared `Arc` into
//! structurally equal but distinct subtrees that the executor then computes
//! twice. [`transform_up`] fixes both: a per-walk pointer memo guarantees
//! one visit and one result per node, so shared inputs stay shared in the
//! output (pointer-equal subtrees stay pointer-equal, rewritten or not).

use crate::node::{LogicalPlan, NodeMap, PlanRef};
use std::sync::Arc;
use vdm_types::Result;

/// Rebuilds `plan` over `new_children` — the one "same node, new children"
/// door. `Arc` identity is preserved when no child actually changed
/// (`Arc::ptr_eq`). A node's schema, and everything its validating
/// constructor checks, is a property of (its parameters, its children's
/// schemas): when every new child hands back the *same* `Arc<Schema>` as the
/// child it replaces (a `Filter` / `Sort` / `Limit` / `Distinct` passes its
/// input's through), the node keeps its own schema and the constructor is
/// skipped. Debug builds assert the constructor agrees.
pub fn map_children(plan: &PlanRef, new_children: Vec<PlanRef>) -> Result<PlanRef> {
    let old_children = plan.children();
    debug_assert_eq!(old_children.len(), new_children.len());
    if old_children.iter().zip(&new_children).all(|(o, n)| Arc::ptr_eq(o, n)) {
        return Ok(plan.clone());
    }
    if old_children.iter().zip(&new_children).all(|(o, n)| Arc::ptr_eq(&o.schema(), &n.schema())) {
        debug_assert!(
            matches!(rebuild(plan, new_children.clone()), Ok(v) if v.schema() == plan.schema()),
            "{}: a rebuild over children of unchanged schema changed the node's",
            plan.op_name()
        );
        let mut node = LogicalPlan::clone(plan);
        node.children_mut().into_iter().zip(new_children).for_each(|(slot, new)| *slot = new);
        return Ok(Arc::new(node));
    }
    rebuild(plan, new_children)
}

/// `plan`'s validating constructor over its own parameters and new children.
fn rebuild(plan: &PlanRef, new_children: Vec<PlanRef>) -> Result<PlanRef> {
    let mut kids = new_children.into_iter();
    Ok(match plan.as_ref() {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => unreachable!("no children"),
        LogicalPlan::Project { exprs, .. } => {
            LogicalPlan::project(kids.next().unwrap(), exprs.clone())?
        }
        LogicalPlan::Filter { predicate, .. } => {
            LogicalPlan::filter(kids.next().unwrap(), predicate.clone())?
        }
        LogicalPlan::Join { kind, on, filter, declared, asj_intent, .. } => LogicalPlan::join(
            kids.next().unwrap(),
            kids.next().unwrap(),
            *kind,
            on.clone(),
            filter.clone(),
            *declared,
            *asj_intent,
        )?,
        LogicalPlan::UnionAll { .. } => LogicalPlan::union_all(kids.collect())?,
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            LogicalPlan::aggregate(kids.next().unwrap(), group_by.clone(), aggs.clone())?
        }
        LogicalPlan::Distinct { .. } => LogicalPlan::distinct(kids.next().unwrap()),
        LogicalPlan::Sort { keys, .. } => LogicalPlan::sort(kids.next().unwrap(), keys.clone())?,
        LogicalPlan::Limit { skip, fetch, .. } => {
            LogicalPlan::limit(kids.next().unwrap(), *skip, *fetch)
        }
    })
}

/// Applies `f` to every node bottom-up (children already transformed when
/// `f` sees a node), visiting each shared DAG node exactly once.
///
/// `f` receives the node rebuilt over its transformed children — with its
/// original `Arc` identity whenever nothing below it changed — and returns
/// the replacement (or the input unchanged). Because results are memoized
/// by the *input* node's address, the two parents of a shared subtree
/// receive the same output `Arc`: sharing survives rewriting.
pub fn transform_up(
    plan: &PlanRef,
    f: &mut dyn FnMut(PlanRef) -> Result<PlanRef>,
) -> Result<PlanRef> {
    // Keys point into the input DAG, which outlives the walk via `plan`.
    let mut memo: NodeMap<*const LogicalPlan, PlanRef> = NodeMap::default();
    transform_up_memo(plan, f, &mut memo)
}

fn transform_up_memo(
    plan: &PlanRef,
    f: &mut dyn FnMut(PlanRef) -> Result<PlanRef>,
    memo: &mut NodeMap<*const LogicalPlan, PlanRef>,
) -> Result<PlanRef> {
    let key = Arc::as_ptr(plan);
    if let Some(done) = memo.get(&key) {
        return Ok(done.clone());
    }
    let children = plan.children();
    let mut new_children = Vec::with_capacity(children.len());
    for c in children {
        new_children.push(transform_up_memo(c, f, memo)?);
    }
    let rebuilt = map_children(plan, new_children)?;
    let out = f(rebuilt)?;
    memo.insert(key, out.clone());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;
    use vdm_expr::Expr;
    use vdm_types::SqlType;

    fn scan() -> PlanRef {
        LogicalPlan::scan(std::sync::Arc::new(
            TableBuilder::new("t")
                .column("a", SqlType::Int, false)
                .column("b", SqlType::Int, false)
                .primary_key(&["a"])
                .build()
                .unwrap(),
        ))
    }

    #[test]
    fn identity_transform_returns_same_arcs() {
        let shared = LogicalPlan::filter(scan(), Expr::col(0).eq(Expr::int(1))).unwrap();
        let join = LogicalPlan::inner_join(shared.clone(), shared.clone(), vec![(0, 0)]).unwrap();
        let mut visits = 0;
        let out = transform_up(&join, &mut |node| {
            visits += 1;
            Ok(node)
        })
        .unwrap();
        assert!(Arc::ptr_eq(&out, &join), "identity transform must not rebuild");
        // Shared filter + its scan visited once each, plus the join.
        assert_eq!(visits, 3);
    }

    /// A filter slipped under a join's left input keeps that input's
    /// `Arc<Schema>`: the join is rebuilt without its validating constructor
    /// and must still be the node that constructor builds from the same parts.
    #[test]
    fn schema_preserving_swap_shares_the_schema_and_equals_the_validated_node() {
        let (l, r) = (scan(), scan());
        let join = LogicalPlan::left_join(l.clone(), r.clone(), vec![(0, 0)]).unwrap();
        let filtered = LogicalPlan::filter(l, Expr::col(1).eq(Expr::int(7))).unwrap();
        let out = map_children(&join, vec![filtered.clone(), r.clone()]).unwrap();
        assert!(Arc::ptr_eq(&out.schema(), &join.schema()), "the schema Arc is reused");
        assert_eq!(out, LogicalPlan::left_join(filtered, r, vec![(0, 0)]).unwrap());
        assert_ne!(out, join);
    }

    /// A child that narrows takes the validating path: the parent's schema
    /// is re-derived, and parameters the new child no longer satisfies fail.
    #[test]
    fn narrowing_swap_revalidates_and_rederives_the_schema() {
        let (l, r) = (scan(), scan());
        let join = LogicalPlan::inner_join(l.clone(), r.clone(), vec![(1, 0)]).unwrap();
        let sorted = LogicalPlan::sort(join, vec![crate::SortKey::asc(3)]).unwrap();
        let LogicalPlan::Sort { input: join, .. } = sorted.as_ref() else { unreachable!() };
        let narrow = LogicalPlan::project_cols(r, &[0]).unwrap();
        let out = map_children(join, vec![l.clone(), narrow.clone()]).unwrap();
        assert_eq!(out.schema().len(), 3, "two left columns and the one the projection kept");
        assert_eq!(out, LogicalPlan::inner_join(l.clone(), narrow.clone(), vec![(1, 0)]).unwrap());
        // The sort key `$3` is gone from the narrowed join; so is left key 1
        // once the left input narrows.
        assert!(map_children(&sorted, vec![out]).is_err());
        assert!(
            map_children(join, vec![LogicalPlan::project_cols(l, &[0]).unwrap(), narrow]).is_err()
        );
    }

    #[test]
    fn rewritten_shared_subtree_stays_shared() {
        let shared = LogicalPlan::filter(scan(), Expr::col(0).eq(Expr::int(1))).unwrap();
        let join = LogicalPlan::inner_join(shared.clone(), shared.clone(), vec![(0, 0)]).unwrap();
        // Strip every filter: both join inputs must end up the *same* scan.
        let out = transform_up(&join, &mut |node| {
            if let LogicalPlan::Filter { input, .. } = node.as_ref() {
                return Ok(input.clone());
            }
            Ok(node)
        })
        .unwrap();
        let LogicalPlan::Join { left, right, .. } = out.as_ref() else {
            panic!("join survives");
        };
        assert!(Arc::ptr_eq(left, right), "rewritten shared subtree must stay shared");
        assert!(matches!(left.as_ref(), LogicalPlan::Scan { .. }));
    }
}
