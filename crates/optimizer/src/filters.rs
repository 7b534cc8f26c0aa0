//! Baseline rules: constant folding, filter pushdown, redundant-DISTINCT
//! removal, and plan cleanup. Every system the paper evaluates implements
//! these, so all five profiles include them.

use crate::ctx::RewriteCtx;
use std::collections::BTreeSet;
use vdm_expr::{fold, predicate, Expr};
use vdm_plan::{map_children, transform_up, JoinKind, LogicalPlan, PlanRef};
use vdm_types::Result;

/// Folds constants in every expression of the plan. Nodes whose
/// expressions fold to themselves are kept as-is (preserving `Arc`
/// identity, and with it DAG sharing).
pub fn fold_constants(plan: &PlanRef) -> Result<PlanRef> {
    transform_up(plan, &mut |node| {
        Ok(match node.as_ref() {
            LogicalPlan::Project { input, exprs, .. } => {
                let folded: Vec<(Expr, String)> =
                    exprs.iter().map(|(e, n)| (fold::fold(e), n.clone())).collect();
                if folded == *exprs {
                    node
                } else {
                    LogicalPlan::project(input.clone(), folded)?
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let folded = fold::fold(predicate);
                if folded == *predicate {
                    node
                } else {
                    LogicalPlan::filter(input.clone(), folded)?
                }
            }
            LogicalPlan::Join { left, right, kind, on, filter, declared, asj_intent, .. } => {
                let folded = filter.as_ref().map(fold::fold);
                if folded == *filter {
                    node
                } else {
                    LogicalPlan::join(
                        left.clone(),
                        right.clone(),
                        *kind,
                        on.clone(),
                        folded,
                        *declared,
                        *asj_intent,
                    )?
                }
            }
            _ => node,
        })
    })
}

/// Pushes filter conjuncts toward the leaves: through projections (pure
/// columns), into the matching side of joins (inner joins both sides,
/// left-outer joins left side only), and into every UNION ALL child.
pub fn pushdown_filters(plan: &PlanRef) -> Result<PlanRef> {
    transform_up(plan, &mut |node| {
        if let LogicalPlan::Filter { input, predicate } = node.as_ref() {
            let conjuncts: Vec<Expr> =
                predicate::split_conjunction(predicate).into_iter().cloned().collect();
            let n_conjuncts = conjuncts.len();
            let (pushed, kept) = push_conjuncts(input, conjuncts)?;
            if std::sync::Arc::ptr_eq(&pushed, input) && kept.len() == n_conjuncts {
                return Ok(node);
            }
            let n_kept = kept.len();
            let out = if kept.is_empty() {
                pushed
            } else {
                LogicalPlan::filter(pushed, Expr::conjunction(kept))?
            };
            vdm_obs::rewrite::fired(
                "filter-pushdown",
                &node,
                Some(&out),
                &format!(
                    "{} of {n_conjuncts} conjunct(s) pushed below {}",
                    n_conjuncts - n_kept,
                    input.op_name()
                ),
            );
            return Ok(out);
        }
        Ok(node)
    })
}

/// Attempts to push each conjunct below `plan`; returns the new plan and
/// the conjuncts that could not be pushed.
fn push_conjuncts(plan: &PlanRef, conjuncts: Vec<Expr>) -> Result<(PlanRef, Vec<Expr>)> {
    match plan.as_ref() {
        LogicalPlan::Project { input, exprs, .. } => {
            // A conjunct pushes when every referenced output column is a
            // pure column reference (substitute and descend).
            let mut pushable = Vec::new();
            let mut kept = Vec::new();
            for c in conjuncts {
                let mut refs = BTreeSet::new();
                c.referenced_columns(&mut refs);
                if refs.iter().all(|&i| matches!(exprs[i].0, Expr::Col(_))) {
                    pushable.push(c.substitute_columns(&|i| exprs[i].0.clone()));
                } else {
                    kept.push(c);
                }
            }
            if pushable.is_empty() {
                return Ok((plan.clone(), kept));
            }
            let (new_input, rest) = push_conjuncts(input, pushable)?;
            let inner = if rest.is_empty() {
                new_input
            } else {
                LogicalPlan::filter(new_input, Expr::conjunction(rest))?
            };
            Ok((map_children(plan, vec![inner])?, kept))
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge with the existing filter and push the union of
            // conjuncts below it.
            let mut all: Vec<Expr> =
                predicate::split_conjunction(predicate).into_iter().cloned().collect();
            all.extend(conjuncts);
            let (new_input, rest) = push_conjuncts(input, all)?;
            let out = if rest.is_empty() {
                new_input
            } else {
                LogicalPlan::filter(new_input, Expr::conjunction(rest))?
            };
            Ok((out, Vec::new()))
        }
        LogicalPlan::Join { left, right, kind, .. } => {
            let nl = left.schema().len();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut kept = Vec::new();
            for c in conjuncts {
                let mut refs = BTreeSet::new();
                c.referenced_columns(&mut refs);
                let left_only = refs.iter().all(|&i| i < nl);
                let right_only = refs.iter().all(|&i| i >= nl);
                if left_only {
                    to_left.push(c);
                } else if right_only && *kind == JoinKind::Inner {
                    to_right.push(c.remap_columns(&|i| i - nl));
                } else {
                    // Right-side conjuncts cannot cross a left-outer join
                    // (they would filter before NULL-padding).
                    kept.push(c);
                }
            }
            if to_left.is_empty() && to_right.is_empty() {
                return Ok((plan.clone(), kept));
            }
            let (new_left, rest_l) = push_conjuncts(left, to_left)?;
            let new_left = if rest_l.is_empty() {
                new_left
            } else {
                LogicalPlan::filter(new_left, Expr::conjunction(rest_l))?
            };
            let (new_right, rest_r) = push_conjuncts(right, to_right)?;
            let new_right = if rest_r.is_empty() {
                new_right
            } else {
                LogicalPlan::filter(new_right, Expr::conjunction(rest_r))?
            };
            Ok((map_children(plan, vec![new_left, new_right])?, kept))
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            if conjuncts.is_empty() {
                return Ok((plan.clone(), conjuncts));
            }
            let mut new_children = Vec::with_capacity(inputs.len());
            for child in inputs {
                let (new_child, rest) = push_conjuncts(child, conjuncts.clone())?;
                let wrapped = if rest.is_empty() {
                    new_child
                } else {
                    LogicalPlan::filter(new_child, Expr::conjunction(rest))?
                };
                new_children.push(wrapped);
            }
            Ok((map_children(plan, new_children)?, Vec::new()))
        }
        _ => Ok((plan.clone(), conjuncts)),
    }
}

/// Removes DISTINCT when the input is already duplicate-free (its full
/// column set covers a unique set under the profile's derivations).
pub fn remove_redundant_distinct(plan: &PlanRef, ctx: &RewriteCtx<'_>) -> Result<PlanRef> {
    transform_up(plan, &mut |node| {
        if let LogicalPlan::Distinct { input } = node.as_ref() {
            let all: BTreeSet<usize> = (0..input.schema().len()).collect();
            let sets = ctx.unique_sets(input);
            if vdm_plan::props::covers_unique(&sets, &all) {
                vdm_obs::rewrite::fired(
                    "distinct-removal",
                    &node,
                    Some(input),
                    "input columns cover a derived unique set, so DISTINCT is a no-op",
                );
                return Ok(input.clone());
            }
        }
        Ok(node)
    })
}

/// Cleanup: merges stacked projections and drops identity projections
/// whose names match the child's.
pub fn cleanup(plan: &PlanRef) -> Result<PlanRef> {
    transform_up(plan, &mut |node| cleanup_node(node))
}

/// Local simplification step. Children are already clean when this runs;
/// it only recurses into nodes it creates itself (a merged projection, the
/// per-child projections of a pushed-down union).
fn cleanup_node(node: PlanRef) -> Result<PlanRef> {
    if let LogicalPlan::Project { input, exprs, .. } = node.as_ref() {
        // Merge Project(Project(x)).
        if let LogicalPlan::Project { input: grand, exprs: inner_exprs, .. } = input.as_ref() {
            let merged: Vec<(Expr, String)> = exprs
                .iter()
                .map(|(e, n)| (e.substitute_columns(&|i| inner_exprs[i].0.clone()), n.clone()))
                .collect();
            return cleanup_node(LogicalPlan::project(grand.clone(), merged)?);
        }
        // Push Project(UnionAll(c...)) into the children: each child then
        // merges with its own projection, removing a whole materialization
        // pass (union output ordinals equal child ordinals positionally).
        if let LogicalPlan::UnionAll { inputs, .. } = input.as_ref() {
            let children = inputs
                .iter()
                .map(|c| cleanup_node(LogicalPlan::project(c.clone(), exprs.clone())?))
                .collect::<Result<Vec<_>>>()?;
            return LogicalPlan::union_all(children);
        }
        // Drop identity projections.
        let cs = input.schema();
        let identity = exprs.len() == cs.len()
            && exprs.iter().enumerate().all(|(i, (e, n))| {
                matches!(e, Expr::Col(c) if *c == i) && cs.field(i).name.eq_ignore_ascii_case(n)
            });
        if identity {
            return Ok(input.clone());
        }
    }
    Ok(node)
}
