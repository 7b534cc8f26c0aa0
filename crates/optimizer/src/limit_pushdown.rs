//! LIMIT pushdown across augmentation joins (§4.4, Fig. 6).
//!
//! Paging queries (`select * from V limit k offset n`) dominate UI data
//! access in S/4HANA. When the join below a LIMIT is purely augmentative,
//! the left side has a row-for-row correspondence with the join output, so
//! the entire LIMIT/OFFSET moves below the join: the join then probes only
//! `k` rows instead of the whole table — and, as the paper notes, this
//! changes which side is worth building the hash table on.

use crate::ctx::RewriteCtx;
use vdm_plan::{map_children, transform_up, JoinKind, LogicalPlan, PlanRef};
use vdm_types::Result;

/// Runs the limit-pushdown pass bottom-up.
pub fn limit_pass(plan: &PlanRef, ctx: &RewriteCtx<'_>) -> Result<PlanRef> {
    transform_up(plan, &mut |node| {
        if let LogicalPlan::Limit { input, skip, fetch } = node.as_ref() {
            if let Some(pushed) = push_limit(input, *skip, *fetch, ctx)? {
                let fetch_s = fetch.map(|f| f.to_string()).unwrap_or_else(|| "ALL".into());
                vdm_obs::rewrite::fired(
                    "limit-pushdown",
                    &node,
                    Some(&pushed),
                    &format!(
                        "§4.4: LIMIT {fetch_s} OFFSET {skip} pushed below {} \
                         (row-for-row correspondence across the augmentation)",
                        input.op_name()
                    ),
                );
                return Ok(pushed);
            }
        }
        Ok(node)
    })
}

/// Attempts to push `LIMIT fetch OFFSET skip` below `input`. Returns the
/// rewritten plan (including the operator the limit moved through).
fn push_limit(
    input: &PlanRef,
    skip: u64,
    fetch: Option<u64>,
    ctx: &RewriteCtx<'_>,
) -> Result<Option<PlanRef>> {
    match input.as_ref() {
        LogicalPlan::Join { left, right, kind, on, filter, declared, .. } => {
            // Only across *augmentation* joins: row-for-row correspondence.
            let augmentative = *kind == JoinKind::LeftOuter
                && filter.is_none()
                && (ctx.right_at_most_one(right, on, *declared) || ctx.statically_empty(right));
            if !augmentative {
                return Ok(None);
            }
            // Already limited? Don't loop.
            if matches!(left.as_ref(), LogicalPlan::Limit { .. }) {
                return Ok(None);
            }
            let limited_left = LogicalPlan::limit(left.clone(), skip, fetch);
            // Try pushing further down recursively.
            let new_left = match push_limit(left, skip, fetch, ctx)? {
                Some(deeper) => deeper,
                None => limited_left,
            };
            Ok(Some(map_children(input, vec![new_left, right.clone()])?))
        }
        LogicalPlan::Project { input: inner, .. } => {
            // LIMIT commutes with projection.
            push_limit(inner, skip, fetch, ctx)?
                .map(|new| map_children(input, vec![new]))
                .transpose()
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            // LIMIT k OFFSET n over UNION ALL: every child needs at most
            // n+k rows; the outer limit still applies above the union.
            let child_fetch = match fetch {
                Some(f) => f.saturating_add(skip),
                None => return Ok(None),
            };
            let mut changed = false;
            let new_children = inputs
                .iter()
                .map(|c| {
                    if already_limited(c, child_fetch) {
                        return Ok(c.clone());
                    }
                    changed = true;
                    let limited = match push_limit(c, 0, Some(child_fetch), ctx)? {
                        Some(deeper) => deeper,
                        None => LogicalPlan::limit(c.clone(), 0, Some(child_fetch)),
                    };
                    Ok(limited)
                })
                .collect::<Result<Vec<_>>>()?;
            if !changed {
                return Ok(None);
            }
            Ok(Some(LogicalPlan::limit(map_children(input, new_children)?, skip, fetch)))
        }
        _ => Ok(None),
    }
}

/// True when the subtree already emits at most `fetch` rows because of an
/// earlier pushdown (prevents the fixpoint loop from stacking limits).
fn already_limited(plan: &PlanRef, fetch: u64) -> bool {
    match plan.as_ref() {
        LogicalPlan::Limit { fetch: Some(f), skip, .. } => skip.saturating_add(*f) <= fetch,
        LogicalPlan::Project { input, .. } => already_limited(input, fetch),
        // An AJ join emits exactly as many rows as its (limited) left side.
        LogicalPlan::Join { left, kind: JoinKind::LeftOuter, filter: None, .. } => {
            already_limited(left, fetch)
        }
        _ => false,
    }
}
