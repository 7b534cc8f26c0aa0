//! Projection pruning + unused-augmentation-join elimination (§4.2–4.3).
//!
//! One top-down pass: the set of *required* output columns flows from the
//! root toward the leaves. At every join, if the parent requires nothing
//! from the right child and the join is provably **purely augmentative**
//! (it neither filters nor duplicates left rows), the join disappears:
//!
//! * **AJ 2** — left-outer equi-join whose right side matches at most one
//!   row (right join columns cover a unique set — AJ 2a — or the right side
//!   is statically empty — AJ 2b);
//! * **AJ 1** — inner equi-join guaranteed *exactly one* match: declared
//!   `MANY TO EXACT ONE` (§7.3) or witnessed by a foreign key over
//!   non-nullable columns (AJ 1a).
//!
//! Everything else in the pass is plain column pruning, which is itself
//! what makes the analysis compositional: pruning a join's unused output
//! exposes the next UAJ above it.
//!
//! Because the pass is top-down over required-column sets it cannot ride
//! the bottom-up [`vdm_plan::transform_up`] driver; instead it memoizes
//! `(node pointer, required set)` pairs, so a shared subtree reached from
//! two parents with the same requirements is pruned once and the result
//! `Arc` is shared — and a subtree the pass leaves unchanged keeps its
//! original `Arc` identity.

use crate::ctx::RewriteCtx;
use crate::profile::Capability;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use vdm_catalog::TableDef;
use vdm_expr::Expr;
use vdm_plan::{DeclaredCardinality, JoinKind, LogicalPlan, PlanRef};
use vdm_types::{Result, VdmError};

/// Old-ordinal → new-ordinal mapping produced by pruning a subtree.
type ColMap = Vec<Option<usize>>;

/// Per pass invocation: `(node pointer, required set)` → pruned result,
/// and which of the two passes is walking.
#[derive(Default)]
struct PruneMemo {
    done: HashMap<(usize, Vec<usize>), (PlanRef, ColMap)>,
    /// The physical lowering: scans narrow to their required set and no
    /// join is removed (the rule fixpoint already ran).
    lowering: bool,
}

/// Runs the pruning/UAJ pass over a whole plan.
pub fn prune_pass(plan: &PlanRef, ctx: &RewriteCtx<'_>) -> Result<PlanRef> {
    run(plan, ctx, PruneMemo::default())
}

/// The physical lowering, run once after the rule fixpoint: the same
/// required-set walk with the `Scan` arm returning the narrowed leaf, so
/// every scan emits exactly the columns some ancestor references (one
/// column when none does — `count(*)`) and everything above is re-wired
/// through the `ColMap`s as for any other pruning. The logical rules never
/// see its output.
pub fn lower_scans(plan: &PlanRef) -> Result<PlanRef> {
    let (profile, props) = (crate::Profile::named("lowering"), vdm_plan::PropertyCache::new());
    run(
        plan,
        &RewriteCtx::new(&profile, &props),
        PruneMemo { lowering: true, ..Default::default() },
    )
}

fn run(plan: &PlanRef, ctx: &RewriteCtx<'_>, mut memo: PruneMemo) -> Result<PlanRef> {
    let all: BTreeSet<usize> = (0..plan.schema().len()).collect();
    let original = plan.schema();
    let (pruned, map) = prune(plan, &all, ctx, &mut memo)?;
    // Root required everything, so the mapping must be total; restore the
    // original column order/names with a projection if anything moved.
    let identity = map.iter().enumerate().all(|(i, m)| *m == Some(i))
        && pruned.schema().len() == original.len();
    if identity {
        return Ok(pruned);
    }
    let exprs = map
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let new = m.ok_or_else(|| {
                VdmError::Optimize(format!("root column {i} lost during pruning"))
            })?;
            Ok((Expr::col(new), original.field(i).name.clone()))
        })
        .collect::<Result<Vec<_>>>()?;
    LogicalPlan::project(pruned, exprs)
}

fn prune(
    plan: &PlanRef,
    required: &BTreeSet<usize>,
    ctx: &RewriteCtx<'_>,
    memo: &mut PruneMemo,
) -> Result<(PlanRef, ColMap)> {
    // Zero-column relations are not representable; always keep one column.
    let mut required = required.clone();
    if required.is_empty() && !plan.schema().is_empty() {
        required.insert(0);
    }
    let key = (Arc::as_ptr(plan) as usize, required.iter().copied().collect::<Vec<usize>>());
    if let Some((done, map)) = memo.done.get(&key) {
        return Ok((done.clone(), map.clone()));
    }
    let (out, map) = prune_node(plan, &required, ctx, memo)?;
    // Identity preservation: a rebuild that changed nothing hands back the
    // original `Arc`, keeping DAG sharing (and property-cache entries) alive.
    let out = if !Arc::ptr_eq(&out, plan)
        && map.iter().enumerate().all(|(i, m)| *m == Some(i))
        && out.schema().len() == plan.schema().len()
        && shallow_identical(&out, plan)
    {
        plan.clone()
    } else {
        out
    };
    memo.done.insert(key, (out.clone(), map.clone()));
    Ok((out, map))
}

/// True when `a` rebuilds `b` exactly: pointer-equal children and equal
/// node-local content. (Cheap — never walks subtrees.)
fn shallow_identical(a: &PlanRef, b: &PlanRef) -> bool {
    let (ca, cb) = (a.children(), b.children());
    if ca.len() != cb.len() || !ca.iter().zip(&cb).all(|(x, y)| Arc::ptr_eq(x, y)) {
        return false;
    }
    match (a.as_ref(), b.as_ref()) {
        (LogicalPlan::Project { exprs: ea, .. }, LogicalPlan::Project { exprs: eb, .. }) => {
            ea == eb
        }
        (LogicalPlan::Filter { predicate: pa, .. }, LogicalPlan::Filter { predicate: pb, .. }) => {
            pa == pb
        }
        (
            LogicalPlan::Join {
                kind: ka, on: oa, filter: fa, declared: da, asj_intent: ia, ..
            },
            LogicalPlan::Join {
                kind: kb, on: ob, filter: fb, declared: db, asj_intent: ib, ..
            },
        ) => ka == kb && oa == ob && fa == fb && da == db && ia == ib,
        (LogicalPlan::UnionAll { .. }, LogicalPlan::UnionAll { .. })
        | (LogicalPlan::Distinct { .. }, LogicalPlan::Distinct { .. }) => true,
        (
            LogicalPlan::Aggregate { group_by: ga, aggs: aa, .. },
            LogicalPlan::Aggregate { group_by: gb, aggs: ab, .. },
        ) => ga == gb && aa == ab,
        (LogicalPlan::Sort { keys: ka, .. }, LogicalPlan::Sort { keys: kb, .. }) => ka == kb,
        (
            LogicalPlan::Limit { skip: sa, fetch: fa, .. },
            LogicalPlan::Limit { skip: sb, fetch: fb, .. },
        ) => sa == sb && fa == fb,
        _ => false,
    }
}

fn prune_node(
    plan: &PlanRef,
    required: &BTreeSet<usize>,
    ctx: &RewriteCtx<'_>,
    memo: &mut PruneMemo,
) -> Result<(PlanRef, ColMap)> {
    let width = plan.schema().len();
    match plan.as_ref() {
        LogicalPlan::Scan { table, instance, cols, .. } if memo.lowering => {
            let kept: Vec<usize> = required.iter().copied().collect();
            if kept.len() == width {
                return Ok((plan.clone(), identity_map(width)));
            }
            let emitted: Vec<usize> = kept.iter().map(|&o| cols.table_ordinal(o)).collect();
            let narrowed = LogicalPlan::scan_cols(Arc::clone(table), *instance, &emitted);
            Ok((narrowed, positions_map(width, &kept)))
        }
        LogicalPlan::Scan { cols, .. } => {
            debug_assert!(cols.narrowed().is_none(), "UAJ/pruning runs before the lowering");
            Ok((plan.clone(), identity_map(width)))
        }
        LogicalPlan::Values { .. } => Ok((plan.clone(), identity_map(width))),
        LogicalPlan::Project { input, exprs, .. } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let mut child_req = BTreeSet::new();
            for &i in &kept {
                exprs[i].0.referenced_columns(&mut child_req);
            }
            let (new_input, cmap) = prune(input, &child_req, ctx, memo)?;
            // Nothing pruned anywhere: skip the rebuild (and its schema
            // re-derivation) — this is the common case on converged plans.
            if kept.len() == width && Arc::ptr_eq(&new_input, input) && is_identity(&cmap) {
                return Ok((plan.clone(), identity_map(width)));
            }
            let new_exprs = kept
                .iter()
                .map(|&i| {
                    let (e, n) = &exprs[i];
                    (remap(e, &cmap), n.clone())
                })
                .collect();
            let new_plan = LogicalPlan::project(new_input, new_exprs)?;
            Ok((new_plan, positions_map(width, &kept)))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut child_req = required.clone();
            predicate.referenced_columns(&mut child_req);
            let (new_input, cmap) = prune(input, &child_req, ctx, memo)?;
            if Arc::ptr_eq(&new_input, input) && is_identity(&cmap) {
                return Ok((plan.clone(), cmap));
            }
            let new_plan = LogicalPlan::filter(new_input, remap(predicate, &cmap))?;
            Ok((new_plan, cmap))
        }
        LogicalPlan::Join { left, right, kind, on, filter, declared, asj_intent, .. } => {
            prune_join(
                plan,
                left,
                right,
                *kind,
                on,
                filter,
                *declared,
                *asj_intent,
                required,
                ctx,
                memo,
            )
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let mut new_children = Vec::with_capacity(inputs.len());
            for child in inputs {
                let (pruned_child, cmap) = prune(child, required, ctx, memo)?;
                // Normalize every child to the same [kept...] layout.
                let exprs = kept
                    .iter()
                    .map(|&i| {
                        let new = cmap[i].ok_or_else(|| {
                            VdmError::Optimize(format!("union child lost required column {i}"))
                        })?;
                        Ok((Expr::col(new), child.schema().field(i).name.clone()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                // Skip the wrap when it would be an identity projection:
                // otherwise every fixpoint round stacks another projection
                // per branch and the digest never stabilizes.
                let cs = pruned_child.schema();
                let identity = cs.len() == exprs.len()
                    && exprs.iter().enumerate().all(|(j, (e, n))| {
                        matches!(e, Expr::Col(c) if *c == j)
                            && cs.field(j).name.eq_ignore_ascii_case(n)
                    });
                new_children.push(if identity {
                    pruned_child
                } else {
                    LogicalPlan::project(pruned_child, exprs)?
                });
            }
            if kept.len() == width
                && new_children.iter().zip(inputs).all(|(n, o)| Arc::ptr_eq(n, o))
            {
                return Ok((plan.clone(), identity_map(width)));
            }
            let new_plan = LogicalPlan::union_all(new_children)?;
            Ok((new_plan, positions_map(width, &kept)))
        }
        LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
            let ng = group_by.len();
            // Group keys always stay (dropping one changes grouping).
            let kept_aggs: Vec<usize> =
                (0..aggs.len()).filter(|j| required.contains(&(ng + j))).collect();
            let mut child_req = BTreeSet::new();
            for (e, _) in group_by {
                e.referenced_columns(&mut child_req);
            }
            for &j in &kept_aggs {
                aggs[j].0.referenced_columns(&mut child_req);
            }
            let (new_input, cmap) = prune(input, &child_req, ctx, memo)?;
            let new_groups = group_by.iter().map(|(e, n)| (remap(e, &cmap), n.clone())).collect();
            let new_aggs = kept_aggs
                .iter()
                .map(|&j| {
                    let (a, n) = &aggs[j];
                    (a.remap_columns(&|i| cmap[i].expect("agg ref pruned")), n.clone())
                })
                .collect();
            let new_plan = LogicalPlan::aggregate(new_input, new_groups, new_aggs)?;
            let mut map: ColMap = vec![None; width];
            for (i, m) in map.iter_mut().enumerate().take(ng) {
                *m = Some(i);
            }
            for (new_j, &old_j) in kept_aggs.iter().enumerate() {
                map[ng + old_j] = Some(ng + new_j);
            }
            Ok((new_plan, map))
        }
        LogicalPlan::Distinct { input } => {
            // DISTINCT semantics depend on every column: no pruning below,
            // but still recurse to prune within (joins inside subtrees).
            let all: BTreeSet<usize> = (0..input.schema().len()).collect();
            let (new_input, cmap) = prune(input, &all, ctx, memo)?;
            debug_assert!(cmap.iter().enumerate().all(|(i, m)| *m == Some(i)));
            Ok((LogicalPlan::distinct(new_input), identity_map(width)))
        }
        LogicalPlan::Sort { input, keys } => {
            let mut child_req = required.clone();
            for k in keys {
                k.expr.referenced_columns(&mut child_req);
            }
            let (new_input, cmap) = prune(input, &child_req, ctx, memo)?;
            let new_keys = keys
                .iter()
                .map(|k| vdm_plan::SortKey {
                    expr: remap(&k.expr, &cmap),
                    asc: k.asc,
                    nulls_first: k.nulls_first,
                })
                .collect();
            let new_plan = LogicalPlan::sort(new_input, new_keys)?;
            Ok((new_plan, cmap))
        }
        LogicalPlan::Limit { input, skip, fetch } => {
            let (new_input, cmap) = prune(input, required, ctx, memo)?;
            Ok((LogicalPlan::limit(new_input, *skip, *fetch), cmap))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn prune_join(
    plan: &PlanRef,
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    on: &[(usize, usize)],
    filter: &Option<Expr>,
    declared: Option<DeclaredCardinality>,
    asj_intent: bool,
    required: &BTreeSet<usize>,
    ctx: &RewriteCtx<'_>,
    memo: &mut PruneMemo,
) -> Result<(PlanRef, ColMap)> {
    let width = plan.schema().len();
    let nl = left.schema().len();
    let req_left: BTreeSet<usize> = required.iter().copied().filter(|&i| i < nl).collect();
    let req_right: BTreeSet<usize> =
        required.iter().copied().filter(|&i| i >= nl).map(|i| i - nl).collect();

    // ---- UAJ elimination ----------------------------------------------
    if !memo.lowering && ctx.has(Capability::UajElimination) && req_right.is_empty() {
        let evidence = match kind {
            JoinKind::LeftOuter => {
                // AJ 2a: right matches at most one row; AJ 2b: right empty.
                if ctx.right_at_most_one(right, on, declared) {
                    Some(match declared {
                        Some(d) => format!("AJ 2a: unused LEFT OUTER augmenter, at most one match (declared {d:?})"),
                        None => "AJ 2a: unused LEFT OUTER augmenter, join columns cover a derived unique set".to_string(),
                    })
                } else if ctx.statically_empty(right) {
                    Some("AJ 2b: unused LEFT OUTER augmenter is statically empty".to_string())
                } else {
                    None
                }
            }
            JoinKind::Inner => {
                // AJ 1: exactly-one lower bound needed.
                if inner_exactly_one(left, right, on, declared, ctx) {
                    Some(match declared {
                        Some(d) => format!("AJ 1a: unused INNER augmenter, exactly one match (declared {d:?})"),
                        None => "AJ 1a: unused INNER augmenter, exactly one match (FK witness + unique key)".to_string(),
                    })
                } else {
                    None
                }
            }
        };
        if let Some(evidence) = evidence {
            let (new_left, lmap) = prune(left, &req_left, ctx, memo)?;
            vdm_obs::rewrite::fired("uaj-removal", plan, Some(&new_left), &evidence);
            let mut map: ColMap = vec![None; width];
            for &i in &req_left {
                map[i] = lmap[i];
            }
            // Corner case: the parent required only right columns (all now
            // gone) and the zero-column guard put col 0 of the join, which
            // is a left column — covered by req_left handling above.
            if req_left.is_empty() {
                map[0] = lmap[0];
            }
            return Ok((new_left, map));
        }
    }

    // ---- Regular pruning ------------------------------------------------
    let mut left_req = req_left.clone();
    let mut right_req = req_right.clone();
    for &(l, r) in on {
        left_req.insert(l);
        right_req.insert(r);
    }
    if let Some(f) = filter {
        let mut refs = BTreeSet::new();
        f.referenced_columns(&mut refs);
        for i in refs {
            if i < nl {
                left_req.insert(i);
            } else {
                right_req.insert(i - nl);
            }
        }
    }
    let (new_left, lmap) = prune(left, &left_req, ctx, memo)?;
    let (new_right, rmap) = prune(right, &right_req, ctx, memo)?;
    if Arc::ptr_eq(&new_left, left)
        && Arc::ptr_eq(&new_right, right)
        && is_identity(&lmap)
        && is_identity(&rmap)
    {
        return Ok((plan.clone(), identity_map(width)));
    }
    let new_nl = new_left.schema().len();
    let new_on: Vec<(usize, usize)> = on
        .iter()
        .map(|&(l, r)| {
            Ok((
                lmap[l].ok_or_else(|| VdmError::Optimize("join key pruned (left)".into()))?,
                rmap[r].ok_or_else(|| VdmError::Optimize("join key pruned (right)".into()))?,
            ))
        })
        .collect::<Result<_>>()?;
    let new_filter = filter.as_ref().map(|f| {
        f.remap_columns(&|i| {
            if i < nl {
                lmap[i].expect("filter ref kept (left)")
            } else {
                new_nl + rmap[i - nl].expect("filter ref kept (right)")
            }
        })
    });
    let new_plan =
        LogicalPlan::join(new_left, new_right, kind, new_on, new_filter, declared, asj_intent)?;
    let mut map: ColMap = vec![None; width];
    map[..nl].copy_from_slice(&lmap[..nl]);
    for i in 0..(width - nl) {
        map[nl + i] = rmap[i].map(|p| new_nl + p);
    }
    Ok((new_plan, map))
}

/// AJ 1 witness: an inner equi-join with a guaranteed *exactly one* match —
/// declared `MANY TO EXACT ONE`, or a foreign key over non-nullable columns
/// referencing an unfiltered scan of the target table (AJ 1a).
fn inner_exactly_one(
    left: &PlanRef,
    right: &PlanRef,
    on: &[(usize, usize)],
    declared: Option<DeclaredCardinality>,
    ctx: &RewriteCtx<'_>,
) -> bool {
    if ctx.has(Capability::TrustDeclaredCardinality)
        && declared == Some(DeclaredCardinality::ManyToExactOne)
    {
        return true;
    }
    if !ctx.has(Capability::UniqueFromPrimaryKey) || on.is_empty() {
        return false;
    }
    // Trace all left keys to one scan, un-nulled and non-nullable.
    let mut left_scan: Option<(Arc<TableDef>, usize)> = None;
    let mut left_ords = Vec::with_capacity(on.len());
    for &(l, _) in on {
        let o = match ctx.origin(left, l) {
            Some(o) => o,
            None => return false,
        };
        if o.nulled || o.table.schema.field(o.column).nullable {
            return false;
        }
        match &left_scan {
            None => left_scan = Some((Arc::clone(&o.table), o.instance)),
            Some((_, prev)) if *prev == o.instance => {}
            _ => return false,
        }
        left_ords.push(o.column);
    }
    let (left_table, _) = left_scan.expect("on is non-empty");
    // Trace all right keys to one *unfiltered* scan.
    let mut right_scan: Option<(Arc<TableDef>, usize)> = None;
    let mut right_ords = Vec::with_capacity(on.len());
    for &(_, r) in on {
        let o = match ctx.origin(right, r) {
            Some(o) => o,
            None => return false,
        };
        if o.filtered || o.nulled {
            return false;
        }
        match &right_scan {
            None => right_scan = Some((Arc::clone(&o.table), o.instance)),
            Some((_, prev)) if *prev == o.instance => {}
            _ => return false,
        }
        right_ords.push(o.column);
    }
    let (right_table, _) = right_scan.expect("on is non-empty");
    // The right side must contain nothing but that scan (no extra joins
    // that might duplicate; pure projections are fine).
    if !pure_chain_to_scan(right) {
        return false;
    }
    // Right keys must be unique, and a foreign key must align.
    if !right_table.cols_unique(&right_ords) {
        return false;
    }
    left_table.foreign_keys.iter().any(|fk| {
        if !fk.ref_table.eq_ignore_ascii_case(&right_table.name) {
            return false;
        }
        if fk.columns.len() != on.len() {
            return false;
        }
        let resolved: Option<Vec<usize>> =
            fk.ref_columns.iter().map(|n| right_table.schema.index_of(n)).collect();
        match resolved {
            Some(ref_ords) => {
                // Pairwise alignment: fk.columns[i] ↔ ref_ords[i] must match
                // the traced join pairs in some order.
                on.len() == fk.columns.len()
                    && left_ords.iter().zip(&right_ords).all(|(lc, rc)| {
                        fk.columns.iter().zip(&ref_ords).any(|(fc, rf)| fc == lc && rf == rc)
                    })
            }
            None => false,
        }
    })
}

/// True when the plan is just projections/sorts/limits over a single scan.
fn pure_chain_to_scan(plan: &PlanRef) -> bool {
    match plan.as_ref() {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Project { input, exprs, .. } => {
            exprs.iter().all(|(e, _)| matches!(e, Expr::Col(_))) && pure_chain_to_scan(input)
        }
        _ => false,
    }
}

fn identity_map(width: usize) -> ColMap {
    (0..width).map(Some).collect()
}

fn is_identity(map: &ColMap) -> bool {
    map.iter().enumerate().all(|(i, m)| *m == Some(i))
}

fn positions_map(width: usize, kept: &[usize]) -> ColMap {
    let mut map = vec![None; width];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    map
}

fn remap(e: &Expr, map: &ColMap) -> Expr {
    e.remap_columns(&|i| map[i].expect("referenced column was kept"))
}
