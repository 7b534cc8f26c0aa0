//! Augmentation self-join (ASJ) elimination — §5 and §6.3 of the paper.
//!
//! The custom-fields extension pattern joins a view back to its own base
//! table on the key to expose un-projected fields (Fig. 8/9). Unlike a UAJ,
//! an ASJ can be removed *even when its fields are used*: references to the
//! augmenter's columns are **re-wired** to the same table instance inside
//! the anchor, threading the needed base columns up through the anchor's
//! operators (projections are widened; joins are wrapped to keep layouts
//! stable; UNION ALL anchors thread every child — Fig. 13a).
//!
//! Validity conditions implemented here:
//!
//! * the augmenter's join columns are a unique key of the augmenter (no
//!   duplication) and are non-nullable in the base table (a NULL key would
//!   make the join NULL-pad while re-wiring would fabricate values);
//! * the anchor's join columns trace to exactly those key columns of a scan
//!   of the same table, through pure column references;
//! * a filtered augmenter (Fig. 10c) requires the filters collected along
//!   the anchor path to *imply* the augmenter predicate — otherwise some
//!   anchor rows would have been NULL-augmented;
//! * an inner-join ASJ additionally requires the anchor path to never
//!   cross the NULL-padded side of an outer join.
//!
//! For augmenter-side UNION ALL, the **case join** (`asj_intent`) unlocks
//! the full recursive matching (Fig. 13b / Fig. 14b); without intent, a
//! shallow heuristic recognizes only simple branch shapes (Fig. 14a).

use crate::ctx::RewriteCtx;
use crate::profile::Capability;
use std::collections::HashMap;
use std::sync::Arc;
use vdm_catalog::TableDef;
use vdm_expr::{predicate, Expr};
use vdm_plan::{map_children, transform_up, DeclaredCardinality, JoinKind, LogicalPlan, PlanRef};
use vdm_types::{Result, Value};

/// Runs the ASJ pass bottom-up over the whole plan (nested ASJs collapse
/// inside-out because the driver transforms children first).
pub fn asj_pass(plan: &PlanRef, ctx: &RewriteCtx<'_>) -> Result<PlanRef> {
    transform_up(plan, &mut |node| {
        if let LogicalPlan::Join { left, right, kind, on, filter, declared, asj_intent, .. } =
            node.as_ref()
        {
            if filter.is_none() && !on.is_empty() {
                if let Some(new_plan) =
                    try_asj(&node, left, right, *kind, on, *declared, *asj_intent, ctx)?
                {
                    return Ok(new_plan);
                }
            }
        }
        Ok(node)
    })
}

/// A decomposed simple augmenter: `[Project(pure)] [Filter]* Scan`.
struct SimpleAug {
    table: Arc<TableDef>,
    /// Right output ordinal → scan ordinal (None = computed/literal).
    out_scan: Vec<Option<usize>>,
    /// Conjunction of filters, in scan ordinals.
    pred: Option<Expr>,
}

fn decompose_simple(plan: &PlanRef) -> Option<SimpleAug> {
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            debug_assert!(cols.narrowed().is_none(), "ASJ runs before the lowering");
            Some(SimpleAug {
                table: Arc::clone(table),
                out_scan: (0..schema.len()).map(Some).collect(),
                pred: None,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let inner = decompose_simple(input)?;
            // Translate the filter to scan ordinals (it sits above the same
            // layout as `inner.out_scan` describes).
            let translated = translate(predicate, &inner.out_scan)?;
            let pred = match inner.pred {
                Some(p) => Some(p.and(translated)),
                None => Some(translated),
            };
            Some(SimpleAug { table: inner.table, out_scan: inner.out_scan, pred })
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let inner = decompose_simple(input)?;
            let out_scan = exprs
                .iter()
                .map(|(e, _)| match e {
                    Expr::Col(i) => inner.out_scan[*i],
                    _ => None,
                })
                .collect();
            Some(SimpleAug { table: inner.table, out_scan, pred: inner.pred })
        }
        _ => None,
    }
}

/// Remaps an expression through an ordinal map, failing on unmapped refs.
fn translate(e: &Expr, map: &[Option<usize>]) -> Option<Expr> {
    let ok = std::cell::Cell::new(true);
    let out = e.transform(&|node| {
        if let Expr::Col(i) = node {
            match map.get(*i).copied().flatten() {
                Some(m) => return Some(Expr::Col(m)),
                None => {
                    ok.set(false);
                    return Some(node.clone());
                }
            }
        }
        None
    });
    if ok.get() {
        Some(out)
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn try_asj(
    join: &PlanRef,
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    on: &[(usize, usize)],
    declared: Option<DeclaredCardinality>,
    asj_intent: bool,
    ctx: &RewriteCtx<'_>,
) -> Result<Option<PlanRef>> {
    if matches!(right.as_ref(), LogicalPlan::UnionAll { .. }) {
        return try_asj_union(join, left, right, kind, on, declared, asj_intent, ctx);
    }
    let aug = match decompose_simple(right) {
        Some(a) => a,
        None => return Ok(None),
    };
    // Capability gates by shape.
    if aug.pred.is_some() && !ctx.has(Capability::AsjFilteredAugmenter) {
        return Ok(None);
    }
    let anchor_is_scan = matches!(left.as_ref(), LogicalPlan::Scan { .. });
    if anchor_is_scan && !ctx.has(Capability::AsjBasic) {
        return Ok(None);
    }
    if !anchor_is_scan && !ctx.has(Capability::AsjSubquery) {
        return Ok(None);
    }
    // The augmenter must match at most one row per anchor row.
    if !ctx.right_at_most_one(right, on, declared) {
        return Ok(None);
    }
    // Key columns at the scan, non-nullable in the base table.
    let mut key_anchor = Vec::with_capacity(on.len());
    let mut key_scan = Vec::with_capacity(on.len());
    for &(l, r) in on {
        let scan_ord = match aug.out_scan[r] {
            Some(s) => s,
            None => return Ok(None),
        };
        if aug.table.schema.field(scan_ord).nullable {
            return Ok(None);
        }
        key_anchor.push(l);
        key_scan.push(scan_ord);
    }
    // Columns to re-wire: every augmenter output (must all be pure).
    let needed: Vec<usize> = match aug.out_scan.iter().copied().collect::<Option<Vec<_>>>() {
        Some(v) => v,
        None => return Ok(None),
    };
    let spec = ThreadSpec {
        table: aug.table.name.to_ascii_lowercase(),
        outer_ok: kind == JoinKind::LeftOuter,
        through_union: ctx.has(Capability::AsjThroughUnion),
    };
    let out = match thread(left, &key_anchor, &key_scan, &needed, &spec) {
        Some(o) => o,
        None => return Ok(None),
    };
    if kind == JoinKind::Inner && out.nulled {
        return Ok(None);
    }
    // Subsumption (Fig. 10c): the anchor path must imply the augmenter
    // predicate, else some anchor rows should be NULL-augmented.
    if let Some(p) = &aug.pred {
        let path = Expr::conjunction(out.preds.clone());
        if !out.justified && !predicate::implies(&path, p) {
            return Ok(None);
        }
    }
    // Rebuild: anchor columns pass through; augmenter columns re-wired.
    let nl = left.schema().len();
    let join_schema = join.schema();
    let mut exprs = Vec::with_capacity(join_schema.len());
    for i in 0..nl {
        exprs.push((Expr::col(i), join_schema.field(i).name.clone()));
    }
    for (j, scan_ord) in needed.iter().enumerate() {
        let pos = out.appended[scan_ord];
        exprs.push((Expr::col(pos), join_schema.field(nl + j).name.clone()));
    }
    let out_plan = LogicalPlan::project(out.plan, exprs)?;
    vdm_obs::rewrite::fired(
        "asj-elimination",
        join,
        Some(&out_plan),
        &format!(
            "§5: augmenter self-join on {}'s unique non-nullable key; \
             references re-wired to the anchor-side instance",
            aug.table.name
        ),
    );
    Ok(Some(out_plan))
}

/// Threading spec shared down the anchor recursion.
struct ThreadSpec {
    /// Target table name (lowercase).
    table: String,
    /// The ASJ join is a left-outer join: descending into the NULL-padded
    /// side of an outer join inside the anchor is acceptable.
    outer_ok: bool,
    /// The profile may thread through UNION ALL anchors (Fig. 13a).
    through_union: bool,
}

/// Result of threading base columns up through an anchor subtree.
struct ThreadOut {
    /// The rebuilt anchor: original columns in place, requested scan
    /// columns appended (positions in `appended`).
    plan: PlanRef,
    /// Scan ordinal → output position in `plan`.
    appended: HashMap<usize, usize>,
    /// Current-output ordinal → scan ordinal, for pure passthrough columns.
    scan_map: HashMap<usize, usize>,
    /// Filter conjuncts observed on the path, in scan ordinals.
    preds: Vec<Expr>,
    /// Subsumption already proven (per-child, at a UNION ALL).
    justified: bool,
    /// Path crosses the NULL-padded side of an outer join.
    nulled: bool,
}

/// Recursively verifies that `key_anchor` (ordinals of `plan`'s output)
/// trace to `key_scan` of a scan of `spec.table`, and rebuilds `plan` with
/// the `needed` scan columns appended to its output.
fn thread(
    plan: &PlanRef,
    key_anchor: &[usize],
    key_scan: &[usize],
    needed: &[usize],
    spec: &ThreadSpec,
) -> Option<ThreadOut> {
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            debug_assert!(cols.narrowed().is_none(), "ASJ runs before the lowering");
            if table.name.to_ascii_lowercase() != spec.table {
                return None;
            }
            // At the scan, anchor ordinals are scan ordinals.
            if key_anchor != key_scan {
                return None;
            }
            let appended = needed.iter().map(|&s| (s, s)).collect();
            let scan_map = (0..schema.len()).map(|i| (i, i)).collect();
            Some(ThreadOut {
                plan: plan.clone(),
                appended,
                scan_map,
                preds: Vec::new(),
                justified: false,
                nulled: false,
            })
        }
        LogicalPlan::Project { input, exprs, .. } => {
            // Key ordinals must be pure column references.
            let child_keys: Vec<usize> = key_anchor
                .iter()
                .map(|&k| match &exprs[k].0 {
                    Expr::Col(i) => Some(*i),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            let inner = thread(input, &child_keys, key_scan, needed, spec)?;
            let mut new_exprs: Vec<(Expr, String)> = exprs.clone();
            let base = new_exprs.len();
            let mut appended = HashMap::new();
            for (i, &s) in needed.iter().enumerate() {
                new_exprs.push((Expr::col(inner.appended[&s]), format!("__asj_{s}")));
                appended.insert(s, base + i);
            }
            let mut scan_map = HashMap::new();
            for (out_idx, (e, _)) in exprs.iter().enumerate() {
                if let Expr::Col(i) = e {
                    if let Some(&s) = inner.scan_map.get(i) {
                        scan_map.insert(out_idx, s);
                    }
                }
            }
            for (i, &s) in needed.iter().enumerate() {
                scan_map.insert(base + i, s);
            }
            Some(ThreadOut {
                plan: LogicalPlan::project(inner.plan, new_exprs).ok()?,
                appended,
                scan_map,
                preds: inner.preds,
                justified: inner.justified,
                nulled: inner.nulled,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let inner = thread(input, key_anchor, key_scan, needed, spec)?;
            let mut preds = inner.preds;
            for conj in predicate::split_conjunction(predicate) {
                let map: Vec<Option<usize>> =
                    (0..input.schema().len()).map(|i| inner.scan_map.get(&i).copied()).collect();
                if let Some(t) = translate(conj, &map) {
                    preds.push(t);
                }
            }
            Some(ThreadOut {
                plan: map_children(plan, vec![inner.plan]).ok()?,
                appended: inner.appended,
                scan_map: inner.scan_map,
                preds,
                justified: inner.justified,
                nulled: inner.nulled,
            })
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
            let inner = thread(input, key_anchor, key_scan, needed, spec)?;
            Some(ThreadOut { plan: map_children(plan, vec![inner.plan]).ok()?, ..inner })
        }
        LogicalPlan::Join { left, right, kind, on, filter, declared, asj_intent, .. } => {
            let nl = left.schema().len();
            let all_left = key_anchor.iter().all(|&k| k < nl);
            let all_right = key_anchor.iter().all(|&k| k >= nl);
            if all_left {
                let inner = thread(left, key_anchor, key_scan, needed, spec)?;
                // A Scan anchor appends nothing (its columns already exist);
                // deeper anchors widen by the threaded columns.
                let new_nl = inner.plan.schema().len();
                let widen = new_nl - nl;
                // Residual filter ordinals: right refs shift by the widening.
                let new_filter = filter
                    .as_ref()
                    .map(|f| f.remap_columns(&|i| if i < nl { i } else { i + widen }));
                let new_join = LogicalPlan::join(
                    inner.plan,
                    right.clone(),
                    *kind,
                    on.clone(),
                    new_filter,
                    *declared,
                    *asj_intent,
                )
                .ok()?;
                // Restore layout: [left₀.., right.., appended..].
                let nr = right.schema().len();
                let js = new_join.schema();
                let mut exprs: Vec<(Expr, String)> = Vec::with_capacity(nl + nr + needed.len());
                for i in 0..nl {
                    exprs.push((Expr::col(i), js.field(i).name.clone()));
                }
                for i in 0..nr {
                    exprs.push((Expr::col(new_nl + i), js.field(new_nl + i).name.clone()));
                }
                let mut appended = HashMap::new();
                for (j, &s) in needed.iter().enumerate() {
                    let pos_in_left = inner.appended[&s];
                    exprs.push((Expr::col(pos_in_left), format!("__asj_{s}")));
                    appended.insert(s, nl + nr + j);
                }
                let mut scan_map = HashMap::new();
                for (i, s) in &inner.scan_map {
                    if *i < nl {
                        scan_map.insert(*i, *s);
                    }
                }
                for (j, &s) in needed.iter().enumerate() {
                    scan_map.insert(nl + nr + j, s);
                }
                Some(ThreadOut {
                    plan: LogicalPlan::project(new_join, exprs).ok()?,
                    appended,
                    scan_map,
                    preds: inner.preds,
                    justified: inner.justified,
                    nulled: inner.nulled,
                })
            } else if all_right {
                if *kind == JoinKind::LeftOuter && !spec.outer_ok {
                    return None;
                }
                let child_keys: Vec<usize> = key_anchor.iter().map(|&k| k - nl).collect();
                let inner = thread(right, &child_keys, key_scan, needed, spec)?;
                let new_join = LogicalPlan::join(
                    left.clone(),
                    inner.plan,
                    *kind,
                    on.clone(),
                    filter.clone(),
                    *declared,
                    *asj_intent,
                )
                .ok()?;
                // Appended columns land at the very end already.
                let mut appended = HashMap::new();
                for (&s, &p) in &inner.appended {
                    appended.insert(s, nl + p);
                }
                let mut scan_map = HashMap::new();
                for (i, s) in &inner.scan_map {
                    scan_map.insert(nl + i, *s);
                }
                Some(ThreadOut {
                    plan: new_join,
                    appended,
                    scan_map,
                    preds: inner.preds,
                    justified: inner.justified,
                    nulled: inner.nulled || *kind == JoinKind::LeftOuter,
                })
            } else {
                None
            }
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            if !spec.through_union {
                return None;
            }
            let width = plan.schema().len();
            let mut new_children = Vec::with_capacity(inputs.len());
            let mut nulled = false;
            for child in inputs {
                let inner = thread(child, key_anchor, key_scan, needed, spec)?;
                nulled |= inner.nulled;
                // Per-child subsumption is checked by the caller via
                // `justified`; collect per-child preds into justification
                // only when the caller supplied a predicate — the caller
                // cannot see per-child preds, so we conservatively mark
                // unjustified and let the caller handle the no-predicate
                // case. To keep Fig. 10(c)-style filtered augmenters
                // working through unions, each child's preds must already
                // imply the augmenter predicate — delegated via
                // `thread_union_pred_check` below by the ASJ caller.
                let cs = child.schema();
                let mut exprs: Vec<(Expr, String)> =
                    (0..width).map(|i| (Expr::col(i), cs.field(i).name.clone())).collect();
                for &s in needed {
                    exprs.push((Expr::col(inner.appended[&s]), format!("__asj_{s}")));
                }
                new_children.push((LogicalPlan::project(inner.plan, exprs).ok()?, inner.preds));
            }
            let plans: Vec<PlanRef> = new_children.iter().map(|(p, _)| p.clone()).collect();
            let union = LogicalPlan::union_all(plans).ok()?;
            let mut appended = HashMap::new();
            for (j, &s) in needed.iter().enumerate() {
                appended.insert(s, width + j);
            }
            // Per-child predicate collections: expose the weakest common
            // justification by keeping only conjuncts present in EVERY
            // child (a predicate that holds for all union rows).
            let mut common: Vec<Expr> =
                new_children.first().map(|(_, p)| p.clone()).unwrap_or_default();
            for (_, preds) in &new_children[1..] {
                common.retain(|c| preds.contains(c));
            }
            Some(ThreadOut {
                plan: union,
                appended,
                scan_map: HashMap::new(),
                preds: common,
                justified: false,
                nulled,
            })
        }
        // Aggregates/Distinct/Values block re-wiring.
        _ => None,
    }
}

/// One branch of an augmenter-side UNION ALL (the Fig. 13b pattern),
/// fully resolved against its base table.
struct BranchInfo {
    bid: Value,
    table: String,
    /// Scan ordinals of the (non-bid) join keys.
    key_scan: Vec<usize>,
    /// Scan ordinals of the augmenter outputs to re-wire (non-bid, in
    /// right-output order).
    needed_scan: Vec<usize>,
    /// Branch filter in scan ordinals.
    pred: Option<Expr>,
}

/// Case-join ASJ: the augmenter is a branch-id UNION ALL; the anchor
/// contains (possibly under projections/filters) a matching UNION ALL whose
/// children pair with the augmenter branches by branch-id constant.
#[allow(clippy::too_many_arguments)]
fn try_asj_union(
    join: &PlanRef,
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    on: &[(usize, usize)],
    declared: Option<DeclaredCardinality>,
    asj_intent: bool,
    ctx: &RewriteCtx<'_>,
) -> Result<Option<PlanRef>> {
    let full_power = asj_intent && ctx.has(Capability::CaseJoin);
    let heuristic = ctx.has(Capability::AsjUnionHeuristic);
    if !full_power && !heuristic {
        return Ok(None);
    }
    if kind != JoinKind::LeftOuter {
        return Ok(None);
    }
    let aug_children = match right.as_ref() {
        LogicalPlan::UnionAll { inputs, .. } => inputs,
        _ => return Ok(None),
    };
    if !ctx.right_at_most_one(right, on, declared) {
        return Ok(None);
    }
    // Identify the branch-id pair: the join pair whose augmenter column is
    // a distinct constant in every augmenter child.
    let nr_width = right.schema().len();
    let mut bid_pair: Option<(usize, usize)> = None;
    for &(l, r) in on {
        let consts: Vec<Option<Value>> =
            aug_children.iter().map(|c| branch_constant(c, r)).collect();
        if consts.iter().all(|c| c.is_some()) {
            let vals: Vec<Value> = consts.into_iter().flatten().collect();
            let distinct =
                vals.iter().enumerate().all(|(i, v)| vals.iter().skip(i + 1).all(|w| w != v));
            if distinct {
                bid_pair = Some((l, r));
                break;
            }
        }
    }
    let (bid_l, bid_r) = match bid_pair {
        Some(p) => p,
        None => return Ok(None),
    };
    let key_pairs: Vec<(usize, usize)> =
        on.iter().copied().filter(|&p| p != (bid_l, bid_r)).collect();
    if key_pairs.is_empty() {
        return Ok(None);
    }
    let needed_out: Vec<usize> = (0..nr_width).filter(|&j| j != bid_r).collect();
    // Resolve each augmenter branch against its base table.
    let mut branches = Vec::with_capacity(aug_children.len());
    for child in aug_children {
        let bid = branch_constant(child, bid_r).expect("checked above");
        let aug = match decompose_simple(child) {
            Some(a) => a,
            None => return Ok(None),
        };
        if aug.pred.is_some() && !ctx.has(Capability::AsjFilteredAugmenter) {
            return Ok(None);
        }
        let mut key_scan = Vec::with_capacity(key_pairs.len());
        for &(_, r) in &key_pairs {
            let scan_ord = match aug.out_scan[r] {
                Some(s) => s,
                None => return Ok(None),
            };
            if aug.table.schema.field(scan_ord).nullable {
                return Ok(None);
            }
            key_scan.push(scan_ord);
        }
        let needed_scan: Vec<usize> =
            match needed_out.iter().map(|&j| aug.out_scan[j]).collect::<Option<Vec<_>>>() {
                Some(v) => v,
                None => return Ok(None),
            };
        branches.push(BranchInfo {
            bid,
            table: aug.table.name.to_ascii_lowercase(),
            key_scan,
            needed_scan,
            pred: aug.pred,
        });
    }
    let key_anchor: Vec<usize> = key_pairs.iter().map(|&(l, _)| l).collect();
    let through_union = ctx.has(Capability::AsjThroughUnion);
    let out = match thread_case(left, bid_l, &key_anchor, &branches, full_power, through_union) {
        Some(o) => o,
        None => return Ok(None),
    };
    // Final projection replicating the join's output layout: anchor columns
    // pass through; the augmenter's bid re-wires to the anchor's own bid;
    // the other augmenter columns re-wire to the threaded positions.
    let width = left.schema().len();
    let js = join.schema();
    let mut exprs: Vec<(Expr, String)> =
        (0..width).map(|i| (Expr::col(i), js.field(i).name.clone())).collect();
    for j in 0..nr_width {
        let name = js.field(width + j).name.clone();
        if j == bid_r {
            exprs.push((Expr::col(bid_l), name));
        } else {
            let pos = needed_out.iter().position(|&x| x == j).expect("non-bid col");
            exprs.push((Expr::col(out.appended_at[pos]), name));
        }
    }
    let out_plan = LogicalPlan::project(out.plan, exprs)?;
    vdm_obs::rewrite::fired(
        "case-join",
        join,
        Some(&out_plan),
        &format!(
            "§6.3: UNION ALL augmenter ({} branch(es)) paired to anchor \
             branches by branch-id constant; per-branch keys unique",
            branches.len()
        ),
    );
    Ok(Some(out_plan))
}

/// Result of threading a case join into an anchor subtree.
struct CaseThread {
    plan: PlanRef,
    /// Output position of each re-wired augmenter column (in
    /// `needed_out` order).
    appended_at: Vec<usize>,
}

/// Descends through pure wrappers to the anchor UNION ALL, pairs its
/// children to the augmenter branches by branch-id constant, and threads
/// each child's own table instance.
fn thread_case(
    plan: &PlanRef,
    bid_ord: usize,
    key_ords: &[usize],
    branches: &[BranchInfo],
    full_power: bool,
    through_union: bool,
) -> Option<CaseThread> {
    match plan.as_ref() {
        LogicalPlan::Project { input, exprs, .. } => {
            let map = |o: usize| -> Option<usize> {
                match &exprs[o].0 {
                    Expr::Col(i) => Some(*i),
                    _ => None,
                }
            };
            let inner_bid = map(bid_ord)?;
            let inner_keys: Vec<usize> = key_ords.iter().map(|&k| map(k)).collect::<Option<_>>()?;
            let inner =
                thread_case(input, inner_bid, &inner_keys, branches, full_power, through_union)?;
            let mut new_exprs = exprs.clone();
            let base = new_exprs.len();
            let mut appended_at = Vec::with_capacity(inner.appended_at.len());
            for (i, &p) in inner.appended_at.iter().enumerate() {
                new_exprs.push((Expr::col(p), format!("__case_{i}")));
                appended_at.push(base + i);
            }
            Some(CaseThread {
                plan: LogicalPlan::project(inner.plan, new_exprs).ok()?,
                appended_at,
            })
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => {
            let inner = thread_case(input, bid_ord, key_ords, branches, full_power, through_union)?;
            Some(CaseThread { plan: map_children(plan, vec![inner.plan]).ok()?, ..inner })
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            if inputs.len() != branches.len() {
                return None;
            }
            let width = plan.schema().len();
            let mut new_children = Vec::with_capacity(inputs.len());
            let mut used = vec![false; branches.len()];
            for child in inputs {
                if !full_power && !is_shallow_branch(child) {
                    // Heuristic regime (Fig. 14a): complex anchor branches
                    // defeat recognition.
                    return None;
                }
                let abid = branch_constant(child, bid_ord)?;
                let idx = branches.iter().position(|b| b.bid == abid)?;
                if std::mem::replace(&mut used[idx], true) {
                    return None;
                }
                let branch = &branches[idx];
                let spec =
                    ThreadSpec { table: branch.table.clone(), outer_ok: true, through_union };
                let out = thread(child, key_ords, &branch.key_scan, &branch.needed_scan, &spec)?;
                if let Some(p) = &branch.pred {
                    let path = Expr::conjunction(out.preds.clone());
                    if !out.justified && !predicate::implies(&path, p) {
                        return None;
                    }
                }
                let cs = child.schema();
                let mut exprs: Vec<(Expr, String)> =
                    (0..width).map(|i| (Expr::col(i), cs.field(i).name.clone())).collect();
                for (i, &s) in branch.needed_scan.iter().enumerate() {
                    exprs.push((Expr::col(out.appended[&s]), format!("__case_{i}")));
                }
                new_children.push(LogicalPlan::project(out.plan, exprs).ok()?);
            }
            let union = LogicalPlan::union_all(new_children).ok()?;
            let appended_at = (0..branches[0].needed_scan.len()).map(|i| width + i).collect();
            Some(CaseThread { plan: union, appended_at })
        }
        _ => None,
    }
}

/// The constant a plan emits in output column `b`, when provable.
fn branch_constant(plan: &PlanRef, b: usize) -> Option<Value> {
    match plan.as_ref() {
        LogicalPlan::Project { exprs, .. } => match &exprs.get(b)?.0 {
            Expr::Lit(v) if !v.is_null() => Some(v.clone()),
            _ => None,
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => branch_constant(input, b),
        _ => None,
    }
}

/// Shallow shapes the union heuristic recognizes:
/// `Project(literals + pure cols) over [Filter] Scan`.
fn is_shallow_branch(plan: &PlanRef) -> bool {
    match plan.as_ref() {
        LogicalPlan::Project { input, exprs, .. } => {
            exprs.iter().all(|(e, _)| matches!(e, Expr::Col(_) | Expr::Lit(_)))
                && matches!(input.as_ref(), LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. })
                && match input.as_ref() {
                    LogicalPlan::Filter { input: inner, .. } => {
                        matches!(inner.as_ref(), LogicalPlan::Scan { .. })
                    }
                    _ => true,
                }
        }
        _ => false,
    }
}
