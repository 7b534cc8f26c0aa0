//! Unique-key-set derivation — the analysis behind augmentation-join
//! detection (§4.2 of the paper).
//!
//! For every plan node we derive a list of *unique column sets*: sets of
//! output ordinals such that no two output rows agree on all of them
//! (treating the NULL padding of outer joins as a value). A join's right
//! side matching at most one row — the upper bound of AJ 1 / AJ 2 — is
//! exactly the condition "the right join columns cover some unique set of
//! the right child".
//!
//! Every individual derivation is switchable via [`DeriveOptions`]. This is
//! how the benchmark harness reproduces Tables 1–4: the `Postgres` profile,
//! for example, lacks `through_join`, so it cannot see that `c_custkey`
//! stays unique across an added join (UAJ 1a) even though it derives
//! uniqueness from primary keys and GROUP BY just fine.
//!
//! A special convention: the **empty set** as a unique set means *the
//! relation has at most one row* (every column set, including the empty
//! one, is then trivially unique).

use crate::node::{DeclaredCardinality, JoinKind, LogicalPlan, PlanRef};
use std::collections::BTreeSet;
use vdm_expr::{fold, predicate, Expr};

/// Which uniqueness derivations are enabled.
///
/// Field names follow the paper's case analysis: AJ 2a-1 (`from_primary_key`),
/// AJ 2a-2 (`from_group_by`), AJ 2a-3 (`from_const_filter`), the subquery
/// variants of Fig. 5 (`through_join`, `through_sort_limit`), the Fig. 12
/// UNION ALL patterns (`union_disjoint`, `union_branch_id`), and §7.3's
/// declared cardinalities (`trust_declared`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeriveOptions {
    pub from_primary_key: bool,
    pub from_group_by: bool,
    pub from_const_filter: bool,
    pub through_join: bool,
    pub through_sort_limit: bool,
    pub union_disjoint: bool,
    pub union_branch_id: bool,
    pub trust_declared: bool,
}

impl DeriveOptions {
    /// Everything on (the SAP HANA profile).
    pub fn all() -> DeriveOptions {
        DeriveOptions {
            from_primary_key: true,
            from_group_by: true,
            from_const_filter: true,
            through_join: true,
            through_sort_limit: true,
            union_disjoint: true,
            union_branch_id: true,
            trust_declared: true,
        }
    }

    /// Everything off.
    pub fn none() -> DeriveOptions {
        DeriveOptions {
            from_primary_key: false,
            from_group_by: false,
            from_const_filter: false,
            through_join: false,
            through_sort_limit: false,
            union_disjoint: false,
            union_branch_id: false,
            trust_declared: false,
        }
    }
}

impl Default for DeriveOptions {
    fn default() -> Self {
        DeriveOptions::all()
    }
}

/// Cap on tracked unique sets per node — keeps the join product bounded.
const MAX_SETS: usize = 16;

/// True when `cols` is a superset of one of `sets` (at most one row can
/// share a value combination over `cols`).
pub fn covers_unique(sets: &[BTreeSet<usize>], cols: &BTreeSet<usize>) -> bool {
    sets.iter().any(|s| s.is_subset(cols))
}

/// Child-property lookup used by [`derive_with`]: the uncached path recurses
/// directly, while the `PropertyCache` resolves shared subtrees from its memo.
pub(crate) type SetsResolver<'a> = &'a mut dyn FnMut(&PlanRef) -> Vec<BTreeSet<usize>>;

/// Derives the unique column sets of `plan`'s output under `opts`.
pub fn unique_sets(plan: &LogicalPlan, opts: &DeriveOptions) -> Vec<BTreeSet<usize>> {
    derive_with(plan, opts, &mut |child| unique_sets(child, opts))
}

/// Single-node derivation with child sets supplied by `resolve`.
pub(crate) fn derive_with(
    plan: &LogicalPlan,
    opts: &DeriveOptions,
    resolve: SetsResolver<'_>,
) -> Vec<BTreeSet<usize>> {
    minimize(derive(plan, opts, resolve))
}

fn minimize(mut sets: Vec<BTreeSet<usize>>) -> Vec<BTreeSet<usize>> {
    // Total order (size, then contents) so `dedup` removes *every*
    // duplicate, not just adjacent ones — equal-size duplicates used to
    // survive and crowd the MAX_SETS cap on join-heavy plans.
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    let mut out: Vec<BTreeSet<usize>> = Vec::new();
    for s in sets {
        if !out.iter().any(|kept| kept.is_subset(&s)) {
            out.push(s);
        }
        if out.len() >= MAX_SETS {
            break;
        }
    }
    out
}

fn derive(
    plan: &LogicalPlan,
    opts: &DeriveOptions,
    resolve: SetsResolver<'_>,
) -> Vec<BTreeSet<usize>> {
    match plan {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            if !opts.from_primary_key {
                return Vec::new();
            }
            // A key survives narrowing when the scan still emits all of it.
            let emitted: Vec<usize> = (0..schema.len()).map(|o| cols.table_ordinal(o)).collect();
            let output_of = |t: usize| emitted.iter().position(|&e| e == t);
            table
                .unique_sets()
                .into_iter()
                .filter_map(|key| key.into_iter().map(output_of).collect())
                .collect()
        }
        LogicalPlan::Values { rows, .. } => {
            if rows.len() <= 1 {
                vec![BTreeSet::new()]
            } else {
                Vec::new()
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let child = resolve(input);
            // Map input ordinal -> first output position projecting it as-is.
            let mut pos_of: std::collections::HashMap<usize, usize> = Default::default();
            for (out_idx, (e, _)) in exprs.iter().enumerate() {
                if let Expr::Col(i) = e {
                    pos_of.entry(*i).or_insert(out_idx);
                }
            }
            child
                .into_iter()
                .filter_map(|s| {
                    s.iter().map(|c| pos_of.get(c).copied()).collect::<Option<BTreeSet<usize>>>()
                })
                .collect()
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut sets = resolve(input);
            if opts.from_const_filter {
                let bound = predicate::constant_bound_columns(predicate);
                if !bound.is_empty() {
                    let shrunk: Vec<BTreeSet<usize>> =
                        sets.iter().map(|s| s.difference(&bound).copied().collect()).collect();
                    sets.extend(shrunk);
                }
            }
            sets
        }
        LogicalPlan::Join { left, right, kind, on, declared, .. } => {
            derive_join(left, right, *kind, on, *declared, opts, resolve)
        }
        LogicalPlan::UnionAll { inputs, .. } => derive_union(inputs, opts, resolve),
        LogicalPlan::Aggregate { input, group_by, .. } => {
            let mut sets = Vec::new();
            if group_by.is_empty() {
                // Global aggregation: exactly one output row.
                sets.push(BTreeSet::new());
            } else if opts.from_group_by {
                sets.push((0..group_by.len()).collect());
            }
            let _ = input;
            sets
        }
        LogicalPlan::Distinct { input } => {
            let mut sets = resolve(input);
            if opts.from_group_by {
                sets.push((0..input.schema().len()).collect());
            }
            sets
        }
        LogicalPlan::Sort { input, .. } => {
            if opts.through_sort_limit {
                resolve(input)
            } else {
                Vec::new()
            }
        }
        LogicalPlan::Limit { input, fetch, .. } => {
            let mut sets = if opts.through_sort_limit { resolve(input) } else { Vec::new() };
            if matches!(fetch, Some(0) | Some(1)) {
                sets.push(BTreeSet::new());
            }
            sets
        }
    }
}

/// True when the right child of an equi join matches *at most one* row per
/// left row: the right join columns cover a unique set of the right child,
/// or the query declared a many-to-one cardinality (§7.3).
pub fn join_right_at_most_one(
    right: &LogicalPlan,
    on: &[(usize, usize)],
    declared: Option<DeclaredCardinality>,
    opts: &DeriveOptions,
) -> bool {
    if opts.trust_declared && declared.is_some() {
        return true;
    }
    let right_cols: BTreeSet<usize> = on.iter().map(|&(_, r)| r).collect();
    covers_unique(&unique_sets(right, opts), &right_cols)
}

#[allow(clippy::too_many_arguments)]
fn derive_join(
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    on: &[(usize, usize)],
    declared: Option<DeclaredCardinality>,
    opts: &DeriveOptions,
    resolve: SetsResolver<'_>,
) -> Vec<BTreeSet<usize>> {
    if !opts.through_join {
        return Vec::new();
    }
    let left_sets = resolve(left);
    let right_sets = resolve(right);
    let nl = left.schema().len();
    let shift = |s: &BTreeSet<usize>| -> BTreeSet<usize> { s.iter().map(|c| c + nl).collect() };

    let mut out = Vec::new();

    // Right side at-most-one match: left keys stay keys.
    let at_most_one = (opts.trust_declared && declared.is_some()) || {
        let right_cols: BTreeSet<usize> = on.iter().map(|&(_, r)| r).collect();
        covers_unique(&right_sets, &right_cols)
    };
    if at_most_one {
        out.extend(left_sets.iter().cloned());
    }

    // Left side at-most-one match (inner only: outer joins emit NULL-padded
    // right keys that can repeat across unmatched left rows).
    if kind == JoinKind::Inner {
        let left_cols: BTreeSet<usize> = on.iter().map(|&(l, _)| l).collect();
        if covers_unique(&left_sets, &left_cols) {
            out.extend(right_sets.iter().map(&shift));
        }
    }

    // A left key combined with a right key always identifies the row pair.
    // Combinations already covered by a kept set are non-minimal and would
    // be dropped by `minimize` anyway — skip them to bound the product.
    for l in left_sets.iter().take(4) {
        for r in right_sets.iter().take(4) {
            let mut c = l.clone();
            c.extend(shift(r));
            if !covers_unique(&out, &c) {
                out.push(c);
            }
        }
    }
    out
}

/// Decomposes a plan into `(table_name, predicate-over-table-ordinals,
/// out_map)` when it is a (possibly projected/filtered) scan of one table.
/// `out_map[i]` is the table ordinal that output column `i` passes through
/// unchanged, or `None` for computed columns.
fn as_filtered_source(plan: &LogicalPlan) -> Option<(String, Vec<Expr>, Vec<Option<usize>>)> {
    match plan {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            let map = (0..schema.len()).map(|o| Some(cols.table_ordinal(o))).collect();
            Some((table.name.clone(), Vec::new(), map))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (name, mut preds, map) = as_filtered_source(input)?;
            // Remap the predicate to scan ordinals; bail if it touches a
            // computed column.
            let ok = std::cell::Cell::new(true);
            let remapped = predicate.transform(&|e| {
                if let Expr::Col(i) = e {
                    match map.get(*i).copied().flatten() {
                        Some(scan_ord) => return Some(Expr::Col(scan_ord)),
                        None => {
                            ok.set(false);
                            return Some(e.clone());
                        }
                    }
                }
                None
            });
            if !ok.get() {
                return None;
            }
            preds.push(remapped);
            Some((name, preds, map))
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let (name, preds, map) = as_filtered_source(input)?;
            let out_map = exprs
                .iter()
                .map(|(e, _)| match e {
                    Expr::Col(i) => map.get(*i).copied().flatten(),
                    _ => None,
                })
                .collect();
            Some((name, preds, out_map))
        }
        _ => None,
    }
}

fn derive_union(
    inputs: &[PlanRef],
    opts: &DeriveOptions,
    resolve: SetsResolver<'_>,
) -> Vec<BTreeSet<usize>> {
    if inputs.len() == 1 {
        return resolve(&inputs[0]);
    }
    let child_sets: Vec<Vec<BTreeSet<usize>>> = inputs.iter().map(resolve).collect();
    // A candidate S is "per-child unique" when every child has a unique set
    // contained in S (children share one output layout positionally).
    let per_child_unique =
        |s: &BTreeSet<usize>| -> bool { child_sets.iter().all(|sets| covers_unique(sets, s)) };

    let mut out = Vec::new();

    // Fig. 12(a): disjoint subsets of the same relation — per-child-unique
    // sets remain unique across the union because no row (hence no key
    // value) can appear in two children.
    if opts.union_disjoint {
        let sources: Option<Vec<_>> = inputs.iter().map(|c| as_filtered_source(c)).collect();
        if let Some(sources) = sources {
            let (name0, _, map0) = &sources[0];
            let same_shape = sources.iter().all(|(n, _, m)| n == name0 && m == map0);
            let pairwise_disjoint = || {
                for i in 0..sources.len() {
                    for j in (i + 1)..sources.len() {
                        let pi = Expr::conjunction(sources[i].1.clone());
                        let pj = Expr::conjunction(sources[j].1.clone());
                        if !predicate::disjoint(&pi, &pj) {
                            return false;
                        }
                    }
                }
                true
            };
            if same_shape && pairwise_disjoint() {
                for s in &child_sets[0] {
                    if per_child_unique(s) {
                        out.push(s.clone());
                    }
                }
            }
        }
    }

    // Fig. 12(b): a branch-id column holding a distinct constant per child
    // makes ⟨bid, per-child key⟩ unique across the union.
    if opts.union_branch_id {
        let width = inputs[0].schema().len();
        for b in 0..width {
            let mut consts = Vec::with_capacity(inputs.len());
            for child in inputs {
                match branch_constant(child, b) {
                    Some(v) => consts.push(v),
                    None => {
                        consts.clear();
                        break;
                    }
                }
            }
            if consts.len() == inputs.len() {
                let all_distinct = {
                    let mut seen = Vec::new();
                    consts.iter().all(|v| {
                        if seen.contains(v) {
                            false
                        } else {
                            seen.push(v.clone());
                            true
                        }
                    })
                };
                if all_distinct {
                    for s in &child_sets[0] {
                        if per_child_unique(s) {
                            let mut with_bid = s.clone();
                            with_bid.insert(b);
                            out.push(with_bid);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Statically-empty relation detection (AJ 2b: `R ⟕ ∅`).
pub fn statically_empty(plan: &LogicalPlan) -> bool {
    statically_empty_with(plan, &mut |c| statically_empty(c))
}

/// Single-node emptiness check with child results supplied by `resolve`.
pub(crate) fn statically_empty_with(
    plan: &LogicalPlan,
    resolve: &mut dyn FnMut(&PlanRef) -> bool,
) -> bool {
    match plan {
        LogicalPlan::Values { rows, .. } => rows.is_empty(),
        LogicalPlan::Filter { input, predicate } => {
            fold::is_always_false(predicate) || resolve(input)
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. } => resolve(input),
        LogicalPlan::Limit { input, fetch, .. } => *fetch == Some(0) || resolve(input),
        LogicalPlan::Join { left, right, kind, .. } => {
            resolve(left) || (*kind == JoinKind::Inner && resolve(right))
        }
        LogicalPlan::UnionAll { inputs, .. } => inputs.iter().all(resolve),
        _ => false,
    }
}

/// The constant a child emits in output column `b`, when provable.
fn branch_constant(plan: &LogicalPlan, b: usize) -> Option<vdm_types::Value> {
    match plan {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SortKey;
    use std::sync::Arc;
    use vdm_catalog::{TableBuilder, TableDef};
    use vdm_expr::{AggExpr, AggFunc, BinOp};
    use vdm_types::SqlType;

    fn lineitem() -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new("lineitem")
                .column("l_orderkey", SqlType::Int, false)
                .column("l_linenumber", SqlType::Int, false)
                .column("l_quantity", SqlType::Int, false)
                .primary_key(&["l_orderkey", "l_linenumber"])
                .build()
                .unwrap(),
        )
    }

    fn customer() -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new("customer")
                .column("c_custkey", SqlType::Int, false)
                .column("c_nationkey", SqlType::Int, false)
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

    fn set(cols: &[usize]) -> BTreeSet<usize> {
        cols.iter().copied().collect()
    }

    #[test]
    fn scan_seeds_from_primary_key() {
        let s = LogicalPlan::scan(customer());
        assert_eq!(unique_sets(&s, &DeriveOptions::all()), vec![set(&[0])]);
        assert!(unique_sets(&s, &DeriveOptions::none()).is_empty());
    }

    #[test]
    fn const_filter_shrinks_composite_key() {
        // AJ 2a-3: lineitem WHERE l_linenumber = 1 → l_orderkey unique.
        let scan = LogicalPlan::scan(lineitem());
        let f = LogicalPlan::filter(scan, Expr::col(1).eq(Expr::int(1))).unwrap();
        let sets = unique_sets(&f, &DeriveOptions::all());
        assert!(covers_unique(&sets, &set(&[0])), "sets: {sets:?}");
        let mut no_cf = DeriveOptions::all();
        no_cf.from_const_filter = false;
        let sets = unique_sets(&f, &no_cf);
        assert!(!covers_unique(&sets, &set(&[0])));
        assert!(covers_unique(&sets, &set(&[0, 1])));
    }

    #[test]
    fn group_by_key_is_unique() {
        // AJ 2a-2.
        let scan = LogicalPlan::scan(lineitem());
        let agg = LogicalPlan::aggregate(
            scan,
            vec![(Expr::col(0), "ok".into())],
            vec![(AggExpr::new(AggFunc::Sum, Expr::col(2)), "qty".into())],
        )
        .unwrap();
        assert!(covers_unique(&unique_sets(&agg, &DeriveOptions::all()), &set(&[0])));
        let mut no_gb = DeriveOptions::all();
        no_gb.from_group_by = false;
        assert!(!covers_unique(&unique_sets(&agg, &no_gb), &set(&[0])));
    }

    #[test]
    fn global_aggregate_has_one_row() {
        let scan = LogicalPlan::scan(lineitem());
        let agg = LogicalPlan::aggregate(scan, vec![], vec![(AggExpr::count_star(), "n".into())])
            .unwrap();
        let sets = unique_sets(&agg, &DeriveOptions::none());
        assert_eq!(sets, vec![BTreeSet::new()]);
    }

    #[test]
    fn uniqueness_survives_augmenting_join() {
        // UAJ 1a's augmenter: customer ⋈ nation on c_nationkey = n_nationkey.
        let c = LogicalPlan::scan(customer());
        let n = LogicalPlan::scan(nation());
        let j = LogicalPlan::inner_join(c, n, vec![(1, 0)]).unwrap();
        let sets = unique_sets(&j, &DeriveOptions::all());
        assert!(covers_unique(&sets, &set(&[0])), "c_custkey must stay unique: {sets:?}");
        let mut no_tj = DeriveOptions::all();
        no_tj.through_join = false;
        assert!(!covers_unique(&unique_sets(&j, &no_tj), &set(&[0])));
    }

    #[test]
    fn left_outer_does_not_propagate_right_keys() {
        // Unmatched left rows pad right keys with NULL; right keys are not
        // unique in the output even when the left side is keyed.
        let c = LogicalPlan::scan(customer());
        let n = LogicalPlan::scan(nation());
        // customer LEFT JOIN nation on c_custkey = n_nationkey (left side keyed).
        let j = LogicalPlan::left_join(c, n, vec![(0, 0)]).unwrap();
        let sets = unique_sets(&j, &DeriveOptions::all());
        assert!(!covers_unique(&sets, &set(&[2])), "sets: {sets:?}");
        // But the inner variant does propagate.
        let c = LogicalPlan::scan(customer());
        let n = LogicalPlan::scan(nation());
        let j = LogicalPlan::inner_join(c, n, vec![(0, 0)]).unwrap();
        assert!(covers_unique(&unique_sets(&j, &DeriveOptions::all()), &set(&[2])));
    }

    #[test]
    fn sort_limit_preserve_keys_when_enabled() {
        // UAJ 1b: ORDER BY + LIMIT on top of the augmenter.
        let c = LogicalPlan::scan(customer());
        let s = LogicalPlan::sort(c, vec![SortKey::desc(1)]).unwrap();
        let l = LogicalPlan::limit(s, 0, Some(10));
        assert!(covers_unique(&unique_sets(&l, &DeriveOptions::all()), &set(&[0])));
        let mut no_sl = DeriveOptions::all();
        no_sl.through_sort_limit = false;
        assert!(!covers_unique(&unique_sets(&l, &no_sl), &set(&[0])));
    }

    #[test]
    fn limit_one_means_single_row() {
        let c = LogicalPlan::scan(customer());
        let l = LogicalPlan::limit(c, 0, Some(1));
        assert!(unique_sets(&l, &DeriveOptions::none()).contains(&BTreeSet::new()));
    }

    #[test]
    fn projection_maps_keys_through_pure_columns() {
        let c = LogicalPlan::scan(customer());
        let p = LogicalPlan::project(
            c,
            vec![(Expr::col(1), "nat".into()), (Expr::col(0), "key".into())],
        )
        .unwrap();
        assert!(covers_unique(&unique_sets(&p, &DeriveOptions::all()), &set(&[1])));
        // Dropping the key column loses the set.
        let c = LogicalPlan::scan(customer());
        let p = LogicalPlan::project(c, vec![(Expr::col(1), "nat".into())]).unwrap();
        assert!(unique_sets(&p, &DeriveOptions::all()).is_empty());
    }

    #[test]
    fn union_of_disjoint_subsets_preserves_key() {
        // Fig. 12(a): σ(c_nationkey = 1) ∪ σ(c_nationkey <> 1) over customer.
        let a = LogicalPlan::filter(LogicalPlan::scan(customer()), Expr::col(1).eq(Expr::int(1)))
            .unwrap();
        let b = LogicalPlan::filter(
            LogicalPlan::scan(customer()),
            Expr::col(1).binary(BinOp::NotEq, Expr::int(1)),
        )
        .unwrap();
        let u = LogicalPlan::union_all(vec![a, b]).unwrap();
        let sets = unique_sets(&u, &DeriveOptions::all());
        assert!(covers_unique(&sets, &set(&[0])), "sets: {sets:?}");
        let mut no_ud = DeriveOptions::all();
        no_ud.union_disjoint = false;
        assert!(!covers_unique(&unique_sets(&u, &no_ud), &set(&[0])));
    }

    #[test]
    fn union_with_overlapping_predicates_is_not_unique() {
        let a = LogicalPlan::filter(
            LogicalPlan::scan(customer()),
            Expr::col(1).binary(BinOp::Gt, Expr::int(0)),
        )
        .unwrap();
        let b = LogicalPlan::filter(
            LogicalPlan::scan(customer()),
            Expr::col(1).binary(BinOp::Gt, Expr::int(5)),
        )
        .unwrap();
        let u = LogicalPlan::union_all(vec![a, b]).unwrap();
        assert!(!covers_unique(&unique_sets(&u, &DeriveOptions::all()), &set(&[0])));
    }

    #[test]
    fn union_branch_id_makes_composite_key() {
        // Fig. 12(b): active ⊎ draft with a literal branch id column.
        let mk = |bid: i64| {
            LogicalPlan::project(
                LogicalPlan::scan(customer()),
                vec![
                    (Expr::int(bid), "bid".into()),
                    (Expr::col(0), "key".into()),
                    (Expr::col(1), "nat".into()),
                ],
            )
            .unwrap()
        };
        let u = LogicalPlan::union_all(vec![mk(0), mk(1)]).unwrap();
        let sets = unique_sets(&u, &DeriveOptions::all());
        assert!(covers_unique(&sets, &set(&[0, 1])), "sets: {sets:?}");
        assert!(!covers_unique(&sets, &set(&[1])), "key alone collides across branches");
        // Identical branch ids: no uniqueness.
        let u = LogicalPlan::union_all(vec![mk(7), mk(7)]).unwrap();
        assert!(!covers_unique(&unique_sets(&u, &DeriveOptions::all()), &set(&[0, 1])));
    }

    #[test]
    fn declared_cardinality_trusted_when_enabled() {
        // No key on the right side at all, but the query declared m:1.
        let c = LogicalPlan::scan(customer());
        let right =
            LogicalPlan::project(LogicalPlan::scan(nation()), vec![(Expr::col(1), "name".into())])
                .unwrap();
        let on = vec![];
        assert!(!join_right_at_most_one(&right, &on, None, &DeriveOptions::all()));
        assert!(join_right_at_most_one(
            &right,
            &on,
            Some(DeclaredCardinality::ManyToOne),
            &DeriveOptions::all()
        ));
        let mut no_trust = DeriveOptions::all();
        no_trust.trust_declared = false;
        assert!(!join_right_at_most_one(
            &right,
            &on,
            Some(DeclaredCardinality::ManyToOne),
            &no_trust
        ));
        let _ = c;
    }

    #[test]
    fn values_single_row_is_singleton() {
        let schema = vdm_types::Schema::new(vec![vdm_types::Field::new("x", SqlType::Int, false)]);
        let v = LogicalPlan::values(schema.clone(), vec![vec![vdm_types::Value::Int(1)]]).unwrap();
        assert_eq!(unique_sets(&v, &DeriveOptions::none()), vec![BTreeSet::new()]);
        let v2 = LogicalPlan::values(
            schema,
            vec![vec![vdm_types::Value::Int(1)], vec![vdm_types::Value::Int(2)]],
        )
        .unwrap();
        assert!(unique_sets(&v2, &DeriveOptions::none()).is_empty());
    }

    #[test]
    fn distinct_makes_all_columns_unique() {
        let c = LogicalPlan::scan(customer());
        let p = LogicalPlan::project(c, vec![(Expr::col(1), "nat".into())]).unwrap();
        let d = LogicalPlan::distinct(p);
        assert!(covers_unique(&unique_sets(&d, &DeriveOptions::all()), &set(&[0])));
    }
}
