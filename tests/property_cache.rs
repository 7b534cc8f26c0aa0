//! The annotated-plan core, exercised end to end: property derivation on
//! a DAG-shaped plan must happen once per *node*, not once per *path*,
//! and the rewrite driver must keep untouched shared subtrees shared.
//!
//! The pre-PR-3 cost model (every probe re-derives, UNION ALL children
//! re-normalized every pruning pass) is gone as a mode; its verdict is
//! kept as data in `tests/golden/optimize_digests.txt`, blessed from that
//! mode at commit `bfa28ad` (see
//! [`every_profile_matches_the_blessed_optimize_digests`]).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use vdm_catalog::{Catalog, TableBuilder, TableDef};
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_data::figview::{generate, Fig14Config};
use vdm_expr::{BinOp, Expr};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{plan_digest_canonical, DeriveOptions, LogicalPlan, PlanRef, PropertyCache};
use vdm_types::SqlType;

fn table_a() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("ta")
            .column("a_k", SqlType::Int, false)
            .column("a_v", SqlType::Int, false)
            .primary_key(&["a_k"])
            .build()
            .unwrap(),
    )
}

/// Key-less table: joins against it are never augmentation joins, so the
/// UAJ/ASJ rules leave the shape below alone.
fn table_c() -> Arc<TableDef> {
    Arc::new(
        TableBuilder::new("tc")
            .column("c_k", SqlType::Int, false)
            .column("c_v", SqlType::Int, false)
            .build()
            .unwrap(),
    )
}

/// A DAG: one shared filtered subquery joined from two union branches,
/// via a single `Arc` (the VDM pattern — one view instance referenced by
/// many consumers).
fn dag_plan() -> (PlanRef, PlanRef) {
    let shared = LogicalPlan::filter(
        LogicalPlan::scan(table_c()),
        Expr::col(1).binary(BinOp::Gt, Expr::int(5)),
    )
    .unwrap();
    let branch = |anchor: PlanRef, shared: &PlanRef| {
        let join = LogicalPlan::inner_join(anchor, shared.clone(), vec![(0, 0)]).unwrap();
        let exprs =
            (0..join.schema().len()).map(|i| (Expr::col(i), format!("o{i}"))).collect::<Vec<_>>();
        LogicalPlan::project(join, exprs).unwrap()
    };
    let b1 = branch(LogicalPlan::scan(table_a()), &shared);
    let b2 = branch(LogicalPlan::scan(table_a()), &shared);
    (LogicalPlan::union_all(vec![b1, b2]).unwrap(), shared)
}

/// Counts how often each physical node (by address) is reachable,
/// walking every DAG edge.
fn ptr_counts(plan: &PlanRef, counts: &mut HashMap<*const LogicalPlan, usize>) {
    *counts.entry(Arc::as_ptr(plan)).or_insert(0) += 1;
    for child in plan.children() {
        ptr_counts(child, counts);
    }
}

#[test]
fn shared_subtree_is_derived_once() {
    let (plan, shared) = dag_plan();
    let props = PropertyCache::new();
    let opts = DeriveOptions::all();
    props.unique_sets(&plan, &opts);
    let first = props.stats();
    // The shared subquery sits under both union branches: its second
    // encounter is a hit, so hits > 0 even on a cold cache.
    assert!(first.hits > 0, "shared subtree must hit the cache: {first:?}");
    // A second probe of the shared node itself re-derives nothing.
    props.unique_sets(&shared, &opts);
    let second = props.stats();
    assert_eq!(second.misses, first.misses, "second probe must not re-derive");
    assert_eq!(second.hits, first.hits + 1);
}

#[test]
fn optimizer_preserves_dag_sharing() {
    let (plan, _) = dag_plan();
    let mut before = HashMap::new();
    ptr_counts(&plan, &mut before);
    assert!(before.values().any(|&c| c >= 2), "input plan must share a subtree");

    let optimized = Optimizer::hana().optimize(&plan).unwrap();
    let mut after = HashMap::new();
    ptr_counts(&optimized, &mut after);
    assert!(
        after.values().any(|&c| c >= 2),
        "rewrite driver must keep the untouched shared subtree as one Arc"
    );
}

/// The Fig. 3 browser plan over a small ERP load: whole (what `opt_sweep`
/// times), narrowed to three columns (the UAJ-elimination target), and
/// paged (the limit-pushdown target) — the latter two are where the
/// profiles' outputs differ.
fn browser_plans() -> Vec<PlanRef> {
    let mut catalog = Catalog::new();
    let engine = vdm_storage::StorageEngine::new();
    let schema = Erp { journal_rows: 500, seed: 4711 }.build(&mut catalog, &engine).unwrap();
    let browser = journal_entry_item_browser(&schema).unwrap().protected;
    let narrow = LogicalPlan::project_cols(browser.clone(), &[0, 1, 2]).unwrap();
    let paged = LogicalPlan::limit(browser.clone(), 0, Some(20));
    vec![browser, narrow, paged]
}

/// The Fig. 14 population: original + both extension variants per case.
fn fig14_plans() -> Vec<PlanRef> {
    let mut catalog = Catalog::new();
    let engine = vdm_storage::StorageEngine::new();
    let cfg = Fig14Config { n_views: 20, rows_per_table: 50, seed: 1414 };
    generate(&cfg, &mut catalog, &engine)
        .unwrap()
        .cases
        .iter()
        .flat_map(|c| [c.original.clone(), c.extended_plain.clone(), c.extended_case.clone()])
        .collect()
}

/// Every profile's optimized output over both plan sets must equal what the
/// deleted re-derive-everything optimizer produced. One line per (set,
/// profile): the plan count and an order-sensitive fold of each output's
/// `plan_digest_canonical`.
///
/// Blessed at `bfa28ad` by running this test there with the optimizer
/// switched to that mode (its property-cache toggle set to `false`):
/// `UPDATE_GOLDEN=1 cargo test --offline --test property_cache`.
#[test]
fn every_profile_matches_the_blessed_optimize_digests() {
    let sets = [("browser", browser_plans()), ("fig14", fig14_plans())];
    let mut actual = String::new();
    for profile in Profile::paper_systems() {
        let opt = Optimizer::new(profile.clone());
        for (set, plans) in &sets {
            let folded = plans.iter().fold(0u64, |h, plan| {
                let digest = plan_digest_canonical(&opt.optimize(plan).unwrap());
                (h.rotate_left(5) ^ digest).wrapping_mul(0x100000001b3)
            });
            actual.push_str(&format!(
                "{set} {} plans={} digest={folded:016x}\n",
                profile.name(),
                plans.len()
            ));
        }
    }
    assert_golden("optimize_digests.txt", &actual);
}

/// Compares against `tests/golden/<file>` (`UPDATE_GOLDEN=1` re-blesses).
fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(actual, blessed, "optimizer output drifted from the blessed {file}");
}

/// The rewrite trace is complete and stable: for the browser plans under
/// every profile, each firing's round, pass, rule, node id, evidence and
/// subtree sizes, in firing order, equal what the optimizer reported when
/// it numbered the plan at every pass and sized both subtrees with
/// `plan_stats` at every firing. Blessed at `41d6c4f`.
#[test]
fn every_profile_matches_the_blessed_rewrite_events() {
    let plans = browser_plans();
    let mut actual = String::new();
    for profile in Profile::paper_systems() {
        let opt = Optimizer::new(profile.clone());
        for (i, plan) in plans.iter().enumerate() {
            let (_, trace) = opt.optimize_traced_with(plan, None, None).unwrap();
            actual.push_str(&format!("-- {} plan {i}: {}\n", profile.name(), trace.events.len()));
            actual.push_str(&trace.render_events());
        }
    }
    assert_golden("rewrite_events.txt", &actual);
}

/// The cache's in-tree reference: on every node of the browser plan, under
/// every profile's derivation options, the memoized unique sets equal the
/// raw derivation they stand in for.
#[test]
fn memoized_unique_sets_equal_the_raw_derivation_on_the_browser_plan() {
    fn nodes(plan: &PlanRef, seen: &mut HashMap<*const LogicalPlan, PlanRef>) {
        if seen.insert(Arc::as_ptr(plan), plan.clone()).is_none() {
            for child in plan.children() {
                nodes(child, seen);
            }
        }
    }
    let mut all = HashMap::new();
    nodes(&browser_plans()[0], &mut all);
    assert!(all.len() > 50, "the browser plan is a large DAG: {} nodes", all.len());
    for profile in Profile::paper_systems() {
        let opts = profile.derive_options();
        let props = PropertyCache::new();
        for node in all.values() {
            assert_eq!(
                *props.unique_sets(node, &opts),
                vdm_plan::props::unique_sets(node, &opts),
                "profile {}",
                profile.name()
            );
        }
        assert!(props.stats().hits > 0, "shared nodes must be served from the memo");
    }
}
