//! Touched fields only: the optimizer's physical lowering narrows every
//! scan to the columns an ancestor references, and nothing else about a
//! query may move. One differential suite over the seven `e2e_sweep`
//! statement shapes and the Fig. 14 plan set × the five paper profiles ×
//! threads {1, 2, 4} × delta {merged, unmerged}:
//!
//! * the lowered plan returns the logical plan's rows *in order* and every
//!   node reports the same `rows_in` / `rows_out`;
//! * no scan of a lowered plan emits a column no ancestor references
//!   (`SELECT *` keeps all, `count(*)` keeps exactly one);
//! * the statement pipeline (lowering + join ordering + cleanup behind
//!   `Database::query`) returns the same multiset;
//! * a cached view whose `DeltaPlan` maintains over narrowed scans reaches
//!   the digest of a full refresh after insert, reversal and `merge_delta`,
//!   read by read (dynamic) or on one tick (static).

use std::collections::{BTreeMap, BTreeSet};
use vdm_cache::multiset_digest;
use vdm_catalog::Catalog;
use vdm_core::{CacheMode, Database};
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_data::figview::{generate, Fig14Config};
use vdm_exec::{execute_with, ExecOptions, Execution, NodeIndex, ParallelConfig};
use vdm_optimizer::prune::lower_scans;
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_storage::StorageEngine;
use vdm_types::Value;

mod shapes;
use shapes::{BROWSER, SHAPES};

/// Leaves every table with a main fragment, and — when `unmerged` — also
/// with delta rows and tombstones in both fragments: the head of the table
/// is re-posted with its last primary-key column moved past every
/// generated key (so the copies still pass the shapes' filters and join
/// like their originals), then one old and one new row are deleted.
fn settle(catalog: &Catalog, engine: &StorageEngine, unmerged: bool) {
    for table in engine.table_names() {
        engine.merge_delta(&table).unwrap();
        let key = catalog.table(&table).unwrap().primary_key.last().copied();
        let (Some(key), true) = (key, unmerged) else { continue };
        let all = engine.scan(&table, engine.snapshot()).unwrap();
        let repost = |i: usize| {
            let mut row = all.row(i);
            row[key] = match &row[key] {
                Value::Int(k) => Value::Int(k + 10_000_000),
                other => panic!("{table}: key column holds {other}"),
            };
            row
        };
        engine.insert(&table, (0..all.num_rows().min(40)).map(repost).collect()).unwrap();
        let doomed = [all.row(0), repost(1)];
        let n = engine.delete_where(&table, &|r| doomed.iter().any(|d| d.as_slice() == r));
        assert_eq!(n.unwrap(), 2, "{table}");
    }
}

/// The ERP database with the browser view registered.
fn erp_database(unmerged: bool) -> Database {
    let mut db = Database::new(Profile::hana());
    let (catalog, engine) = db.catalog_and_engine();
    let schema = Erp { journal_rows: 600, seed: 4711 }.build(catalog, engine).unwrap();
    db.register_view(BROWSER, journal_entry_item_browser(&schema).unwrap().protected).unwrap();
    settle(db.catalog(), db.engine(), unmerged);
    db
}

/// The Fig. 14 population: original + both extension variants per case.
fn fig14(unmerged: bool) -> (StorageEngine, Vec<(String, PlanRef)>) {
    let (mut catalog, engine) = (Catalog::new(), StorageEngine::new());
    let cfg = Fig14Config { n_views: 20, rows_per_table: 50, seed: 1414 };
    let cases = generate(&cfg, &mut catalog, &engine).unwrap().cases;
    settle(&catalog, &engine, unmerged);
    let plans = cases
        .iter()
        .flat_map(|c| {
            [("original", &c.original), ("plain", &c.extended_plain), ("case", &c.extended_case)]
                .map(|(kind, plan)| (format!("{} {kind}", c.name), plan.clone()))
        })
        .collect();
    (engine, plans)
}

fn run(plan: &PlanRef, engine: &StorageEngine, threads: usize) -> Execution {
    // 600 journal rows in 32-row morsels: waves long enough to be dispatched.
    let parallel = ParallelConfig { threads, morsel_rows: 32 };
    execute_with(plan, engine, &ExecOptions { snapshot: None, parallel }).unwrap()
}

/// Every scan of `plan` emits exactly the ordinals `required` by the path
/// above it — an independent top-down walk, not the optimizer's.
fn assert_no_dead_columns(plan: &PlanRef, required: &BTreeSet<usize>, ctx: &str) {
    let refs = |exprs: &mut dyn Iterator<Item = &vdm_expr::Expr>| {
        let mut out = BTreeSet::new();
        exprs.for_each(|e| e.referenced_columns(&mut out));
        out
    };
    let width = plan.schema().len();
    match plan.as_ref() {
        LogicalPlan::Scan { table, .. } => {
            // A relation cannot have zero columns: `count(*)` keeps one.
            let want = required.len().max(1);
            assert_eq!(width, want, "{ctx}: scan of {} emits a dead column", table.name);
        }
        LogicalPlan::Values { .. } => {}
        LogicalPlan::Project { input, exprs, .. } => {
            let kept = required.iter().map(|&i| &exprs[i].0);
            assert_no_dead_columns(input, &refs(&mut kept.into_iter()), ctx);
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = required.clone();
            need.extend(refs(&mut [predicate].into_iter()));
            assert_no_dead_columns(input, &need, ctx);
        }
        LogicalPlan::Join { left, right, on, filter, .. } => {
            let nl = left.schema().len();
            let mut need = required.clone();
            need.extend(refs(&mut filter.iter()));
            let mut l: BTreeSet<usize> = need.iter().copied().filter(|&i| i < nl).collect();
            let mut r: BTreeSet<usize> =
                need.iter().copied().filter(|&i| i >= nl).map(|i| i - nl).collect();
            l.extend(on.iter().map(|&(a, _)| a));
            r.extend(on.iter().map(|&(_, b)| b));
            assert_no_dead_columns(left, &l, ctx);
            assert_no_dead_columns(right, &r, ctx);
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            inputs.iter().for_each(|c| assert_no_dead_columns(c, required, ctx));
        }
        LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
            let kept =
                aggs.iter().enumerate().filter(|(j, _)| required.contains(&(group_by.len() + j)));
            let args = kept.filter_map(|(_, (a, _))| a.arg.as_ref());
            let need = refs(&mut group_by.iter().map(|(e, _)| e).chain(args));
            assert_no_dead_columns(input, &need, ctx);
        }
        LogicalPlan::Distinct { input } => {
            assert_no_dead_columns(input, &(0..width).collect(), ctx);
        }
        LogicalPlan::Sort { input, keys } => {
            let mut need = required.clone();
            need.extend(refs(&mut keys.iter().map(|k| &k.expr)));
            assert_no_dead_columns(input, &need, ctx);
        }
        LogicalPlan::Limit { input, .. } => assert_no_dead_columns(input, required, ctx),
    }
}

fn narrowed_scans(plan: &PlanRef) -> usize {
    let own = matches!(plan.as_ref(), LogicalPlan::Scan { cols, .. } if cols.narrowed().is_some());
    own as usize + plan.children().into_iter().map(narrowed_scans).sum::<usize>()
}

/// `(rows_in, rows_out)` of `lowered`'s run, summed onto the ids of the
/// `logical` nodes its nodes stand in for. The two plans are the same tree;
/// only DAG sharing may differ (a subtree shared by two parents that need
/// different columns lowers into two narrowed copies), and a shared node's
/// stats already sum its runs.
fn rows_on_logical_ids(logical: &PlanRef, lowered: &PlanRef, run: &Execution) -> NodeRows {
    fn walk(
        logical: &PlanRef,
        lowered: &PlanRef,
        ids: &(NodeIndex, NodeIndex),
        run: &Execution,
        seen: &mut BTreeSet<usize>,
        out: &mut NodeRows,
    ) {
        assert_eq!(logical.op_name(), lowered.op_name(), "the lowering keeps the tree");
        let id = ids.1.id_of(lowered).unwrap();
        if let (true, Some(s)) = (seen.insert(id), run.profile.nodes.get(&id)) {
            let sum = out.entry(ids.0.id_of(logical).unwrap()).or_default();
            *sum = (sum.0 + s.rows_in, sum.1 + s.rows_out);
        }
        let (a, b) = (logical.children(), lowered.children());
        assert_eq!(a.len(), b.len());
        a.into_iter().zip(b).for_each(|(a, b)| walk(a, b, ids, run, seen, out));
    }
    let mut out = NodeRows::new();
    let ids = (NodeIndex::new(logical), NodeIndex::new(lowered));
    walk(logical, lowered, &ids, run, &mut BTreeSet::new(), &mut out);
    out
}

type NodeRows = BTreeMap<usize, (u64, u64)>;

/// Logical vs lowered, node by node, at every thread count.
fn assert_lowering_is_invisible(name: &str, logical: &PlanRef, engine: &StorageEngine) -> usize {
    let lowered = lower_scans(logical).unwrap();
    let all: BTreeSet<usize> = (0..lowered.schema().len()).collect();
    assert_no_dead_columns(&lowered, &all, name);
    assert_eq!(lowered.schema(), logical.schema(), "{name}: output schema moved");
    for threads in [1, 2, 4] {
        let (want, got) = (run(logical, engine, threads), run(&lowered, engine, threads));
        assert_eq!(got.batch.to_rows(), want.batch.to_rows(), "{name} threads={threads}");
        let want: NodeRows =
            want.profile.nodes.iter().map(|(id, s)| (*id, (s.rows_in, s.rows_out))).collect();
        let got = rows_on_logical_ids(logical, &lowered, &got);
        assert_eq!(got, want, "{name} threads={threads}: per-node rows moved");
    }
    narrowed_scans(&lowered)
}

#[test]
fn lowered_plans_answer_and_count_like_their_logical_plans() {
    for unmerged in [false, true] {
        let mut db = erp_database(unmerged);
        let (fig_engine, fig_plans) = fig14(unmerged);
        for profile in Profile::paper_systems() {
            let optimizer = Optimizer::new(profile.clone());
            db.set_profile(profile.clone());
            let mut narrowed = 0;
            for (shape, sql) in SHAPES {
                let name = format!("{shape} [{} unmerged={unmerged}]", profile.name());
                let logical = optimizer.optimize(&db.plan(sql).unwrap()).unwrap();
                narrowed += assert_lowering_is_invisible(&name, &logical, db.engine());
                // The statement pipeline: the same multiset, from a plan
                // that is itself free of dead columns.
                let piped = db.optimized_plan(sql).unwrap();
                let all: BTreeSet<usize> = (0..piped.schema().len()).collect();
                assert_no_dead_columns(&piped, &all, &name);
                let want = run(&logical, db.engine(), 1).batch;
                assert_eq!(
                    multiset_digest(&db.query(sql).unwrap()),
                    multiset_digest(&want),
                    "{name}"
                );
            }
            for (case, plan) in &fig_plans {
                let name = format!("fig14 {case} [{} unmerged={unmerged}]", profile.name());
                let logical = optimizer.optimize(plan).unwrap();
                narrowed += assert_lowering_is_invisible(&name, &logical, &fig_engine);
            }
            assert!(narrowed > 0, "{}: the lowering narrowed no scan", profile.name());
        }
    }
}

#[test]
fn star_keeps_every_column_and_count_star_keeps_one() {
    let db = erp_database(false);
    let scan_width = |sql: &str| -> (usize, bool) {
        let plan = db.optimized_plan(sql).unwrap();
        let mut node = &plan;
        while let Some(child) = node.children().first().copied() {
            node = child;
        }
        match node.as_ref() {
            LogicalPlan::Scan { cols, schema, .. } => (schema.len(), cols.narrowed().is_some()),
            other => panic!("expected a scan leaf, got {}", other.op_name()),
        }
    };
    let full = db.catalog().table("acdoca").unwrap().schema.len();
    assert_eq!(scan_width("select * from acdoca"), (full, false), "SELECT * stays un-narrowed");
    assert_eq!(scan_width("select count(*) from acdoca"), (1, true));
    assert_eq!(scan_width("select hsl from acdoca where gjahr = 2024"), (2, true));
    assert_eq!(db.query("select count(*) from acdoca").unwrap().row(0), vec![Value::Int(600)]);
}

/// One ledger line per shape × {merged, unmerged}: every node's `rows_in`
/// (`(build_rows)` appended when `build_rows` is set) and `rows_out` plus
/// the `rows_scanned` roll-up, asserted equal at every thread count, held
/// against `tests/golden/<file>` (`UPDATE_GOLDEN=1 cargo test --test
/// touched_fields` re-blesses).
fn assert_ledger(file: &str, shapes: &[(&str, &str)], build_rows: bool) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    let mut lines = Vec::new();
    for unmerged in [false, true] {
        let db = erp_database(unmerged);
        for (shape, sql) in shapes {
            let plan = db.optimized_plan(sql).unwrap();
            let ledger = |threads: usize| {
                let x = run(&plan, db.engine(), threads);
                let scanned = vdm_exec::Metrics::roll_up(&plan, &x.profile).rows_scanned;
                let nodes: BTreeMap<_, _> = x.profile.nodes.iter().collect();
                let nodes = nodes.iter().map(|(id, s)| {
                    let build =
                        if build_rows { format!("({})", s.build_rows) } else { String::new() };
                    format!(" {id}:{}{build}>{}", s.rows_in, s.rows_out)
                });
                format!(
                    "{shape} unmerged={unmerged} rows_scanned={scanned}{}",
                    nodes.collect::<String>()
                )
            };
            lines.push(ledger(1));
            for threads in [2, 4] {
                assert_eq!(&ledger(threads), lines.last().unwrap(), "threads={threads}");
            }
        }
    }
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    assert_eq!(text, std::fs::read_to_string(&path).unwrap_or_default());
}

/// The paging shapes' ledger is the one in `paging_ledger.txt`, blessed at
/// commit `6f1762f`, before a scan's leaf filter refined the morsel
/// selection ahead of the gather: what a scan drops early must not show in
/// what it reports reading.
#[test]
fn paging_ledger_is_the_one_blessed_before_the_filter_was_pushed() {
    assert_ledger("paging_ledger.txt", &SHAPES[..3], false);
}

/// The `olap_rollup` shapes' ledger, `build_rows` included, is the one in
/// `rollup_ledger.txt`, blessed at commit `48c0a24`, when every operator
/// above the scan still ran as a wave of its own: carrying a morsel through
/// probe, filter and partial aggregate under a selection vector must not
/// move a row count (a join's `rows_in` stays probe + build, the build side
/// counted once).
#[test]
fn rollup_ledger_is_the_one_blessed_before_morsels_were_carried_through() {
    assert_ledger("rollup_ledger.txt", &SHAPES[3..6], true);
}

/// `htap_mixed`'s three dynamic views, maintained through narrowed
/// insert/retract feeds.
#[test]
fn cached_views_over_narrowed_scans_maintain_to_the_full_refresh_digest() {
    let views = [
        "select CompanyCode, FiscalYear, count(*) as n, sum(AmountInCompanyCodeCurrency) as amount \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
        "select CompanyCode, FiscalYear, count(*) as n, max(PostingDate) as last_posting \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
        "select AccountingDocument, LineItem, Ledger, AmountInCompanyCodeCurrency, CompanyName \
         from journal_entry_item_browser where FiscalYear = 2025",
    ];
    for sql in views {
        let db = erp_database(false);
        db.create_cached_view("v", sql, CacheMode::Dynamic).unwrap();
        db.create_cached_view("ticked", sql, CacheMode::Static).unwrap();
        let view = db.cached_view("v").unwrap();
        assert!(narrowed_scans(view.plan()) > 0, "the view's plan went through the lowering");
        let check = |step: &str| {
            let got = db.read_cached("v").unwrap();
            let cold = db.query(sql).unwrap();
            assert_eq!(multiset_digest(&got), multiset_digest(&cold), "{step}: {sql}");
        };
        check("registered");
        // Post: copies of journal lines under a fresh document number.
        let journal = db.engine().scan("acdoca", db.engine().snapshot()).unwrap();
        let posted: Vec<Vec<Value>> = (0..30)
            .map(|i| {
                let mut row = journal.row(i);
                row[3] = Value::Int(9_000_000 + i as i64);
                row
            })
            .collect();
        db.engine().insert("acdoca", posted).unwrap();
        check("insert");
        // Reverse: retract half of the posting and some loaded lines.
        let reversed = |r: &[Value]| matches!(r[3], Value::Int(d) if d >= 9_000_015 || d % 9 == 0);
        assert!(db.engine().delete_where("acdoca", &reversed).unwrap() > 15);
        check("reversal");
        db.engine()
            .insert(
                "acdoca",
                vec![{
                    let mut row = journal.row(31);
                    row[3] = Value::Int(9_100_000);
                    row
                }],
            )
            .unwrap();
        db.engine().merge_delta("acdoca").unwrap();
        check("merge_delta");
        let stats = view.stats();
        assert_eq!(stats.full_refreshes, 1, "maintained incrementally, not recomputed: {sql}");
        assert!(stats.incremental_refreshes >= 3, "{stats:?}");
        // The static twin's one tick folds all four steps' delta at once.
        assert_eq!(db.refresh_cached_views().unwrap(), 1);
        let ticked = db.read_cached("ticked").unwrap();
        assert_eq!(
            multiset_digest(&ticked),
            multiset_digest(&db.query(sql).unwrap()),
            "tick: {sql}"
        );
        let stats = db.cached_view("ticked").unwrap().stats();
        assert_eq!((stats.full_refreshes, stats.incremental_refreshes), (1, 1), "{sql}: {stats:?}");
    }
}
