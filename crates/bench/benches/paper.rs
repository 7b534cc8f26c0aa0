//! Paper benches, criterion-free: the execution-time consequence of every
//! optimization the paper studies, plus a thread sweep over the
//! executor. Each group runs the same plan unoptimized (a system without
//! the rule) and optimized (the HANA profile), so the reported ratio is
//! the payoff of the rewrite. Runs offline with a plain `harness = false`
//! main — no external benchmarking dependency.
//!
//! Run with `cargo bench --bench paper`.

use std::time::Duration;
use vdm_bench::{harness, queries};
use vdm_exec::{ExecOptions, ParallelConfig};
use vdm_optimizer::Optimizer;
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_storage::StorageEngine;

const ITERS: usize = 10;

fn report(group: &str, name: &str, d: Duration) {
    println!("{group:<28} {name:<22} {}", harness::fmt_duration(d));
}

fn bench_pair(group: &str, engine: &StorageEngine, plan: &PlanRef) {
    let hana = Optimizer::hana();
    let optimized = hana.optimize(plan).expect("optimize");
    report(group, "unoptimized", harness::time_plan(engine, plan, &ExecOptions::default(), ITERS));
    report(
        group,
        "hana_optimized",
        harness::time_plan(engine, &optimized, &ExecOptions::default(), ITERS),
    );
}

/// Table 1: UAJ elimination payoff (UAJ 1 and the hardest case UAJ 1b).
fn uaj() {
    let (catalog, engine) = harness::setup_tpch(0.05, false);
    bench_pair("table1/uaj1", &engine, &queries::uaj1(&catalog).unwrap());
    bench_pair("table1/uaj2a", &engine, &queries::uaj2a(&catalog).unwrap());
    bench_pair("table1/uaj1b", &engine, &queries::uaj1b(&catalog).unwrap());
}

/// Table 2 / Fig. 6: limit pushdown across an augmentation join.
fn limit_pushdown() {
    let (catalog, engine) = harness::setup_tpch(0.05, false);
    bench_pair("table2/paging", &engine, &queries::paging(&catalog).unwrap());
}

/// Table 3 / Fig. 10: ASJ elimination payoff.
fn asj() {
    let (catalog, engine) = harness::setup_tpch(0.05, false);
    bench_pair("table3/asj_basic", &engine, &queries::asj_basic(&catalog).unwrap());
    bench_pair("table3/asj_subquery", &engine, &queries::asj_subquery(&catalog).unwrap());
}

/// Table 4 / Fig. 12: UAJ elimination across UNION ALL.
fn union_uaj() {
    let (catalog, engine) = harness::setup_tpch(0.05, false);
    bench_pair("table4/union_disjoint", &engine, &queries::union_disjoint(&catalog).unwrap());
    bench_pair("table4/union_branch_id", &engine, &queries::union_branch_id(&catalog).unwrap());
}

/// Fig. 3/4: the VDM consumption view, `select count(*)`.
fn vdm_browser() {
    let erp = vdm_data::erp::Erp { journal_rows: 10_000, seed: 4711 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = StorageEngine::new();
    let schema = erp.build(&mut catalog, &engine).expect("erp");
    let browser = vdm_data::erp::journal_entry_item_browser(&schema).expect("browser");
    let count = LogicalPlan::aggregate(
        browser.protected.clone(),
        vec![],
        vec![(vdm_expr::AggExpr::count_star(), "n".into())],
    )
    .expect("count plan");
    bench_pair("fig3/count_star_browser", &engine, &count);
}

/// Fig. 14: paging an extension view, heuristic miss vs case join.
fn case_join() {
    let cfg = vdm_data::figview::Fig14Config { n_views: 6, rows_per_table: 4_000, seed: 7 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = StorageEngine::new();
    let fig = vdm_data::figview::generate(&cfg, &mut catalog, &engine).expect("fig14");
    let deep = fig.cases.iter().find(|x| x.deep).expect("a deep case");
    let hana = Optimizer::hana();
    let page = |p: &PlanRef| LogicalPlan::limit(p.clone(), 0, Some(10));
    let orig = hana.optimize(&page(&deep.original)).unwrap();
    let plain = hana.optimize(&page(&deep.extended_plain)).unwrap();
    let with_case = hana.optimize(&page(&deep.extended_case)).unwrap();
    report(
        "fig14/deep_view_paging",
        "original",
        harness::time_plan(&engine, &orig, &ExecOptions::default(), ITERS),
    );
    report(
        "fig14/deep_view_paging",
        "extended_no_intent",
        harness::time_plan(&engine, &plain, &ExecOptions::default(), ITERS),
    );
    report(
        "fig14/deep_view_paging",
        "extended_case_join",
        harness::time_plan(&engine, &with_case, &ExecOptions::default(), ITERS),
    );
}

/// §7.1: aggregation pushdown across decimal rounding.
fn precision() {
    let (catalog, engine) = harness::setup_tpch(0.2, false);
    let strict = queries::precision_query(&catalog, false).unwrap();
    let loose = queries::precision_query(&catalog, true).unwrap();
    let hana = Optimizer::hana();
    let strict_opt = hana.optimize(&strict).unwrap();
    let loose_opt = hana.optimize(&loose).unwrap();
    report(
        "sec7/precision_loss",
        "exact_rounding",
        harness::time_plan(&engine, &strict_opt, &ExecOptions::default(), ITERS),
    );
    report(
        "sec7/precision_loss",
        "allow_precision_loss",
        harness::time_plan(&engine, &loose_opt, &ExecOptions::default(), ITERS),
    );
}

/// Thread sweep: the Fig. 3 browser at 1/2/4/8 worker threads (1 = the
/// engine's serial mode).
fn thread_sweep() {
    let erp = vdm_data::erp::Erp { journal_rows: 20_000, seed: 4711 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = StorageEngine::new();
    let schema = erp.build(&mut catalog, &engine).expect("erp");
    let browser = vdm_data::erp::journal_entry_item_browser(&schema).expect("browser");
    let hana = Optimizer::hana();
    let plan = hana.optimize(&browser.protected).expect("optimize");
    for threads in [1usize, 2, 4, 8] {
        let parallel = ParallelConfig { threads, ..ParallelConfig::default() };
        let opts = ExecOptions { parallel, ..ExecOptions::default() };
        let d = harness::time_plan(&engine, &plan, &opts, 5);
        report("parallel/fig3_browser", &format!("threads={threads}"), d);
    }
}

fn main() {
    uaj();
    limit_pushdown();
    asj();
    union_uaj();
    vdm_browser();
    case_join();
    precision();
    thread_sweep();
}
