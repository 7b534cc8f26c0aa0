//! Regenerates **Fig. 3 / Fig. 4**: the complexity of the
//! `journal_entry_item_browser` VDM view and its collapse under
//! optimization.
//!
//! Fig. 3 (the unoptimized `select *` plan) must show 47 table instances
//! (62 unshared), 49 joins, one five-way UNION ALL, one GROUP BY, one
//! DISTINCT. Fig. 4 (`select count(*)`, optimized) must retain only the
//! two DAC-guarded supplier/customer joins.
//!
//! Run: `cargo run --release -p vdm-bench --bin fig3_plan_complexity`

use vdm_bench::{harness, workloads};
use vdm_optimizer::Optimizer;
use vdm_plan::{plan_stats, LogicalPlan, PlanStats};

fn show(label: &str, stats: &PlanStats) {
    println!(
        "{label}\n  table instances: {} (unshared references: {})\n  joins: {} ({} left outer)\n  union alls: {} (max width {})\n  group bys: {}, distincts: {}, filters: {}\n  total operators: {}, plan depth: {}",
        stats.table_instances,
        stats.table_references,
        stats.joins,
        stats.left_outer_joins,
        stats.unions,
        stats.max_union_width,
        stats.aggregates,
        stats.distincts,
        stats.filters,
        stats.nodes,
        stats.depth,
    );
}

fn main() {
    let (engine, browser) = workloads::erp_browser(20_000);

    println!("== Fig. 3: select * from journal_entry_item_browser (unoptimized) ==");
    let fig3 = plan_stats(&browser);
    show("Plan complexity:", &fig3);
    let ok3 = fig3.table_instances == 47
        && fig3.joins == 49
        && fig3.table_references == 62
        && fig3.max_union_width == 5
        && fig3.aggregates == 1
        && fig3.distincts == 1;
    println!(
        "Paper agreement: {}\n",
        if ok3 {
            "EXACT (47 instances / 62 unshared / 49 joins / 5-way union / 1 group-by / 1 distinct)"
        } else {
            "DIVERGES — investigate!"
        }
    );

    // Fig. 4: count(*) collapses everything but the DAC-guarded joins.
    let count_plan = LogicalPlan::aggregate(
        browser.clone(),
        vec![],
        vec![(vdm_expr::AggExpr::count_star(), "n".into())],
    )
    .expect("count plan");
    let hana = Optimizer::hana();
    let optimized = hana.optimize(&count_plan).expect("optimize");
    println!("== Fig. 4: select count(*) from journal_entry_item_browser (optimized) ==");
    let fig4 = plan_stats(&optimized);
    show("Plan complexity:", &fig4);
    let ok4 = fig4.joins == 2 && fig4.table_instances == 3 && fig4.unions == 0;
    println!(
        "Paper agreement: {}\n",
        if ok4 {
            "EXACT (only the DAC-guarded lfa1/kna1 joins survive)"
        } else {
            "DIVERGES — investigate!"
        }
    );
    println!("Optimized count(*) plan:\n{}", vdm_plan::explain(&optimized));

    // Execution-time consequence.
    let t = harness::time_pair(&engine, &count_plan, &optimized, 3);
    println!("count(*) over 20k journal lines:");
    println!("  unoptimized: {}", harness::fmt_duration(t.a));
    println!("  optimized:   {}", harness::fmt_duration(t.b));
    println!("  speedup:     {:.1}x", t.speedup());
    // Cross-check: both agree.
    let a = vdm_exec::execute(&count_plan, &engine).unwrap();
    let b = vdm_exec::execute(&optimized, &engine).unwrap();
    assert_eq!(a.row(0), b.row(0), "optimization must not change count(*)");
    println!("count(*) = {} (identical under both plans)", a.row(0)[0]);

    // Also report a full-width paging query on the view.
    let select_star = LogicalPlan::limit(browser.clone(), 0, Some(100));
    let star_opt = hana.optimize(&select_star).unwrap();
    let t_star = harness::time_pair(&engine, &select_star, &star_opt, 3);
    println!("\nselect * ... limit 100:");
    println!("  unoptimized: {}", harness::fmt_duration(t_star.a));
    println!(
        "  optimized:   {} ({} joins remain — all fields used)",
        harness::fmt_duration(t_star.b),
        plan_stats(&star_opt).joins
    );
}
