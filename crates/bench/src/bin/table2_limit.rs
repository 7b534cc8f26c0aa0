//! Regenerates **Table 2** / Fig. 6: limit pushdown across an augmentation
//! join. Only a profile with `LIMIT_PUSHDOWN_AJ` (HANA) moves the LIMIT
//! below the join.
//!
//! Run: `cargo run --release -p vdm-bench --bin table2_limit`

use vdm_bench::{harness, queries};
use vdm_exec::{ExecOptions, Metrics};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::PlanRef;

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.2, false);
    let systems = Profile::paper_systems();
    let paging = queries::paging(&catalog).expect("paging query");

    let cells: Vec<bool> = systems
        .iter()
        .map(|p| {
            let optimized = Optimizer::new(p.clone()).optimize(&paging).expect("optimize");
            queries::limit_below_join(&optimized)
        })
        .collect();
    println!(
        "{}",
        harness::render_matrix(
            "Table 2: Limit-on-AJ Optimization Status (Y = LIMIT pushed below the join)",
            &["Fig. 6".to_string()],
            &systems,
            std::slice::from_ref(&cells)
        )
    );
    let expected = [true, false, false, false, false];
    println!(
        "Paper agreement: {}",
        if cells == expected { "EXACT" } else { "DIVERGES — investigate!" }
    );

    println!("\nExecution time (select * ⟕ limit 100 offset 1, sf=0.2):");
    let hana = Optimizer::hana().optimize(&paging).unwrap();
    let t = harness::time_pair(&engine, &paging, &hana, 5);
    println!("  without pushdown: {}", harness::fmt_duration(t.a));
    println!("  with pushdown:    {}", harness::fmt_duration(t.b));
    println!("  speedup:          {:.1}x", t.speedup());
    // The pushdown also changes the join's build side economics: report
    // the rows that flow into the join in both shapes.
    let opts = ExecOptions::default();
    let joined = |plan: &PlanRef| {
        let x = vdm_exec::execute_with(plan, &engine, &opts).unwrap();
        Metrics::roll_up(plan, &x.profile).join_output_rows
    };
    println!("  join output rows: {} -> {}", joined(&paging), joined(&hana));
}
