//! Regenerates **Table 4**: UAJ elimination when the augmenter is a UNION
//! ALL — the disjoint-subset pattern (Fig. 11a/12a) and the branch-id
//! draft pattern (Fig. 11b/12b).
//!
//! Run: `cargo run --release -p vdm-bench --bin table4_union`

use vdm_bench::{harness, queries};
use vdm_exec::ExecOptions;
use vdm_optimizer::{Optimizer, Profile};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    let systems = Profile::paper_systems();
    let queries_list = queries::all_union(&catalog);

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, plan) in &queries_list {
        rows.push(name.to_string());
        cells
            .push(systems.iter().map(|p| harness::join_free_under(p, plan)).collect::<Vec<bool>>());
    }
    println!(
        "{}",
        harness::render_matrix(
            "Table 4: UAJ Optimization Status for UNION ALL (Y = union join removed)",
            &rows,
            &systems,
            &cells
        )
    );
    let paper_row = [true, false, false, false, false];
    let matches = cells.iter().all(|row| row.as_slice() == paper_row);
    println!(
        "Paper agreement: {}",
        if matches { "EXACT (HANA only)" } else { "DIVERGES — investigate!" }
    );

    println!("\nExecution time (median of 5 runs, sf=0.1):");
    let hana = Optimizer::hana();
    for (name, plan) in &queries_list {
        let optimized = hana.optimize(plan).expect("optimize");
        let t_raw = harness::time_plan(&engine, plan, &ExecOptions::default(), 5);
        let t_opt = harness::time_plan(&engine, &optimized, &ExecOptions::default(), 5);
        println!(
            "  {:12} {} -> {}  ({:.1}x)",
            name,
            harness::fmt_duration(t_raw),
            harness::fmt_duration(t_opt),
            t_raw.as_secs_f64() / t_opt.as_secs_f64().max(1e-9),
        );
    }
}
