//! Regenerates **Table 1** of the paper: UAJ optimization status of the
//! seven Fig. 5 queries across the five optimizer profiles, plus the
//! execution-time payoff of the elimination.
//!
//! Run: `cargo run --release -p vdm-bench --bin table1_uaj`

use vdm_bench::{harness, queries};
use vdm_exec::ExecOptions;
use vdm_optimizer::{Optimizer, Profile};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    let systems = Profile::paper_systems();
    let queries_list = queries::all_uaj(&catalog);

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
            "Table 1: UAJ Optimization Status (Y = all joins removed)",
            &rows,
            &systems,
            &cells
        )
    );

    // Paper's Table 1 for comparison.
    let paper: &[[bool; 5]] = &[
        [true, true, false, true, true],
        [true, true, false, false, true],
        [true, true, false, true, true],
        [true, false, false, false, true],
        [true, true, false, false, true],
        [true, false, false, false, true],
        [true, false, false, false, false],
    ];
    let matches = cells.iter().zip(paper).all(|(got, want)| got.as_slice() == want.as_slice());
    println!(
        "Paper agreement: {}",
        if matches { "EXACT (all 35 cells)" } else { "DIVERGES — investigate!" }
    );

    // Execution-time payoff (unoptimized vs HANA-optimized).
    println!("\nExecution time (median of 5 runs, TPC-H sf=0.1):");
    println!("{:8} | {:>12} | {:>12} | {:>8}", "query", "unoptimized", "optimized", "speedup");
    println!("{}", "-".repeat(52));
    let hana = Optimizer::hana();
    for (name, plan) in &queries_list {
        let optimized = hana.optimize(plan).expect("optimize");
        let t_raw = harness::time_plan(&engine, plan, &ExecOptions::default(), 5);
        let t_opt = harness::time_plan(&engine, &optimized, &ExecOptions::default(), 5);
        println!(
            "{:8} | {:>12} | {:>12} | {:>7.1}x",
            name,
            harness::fmt_duration(t_raw),
            harness::fmt_duration(t_opt),
            t_raw.as_secs_f64() / t_opt.as_secs_f64().max(1e-9),
        );
    }
}
