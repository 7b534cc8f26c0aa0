//! Regenerates **Table 3**: augmentation-self-join elimination for the
//! three Fig. 10 query shapes across the five profiles.
//!
//! Run: `cargo run --release -p vdm-bench --bin table3_asj`

use vdm_bench::{harness, queries};
use vdm_exec::ExecOptions;
use vdm_optimizer::{Optimizer, Profile};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    let systems = Profile::paper_systems();
    let queries_list = queries::all_asj(&catalog);

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
            "Table 3: ASJ Optimization Status (Y = self-join removed, fields re-wired)",
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
    println!("{:12} | {:>12} | {:>12} | {:>8}", "query", "self-join", "re-wired", "speedup");
    println!("{}", "-".repeat(56));
    let hana = Optimizer::hana();
    for (name, plan) in &queries_list {
        let optimized = hana.optimize(plan).expect("optimize");
        let t_raw = harness::time_plan(&engine, plan, &ExecOptions::default(), 5);
        let t_opt = harness::time_plan(&engine, &optimized, &ExecOptions::default(), 5);
        println!(
            "{:12} | {:>12} | {:>12} | {:>7.1}x",
            name,
            harness::fmt_duration(t_raw),
            harness::fmt_duration(t_opt),
            t_raw.as_secs_f64() / t_opt.as_secs_f64().max(1e-9),
        );
    }
}
