//! Regenerates **Table 1** of the paper: UAJ optimization status of the
//! seven Fig. 5 queries across the five optimizer profiles, plus the
//! execution-time payoff of the elimination.
//!
//! Run: `cargo run --release -p vdm-bench --bin table1_uaj`

use vdm_bench::{harness, queries};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    harness::status_table(
        "Table 1: UAJ Optimization Status (Y = all joins removed), TPC-H sf=0.1",
        &engine,
        &queries::all_uaj(&catalog),
        &[
            [true, true, false, true, true],
            [true, true, false, false, true],
            [true, true, false, true, true],
            [true, false, false, false, true],
            [true, true, false, false, true],
            [true, false, false, false, true],
            [true, false, false, false, false],
        ],
    );
}
