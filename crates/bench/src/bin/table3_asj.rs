//! Regenerates **Table 3**: augmentation-self-join elimination for the
//! three Fig. 10 query shapes across the five profiles (HANA only in the
//! paper), plus the payoff of re-wiring the fields.
//!
//! Run: `cargo run --release -p vdm-bench --bin table3_asj`

use vdm_bench::{harness, queries};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    harness::status_table(
        "Table 3: ASJ Optimization Status (Y = self-join removed, fields re-wired), TPC-H sf=0.1",
        &engine,
        &queries::all_asj(&catalog),
        &[[true, false, false, false, false]; 3],
    );
}
