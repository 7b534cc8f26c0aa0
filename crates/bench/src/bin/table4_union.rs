//! Regenerates **Table 4**: UAJ elimination when the augmenter is a UNION
//! ALL — the disjoint-subset pattern (Fig. 11a/12a) and the branch-id
//! draft pattern (Fig. 11b/12b); HANA only in the paper.
//!
//! Run: `cargo run --release -p vdm-bench --bin table4_union`

use vdm_bench::{harness, queries};

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.1, false);
    harness::status_table(
        "Table 4: UAJ Optimization Status for UNION ALL (Y = union join removed), TPC-H sf=0.1",
        &engine,
        &queries::all_union(&catalog),
        &[[true, false, false, false, false]; 2],
    );
}
