//! Regenerates the **§7.1** experiment: aggregation pushdown across
//! decimal rounding via `allow_precision_loss`.
//!
//! The query is `select l_suppkey, sum(round(l_extendedprice * 1.11, 2))
//! from lineitem group by l_suppkey`. Without the extension, the rounding
//! blocks the interchange and every row pays a decimal multiply+round;
//! with it, the optimizer evaluates `round(sum(l_extendedprice) * 1.11,
//! 2)` once per group. We report the speedup and the controlled value
//! discrepancy the user opted into.
//!
//! Run: `cargo run --release -p vdm-bench --bin sec7_precision_loss`

use vdm_bench::{harness, queries};
use vdm_optimizer::Optimizer;
use vdm_types::Value;

fn main() {
    let (catalog, engine) = harness::setup_tpch(0.5, false);
    let strict = queries::precision_query(&catalog, false).expect("strict query");
    let loose = queries::precision_query(&catalog, true).expect("loose query");
    let hana = Optimizer::hana();
    let strict_opt = hana.optimize(&strict).expect("optimize strict");
    let loose_opt = hana.optimize(&loose).expect("optimize loose");

    let t = harness::time_pair(&engine, &strict_opt, &loose_opt, 5);
    println!("== §7.1: sum(round(price * 1.11, 2)) group by supplier ==");
    println!("  exact rounding:        {}", harness::fmt_duration(t.a));
    println!("  allow_precision_loss:  {}", harness::fmt_duration(t.b));
    println!("  speedup:               {:.2}x", t.speedup());

    // Value discrepancy report.
    let a = vdm_exec::execute(&strict_opt, &engine).expect("strict run");
    let b = vdm_exec::execute(&loose_opt, &engine).expect("loose run");
    let mut strict_rows = a.to_rows();
    let mut loose_rows = b.to_rows();
    let key = |r: &Vec<Value>| r[0].clone();
    strict_rows.sort_by(|x, y| key(x).total_cmp(&key(y)));
    loose_rows.sort_by(|x, y| key(x).total_cmp(&key(y)));
    assert_eq!(strict_rows.len(), loose_rows.len(), "same groups");
    let mut max_delta = 0.0f64;
    let mut diff_groups = 0usize;
    for (s, l) in strict_rows.iter().zip(&loose_rows) {
        let sv = s[1].as_dec().expect("decimal").to_f64();
        let lv = l[1].as_dec().expect("decimal").to_f64();
        let d = (sv - lv).abs();
        if d > 0.0 {
            diff_groups += 1;
        }
        max_delta = max_delta.max(d);
    }
    println!("\nControlled precision loss across {} groups:", strict_rows.len());
    println!("  groups with trailing-digit differences: {diff_groups}");
    println!("  max absolute difference:                {max_delta:.2}");
    println!(
        "  (bounded by 0.005 * rows-per-group — exactly the insignificant\n   trailing decimal digits the user traded for speed)"
    );
}
