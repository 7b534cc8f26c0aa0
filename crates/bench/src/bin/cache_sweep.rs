//! Delta-fraction sweep for incremental cached-view maintenance.
//!
//! One workload — the par_sweep `agg_over_join` shape (fact ⋈ dim →
//! grouped COUNT/SUM) cached as a dynamic view over a ≥1M-row base —
//! maintained across delta fractions {0.1%, 1%, 10%}. Each fraction
//! inserts `base × fraction` fresh fact rows and times the view's
//! incremental fold against a cold full recompute of the same plan at
//! the same snapshot, asserting multiset-digest equality every round.
//!
//! The point of the numbers: incremental cost should track the delta,
//! not the base, so the speedup over full recompute must *grow* as the
//! fraction shrinks. Emits `BENCH_cache.json` in the working directory.
//!
//! Run: `cargo run --release -p vdm-bench --bin cache_sweep`
//! Optional args: `cache_sweep <fact_rows>`, plus
//! `--fractions=0.001,0.01,0.1` to restrict the sweep and
//! `--gate-delta-speedup=5` to exit non-zero when the 1%-delta
//! speedup over full recompute falls below the gate (the CI
//! O(delta)-scaling smoke check).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdm_cache::{multiset_digest, CacheMode, MaintainOutcome, ViewCache};
use vdm_catalog::TableBuilder;
use vdm_expr::{AggExpr, AggFunc, Expr};
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_storage::StorageEngine;
use vdm_types::{Decimal, SplitMix64, SqlType, Value};

const DEFAULT_FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];
const DIM_ROWS: i64 = 1_000;

struct FractionResult {
    fraction: f64,
    delta_rows: usize,
    incremental: Duration,
    full: Duration,
}

impl FractionResult {
    fn speedup(&self) -> f64 {
        self.full.as_secs_f64() / self.incremental.as_secs_f64().max(f64::EPSILON)
    }
}

/// Loads the par_sweep agg-over-join schema (dim_product ⋈ fact_sales →
/// group by category) and returns the aggregate plan with a root
/// `Aggregate` node, which the maintenance planner classifies as
/// foldable.
fn build_workload(engine: &StorageEngine, fact_rows: usize) -> PlanRef {
    let dim = Arc::new(
        TableBuilder::new("dim_product")
            .column("d_id", SqlType::Int, false)
            .column("d_category", SqlType::Int, false)
            .primary_key(&["d_id"])
            .build()
            .expect("dim table"),
    );
    let fact = Arc::new(
        TableBuilder::new("fact_sales")
            .column("f_id", SqlType::Int, false)
            .column("f_product", SqlType::Int, false)
            .column("f_amount", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["f_id"])
            .build()
            .expect("fact table"),
    );
    engine.create_table(Arc::clone(&dim)).expect("create dim");
    engine.create_table(Arc::clone(&fact)).expect("create fact");
    engine
        .insert(
            "dim_product",
            (0..DIM_ROWS).map(|i| vec![Value::Int(i), Value::Int(i % 37)]).collect(),
        )
        .expect("load dim");
    let mut rng = SplitMix64::seed_from_u64(0xFACADE);
    insert_facts(engine, &mut rng, 0, fact_rows);
    engine.merge_delta("fact_sales").expect("merge fact");
    engine.merge_delta("dim_product").expect("merge dim");

    let join =
        LogicalPlan::inner_join(LogicalPlan::scan(fact), LogicalPlan::scan(dim), vec![(1, 0)])
            .expect("join plan");
    LogicalPlan::aggregate(
        join,
        vec![(Expr::col(4), "category".into())],
        vec![
            (AggExpr::count_star(), "n".into()),
            (AggExpr::new(AggFunc::Sum, Expr::col(2)), "revenue".into()),
        ],
    )
    .expect("aggregate plan")
}

fn insert_facts(engine: &StorageEngine, rng: &mut SplitMix64, first_id: usize, count: usize) {
    let mut batch = Vec::with_capacity(count.min(50_000));
    for id in first_id..first_id + count {
        batch.push(vec![
            Value::Int(id as i64),
            Value::Int(rng.random_range(0..DIM_ROWS)),
            Value::Dec(Decimal::from_units(rng.random_range(0..1_000_000i64) as i128, 2)),
        ]);
        if batch.len() == 50_000 {
            engine.insert("fact_sales", std::mem::take(&mut batch)).expect("load fact");
        }
    }
    if !batch.is_empty() {
        engine.insert("fact_sales", batch).expect("load fact tail");
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

fn to_json(fact_rows: usize, results: &[FractionResult]) -> String {
    let mut out =
        format!("{{\n  \"bench\": \"cache_sweep\",\n  {},\n", vdm_bench::harness::host_json());
    let _ = writeln!(out, "  \"workload\": \"agg_over_join\",\n  \"base_rows\": {fact_rows},");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"fraction\": {}, \"delta_rows\": {}, \"incremental_millis\": {:.3}, \"full_millis\": {:.3}, \"speedup\": {:.2}}}{}",
            r.fraction,
            r.delta_rows,
            r.incremental.as_secs_f64() * 1e3,
            r.full.as_secs_f64() * 1e3,
            r.speedup(),
            if i + 1 == results.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut positional: Vec<usize> = Vec::new();
    let mut fractions: Vec<f64> = DEFAULT_FRACTIONS.to_vec();
    let mut gate_delta_speedup: Option<f64> = None;
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--fractions=") {
            fractions = list
                .split(',')
                .map(|s| s.trim().parse().expect("--fractions takes a comma-separated list"))
                .collect();
            assert!(!fractions.is_empty(), "--fractions needs at least one step");
        } else if let Some(gate) = arg.strip_prefix("--gate-delta-speedup=") {
            gate_delta_speedup = Some(gate.parse().expect("--gate-delta-speedup takes a number"));
        } else {
            positional.push(arg.parse().expect("positional arg is the fact row count"));
        }
    }
    let fact_rows: usize = positional.first().copied().unwrap_or(1_000_000);

    println!("== cache_sweep: incremental view maintenance vs full recompute ==");
    println!("[agg_over_join] fact_rows={fact_rows}, dim_rows={DIM_ROWS}");

    let engine = StorageEngine::new();
    let plan = build_workload(&engine, fact_rows);
    let cache = ViewCache::new();
    let view =
        cache.register("agg", Arc::clone(&plan), CacheMode::Dynamic, &engine).expect("register");
    // The bench times the production fast path; equivalence is asserted
    // below with an explicit digest check against a cold recompute.
    view.set_verify(false);

    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    let mut next_id = fact_rows;
    let mut results = Vec::new();
    // Per fraction: 5 rounds of (insert delta → time one incremental
    // maintain) interleaved with full-recompute timings at the same
    // snapshot, medians of both. Interleaving keeps machine-load drift
    // from landing on one side of the comparison.
    let iters = 5;
    for &fraction in &fractions {
        let delta_rows = ((fact_rows as f64 * fraction) as usize).max(1);
        let mut inc_samples = Vec::with_capacity(iters);
        let mut full_samples = Vec::with_capacity(iters);
        for round in 0..iters {
            insert_facts(&engine, &mut rng, next_id, delta_rows);
            next_id += delta_rows;
            let t0 = Instant::now();
            let outcome = view.maintain(&engine).expect("maintain");
            inc_samples.push(t0.elapsed());
            assert!(
                matches!(outcome, MaintainOutcome::Incremental { .. }),
                "[fraction {fraction}] round {round} expected an incremental fold, got {}",
                outcome.describe()
            );
            let t0 = Instant::now();
            let cold = vdm_exec::execute(&plan, &engine).expect("full recompute");
            full_samples.push(t0.elapsed());
            let served = view.read(&engine).expect("read view");
            assert_eq!(
                multiset_digest(&served),
                multiset_digest(&cold),
                "[fraction {fraction}] round {round} incremental result diverged from recompute"
            );
        }
        inc_samples.sort();
        full_samples.sort();
        let r = FractionResult {
            fraction,
            delta_rows,
            incremental: inc_samples[iters / 2],
            full: full_samples[iters / 2],
        };
        println!(
            "  fraction={:>6} delta_rows={:>8} incremental={:>9} full={:>9} speedup={:.1}x",
            format!("{:.2}%", fraction * 100.0),
            r.delta_rows,
            fmt_duration(r.incremental),
            fmt_duration(r.full),
            r.speedup(),
        );
        results.push(r);
    }
    let stats = view.stats();
    println!(
        "view stats: full={} incremental={} noop={} delta_rows={}",
        stats.full_refreshes, stats.incremental_refreshes, stats.noop_refreshes, stats.delta_rows
    );

    let json = to_json(fact_rows, &results);
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("\nwrote BENCH_cache.json:\n{json}");

    if let Some(gate) = gate_delta_speedup {
        // Gate on the 1% fraction when swept, else the smallest fraction:
        // the regime where O(delta) maintenance must clearly beat O(base).
        let gated = results
            .iter()
            .find(|r| (r.fraction - 0.01).abs() < 1e-9)
            .or_else(|| results.iter().min_by(|a, b| a.fraction.total_cmp(&b.fraction)))
            .expect("at least one fraction");
        let speedup = gated.speedup();
        if speedup < gate {
            eprintln!(
                "FAIL: fraction {:.2}% incremental speedup {speedup:.2}x is below the {gate:.2}x gate",
                gated.fraction * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "gate: fraction {:.2}% incremental speedup {speedup:.2}x clears the {gate:.2}x gate",
            gated.fraction * 100.0
        );
    }
}
