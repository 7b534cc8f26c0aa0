//! Thread sweep for the morsel-driven executor.
//!
//! Two workloads, each run at `threads ∈ {1, 2, 4, 8}` capped at the
//! host's cores (a step above the core count measures oversubscription,
//! not scaling). `threads: 1` is the same engine's serial mode, so every
//! "speedup" is scaling of one engine against itself:
//!
//! 1. **browser** — the Fig. 3 `journal_entry_item_browser` full
//!    scan-and-join over the ERP dataset, optimized under the HANA
//!    profile (the paper's interactive HTAP read).
//! 2. **agg_over_join** — a ≥1M-row fact ⋈ dim probe feeding a grouped
//!    aggregation (the classic analytical morsel-parallelism shape).
//!
//! Emits a human-readable table and machine-readable
//! `BENCH_parallel.json` in the working directory (no external
//! benchmarking framework).
//!
//! Run: `cargo run --release -p vdm-bench --bin par_sweep`
//! Optional args: `par_sweep <fact_rows> <journal_rows>`, plus
//! `--threads=1,4` to restrict the sweep's thread steps (still capped at
//! the cores) and `--gate-scaling-efficiency=0.6` to exit non-zero when
//! the agg_over_join speedup at the highest step `t` falls below
//! `0.6·t` (the CI thread-scaling smoke check; reported as unresolved and
//! skipped on a single core).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use vdm_bench::harness;
use vdm_catalog::TableBuilder;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_exec::{ExecOptions, ParallelConfig};
use vdm_expr::{AggExpr, AggFunc, Expr};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_storage::StorageEngine;
use vdm_types::{Decimal, SplitMix64, SqlType, Value};

const DEFAULT_THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

struct SweepResult {
    threads: usize,
    median: Duration,
}

struct Workload {
    name: &'static str,
    rows: usize,
    results: Vec<SweepResult>,
}

fn opts(threads: usize, profile: bool) -> ExecOptions {
    let parallel = ParallelConfig { threads, ..ParallelConfig::default() };
    ExecOptions { snapshot: None, parallel, profile }
}

fn sweep(
    name: &'static str,
    rows: usize,
    engine: &StorageEngine,
    plan: &PlanRef,
    iters: usize,
    steps: &[usize],
) -> Workload {
    // Round-robin the thread steps instead of timing each one in its own
    // sequential block: machine-load drift over the sweep's several-minute
    // runtime would otherwise land entirely on whichever steps run last
    // and masquerade as a scaling regression. One warm-up pass per step
    // first, then `iters` interleaved rounds, median per step.
    for &threads in steps {
        harness::time_plan(engine, plan, &opts(threads, false), 1);
    }
    let mut samples: Vec<Vec<std::time::Duration>> = vec![Vec::with_capacity(iters); steps.len()];
    for _ in 0..iters {
        for (si, &threads) in steps.iter().enumerate() {
            samples[si].push(harness::time_plan(engine, plan, &opts(threads, false), 1));
        }
    }
    let mut results = Vec::new();
    for (si, &threads) in steps.iter().enumerate() {
        samples[si].sort();
        let median = samples[si][iters / 2];
        println!("  {name:>14}  threads={threads}  median={}", harness::fmt_duration(median));
        results.push(SweepResult { threads, median });
    }
    // Per-operator-class CPU time at the sweep's endpoints, from the
    // executor's timing counters (worker-local sums, merged at joins).
    for threads in [steps[0], steps[steps.len() - 1]] {
        let m = vdm_exec::execute_with(plan, engine, &opts(threads, false))
            .expect("plan executes")
            .metrics;
        let ms = |n: u64| n as f64 / 1e6;
        println!(
            "  {name:>14}  threads={threads} operator CPU ms: scan={:.1} filter={:.1} project={:.1} join={:.1} agg={:.1} sort={:.1} union={:.1}",
            ms(m.scan_nanos),
            ms(m.filter_nanos),
            ms(m.project_nanos),
            ms(m.join_nanos),
            ms(m.agg_nanos),
            ms(m.sort_nanos),
            ms(m.union_nanos),
        );
    }
    Workload { name, rows, results }
}

/// Builds the ≥1M-row fact ⋈ dim → group-by microbench directly in the
/// storage engine (no SQL round trip) and returns the plan.
fn agg_over_join(engine: &StorageEngine, fact_rows: usize) -> (PlanRef, usize) {
    let dim_rows = 1_000i64;
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
            (0..dim_rows).map(|i| vec![Value::Int(i), Value::Int(i % 37)]).collect(),
        )
        .expect("load dim");
    let mut rng = SplitMix64::seed_from_u64(0xFACADE);
    let mut batch = Vec::with_capacity(50_000);
    let mut next_id = 0i64;
    while (next_id as usize) < fact_rows {
        batch.push(vec![
            Value::Int(next_id),
            Value::Int(rng.random_range(0..dim_rows)),
            Value::Dec(Decimal::from_units(rng.random_range(0..1_000_000i64) as i128, 2)),
        ]);
        next_id += 1;
        if batch.len() == batch.capacity() {
            engine.insert("fact_sales", std::mem::take(&mut batch)).expect("load fact");
            batch.reserve(50_000);
        }
    }
    if !batch.is_empty() {
        engine.insert("fact_sales", batch).expect("load fact tail");
    }
    engine.merge_delta("fact_sales").expect("merge fact");
    engine.merge_delta("dim_product").expect("merge dim");

    let join =
        LogicalPlan::inner_join(LogicalPlan::scan(fact), LogicalPlan::scan(dim), vec![(1, 0)])
            .expect("join plan");
    let plan = LogicalPlan::aggregate(
        join,
        vec![(Expr::col(4), "category".into())],
        vec![
            (AggExpr::count_star(), "n".into()),
            (AggExpr::new(AggFunc::Sum, Expr::col(2)), "revenue".into()),
        ],
    )
    .expect("aggregate plan");
    (plan, fact_rows + dim_rows as usize)
}

/// Observability cost + content report for the browser workload: profiled
/// vs unprofiled medians at `threads`, the optimizer's rewrite hit-counts,
/// and the per-operator runtime profile (rendered into the JSON output).
fn obs_json(
    engine: &StorageEngine,
    bound: &PlanRef,
    optimized: &PlanRef,
    threads: usize,
) -> String {
    let (plain, profiled) = (opts(threads, false), opts(threads, true));
    // Interleave the paired samples so slow machine-load drift hits both
    // paths equally, and *alternate which run goes first within each pair*
    // — a fixed order hands the second run warm caches every time, which
    // shows up as a systematic (even negative) overhead. One warm-up run
    // of each first. The overhead estimate is the *median of the per-pair
    // deltas*, not the delta of independent medians — two independently
    // sorted sample sets can pick their medians from different load
    // phases and report a spurious offset that delta-per-pair cancels.
    let iters = 9;
    harness::time_plan(engine, optimized, &plain, 1);
    harness::time_plan(engine, optimized, &profiled, 1);
    let mut unprofiled_samples = Vec::with_capacity(iters);
    let mut deltas = Vec::with_capacity(iters);
    for i in 0..iters {
        let (u, p) = if i % 2 == 0 {
            let u = harness::time_plan(engine, optimized, &plain, 1);
            let p = harness::time_plan(engine, optimized, &profiled, 1);
            (u, p)
        } else {
            let p = harness::time_plan(engine, optimized, &profiled, 1);
            let u = harness::time_plan(engine, optimized, &plain, 1);
            (u, p)
        };
        unprofiled_samples.push(u);
        deltas.push(p.as_secs_f64() - u.as_secs_f64());
    }
    unprofiled_samples.sort();
    deltas.sort_by(|a, b| a.total_cmp(b));
    let unprofiled = unprofiled_samples[iters / 2];
    // Profiling only ever adds instructions, so the true overhead is
    // non-negative by construction; a negative median delta means the
    // overhead sits below this machine's run-to-run noise floor. Clamp to
    // zero rather than publishing a spurious negative number.
    let median_delta = deltas[iters / 2].max(0.0);
    let profiled_median =
        Duration::from_secs_f64((unprofiled.as_secs_f64() + median_delta).max(0.0));
    let overhead_pct = median_delta / unprofiled.as_secs_f64().max(f64::EPSILON) * 100.0;
    let (_, trace) = Optimizer::new(Profile::hana())
        .optimize_traced_with(bound, None, None)
        .expect("traced optimize");
    let profile = vdm_exec::execute_with(optimized, engine, &profiled)
        .expect("profiled run")
        .profile
        .expect("profiling was requested");
    println!(
        "  {:>14}  threads={threads} profiled={} unprofiled={} overhead={overhead_pct:.1}%",
        "browser(obs)",
        harness::fmt_duration(profiled_median),
        harness::fmt_duration(unprofiled),
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "  \"obs\": {{\"workload\": \"browser\", \"threads\": {threads}, \"unprofiled_millis\": {:.3}, \"profiled_millis\": {:.3}, \"overhead_pct\": {overhead_pct:.2},\n    \"rewrite_hits\": {{",
        unprofiled.as_secs_f64() * 1e3,
        profiled_median.as_secs_f64() * 1e3,
    );
    for (i, (rule, n)) in trace.hit_counts().iter().enumerate() {
        let _ = write!(out, "{}\"{rule}\": {n}", if i == 0 { "" } else { ", " });
    }
    out.push_str("},\n    \"operators\": [");
    for (i, (id, s)) in profile.nodes.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"node\": {id}, \"rows_out\": {}, \"cpu_millis\": {:.3}, \"invocations\": {}, \"workers\": {}}}",
            if i == 0 { "" } else { ", " },
            s.rows_out,
            s.nanos as f64 / 1e6,
            s.invocations,
            s.workers,
        );
    }
    out.push_str("]}");
    out
}

fn to_json(workloads: &[Workload], obs: &str) -> String {
    // `speedup` is each step's median against the same engine at
    // `threads: 1` on this host; `rows` per workload is the data scale.
    let mut out = format!(
        "{{\n  \"bench\": \"par_sweep\",\n  {},\n  \"speedup_baseline\": \"threads=1\",\n  \"workloads\": [\n",
        harness::host_json()
    );
    for (wi, w) in workloads.iter().enumerate() {
        let base = w.results.first().map(|r| r.median.as_secs_f64()).unwrap_or(0.0);
        let _ = write!(out, "    {{\"name\": \"{}\", \"rows\": {}, \"results\": [", w.name, w.rows);
        for (i, r) in w.results.iter().enumerate() {
            let millis = r.median.as_secs_f64() * 1e3;
            let speedup =
                if r.median.as_secs_f64() > 0.0 { base / r.median.as_secs_f64() } else { 0.0 };
            let _ = write!(
                out,
                "{}{{\"threads\": {}, \"millis\": {millis:.3}, \"speedup\": {speedup:.2}}}",
                if i == 0 { "" } else { ", " },
                r.threads,
            );
        }
        let _ = writeln!(out, "]}}{}", if wi + 1 == workloads.len() { "" } else { "," });
    }
    out.push_str("  ],\n");
    out.push_str(obs);
    out.push_str("\n}\n");
    out
}

fn main() {
    let mut positional: Vec<usize> = Vec::new();
    let mut steps: Vec<usize> = DEFAULT_THREAD_STEPS.to_vec();
    let mut gate_efficiency: Option<f64> = None;
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--threads=") {
            steps = list
                .split(',')
                .map(|s| s.trim().parse().expect("--threads takes a comma-separated list"))
                .collect();
            assert!(!steps.is_empty(), "--threads needs at least one step");
        } else if let Some(gate) = arg.strip_prefix("--gate-scaling-efficiency=") {
            gate_efficiency = Some(gate.parse().expect("--gate-scaling-efficiency takes a number"));
        } else {
            positional.push(arg.parse().expect("positional args are row counts"));
        }
    }
    let fact_rows: usize = positional.first().copied().unwrap_or(1_000_000);
    let journal_rows: usize = positional.get(1).copied().unwrap_or(100_000);
    // Steps above the core count collapse onto it: `--threads=1,4` sweeps
    // {1, min(4, cores)}.
    let cores = harness::host_cores();
    for step in &mut steps {
        *step = (*step).clamp(1, cores);
    }
    steps.sort_unstable();
    steps.dedup();
    let max_threads = *steps.last().expect("non-empty steps");

    println!("== par_sweep: morsel-driven executor thread sweep ==");
    println!("available parallelism: {cores}; thread steps: {steps:?}");

    // Workload 1: Fig. 3 browser over ERP data, optimized under HANA.
    println!("\n[browser] journal_entry_item_browser, journal_rows={journal_rows}");
    let erp = Erp { journal_rows, seed: 4711 };
    let mut catalog = vdm_catalog::Catalog::new();
    let erp_engine = StorageEngine::new();
    let schema = erp.build(&mut catalog, &erp_engine).expect("ERP generation");
    let browser = journal_entry_item_browser(&schema).expect("browser view");
    let optimized =
        Optimizer::new(Profile::hana()).optimize(&browser.protected).expect("optimize browser");
    let w1 = sweep("browser", journal_rows, &erp_engine, &optimized, 5, &steps);
    let obs = obs_json(&erp_engine, &browser.protected, &optimized, max_threads.min(4));

    // Workload 2: ≥1M-row aggregate over join.
    println!("\n[agg_over_join] fact_rows={fact_rows}");
    let engine = StorageEngine::new();
    let (plan, rows) = agg_over_join(&engine, fact_rows);
    let w2 = sweep("agg_over_join", rows, &engine, &plan, 3, &steps);

    let workloads = [w1, w2];
    let json = to_json(&workloads, &obs);
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("\nwrote BENCH_parallel.json:\n{json}");

    let mut agg_max_speedup = f64::INFINITY;
    for w in &workloads {
        let base = w.results[0].median.as_secs_f64();
        if let Some(top) = w.results.iter().find(|r| r.threads == max_threads) {
            let speedup = base / top.median.as_secs_f64().max(f64::EPSILON);
            println!("{}: threads={max_threads} speedup over threads=1 = {speedup:.2}x", w.name);
            if w.name == "agg_over_join" {
                agg_max_speedup = speedup;
            }
        }
    }
    if let Some(efficiency) = gate_efficiency {
        if cores == 1 {
            println!("gate: agg_over_join scaling efficiency unresolved (1 core)");
            return;
        }
        let gate = efficiency * max_threads as f64;
        if agg_max_speedup < gate {
            eprintln!(
                "FAIL: agg_over_join threads={max_threads} speedup {agg_max_speedup:.2}x is below {efficiency:.2}·{max_threads} = {gate:.2}x"
            );
            std::process::exit(1);
        }
        println!(
            "gate: agg_over_join threads={max_threads} speedup {agg_max_speedup:.2}x clears {efficiency:.2}·{max_threads} = {gate:.2}x"
        );
    }
}
