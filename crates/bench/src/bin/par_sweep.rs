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
//! The thread steps are one `harness::ladder` per workload; `profile` is
//! the browser run's rewrite hit-counts and per-node runtime profile (the
//! executor records it on every run — there is no unprofiled twin to
//! compare against). Emits a table and `BENCH_parallel.json` in the
//! working directory.
//!
//! Run: `cargo run --release -p vdm-bench --bin par_sweep`
//! Flags: `--rows N` fact rows (default 1 000 000), `--journal-rows N`
//! (default 100 000), `--threads 1,4` to restrict the sweep's thread steps
//! (still capped at the cores) and `--gate-scaling-efficiency 0.6` to fail
//! when the agg_over_join speedup at the highest step `t` falls below
//! `0.6·t` (the CI thread-scaling smoke check; unresolved on one core).

use vdm_bench::harness::{self, int, millis, num, obj, Bound};
use vdm_bench::workloads;
use vdm_exec::{ExecOptions, Metrics, ParallelConfig};
use vdm_obs::util::Json;
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::PlanRef;
use vdm_storage::StorageEngine;

const ITERS: usize = 7;

fn opts(threads: usize) -> ExecOptions {
    let parallel = ParallelConfig { threads, ..ParallelConfig::default() };
    ExecOptions { snapshot: None, parallel }
}

/// One workload's thread ladder: prints and returns `(json, top-step
/// speedup over threads=1)`.
fn sweep(
    name: &str,
    rows: usize,
    engine: &StorageEngine,
    plan: &PlanRef,
    steps: &[usize],
) -> (Json, f64) {
    let medians = harness::ladder(steps, ITERS, |&t| harness::time_plan(engine, plan, &opts(t)));
    let speedup =
        |d: &std::time::Duration| medians[0].as_secs_f64() / d.as_secs_f64().max(f64::EPSILON);
    let mut results = Vec::new();
    for (&threads, median) in steps.iter().zip(&medians) {
        println!(
            "  {name:>14}  threads={threads}  median={}  speedup={:.2}x",
            harness::fmt_duration(*median),
            speedup(median)
        );
        results.push(obj([
            ("threads", int(threads)),
            ("millis", millis(*median)),
            ("speedup", num(speedup(median))),
        ]));
    }
    // Per-operator-class self time at the sweep's endpoints: the roll-up
    // of the per-node profile. Leaf pipelines sum their workers' kernel
    // time (above wall time at `threads > 1`); every other operator
    // reports elapsed time minus its children's.
    for threads in [steps[0], steps[steps.len() - 1]] {
        let x = vdm_exec::execute_with(plan, engine, &opts(threads)).expect("plan executes");
        let m = Metrics::roll_up(plan, &x.profile);
        let ms = |n: u64| n as f64 / 1e6;
        println!(
            "  {name:>14}  threads={threads} operator self ms: scan={:.1} filter={:.1} project={:.1} join={:.1} agg={:.1} distinct={:.1} sort={:.1} union={:.1} other={:.1}",
            ms(m.scan_nanos),
            ms(m.filter_nanos),
            ms(m.project_nanos),
            ms(m.join_nanos),
            ms(m.agg_nanos),
            ms(m.distinct_nanos),
            ms(m.sort_nanos),
            ms(m.union_nanos),
            ms(m.other_nanos),
        );
    }
    let json = obj([
        ("name", Json::Str(name.into())),
        ("rows", int(rows)),
        ("results", Json::Arr(results)),
    ]);
    (json, speedup(medians.last().expect("non-empty steps")))
}

/// What the engine reports about one browser run at `threads`: the
/// optimizer's rewrite hit-counts and the per-node runtime profile.
fn profile_json(
    engine: &StorageEngine,
    bound: &PlanRef,
    optimized: &PlanRef,
    threads: usize,
) -> Json {
    let (_, trace) = Optimizer::new(Profile::hana())
        .optimize_traced_with(bound, None, None)
        .expect("traced optimize");
    let profile =
        vdm_exec::execute_with(optimized, engine, &opts(threads)).expect("browser run").profile;
    let operators = profile.nodes.iter().map(|(id, s)| {
        obj([
            ("node", int(*id)),
            ("rows_in", int(s.rows_in)),
            ("rows_out", int(s.rows_out)),
            ("self_millis", num(s.nanos as f64 / 1e6)),
            ("invocations", int(s.invocations)),
            ("workers", int(s.workers)),
        ])
    });
    obj([
        ("workload", Json::Str("browser".into())),
        ("threads", int(threads)),
        ("rewrite_hits", obj(trace.hit_counts().iter().map(|(rule, n)| (*rule, int(*n))))),
        ("operators", Json::Arr(operators.collect())),
    ])
}

fn main() {
    let args =
        harness::Args::parse(&["rows", "journal-rows", "threads", "gate-scaling-efficiency"]);
    let fact_rows: usize = args.get("rows", 1_000_000);
    let journal_rows: usize = args.get("journal-rows", 100_000);
    // Steps above the core count collapse onto it: `--threads 1,4` sweeps
    // {1, min(4, cores)}.
    let cores = harness::host_cores();
    let mut steps: Vec<usize> =
        args.list("threads", &[1, 2, 4, 8]).into_iter().map(|t| t.clamp(1, cores)).collect();
    steps.sort_unstable();
    steps.dedup();
    let max_threads = *steps.last().expect("non-empty steps");

    println!("== par_sweep: morsel-driven executor thread sweep ==");
    println!("available parallelism: {cores}; thread steps: {steps:?}");

    // Workload 1: Fig. 3 browser over ERP data, optimized under HANA.
    println!("\n[browser] journal_entry_item_browser, journal_rows={journal_rows}");
    let (erp_engine, browser) = workloads::erp_browser(journal_rows);
    let optimized = Optimizer::new(Profile::hana()).optimize(&browser).expect("optimize browser");
    let (w1, _) = sweep("browser", journal_rows, &erp_engine, &optimized, &steps);
    let profile = profile_json(&erp_engine, &browser, &optimized, max_threads.min(4));
    let noise_floor_pct = harness::noise_floor_pct(ITERS, || {
        harness::time_plan(&erp_engine, &optimized, &opts(max_threads))
    });

    // Workload 2: ≥1M-row aggregate over join.
    println!("\n[agg_over_join] fact_rows={fact_rows}");
    let engine = StorageEngine::new();
    let plan = workloads::agg_over_join(&engine, fact_rows);
    let (w2, agg_speedup) =
        sweep("agg_over_join", fact_rows + workloads::DIM_ROWS, &engine, &plan, &steps);

    harness::Report {
        bench: "par_sweep",
        scale: obj([("fact_rows", int(fact_rows)), ("journal_rows", int(journal_rows))]),
        iters: ITERS,
        noise_floor_pct,
        // `speedup` is each step's median against the same engine at
        // `threads: 1` on this host.
        results: obj([
            ("speedup_baseline", Json::Str("threads=1".into())),
            ("workloads", Json::Arr(vec![w1, w2])),
            ("profile", profile),
        ]),
    }
    .write("BENCH_parallel.json");

    let mut gates = harness::Gates::default();
    if let Some(efficiency) = args.opt::<f64>("gate-scaling-efficiency") {
        let name = format!("agg_over_join speedup at threads={max_threads} over threads=1");
        if cores == 1 {
            gates.unresolved(&name, "1 core");
        } else {
            gates.check(&name, agg_speedup, Bound::AtLeast(efficiency * max_threads as f64));
        }
    }
    gates.finish();
}
