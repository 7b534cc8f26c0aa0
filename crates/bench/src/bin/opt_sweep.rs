//! Optimize-time sweep: how fast is `Optimizer::optimize` itself?
//!
//! The paper's premise is that VDM plans are huge DAGs the optimizer must
//! simplify *cheaply*. This bench times the optimizer (not execution) on
//! the two canonical workloads at all five capability profiles:
//!
//! 1. **browser** — the Fig. 3 `journal_entry_item_browser` view (47 table
//!    instances, 49 joins, five-way UNION ALL under DAC);
//! 2. **fig14** — the Fig. 14 view population (original + both extension
//!    variants per case).
//!
//! Reports the median optimize time of one sweep over each plan set and
//! the property cache's hit rate. The pre-PR-3 re-derive-everything cost
//! model this bench used to race against is gone; its ratios are pinned
//! in EXPERIMENTS.md at commit `bfa28ad`, and its output plans in
//! `tests/golden/optimize_digests.txt`.
//!
//! Emits a human-readable table and machine-readable `BENCH_optimize.json`
//! in the working directory (no external benchmarking framework).
//!
//! Run: `cargo run --release -p vdm-bench --bin opt_sweep`
//! Optional args: `opt_sweep <journal_rows> <n_views> <rows_per_table>`.

use std::fmt::Write as _;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_data::figview::{generate, Fig14Config};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{CacheStats, PlanRef};
use vdm_storage::StorageEngine;

/// One timed sweep of the plan set: summed optimize time and summed cache
/// counters (deterministic per sweep).
fn sweep(opt: &Optimizer, plans: &[PlanRef]) -> (u64, CacheStats) {
    let mut total = 0u64;
    let mut cache = CacheStats::default();
    for plan in plans {
        let (out, trace) = opt.optimize_traced_with(plan, None, None).expect("optimize");
        std::hint::black_box(out);
        total += trace.optimize_nanos;
        cache.hits += trace.cache.hits;
        cache.misses += trace.cache.misses;
    }
    (total, cache)
}

struct WorkloadRow {
    workload: &'static str,
    plans: usize,
    iters: usize,
    millis: f64,
    cache: CacheStats,
}

/// Benchmarks one workload at one profile: one warmup sweep outside the
/// timed region (first-touch effects otherwise dominate sub-ms medians),
/// then the median of `iters` sweeps.
fn bench_workload(
    workload: &'static str,
    profile: &Profile,
    plans: &[PlanRef],
    iters: usize,
) -> WorkloadRow {
    let opt = Optimizer::new(profile.clone());
    let (_, cache) = sweep(&opt, plans);
    let mut times: Vec<f64> = (0..iters).map(|_| sweep(&opt, plans).0 as f64 / 1e6).collect();
    times.sort_unstable_by(|a, b| a.total_cmp(b));
    let millis = times[times.len() / 2];
    println!(
        "  {:>8} {workload:>8}: optimize={millis:>9.3}ms cache: {} hits / {} misses ({:.0}% hit rate)",
        profile.name(),
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
    );
    WorkloadRow { workload, plans: plans.len(), iters, millis, cache }
}

fn to_json(journal_rows: usize, n_views: usize, rows: &[(String, Vec<WorkloadRow>)]) -> String {
    let mut out =
        format!("{{\n  \"bench\": \"opt_sweep\",\n  {},\n", vdm_bench::harness::host_json());
    let _ = writeln!(out, "  \"journal_rows\": {journal_rows},");
    let _ = writeln!(out, "  \"n_views\": {n_views},");
    out.push_str("  \"profiles\": [\n");
    for (pi, (profile, workloads)) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{\"profile\": \"{profile}\", \"workloads\": [");
        for (wi, w) in workloads.iter().enumerate() {
            let _ = write!(
                out,
                "      {{\"name\": \"{}\", \"plans\": {}, \"iters\": {}, \"optimize_millis\": {:.3}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate_pct\": {:.1}}}",
                w.workload,
                w.plans,
                w.iters,
                w.millis,
                w.cache.hits,
                w.cache.misses,
                w.cache.hit_rate() * 100.0,
            );
            let _ = writeln!(out, "{}", if wi + 1 == workloads.len() { "" } else { "," });
        }
        let _ = writeln!(out, "    ]}}{}", if pi + 1 == rows.len() { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let journal_rows: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let n_views: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);
    let rows_per_table: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(500);

    println!("== opt_sweep: optimize-time benchmark ==");

    // Fig. 3 browser view over the ERP schema.
    let erp = Erp { journal_rows, seed: 4711 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = StorageEngine::new();
    let schema = erp.build(&mut catalog, &engine).expect("ERP generation");
    let browser = journal_entry_item_browser(&schema).expect("browser view");
    let browser_plans = [browser.protected.clone()];

    // Fig. 14 population: every case contributes all three plan variants.
    let cfg = Fig14Config { n_views, rows_per_table, seed: 1414 };
    let mut fig_catalog = vdm_catalog::Catalog::new();
    let fig_engine = StorageEngine::new();
    let population = generate(&cfg, &mut fig_catalog, &fig_engine).expect("Fig. 14 population");
    let fig14_plans: Vec<PlanRef> = population
        .cases
        .iter()
        .flat_map(|c| [c.original.clone(), c.extended_plain.clone(), c.extended_case.clone()])
        .collect();
    println!(
        "browser: journal_rows={journal_rows}; fig14: {} views ({} plans)\n",
        n_views,
        fig14_plans.len()
    );

    let mut rows: Vec<(String, Vec<WorkloadRow>)> = Vec::new();
    for profile in Profile::paper_systems() {
        let b = bench_workload("browser", &profile, &browser_plans, 25);
        let f = bench_workload("fig14", &profile, &fig14_plans, 3);
        rows.push((profile.name().to_string(), vec![b, f]));
    }

    let json = to_json(journal_rows, n_views, &rows);
    std::fs::write("BENCH_optimize.json", &json).expect("write BENCH_optimize.json");
    println!("\nwrote BENCH_optimize.json:\n{json}");
}
