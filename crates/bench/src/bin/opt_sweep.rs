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
//! Reports the median optimize time of one sweep over each plan set
//! (`harness::ladder` over the five profiles, so no profile owns a time
//! slot) and the property cache's hit rate. The pre-PR-3
//! re-derive-everything cost model this bench used to race against is
//! gone; its ratios are pinned in EXPERIMENTS.md at commit `bfa28ad`, and
//! its output plans in `tests/golden/optimize_digests.txt`.
//!
//! Emits a table and `BENCH_optimize.json` in the working directory.
//!
//! Run: `cargo run --release -p vdm-bench --bin opt_sweep`
//! Flags: `--journal-rows N` (default 20 000), `--views N` Fig. 14 view
//! pairs (default 100), `--rows-per-table N` (default 500).

use std::time::Duration;
use vdm_bench::harness::{self, int, millis, num, obj};
use vdm_bench::workloads;
use vdm_data::figview::{generate, Fig14Config};
use vdm_obs::util::Json;
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{CacheStats, PlanRef};
use vdm_storage::StorageEngine;

const ITERS: usize = 25;

/// One timed sweep of the plan set: summed optimize time and summed cache
/// counters (deterministic per sweep).
fn sweep(opt: &Optimizer, plans: &[PlanRef]) -> (Duration, CacheStats) {
    let mut total = 0u64;
    let mut cache = CacheStats::default();
    for plan in plans {
        let (out, trace) = opt.optimize_traced_with(plan, None, None).expect("optimize");
        std::hint::black_box(out);
        total += trace.optimize_nanos;
        cache.hits += trace.cache.hits;
        cache.misses += trace.cache.misses;
    }
    (Duration::from_nanos(total), cache)
}

/// Benchmarks one workload at every profile; returns one JSON row per
/// profile, in `profiles` order.
fn bench_workload(workload: &str, profiles: &[Profile], plans: &[PlanRef]) -> Vec<Json> {
    let optimizers: Vec<Optimizer> = profiles.iter().cloned().map(Optimizer::new).collect();
    let medians = harness::ladder(&optimizers, ITERS, |opt| sweep(opt, plans).0);
    let rows = profiles.iter().zip(&optimizers).zip(medians).map(|((profile, opt), median)| {
        let cache = sweep(opt, plans).1;
        println!(
            "  {:>8} {workload:>8}: optimize={:>10} cache: {} hits / {} misses ({:.0}% hit rate)",
            profile.name(),
            harness::fmt_duration(median),
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
        );
        obj([
            ("name", Json::Str(workload.into())),
            ("plans", int(plans.len())),
            ("optimize_millis", millis(median)),
            ("cache_hits", int(cache.hits)),
            ("cache_misses", int(cache.misses)),
            ("cache_hit_rate_pct", num(cache.hit_rate() * 100.0)),
        ])
    });
    rows.collect()
}

fn main() {
    let args = harness::Args::parse(&["journal-rows", "views", "rows-per-table"]);
    let journal_rows: usize = args.get("journal-rows", 20_000);
    let n_views: usize = args.get("views", 100);
    let rows_per_table: usize = args.get("rows-per-table", 500);

    println!("== opt_sweep: optimize-time benchmark ==");

    // Fig. 3 browser view over the ERP schema.
    let (_engine, browser) = workloads::erp_browser(journal_rows);
    let browser_plans = [browser];

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

    let profiles = Profile::paper_systems();
    let browser_rows = bench_workload("browser", &profiles, &browser_plans);
    let fig14_rows = bench_workload("fig14", &profiles, &fig14_plans);
    let hana = Optimizer::new(Profile::hana());
    let noise_floor_pct = harness::noise_floor_pct(ITERS, || sweep(&hana, &browser_plans).0);

    let per_profile = profiles.iter().zip(browser_rows).zip(fig14_rows).map(|((p, b), f)| {
        obj([("profile", Json::Str(p.name().into())), ("workloads", Json::Arr(vec![b, f]))])
    });
    harness::Report {
        bench: "opt_sweep",
        scale: obj([
            ("journal_rows", int(journal_rows)),
            ("n_views", int(n_views)),
            ("rows_per_table", int(rows_per_table)),
        ]),
        iters: ITERS,
        noise_floor_pct,
        results: Json::Arr(per_profile.collect()),
    }
    .write("BENCH_optimize.json");
}
