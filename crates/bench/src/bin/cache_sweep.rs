//! Delta-fraction sweep for incremental cached-view maintenance.
//!
//! One workload — the par_sweep `agg_over_join` shape (fact ⋈ dim →
//! grouped COUNT/SUM) cached as a dynamic view over a ≥1M-row base —
//! maintained across delta fractions {0.1%, 1%, 10%}. Each pair inserts
//! `base × fraction` fresh fact rows and times the view's incremental
//! fold against a cold full recompute of the same plan at the same
//! snapshot (`harness::paired`, so the two take turns going first),
//! asserting multiset-digest equality every pair.
//!
//! The point of the numbers: incremental cost should track the delta,
//! not the base, so the speedup over full recompute must *grow* as the
//! fraction shrinks. Emits `BENCH_cache.json` in the working directory.
//!
//! Run: `cargo run --release -p vdm-bench --bin cache_sweep`
//! Flags: `--rows N` fact rows (default 1 000 000) and
//! `--gate-delta-speedup 5` to fail when the 1%-delta speedup over full
//! recompute falls below the gate (the CI O(delta)-scaling smoke check).

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;
use vdm_bench::harness::{self, int, millis, num, obj, Bound};
use vdm_bench::workloads::{self, DIM_ROWS};
use vdm_cache::{multiset_digest, CacheMode, MaintainOutcome, ViewCache};
use vdm_obs::util::Json;
use vdm_storage::StorageEngine;
use vdm_types::SplitMix64;

const FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];
const ITERS: usize = 5;

fn main() {
    let args = harness::Args::parse(&["rows", "gate-delta-speedup"]);
    let fact_rows: usize = args.get("rows", 1_000_000);

    println!("== cache_sweep: incremental view maintenance vs full recompute ==");
    println!("[agg_over_join] fact_rows={fact_rows}, dim_rows={DIM_ROWS}");

    let engine = StorageEngine::new();
    let plan = workloads::agg_over_join(&engine, fact_rows);
    let cache = ViewCache::new();
    let view =
        cache.register("agg", Arc::clone(&plan), CacheMode::Dynamic, &engine).expect("register");
    // The bench times the production fast path; equivalence is asserted
    // below with an explicit digest check against a cold recompute.
    view.set_verify(false);

    let full_recompute = || {
        let start = Instant::now();
        let cold = vdm_exec::execute(&plan, &engine).expect("full recompute");
        (start.elapsed(), cold)
    };
    let noise_floor_pct = harness::noise_floor_pct(ITERS, || full_recompute().0);

    let rng = RefCell::new(SplitMix64::seed_from_u64(0xC0FFEE));
    let next_id = Cell::new(fact_rows);
    // Whether one side of the current pair has already run.
    let mid_pair = Cell::new(false);
    let mut results = Vec::new();
    let mut speedup_at_1pct = f64::NAN;
    for fraction in FRACTIONS {
        let delta_rows = ((fact_rows as f64 * fraction) as usize).max(1);
        let cold_digest = Cell::new(0u64);
        // `paired` calls each side once per pair: whichever goes first
        // posts the pair's delta, whichever goes second checks that the
        // folded view equals the cold recompute.
        let begin = || {
            if !mid_pair.get() {
                workloads::insert_facts(&engine, &mut rng.borrow_mut(), next_id.get(), delta_rows);
                next_id.set(next_id.get() + delta_rows);
            }
        };
        let end = || {
            if mid_pair.replace(!mid_pair.get()) {
                let served = view.read(&engine).expect("read view");
                assert_eq!(
                    multiset_digest(&served),
                    cold_digest.get(),
                    "[fraction {fraction}] incremental result diverged from recompute"
                );
            }
        };
        let pair = harness::paired(
            ITERS,
            || {
                begin();
                let (elapsed, cold) = full_recompute();
                cold_digest.set(multiset_digest(&cold));
                end();
                elapsed
            },
            || {
                begin();
                let start = Instant::now();
                let outcome = view.maintain(&engine).expect("maintain");
                let elapsed = start.elapsed();
                assert!(
                    matches!(outcome, MaintainOutcome::Incremental { .. }),
                    "[fraction {fraction}] expected an incremental fold, got {}",
                    outcome.describe()
                );
                end();
                elapsed
            },
        );
        // Full recompute is side `a`, the incremental fold side `b`.
        let speedup = pair.speedup();
        if fraction == 0.01 {
            speedup_at_1pct = speedup;
        }
        println!(
            "  fraction={:>6} delta_rows={delta_rows:>8} incremental={:>10} full={:>10} speedup={speedup:.1}x",
            format!("{:.2}%", fraction * 100.0),
            harness::fmt_duration(pair.b),
            harness::fmt_duration(pair.a),
        );
        results.push(obj([
            ("fraction", num(fraction)),
            ("delta_rows", int(delta_rows)),
            ("incremental_millis", millis(pair.b)),
            ("full_millis", millis(pair.a)),
            ("speedup", num(speedup)),
        ]));
    }
    let stats = view.stats();
    println!(
        "view stats: full={} incremental={} noop={} delta_rows={}",
        stats.full_refreshes, stats.incremental_refreshes, stats.noop_refreshes, stats.delta_rows
    );

    harness::Report {
        bench: "cache_sweep",
        scale: obj([
            ("workload", Json::Str("agg_over_join".into())),
            ("base_rows", int(fact_rows)),
        ]),
        iters: ITERS,
        noise_floor_pct,
        results: Json::Arr(results),
    }
    .write("BENCH_cache.json");

    // The 1% fraction is the regime where O(delta) maintenance must
    // clearly beat O(base).
    let mut gates = harness::Gates::default();
    if let Some(bound) = args.opt::<f64>("gate-delta-speedup") {
        gates.check(
            "1% delta incremental speedup over full recompute",
            speedup_at_1pct,
            Bound::AtLeast(bound),
        );
    }
    gates.finish();
}
