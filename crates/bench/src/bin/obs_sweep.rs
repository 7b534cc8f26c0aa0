//! Observability-overhead sweep: what do always-on query tracing and the
//! plan-digest query store cost on the paper's browser workload?
//!
//! The tracing layer (`vdm_obs::trace`) and the [`QueryStore`] are both
//! enabled by default, so their overhead budget is a hard product
//! constraint. It is a fixed cost per query (spans and one store record),
//! so it is bounded in microseconds per query, not as a share of a query
//! whose own cost moves with every engine change. This bench measures it:
//!
//! * ERP dataset + the Fig. 3 `journal_entry_item_browser` view, HANA
//!   profile, plan cache warmed once per shape;
//! * the three browser paging shapes as prepared statements, executed
//!   round-robin with seeded parameter values;
//! * **per-query pairs**: every sampled parameter draw executes twice
//!   back-to-back — once observed, once dark — as one pair of
//!   `harness::paired`, so the first-run slot alternates and warm-cache
//!   advantage cancels. The only difference between the twins is span
//!   collection and store recording: the executor records its per-node
//!   profile on both sides (it has no unprofiled path), the dark twin just
//!   leaves it unread. Drift (scheduler, thermal, noisy neighbours) moves
//!   at a far coarser grain than one query, so it hits both sides equally;
//!   the overhead is the median per-query delta (also reported as a share
//!   of the median dark query);
//! * after the timed section, the store's per-digest aggregates are
//!   saved as JSON lines, reloaded into a fresh store, and verified
//!   identical — the persistence round-trip the serve layer relies on.
//!
//! Execution is single-threaded (the low-variance apples-to-apples
//! setting). Emits `BENCH_obs.json` and optionally gates on the overhead.
//!
//! Run: `cargo run --release -p vdm-bench --bin obs_sweep`
//! Flags:
//!   `--journal-rows N`        ERP journal size (default 32 000, where
//!                             execution dominates the call; 500 is the
//!                             fixed-overhead regime CI smokes)
//!   `--queries N`             parameter draws per round (default 300)
//!   `--rounds N`              reseeded rounds; `queries × rounds` pairs
//!                             are measured (default 5)
//!   `--mode both|trace|store` which layers the observed runs enable
//!                             (default both; trace/store isolate one layer)
//!   `--gate-overhead-us X`    fail if the median pair delta exceeds X µs

use std::cell::Cell;
use std::time::{Duration, Instant};
use vdm_bench::harness::{self, int, num, obj, Bound};
use vdm_bench::workloads::{self, shape_params, SHAPES};
use vdm_exec::ParallelConfig;
use vdm_obs::util::Json;
use vdm_obs::{trace, MetricsRegistry, QueryStore};
use vdm_types::{SplitMix64, Value};

/// Which observability layers the "observed" batches enable.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Tracing and the query store together (the production default).
    Both,
    /// Tracing only — isolates span collection cost.
    Trace,
    /// Query store only — isolates the store's recording cost.
    Store,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Both => "trace+store",
            Mode::Trace => "trace-only",
            Mode::Store => "store-only",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = ();
    fn from_str(s: &str) -> Result<Mode, ()> {
        match s {
            "both" => Ok(Mode::Both),
            "trace" => Ok(Mode::Trace),
            "store" => Ok(Mode::Store),
            _ => Err(()),
        }
    }
}

/// Switches the layers selected by `mode` — "observed" vs "dark".
fn set_observability(mode: Mode, on: bool) {
    if mode != Mode::Store {
        trace::set_enabled(on);
    }
    if mode != Mode::Trace {
        QueryStore::global().set_enabled(on);
    }
}

fn main() {
    let args =
        harness::Args::parse(&["journal-rows", "queries", "rounds", "mode", "gate-overhead-us"]);
    let journal_rows: usize = args.get("journal-rows", 32_000);
    let queries: usize = args.get("queries", 300);
    let rounds: usize = args.get("rounds", 5);
    let mode: Mode = args.get("mode", Mode::Both);
    assert!(rounds > 0 && queries > 0);
    let pairs = queries * rounds;

    println!("== obs_sweep: tracing + query-store overhead on the browser workload ==");
    println!(
        "journal_rows={journal_rows} queries/round={queries} rounds={rounds} \
         threads=1 mode={}",
        mode.label()
    );

    let server = workloads::browser_server(journal_rows, |db| {
        db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 1024 })
    });
    let session = server.session();
    let prepared: Vec<_> =
        SHAPES.iter().map(|sql| session.prepare(sql).expect("prepare")).collect();
    let store = QueryStore::global();

    // `queries` draws per round, round-robin over the shapes, each round
    // reseeded.
    let draws: Vec<(usize, Vec<Value>)> = (0..rounds)
        .flat_map(|round| {
            let mut rng = SplitMix64::seed_from_u64(0x0B5_0000 + round as u64);
            (0..queries)
                .map(move |qi| (qi % SHAPES.len(), shape_params(qi % SHAPES.len(), &mut rng)))
        })
        .collect();
    // Executes draw `k` with the `mode` layers on or off.
    let run = |on: bool, k: usize| -> Duration {
        let (shape, params) = &draws[k % draws.len()];
        set_observability(mode, on);
        let start = Instant::now();
        prepared[*shape].execute(params).expect("browser query");
        start.elapsed()
    };
    let next = |counter: &Cell<usize>| counter.replace(counter.get() + 1);

    // Warm both paths with a full round each (plan cache fill, first-touch
    // allocations, branch predictors), then clear the store so the reported
    // aggregates come from the timed runs only.
    for on in [true, false] {
        for k in 0..queries {
            run(on, k);
        }
    }
    // A/A first: the same draw dark in both slots of a pair.
    let aa = Cell::new(0);
    let noise_floor_pct = harness::noise_floor_pct(pairs, || run(false, next(&aa) / 2));
    store.clear();

    // Each side consumes one draw per call, so pair `i` runs draw `i` on
    // both sides (dark is side `a`, observed side `b`).
    let (ka, kb) = (Cell::new(0), Cell::new(0));
    let pair = harness::paired(pairs, || run(false, next(&ka)), || run(true, next(&kb)));
    set_observability(Mode::Both, true);
    let (overhead_pct, delta_us) = (pair.overhead_pct(), pair.delta_secs * 1e6);
    println!(
        "\nmedian query: observed={} dark={} median pair delta={delta_us:+.1}µs \
         overhead={overhead_pct:+.2}% (A/A noise floor {noise_floor_pct:.2}%)",
        harness::fmt_duration(pair.b),
        harness::fmt_duration(pair.a),
    );

    // What the observed half of the run deposited in the store.
    let aggs = store.aggregates();
    let records: u64 = aggs.iter().map(|a| a.execs).sum();
    println!("store: {} digest(s), {} execution(s) recorded", aggs.len(), records);
    for a in &aggs {
        println!(
            "  digest={:016x} execs={} hit_rate={:.1}% p50={:.3}ms p95={:.3}ms rows_out={}",
            a.digest,
            a.execs,
            a.cache_hits as f64 / (a.cache_hits + a.cache_misses).max(1) as f64 * 100.0,
            a.latency_quantile(0.50) * 1e3,
            a.latency_quantile(0.95) * 1e3,
            a.rows_out_total,
        );
    }

    // Persistence round-trip: save, reload into a fresh store, compare.
    let jsonl_path = std::path::Path::new("query_store.jsonl");
    store.save_jsonl(jsonl_path).expect("write query_store.jsonl");
    let reloaded = QueryStore::new();
    let report = reloaded.load_jsonl(jsonl_path).expect("reload query_store.jsonl");
    assert_eq!(report.skipped, 0, "no record may be skipped on a clean round-trip");
    let lines = report.loaded;
    let identical = reloaded.aggregates() == aggs;
    assert!(identical, "JSONL reload must reproduce the aggregates exactly");
    let bytes = std::fs::metadata(jsonl_path).map(|m| m.len()).unwrap_or(0);
    println!("persisted {lines} digest line(s), {bytes} bytes, reload identical={identical}");

    let traces_total = MetricsRegistry::global().counter(vdm_obs::names::TRACES_TOTAL);
    harness::Report {
        bench: "obs_sweep",
        scale: obj([
            ("journal_rows", int(journal_rows)),
            ("threads", int(1u64)),
            ("queries_per_round", int(queries)),
            ("rounds", int(rounds)),
        ]),
        iters: pairs,
        noise_floor_pct,
        results: obj([
            ("mode", Json::Str(mode.label().into())),
            ("median_dark_ms", harness::millis(pair.a)),
            ("median_observed_ms", harness::millis(pair.b)),
            ("median_pair_delta_us", num(delta_us)),
            ("overhead_pct", num(overhead_pct)),
            ("traces_total", int(traces_total)),
            (
                "store",
                obj([
                    ("digests", int(aggs.len())),
                    ("records", int(records)),
                    ("jsonl_lines", int(lines)),
                    ("jsonl_bytes", int(bytes)),
                    ("reload_identical", Json::Bool(identical)),
                ]),
            ),
        ]),
    }
    .write("BENCH_obs.json");

    let mut gates = harness::Gates::default();
    if let Some(bound) = args.opt::<f64>("gate-overhead-us") {
        gates.check(&format!("{} overhead us", mode.label()), delta_us, Bound::AtMost(bound));
    }
    gates.finish();
}
