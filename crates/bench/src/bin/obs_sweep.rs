//! Observability-overhead sweep: what do always-on query tracing and the
//! plan-digest query store cost on the paper's browser workload?
//!
//! The tracing layer (`vdm_obs::trace`) and the [`QueryStore`] are both
//! enabled by default, so their overhead budget is a hard product
//! constraint: the serve layer promises ≤3% versus a fully untraced run.
//! This bench measures exactly that:
//!
//! * ERP dataset + the Fig. 3 `journal_entry_item_browser` view, HANA
//!   profile, plan cache warmed once per shape;
//! * the three browser paging shapes as prepared statements, executed
//!   round-robin with seeded parameter values;
//! * **per-query interleaving**: every sampled query executes twice
//!   back-to-back — once observed, once dark — with the first-run slot
//!   alternating each query so warm-cache advantage cancels. The only
//!   difference between the twins is tracing + store recording (which
//!   also switches the executor to its profiled path). Drift (scheduler,
//!   thermal, noisy neighbours) moves at a far coarser grain than one
//!   ~ms query, so it hits both accumulators equally; the overhead is
//!   the median of the per-round relative differences;
//! * after the timed section, the store's per-digest aggregates are
//!   saved as JSON lines, reloaded into a fresh store, and verified
//!   identical — the persistence round-trip the serve layer relies on.
//!
//! Emits `BENCH_obs.json` and optionally gates on the measured overhead.
//!
//! Run: `cargo run --release -p vdm-bench --bin obs_sweep`
//! Args (both `--flag=v` and `--flag v` forms):
//!   `--journal-rows N`        ERP journal size (default 500)
//!   `--queries N`             queries per batch (default 300)
//!   `--rounds N`              interleaved measurement rounds (default 5)
//!   `--threads N`             execution + pool threads (default 1: the
//!                             low-variance apples-to-apples setting;
//!                             0 = use every core, as serving would)
//!   `--mode both|trace|store` which layers the observed batches enable
//!                             (default both; trace/store isolate one layer)
//!   `--gate-overhead-pct X`   exit non-zero if overhead exceeds X percent

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vdm_core::Database;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_exec::ParallelConfig;
use vdm_obs::{trace, MetricsRegistry, QueryStore};
use vdm_optimizer::Profile;
use vdm_serve::{Server, Session};
use vdm_types::{SplitMix64, Value};

/// The browser paging shapes (same as `serve_sweep`).
const SHAPES: [&str; 3] = [
    "select AccountingDocument, LineItem, PostingDate, AmountInCompanyCodeCurrency, \
     SupplierName, CustomerName from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? \
     order by AccountingDocument, LineItem limit 50",
    "select LineItem, AmountInCompanyCodeCurrency, DebitCreditCode, CompanyName \
     from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? and AccountingDocument = ? \
     order by LineItem",
    "select FiscalYear, count(*) as n from journal_entry_item_browser \
     where CompanyCode = ? group by FiscalYear order by FiscalYear",
];

fn shape_params(shape: usize, rng: &mut SplitMix64) -> Vec<Value> {
    let company = Value::Int(rng.random_range(1..=20));
    match shape {
        0 => vec![company, Value::Int(rng.random_range(2023..=2026))],
        1 => vec![
            company,
            Value::Int(rng.random_range(2023..=2026)),
            Value::Int(rng.random_range(1..=2_500)),
        ],
        _ => vec![company],
    }
}

fn build_server(journal_rows: usize, threads: usize) -> Server {
    let mut db = Database::new(Profile::hana());
    if threads > 0 {
        db.set_parallelism(ParallelConfig { threads, morsel_rows: 1024 });
    }
    let erp = Erp { journal_rows, seed: 4711 };
    let (catalog, engine) = db.catalog_and_engine();
    let schema = erp.build(catalog, engine).expect("ERP generation");
    db.invalidate_plans();
    let browser = journal_entry_item_browser(&schema).expect("browser view");
    db.register_view("journal_entry_item_browser", browser.protected.clone());
    Server::from_database(db)
}

/// Which observability layers the "observed" batches enable.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Tracing and the query store together (the production default).
    Both,
    /// Tracing only — isolates span collection cost.
    Trace,
    /// Query store only — isolates profiled execution + recording cost.
    Store,
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

/// One warmup batch: `queries` prepared executions round-robin over the
/// shapes, parameters drawn from `seed`.
fn run_batch(session: &Session, queries: usize, seed: u64) {
    let prepared: Vec<_> =
        SHAPES.iter().map(|sql| session.prepare(sql).expect("prepare")).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for qi in 0..queries {
        let shape = qi % SHAPES.len();
        let params = shape_params(shape, &mut rng);
        prepared[shape].execute(&params).expect("browser query");
    }
}

/// One measurement round: `queries` parameter draws, each executed twice
/// back-to-back (observed and dark), the first-run slot alternating per
/// query. Returns accumulated (observed, dark) execution time.
fn run_paired_round(
    session: &Session,
    queries: usize,
    seed: u64,
    mode: Mode,
) -> (Duration, Duration) {
    let prepared: Vec<_> =
        SHAPES.iter().map(|sql| session.prepare(sql).expect("prepare")).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut observed = Duration::ZERO;
    let mut dark = Duration::ZERO;
    for qi in 0..queries {
        let shape = qi % SHAPES.len();
        let params = shape_params(shape, &mut rng);
        // Even queries run observed-first, odd queries dark-first.
        for turn in 0..2 {
            let on = (qi % 2 == 0) == (turn == 0);
            set_observability(mode, on);
            let start = Instant::now();
            prepared[shape].execute(&params).expect("browser query");
            let elapsed = start.elapsed();
            if on {
                observed += elapsed;
            } else {
                dark += elapsed;
            }
        }
    }
    (observed, dark)
}

fn median_ms(samples: &[Duration]) -> f64 {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    ms[ms.len() / 2]
}

fn json_list(samples: &[Duration]) -> String {
    let items: Vec<String> =
        samples.iter().map(|d| format!("{:.3}", d.as_secs_f64() * 1e3)).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let mut journal_rows = 500usize;
    let mut queries = 300usize;
    let mut rounds = 5usize;
    let mut threads = 1usize;
    let mut mode = Mode::Both;
    let mut gate_overhead_pct: Option<f64> = None;

    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let (flag, value) = match raw[i].split_once('=') {
            Some((f, v)) => (f.to_string(), v.to_string()),
            None => {
                let f = raw[i].clone();
                i += 1;
                let v = raw.get(i).unwrap_or_else(|| panic!("{f} needs a value")).clone();
                (f, v)
            }
        };
        match flag.as_str() {
            "--journal-rows" => {
                journal_rows = value.parse().expect("--journal-rows takes a number")
            }
            "--queries" => queries = value.parse().expect("--queries takes a number"),
            "--rounds" => rounds = value.parse().expect("--rounds takes a number"),
            "--threads" => threads = value.parse().expect("--threads takes a number"),
            "--mode" => {
                mode = match value.as_str() {
                    "both" => Mode::Both,
                    "trace" => Mode::Trace,
                    "store" => Mode::Store,
                    other => panic!("--mode takes both|trace|store, got {other}"),
                }
            }
            "--gate-overhead-pct" => {
                gate_overhead_pct = Some(value.parse().expect("--gate-overhead-pct takes a number"))
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    assert!(rounds > 0 && queries > 0);

    let mode_label = match mode {
        Mode::Both => "trace+store",
        Mode::Trace => "trace-only",
        Mode::Store => "store-only",
    };
    println!("== obs_sweep: tracing + query-store overhead on the browser workload ==");
    println!(
        "journal_rows={journal_rows} queries/batch={queries} rounds={rounds} \
         threads={threads} mode={mode_label}"
    );

    let server = build_server(journal_rows, threads);
    let session = server.session();
    let store = QueryStore::global();
    store.clear();

    // Warm both paths with a full batch each (plan cache fill, first-touch
    // allocations, branch predictors), then clear the store so the reported
    // aggregates come from the timed runs only.
    set_observability(Mode::Both, true);
    run_batch(&session, queries, 0xFEED);
    set_observability(Mode::Both, false);
    run_batch(&session, queries, 0xFEED);
    store.clear();

    let mut on_times = Vec::with_capacity(rounds);
    let mut off_times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let seed = 0x0B5_0000 + round as u64;
        let (on, off) = run_paired_round(&session, queries, seed, mode);
        on_times.push(on);
        off_times.push(off);
    }
    set_observability(Mode::Both, true);

    let on_ms = median_ms(&on_times);
    let off_ms = median_ms(&off_times);
    // Index i in both vectors is one round over the same parameter draws;
    // the median over rounds is robust to the occasional round that caught
    // scheduler interference.
    let mut round_pcts: Vec<f64> = on_times
        .iter()
        .zip(&off_times)
        .map(|(on, off)| (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0)
        .collect();
    round_pcts.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = round_pcts[round_pcts.len() / 2];
    println!(
        "\nmedian round: observed={on_ms:.2}ms dark={off_ms:.2}ms \
         interleaved overhead={overhead_pct:+.2}%"
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
    let mut json = String::from("{\n  \"bench\": \"obs_sweep\",\n");
    let _ = writeln!(json, "  \"mode\": \"{mode_label}\",");
    let _ = writeln!(json, "  \"journal_rows\": {journal_rows},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"queries_per_batch\": {queries},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"observed_round_ms\": {},", json_list(&on_times));
    let _ = writeln!(json, "  \"dark_round_ms\": {},", json_list(&off_times));
    let _ = writeln!(json, "  \"median_observed_ms\": {on_ms:.3},");
    let _ = writeln!(json, "  \"median_dark_ms\": {off_ms:.3},");
    let pcts: Vec<String> = round_pcts.iter().map(|p| format!("{p:.3}")).collect();
    let _ = writeln!(json, "  \"round_overhead_pcts\": [{}],", pcts.join(", "));
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "  \"traces_total\": {traces_total},");
    let _ = writeln!(
        json,
        "  \"store\": {{\"digests\": {}, \"records\": {records}, \"jsonl_lines\": {lines}, \
         \"jsonl_bytes\": {bytes}, \"reload_identical\": {identical}}}",
        aggs.len(),
    );
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json:\n{json}");

    if let Some(gate) = gate_overhead_pct {
        if overhead_pct > gate {
            eprintln!(
                "FAIL: tracing+store overhead {overhead_pct:.2}% exceeds the {gate:.2}% gate"
            );
            std::process::exit(1);
        }
        println!("gate: overhead {overhead_pct:.2}% clears the {gate:.2}% gate");
    }
}
