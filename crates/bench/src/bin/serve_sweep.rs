//! Multi-session serving sweep for `vdm-serve`.
//!
//! The paper's workload is many ERP users paging through the same browser
//! views concurrently — a handful of statement shapes, re-executed with
//! different parameter values from hundreds of sessions. This bench
//! measures exactly that against one [`Server`]:
//!
//! * ERP dataset + the Fig. 3 `journal_entry_item_browser` registered as
//!   a queryable view, HANA profile;
//! * three prepared paging shapes (list page, document drill-down,
//!   per-year count) with per-session random parameter values;
//! * session counts swept over `{1, 8, 64, 256}` (configurable), every
//!   session on its own OS thread, all queries executing on the server's
//!   one shared worker pool;
//! * interactive pacing: each session thinks for `--think-ms` between
//!   queries (with a random initial phase), like the paper's §4.4 paging
//!   users. Without think time, N closed-loop sessions on few cores only
//!   measure run-queue depth; with it, per-query latency is the serving
//!   latency an interactive user sees. The highest step typically pushes
//!   offered load past one core's capacity on small machines — that
//!   saturation is part of the result;
//! * a **baseline**: the same mixed workload on a plan-cache-disabled
//!   server, single session, so every query pays parse + bind + optimize
//!   (what each query cost before the serving layer).
//!
//! Emits a table and `BENCH_serve.json` with p50/p99 latency, throughput,
//! and plan-cache hit rate per session count.
//!
//! The result is a latency ladder, not an A/B, so its noise floor is the
//! relative p50 spread of the baseline step run twice.
//!
//! Run: `cargo run --release -p vdm-bench --bin serve_sweep`
//! Flags:
//!   `--sessions 1,8,64,256`  session-count steps
//!   `--queries N`            queries per session (default 16)
//!   `--journal-rows N`       ERP journal size (default 32 000, where
//!                            execution dominates the call; 500 is the
//!                            fixed-overhead regime CI smokes)
//!   `--think-ms X`           per-session think time between queries (default 600)
//!   `--gate-p99-ms X`        fail if the highest step's p99 exceeds X ms
//!   `--gate-hit-rate X`      fail if its hit rate falls below X (0..1)

use std::time::{Duration, Instant};
use vdm_bench::harness::{self, fmt_duration, int, millis, num, obj, Bound};
use vdm_bench::workloads::{self, shape_params, SHAPES};
use vdm_obs::util::Json;
use vdm_serve::Server;
use vdm_types::SplitMix64;

struct SweepResult {
    sessions: usize,
    queries: usize,
    p50: Duration,
    p99: Duration,
    throughput_qps: f64,
    hit_rate: f64,
    hits: u64,
    misses: u64,
}

/// Runs `sessions` OS threads, each with its own [`vdm_serve::Session`]
/// and prepared statements, `queries_per_session` queries round-robin over
/// the shapes, thinking `think` between queries (random initial phase so
/// sessions de-synchronize). Returns overall latency percentiles,
/// throughput, and the plan cache's hit rate over the run.
fn sweep(
    server: &Server,
    sessions: usize,
    queries_per_session: usize,
    think: Duration,
) -> SweepResult {
    let before = server.plan_cache().stats();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|si| {
                scope.spawn(move || {
                    let session = server.session();
                    let prepared: Vec<_> =
                        SHAPES.iter().map(|sql| session.prepare(sql).expect("prepare")).collect();
                    let mut rng = SplitMix64::seed_from_u64(0x5E55_1000 + si as u64);
                    if !think.is_zero() {
                        let phase = rng.random_range(0..think.as_micros().max(1) as u64);
                        std::thread::sleep(Duration::from_micros(phase));
                    }
                    let mut lats = Vec::with_capacity(queries_per_session);
                    for qi in 0..queries_per_session {
                        let shape = qi % SHAPES.len();
                        let params = shape_params(shape, &mut rng);
                        let t = Instant::now();
                        let batch = prepared[shape].execute(&params).expect("query");
                        lats.push(t.elapsed());
                        // Any shape can legitimately page to an empty
                        // result; the count query never does.
                        if shape == 2 {
                            assert!(batch.num_rows() > 0, "count query returned no groups");
                        }
                        if !think.is_zero() && qi + 1 < queries_per_session {
                            // Jitter ±50% so sessions stay de-phased:
                            // identical intervals re-synchronize into
                            // arrival bursts that measure the burst, not
                            // the server.
                            let us = think.as_micros().max(2) as u64;
                            std::thread::sleep(Duration::from_micros(
                                rng.random_range(us / 2..us + us / 2),
                            ));
                        }
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("session thread")).collect()
    });
    let wall = start.elapsed();
    let after = server.plan_cache().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let lookups = (hits + misses).max(1);
    SweepResult {
        sessions,
        queries: latencies.len(),
        p50: harness::percentile(&mut latencies, 0.50),
        p99: harness::percentile(&mut latencies, 0.99),
        throughput_qps: latencies.len() as f64 / wall.as_secs_f64().max(f64::EPSILON),
        hit_rate: hits as f64 / lookups as f64,
        hits,
        misses,
    }
}

impl SweepResult {
    fn json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("sessions", int(self.sessions)),
            ("queries", int(self.queries)),
            ("p50_millis", millis(self.p50)),
            ("p99_millis", millis(self.p99)),
            ("throughput_qps", num(self.throughput_qps)),
            ("hit_rate", num(self.hit_rate)),
            ("cache_hits", int(self.hits)),
            ("cache_misses", int(self.misses)),
        ]
    }
}

fn main() {
    let args = harness::Args::parse(&[
        "sessions",
        "queries",
        "journal-rows",
        "think-ms",
        "gate-p99-ms",
        "gate-hit-rate",
    ]);
    let steps: Vec<usize> = args.list("sessions", &[1, 8, 64, 256]);
    let queries_per_session: usize = args.get("queries", 16);
    let journal_rows: usize = args.get("journal-rows", 32_000);
    let think_ms: f64 = args.get("think-ms", 600.0);

    let think = Duration::from_secs_f64(think_ms.max(0.0) / 1e3);
    println!("== serve_sweep: concurrent sessions over one server ==");
    println!(
        "journal_rows={journal_rows} queries/session={queries_per_session} think={think_ms:.0}ms pool threads={}",
        harness::host_cores()
    );

    // Baseline: plan cache disabled, one session, same interactive pacing
    // as the served sweep — every query re-parses, re-binds, and
    // re-optimizes the Fig. 3 plan, so its p50 is the per-query
    // parse+optimize+execute cost the serving layer is measured against.
    // Run twice: the spread between the two p50s is the noise floor.
    println!("\n[baseline] single session, plan cache disabled");
    let cold = workloads::browser_server(journal_rows, |db| db.set_plan_cache_capacity(0));
    let baseline = sweep(&cold, 1, queries_per_session.max(SHAPES.len()), think);
    let again = sweep(&cold, 1, queries_per_session.max(SHAPES.len()), think);
    let (lo, hi) = (baseline.p50.min(again.p50), baseline.p50.max(again.p50));
    let noise_floor_pct = (hi - lo).as_secs_f64() / lo.as_secs_f64().max(f64::EPSILON) * 100.0;
    println!(
        "  baseline  p50={} p99={} throughput={:.1} q/s (second run p50={}, spread {noise_floor_pct:.1}%)",
        fmt_duration(baseline.p50),
        fmt_duration(baseline.p99),
        baseline.throughput_qps,
        fmt_duration(again.p50),
    );
    drop(cold);

    // The served sweep: one warm server, cache enabled.
    let server = workloads::browser_server(journal_rows, |_| {});
    // Warm the cache once per shape so the sweep measures steady-state
    // serving, not a thundering herd of identical cold optimizations.
    {
        let session = server.session();
        let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
        for (si, sql) in SHAPES.iter().enumerate() {
            let p = session.prepare(sql).expect("warm-up prepare");
            p.execute(&shape_params(si, &mut rng)).expect("warm-up query");
        }
    }

    println!("\n[served] plan cache capacity={}", server.plan_cache().capacity());
    let mut sweeps = Vec::new();
    for &sessions in &steps {
        let r = sweep(&server, sessions, queries_per_session, think);
        println!(
            "  sessions={:>4}  p50={} p99={} throughput={:.1} q/s hit_rate={:.1}% ({} hits / {} misses)",
            r.sessions,
            fmt_duration(r.p50),
            fmt_duration(r.p99),
            r.throughput_qps,
            r.hit_rate * 100.0,
            r.hits,
            r.misses,
        );
        sweeps.push(r);
    }

    let p50_speedup =
        |r: &SweepResult| baseline.p50.as_secs_f64() / r.p50.as_secs_f64().max(f64::EPSILON);
    let rows = sweeps.iter().map(|r| {
        let mut row = r.json();
        row.push(("p50_speedup_vs_baseline", num(p50_speedup(r))));
        obj(row)
    });
    harness::Report {
        bench: "serve_sweep",
        scale: obj([("journal_rows", int(journal_rows)), ("think_ms", num(think_ms))]),
        // Latency samples per session and step.
        iters: queries_per_session,
        noise_floor_pct,
        results: obj([
            ("baseline_uncached_single_session", obj(baseline.json())),
            ("sweeps", Json::Arr(rows.collect())),
        ]),
    }
    .write("BENCH_serve.json");

    let top = sweeps.last().expect("at least one sweep step");
    println!(
        "summary: sessions={} p50 {} vs uncached single-session p50 {} ({:.1}x), hit rate {:.1}%",
        top.sessions,
        fmt_duration(top.p50),
        fmt_duration(baseline.p50),
        p50_speedup(top),
        top.hit_rate * 100.0,
    );

    let mut gates = harness::Gates::default();
    if let Some(bound) = args.opt::<f64>("gate-p99-ms") {
        let name = format!("sessions={} p99 ms", top.sessions);
        gates.check(&name, top.p99.as_secs_f64() * 1e3, Bound::AtMost(bound));
    }
    if let Some(bound) = args.opt::<f64>("gate-hit-rate") {
        let name = format!("sessions={} plan-cache hit rate", top.sessions);
        gates.check(&name, top.hit_rate, Bound::AtLeast(bound));
    }
    gates.finish();
}
