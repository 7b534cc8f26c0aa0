//! Join-order sweep: estimate-only vs feedback-corrected cost-based
//! ordering across star, chain, and ERP join shapes at 3–10 joins.
//!
//! Every workload plants the same trap: one filtered table whose zone-map
//! interpolation looks vanishingly selective but actually keeps 90% of its
//! rows (values piled just inside the predicate range, the rest far
//! outside it), and one filtered table whose 1% selectivity the estimator
//! gets right. Cost-based ordering on static estimates joins the fake
//! -selective table first and drags a huge intermediate through every
//! remaining join; one profiled execution later, the observed per-node
//! cardinalities re-cost the space and the truly selective side drives.
//!
//! Per (shape, join count) the sweep times three plans over identical
//! data — the rule-based order (no cost-based ordering), the
//! estimate-only order, and the feedback-corrected order — and asserts
//! all three produce multiset-identical results. The skewed ERP shape
//! additionally demonstrates the live loop: two `db.query` runs through
//! the plan cache must bump `vdm_reoptimizations_total`.
//!
//! Emits `BENCH_join.json`. Run:
//! `cargo run --release -p vdm-bench --bin join_sweep`
//! Optional: `--shapes=star,chain,erp`, `--joins=3,6,10`,
//! `--rows=200000`, `--iters=3`, `--threads=1`, and `--gate=2` to exit
//! non-zero unless the feedback-corrected plan beats the estimate-only
//! plan by the given factor on the skewed 6-join ERP shape (the CI smoke
//! check).

use std::fmt::Write as _;
use std::time::Duration;
use vdm_bench::harness;
use vdm_cache::multiset_digest;
use vdm_core::{feedback, Database, EngineStats, ParallelConfig};
use vdm_exec::ExecOptions;
use vdm_obs::{names, MetricsRegistry, QueryStore};
use vdm_types::{SplitMix64, Value};

const DIM_ROWS: i64 = 1_000;
/// Fraction of skew-dim rows sitting inside the predicate range.
const SKEW_IN_RANGE: f64 = 0.9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Star,
    Chain,
    Erp,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Chain => "chain",
            Shape::Erp => "erp",
        }
    }

    fn parse(s: &str) -> Shape {
        match s {
            "star" => Shape::Star,
            "chain" => Shape::Chain,
            "erp" => Shape::Erp,
            other => panic!("unknown shape {other:?} (star|chain|erp)"),
        }
    }
}

struct SweepResult {
    shape: &'static str,
    joins: usize,
    rows_out: usize,
    rule: Duration,
    estimate: Duration,
    feedback: Duration,
}

impl SweepResult {
    /// Estimate-only over feedback-corrected: the payoff of observed
    /// cardinalities.
    fn speedup(&self) -> f64 {
        self.estimate.as_secs_f64() / self.feedback.as_secs_f64().max(f64::EPSILON)
    }
}

/// The skew dim: 90% of `val` in [0, 10] (inside the predicate), 10% far
/// outside in [10_000, 100_000]. The zone map spans the whole range, so
/// interpolation prices `val <= 10` at ~0.01% when it really keeps 90%.
fn skew_val(rng: &mut SplitMix64, i: i64, total: i64) -> i64 {
    if (i as f64) < total as f64 * SKEW_IN_RANGE {
        rng.random_range(0..=10)
    } else {
        rng.random_range(10_000..100_000)
    }
}

/// The honest dim: `val` uniform over [0, 100_000), so `val < 1000` is 1%
/// and the estimator prices it correctly.
fn uniform_val(rng: &mut SplitMix64, _i: i64, _total: i64) -> i64 {
    rng.random_range(0..100_000)
}

fn dim_ddl(name: &str) -> String {
    format!("create table {name} (id bigint primary key, val bigint not null)")
}

fn load_dim(
    db: &mut Database,
    rng: &mut SplitMix64,
    name: &str,
    rows: i64,
    val: fn(&mut SplitMix64, i64, i64) -> i64,
) {
    db.execute(&dim_ddl(name)).expect("dim ddl");
    let data: Vec<Vec<Value>> =
        (0..rows).map(|i| vec![Value::Int(i), Value::Int(val(rng, i, rows))]).collect();
    db.engine().insert(name, data).expect("dim load");
}

/// Builds the workload for `shape` with `joins` join edges and returns the
/// query SQL. Zone maps are materialized (delta merged) on every table so
/// the estimator sees column ranges.
fn build(db: &mut Database, shape: Shape, joins: usize, fact_rows: i64) -> String {
    let mut rng = SplitMix64::seed_from_u64(0x10A0 + joins as u64);
    let mut tables: Vec<String> = Vec::new();
    let sql = match shape {
        Shape::Star => {
            // fact → d1..dn; d1 is the skew trap, d2 is honestly selective.
            for i in 1..=joins {
                let name = format!("d{i}");
                let val: fn(&mut SplitMix64, i64, i64) -> i64 =
                    if i == 1 { skew_val } else { uniform_val };
                load_dim(db, &mut rng, &name, DIM_ROWS, val);
                tables.push(name);
            }
            let fks: Vec<String> = (1..=joins)
                .map(|i| format!("fk{i} bigint not null, foreign key (fk{i}) references d{i} (id)"))
                .collect();
            db.execute(&format!(
                "create table fact (f_id bigint primary key, amount bigint not null, {})",
                fks.join(", ")
            ))
            .expect("fact ddl");
            let data: Vec<Vec<Value>> = (0..fact_rows)
                .map(|i| {
                    let mut row = vec![Value::Int(i), Value::Int(rng.random_range(0..1_000_000))];
                    row.extend((0..joins).map(|_| Value::Int(rng.random_range(0..DIM_ROWS))));
                    row
                })
                .collect();
            db.engine().insert("fact", data).expect("fact load");
            tables.push("fact".into());
            let join_sql: Vec<String> =
                (1..=joins).map(|i| format!("join d{i} on f.fk{i} = d{i}.id")).collect();
            format!(
                "select f.f_id, f.amount, d1.val as v1 from fact f {} \
                 where d1.val <= 10 and d2.val < 1000",
                join_sql.join(" ")
            )
        }
        Shape::Chain => {
            // fact → c1 → c2 → … → cn; c1 is the skew trap next to the
            // fact, the far end cn is honestly selective — the corrected
            // order must drive the chain from the other side.
            for i in (1..=joins).rev() {
                let name = format!("c{i}");
                let val: fn(&mut SplitMix64, i64, i64) -> i64 =
                    if i == 1 { skew_val } else { uniform_val };
                db.execute(&if i == joins {
                    dim_ddl(&name)
                } else {
                    format!(
                        "create table {name} (id bigint primary key, val bigint not null, \
                         nxt bigint not null, foreign key (nxt) references c{} (id))",
                        i + 1
                    )
                })
                .expect("chain ddl");
                let data: Vec<Vec<Value>> = (0..DIM_ROWS)
                    .map(|r| {
                        let mut row = vec![Value::Int(r), Value::Int(val(&mut rng, r, DIM_ROWS))];
                        if i != joins {
                            row.push(Value::Int(rng.random_range(0..DIM_ROWS)));
                        }
                        row
                    })
                    .collect();
                db.engine().insert(&name, data).expect("chain load");
                tables.push(name);
            }
            db.execute(
                "create table fact (f_id bigint primary key, amount bigint not null, \
                 nxt bigint not null, foreign key (nxt) references c1 (id))",
            )
            .expect("fact ddl");
            let data: Vec<Vec<Value>> = (0..fact_rows)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(rng.random_range(0..1_000_000)),
                        Value::Int(rng.random_range(0..DIM_ROWS)),
                    ]
                })
                .collect();
            db.engine().insert("fact", data).expect("fact load");
            tables.push("fact".into());
            let join_sql: Vec<String> = (1..=joins)
                .map(|i| {
                    let prev = if i == 1 { "f".into() } else { format!("c{}", i - 1) };
                    format!("join c{i} on {prev}.nxt = c{i}.id")
                })
                .collect();
            format!(
                "select f.f_id, f.amount, c1.val as v1 from fact f {} \
                 where c1.val <= 10 and c{joins}.val < 1000",
                join_sql.join(" ")
            )
        }
        Shape::Erp => {
            // Order lines (fact) → header → customer, plus dims d3..dn on
            // the fact: the ERP mix of one chained document hop and a star
            // of attribute joins. The skew trap is fact-side dim d3; the
            // honest 1% filter sits at the far end of the document chain.
            assert!(joins >= 3, "erp needs at least 3 joins (fact→hdr→cust + one dim)");
            load_dim(db, &mut rng, "cust", DIM_ROWS, uniform_val);
            tables.push("cust".into());
            let hdr_rows = (fact_rows / 10).max(DIM_ROWS);
            db.execute(
                "create table hdr (id bigint primary key, cust_id bigint not null, \
                 foreign key (cust_id) references cust (id))",
            )
            .expect("hdr ddl");
            let data: Vec<Vec<Value>> = (0..hdr_rows)
                .map(|i| vec![Value::Int(i), Value::Int(rng.random_range(0..DIM_ROWS))])
                .collect();
            db.engine().insert("hdr", data).expect("hdr load");
            tables.push("hdr".into());
            for i in 3..=joins {
                let name = format!("d{i}");
                let val: fn(&mut SplitMix64, i64, i64) -> i64 =
                    if i == 3 { skew_val } else { uniform_val };
                load_dim(db, &mut rng, &name, DIM_ROWS, val);
                tables.push(name);
            }
            let fks: Vec<String> = std::iter::once(
                "hdr_id bigint not null, foreign key (hdr_id) references hdr (id)".to_string(),
            )
            .chain((3..=joins).map(|i| {
                format!("fk{i} bigint not null, foreign key (fk{i}) references d{i} (id)")
            }))
            .collect();
            db.execute(&format!(
                "create table fact (f_id bigint primary key, amount bigint not null, {})",
                fks.join(", ")
            ))
            .expect("fact ddl");
            let data: Vec<Vec<Value>> = (0..fact_rows)
                .map(|i| {
                    let mut row = vec![
                        Value::Int(i),
                        Value::Int(rng.random_range(0..1_000_000)),
                        Value::Int(rng.random_range(0..hdr_rows)),
                    ];
                    row.extend((3..=joins).map(|_| Value::Int(rng.random_range(0..DIM_ROWS))));
                    row
                })
                .collect();
            db.engine().insert("fact", data).expect("fact load");
            tables.push("fact".into());
            let join_sql: Vec<String> = std::iter::once(
                "join hdr on f.hdr_id = hdr.id join cust on hdr.cust_id = cust.id".to_string(),
            )
            .chain((3..=joins).map(|i| format!("join d{i} on f.fk{i} = d{i}.id")))
            .collect();
            format!(
                "select f.f_id, f.amount, d3.val as v3 from fact f {} \
                 where d3.val <= 10 and cust.val < 1000",
                join_sql.join(" ")
            )
        }
    };
    for t in &tables {
        db.engine().merge_delta(t).expect("merge");
    }
    sql
}

/// One workload: builds the data, derives the three plan variants,
/// asserts multiset-identical results, and times each.
fn run_one(
    shape: Shape,
    joins: usize,
    fact_rows: i64,
    iters: usize,
    parallel: ParallelConfig,
) -> SweepResult {
    let mut db = Database::hana();
    db.set_parallelism(parallel);
    let opts = ExecOptions { parallel, ..ExecOptions::default() };
    let sql = build(&mut db, shape, joins, fact_rows);
    let bound = db.plan(&sql).expect("bind");
    let stats = EngineStats::new(db.engine());

    // Rule-based: no statistics, the join-ordering pass stays off.
    let plan_rule = db.optimizer().optimize(&bound).expect("rule plan");
    // Estimate-only: cost-based ordering on static statistics.
    let (plan_est, _) = db
        .optimizer()
        .optimize_traced_with(&bound, Some(&stats), None)
        .expect("estimate-only plan");
    // Feedback-corrected: one profiled run of the estimate-only plan
    // supplies observed per-node cardinalities as overriding estimates —
    // the same evidence the plan-cache hit path feeds back.
    let profile =
        vdm_exec::execute_with(&plan_est, db.engine(), &ExecOptions { profile: true, ..opts })
            .expect("profiled run")
            .profile
            .expect("profiling was requested");
    let observed: Vec<(u32, f64)> =
        profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out as f64)).collect();
    let overrides = feedback::overrides_from_observed(&plan_est, &observed);
    let (plan_fb, _) = db
        .optimizer()
        .optimize_traced_with(&bound, Some(&stats), Some(&overrides))
        .expect("feedback plan");

    // Every ordering must produce the identical result multiset.
    let (b_rule, _) = db.execute_plan_unoptimized(&plan_rule).expect("rule exec");
    let (b_est, _) = db.execute_plan_unoptimized(&plan_est).expect("est exec");
    let (b_fb, _) = db.execute_plan_unoptimized(&plan_fb).expect("fb exec");
    let digest = multiset_digest(&b_rule);
    assert_eq!(b_rule.num_rows(), b_est.num_rows(), "[{} {joins}] row count", shape.name());
    assert_eq!(digest, multiset_digest(&b_est), "[{} {joins}] estimate-only order", shape.name());
    assert_eq!(digest, multiset_digest(&b_fb), "[{} {joins}] feedback order", shape.name());

    SweepResult {
        shape: shape.name(),
        joins,
        rows_out: b_rule.num_rows(),
        rule: harness::time_plan(db.engine(), &plan_rule, &opts, iters),
        estimate: harness::time_plan(db.engine(), &plan_est, &opts, iters),
        feedback: harness::time_plan(db.engine(), &plan_fb, &opts, iters),
    }
}

/// The live loop through the plan cache: first `db.query` fills the cache
/// and records observed cardinalities; the second hits, sees the
/// misestimate, and must re-optimize. Returns the number of
/// re-optimizations the two queries triggered.
fn run_live_loop(joins: usize, fact_rows: i64, parallel: ParallelConfig) -> (u64, usize) {
    let store = QueryStore::global();
    let was_enabled = store.enabled();
    store.set_enabled(true);
    let mut db = Database::hana();
    db.set_parallelism(parallel);
    let sql = build(&mut db, Shape::Erp, joins, fact_rows);
    let before = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    let first = db.query(&sql).expect("first run").num_rows();
    let second = db.query(&sql).expect("second run").num_rows();
    assert_eq!(first, second, "re-optimized plan changed the result");
    let after = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    store.set_enabled(was_enabled);
    (after - before, second)
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

fn to_json(fact_rows: i64, results: &[SweepResult], reopts: u64) -> String {
    let mut out = format!("{{\n  \"bench\": \"join_sweep\",\n  {},\n", harness::host_json());
    let _ = writeln!(out, "  \"fact_rows\": {fact_rows},");
    let _ = writeln!(out, "  \"live_loop_reoptimizations\": {reopts},");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"shape\": \"{}\", \"joins\": {}, \"rows_out\": {}, \
             \"rule_millis\": {:.3}, \"estimate_millis\": {:.3}, \"feedback_millis\": {:.3}, \
             \"feedback_speedup\": {:.2}}}{}",
            r.shape,
            r.joins,
            r.rows_out,
            r.rule.as_secs_f64() * 1e3,
            r.estimate.as_secs_f64() * 1e3,
            r.feedback.as_secs_f64() * 1e3,
            r.speedup(),
            if i + 1 == results.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut shapes = vec![Shape::Star, Shape::Chain, Shape::Erp];
    let mut joins: Vec<usize> = (3..=10).collect();
    let mut fact_rows: i64 = 200_000;
    let mut iters = 3usize;
    let mut threads = 1usize;
    let mut gate: Option<f64> = None;
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--shapes=") {
            shapes = list.split(',').map(|s| Shape::parse(s.trim())).collect();
        } else if let Some(list) = arg.strip_prefix("--joins=") {
            joins = list
                .split(',')
                .map(|s| s.trim().parse().expect("--joins takes a comma-separated list"))
                .collect();
        } else if let Some(n) = arg.strip_prefix("--rows=") {
            fact_rows = n.parse().expect("--rows takes a number");
        } else if let Some(n) = arg.strip_prefix("--iters=") {
            iters = n.parse().expect("--iters takes a number");
        } else if let Some(n) = arg.strip_prefix("--threads=") {
            threads = n.parse().expect("--threads takes a number");
        } else if let Some(g) = arg.strip_prefix("--gate=") {
            gate = Some(g.parse().expect("--gate takes a number"));
        } else {
            panic!("unknown argument {arg:?}");
        }
    }
    let parallel = ParallelConfig { threads, ..ParallelConfig::default() };

    println!("== join_sweep: estimate-only vs feedback-corrected join ordering ==");
    println!("fact_rows={fact_rows}, iters={iters}, threads={threads}");

    let mut results = Vec::new();
    for &shape in &shapes {
        for &n in &joins {
            if shape == Shape::Erp && n < 3 {
                continue;
            }
            let r = run_one(shape, n, fact_rows, iters, parallel);
            println!(
                "  {:>5} joins={:>2} rows_out={:>7} rule={:>9} estimate={:>9} feedback={:>9} speedup={:.1}x",
                r.shape,
                r.joins,
                r.rows_out,
                fmt_duration(r.rule),
                fmt_duration(r.estimate),
                fmt_duration(r.feedback),
                r.speedup(),
            );
            results.push(r);
        }
    }

    // The live feedback loop on the skewed 6-join ERP shape (or the
    // largest swept ERP size below 6).
    let live_joins =
        joins.iter().copied().filter(|&n| n >= 3).min().map(|min| min.max(6)).unwrap_or(6);
    let (reopts, live_rows) = run_live_loop(live_joins, fact_rows, parallel);
    println!("live loop (erp, {live_joins} joins): {reopts} re-optimization(s), {live_rows} rows");

    let json = to_json(fact_rows, &results, reopts);
    std::fs::write("BENCH_join.json", &json).expect("write BENCH_join.json");
    println!("\nwrote BENCH_join.json");

    if let Some(gate) = gate {
        let gated = results
            .iter()
            .filter(|r| r.shape == "erp")
            .min_by_key(|r| (r.joins as i64 - 6).abs())
            .expect("gate needs an erp shape in the sweep");
        let speedup = gated.speedup();
        if speedup < gate {
            eprintln!(
                "FAIL: erp joins={} feedback speedup {speedup:.2}x is below the {gate:.2}x gate",
                gated.joins
            );
            std::process::exit(1);
        }
        if reopts == 0 {
            eprintln!("FAIL: the live loop did not re-optimize the skewed ERP shape");
            std::process::exit(1);
        }
        println!(
            "gate: erp joins={} feedback speedup {speedup:.2}x clears the {gate:.2}x gate \
             ({reopts} live re-optimization(s))",
            gated.joins
        );
    }
}
