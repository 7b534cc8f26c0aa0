//! Join-order sweep: estimate-only vs feedback-corrected cost-based
//! ordering across star, chain, and ERP join shapes at 3–10 joins.
//!
//! Every workload plants the same trap: one filtered table whose zone-map
//! interpolation looks vanishingly selective but actually keeps 90% of its
//! rows (values piled just inside the predicate range, the rest far
//! outside it), and one filtered table whose 1% selectivity the estimator
//! gets right. Cost-based ordering on static estimates joins the fake
//! -selective table first and drags a huge intermediate through every
//! remaining join; one execution later, the observed per-node
//! cardinalities re-cost the space and the truly selective side drives.
//!
//! Per (shape, join count) the sweep times three plans over identical
//! data — the rule-based order (no cost-based ordering), the
//! estimate-only order, and the feedback-corrected order — and asserts
//! all three produce multiset-identical results. The skewed ERP shape
//! additionally demonstrates the live loop: two `db.query` runs through
//! the plan cache must bump `vdm_reoptimizations_total`.
//!
//! Per (shape, join count) one `harness::paired` call interleaves the
//! estimate-only and the feedback-corrected plan (the gated pair); the
//! rule-based plan rides the same rounds.
//!
//! Emits `BENCH_join.json`. Run:
//! `cargo run --release -p vdm-bench --bin join_sweep`
//! Flags: `--shapes star,chain,erp`, `--joins 3,6,10`, `--rows 200000`,
//! and `--gate 2` to fail unless the feedback-corrected plan beats the
//! estimate-only plan by the given factor on the skewed 6-join ERP shape
//! (the CI smoke check). Single-threaded, 3 pairs per workload.

use std::time::Duration;
use vdm_bench::harness::{self, int, millis, num, obj, Bound};
use vdm_cache::multiset_digest;
use vdm_core::{feedback, Database, EngineStats, ParallelConfig};
use vdm_exec::ExecOptions;
use vdm_obs::util::Json;
use vdm_obs::{names, MetricsRegistry, QueryStore};
use vdm_types::{SplitMix64, Value};

const DIM_ROWS: i64 = 1_000;
const ITERS: usize = 3;

/// Single-threaded: the join order, not the scheduler, is what is measured.
fn parallel() -> ParallelConfig {
    ParallelConfig { threads: 1, ..ParallelConfig::default() }
}
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
}

impl std::str::FromStr for Shape {
    type Err = ();
    fn from_str(s: &str) -> Result<Shape, ()> {
        [Shape::Star, Shape::Chain, Shape::Erp]
            .into_iter()
            .find(|shape| shape.name() == s)
            .ok_or(())
    }
}

struct SweepResult {
    shape: &'static str,
    joins: usize,
    rows_out: usize,
    rule: Duration,
    /// Estimate-only (`a`) vs feedback-corrected (`b`): its `speedup()` is
    /// the payoff of observed cardinalities.
    pair: harness::Paired,
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
/// asserts multiset-identical results, and times them in interleaved
/// rounds. The first workload also measures the run's A/A noise floor, on
/// its estimate-only plan.
fn run_one(
    shape: Shape,
    joins: usize,
    fact_rows: i64,
    noise_floor_pct: &mut Option<f64>,
) -> SweepResult {
    let mut db = Database::hana();
    db.set_parallelism(parallel());
    let opts = ExecOptions { parallel: parallel(), ..ExecOptions::default() };
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
    // Feedback-corrected: one run of the estimate-only plan supplies
    // observed per-node cardinalities as overriding estimates — the same
    // evidence the plan-cache hit path feeds back.
    let profile =
        vdm_exec::execute_with(&plan_est, db.engine(), &opts).expect("estimate-only run").profile;
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

    let time = |plan: &vdm_plan::PlanRef| harness::time_plan(db.engine(), plan, &opts);
    noise_floor_pct.get_or_insert_with(|| harness::noise_floor_pct(ITERS, || time(&plan_est)));
    // The rule-based run sits between the gated pair's two sides (its
    // first sample is the warm-up).
    let mut rule_samples = Vec::with_capacity(ITERS + 1);
    let pair = harness::paired(
        ITERS,
        || time(&plan_est),
        || {
            rule_samples.push(time(&plan_rule));
            time(&plan_fb)
        },
    );
    SweepResult {
        shape: shape.name(),
        joins,
        rows_out: b_rule.num_rows(),
        rule: harness::percentile(&mut rule_samples[1..], 0.5),
        pair,
    }
}

/// The live loop through the plan cache: first `db.query` fills the cache
/// and records observed cardinalities; the second hits, sees the
/// misestimate, and must re-optimize. Returns the number of
/// re-optimizations the two queries triggered.
fn run_live_loop(joins: usize, fact_rows: i64) -> (u64, usize) {
    let store = QueryStore::global();
    let was_enabled = store.enabled();
    store.set_enabled(true);
    let mut db = Database::hana();
    db.set_parallelism(parallel());
    let sql = build(&mut db, Shape::Erp, joins, fact_rows);
    let before = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    let first = db.query(&sql).expect("first run").num_rows();
    let second = db.query(&sql).expect("second run").num_rows();
    assert_eq!(first, second, "re-optimized plan changed the result");
    let after = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    store.set_enabled(was_enabled);
    (after - before, second)
}

fn main() {
    let args = harness::Args::parse(&["shapes", "joins", "rows", "gate"]);
    let shapes = args.list("shapes", &[Shape::Star, Shape::Chain, Shape::Erp]);
    let joins: Vec<usize> = args.list("joins", &(3..=10).collect::<Vec<_>>());
    let fact_rows: i64 = args.get("rows", 200_000);

    println!("== join_sweep: estimate-only vs feedback-corrected join ordering ==");
    println!("fact_rows={fact_rows}, iters={ITERS}, threads=1");

    let mut results = Vec::new();
    let mut noise_floor_pct = None;
    for &shape in &shapes {
        for &n in &joins {
            if shape == Shape::Erp && n < 3 {
                continue;
            }
            let r = run_one(shape, n, fact_rows, &mut noise_floor_pct);
            println!(
                "  {:>5} joins={:>2} rows_out={:>7} rule={:>10} estimate={:>10} feedback={:>10} speedup={:.1}x",
                r.shape,
                r.joins,
                r.rows_out,
                harness::fmt_duration(r.rule),
                harness::fmt_duration(r.pair.a),
                harness::fmt_duration(r.pair.b),
                r.pair.speedup(),
            );
            results.push(r);
        }
    }

    // The live feedback loop on the skewed 6-join ERP shape (or the
    // largest swept ERP size below 6).
    let live_joins =
        joins.iter().copied().filter(|&n| n >= 3).min().map(|min| min.max(6)).unwrap_or(6);
    let (reopts, live_rows) = run_live_loop(live_joins, fact_rows);
    println!("live loop (erp, {live_joins} joins): {reopts} re-optimization(s), {live_rows} rows");

    let rows = results.iter().map(|r| {
        obj([
            ("shape", Json::Str(r.shape.into())),
            ("joins", int(r.joins)),
            ("rows_out", int(r.rows_out)),
            ("rule_millis", millis(r.rule)),
            ("estimate_millis", millis(r.pair.a)),
            ("feedback_millis", millis(r.pair.b)),
            ("feedback_speedup", num(r.pair.speedup())),
        ])
    });
    harness::Report {
        bench: "join_sweep",
        scale: obj([("fact_rows", int(fact_rows)), ("threads", int(1u64))]),
        iters: ITERS,
        noise_floor_pct: noise_floor_pct.expect("at least one workload"),
        results: obj([
            ("live_loop_reoptimizations", int(reopts)),
            ("workloads", Json::Arr(rows.collect())),
        ]),
    }
    .write("BENCH_join.json");

    let mut gates = harness::Gates::default();
    if let Some(bound) = args.opt::<f64>("gate") {
        let gated = results
            .iter()
            .filter(|r| r.shape == "erp")
            .min_by_key(|r| (r.joins as i64 - 6).abs())
            .expect("gate needs an erp shape in the sweep");
        gates.check(
            &format!("erp joins={} feedback speedup over estimate-only", gated.joins),
            gated.pair.speedup(),
            Bound::AtLeast(bound),
        );
        gates.check("live-loop re-optimizations", reopts as f64, Bound::AtLeast(1.0));
    }
    gates.finish();
}
