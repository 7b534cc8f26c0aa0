//! End-to-end integration: SQL text → parse → bind → optimize → execute,
//! across every optimizer profile.
//!
//! The fundamental soundness property of the whole reproduction: **every
//! capability profile computes the same answers** — profiles only change
//! how much work the plan does.

use vdm_core::Database;
use vdm_optimizer::Profile;
use vdm_types::Value;

/// Queries spanning every feature: joins, aggregation, unions, paging,
/// views, macros, declared cardinalities.
const QUERIES: &[&str] = &[
    "select o_orderkey from orders left join customer on o_custkey = c_custkey",
    "select o.o_orderkey, c.c_name from orders o left join customer c on o.o_custkey = c.c_custkey where o.o_totalprice > 500.00",
    "select c_mktsegment, count(*) as n, sum(o_totalprice) as total from orders o left join customer c on o.o_custkey = c.c_custkey group by c_mktsegment order by n desc",
    "select n_name, count(*) as suppliers from supplier s join nation n on s.s_nationkey = n.n_nationkey group by n_name order by suppliers desc, n_name",
    "select l_orderkey, sum(l_quantity) as qty from lineitem group by l_orderkey having sum(l_quantity) > 100 order by qty desc limit 5",
    "select o_orderkey from orders left outer many to one join customer on o_custkey = c_custkey order by o_orderkey limit 7 offset 3",
    "select c_custkey as k from customer union all select s_suppkey as k from supplier",
    "select distinct c_nationkey from customer order by c_nationkey",
    "select x.n from (select count(*) as n from lineitem) x",
    "select upper(c_name) as cname from customer where c_custkey <= 3 order by cname",
    "select case when o_totalprice > 1000.00 then 'big' else 'small' end as bucket, count(*) from orders group by case when o_totalprice > 1000.00 then 'big' else 'small' end order by bucket",
];

fn tpch_db(profile: Profile) -> Database {
    let mut db = Database::new(profile);
    let gen = vdm_data::tpch::Tpch { sf: 0.02, seed: 42, with_foreign_keys: false };
    let (catalog, engine) = db.catalog_and_engine();
    gen.build(catalog, engine).expect("TPC-H load");
    db
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let c = x.total_cmp(y);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[test]
fn all_profiles_agree_on_results() {
    let mut reference: Vec<Vec<Vec<Value>>> = Vec::new();
    {
        let db = tpch_db(Profile::hana());
        for q in QUERIES {
            reference.push(sorted(db.query(q).unwrap_or_else(|e| panic!("{q}: {e}")).to_rows()));
        }
    }
    for profile in
        [Profile::postgres(), Profile::system_x(), Profile::system_y(), Profile::system_z()]
    {
        let name = profile.name().to_string();
        let db = tpch_db(profile);
        for (q, want) in QUERIES.iter().zip(&reference) {
            let got = sorted(db.query(q).unwrap_or_else(|e| panic!("{name} / {q}: {e}")).to_rows());
            assert_eq!(&got, want, "profile {name} diverged on: {q}");
        }
    }
}

#[test]
fn optimized_and_unoptimized_plans_agree() {
    let db = tpch_db(Profile::hana());
    for q in QUERIES {
        let plan = db.plan(q).unwrap();
        let (opt, _) =
            db.execute_plan_unoptimized(&db.optimizer().optimize(&plan).unwrap()).unwrap();
        let (raw, _) = db.execute_plan_unoptimized(&plan).unwrap();
        assert_eq!(
            sorted(opt.to_rows()),
            sorted(raw.to_rows()),
            "optimization changed results of: {q}"
        );
    }
}

#[test]
fn hybrid_workload_transactions_visible_to_analytics() {
    // The HTAP promise: a write is immediately visible to the analytical
    // query — no ETL delay.
    let mut db = tpch_db(Profile::hana());
    let before = db.query("select count(*) from orders").unwrap().row(0)[0].as_int().unwrap();
    db.execute("insert into orders values (999999, 1, 'O', 123.45, cast(10000 as date))").unwrap();
    let after = db.query("select count(*) from orders").unwrap().row(0)[0].as_int().unwrap();
    assert_eq!(after, before + 1);
    // And a delete disappears immediately.
    db.engine().delete_where("orders", &|row| row[0] == Value::Int(999999)).unwrap();
    let last = db.query("select count(*) from orders").unwrap().row(0)[0].as_int().unwrap();
    assert_eq!(last, before);
}

#[test]
fn delta_merge_preserves_query_results() {
    let db = tpch_db(Profile::hana());
    let q = "select c_mktsegment, count(*) from customer group by c_mktsegment order by 1";
    let before = db.query(q).unwrap().to_rows();
    db.engine().merge_delta("customer").unwrap();
    let after = db.query(q).unwrap().to_rows();
    assert_eq!(before, after, "delta merge must be invisible to queries");
    let (main, delta) = db.engine().fragment_sizes("customer").unwrap();
    assert!(main > 0);
    assert_eq!(delta, 0);
}

#[test]
fn expression_macro_end_to_end_margin() {
    // §7.2: the paper's margin example over TPC-H.
    let mut db = tpch_db(Profile::hana());
    db.execute(
        "create view vlineitem as
         select l.l_orderkey, l.l_extendedprice, l.l_discount, ps.ps_supplycost
         from lineitem l
         join partsupp ps on l.l_partkey = ps.ps_partkey and l.l_suppkey = ps.ps_suppkey
         with expression macros (
             1 - sum(ps_supplycost) / sum(l_extendedprice * (1 - l_discount)) as margin
         )",
    )
    .unwrap();
    let rows = db
        .query("select l_orderkey, expression_macro(margin) from vlineitem group by l_orderkey order by l_orderkey limit 5")
        .unwrap();
    assert_eq!(rows.num_rows(), 5);
    // Hand-written equivalent must agree.
    let manual = db
        .query(
            "select l_orderkey, 1 - sum(ps_supplycost) / sum(l_extendedprice * (1 - l_discount)) as margin
             from vlineitem group by l_orderkey order by l_orderkey limit 5",
        )
        .unwrap();
    for (a, b) in rows.to_rows().iter().zip(manual.to_rows()) {
        assert_eq!(a[0], b[0]);
        let x = a[1].as_dec().unwrap().to_f64();
        let y = b[1].as_dec().unwrap().to_f64();
        assert!((x - y).abs() < 1e-9, "macro vs manual margin: {x} vs {y}");
    }
}

#[test]
fn precision_loss_sql_round_trip() {
    let db = tpch_db(Profile::hana());
    let strict = db.query("select sum(round(o_totalprice * 1.11, 2)) from orders").unwrap().row(0)
        [0]
    .as_dec()
    .unwrap();
    let loose = db
        .query("select allow_precision_loss(sum(round(o_totalprice * 1.11, 2))) from orders")
        .unwrap()
        .row(0)[0]
        .as_dec()
        .unwrap();
    let delta = (strict.to_f64() - loose.to_f64()).abs();
    let n_orders = db.query("select count(*) from orders").unwrap().row(0)[0].as_int().unwrap();
    assert!(delta <= 0.005 * n_orders as f64, "delta {delta} exceeds rounding bound");
}

/// Drops the run-dependent tokens of a rendered plan: scan instance ids
/// (a process-global counter) and the `[est=N]` annotations.
fn skeleton(plan_text: &str) -> String {
    plan_text
        .trim_end()
        .lines()
        .map(|l| {
            let l = l.split(" [est=").next().unwrap();
            match l.split_once("(inst ") {
                Some((head, tail)) => {
                    format!("{head}(inst _{}", tail.trim_start_matches(char::is_numeric))
                }
                None => l.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The skeleton of an EXPLAIN text's `== optimized plan` section.
fn explained_plan(text: &str) -> String {
    let section = text.split("== optimized plan").nth(1).expect("optimized section");
    skeleton(section.split_once("==\n").unwrap().1.split("\n== optimizer trace").next().unwrap())
}

/// The plan digest a traced query ran: the `digest` attr of its
/// `select_plan` span, or of the `reoptimize` span under it.
fn ran_digest(trace: Option<vdm_obs::QueryTrace>) -> u64 {
    let trace = trace.expect("a traced query");
    let digest = trace.spans.iter().rev().find_map(|s| s.attr("digest")).expect("digest attr");
    u64::from_str_radix(digest, 16).unwrap()
}

/// One plan per statement: every door that hands out or runs "the
/// optimized plan" of a SQL text resolves it through the same pipeline —
/// with storage statistics — so a ≥3-join query whose cost-based join order
/// differs from the rule-only one gets the *same* plan from
/// `Database::query` (digest read off its `select_plan` trace span),
/// `Database::optimized_plan`, the optimized section of `Database::explain`,
/// both `create_cached_view`s, `Session::query`, `Prepared::execute` and a
/// session's SQL `EXPLAIN`.
#[test]
fn every_door_resolves_the_same_plan() {
    use vdm_core::CacheMode;
    use vdm_plan::plan_digest_canonical;

    const SQL: &str = "select n_name, count(*) as n from lineitem l \
                       join orders o on l.l_orderkey = o.o_orderkey \
                       join customer c on o.o_custkey = c.c_custkey \
                       join nation n on c.c_nationkey = n.n_nationkey \
                       where c.c_custkey <= 5 group by n_name";

    let db = tpch_db(Profile::hana());
    let rule_only = db.optimizer().optimize(&db.plan(SQL).unwrap()).unwrap();

    // What `query` runs.
    db.explain_trace(SQL).unwrap();
    let queried = ran_digest(db.last_trace());
    assert_ne!(
        queried,
        plan_digest_canonical(&rule_only),
        "the probe query must be one whose cost-based join order differs from the rule-only plan"
    );

    let optimized = db.optimized_plan(SQL).unwrap();
    assert_eq!(plan_digest_canonical(&optimized), queried, "optimized_plan");
    let rendered = skeleton(&vdm_plan::explain(&optimized));
    assert_eq!(explained_plan(&db.explain(SQL).unwrap()), rendered, "explain");

    let view = db.create_cached_view("by_nation", SQL, CacheMode::Static).unwrap();
    assert_eq!(plan_digest_canonical(view.plan()), queried, "Database::create_cached_view");

    let server = vdm_serve::Server::from_database(db);
    let view = server.create_cached_view("by_nation_served", SQL, CacheMode::Static).unwrap();
    assert_eq!(plan_digest_canonical(view.plan()), queried, "Server::create_cached_view");

    let session = server.session();
    let (_, trace) = session.with_trace("door", |s| s.query(SQL).unwrap());
    assert_eq!(ran_digest(trace), queried, "Session::query");
    let prepared = session.prepare(SQL).unwrap();
    let (_, trace) = session.with_trace("door", |_| prepared.execute(&[]).unwrap());
    assert_eq!(ran_digest(trace), queried, "Prepared::execute");
    let text = session.execute(&format!("explain {SQL}")).unwrap().explained().unwrap();
    assert_eq!(explained_plan(&text), rendered, "SQL EXPLAIN");
}

/// The skewed ERP join of `join_sweep`'s CI gate, small: order lines →
/// header → customer plus one attribute dim `d3`. Zone-map interpolation
/// prices `d3.val <= 10` at a sliver of `d3` when it keeps 90% of it, so
/// the cold plan joins `d3` too early; observed cardinalities fix that.
fn skewed_erp_db() -> (Database, &'static str) {
    use vdm_types::SplitMix64;
    let mut db = Database::hana();
    let mut rng = SplitMix64::seed_from_u64(0x10A3);
    let (dim_rows, hdr_rows, fact_rows) = (1_000i64, 2_000i64, 20_000i64);
    db.execute_script(
        "create table cust (id bigint primary key, val bigint not null);
         create table d3 (id bigint primary key, val bigint not null);
         create table hdr (id bigint primary key, cust_id bigint not null,
                           foreign key (cust_id) references cust (id));
         create table fact (f_id bigint primary key, amount bigint not null,
                            hdr_id bigint not null, fk3 bigint not null,
                            foreign key (hdr_id) references hdr (id),
                            foreign key (fk3) references d3 (id));",
    )
    .unwrap();
    let load = |table: &str, rows: Vec<Vec<i64>>| {
        let rows = rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
        db.engine().insert(table, rows).unwrap();
        db.engine().merge_delta(table).unwrap();
    };
    load("cust", (0..dim_rows).map(|i| vec![i, rng.random_range(0..100_000)]).collect());
    // 90% of d3.val inside the predicate's range, the rest far outside it.
    let skewed = |i, rng: &mut SplitMix64| match i < dim_rows * 9 / 10 {
        true => rng.random_range(0..=10),
        false => rng.random_range(10_000..100_000),
    };
    load("d3", (0..dim_rows).map(|i| vec![i, skewed(i, &mut rng)]).collect());
    load("hdr", (0..hdr_rows).map(|i| vec![i, rng.random_range(0..dim_rows)]).collect());
    let fact_row = |i, rng: &mut SplitMix64| {
        let amount = rng.random_range(0..1_000_000);
        vec![i, amount, rng.random_range(0..hdr_rows), rng.random_range(0..dim_rows)]
    };
    load("fact", (0..fact_rows).map(|i| fact_row(i, &mut rng)).collect());
    let sql = "select f.f_id, f.amount, d3.val as v3 from fact f \
               join hdr on f.hdr_id = hdr.id join cust on hdr.cust_id = cust.id \
               join d3 on f.fk3 = d3.id where d3.val <= 10 and cust.val < 1000";
    (db, sql)
}

/// The live feedback loop, end to end, and EXPLAIN on top of it: the
/// second query re-optimizes from the first one's observed cardinalities
/// and moves the plan digest; EXPLAIN then shows the plan the next query
/// runs — the re-optimized one, not a cold optimize.
#[test]
fn explain_shows_the_reoptimized_plan_the_next_query_runs() {
    use vdm_obs::{names, MetricsRegistry};
    use vdm_plan::plan_digest_canonical;

    let (db, sql) = skewed_erp_db();
    let reoptimizations = || MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    let first = db.query(sql).unwrap();
    let cold = ran_digest(db.last_trace());

    let before = reoptimizations();
    let second = db.query(sql).unwrap();
    let trace = db.last_trace().expect("a traced query");
    assert_eq!(trace.spans.iter().filter(|s| s.name == "reoptimize").count(), 1, "{trace:?}");
    assert!(reoptimizations() > before);
    let corrected = ran_digest(Some(trace));
    assert_ne!(corrected, cold, "the re-optimization must move the plan");
    assert_eq!(first.num_rows(), second.num_rows());

    let explained = explained_plan(&db.explain(sql).unwrap());
    db.query(sql).unwrap();
    let third = ran_digest(db.last_trace());
    assert_eq!(third, corrected, "the loop settles on the corrected plan");
    let plan = db.optimized_plan(sql).unwrap();
    assert_eq!(plan_digest_canonical(&plan), third);
    assert_eq!(explained, skeleton(&vdm_plan::explain(&plan)), "EXPLAIN shows what runs");
}
