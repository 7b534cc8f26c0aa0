//! Integration tests for the `vdm-serve` serving layer: plan-cache
//! invalidation (digest-asserted against cold optimizes), concurrent
//! session equivalence on the Fig. 3 browser, and prepared-statement
//! parameter handling.

use vdm_core::{CacheOutcome, Database, QueryEnv};
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_exec::ParallelConfig;
use vdm_optimizer::Profile;
use vdm_plan::plan_digest_canonical;
use vdm_serve::Server;
use vdm_sql::Statement;
use vdm_types::Value;

fn select_of(sql: &str) -> vdm_sql::SelectStmt {
    let (stmt, _) = vdm_sql::parse_one_with_params(sql).expect("parse");
    match stmt {
        Statement::Select(sel) => sel,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// Binds and optimizes `sql` from scratch — no cache anywhere — and
/// returns the plan digest. This is the reference every cached plan must
/// match bit-for-bit.
fn cold_digest(db: &Database, sql: &str, params: &[Value]) -> u64 {
    let sel = select_of(sql);
    let types = vdm_core::param_types_of(params);
    let bound = db.state().binder().with_param_types(&types).bind_select(&sel).expect("bind");
    let stats = vdm_core::EngineStats::new(db.engine());
    let (plan, _) =
        db.state().optimizer.optimize_traced_with(&bound, Some(&stats), None).expect("optimize");
    plan_digest_canonical(&plan)
}

/// Resolves `sql` through the session path's plan cache and reports
/// (digest, hit-or-miss).
fn cached_digest(db: &Database, sql: &str, params: &[Value]) -> (u64, CacheOutcome) {
    let sel = select_of(sql);
    let shape = vdm_sql::canonical_shape(sql).expect("shape");
    let env = QueryEnv {
        state: db.state(),
        engine: db.engine(),
        plan_cache: db.plan_cache(),
        parallel: ParallelConfig::default(),
    };
    let resolved = env.select_plan(&sel, Some(&shape), params).expect("plan");
    (plan_digest_canonical(&resolved.plan), resolved.outcome)
}

#[test]
fn prepared_plans_reoptimize_after_invalidation_and_match_cold_optimize() {
    let mut db = Database::new(Profile::hana());
    db.execute("create table t (k bigint primary key, v text not null)").unwrap();
    let sql = "select v from t where k = ?";
    let params = [Value::Int(1)];

    // Cold fill, then steady-state hit; the cached plan IS the cold plan.
    let (d1, o1) = cached_digest(&db, sql, &params);
    assert_eq!(o1, CacheOutcome::Miss);
    assert_eq!(d1, cold_digest(&db, sql, &params));
    let (d2, o2) = cached_digest(&db, sql, &params);
    assert_eq!((d2, o2), (d1, CacheOutcome::Hit));

    // CREATE TABLE bumps the metadata version: the next lookup must
    // re-optimize, and the re-optimized plan must equal a cold optimize.
    db.execute("create table audit_log (id bigint primary key)").unwrap();
    let (d3, o3) = cached_digest(&db, sql, &params);
    assert_eq!(o3, CacheOutcome::Miss, "CREATE TABLE must invalidate");
    assert_eq!(d3, cold_digest(&db, sql, &params));

    // DROP invalidates the same way.
    db.execute("drop table audit_log").unwrap();
    let (d4, o4) = cached_digest(&db, sql, &params);
    assert_eq!(o4, CacheOutcome::Miss, "DROP TABLE must invalidate");
    assert_eq!(d4, cold_digest(&db, sql, &params));

    // Registering a (plan-level) view is DDL too.
    let view_plan = db.state().binder().bind_select(&select_of("select k from t")).unwrap();
    db.register_view("t_keys", view_plan).unwrap();
    let (d5, o5) = cached_digest(&db, sql, &params);
    assert_eq!(o5, CacheOutcome::Miss, "view registration must invalidate");
    assert_eq!(d5, cold_digest(&db, sql, &params));

    // A profile switch changes the cache key, so the statement
    // re-optimizes under the new capability set...
    db.set_profile(Profile::postgres());
    let (d6, o6) = cached_digest(&db, sql, &params);
    assert_eq!(o6, CacheOutcome::Miss, "profile switch must re-optimize");
    assert_eq!(d6, cold_digest(&db, sql, &params));
    // ...and switching back revalidates the old entry instead of paying a
    // third optimize.
    db.set_profile(Profile::hana());
    let (d7, o7) = cached_digest(&db, sql, &params);
    assert_eq!((d7, o7), (d5, CacheOutcome::Hit));
}

#[test]
fn server_sessions_observe_invalidation() {
    let server = Server::new(Profile::hana());
    let session = server.session();
    session
        .execute_script(
            "create table t (k bigint primary key, v text not null);
             insert into t values (1, 'one'), (2, 'two');",
        )
        .unwrap();
    let p = session.prepare("select v from t where k = ?").unwrap();

    let stats = |server: &Server| server.plan_cache().stats();
    let s0 = stats(&server);
    p.execute(&[Value::Int(1)]).unwrap();
    p.execute(&[Value::Int(2)]).unwrap();
    let s1 = stats(&server);
    assert_eq!((s1.misses - s0.misses, s1.hits - s0.hits), (1, 1));

    // DDL from another session invalidates the prepared plan.
    server.session().execute("create table u (k bigint primary key)").unwrap();
    p.execute(&[Value::Int(1)]).unwrap();
    let s2 = stats(&server);
    assert_eq!(s2.misses - s1.misses, 1, "prepared statement must re-optimize after DDL");

    // Profile switches re-optimize; switching back re-uses the old entry.
    server.set_profile(Profile::postgres());
    p.execute(&[Value::Int(1)]).unwrap();
    let s3 = stats(&server);
    assert_eq!(s3.misses - s2.misses, 1, "profile switch must re-optimize");
    server.set_profile(Profile::hana());
    p.execute(&[Value::Int(1)]).unwrap();
    let s4 = stats(&server);
    assert_eq!(s4.hits - s3.hits, 1, "switching back must revalidate the cached plan");
}

/// ERP server with the Fig. 3 browser registered as a queryable view.
fn browser_server(journal_rows: usize) -> Server {
    let mut db = Database::new(Profile::hana());
    let erp = Erp { journal_rows, seed: 4711 };
    let (catalog, engine) = db.catalog_and_engine();
    let schema = erp.build(catalog, engine).expect("ERP generation");
    db.invalidate_plans();
    let browser = journal_entry_item_browser(&schema).expect("browser view");
    db.register_view("journal_entry_item_browser", browser.protected.clone()).unwrap();
    Server::from_database(db)
}

const BROWSER_QUERIES: [&str; 3] = [
    "select AccountingDocument, LineItem, Ledger, PostingDate, AmountInCompanyCodeCurrency, \
     SupplierName, CustomerName from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? \
     order by AccountingDocument, LineItem, Ledger limit 50",
    "select LineItem, Ledger, AmountInCompanyCodeCurrency, DebitCreditCode, CompanyName \
     from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? and AccountingDocument = ? \
     order by LineItem, Ledger",
    "select FiscalYear, count(*) as n from journal_entry_item_browser \
     where CompanyCode = ? group by FiscalYear order by FiscalYear",
];

fn browser_params(shape: usize, company: i64) -> Vec<Value> {
    match shape {
        0 => vec![Value::Int(company), Value::Int(2024)],
        1 => vec![Value::Int(company), Value::Int(2024), Value::Int(company * 7 + 1)],
        _ => vec![Value::Int(company)],
    }
}

/// One full pass over the browser workload: every shape × companies 1..=4,
/// rows rendered for comparison.
fn browser_workload(session: &vdm_serve::Session) -> Vec<Vec<Vec<Value>>> {
    let prepared: Vec<_> =
        BROWSER_QUERIES.iter().map(|sql| session.prepare(sql).expect("prepare")).collect();
    let mut out = Vec::new();
    for company in 1..=4 {
        for (shape, p) in prepared.iter().enumerate() {
            let batch = p.execute(&browser_params(shape, company)).expect("browser query");
            out.push(batch.to_rows());
        }
    }
    out
}

#[test]
fn concurrent_sessions_match_serial_browser_results() {
    let server = browser_server(600);
    // Serial reference, one session.
    let reference = browser_workload(&server.session());
    assert!(
        reference.iter().any(|rows| !rows.is_empty()),
        "reference workload returned no rows at all"
    );
    // Six sessions run the identical workload concurrently; every one must
    // be bit-identical to the serial pass.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let session = server.session();
                scope.spawn(move || browser_workload(&session))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("session thread"), reference);
        }
    });
    // The repeated shapes were served from the plan cache.
    let stats = server.plan_cache().stats();
    assert!(stats.hits > stats.misses * 5, "expected overwhelmingly cache hits, got {stats:?}");
}

#[test]
fn concurrent_dcv_reads_see_consistent_snapshots() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use vdm_cache::CacheMode;

    // Invariant: every committed state of `t` holds rows (k, 3k) for k in
    // a contiguous range with multiple-of-100 bounds (each write is one
    // 100-row batch). A reader observing anything else saw a torn batch.
    let mut db = Database::hana();
    db.execute_script("create table t (k bigint primary key, v bigint not null);").unwrap();
    let seed: Vec<Vec<Value>> = (0..100).map(|k| vec![Value::Int(k), Value::Int(k * 3)]).collect();
    db.engine().insert("t", seed).unwrap();
    let server = Server::from_database(db);
    server
        .create_cached_view("live", "select k, v from t where v >= 0", CacheMode::Dynamic)
        .unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let session = server.session();
                let done = &done;
                scope.spawn(move || {
                    let mut reads = 0usize;
                    while !done.load(Ordering::Relaxed) || reads == 0 {
                        let batch = session.read_cached("live").expect("read");
                        let mut keys: Vec<i64> = Vec::with_capacity(batch.num_rows());
                        for i in 0..batch.num_rows() {
                            let row = batch.row(i);
                            let (Value::Int(k), Value::Int(v)) = (row[0].clone(), row[1].clone())
                            else {
                                panic!("unexpected row {row:?}")
                            };
                            assert_eq!(v, k * 3, "torn row: {row:?}");
                            keys.push(k);
                        }
                        keys.sort_unstable();
                        let lo = *keys.first().expect("view is never empty");
                        let hi = *keys.last().unwrap() + 1;
                        assert_eq!(keys.len() as i64, hi - lo, "non-contiguous keys: torn batch");
                        assert_eq!(lo % 100, 0, "partial batch visible at lo={lo}");
                        assert_eq!(hi % 100, 0, "partial batch visible at hi={hi}");
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        // Writer: grow by five 100-row batches, then trim three off the
        // front — inserts append, deletes retract, all while readers
        // maintain the DCV concurrently.
        for phase in 1..=5i64 {
            let rows: Vec<Vec<Value>> = (phase * 100..(phase + 1) * 100)
                .map(|k| vec![Value::Int(k), Value::Int(k * 3)])
                .collect();
            server.engine().insert("t", rows).unwrap();
        }
        for phase in 0..3i64 {
            let (lo, hi) = (phase * 100, phase * 100 + 100);
            server
                .engine()
                .delete_where("t", &|r| matches!(r[0], Value::Int(k) if k >= lo && k < hi))
                .unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for h in readers {
            assert!(h.join().expect("reader thread") > 0);
        }
    });

    // Final state: exactly keys 300..600, reached without a full refresh.
    let batch = server.session().read_cached("live").unwrap();
    assert_eq!(batch.num_rows(), 300);
    let stats = server.cached_view("live").unwrap().stats();
    assert!(stats.incremental_refreshes > 0, "{stats:?}");
    assert_eq!(stats.full_refreshes, 1, "only the registration materialization: {stats:?}");
}

#[test]
fn prepared_parameter_handling() {
    let server = Server::new(Profile::hana());
    let session = server.session();
    session
        .execute_script(
            "create table t (k bigint primary key, v text not null);
             insert into t values (1, 'one'), (2, 'two'), (3, 'three');",
        )
        .unwrap();

    // `?` and `$1` lex to the same canonical shape and share a plan.
    let s0 = server.plan_cache().stats();
    session.query_with_params("select v from t where k = ?", &[Value::Int(1)]).unwrap();
    session.query_with_params("select v from t where k = $1", &[Value::Int(1)]).unwrap();
    let s1 = server.plan_cache().stats();
    assert_eq!((s1.misses - s0.misses, s1.hits - s0.hits), (1, 1));

    // Text parameters bind with their own type signature.
    let by_name = session.prepare("select k from t where v = ?").unwrap();
    let rows = by_name.execute(&[Value::str("two")]).unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(2));

    // NULL parameters are legal and match nothing under `=`.
    let by_key = session.prepare("select v from t where k = ?").unwrap();
    assert_eq!(by_key.execute(&[Value::Null]).unwrap().num_rows(), 0);

    // Arity is checked before binding.
    let err = by_key.execute(&[]).unwrap_err();
    assert!(err.to_string().contains("expects 1 parameter"), "{err}");

    // Preparing non-SELECT statements is rejected.
    assert!(session.prepare("create table u (k bigint primary key)").is_err());
    assert!(session.query("drop table t").is_err());
}

/// `Database` and `Server` are two handles on one runtime: a query whose
/// waves reach the dispatch floor is broadcast on the same pool from
/// either handle, and reports the same workers.
#[test]
fn a_dispatched_query_reports_the_same_workers_from_either_handle() {
    let mut db = Database::new(Profile::hana());
    db.set_parallelism(ParallelConfig { threads: 2, morsel_rows: 8 });
    db.execute("create table t (k bigint primary key, g bigint not null)").unwrap();
    // 50 morsels of 8 rows: past the 16-morsel dispatch floor.
    let rows = (0..400).map(|k| vec![Value::Int(k), Value::Int(k % 7)]).collect();
    db.engine().insert("t", rows).unwrap();
    let sql = "select g, count(*) as n from t group by g";
    let workers = |trace: Option<vdm_obs::QueryTrace>| {
        let trace = trace.expect("a traced query");
        let execute = trace.spans.iter().find(|s| s.name == "execute").expect("execute span");
        execute.attr("workers").expect("workers attr").to_string()
    };
    let dispatched = |text: String| -> u64 {
        text.split("dispatched: ").nth(1).expect("summary").trim().parse().expect("a count")
    };

    assert_eq!(db.query(sql).unwrap().num_rows(), 7);
    let from_database = workers(db.last_trace());
    assert!(dispatched(db.explain_analyze(sql).unwrap()) > 0, "the Database query dispatched");

    let server = Server::from_database(db);
    let session = server.session();
    let (rows, trace) = session.with_trace("query", |s| s.query(sql).unwrap());
    assert_eq!(rows.num_rows(), 7);
    assert_eq!(workers(trace), from_database);
    assert!(dispatched(session.explain_analyze(sql).unwrap()) > 0, "the Session query dispatched");
}
