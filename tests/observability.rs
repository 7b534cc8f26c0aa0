//! Query-lifecycle observability end-to-end: golden `EXPLAIN` /
//! `EXPLAIN ANALYZE` renderings on the paper's Fig. 5 (unused
//! augmentation join) and Fig. 8 (augmenter self-join) shapes, rewrite
//! trace assertions, and the metrics registry's exporters.
//!
//! Golden files live in `tests/golden/`. Timing tokens (`time=...`),
//! scan instance ids (`(inst N)`, a process-global counter), and the
//! scheduling-dependent `calls=` annotation (morsel claim boundaries
//! shift run-to-run with which worker claims what) are masked by [`normalize`], and
//! the ` workers=N` annotation is dropped whole (its *presence* depends on
//! which worker claimed the second morsel), so the files are stable
//! across runs and test orderings.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test observability`.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use vdm_core::{Database, ParallelConfig, StatementResult};

/// Serializes this binary's tests: the metrics registry is process-wide,
/// every test here runs queries, and two of them assert exact counter
/// deltas.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Masks `pat<token>` runs: every char after `pat` until `stop` becomes `_`.
fn mask_after(s: &str, pat: &str, stop: impl Fn(char) -> bool) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find(pat) {
        let end = i + pat.len();
        out.push_str(&rest[..end]);
        out.push('_');
        let tail = &rest[end..];
        let j = tail.find(&stop).unwrap_or(tail.len());
        rest = &tail[j..];
    }
    out.push_str(rest);
    out
}

/// Normalizes run-dependent tokens out of EXPLAIN-family output. The
/// `[optimize ...]` header line is dropped wholesale: it is pure timing +
/// cache telemetry (asserted separately), and keeping it out of the golden
/// files keeps them byte-identical across optimizer-internals changes.
fn normalize(text: &str) -> String {
    let text: String =
        text.lines().filter(|l| !l.starts_with("[optimize ")).flat_map(|l| [l, "\n"]).collect();
    let masked = mask_after(&text, "(inst ", |c: char| !c.is_ascii_digit());
    let masked = mask_after(&masked, "time=", |c: char| c.is_whitespace() || c == ']');
    let masked = mask_after(&masked, "calls=", |c: char| !c.is_ascii_digit());
    mask_after(&masked, " workers=", |c: char| !c.is_ascii_digit()).replace(" workers=_", "")
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let actual = normalize(actual);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}

/// Tiny deterministic orders/customer world, executed serially so profile
/// invocation counts are stable.
fn db() -> Database {
    let mut db = Database::hana();
    db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 1024 });
    db.execute_script(
        "create table customer (c_custkey bigint primary key, c_name text not null);
         create table orders (o_orderkey bigint primary key, o_custkey bigint not null,
                              o_total decimal(10,2) not null);
         insert into customer values (1, 'alice'), (2, 'bob');
         insert into orders values (10, 1, 5.00), (11, 1, 2.50), (12, 2, 9.99);",
    )
    .unwrap();
    db
}

/// Table 1 / Fig. 5: a LEFT OUTER augmentation join whose augmenter is
/// never referenced — the UAJ-removal shape.
const FIG5_UAJ: &str = "select o_orderkey from orders left join customer on o_custkey = c_custkey";

/// Fig. 8: the augmenter self-join an unfolded VDM view produces — the
/// anchor LEFT JOINs a second instance of itself on the primary key and
/// reads an augmenter-side column.
const FIG8_ASJ: &str = "select c.c_custkey, c2.c_name from customer c \
                        left join customer c2 on c.c_custkey = c2.c_custkey";

#[test]
fn golden_explain_fig5_uaj() {
    let _serial = serial();
    let db = db();
    assert_golden("explain_fig5_uaj.txt", &db.explain(FIG5_UAJ).unwrap());
}

#[test]
fn golden_explain_analyze_fig5_uaj() {
    let _serial = serial();
    let db = db();
    let text = db.explain_analyze(FIG5_UAJ).unwrap();
    // Per-node estimated/actual cardinalities and the fired rewrite must
    // be visible.
    assert!(text.contains("est=3 act=3"), "{text}");
    assert!(text.contains("time="), "{text}");
    assert!(text.contains("uaj-removal"), "{text}");
    // The header reports optimize time + property-cache effectiveness.
    assert!(text.contains("[optimize time="), "{text}");
    assert!(text.contains("property cache:"), "{text}");
    assert!(text.contains("hit rate]"), "{text}");
    assert_golden("explain_analyze_fig5_uaj.txt", &text);
}

#[test]
fn golden_explain_analyze_fig8_asj() {
    let _serial = serial();
    let mut db = db();
    // Through the SQL surface, as a user would type it.
    let StatementResult::Explained(text) =
        db.execute(&format!("explain analyze {FIG8_ASJ}")).unwrap()
    else {
        panic!("expected EXPLAIN ANALYZE output")
    };
    assert!(text.contains("asj-elimination"), "{text}");
    assert_golden("explain_analyze_fig8_asj.txt", &text);
}

#[test]
fn golden_explain_analyze_parallel_column_map_projection() {
    let _serial = serial();
    let mut db = db();
    // Parallel execution with tiny morsels: the pure column-map projection
    // (rename + reorder only) takes the fused column-mapping kernel path,
    // and the node must still report its own row count in the rendering.
    // The optimizer's cleanup collapses *stacked* pure projections at plan
    // time, so the single surviving column map is the shape the SQL
    // surface hands the executor; deeper exec-time chains (unoptimized
    // plans) are covered by the parallel-equivalence profile assertions.
    // Two threads: the header reports workers actually used, and two is
    // what every host dispatches for `threads: 2`.
    db.set_parallelism(ParallelConfig { threads: 2, morsel_rows: 2 });
    let text = db
        .explain_analyze(
            "select okey, cname from \
               (select c_name as cname, o_orderkey as okey from \
                 (select o_orderkey, c_name from orders \
                    join customer on o_custkey = c_custkey) t) t2",
        )
        .unwrap();
    let project_lines: Vec<&str> = text.lines().filter(|l| l.contains("Project")).collect();
    assert!(!project_lines.is_empty(), "expected a projection:\n{text}");
    for line in &project_lines {
        assert!(line.contains("act=3"), "fused node lost its row count: {line:?}\n{text}");
    }
    assert_golden("explain_analyze_parallel_column_map.txt", &text);
}

#[test]
fn uaj_trace_names_the_rule_exactly_once() {
    let _serial = serial();
    let db = db();
    let plan = db.plan(FIG5_UAJ).unwrap();
    let (optimized, trace) = db.optimizer().optimize_traced_with(&plan, None, None).unwrap();
    assert_eq!(vdm_plan::plan_stats(&optimized).joins, 0, "UAJ must be removed");
    let uaj_events: Vec<_> = trace.events.iter().filter(|e| e.rule == "uaj-removal").collect();
    assert_eq!(
        uaj_events.len(),
        1,
        "Table 1 query must fire uaj-removal exactly once: {:#?}",
        trace.events
    );
    let e = uaj_events[0];
    assert!(e.node_id.is_some(), "event carries a plan-node id: {e:?}");
    assert!(e.evidence.contains("AJ"), "evidence cites the AJ case: {e:?}");
    assert_eq!(trace.hit_counts().get("uaj-removal"), Some(&1));
}

#[test]
fn registry_exports_prometheus_and_json_with_uaj_hits() {
    let _serial = serial();
    let db = db();
    let rule = vdm_obs::registry::label("vdm_rewrite_fired_total", "rule", "uaj-removal");
    let reg = db.metrics();
    let queries_before = reg.counter("vdm_queries_total");
    let uaj_before = reg.counter(&rule);

    let rows = db.query(FIG5_UAJ).unwrap();
    assert_eq!(rows.num_rows(), 3);

    // Counters moved (the registry is process-global, so compare deltas).
    assert_eq!(reg.counter("vdm_queries_total"), queries_before + 1);
    assert!(reg.counter(&rule) > uaj_before);

    let prom = reg.to_prometheus();
    assert!(prom.contains("# TYPE vdm_queries_total counter"), "{prom}");
    assert!(prom.contains("vdm_rewrite_fired_total{rule=\"uaj-removal\"}"), "{prom}");
    assert!(prom.contains("vdm_query_seconds_bucket{le=\"+Inf\"}"), "{prom}");
    assert!(prom.contains("vdm_query_seconds_count"), "{prom}");
    assert!(prom.contains("vdm_rows_scanned_total"), "{prom}");

    let json = reg.to_json();
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced JSON: {json}");
    assert!(json.contains("\"vdm_queries_total\""), "{json}");
    // Embedded label quotes arrive JSON-escaped inside the key string.
    assert!(json.contains("vdm_rewrite_fired_total{rule=\\\"uaj-removal\\\"}"), "{json}");
}

/// A plan-cache hit ran no optimizer: it must not replay the cached trace
/// into `vdm_optimize_seconds` / `vdm_rewrite_fired_total`.
#[test]
fn plan_cache_hits_report_no_optimization() {
    let _serial = serial();
    let server = vdm_serve::Server::from_database(db());
    let session = server.session();
    let prepared = session.prepare(&format!("{FIG5_UAJ} where o_orderkey > ?")).unwrap();
    let rule = vdm_obs::registry::label("vdm_rewrite_fired_total", "rule", "uaj-removal");
    let reg = vdm_obs::MetricsRegistry::global();
    let optimizations = || reg.histogram("vdm_optimize_seconds").map_or(0, |h| h.count());
    let before = (reg.counter("vdm_queries_total"), reg.counter(&rule), optimizations());
    // One miss fills the cache, three hits read it.
    for _ in 0..4 {
        assert_eq!(prepared.execute(&[vdm_types::Value::Int(10)]).unwrap().num_rows(), 2);
    }
    assert_eq!(reg.counter("vdm_queries_total"), before.0 + 4);
    assert_eq!(reg.counter(&rule), before.1 + 1, "uaj-removal fired in one optimization");
    assert_eq!(optimizations(), before.2 + 1);
}

#[test]
fn golden_explain_analyze_cached_view_header() {
    let _serial = serial();
    let mut db = db();
    db.create_cached_view(
        "cust_orders",
        "select o_orderkey, c_name from orders join customer on o_custkey = c_custkey",
        vdm_core::CacheMode::Dynamic,
    )
    .unwrap();
    // Unchanged dependencies: served as-is.
    let fresh = db.explain_analyze_cached("cust_orders").unwrap();
    assert!(fresh.contains("[view cache: fresh]"), "{fresh}");
    // One inserted order joins one customer: a 1-row signed delta.
    db.execute("insert into orders values (13, 2, 1.00)").unwrap();
    let text = db.explain_analyze_cached("cust_orders").unwrap();
    assert!(text.contains("[view cache: incremental(+1 rows)]"), "{text}");
    assert_golden("explain_analyze_cached_view.txt", &text);

    // An ORDER BY view is full-only: any change recomputes.
    db.create_cached_view(
        "ordered",
        "select o_orderkey from orders order by o_orderkey desc",
        vdm_core::CacheMode::Dynamic,
    )
    .unwrap();
    db.execute("insert into orders values (14, 1, 2.00)").unwrap();
    let full = db.explain_analyze_cached("ordered").unwrap();
    assert!(full.contains("[view cache: full refresh]"), "{full}");
}

#[test]
fn view_refresh_metrics_are_exported() {
    let _serial = serial();
    let mut db = db();
    let reg = db.metrics();
    let full = vdm_obs::registry::label("vdm_view_refresh_total", "kind", "full");
    let incr = vdm_obs::registry::label("vdm_view_refresh_total", "kind", "incremental");
    let noop = vdm_obs::registry::label("vdm_view_refresh_total", "kind", "noop");
    let full0 = reg.counter(&full);
    let incr0 = reg.counter(&incr);
    let noop0 = reg.counter(&noop);
    let delta0 = reg.counter("vdm_view_delta_rows_total");

    db.create_cached_view("vm", "select o_orderkey from orders", vdm_core::CacheMode::Dynamic)
        .unwrap();
    assert_eq!(reg.counter(&full), full0 + 1, "registration materializes in full");
    db.read_cached("vm").unwrap();
    assert_eq!(reg.counter(&noop), noop0 + 1, "unchanged deps are a no-op");
    db.execute("insert into orders values (30, 1, 3.00)").unwrap();
    db.read_cached("vm").unwrap();
    assert_eq!(reg.counter(&incr), incr0 + 1);
    assert_eq!(reg.counter("vdm_view_delta_rows_total"), delta0 + 1);

    let prom = reg.to_prometheus();
    assert!(prom.contains("vdm_view_refresh_total{kind=\"incremental\"}"), "{prom}");
    assert!(prom.contains("vdm_view_refresh_total{kind=\"full\"}"), "{prom}");
    assert!(prom.contains("vdm_view_refresh_seconds_bucket{le=\"+Inf\"}"), "{prom}");
    assert!(prom.contains("vdm_view_delta_rows_total"), "{prom}");
}

/// Masks a trace into its stable skeleton: indentation from parent depth,
/// span names, attr keys in insertion order. Attr *values* are masked to
/// `_` except the categorical ones (`outcome`, `view`, `cache`), so the
/// expected string is byte-stable across runs while still pinning the
/// causal structure.
fn trace_skeleton(trace: &vdm_obs::QueryTrace) -> String {
    let mut out = String::new();
    for s in &trace.spans {
        let mut depth = 0;
        let mut p = s.parent;
        while let Some(id) = p {
            depth += 1;
            p = trace.spans[id as usize].parent;
        }
        out.push_str(&"  ".repeat(depth));
        out.push_str(&s.name);
        for (k, v) in &s.attrs {
            match k.as_str() {
                "outcome" | "view" | "cache" => out.push_str(&format!(" {k}={v}")),
                _ => out.push_str(&format!(" {k}=_")),
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn serve_query_trace_forms_one_causal_tree() {
    let _serial = serial();
    use vdm_cache::CacheMode;
    use vdm_serve::Server;

    let mut db = Database::hana();
    db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 1024 });
    db.execute_script(
        "create table a (id bigint primary key, v text not null);
         create table b (id bigint primary key, a_id bigint not null, w bigint not null);
         create table c (id bigint primary key, b_id bigint not null, x bigint not null);
         insert into a values (1, 'one'), (2, 'two');
         insert into b values (10, 1, 100), (11, 2, 200);
         insert into c values (20, 10, 7), (21, 11, 9);",
    )
    .unwrap();
    let server = Server::from_database(db);
    server
        .create_cached_view("live_b", "select id, w from b where w >= 0", CacheMode::Dynamic)
        .unwrap();
    let session = server.session();

    // One multi-join page query plus a DCV read, scooped into one scope:
    // the whole lifecycle must land in a single causally-linked tree.
    let sql = "select a.v, b.w, c.x from a \
               join b on b.a_id = a.id join c on c.b_id = b.id where a.id = 1";
    let (_, trace) = session.with_trace("browser_page", |s| {
        assert_eq!(s.query(sql).unwrap().num_rows(), 1);
        assert_eq!(s.read_cached("live_b").unwrap().num_rows(), 2);
    });
    let trace = trace.expect("with_trace owns the trace");

    // The optimize span carries the per-pass split: one attribute per pass
    // that ran, in order (one round — nothing fires after the pushdown).
    let passes: String = [
        "constant folding",
        "filter pushdown",
        "ASJ elimination",
        "pruning + UAJ elimination",
        "limit pushdown",
        "precision-loss interchange",
        "eager aggregation",
        "distinct removal",
        "scan lowering",
        "join ordering",
        "cleanup",
    ]
    .iter()
    .map(|pass| format!(" r0[{pass}]=_"))
    .collect();
    assert_eq!(
        trace_skeleton(&trace),
        format!(
            "browser_page\n\
             \x20 query session=_ shape=_\n\
             \x20   select_plan digest=_\n\
             \x20     plan_cache.lookup outcome=miss\n\
             \x20     bind\n\
             \x20     optimize{passes}\n\
             \x20   execute rows=_ workers=_\n\
             \x20 view.maintain view=live_b outcome=noop\n"
        ),
        "unexpected trace shape:\n{}",
        trace.render()
    );
    let optimize = trace.spans.iter().find(|s| s.name == "optimize").unwrap();
    let pushdown = optimize.attr("r0[filter pushdown]").unwrap();
    assert!(pushdown.ends_with("us*"), "the pushdown changed the plan: {pushdown}");
    assert!(optimize.attr("r0[cleanup]").unwrap().ends_with("us"), "cleanup did not");

    // Exactly one root; every other span is causally linked to it.
    assert_eq!(trace.spans[0].parent, None);
    assert!(trace.spans.iter().skip(1).all(|s| s.parent.is_some()));
    // The rendering and the JSON export carry the same tree.
    let text = trace.render();
    assert!(text.starts_with("trace "), "{text}");
    assert!(text.contains("└─ browser_page"), "{text}");
    assert!(text.contains("├─ query"), "{text}");
    let json = trace.to_json();
    assert!(json.contains("\"name\": \"plan_cache.lookup\""), "{json}");
    // The server keeps the finished trace for post-hoc inspection.
    assert_eq!(server.last_trace().unwrap().trace_id, trace.trace_id);

    // A second run of the same shape is a plan-cache hit, and the hit
    // path resolves without bind/optimize spans.
    let (_, trace) = session.with_trace("browser_page", |s| {
        s.query(sql).unwrap();
    });
    let skeleton = trace_skeleton(&trace.unwrap());
    assert!(skeleton.contains("plan_cache.lookup outcome=hit"), "{skeleton}");
    assert!(!skeleton.contains("optimize"), "hit must not re-plan: {skeleton}");
}

/// A static view's periodic tick is the maintenance a dynamic read runs: one
/// incremental `view.maintain`, and a MIN/MAX group that lost its extreme is
/// rebuilt under it (`view.rebuild_groups`).
#[test]
fn static_refresh_is_an_incremental_maintain() {
    let _serial = serial();
    let mut db = Database::hana();
    db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 1024 });
    db.execute_script(
        "create table b (id bigint primary key, a_id bigint not null, w bigint not null);
         insert into b values (10, 1, 100), (11, 1, 200), (12, 2, 300);",
    )
    .unwrap();
    let server = vdm_serve::Server::from_database(db);
    let sql = "select a_id, max(w) as top from b group by a_id";
    server.create_cached_view("top_b", sql, vdm_cache::CacheMode::Static).unwrap();
    server.engine().delete_where("b", &|r| r[0] == vdm_types::Value::Int(11)).unwrap();
    let session = server.session();
    let (ticked, trace) = session.with_trace("tick", |_| server.refresh_cached_views());
    assert_eq!(ticked.unwrap(), 1);
    assert_eq!(
        trace_skeleton(&trace.unwrap()),
        "tick\n\
         \x20 view.maintain view=top_b outcome=incremental delta_rows=_\n\
         \x20   view.rebuild_groups groups=_ rows=_\n"
    );
    let rows = session.read_cached("top_b").unwrap();
    assert_eq!(
        vdm_cache::multiset_digest(&rows),
        vdm_cache::multiset_digest(&session.query(sql).unwrap())
    );
}

/// EXPLAIN ANALYZE is one path whether it arrives as SQL text through
/// `Session::execute` or through `Session::explain_analyze`: same
/// rendering, and both are admitted like any read (queue-wait histogram),
/// not run under the DDL write lock.
#[test]
fn serve_explain_analyze_is_one_path_from_sql_and_api() {
    let _serial = serial();
    use vdm_obs::names::QUEUE_WAIT_SECONDS;

    let mut db = db();
    db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 1024 });
    let server = vdm_serve::Server::from_database(db);
    let session = server.session();
    session.query(FIG8_ASJ).unwrap(); // prime the plan cache: both runs below are hits

    let reg = server.metrics();
    let admitted = || reg.histogram(QUEUE_WAIT_SECONDS).map_or(0, |h| h.count());
    let before = admitted();
    let api = session.explain_analyze(FIG8_ASJ).unwrap();
    assert_eq!(admitted(), before + 1, "explain_analyze() is admitted like a query");
    let sql = session.execute(&format!("explain analyze {FIG8_ASJ}")).unwrap().explained().unwrap();
    assert_eq!(admitted(), before + 2, "SQL EXPLAIN ANALYZE is admitted like a query");
    assert!(api.contains("[plan cache: hit]"), "{api}");
    assert_eq!(normalize(&sql), normalize(&api));
}

#[test]
fn explain_trace_statement_renders_the_span_tree() {
    let _serial = serial();
    let mut db = db();
    let StatementResult::Explained(text) =
        db.execute(&format!("explain trace {FIG5_UAJ}")).unwrap()
    else {
        panic!("expected EXPLAIN TRACE output")
    };
    assert!(text.contains("== EXPLAIN TRACE =="), "{text}");
    assert!(text.contains("└─ query"), "{text}");
    assert!(text.contains("select_plan"), "{text}");
    assert!(text.contains("execute"), "{text}");
    assert!(text.contains("row(s) returned"), "{text}");
    // An asked-for trace carries the optimizer's per-pass split (`*`: the
    // UAJ removal changed the plan); a plain query's trace does not pay for it.
    assert!(text.contains(" r0[pruning + UAJ elimination]="), "{text}");
    assert!(text.contains("us* r0[limit pushdown]="), "{text}");
    db.query(FIG8_ASJ).unwrap();
    let plain = db.last_trace().expect("automatic tracing is on");
    let optimize = plain.spans.iter().find(|s| s.name == "optimize").expect("a cold plan");
    assert!(optimize.attrs.is_empty(), "{optimize:?}");

    // The facade method also stores the trace object for export.
    db.explain_trace(FIG5_UAJ).unwrap();
    let trace = db.last_trace().expect("EXPLAIN TRACE stores the trace");
    assert!(trace.spans.iter().any(|s| s.name == "execute"), "{trace:?}");

    // EXPLAIN TRACE works even with automatic tracing off.
    vdm_obs::trace::set_enabled(false);
    let forced = db.explain_trace(FIG5_UAJ).unwrap();
    vdm_obs::trace::set_enabled(true);
    assert!(forced.contains("└─ query"), "{forced}");
}

#[test]
fn metric_catalog_covers_every_registered_metric() {
    let _serial = serial();
    use vdm_cache::CacheMode;
    use vdm_obs::{names, QueryStore};
    use vdm_serve::Server;
    use vdm_types::Value;

    // Drive every subsystem that registers metrics: queries (counters +
    // histograms), prepared statements and sessions (gauges), plan cache,
    // cached views, the query store, and slow-query capture.
    let server = Server::new(vdm_optimizer::Profile::hana());
    let session = server.session();
    session
        .execute_script(
            "create table m (k bigint primary key, v bigint not null);
             insert into m values (1, 10), (2, 20), (3, 30);",
        )
        .unwrap();
    // A forced trace scope registers vdm_traces_total even if another
    // test has automatic tracing toggled off at this instant.
    session.with_trace("audit", |s| {
        s.query("select v from m where k = 1").unwrap();
    });
    session.query("select v from m where k = 1").unwrap(); // plan-cache hit
    let p = session.prepare("select v from m where k = ?").unwrap();
    p.execute(&[Value::Int(2)]).unwrap();
    session.explain_analyze("select sum(v) as s from m").unwrap();
    server.create_cached_view("mv", "select k, v from m where v >= 0", CacheMode::Dynamic).unwrap();
    session.execute("insert into m values (4, 40)").unwrap();
    session.read_cached("mv").unwrap();
    let store = QueryStore::global();
    let prev = store.slow_threshold_nanos();
    store.set_slow_threshold_nanos(0); // everything is "slow" for one query
    session.query("select v from m where k = 3").unwrap();
    store.set_slow_threshold_nanos(prev);
    drop(p);

    // Audit: every metric name any crate registered resolves in the
    // names catalog and exports with `# HELP` and a matching `# TYPE`.
    let reg = vdm_obs::MetricsRegistry::global();
    let text = reg.to_prometheus();
    let registered = reg.metric_names();
    assert!(registered.len() >= 10, "workload registered too little: {registered:?}");
    for name in &registered {
        let base = name.split('{').next().unwrap();
        let desc = names::describe(base).unwrap_or_else(|| {
            panic!("metric {name} is registered but missing from the vdm_obs::names catalog")
        });
        assert!(text.contains(&format!("# HELP {base} ")), "missing # HELP for {base}");
        assert!(
            text.contains(&format!("# TYPE {base} {}\n", desc.kind.token())),
            "missing or mis-typed # TYPE for {base}"
        );
    }
    // And the serve-layer saturation metrics specifically exist.
    for must in [
        names::QUERIES_TOTAL,
        names::QUERY_SECONDS,
        names::TRACES_TOTAL,
        names::STORE_RECORDS_TOTAL,
        names::SLOW_QUERIES_TOTAL,
        names::SESSIONS_OPEN,
        names::INFLIGHT_QUERIES,
        names::QUEUE_WAIT_SECONDS,
        names::PREPARED_STATEMENTS_OPEN,
        names::PLAN_CACHE_HITS_TOTAL,
        names::VIEW_REFRESH_TOTAL,
    ] {
        assert!(
            registered.iter().any(|n| n.split('{').next().unwrap() == must),
            "expected {must} to be registered by the workload"
        );
    }
}

/// Sessions leave no per-session state in the registry: a thousand
/// sessions running one query each register nothing the first did not
/// (the root span's `session` attr is what attributes a query).
#[test]
fn sessions_register_no_per_session_metrics() {
    let _serial = serial();
    let server = vdm_serve::Server::from_database(db());
    let reg = vdm_obs::MetricsRegistry::global();
    let names_after = |sessions: usize| {
        for _ in 0..sessions {
            server.session().query(FIG5_UAJ).unwrap();
        }
        reg.metric_names().len()
    };
    let first = names_after(1);
    assert_eq!(names_after(999), first, "{:?}", reg.metric_names());
}

#[test]
fn explain_analyze_profiles_every_executed_node() {
    let _serial = serial();
    let db = db();
    let text = db
        .explain_analyze(
            "select c_name, sum(o_total) as total from orders \
                          left join customer on o_custkey = c_custkey group by c_name",
        )
        .unwrap();
    // Every rendered operator line carries a profile annotation.
    let plan_lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("== rewrite trace"))
        .filter(|l| {
            !l.starts_with("==")
                && !l.starts_with("[optimize ")
                && !l.starts_with("[misestimate")
                && !l.trim().is_empty()
        })
        .collect();
    assert!(!plan_lines.is_empty(), "{text}");
    for line in plan_lines {
        assert!(
            line.contains(" [#")
                && (line.contains("rows=") || line.contains("act="))
                && line.contains("time="),
            "unannotated operator line {line:?} in:\n{text}"
        );
    }
    // Estimated cardinalities accompany actuals on the cached path.
    assert!(text.contains("est="), "{text}");
    // Inner operators report their input as the children's output.
    assert!(text.contains("in="), "{text}");
}

#[test]
fn limit_scan_is_the_leaf_pipeline_run_in_waves() {
    let _serial = serial();
    let mut db = db();
    let rows: Vec<String> = (100..164).map(|k| format!("({k}, 1, 1.00)")).collect();
    db.execute(&format!("insert into orders values {}", rows.join(", "))).unwrap();
    // Budget 5 over 67 rows at four threads: the first wave alone is one
    // 5-row morsel per worker (at least two on any host).
    db.set_parallelism(ParallelConfig { threads: 4, morsel_rows: 16 });
    let bytes = || db.metrics().counter(vdm_obs::names::MORSEL_SIZE_BYTES);
    let before = bytes();
    let text = db.explain_analyze("select o_orderkey from orders limit 5").unwrap();
    assert!(bytes() > before, "the budgeted scan dispatched no morsel bytes:\n{text}");
    let scan = text.lines().find(|l| l.contains("Scan orders")).expect("a scan line");
    let calls: u64 = scan
        .split("calls=")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no calls= on {scan:?}"));
    assert!(calls > 1, "a scan that ran in waves reports its morsels: {scan:?}");
    assert!(scan.contains("act=5") || scan.contains("rows=5"), "post-truncation rows: {scan:?}");
    assert!(text.contains("5 row(s) returned"), "{text}");
}
