//! `vdm-core`: the database facade.
//!
//! [`Database`] wires the whole stack together — catalog, view registry,
//! expression-macro registry, columnar storage, SQL front end, optimizer
//! (with a selectable capability [`Profile`]), and executor — behind a
//! `db.execute(sql)` API.
//!
//! ```
//! use vdm_core::Database;
//! let mut db = Database::hana();
//! db.execute("create table t (k bigint primary key, v text)").unwrap();
//! db.execute("insert into t values (1, 'hello')").unwrap();
//! let batch = db.query("select v from t where k = 1").unwrap();
//! assert_eq!(batch.row(0)[0], vdm_types::Value::str("hello"));
//! ```
//!
//! The facade is one of two handles on the same machinery — `vdm-serve`'s
//! `Server` is the other:
//!
//! * [`DbState`] — catalog/views/macros/optimizer + a metadata version
//!   counter; the part DDL mutates and bind/optimize reads.
//! * [`Runtime`] — storage, cached views (whose shared cell is the executor
//!   configuration), the [`PlanCache`] and the last trace; internally
//!   synchronized. [`Runtime::run`] is the one read body: rows, `EXPLAIN`,
//!   `EXPLAIN ANALYZE` and `EXPLAIN TRACE` are [`RunMode`]s of the same run.
//!
//! `Database` owns a `DbState` beside a `Runtime` and runs every read as
//! session 0 over a plain borrow of its state; a `Server` moves both out
//! (`let (state, rt) = db.into()`) and puts the state behind an `RwLock`.
//! Reads (`query`, `explain*`) take `&self`; statement execution
//! (`execute*`) takes `&mut self` because DDL must mutate [`DbState`] —
//! the same operations `vdm-serve` routes through a write lock
//! ([`apply_statement`]). `set_profile` / `set_parallelism` stay
//! `&mut self` deliberately:
//! they change the meaning/cost of every in-flight statement, so a shared
//! deployment must serialize them against running queries (which the
//! serving layer's state lock does).

use std::sync::Arc;
pub use vdm_cache::{CacheMode, CachedView, MaintainOutcome, ViewCache};
use vdm_catalog::Catalog;
pub use vdm_exec::ParallelConfig;
use vdm_exec::{ExecOptions, Metrics};
use vdm_obs::{MetricsRegistry, QueryStore, QueryTrace};
pub use vdm_optimizer::Profile;
use vdm_plan::PlanRef;
use vdm_sql::Statement;
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, Value, VdmError};

pub mod feedback;
mod plan_cache;
mod session;
mod state;

pub use feedback::EngineStats;
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheKey, PlanCacheStats};
pub use session::{
    execute_select, param_types_of, parse_script, parse_select, CacheOutcome, QueryEnv,
    ResolvedPlan, RunMode, Runtime,
};
pub use state::DbState;

/// Plans a freshly constructed [`Database`] keeps before evicting
/// (override with [`Database::set_plan_cache_capacity`]).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Outcome of one executed statement.
#[derive(Debug)]
pub enum StatementResult {
    /// SELECT results.
    Rows(Batch),
    /// DDL acknowledgement with the object name.
    Created(String),
    /// DROP acknowledgement with the object name.
    Dropped(String),
    /// Rows inserted.
    Inserted(usize),
    /// EXPLAIN output.
    Explained(String),
}

impl StatementResult {
    /// Unwraps SELECT rows.
    pub fn rows(self) -> Result<Batch> {
        match self {
            StatementResult::Rows(b) => Ok(b),
            other => Err(VdmError::Exec(format!("statement produced {other:?}, not rows"))),
        }
    }

    /// Unwraps EXPLAIN-family text.
    pub fn explained(self) -> Result<String> {
        match self {
            StatementResult::Explained(text) => Ok(text),
            other => Err(VdmError::Exec(format!("statement produced {other:?}, not EXPLAIN text"))),
        }
    }
}

/// The assembled database: one owner's handle on a [`Runtime`].
pub struct Database {
    state: DbState,
    rt: Runtime,
}

/// Moves a database's state and runtime out — how a serving layer takes
/// them over (`let (state, rt) = db.into()`).
impl From<Database> for (DbState, Runtime) {
    fn from(db: Database) -> (DbState, Runtime) {
        (db.state, db.rt)
    }
}

impl Database {
    /// Database with the given optimizer profile.
    pub fn new(profile: Profile) -> Database {
        Database { state: DbState::new(profile), rt: Runtime::new(DEFAULT_PLAN_CACHE_CAPACITY) }
    }

    /// Database with every optimizer capability (the paper's HANA column).
    pub fn hana() -> Database {
        Database::new(Profile::hana())
    }

    /// Swaps the optimizer profile (e.g. to compare systems on one
    /// dataset). `&mut self` on purpose: the profile changes what every
    /// statement's plan looks like, so it must not race in-flight binds —
    /// concurrent deployments route this through `vdm-serve`, which takes
    /// its state write lock.
    pub fn set_profile(&mut self, profile: Profile) {
        self.state.set_profile(profile);
    }

    /// Sets the executor configuration of every query and cached view. The
    /// default uses all available cores; `threads: 1` is the serial mode
    /// (every morsel runs inline on the calling thread).
    /// `&mut self` like [`Database::set_profile`], and for the same
    /// reason.
    pub fn set_parallelism(&mut self, config: ParallelConfig) {
        self.rt.views.set_parallelism(config);
    }

    /// The active executor configuration.
    pub fn parallelism(&self) -> ParallelConfig {
        self.rt.parallelism()
    }

    /// Replaces the plan cache with a fresh one of the given capacity
    /// (0 disables caching — the baseline benches measure against).
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.rt.plan_cache = PlanCache::new(capacity);
    }

    /// The plan cache (stats, capacity).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.rt.plan_cache
    }

    /// The active optimizer.
    pub fn optimizer(&self) -> &vdm_optimizer::Optimizer {
        &self.state.optimizer
    }

    /// The bind-time state (catalog, views, macros, optimizer, version).
    pub fn state(&self) -> &DbState {
        &self.state
    }

    /// Catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.state.catalog
    }

    /// Mutable catalog access (for generators). Note: direct catalog
    /// mutation bypasses both the metadata version counter and the check
    /// that a new table's name is not a view's ([`DbState::create_table`]);
    /// follow up with [`Database::invalidate_plans`] if cached plans could
    /// be affected.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.state.catalog
    }

    /// Split borrow for data generators that register schema and load data
    /// in one call (`gen.build(catalog, engine)`). Bypasses the version
    /// counter and the namespace check, as [`Database::catalog_mut`] does.
    pub fn catalog_and_engine(&mut self) -> (&mut Catalog, &StorageEngine) {
        (&mut self.state.catalog, &self.rt.engine)
    }

    /// Bumps the metadata version, invalidating every cached plan. Only
    /// needed after out-of-band mutations via [`Database::catalog_mut`];
    /// the SQL surface and [`Database::register_view`] bump automatically.
    pub fn invalidate_plans(&mut self) {
        self.state.bump_version();
    }

    /// Storage access.
    pub fn engine(&self) -> &StorageEngine {
        &self.rt.engine
    }

    /// Registers (or replaces) a plan-backed view — the VDM layer's entry
    /// point; errors when a table holds the name.
    pub fn register_view(&mut self, name: &str, plan: PlanRef) -> Result<()> {
        self.state.define_view(name, plan, true)
    }

    /// Creates a cached (materialized) view over a SELECT — the SCV/DCV
    /// feature of §3. The plan [`Database::query`] would run is
    /// materialized immediately.
    pub fn create_cached_view(
        &self,
        name: &str,
        sql: &str,
        mode: CacheMode,
    ) -> Result<Arc<CachedView>> {
        self.rt.create_cached_view(&self.state, name, sql, mode)
    }

    /// Looks up a cached view.
    pub fn cached_view(&self, name: &str) -> Option<Arc<CachedView>> {
        self.rt.views.get(name)
    }

    /// Reads a cached view (SCV: last refresh; DCV: maintained first).
    pub fn read_cached(&self, name: &str) -> Result<Arc<Batch>> {
        self.rt.read_cached(name)
    }

    /// `EXPLAIN ANALYZE` for a cached-view read: performs the read (DCV
    /// maintenance included), reporting what maintenance did in the
    /// `[view cache: ...]` header — `fresh`, `incremental(+N rows)`, or
    /// `full refresh` — followed by the maintenance counters and the
    /// view's definition plan.
    pub fn explain_analyze_cached(&self, name: &str) -> Result<String> {
        let view = self.rt.view(name)?;
        let started = std::time::Instant::now();
        let (data, outcome) = view.read_with_outcome(&self.rt.engine)?;
        let elapsed = started.elapsed();
        let stats = view.stats();
        Ok(format!(
            "== EXPLAIN ANALYZE VIEW {} [view cache: {}] ==\n\
             {} row(s) returned, elapsed time={}\n\
             refreshes: full={}, incremental={}, noop={}, delta rows folded: {}\n\
             == view plan ==\n{}",
            view.name(),
            outcome.describe(),
            data.num_rows(),
            vdm_obs::util::fmt_nanos(elapsed.as_nanos() as u64),
            stats.full_refreshes,
            stats.incremental_refreshes,
            stats.noop_refreshes,
            stats.delta_rows,
            vdm_plan::explain(view.plan()),
        ))
    }

    /// Refreshes every static cached view (the periodic refresh tick).
    pub fn refresh_cached_views(&self) -> Result<usize> {
        self.rt.refresh_cached_views()
    }

    /// The cached-view registry.
    pub fn view_cache(&self) -> &ViewCache {
        &self.rt.views
    }

    /// Executes a single statement.
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult> {
        let mut results = self.execute_script(sql)?;
        results.pop().ok_or_else(|| VdmError::Exec("no statement executed".into()))
    }

    /// Executes a `;`-separated script, returning one result per statement.
    /// Reads (`SELECT` and every `EXPLAIN` form) take the same path as
    /// [`Database::query`]; only DDL and `INSERT` mutate state.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        parse_script(sql)?
            .iter()
            .map(|(stmt, shape)| match RunMode::of(stmt, shape.as_deref())? {
                Some((mode, sel, shape)) => self.rt.run(&self.state, sel, shape, &[], mode, 0),
                None => apply_statement(&mut self.state, &self.rt.engine, stmt),
            })
            .collect()
    }

    /// Runs a SELECT and returns its rows. Reads share `&self`: the whole
    /// pipeline (cache lookup, bind/optimize on miss, execution) never
    /// mutates database state.
    pub fn query(&self, sql: &str) -> Result<Batch> {
        self.query_with_params(sql, &[])
    }

    /// Runs a parameterized SELECT (`?` / `$1` placeholders), splicing
    /// `params` in at execution time. The optimized parameterized plan is
    /// cached by statement shape, so repeated calls skip bind + optimize.
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> Result<Batch> {
        let (sel, shape, _) = parse_select(sql)?;
        self.rt.run(&self.state, &sel, Some(&shape), params, RunMode::Rows, 0)?.rows()
    }

    /// The trace of the most recent traced read on this handle (each
    /// query or `EXPLAIN` form replaces it while automatic tracing —
    /// [`vdm_obs::trace::set_enabled`] — is on). Render with
    /// [`QueryTrace::render`] or export via [`QueryTrace::to_json`].
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.rt.last_trace()
    }

    /// `EXPLAIN TRACE` for a SELECT: runs the query under a forced trace
    /// (even when automatic tracing is disabled) and renders the span
    /// tree. The same output is available via SQL:
    /// `db.execute("explain trace select ...")`.
    pub fn explain_trace(&self, sql: &str) -> Result<String> {
        let (sel, shape, _) = parse_select(sql)?;
        self.rt.run(&self.state, &sel, Some(&shape), &[], RunMode::Trace, 0)?.explained()
    }

    /// Binds a SELECT to its *unoptimized* logical plan.
    pub fn plan(&self, sql: &str) -> Result<PlanRef> {
        self.state.binder().bind_select(&parse_select(sql)?.0)
    }

    /// The optimized plan [`Database::query`] would run for `sql`, resolved
    /// through the same plan cache — so it sees storage statistics (and any
    /// feedback re-optimization) exactly like the query itself. For the
    /// rule-only baseline, hand [`Database::plan`]'s output to
    /// [`Database::optimizer`] directly.
    pub fn optimized_plan(&self, sql: &str) -> Result<PlanRef> {
        let (sel, shape, _) = parse_select(sql)?;
        Ok(self.rt.env(&self.state).select_plan(&sel, Some(&shape), &[])?.plan)
    }

    /// Executes a prebuilt plan as given, without optimizing it (baseline
    /// measurement, or a plan the caller optimized itself).
    pub fn execute_plan_unoptimized(&self, plan: &PlanRef) -> Result<(Batch, Metrics)> {
        let opts = ExecOptions { parallel: self.parallelism(), ..ExecOptions::default() };
        let x = vdm_exec::execute_with(plan, &self.rt.engine, &opts)?;
        Ok((x.batch, Metrics::roll_up(plan, &x.profile)))
    }

    /// EXPLAIN text for a SELECT: the bound plan and the optimized plan the
    /// next [`Database::query`] runs (resolved through the plan cache, so a
    /// feedback re-optimization shows), with operator-count summaries and
    /// the optimizer's pass trace — the same text
    /// `db.execute("explain select ...")` returns.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (sel, shape, _) = parse_select(sql)?;
        self.rt.run(&self.state, &sel, Some(&shape), &[], RunMode::Explain, 0)?.explained()
    }

    /// EXPLAIN ANALYZE for a SELECT: resolves the plan through the plan
    /// cache (the header reports `[plan cache: hit|miss]`), executes with
    /// per-operator profiling, and renders the optimized plan annotated
    /// with runtime stats, the structured rewrite trace, and an execution
    /// summary.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (sel, shape, _) = parse_select(sql)?;
        self.rt.run(&self.state, &sel, Some(&shape), &[], RunMode::Analyze, 0)?.explained()
    }

    /// The process-wide metrics registry (JSON / Prometheus exporters).
    pub fn metrics(&self) -> &'static MetricsRegistry {
        MetricsRegistry::global()
    }

    /// The process-wide query store (per-plan-digest execution history,
    /// slow-query log). See [`vdm_obs::QueryStore`].
    pub fn query_store(&self) -> &'static QueryStore {
        QueryStore::global()
    }
}

/// Applies one state-mutating statement (`CREATE` / `DROP` / `INSERT`)
/// to explicitly borrowed database parts — shared by [`Database`] (which
/// owns the parts) and `vdm-serve` (which borrows them under its write
/// lock). DDL arms bump the metadata version so stamped plans go stale.
/// Reads never get here: callers route them through [`RunMode::of`] to
/// [`Runtime::run`].
pub fn apply_statement(
    state: &mut DbState,
    engine: &StorageEngine,
    stmt: &Statement,
) -> Result<StatementResult> {
    match stmt {
        Statement::CreateTable(ct) => {
            let def = state.binder().table_def(ct)?;
            engine.create_table(state.create_table(def)?)?;
            Ok(StatementResult::Created(ct.name.clone()))
        }
        Statement::CreateView { name, or_replace, query, macros } => {
            let (plan, defs) = {
                let binder = state.binder();
                let plan = binder.bind_select(query)?;
                let defs = macros
                    .iter()
                    .map(|m| binder.bind_macro(m, &plan.schema()))
                    .collect::<Result<Vec<_>>>()?;
                (plan, defs)
            };
            // Views are registered as plans (inlined at bind time).
            state.define_view(name, plan, *or_replace)?;
            for def in defs {
                state.macros.insert(def.name.to_ascii_lowercase(), def);
            }
            Ok(StatementResult::Created(name.clone()))
        }
        Statement::DropTable { name, if_exists } => {
            if state.catalog.table(name).is_none() {
                return if *if_exists {
                    Ok(StatementResult::Dropped(name.clone()))
                } else {
                    Err(VdmError::Catalog(format!("unknown table {name:?}")))
                };
            }
            state.catalog.drop_table(name)?;
            engine.drop_table(name)?;
            state.bump_version();
            Ok(StatementResult::Dropped(name.clone()))
        }
        Statement::DropView { name, if_exists } => {
            if state.views.remove(name) {
                state.bump_version();
                Ok(StatementResult::Dropped(name.clone()))
            } else if *if_exists {
                Ok(StatementResult::Dropped(name.clone()))
            } else {
                Err(VdmError::Catalog(format!("unknown view {name:?}")))
            }
        }
        Statement::Insert { table, columns, rows } => {
            let values = {
                let binder = state.binder();
                let def = state.catalog.table_or_err(table)?;
                binder.insert_rows(&def, columns, rows)?
            };
            // Data changes don't bump the version: cached plans depend on
            // metadata, not contents.
            let n = engine.insert(table, values)?;
            Ok(StatementResult::Inserted(n))
        }
        Statement::Select(_)
        | Statement::Explain(_)
        | Statement::ExplainAnalyze(_)
        | Statement::ExplainTrace(_) => {
            Err(VdmError::Exec("read statements run through Runtime::run".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_plan::plan_stats;

    fn db() -> Database {
        let mut db = Database::hana();
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

    #[test]
    fn end_to_end_select() {
        let db = db();
        let b = db
            .query("select c_name, count(*) as n from orders o left join customer c on o.o_custkey = c.c_custkey group by c_name order by n desc")
            .unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), vec![Value::str("alice"), Value::Int(2)]);
    }

    #[test]
    fn uaj_eliminated_under_hana_not_under_system_x() {
        let mut db = db();
        let sql = "select o_orderkey from orders left join customer on o_custkey = c_custkey";
        let hana_plan = db.optimized_plan(sql).unwrap();
        assert_eq!(plan_stats(&hana_plan).joins, 0);
        db.set_profile(Profile::system_x());
        let weak_plan = db.optimized_plan(sql).unwrap();
        assert_eq!(plan_stats(&weak_plan).joins, 1);
        // Both still compute the same answer.
        let a = db.query(sql).unwrap();
        db.set_profile(Profile::hana());
        let b = db.query(sql).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
    }

    #[test]
    fn explain_shows_both_plans() {
        let mut db = db();
        let text = db
            .explain("select o_orderkey from orders left join customer on o_custkey = c_custkey")
            .unwrap();
        assert!(text.contains("bound plan (2 tables, 1 joins)"), "{text}");
        assert!(text.contains("optimized plan (1 tables, 0 joins)"), "{text}");
        let StatementResult::Explained(e) =
            db.execute("explain select o_orderkey from orders").unwrap()
        else {
            panic!("expected EXPLAIN output")
        };
        assert!(e.contains("Scan orders"));
    }

    #[test]
    fn explain_analyze_reports_rows_trace_and_metrics() {
        let mut db = db();
        let rule =
            vdm_obs::registry::label(vdm_obs::names::REWRITE_FIRED_TOTAL, "rule", "uaj-removal");
        let before = db.metrics().counter(&rule);
        let text = db
            .explain_analyze(
                "select o_orderkey from orders left join customer on o_custkey = c_custkey",
            )
            .unwrap();
        // The UAJ is removed, leaving a profiled scan/project pipeline
        // annotated with estimated and actual cardinalities.
        assert!(text.contains("act=3"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("uaj-removal"), "{text}");
        assert!(text.contains("[plan cache: miss]"), "{text}");
        assert!(db.metrics().counter(&rule) > before, "{text}");
        // A second run is served from the plan cache.
        let again = db
            .explain_analyze(
                "select o_orderkey from orders left join customer on o_custkey = c_custkey",
            )
            .unwrap();
        assert!(again.contains("[plan cache: hit]"), "{again}");
        // The SQL surface goes through the same path.
        let StatementResult::Explained(e) =
            db.execute("explain analyze select o_orderkey from orders").unwrap()
        else {
            panic!("expected EXPLAIN ANALYZE output")
        };
        assert!(e.contains("Scan orders"), "{e}");
        assert!(e.contains("rewrite trace"), "{e}");
    }

    #[test]
    fn views_and_macros_via_sql() {
        let mut db = db();
        db.execute(
            "create view sales as select o_custkey, o_total from orders \
             with expression macros (sum(o_total) / count(*) as avg_order)",
        )
        .unwrap();
        let b = db
            .query("select o_custkey, expression_macro(avg_order) from sales group by o_custkey order by 1")
            .unwrap();
        assert_eq!(b.num_rows(), 2);
        // Duplicate view creation fails; OR REPLACE succeeds.
        assert!(db.execute("create view sales as select 1 from orders").is_err());
        db.execute("create or replace view sales as select o_custkey from orders").unwrap();
    }

    #[test]
    fn drop_statements_remove_objects() {
        let mut db = db();
        db.execute("create view v1 as select o_orderkey from orders").unwrap();
        let StatementResult::Dropped(name) = db.execute("drop view v1").unwrap() else {
            panic!("expected Dropped")
        };
        assert_eq!(name, "v1");
        assert!(db.query("select * from v1").is_err());
        assert!(db.execute("drop view v1").is_err());
        db.execute("drop view if exists v1").unwrap();

        db.execute("create table scratch (k bigint primary key)").unwrap();
        db.execute("insert into scratch values (1)").unwrap();
        db.execute("drop table scratch").unwrap();
        assert!(db.query("select * from scratch").is_err());
        assert!(db.execute("drop table scratch").is_err());
        db.execute("drop table if exists scratch").unwrap();
    }

    #[test]
    fn plan_cache_hits_and_invalidates() {
        let mut db = db();
        let sql = "select c_name from customer where c_custkey = ?";
        let a = db.query_with_params(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(a.row(0)[0], Value::str("alice"));
        let before = db.plan_cache().stats();
        // Same shape, different value: a hit with the other answer.
        let b = db.query_with_params(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(b.row(0)[0], Value::str("bob"));
        assert_eq!(db.plan_cache().stats().hits, before.hits + 1);
        // `$1` lexes to the same shape as `?`.
        let c = db
            .query_with_params("select c_name from customer where c_custkey = $1", &[Value::Int(1)])
            .unwrap();
        assert_eq!(c.row(0)[0], Value::str("alice"));
        assert_eq!(db.plan_cache().stats().hits, before.hits + 2);
        // DDL bumps the metadata version: next lookup misses and re-optimizes.
        db.execute("create table unrelated (k bigint primary key)").unwrap();
        let d = db.query_with_params(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(d.row(0)[0], Value::str("alice"));
        let after = db.plan_cache().stats();
        assert_eq!(after.hits, before.hits + 2);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn constraint_violations_surface() {
        let mut db = db();
        assert!(db.execute("insert into customer values (1, 'dup')").is_err());
        assert!(db.execute("insert into customer values (5, null)").is_err());
        assert!(db.query("select nope from customer").is_err());
    }

    #[test]
    fn cached_views_through_facade() {
        let mut db = db();
        let scv = db
            .create_cached_view(
                "order_totals",
                "select o_custkey, sum(o_total) as total from orders group by o_custkey",
                CacheMode::Static,
            )
            .unwrap();
        assert_eq!(db.read_cached("order_totals").unwrap().num_rows(), 2);
        db.execute("insert into orders values (13, 2, 1.00)").unwrap();
        // SCV is stale until refreshed.
        assert!(scv.staleness(db.engine()) > 0);
        db.refresh_cached_views().unwrap();
        assert_eq!(scv.staleness(db.engine()), 0);
        // DCV keeps itself current.
        let _dcv = db
            .create_cached_view(
                "order_count",
                "select count(*) as n from orders",
                CacheMode::Dynamic,
            )
            .unwrap();
        db.execute("insert into orders values (14, 2, 2.00)").unwrap();
        let n = db.read_cached("order_count").unwrap();
        assert_eq!(n.row(0)[0], vdm_types::Value::Int(5));
        assert!(db.read_cached("missing").is_err());
    }

    #[test]
    fn like_predicate_end_to_end() {
        let db = db();
        let rows =
            db.query("select c_name from customer where c_name like 'al%' order by 1").unwrap();
        assert_eq!(rows.num_rows(), 1);
        assert_eq!(rows.row(0)[0], vdm_types::Value::str("alice"));
        let rows =
            db.query("select c_name from customer where c_name not like '%ob' order by 1").unwrap();
        assert_eq!(rows.num_rows(), 1);
    }

    #[test]
    fn parallelism_config_round_trips_and_agrees_with_serial() {
        let mut db = db();
        let sql = "select c_name, count(*) as n from orders o \
                   left join customer c on o.o_custkey = c.c_custkey \
                   group by c_name order by n desc";
        db.set_parallelism(ParallelConfig { threads: 1, morsel_rows: 2 });
        assert_eq!(db.parallelism().threads, 1);
        let serial = db.query(sql).unwrap();
        db.set_parallelism(ParallelConfig { threads: 4, morsel_rows: 2 });
        let parallel = db.query(sql).unwrap();
        assert_eq!(parallel.to_rows(), serial.to_rows());
        // EXPLAIN ANALYZE reports the workers that ran, not the setting:
        // the engine caps `threads` at the host's cores (floor 2).
        db.set_parallelism(ParallelConfig { threads: 64, morsel_rows: 2 });
        let cores = ParallelConfig::default().threads;
        let header = format!("== EXPLAIN ANALYZE ({} thread(s))", cores.clamp(2, 64));
        let text = db.explain_analyze(sql).unwrap();
        assert!(text.starts_with(&header), "want {header:?}:\n{text}");
    }

    #[test]
    fn unoptimized_plan_execution_agrees_with_query() {
        let db = db();
        let sql = "select count(*) from orders";
        let (raw_batch, raw_metrics) = db.execute_plan_unoptimized(&db.plan(sql).unwrap()).unwrap();
        assert_eq!(db.query(sql).unwrap().row(0), raw_batch.row(0));
        assert!(raw_metrics.operators >= 1);
    }
}
