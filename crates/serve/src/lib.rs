//! `vdm-serve`: the concurrent multi-session serving layer.
//!
//! A paper-shaped VDM deployment is many ERP users paging through the same
//! browser views at once — the same handful of statement *shapes*, re-run
//! with different parameter values, from hundreds of sessions. This crate
//! turns the single-owner [`vdm_core::Database`] facade into a
//! shared [`Server`] that serves that workload:
//!
//! * **Sessions** ([`Server::session`]) are lightweight `Send` handles;
//!   any number can run queries concurrently from their own threads.
//! * **Bind-time state** ([`DbState`]) sits behind one `RwLock`: SELECTs
//!   take the read lock only long enough to resolve a plan, DDL and
//!   profile switches take the write lock. Execution happens entirely
//!   outside the lock, so a long scan never blocks a CREATE TABLE behind
//!   it longer than its own bind.
//! * **Plan cache**: optimized parameterized plans are shared across
//!   sessions through the version-stamped [`PlanCache`] living in
//!   `vdm-core` — this crate never invokes the optimizer itself (a CI
//!   gate enforces it); on a cache miss the core query path optimizes and
//!   fills the cache.
//! * **One worker pool**: all sessions execute on a single long-lived
//!   [`WorkerPool`] instead of spawning scoped threads per query, keeping
//!   thread counts flat at high session counts.
//!
//! Prepared statements ([`Session::prepare`]) parse once and pin the
//! statement's canonical shape; each [`Prepared::execute`] is a plan-cache
//! lookup plus parameter substitution. The number of open prepared
//! statements is exported as the `vdm_prepared_statements_open` gauge.
//!
//! **Saturation observability**: every SELECT increments the
//! `vdm_inflight_queries` gauge for its lifetime and records the time
//! between admission (entering the serve layer) and execution start in the
//! `vdm_queue_wait_seconds` histogram; open sessions are counted by
//! `vdm_sessions_open`, and per-session query volumes by
//! `vdm_session_queries_total{session="N"}`. Every query runs under a
//! trace root, so [`Server::last_trace`] (or
//! [`Session::with_trace`], which forces tracing and scoops multiple
//! statements into one causal tree) yields the span tree covering
//! plan-cache lookup, bind, execution, and any cached-view maintenance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use vdm_cache::{CacheMode, CachedView, MaintainOutcome, ViewCache};
use vdm_core::{
    execute_select, explain_analyze_bound, Database, DbState, PlanCache, ResolvedPlan,
    StatementResult,
};
use vdm_exec::{with_worker_pool, ParallelConfig, WorkerPool};
use vdm_obs::registry::{self, MetricsRegistry};
use vdm_obs::{names, trace as qtrace, QueryTrace};
use vdm_optimizer::Profile;
use vdm_sql::{SelectStmt, Statement};
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, Value, VdmError};

/// Tuning knobs for [`Server`] construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Worker-pool threads shared by all sessions. `0` means "use the
    /// executor's configured thread count" (which itself defaults to the
    /// available cores).
    pub pool_threads: usize,
}

/// Everything the sessions share. Lock granularity is the whole design:
/// `state` guards only what bind/optimize reads; the engine, plan cache,
/// and cached-view registry are internally synchronized and never sit
/// behind the state lock.
struct Shared {
    state: RwLock<DbState>,
    engine: StorageEngine,
    views: ViewCache,
    plan_cache: PlanCache,
    parallel: Mutex<ParallelConfig>,
    pool: WorkerPool,
    next_session: AtomicU64,
    last_trace: Mutex<Option<QueryTrace>>,
}

/// RAII decrement for the in-flight query gauge (covers error paths).
struct Inflight;

impl Inflight {
    fn enter() -> Inflight {
        MetricsRegistry::global().gauge_add(names::INFLIGHT_QUERIES, 1);
        Inflight
    }
}

impl Drop for Inflight {
    fn drop(&mut self) {
        MetricsRegistry::global().gauge_add(names::INFLIGHT_QUERIES, -1);
    }
}

impl Shared {
    fn parallel(&self) -> ParallelConfig {
        *self.parallel.lock().unwrap()
    }

    /// Resolves a SELECT's optimized plan under the state *read* lock —
    /// cache hit or core-side bind+optimize — and releases the lock
    /// before returning.
    fn resolve(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<ResolvedPlan> {
        let state = self.state.read().unwrap();
        let env = vdm_core::QueryEnv {
            state: &state,
            engine: &self.engine,
            plan_cache: &self.plan_cache,
            parallel: self.parallel(),
        };
        env.select_plan(sel, shape, params)
    }

    /// Stores the finished trace (when this call owned the root) so
    /// [`Server::last_trace`] can replay the most recent query.
    fn finish_root(&self, root: qtrace::RootGuard) {
        if let Some(trace) = root.finish() {
            *self.last_trace.lock().unwrap() = Some(trace);
        }
    }

    /// Plan resolution under the read lock, then lock-free execution on
    /// the shared worker pool. `session` labels per-session counters and
    /// the trace root; [`Prepared`] executions carry their creating
    /// session's id.
    fn run_select(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
        session: Option<u64>,
    ) -> Result<Batch> {
        let reg = MetricsRegistry::global();
        let root = qtrace::root("query");
        if let Some(id) = session {
            qtrace::attr("session", id);
            reg.inc(&registry::label(names::SESSION_QUERIES_TOTAL, "session", &id.to_string()), 1);
        }
        if let Some(s) = shape {
            qtrace::attr("shape", format_args!("{s:?}"));
        }
        let _inflight = Inflight::enter();
        let admitted = Instant::now();
        let parallel = self.parallel();
        let resolved = match self.resolve(sel, shape, params) {
            Ok(r) => r,
            Err(e) => {
                self.finish_root(root);
                return Err(e);
            }
        };
        let result = with_worker_pool(&self.pool, || {
            reg.observe(names::QUEUE_WAIT_SECONDS, admitted.elapsed().as_secs_f64());
            execute_select(&resolved, params, &self.engine, parallel)
        });
        self.finish_root(root);
        result
    }

    fn explain_analyze(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<String> {
        let root = qtrace::root("query");
        if let Some(s) = shape {
            qtrace::attr("shape", format_args!("{s:?}"));
        }
        let _inflight = Inflight::enter();
        let admitted = Instant::now();
        let parallel = self.parallel();
        let resolved = match self.resolve(sel, shape, params) {
            Ok(r) => r,
            Err(e) => {
                self.finish_root(root);
                return Err(e);
            }
        };
        let result = with_worker_pool(&self.pool, || {
            MetricsRegistry::global()
                .observe(names::QUEUE_WAIT_SECONDS, admitted.elapsed().as_secs_f64());
            explain_analyze_bound(&resolved, params, &self.engine, parallel)
        });
        self.finish_root(root);
        result
    }
}

/// A shared, concurrently usable database server. Cheap to clone; all
/// clones (and every [`Session`]) address the same state.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// A fresh, empty server with the given optimizer profile.
    pub fn new(profile: Profile) -> Server {
        Server::from_database(Database::new(profile))
    }

    /// Server with default config over an existing database — the usual
    /// path: load data through the `Database` facade (generators need its
    /// exclusive `&mut` accessors), then convert for serving.
    pub fn from_database(db: Database) -> Server {
        Server::with_config(db, ServeConfig::default())
    }

    /// [`Server::from_database`] with explicit tuning.
    pub fn with_config(db: Database, config: ServeConfig) -> Server {
        let parts = db.into_parts();
        let pool_threads = if config.pool_threads > 0 {
            config.pool_threads
        } else {
            parts.parallel.threads.max(1)
        };
        Server {
            shared: Arc::new(Shared {
                state: RwLock::new(parts.state),
                engine: parts.engine,
                views: parts.views,
                plan_cache: parts.plan_cache,
                parallel: Mutex::new(parts.parallel),
                pool: WorkerPool::new(pool_threads),
                next_session: AtomicU64::new(1),
                last_trace: Mutex::new(None),
            }),
        }
    }

    /// Opens a new session. Open sessions are counted by the
    /// `vdm_sessions_open` gauge.
    pub fn session(&self) -> Session {
        MetricsRegistry::global().gauge_add(names::SESSIONS_OPEN, 1);
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The span tree of the most recently traced query, from any session.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.shared.last_trace.lock().unwrap().clone()
    }

    /// Swaps the optimizer profile for every session. Takes the state
    /// write lock, so it serializes against in-flight binds; plans cached
    /// under other profiles stop matching (the profile fingerprint is part
    /// of the cache key).
    pub fn set_profile(&self, profile: Profile) {
        self.shared.state.write().unwrap().set_profile(profile);
    }

    /// Sets the executor configuration used by subsequent queries.
    pub fn set_parallelism(&self, config: ParallelConfig) {
        *self.shared.parallel.lock().unwrap() = config;
        self.shared.views.set_parallelism(config);
    }

    /// The active executor configuration.
    pub fn parallelism(&self) -> ParallelConfig {
        self.shared.parallel()
    }

    /// The shared plan cache (stats, capacity).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.plan_cache
    }

    /// Storage access (for data loaders and assertions).
    pub fn engine(&self) -> &StorageEngine {
        &self.shared.engine
    }

    /// Creates a cached (materialized) view over a SELECT. The plan is
    /// resolved through the shared query path (and plan cache), then
    /// materialized without holding the state lock.
    pub fn create_cached_view(
        &self,
        name: &str,
        sql: &str,
        mode: CacheMode,
    ) -> Result<Arc<CachedView>> {
        let stmt = vdm_sql::parse_one(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(VdmError::Bind("create_cached_view() expects a SELECT".into()));
        };
        let shape = vdm_sql::canonical_shape(sql)?;
        let resolved = self.shared.resolve(&sel, Some(&shape), &[])?;
        with_worker_pool(&self.shared.pool, || {
            self.shared.views.register(name, resolved.plan, mode, &self.shared.engine)
        })
    }

    /// Looks up a cached view.
    pub fn cached_view(&self, name: &str) -> Option<Arc<CachedView>> {
        self.shared.views.get(name)
    }

    /// Refreshes every static cached view on the shared worker pool. Runs
    /// outside the state lock; concurrent readers of those views only
    /// block for the `Arc` swap.
    pub fn refresh_cached_views(&self) -> Result<usize> {
        with_worker_pool(&self.shared.pool, || {
            self.shared.views.refresh_all_static(&self.shared.engine)
        })
    }

    /// The process-wide metrics registry.
    pub fn metrics(&self) -> &'static MetricsRegistry {
        MetricsRegistry::global()
    }
}

/// One client's handle on the server: `Send`, cheap, independent. Reads
/// run concurrently with other sessions; DDL serializes on the shared
/// state write lock.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
}

impl Session {
    /// This session's id (diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Runs a SELECT and returns its rows.
    pub fn query(&self, sql: &str) -> Result<Batch> {
        self.query_with_params(sql, &[])
    }

    /// Runs a parameterized SELECT (`?` / `$1` placeholders) with the
    /// given values.
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> Result<Batch> {
        let stmt = vdm_sql::parse_one(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(VdmError::Bind("query() expects a SELECT; use execute()".into()));
        };
        let shape = vdm_sql::canonical_shape(sql)?;
        self.shared.run_select(&sel, Some(&shape), params, Some(self.id))
    }

    /// Runs `f` under a forced trace root named `name`: every statement
    /// the closure executes on this session (queries, cached-view reads,
    /// prepared executions) contributes its spans to one causal tree,
    /// returned alongside the closure's result. Works even when automatic
    /// tracing is disabled.
    pub fn with_trace<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Session) -> R,
    ) -> (R, Option<QueryTrace>) {
        let root = qtrace::root_forced(name);
        let out = f(self);
        let trace = root.finish();
        if let Some(t) = &trace {
            *self.shared.last_trace.lock().unwrap() = Some(t.clone());
        }
        (out, trace)
    }

    /// The span tree of the most recently traced query on this server.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.shared.last_trace.lock().unwrap().clone()
    }

    /// Executes any single statement. SELECTs go through the concurrent
    /// read path; everything else (DDL, INSERT, EXPLAIN) takes the state
    /// write lock and runs the same statement dispatcher as
    /// `Database::execute`.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let mut results = self.execute_script(sql)?;
        results.pop().ok_or_else(|| VdmError::Exec("no statement executed".into()))
    }

    /// Executes a `;`-separated script, one result per statement.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<StatementResult>> {
        let stmts = vdm_sql::parse(sql)?;
        let shapes = vdm_sql::canonical_shapes(sql).unwrap_or_default();
        stmts
            .iter()
            .enumerate()
            .map(|(i, stmt)| {
                let shape =
                    if shapes.len() == stmts.len() { Some(shapes[i].as_str()) } else { None };
                self.execute_statement(stmt, shape)
            })
            .collect()
    }

    fn execute_statement(&self, stmt: &Statement, shape: Option<&str>) -> Result<StatementResult> {
        match stmt {
            Statement::Select(sel) => {
                Ok(StatementResult::Rows(self.shared.run_select(sel, shape, &[], Some(self.id))?))
            }
            _ => {
                let parallel = self.shared.parallel();
                let mut state = self.shared.state.write().unwrap();
                vdm_core::run_statement(
                    &mut state,
                    &self.shared.engine,
                    &self.shared.plan_cache,
                    parallel,
                    stmt,
                    shape,
                )
            }
        }
    }

    /// EXPLAIN ANALYZE for a SELECT; the header reports whether the plan
    /// came from the shared cache (`[plan cache: hit|miss]`).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let stmt = vdm_sql::parse_one(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(VdmError::Bind("explain_analyze() expects a SELECT".into()));
        };
        let shape = vdm_sql::canonical_shape(sql)?;
        self.shared.explain_analyze(&sel, Some(&shape), &[])
    }

    /// Parses and binds a statement once for repeated execution. The
    /// returned handle is independent of this session.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (stmt, param_count) = vdm_sql::parse_one_with_params(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(VdmError::Bind("prepare() expects a SELECT".into()));
        };
        let shape = vdm_sql::canonical_shape(sql)?;
        MetricsRegistry::global().gauge_add(names::PREPARED_STATEMENTS_OPEN, 1);
        Ok(Prepared {
            shared: Arc::clone(&self.shared),
            select: sel,
            shape,
            param_count,
            session: self.id,
        })
    }

    /// Reads a cached view (SCV: last refresh; DCV: maintained first).
    pub fn read_cached(&self, name: &str) -> Result<Arc<Batch>> {
        Ok(self.read_cached_with_outcome(name)?.0)
    }

    /// [`read_cached`](Session::read_cached), also reporting what DCV
    /// maintenance did (`fresh`, `incremental(+N rows)`, `full refresh`).
    /// Maintenance executes on the shared worker pool, like any query.
    pub fn read_cached_with_outcome(&self, name: &str) -> Result<(Arc<Batch>, MaintainOutcome)> {
        let view = self
            .shared
            .views
            .get(name)
            .ok_or_else(|| VdmError::Catalog(format!("unknown cached view {name:?}")))?;
        with_worker_pool(&self.shared.pool, || view.read_with_outcome(&self.shared.engine))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        MetricsRegistry::global().gauge_add(names::SESSIONS_OPEN, -1);
    }
}

/// A prepared SELECT: parsed once, shape pinned, plan shared through the
/// server's plan cache. Dropping it decrements the
/// `vdm_prepared_statements_open` gauge.
pub struct Prepared {
    shared: Arc<Shared>,
    select: SelectStmt,
    shape: String,
    param_count: usize,
    /// Id of the creating session, for per-session counter attribution.
    session: u64,
}

impl Prepared {
    /// Number of parameter values [`Prepared::execute`] expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The canonical statement shape used as the plan-cache key.
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// Executes with the given parameter values.
    pub fn execute(&self, params: &[Value]) -> Result<Batch> {
        self.check_arity(params)?;
        self.shared.run_select(&self.select, Some(&self.shape), params, Some(self.session))
    }

    /// EXPLAIN ANALYZE of one execution with the given parameter values.
    pub fn explain_analyze(&self, params: &[Value]) -> Result<String> {
        self.check_arity(params)?;
        self.shared.explain_analyze(&self.select, Some(&self.shape), params)
    }

    fn check_arity(&self, params: &[Value]) -> Result<()> {
        if params.len() != self.param_count {
            return Err(VdmError::Exec(format!(
                "prepared statement expects {} parameter value(s), got {}",
                self.param_count,
                params.len()
            )));
        }
        Ok(())
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        MetricsRegistry::global().gauge_add(names::PREPARED_STATEMENTS_OPEN, -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        let server = Server::new(Profile::hana());
        let session = server.session();
        session
            .execute_script(
                "create table t (k bigint primary key, v text not null);
                 insert into t values (1, 'one'), (2, 'two'), (3, 'three');",
            )
            .unwrap();
        server
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn send<T: Send>() {}
        fn sync<T: Sync>() {}
        send::<Server>();
        sync::<Server>();
        send::<Session>();
        sync::<Session>();
        send::<Prepared>();
    }

    #[test]
    fn sessions_share_state_and_plans() {
        let server = server();
        let a = server.session();
        let b = server.session();
        assert_ne!(a.id(), b.id());
        let hits_before = server.plan_cache().stats().hits;
        assert_eq!(a.query("select v from t where k = 2").unwrap().num_rows(), 1);
        // Session b re-uses the plan session a optimized.
        assert_eq!(b.query("select v from t where k = 2").unwrap().num_rows(), 1);
        assert_eq!(server.plan_cache().stats().hits, hits_before + 1);
    }

    #[test]
    fn prepared_statements_track_the_open_gauge() {
        let server = server();
        let session = server.session();
        let reg = MetricsRegistry::global();
        let before = reg.gauge(names::PREPARED_STATEMENTS_OPEN);
        let p = session.prepare("select v from t where k = ?").unwrap();
        assert_eq!(reg.gauge(names::PREPARED_STATEMENTS_OPEN), before + 1);
        assert_eq!(p.param_count(), 1);
        let rows = p.execute(&[Value::Int(3)]).unwrap();
        assert_eq!(rows.row(0)[0], Value::str("three"));
        // Wrong arity is rejected before binding.
        assert!(p.execute(&[]).is_err());
        assert!(p.execute(&[Value::Int(1), Value::Int(2)]).is_err());
        drop(p);
        assert_eq!(reg.gauge(names::PREPARED_STATEMENTS_OPEN), before);
    }

    #[test]
    fn ddl_from_one_session_is_visible_to_others() {
        let server = server();
        let a = server.session();
        let b = server.session();
        a.execute("create table u (k bigint primary key)").unwrap();
        b.execute("insert into u values (7)").unwrap();
        assert_eq!(a.query("select k from u").unwrap().num_rows(), 1);
        a.execute("drop table u").unwrap();
        assert!(b.query("select k from u").is_err());
    }

    #[test]
    fn cached_views_through_the_server() {
        let server = server();
        let session = server.session();
        server.create_cached_view("tv", "select k from t where k >= 2", CacheMode::Static).unwrap();
        assert_eq!(session.read_cached("tv").unwrap().num_rows(), 2);
        session.execute("insert into t values (9, 'nine')").unwrap();
        assert_eq!(session.read_cached("tv").unwrap().num_rows(), 2, "SCV stale");
        assert_eq!(server.refresh_cached_views().unwrap(), 1);
        assert_eq!(session.read_cached("tv").unwrap().num_rows(), 3);
    }
}
