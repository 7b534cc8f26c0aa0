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
//! * **Bind-time state** ([`DbState`]) sits behind one `RwLock`: reads —
//!   `SELECT` and every `EXPLAIN` form alike — take the read lock only
//!   long enough to resolve a plan; only DDL, `INSERT` and profile
//!   switches take the write lock. Execution happens entirely outside the
//!   lock, so a long scan (or a long `EXPLAIN ANALYZE`) never blocks a
//!   CREATE TABLE behind it longer than its own bind.
//! * **One statement path**: every read from every entry point
//!   ([`Session::query`], [`Session::execute`], [`Session::explain_analyze`],
//!   [`Prepared::execute`], …) is one call to the private `Shared::run`
//!   with the [`RunMode`] the statement asked for: resolve under the read
//!   lock → execute on the pool → close the trace root, using the same
//!   two `vdm-core` phases `Database` uses.
//! * **Plan cache**: optimized parameterized plans are shared across
//!   sessions through the version-stamped [`PlanCache`] living in
//!   `vdm-core` — this crate never invokes the optimizer itself (a CI
//!   gate enforces it); on a cache miss the core query path optimizes and
//!   fills the cache.
//! * **One worker pool**: all sessions execute on a single long-lived
//!   [`WorkerPool`] (sized from the database's executor thread count)
//!   instead of spawning scoped threads per query, keeping thread counts
//!   flat at high session counts.
//!
//! Prepared statements ([`Session::prepare`]) parse once and pin the
//! statement's canonical shape; each [`Prepared::execute`] is a plan-cache
//! lookup plus parameter substitution. The number of open prepared
//! statements is exported as the `vdm_prepared_statements_open` gauge.
//!
//! **Saturation observability**: every read increments the
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
    apply_statement, execute_resolved, parse_script, parse_select, Database, DbState, Executed,
    PlanCache, QueryEnv, RunMode, StatementResult,
};
use vdm_exec::{with_worker_pool, ParallelConfig, WorkerPool};
use vdm_obs::registry::{self, MetricsRegistry};
use vdm_obs::{names, trace as qtrace, QueryTrace};
use vdm_optimizer::Profile;
use vdm_sql::SelectStmt;
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, Value, VdmError};

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

    /// Runs `f` over the query environment under the state *read* lock
    /// and releases the lock before returning.
    fn with_env<R>(&self, f: impl FnOnce(&QueryEnv<'_>) -> R) -> R {
        let state = self.state.read().unwrap();
        f(&QueryEnv {
            state: &state,
            engine: &self.engine,
            plan_cache: &self.plan_cache,
            parallel: self.parallel(),
        })
    }

    /// The one read path: plan resolution under the read lock, lock-free
    /// execution on the shared worker pool, then the rendering `mode`
    /// asked for. `session` labels per-session counters and the trace
    /// root; [`Prepared`] executions carry their creating session's id.
    /// The finished trace (when this call owned the root) is kept for
    /// [`Server::last_trace`].
    fn run(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
        mode: RunMode,
        session: u64,
    ) -> Result<StatementResult> {
        let reg = MetricsRegistry::global();
        let root = mode.root();
        qtrace::attr("session", session);
        reg.inc(&registry::label(names::SESSION_QUERIES_TOTAL, "session", &session.to_string()), 1);
        if let Some(s) = shape {
            qtrace::attr("shape", format_args!("{s:?}"));
        }
        let _inflight = Inflight::enter();
        let admitted = Instant::now();
        let result = (|| {
            let resolved = match mode {
                // Plans only: nothing to execute.
                RunMode::Explain => {
                    let text = self.with_env(|env| env.explain(sel, params))?;
                    return Ok(StatementResult::Explained(text));
                }
                _ => self.with_env(|env| env.select_plan(sel, shape, params))?,
            };
            let parallel = self.parallel();
            with_worker_pool(&self.pool, || {
                reg.observe(names::QUEUE_WAIT_SECONDS, admitted.elapsed().as_secs_f64());
                let analyze = mode == RunMode::Analyze;
                execute_resolved(&resolved, params, &self.engine, parallel, analyze)
            })
            .map(Executed::into_result)
        })();
        let trace = root.finish();
        let result = mode.finish(result, trace.as_ref());
        if let Some(trace) = trace {
            *self.last_trace.lock().unwrap() = Some(trace);
        }
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

    /// Server over an existing database — the usual path: load data
    /// through the `Database` facade (generators need its exclusive `&mut`
    /// accessors), then convert for serving. The worker pool shared by all
    /// sessions has the database's executor thread count.
    pub fn from_database(db: Database) -> Server {
        let parts = db.into_parts();
        let pool_threads = parts.parallel.threads.max(1);
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
        let (sel, shape, _) = parse_select(sql)?;
        let resolved = self.shared.with_env(|env| env.select_plan(&sel, Some(&shape), &[]))?;
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
        let (sel, shape, _) = parse_select(sql)?;
        self.shared.run(&sel, Some(&shape), params, RunMode::Rows, self.id)?.rows()
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

    /// Executes any single statement. Reads — `SELECT` and every `EXPLAIN`
    /// form — go through the concurrent read path; only DDL and `INSERT`
    /// take the state write lock (the same [`apply_statement`]
    /// `Database::execute` uses).
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let mut results = self.execute_script(sql)?;
        results.pop().ok_or_else(|| VdmError::Exec("no statement executed".into()))
    }

    /// Executes a `;`-separated script, one result per statement.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<StatementResult>> {
        parse_script(sql)?
            .iter()
            .map(|(stmt, shape)| match RunMode::of(stmt, shape.as_deref())? {
                Some((mode, sel, shape)) => self.shared.run(sel, shape, &[], mode, self.id),
                None => {
                    let mut state = self.shared.state.write().unwrap();
                    apply_statement(&mut state, &self.shared.engine, stmt)
                }
            })
            .collect()
    }

    /// EXPLAIN ANALYZE for a SELECT; the header reports whether the plan
    /// came from the shared cache (`[plan cache: hit|miss]`).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (sel, shape, _) = parse_select(sql)?;
        self.shared.run(&sel, Some(&shape), &[], RunMode::Analyze, self.id)?.explained()
    }

    /// Parses and binds a statement once for repeated execution. The
    /// returned handle is independent of this session.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (sel, shape, param_count) = parse_select(sql)?;
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
        self.run(params, RunMode::Rows)?.rows()
    }

    /// EXPLAIN ANALYZE of one execution with the given parameter values.
    pub fn explain_analyze(&self, params: &[Value]) -> Result<String> {
        self.run(params, RunMode::Analyze)?.explained()
    }

    fn run(&self, params: &[Value], mode: RunMode) -> Result<StatementResult> {
        if params.len() != self.param_count {
            return Err(VdmError::Exec(format!(
                "prepared statement expects {} parameter value(s), got {}",
                self.param_count,
                params.len()
            )));
        }
        self.shared.run(&self.select, Some(&self.shape), params, mode, self.session)
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

    /// Every EXPLAIN form is a read: it completes while another session's
    /// bind holds the state read lock. (When EXPLAIN ANALYZE / TRACE ran
    /// under the write lock this blocked until the reader left.)
    #[test]
    fn explain_forms_complete_beside_a_reader() {
        let server = server();
        let session = server.session();
        let reader = server.shared.state.read().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for form in ["explain", "explain analyze", "explain trace"] {
                    let sql = format!("{form} select v from t where k >= 2");
                    tx.send(session.execute(&sql).and_then(StatementResult::explained)).unwrap();
                }
            });
            for header in ["== bound plan", "== EXPLAIN ANALYZE", "== EXPLAIN TRACE"] {
                let text = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("an EXPLAIN form waited for the state write lock")
                    .unwrap();
                assert!(text.starts_with(header), "{text}");
            }
            // DDL is what the write lock is for: it must wait for the reader.
            assert!(server.shared.state.try_write().is_err());
            drop(reader);
        });
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
