//! `vdm-serve`: the concurrent multi-session serving layer.
//!
//! A paper-shaped VDM deployment is many ERP users paging through the same
//! browser views at once — the same handful of statement *shapes*, re-run
//! with different parameter values, from hundreds of sessions. A [`Server`]
//! is the second handle on the runtime a [`vdm_core::Database`] holds:
//! [`Server::from_database`] moves the database's [`DbState`] and
//! [`Runtime`] out and shares them.
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
//!   [`Prepared::execute`], …) is one call to [`Runtime::run`] — the body
//!   `Database` runs too — over a read guard of the state, with the
//!   [`RunMode`] the statement asked for and the session's id.
//! * **Plan cache**: optimized parameterized plans are shared across
//!   sessions through the runtime's version-stamped [`PlanCache`] — this
//!   crate never invokes the optimizer itself (a CI gate enforces it).
//! * **One worker pool**: every wave a query or a view maintenance
//!   dispatches is broadcast on the process-wide pool `vdm-exec` keeps,
//!   so thread counts stay flat at high session counts.
//!
//! Prepared statements ([`Session::prepare`]) parse once and pin the
//! statement's canonical shape; each [`Prepared::execute`] is a plan-cache
//! lookup plus parameter substitution. The number of open prepared
//! statements is exported as the `vdm_prepared_statements_open` gauge.
//!
//! **Saturation observability**: every read increments the
//! `vdm_inflight_queries` gauge for its lifetime and records the time
//! between admission and execution start in the `vdm_queue_wait_seconds`
//! histogram; open sessions are counted by `vdm_sessions_open`. Each
//! query's root span carries its `session` id, so the registry holds no
//! per-session series. [`Server::last_trace`] (or [`Session::with_trace`],
//! which forces tracing and scoops multiple statements into one causal
//! tree) yields the span tree covering plan-cache lookup, bind, execution,
//! and any cached-view maintenance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use vdm_cache::{CacheMode, CachedView};
use vdm_core::{
    apply_statement, parse_script, parse_select, Database, DbState, PlanCache, RunMode, Runtime,
    StatementResult,
};
use vdm_obs::registry::MetricsRegistry;
use vdm_obs::{names, trace as qtrace, QueryTrace};
use vdm_optimizer::Profile;
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, Value, VdmError};

/// Everything the sessions share. Lock granularity is the whole design:
/// `state` guards only what bind/optimize reads; the runtime (engine, plan
/// cache, cached views) is internally synchronized and never sits behind
/// the state lock.
struct Shared {
    state: RwLock<DbState>,
    rt: Runtime,
    next_session: AtomicU64,
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
    /// accessors), then convert for serving. The runtime moves over as is:
    /// plan cache, cached views and executor configuration included.
    pub fn from_database(db: Database) -> Server {
        let (state, rt) = db.into();
        Server {
            shared: Arc::new(Shared {
                state: RwLock::new(state),
                rt,
                next_session: AtomicU64::new(1),
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
        self.shared.rt.last_trace()
    }

    /// Swaps the optimizer profile for every session. Takes the state
    /// write lock, so it serializes against in-flight binds; plans cached
    /// under other profiles stop matching (the profile fingerprint is part
    /// of the cache key).
    pub fn set_profile(&self, profile: Profile) {
        self.shared.state.write().unwrap().set_profile(profile);
    }

    /// The shared plan cache (stats, capacity).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.rt.plan_cache
    }

    /// Storage access (for data loaders and assertions).
    pub fn engine(&self) -> &StorageEngine {
        &self.shared.rt.engine
    }

    /// Creates a cached (materialized) view over a SELECT. The plan is
    /// resolved through the shared query path (and plan cache) under the
    /// state read lock, then materialized without holding it.
    pub fn create_cached_view(
        &self,
        name: &str,
        sql: &str,
        mode: CacheMode,
    ) -> Result<Arc<CachedView>> {
        self.shared.rt.create_cached_view(self.shared.state.read().unwrap(), name, sql, mode)
    }

    /// Looks up a cached view.
    pub fn cached_view(&self, name: &str) -> Option<Arc<CachedView>> {
        self.shared.rt.views.get(name)
    }

    /// Refreshes every static cached view. Runs outside the state lock;
    /// concurrent readers of those views only block for the `Arc` swap.
    pub fn refresh_cached_views(&self) -> Result<usize> {
        self.shared.rt.refresh_cached_views()
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
        let state = self.shared.state.read().unwrap();
        self.shared.rt.run(state, &sel, Some(&shape), params, RunMode::Rows, self.id)?.rows()
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
            self.shared.rt.keep_trace(t.clone());
        }
        (out, trace)
    }

    /// The span tree of the most recently traced query on this server.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.shared.rt.last_trace()
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
        let Shared { state, rt, .. } = &*self.shared;
        parse_script(sql)?
            .iter()
            .map(|(stmt, shape)| match RunMode::of(stmt, shape.as_deref())? {
                Some((mode, sel, shape)) => {
                    rt.run(state.read().unwrap(), sel, shape, &[], mode, self.id)
                }
                None => apply_statement(&mut state.write().unwrap(), &rt.engine, stmt),
            })
            .collect()
    }

    /// EXPLAIN ANALYZE for a SELECT; the header reports whether the plan
    /// came from the shared cache (`[plan cache: hit|miss]`).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (sel, shape, _) = parse_select(sql)?;
        let state = self.shared.state.read().unwrap();
        self.shared.rt.run(state, &sel, Some(&shape), &[], RunMode::Analyze, self.id)?.explained()
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
        self.shared.rt.read_cached(name)
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
    select: vdm_sql::SelectStmt,
    shape: String,
    param_count: usize,
    /// Id of the creating session, which its executions are attributed to.
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
        let state = self.shared.state.read().unwrap();
        self.shared.rt.run(state, &self.select, Some(&self.shape), params, mode, self.session)
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
