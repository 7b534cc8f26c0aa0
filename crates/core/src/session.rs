//! The one statement pipeline: cache-aware plan resolution + execution,
//! with rows / EXPLAIN / EXPLAIN ANALYZE / EXPLAIN TRACE as render modes
//! of the same run.
//!
//! A [`Runtime`] is everything a statement needs besides the bind-time
//! [`DbState`]: storage, cached views, the plan cache and the last trace.
//! Both handles hold one — [`Database`](crate::Database) beside an owned
//! `DbState`, a `vdm-serve` server beside an `RwLock<DbState>` — and every
//! read from either runs through [`Runtime::run`], which takes the state as
//! any `Deref<Target = DbState>` (a plain borrow or a read guard) and
//! releases it between the two phases:
//!
//! 1. [`QueryEnv::select_plan`] — plan-cache lookup by canonical shape,
//!    bind + optimize on a miss, feedback re-optimization on a hit; returns
//!    a [`ResolvedPlan`] carrying the canonical plan digest. The private
//!    `optimize_bound` below is the only place the optimizer runs in
//!    `vdm-core`, `vdm-serve` and `vdm-cache` (a CI gate enforces it), so
//!    every door — `query`, every `EXPLAIN` form, `optimized_plan`,
//!    cached-view creation — sees storage statistics and gets the plan the
//!    next execution runs;
//! 2. `execute_resolved` — parameter substitution, morsel execution,
//!    metrics recording, and (when the [`QueryStore`] is enabled)
//!    per-digest history recording with slow-query capture.
//!
//! Plain `EXPLAIN` renders the resolved plan under the state instead of
//! executing it.
//!
//! Both phases emit [`vdm_obs::trace`] spans, so a query running under an
//! active trace contributes `select_plan` → `plan_cache.lookup` / `bind` /
//! `optimize` and `execute` spans to one causal tree.

use crate::feedback::{self, EngineStats};
use crate::plan_cache::{CachedPlan, PlanCache, PlanCacheKey};
use crate::state::DbState;
use crate::StatementResult;
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vdm_cache::{CacheMode, CachedView, ViewCache};
use vdm_exec::{ExecOptions, Execution, Metrics, NodeIndex, ParallelConfig, QueryProfile};
use vdm_obs::trace as qtrace;
use vdm_obs::util::fmt_nanos;
use vdm_obs::{names, ExecRecord, FeedbackProvider, MetricsRegistry, QueryStore, QueryTrace};
use vdm_optimizer::{Capability, Trace};
use vdm_plan::{plan_stats, CardOverrides, PlanRef};
use vdm_sql::{SelectStmt, Statement};
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, SqlType, Value, VdmError};

/// What a read statement asked for. Not a setting: `SELECT` is `Rows`,
/// and each `EXPLAIN` form is a different rendering of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The result rows.
    Rows,
    /// Bound + optimized plan and the optimizer's pass trace; nothing runs.
    Explain,
    /// The optimized plan annotated with the run's per-operator profile.
    Analyze,
    /// The span tree of the run, under a forced trace.
    Trace,
}

impl RunMode {
    /// Splits a read statement into the mode it asked for, its SELECT, and
    /// the SELECT's own canonical shape (the `EXPLAIN …` prefix stripped,
    /// so every mode shares plan-cache entries with the bare statement).
    /// `None` for statements that mutate state.
    pub fn of<'a>(
        stmt: &'a Statement,
        shape: Option<&'a str>,
    ) -> Result<Option<(RunMode, &'a SelectStmt, Option<&'a str>)>> {
        let (mode, inner, prefix) = match stmt {
            Statement::Select(sel) => return Ok(Some((RunMode::Rows, sel, shape))),
            Statement::Explain(inner) => (RunMode::Explain, inner, "explain "),
            Statement::ExplainAnalyze(inner) => (RunMode::Analyze, inner, "explain analyze "),
            Statement::ExplainTrace(inner) => (RunMode::Trace, inner, "explain trace "),
            _ => return Ok(None),
        };
        let Statement::Select(sel) = inner.as_ref() else {
            return Err(VdmError::Unsupported(format!(
                "{}supports SELECT only",
                prefix.to_ascii_uppercase()
            )));
        };
        Ok(Some((mode, sel, shape.map(|s| s.strip_prefix(prefix).unwrap_or(s)))))
    }

    /// Opens the statement's trace root (forced for `EXPLAIN TRACE`, which
    /// must trace even when automatic tracing is off).
    fn root(self) -> qtrace::RootGuard {
        if self == RunMode::Trace {
            qtrace::root_forced("query")
        } else {
            qtrace::root("query")
        }
    }

    /// Final rendering once the root is closed: `EXPLAIN TRACE` swaps the
    /// rows for the span tree, every other mode passes through.
    fn finish(
        self,
        result: Result<StatementResult>,
        trace: Option<&QueryTrace>,
    ) -> Result<StatementResult> {
        match (self, result?) {
            (RunMode::Trace, StatementResult::Rows(batch)) => {
                let rendered = trace
                    .map(|t| t.render())
                    .unwrap_or_else(|| "(trace owned by an enclosing trace scope)\n".to_string());
                Ok(StatementResult::Explained(format!(
                    "== EXPLAIN TRACE ==\n{rendered}{} row(s) returned\n",
                    batch.num_rows()
                )))
            }
            (_, other) => Ok(other),
        }
    }
}

/// Parses exactly one SELECT: the statement, its canonical shape (the
/// plan-cache key) and the number of placeholder parameters it references.
pub fn parse_select(sql: &str) -> Result<(SelectStmt, String, usize)> {
    let (Statement::Select(sel), param_count) = vdm_sql::parse_one_with_params(sql)? else {
        return Err(VdmError::Bind("expected a SELECT; use execute() for other statements".into()));
    };
    Ok((sel, vdm_sql::canonical_shape(sql)?, param_count))
}

/// Parses a `;`-separated script into statements paired with their
/// canonical shapes. Statement texts and shapes come from the same lexer
/// split; a count mismatch (never expected) just bypasses the plan cache.
pub fn parse_script(sql: &str) -> Result<Vec<(Statement, Option<String>)>> {
    let stmts = vdm_sql::parse(sql)?;
    let shapes = vdm_sql::canonical_shapes(sql).unwrap_or_default();
    let shapes: Vec<Option<String>> = if shapes.len() == stmts.len() {
        shapes.into_iter().map(Some).collect()
    } else {
        vec![None; stmts.len()]
    };
    Ok(stmts.into_iter().zip(shapes).collect())
}

/// How a plan was obtained, reported in EXPLAIN ANALYZE headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the plan cache.
    Hit,
    /// Bound and optimized now, then cached.
    Miss,
    /// The caller had no statement shape (a script whose statements and
    /// shapes could not be aligned), so the cache was not consulted.
    Bypass,
}

impl CacheOutcome {
    /// The `[plan cache: ...]` header token.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// A fully resolved SELECT: the optimized (still parameterized) plan plus
/// everything downstream consumers need — the optimizer trace for
/// EXPLAIN, the cache outcome for headers and store hit/miss accounting,
/// and the canonical plan digest that keys the [`QueryStore`].
pub struct ResolvedPlan {
    pub plan: PlanRef,
    pub trace: Trace,
    pub outcome: CacheOutcome,
    /// `plan_digest_canonical` of the optimized plan (cached alongside
    /// the plan, so cache hits don't re-hash).
    pub digest: u64,
    /// Canonical statement shape; empty for shapeless (bypass) plans.
    pub shape: String,
    /// Per-node cardinality estimates (pre-order node id → rows) of the
    /// optimized plan; empty when the entry point computed none (bypass).
    pub estimates: Vec<(u32, u64)>,
}

/// Runtime types of parameter values, in placeholder order. NULL carries
/// no type; it binds as the same default the binder gives a bare NULL
/// literal (INT, nullable).
pub fn param_types_of(values: &[Value]) -> Vec<SqlType> {
    values.iter().map(|v| v.sql_type().unwrap_or(SqlType::Int)).collect()
}

/// Borrowed view of everything one SELECT needs, constructed per query from
/// a [`Runtime`] and whatever state the handle holds.
pub struct QueryEnv<'a> {
    pub state: &'a DbState,
    pub engine: &'a StorageEngine,
    pub plan_cache: &'a PlanCache,
    pub parallel: ParallelConfig,
}

impl QueryEnv<'_> {
    /// Resolves the optimized (still parameterized) plan for `sel`:
    /// plan-cache lookup when a canonical `shape` is supplied, bind +
    /// optimize + cache-fill on a miss, straight bind + optimize when no
    /// shape is available.
    pub fn select_plan(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<ResolvedPlan> {
        let _sp = qtrace::span("select_plan");
        let types = param_types_of(params);
        let Some(shape) = shape else {
            let (plan, trace) = self.optimize_bound(&self.bind(sel, &types)?, None)?;
            let digest = vdm_plan::plan_digest_canonical(&plan);
            qtrace::attr("cache", CacheOutcome::Bypass.label());
            qtrace::attr("digest", format_args!("{digest:016x}"));
            return Ok(ResolvedPlan {
                plan,
                trace,
                outcome: CacheOutcome::Bypass,
                digest,
                shape: String::new(),
                estimates: vec![],
            });
        };
        let key = PlanCacheKey {
            shape: shape.to_string(),
            profile: self.state.profile_fingerprint(),
            param_types: types.clone(),
        };
        let version = self.state.version();
        let cached = {
            let _lookup = qtrace::span("plan_cache.lookup");
            let cached = self.plan_cache.get(&key, version);
            qtrace::attr("outcome", if cached.is_some() { "hit" } else { "miss" });
            cached
        };
        let Some(cached) = cached else {
            return self.plan_and_cache(sel, &types, key, version, None);
        };
        if let Some(reoptimized) = self.maybe_reoptimize(sel, &types, &key, version, &cached)? {
            return Ok(reoptimized);
        }
        qtrace::attr("digest", format_args!("{:016x}", cached.digest));
        Ok(ResolvedPlan {
            plan: cached.plan.clone(),
            trace: cached.trace.clone(),
            outcome: CacheOutcome::Hit,
            digest: cached.digest,
            shape: shape.to_string(),
            estimates: cached.estimates.clone(),
        })
    }

    /// Feedback-driven re-optimization on a plan-cache hit: when the query
    /// store has observed per-node cardinalities for this digest and the
    /// worst node misestimate exceeds
    /// [`feedback::REOPT_WORST_RATIO_THRESHOLD`], the statement is
    /// re-optimized with the observed values as overriding estimates and
    /// the cache entry replaced under the same key. Returns `None` when the
    /// cached plan stands (no evidence, small misestimate, or the
    /// capability is off).
    fn maybe_reoptimize(
        &self,
        sel: &SelectStmt,
        types: &[SqlType],
        key: &PlanCacheKey,
        version: u64,
        cached: &CachedPlan,
    ) -> Result<Option<ResolvedPlan>> {
        if cached.estimates.is_empty()
            || !self.state.optimizer.profile().has(Capability::CostBasedJoinOrdering)
        {
            return Ok(None);
        }
        let store = QueryStore::global();
        if !store.enabled() {
            return Ok(None);
        }
        let Some(observed) = store.observed(cached.digest) else {
            return Ok(None);
        };
        let Some((ratio, node)) =
            feedback::worst_misestimate(&cached.estimates, &observed.node_rows)
        else {
            return Ok(None);
        };
        if ratio <= feedback::REOPT_WORST_RATIO_THRESHOLD {
            return Ok(None);
        }
        let _sp = qtrace::span("reoptimize");
        qtrace::attr("worst_ratio", format_args!("{ratio:.1}"));
        qtrace::attr("node", node);
        // Estimates for the new entry are computed *with* the overrides, so
        // they agree with the observed history and the loop settles: the
        // next hit sees est ≈ act and keeps the corrected plan.
        let overrides = feedback::overrides_from_observed(&cached.plan, &observed.node_rows);
        let resolved = self.plan_and_cache(sel, types, key.clone(), version, Some(&overrides))?;
        MetricsRegistry::global().inc(names::REOPTIMIZATIONS_TOTAL, 1);
        Ok(Some(resolved))
    }

    /// Bind + optimize + cache-fill: the miss path, and (with observed
    /// cardinalities as `overrides`) the re-optimization path.
    fn plan_and_cache(
        &self,
        sel: &SelectStmt,
        types: &[SqlType],
        key: PlanCacheKey,
        version: u64,
        overrides: Option<&CardOverrides>,
    ) -> Result<ResolvedPlan> {
        let (plan, trace) = self.optimize_bound(&self.bind(sel, types)?, overrides)?;
        let digest = vdm_plan::plan_digest_canonical(&plan);
        qtrace::attr("digest", format_args!("{digest:016x}"));
        let stats = EngineStats::new(self.engine);
        let opts = self.state.optimizer.profile().derive_options();
        let estimates = feedback::estimates_with(&plan, &stats, opts, overrides);
        let shape = key.shape.clone();
        self.plan_cache.insert(
            key,
            Arc::new(CachedPlan {
                plan: plan.clone(),
                trace: trace.clone(),
                version,
                digest,
                estimates: estimates.clone(),
            }),
        );
        Ok(ResolvedPlan { plan, trace, outcome: CacheOutcome::Miss, digest, shape, estimates })
    }

    fn bind(&self, sel: &SelectStmt, param_types: &[SqlType]) -> Result<PlanRef> {
        let _bind = qtrace::span("bind");
        self.state.binder().with_param_types(param_types).bind_select(sel)
    }

    /// The one optimizer call behind every statement: the active profile's
    /// rules, then — because statistics are supplied — the physical passes:
    /// scans narrowed to the columns the statement touches and cost-based
    /// join ordering against current storage statistics (and any feedback
    /// `overrides`).
    fn optimize_bound(
        &self,
        bound: &PlanRef,
        overrides: Option<&CardOverrides>,
    ) -> Result<(PlanRef, Trace)> {
        let _opt = qtrace::span("optimize");
        let stats = EngineStats::new(self.engine);
        let optimized =
            self.state.optimizer.optimize_traced_with(bound, Some(&stats), overrides)?;
        // The per-pass split (`*` = the pass changed the plan), for a trace
        // someone asked for: otherwise a pass costs its `Instant` pair.
        if qtrace::explicit() {
            for &(round, pass, nanos, changed) in &optimized.1.passes {
                let (us, mark) = (nanos as f64 / 1e3, if changed { "*" } else { "" });
                qtrace::attr(&format!("r{round}[{pass}]"), format_args!("{us:.1}us{mark}"));
            }
        }
        Ok(optimized)
    }

    /// `EXPLAIN` text for a SELECT: the bound plan and the `resolved` one —
    /// what the next execution runs — (one `[est=N]` cardinality annotation
    /// per node, estimated against current storage statistics) with
    /// operator-count summaries, then the trace of the optimization that
    /// produced it. Nothing executes.
    fn explain(
        &self,
        sel: &SelectStmt,
        params: &[Value],
        resolved: &ResolvedPlan,
    ) -> Result<String> {
        let bound = self.bind(sel, &param_types_of(params))?;
        let (before, after) = (plan_stats(&bound), plan_stats(&resolved.plan));
        let stats = EngineStats::new(self.engine);
        let props = vdm_plan::PropertyCache::new();
        let opts = self.state.optimizer.profile().derive_options();
        let card = vdm_plan::Cardinality::new(&props, opts).with_stats(&stats);
        Ok(format!(
            "== bound plan ({} tables, {} joins) ==\n{}\n== optimized plan ({} tables, {} joins) ==\n{}\n== optimizer trace ==\n{}",
            before.table_instances,
            before.joins,
            vdm_plan::explain(&bound),
            after.table_instances,
            after.joins,
            vdm_plan::explain_with_estimates(&resolved.plan, &card),
            resolved.trace.render(),
        ))
    }
}

/// Everything a statement needs besides the bind-time [`DbState`]: storage,
/// the cached views, the plan cache and the last finished trace. The
/// executor configuration is the one cell `views` shares with every view
/// ([`ViewCache::parallelism`]). Engine and caches are internally
/// synchronized, so a serving layer shares one `Runtime` without a lock.
pub struct Runtime {
    pub engine: StorageEngine,
    pub views: ViewCache,
    pub plan_cache: PlanCache,
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

impl Runtime {
    /// An empty runtime whose plan cache holds `plan_cache_capacity` plans.
    pub(crate) fn new(plan_cache_capacity: usize) -> Runtime {
        Runtime {
            engine: StorageEngine::new(),
            views: ViewCache::new(),
            plan_cache: PlanCache::new(plan_cache_capacity),
            last_trace: Mutex::new(None),
        }
    }

    /// The executor configuration every query and view maintenance runs
    /// under.
    pub(crate) fn parallelism(&self) -> ParallelConfig {
        self.views.parallelism()
    }

    /// The query environment over `state` and this runtime.
    pub(crate) fn env<'a>(&'a self, state: &'a DbState) -> QueryEnv<'a> {
        QueryEnv {
            state,
            engine: &self.engine,
            plan_cache: &self.plan_cache,
            parallel: self.parallelism(),
        }
    }

    /// The one read body: runs `sel` and renders what `mode` asked for,
    /// under a trace root of its own attributed to `session`. The plan is
    /// resolved under `state` (plain `EXPLAIN` is rendered there too); the
    /// state is released before execution, and the time from admission to
    /// execution start is the queue wait. A trace this call owned is kept
    /// for [`Runtime::last_trace`].
    pub fn run(
        &self,
        state: impl Deref<Target = DbState>,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
        mode: RunMode,
        session: u64,
    ) -> Result<StatementResult> {
        let root = mode.root();
        qtrace::attr("session", session);
        if let Some(shape) = shape {
            qtrace::attr("shape", format_args!("{shape:?}"));
        }
        let _inflight = Inflight::enter();
        let admitted = Instant::now();
        let result = (move || {
            let env = self.env(&state);
            let resolved = env.select_plan(sel, shape, params)?;
            if mode == RunMode::Explain {
                return env.explain(sel, params, &resolved).map(StatementResult::Explained);
            }
            let parallel = env.parallel;
            drop(state);
            let reg = MetricsRegistry::global();
            reg.observe(names::QUEUE_WAIT_SECONDS, admitted.elapsed().as_secs_f64());
            let analyze = mode == RunMode::Analyze;
            execute_resolved(&resolved, params, &self.engine, parallel, analyze)
                .map(Executed::into_result)
        })();
        let trace = root.finish();
        let result = mode.finish(result, trace.as_ref());
        if let Some(trace) = trace {
            self.keep_trace(trace);
        }
        result
    }

    /// The most recent trace a read on this runtime owned, or one kept with
    /// [`Runtime::keep_trace`].
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.last_trace.lock().unwrap().clone()
    }

    /// Keeps `trace` as the [`Runtime::last_trace`].
    pub fn keep_trace(&self, trace: QueryTrace) {
        *self.last_trace.lock().unwrap() = Some(trace);
    }

    /// Creates a cached (materialized) view over a SELECT: the plan
    /// [`Runtime::run`] would execute, resolved under `state`, materialized
    /// after `state` is released.
    pub fn create_cached_view(
        &self,
        state: impl Deref<Target = DbState>,
        name: &str,
        sql: &str,
        mode: CacheMode,
    ) -> Result<Arc<CachedView>> {
        let (sel, shape, _) = parse_select(sql)?;
        let plan = self.env(&state).select_plan(&sel, Some(&shape), &[])?.plan;
        drop(state);
        self.views.register(name, plan, mode, &self.engine)
    }

    /// A registered cached view, or an error naming the unknown one.
    pub(crate) fn view(&self, name: &str) -> Result<Arc<CachedView>> {
        self.views
            .get(name)
            .ok_or_else(|| VdmError::Catalog(format!("unknown cached view {name:?}")))
    }

    /// Reads a cached view (SCV: last refresh; DCV: maintained first).
    pub fn read_cached(&self, name: &str) -> Result<Arc<Batch>> {
        self.view(name)?.read(&self.engine)
    }

    /// Maintains every static cached view (the periodic refresh tick).
    /// Readers of those views are only blocked for the `Arc` swap, never
    /// for the maintenance.
    pub fn refresh_cached_views(&self) -> Result<usize> {
        self.views.refresh_all_static(&self.engine)
    }
}

/// One finished execution of a resolved plan.
struct Executed {
    batch: Batch,
    /// The EXPLAIN ANALYZE rendering, when the run was asked to `analyze`.
    analyze: Option<String>,
}

impl Executed {
    /// The EXPLAIN ANALYZE text when one was asked for, the rows otherwise.
    fn into_result(self) -> StatementResult {
        match self.analyze {
            Some(text) => StatementResult::Explained(text),
            None => StatementResult::Rows(self.batch),
        }
    }
}

/// Phase 2, the one place a statement executes: splices `params` into the
/// resolved plan, runs it on the morsel executor, and records query
/// metrics plus (when enabled) the per-digest [`QueryStore`] history — all
/// read from the one per-node profile every execution records. Needs no
/// access to [`DbState`] — [`Runtime::run`] calls this after releasing the
/// state. The EXPLAIN ANALYZE text is rendered from that profile when
/// `analyze` asks for it or the execution is over the store's slow
/// threshold (the slow-query log must not re-run a query to describe it).
fn execute_resolved(
    resolved: &ResolvedPlan,
    params: &[Value],
    engine: &StorageEngine,
    parallel: ParallelConfig,
    analyze: bool,
) -> Result<Executed> {
    let _sp = qtrace::span("execute");
    let bound = vdm_plan::bind_params(&resolved.plan, params)?;
    let store = QueryStore::global();
    let start = Instant::now();
    let opts = ExecOptions { snapshot: None, parallel };
    let Execution { batch, profile, workers } = vdm_exec::execute_with(&bound, engine, &opts)?;
    let elapsed = start.elapsed();
    let metrics = Metrics::roll_up(&bound, &profile);
    // A plan-cache hit carries the trace of the optimization that filled the
    // entry; only an optimization that ran for this statement is reported.
    let optimized = (resolved.outcome != CacheOutcome::Hit).then_some(&resolved.trace);
    record_query(&metrics, &profile, optimized, elapsed);
    qtrace::attr("rows", batch.num_rows());
    qtrace::attr("workers", workers);
    let latency_nanos = elapsed.as_nanos() as u64;
    let slow = store.enabled() && latency_nanos >= store.slow_threshold_nanos();
    let text = (analyze || slow).then(|| {
        render_explain_analyze(
            &bound,
            resolved,
            &profile,
            &metrics,
            batch.num_rows(),
            latency_nanos,
            workers,
        )
    });
    if store.enabled() {
        store.record(ExecRecord {
            digest: resolved.digest,
            shape: resolved.shape.clone(),
            latency_nanos,
            rows_in: metrics.rows_scanned as u64,
            rows_out: batch.num_rows() as u64,
            cache_hit: resolved.outcome == CacheOutcome::Hit,
            workers: workers as u32,
            node_rows: profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out)).collect(),
            node_est: resolved.estimates.clone(),
            explain: text.clone(),
        });
    }
    Ok(Executed { batch, analyze: text.filter(|_| analyze) })
}

/// Phase 2 for a plan resolved outside [`Runtime::run`]: executes it with
/// `params` and returns the rows.
pub fn execute_select(
    resolved: &ResolvedPlan,
    params: &[Value],
    engine: &StorageEngine,
    parallel: ParallelConfig,
) -> Result<Batch> {
    Ok(execute_resolved(resolved, params, engine, parallel, false)?.batch)
}

/// Renders the full EXPLAIN ANALYZE text from an already-collected
/// profile. The resolved plan's cache outcome feeds the
/// `[plan cache: ...]` header token.
fn render_explain_analyze(
    bound: &PlanRef,
    resolved: &ResolvedPlan,
    profile: &QueryProfile,
    metrics: &Metrics,
    rows_returned: usize,
    elapsed_nanos: u64,
    workers: usize,
) -> String {
    let annotated = render_analyzed(bound, &NodeIndex::new(bound), profile, &resolved.estimates);
    let observed: Vec<(u32, f64)> =
        profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out as f64)).collect();
    let misestimate = feedback::worst_misestimate(&resolved.estimates, &observed)
        .filter(|(ratio, _)| *ratio >= 1.05)
        .map(|(ratio, node)| format!("[misestimate: worst \u{d7}{ratio:.1} at node #{node}]\n"))
        .unwrap_or_default();
    format!(
        "== EXPLAIN ANALYZE ({} thread(s)) [plan cache: {}] ==\n{}{}\n{}== rewrite trace ==\n{}== execution summary ==\n{} row(s) returned, elapsed time={}\nrows scanned: {}, join probe rows: {}, rows joined: {}, operators: {}\npipelines: {}, dispatched: {}\n",
        workers,
        resolved.outcome.label(),
        misestimate,
        resolved.trace.render_opt_stats(),
        annotated,
        resolved.trace.render_events(),
        rows_returned,
        fmt_nanos(elapsed_nanos),
        metrics.rows_scanned,
        metrics.join_probe_rows,
        metrics.join_output_rows,
        metrics.operators,
        profile.pipelines,
        profile.dispatched,
    )
}

/// Renders `plan` with one `[#id est=... act=... in=... time=...]`
/// annotation per node (plain `rows=` when no estimate exists for the
/// node; `in=` is the input the operator recorded, shown for non-leaves).
fn render_analyzed(
    plan: &PlanRef,
    index: &NodeIndex,
    profile: &QueryProfile,
    estimates: &[(u32, u64)],
) -> String {
    let est: std::collections::HashMap<u32, u64> = estimates.iter().copied().collect();
    vdm_plan::explain_annotated(plan, &|node| {
        let id = index.id_of(node)?;
        Some(match profile.nodes.get(&id) {
            Some(s) => {
                let mut note = match est.get(&(id as u32)) {
                    Some(e) => format!("[#{id} est={e} act={}", s.rows_out),
                    None => format!("[#{id} rows={}", s.rows_out),
                };
                if !node.children().is_empty() {
                    note.push_str(&format!(" in={}", s.rows_in));
                }
                note.push_str(&format!(" time={} calls={}", fmt_nanos(s.nanos), s.invocations));
                if s.workers > 1 {
                    note.push_str(&format!(" workers={}", s.workers));
                }
                note.push(']');
                note
            }
            // LIMIT budgets can satisfy a query before some subtrees run.
            None => format!("[#{id} not executed]"),
        })
    })
}

/// Feeds one query's counters into the process-wide metrics registry;
/// `optimized` is the trace of the optimization this statement ran, if any.
fn record_query(
    metrics: &Metrics,
    profile: &QueryProfile,
    optimized: Option<&Trace>,
    elapsed: std::time::Duration,
) {
    let reg = MetricsRegistry::global();
    reg.inc(names::QUERIES_TOTAL, 1);
    reg.observe(names::QUERY_SECONDS, elapsed.as_secs_f64());
    reg.inc(names::ROWS_SCANNED_TOTAL, metrics.rows_scanned as u64);
    reg.inc(names::ROWS_JOINED_TOTAL, metrics.join_output_rows as u64);
    reg.inc(names::MORSEL_STEALS_TOTAL, profile.morsel_steals);
    reg.inc(names::MORSEL_SIZE_BYTES, profile.morsel_bytes);
    let Some(trace) = optimized else { return };
    reg.observe(names::OPTIMIZE_SECONDS, trace.optimize_nanos as f64 / 1e9);
    for (rule, n) in trace.hit_counts() {
        reg.inc(&vdm_obs::registry::label(names::REWRITE_FIRED_TOTAL, "rule", rule), n);
    }
}
