//! The shared query path: cache-aware plan resolution + execution.
//!
//! Both [`Database`](crate::Database) (single owner, `&mut self` facade)
//! and `vdm-serve` sessions (many concurrent handles over shared state)
//! run SELECTs through [`QueryEnv`]. The pipeline splits in two so a
//! serving layer can drop its read lock on [`DbState`](crate::DbState)
//! before execution starts:
//!
//! 1. [`QueryEnv::select_plan`] — plan-cache lookup by canonical shape,
//!    bind + optimize on a miss (the only place `optimize` runs); returns
//!    a [`ResolvedPlan`] carrying the canonical plan digest;
//! 2. [`execute_select`] — parameter substitution, parallel execution,
//!    metrics recording, and (when the [`QueryStore`] is enabled)
//!    per-digest history recording with slow-query capture.
//!
//! Both phases emit [`vdm_obs::trace`] spans, so a query running under an
//! active trace contributes `select_plan` → `plan_cache.lookup` / `bind` /
//! `optimize` and `execute` spans to one causal tree.

use crate::feedback::{self, EngineStats};
use crate::plan_cache::{CachedPlan, PlanCache, PlanCacheKey};
use crate::state::DbState;
use std::sync::Arc;
use std::time::Instant;
use vdm_exec::{ExecOptions, Execution, Metrics, NodeIndex, ParallelConfig, QueryProfile};
use vdm_obs::trace as qtrace;
use vdm_obs::{names, ExecRecord, FeedbackProvider, MetricsRegistry, QueryStore};
use vdm_optimizer::{Capability, Trace};
use vdm_plan::{CardOverrides, PlanRef};
use vdm_sql::SelectStmt;
use vdm_storage::{Batch, StorageEngine};
use vdm_types::{Result, SqlType, Value};

/// How a plan was obtained, reported in EXPLAIN ANALYZE headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the plan cache.
    Hit,
    /// Bound and optimized now, then cached.
    Miss,
    /// The entry point had no statement shape (e.g. a prebuilt plan), so
    /// the cache was not consulted.
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

impl ResolvedPlan {
    /// Wraps an already-optimized plan that never saw the plan cache
    /// (prebuilt plans, script fragments).
    pub fn bypass(plan: PlanRef, trace: Trace) -> ResolvedPlan {
        let digest = vdm_plan::plan_digest_canonical(&plan);
        ResolvedPlan {
            plan,
            trace,
            outcome: CacheOutcome::Bypass,
            digest,
            shape: String::new(),
            estimates: vec![],
        }
    }
}

/// Runtime types of parameter values, in placeholder order. NULL carries
/// no type; it binds as the same default the binder gives a bare NULL
/// literal (INT, nullable).
pub fn param_types_of(values: &[Value]) -> Vec<SqlType> {
    values.iter().map(|v| v.sql_type().unwrap_or(SqlType::Int)).collect()
}

/// Borrowed view of everything one SELECT needs. Constructed per query —
/// by `Database` from its own fields, by `vdm-serve` from a read-locked
/// [`DbState`] plus its shared engine/cache.
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
    /// shape is available (script fragments, prebuilt ASTs).
    pub fn select_plan(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<ResolvedPlan> {
        let _sp = qtrace::span("select_plan");
        let types = param_types_of(params);
        let Some(shape) = shape else {
            let (plan, trace) = self.bind_and_optimize(sel, &types, None)?;
            let resolved = ResolvedPlan::bypass(plan, trace);
            qtrace::attr("cache", CacheOutcome::Bypass.label());
            qtrace::attr("digest", format_args!("{:016x}", resolved.digest));
            return Ok(resolved);
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
        if let Some(cached) = cached {
            if let Some(reoptimized) =
                self.maybe_reoptimize(sel, shape, &types, &key, version, &cached)?
            {
                return Ok(reoptimized);
            }
            qtrace::attr("digest", format_args!("{:016x}", cached.digest));
            return Ok(ResolvedPlan {
                plan: cached.plan.clone(),
                trace: cached.trace.clone(),
                outcome: CacheOutcome::Hit,
                digest: cached.digest,
                shape: shape.to_string(),
                estimates: cached.estimates.clone(),
            });
        }
        let (plan, trace) = self.bind_and_optimize(sel, &types, None)?;
        let digest = vdm_plan::plan_digest_canonical(&plan);
        qtrace::attr("digest", format_args!("{digest:016x}"));
        let estimates = self.estimate_nodes(&plan, None);
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
        Ok(ResolvedPlan {
            plan,
            trace,
            outcome: CacheOutcome::Miss,
            digest,
            shape: shape.to_string(),
            estimates,
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
        shape: &str,
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
        let overrides = feedback::overrides_from_observed(&cached.plan, &observed.node_rows);
        let (plan, trace) = self.bind_and_optimize(sel, types, Some(&overrides))?;
        let digest = vdm_plan::plan_digest_canonical(&plan);
        qtrace::attr("digest", format_args!("{digest:016x}"));
        // Estimates for the new entry are computed *with* the overrides, so
        // they agree with the observed history and the loop settles: the
        // next hit sees est ≈ act and keeps the corrected plan.
        let estimates = self.estimate_nodes(&plan, Some(&overrides));
        MetricsRegistry::global().inc(names::REOPTIMIZATIONS_TOTAL, 1);
        self.plan_cache.insert(
            key.clone(),
            Arc::new(CachedPlan {
                plan: plan.clone(),
                trace: trace.clone(),
                version,
                digest,
                estimates: estimates.clone(),
            }),
        );
        Ok(Some(ResolvedPlan {
            plan,
            trace,
            outcome: CacheOutcome::Miss,
            digest,
            shape: shape.to_string(),
            estimates,
        }))
    }

    fn bind_and_optimize(
        &self,
        sel: &SelectStmt,
        param_types: &[SqlType],
        overrides: Option<&CardOverrides>,
    ) -> Result<(PlanRef, Trace)> {
        let bound = {
            let _bind = qtrace::span("bind");
            self.state.binder().with_param_types(param_types).bind_select(sel)?
        };
        let _opt = qtrace::span("optimize");
        let stats = EngineStats::new(self.engine);
        self.state.optimizer.optimize_traced_with(&bound, Some(&stats), overrides)
    }

    /// Per-node estimates of an optimized plan against current storage
    /// statistics (plus any feedback overrides).
    fn estimate_nodes(&self, plan: &PlanRef, overrides: Option<&CardOverrides>) -> Vec<(u32, u64)> {
        let stats = EngineStats::new(self.engine);
        let opts = self.state.optimizer.profile().derive_options();
        feedback::estimates_with(plan, &stats, opts, overrides)
    }

    /// The full SELECT pipeline: plan resolution, parameter substitution,
    /// parallel execution, metrics.
    pub fn run_select(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<Batch> {
        let resolved = self.select_plan(sel, shape, params)?;
        execute_select(&resolved, params, self.engine, self.parallel)
    }

    /// EXPLAIN ANALYZE through the cached path; the header reports whether
    /// the plan came from the cache.
    pub fn explain_analyze_select(
        &self,
        sel: &SelectStmt,
        shape: Option<&str>,
        params: &[Value],
    ) -> Result<String> {
        let resolved = self.select_plan(sel, shape, params)?;
        explain_analyze_bound(&resolved, params, self.engine, self.parallel)
    }
}

/// Executes a resolved (possibly parameterized) plan: splices `params` in,
/// runs it on the morsel executor, and records query metrics plus (when
/// enabled) the per-digest [`QueryStore`] history. Needs no access to
/// [`DbState`] — a serving layer calls this after releasing its state
/// lock. With the store enabled, execution runs the profiled path so
/// per-node `rows_out` lands in the digest history, and executions over
/// the store's slow threshold capture their full EXPLAIN ANALYZE text.
pub fn execute_select(
    resolved: &ResolvedPlan,
    params: &[Value],
    engine: &StorageEngine,
    parallel: ParallelConfig,
) -> Result<Batch> {
    let _sp = qtrace::span("execute");
    let bound = vdm_plan::bind_params(&resolved.plan, params)?;
    let store = QueryStore::global();
    let start = Instant::now();
    let opts = ExecOptions { snapshot: None, parallel, profile: store.enabled() };
    let Execution { batch, metrics, profile, workers } =
        vdm_exec::execute_with(&bound, engine, &opts)?;
    let elapsed = start.elapsed();
    record_query(&metrics, &resolved.trace, elapsed);
    qtrace::attr("rows", batch.num_rows());
    qtrace::attr("workers", workers);
    if let Some(profile) = profile {
        let elapsed_nanos = elapsed.as_nanos() as u64;
        let explain = if elapsed_nanos >= store.slow_threshold_nanos() {
            let index = NodeIndex::new(&bound);
            Some(render_explain_analyze(
                &bound,
                &index,
                &profile,
                &resolved.estimates,
                &resolved.trace,
                resolved.outcome,
                &metrics,
                batch.num_rows(),
                elapsed_nanos,
                workers,
            ))
        } else {
            None
        };
        store.record(exec_record(
            resolved,
            &metrics,
            &profile,
            &batch,
            elapsed_nanos,
            workers,
            explain,
        ));
    }
    Ok(batch)
}

/// Builds the store record for one finished execution.
#[allow(clippy::too_many_arguments)]
fn exec_record(
    resolved: &ResolvedPlan,
    metrics: &Metrics,
    profile: &QueryProfile,
    batch: &Batch,
    latency_nanos: u64,
    workers: usize,
    explain: Option<String>,
) -> ExecRecord {
    ExecRecord {
        digest: resolved.digest,
        shape: resolved.shape.clone(),
        latency_nanos,
        rows_in: metrics.rows_scanned as u64,
        rows_out: batch.num_rows() as u64,
        cache_hit: resolved.outcome == CacheOutcome::Hit,
        workers: workers as u32,
        node_rows: profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out)).collect(),
        node_est: resolved.estimates.clone(),
        explain,
    }
}

/// EXPLAIN ANALYZE over a resolved plan: profiled execution plus the
/// annotated rendering. The resolved plan's cache outcome feeds the
/// `[plan cache: ...]` header token; the execution is recorded into the
/// [`QueryStore`] like any other (with the rendered text attached, so a
/// slow EXPLAIN ANALYZE also lands in the slow-query log).
pub fn explain_analyze_bound(
    resolved: &ResolvedPlan,
    params: &[Value],
    engine: &StorageEngine,
    parallel: ParallelConfig,
) -> Result<String> {
    let _sp = qtrace::span("execute");
    let bound = vdm_plan::bind_params(&resolved.plan, params)?;
    let index = NodeIndex::new(&bound);
    let start = Instant::now();
    let opts = ExecOptions { snapshot: None, parallel, profile: true };
    let Execution { batch, metrics, profile, workers } =
        vdm_exec::execute_with(&bound, engine, &opts)?;
    let profile = profile.expect("profiling was requested");
    let elapsed = start.elapsed();
    record_query(&metrics, &resolved.trace, elapsed);
    qtrace::attr("rows", batch.num_rows());
    let text = render_explain_analyze(
        &bound,
        &index,
        &profile,
        &resolved.estimates,
        &resolved.trace,
        resolved.outcome,
        &metrics,
        batch.num_rows(),
        elapsed.as_nanos() as u64,
        workers,
    );
    let store = QueryStore::global();
    if store.enabled() {
        let nanos = elapsed.as_nanos() as u64;
        store.record(exec_record(
            resolved,
            &metrics,
            &profile,
            &batch,
            nanos,
            workers,
            Some(text.clone()),
        ));
    }
    Ok(text)
}

/// Renders the full EXPLAIN ANALYZE text from an already-collected
/// profile — shared by [`explain_analyze_bound`] and the slow-query
/// capture path (which must not re-run the query to describe it).
#[allow(clippy::too_many_arguments)]
fn render_explain_analyze(
    bound: &PlanRef,
    index: &NodeIndex,
    profile: &QueryProfile,
    estimates: &[(u32, u64)],
    trace: &Trace,
    outcome: CacheOutcome,
    metrics: &Metrics,
    rows_returned: usize,
    elapsed_nanos: u64,
    workers: usize,
) -> String {
    let annotated = render_analyzed(bound, index, profile, estimates);
    let observed: Vec<(u32, f64)> =
        profile.nodes.iter().map(|(id, s)| (*id as u32, s.rows_out as f64)).collect();
    let misestimate = feedback::worst_misestimate(estimates, &observed)
        .filter(|(ratio, _)| *ratio >= 1.05)
        .map(|(ratio, node)| format!("[misestimate: worst \u{d7}{ratio:.1} at node #{node}]\n"))
        .unwrap_or_default();
    format!(
        "== EXPLAIN ANALYZE ({} thread(s)) [plan cache: {}] ==\n{}{}\n{}== rewrite trace ==\n{}== execution summary ==\n{} row(s) returned, elapsed time={}\nrows scanned: {}, join probe rows: {}, rows joined: {}, operators: {}\n",
        workers,
        outcome.label(),
        misestimate,
        trace.render_opt_stats(),
        annotated,
        trace.render_events(),
        rows_returned,
        fmt_nanos(elapsed_nanos),
        metrics.rows_scanned,
        metrics.join_probe_rows,
        metrics.join_output_rows,
        metrics.operators,
    )
}

/// Renders `plan` with one `[#id est=... act=... time=...]` annotation per
/// node (plain `rows=` when no estimate exists for the node), deriving
/// each operator's input rows from its children's recorded output.
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
                let children = node.children();
                let mut note = match est.get(&(id as u32)) {
                    Some(e) => format!("[#{id} est={e} act={}", s.rows_out),
                    None => format!("[#{id} rows={}", s.rows_out),
                };
                if !children.is_empty() {
                    let rows_in: u64 = children
                        .iter()
                        .filter_map(|c| index.id_of(c).and_then(|cid| profile.rows_out(cid)))
                        .sum();
                    note.push_str(&format!(" in={rows_in}"));
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

/// Feeds one query's counters into the process-wide metrics registry.
pub(crate) fn record_query(metrics: &Metrics, trace: &Trace, elapsed: std::time::Duration) {
    let reg = MetricsRegistry::global();
    reg.inc(names::QUERIES_TOTAL, 1);
    reg.observe(names::QUERY_SECONDS, elapsed.as_secs_f64());
    reg.observe(names::OPTIMIZE_SECONDS, trace.optimize_nanos as f64 / 1e9);
    reg.inc(names::ROWS_SCANNED_TOTAL, metrics.rows_scanned as u64);
    reg.inc(names::ROWS_JOINED_TOTAL, metrics.join_output_rows as u64);
    reg.inc(names::MORSEL_STEALS_TOTAL, metrics.morsel_steals as u64);
    reg.inc(names::MORSEL_SIZE_BYTES, metrics.morsel_bytes as u64);
    for (rule, n) in trace.hit_counts() {
        reg.inc(&vdm_obs::registry::label(names::REWRITE_FIRED_TOTAL, "rule", &rule), n);
    }
}

/// `1234` → `"1.23us"`: human-readable nanosecond counts.
pub(crate) fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}
