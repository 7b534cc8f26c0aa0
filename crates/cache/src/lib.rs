//! Cached (materialized) views — the SCV/DCV feature the paper notes in
//! §3: "SAP HANA provides static cached views (SCV) and dynamic cached
//! views (DCV). They are primarily materialized in memory … SCV is
//! refreshed periodically, providing a delayed snapshot of a view. DCV is
//! incrementally maintained, providing the up-to-date snapshot."
//!
//! * **SCV**: serves the materialization as of its last refresh; reads are
//!   O(1) but may be stale. [`ViewCache::refresh_all_static`] is the
//!   periodic tick; it runs [`CachedView::maintain`] on every static view.
//! * **DCV**: every read runs [`CachedView::maintain`] first, so it is up
//!   to date.
//!
//! [`CacheMode`] decides only *when* maintenance runs, never *how*: either
//! way it costs the *delta* since the last maintenance. A [`DeltaPlan`]
//! derived once at registration classifies the view:
//!   - delta-capable shapes (scans, filters, projections, UNION ALL, and
//!     FK-style joins) run `vdm-exec`'s signed-delta evaluator and patch
//!     the materialization: retracted rows are multiset-subtracted,
//!     inserted rows appended;
//!   - a root `Aggregate` over a delta-capable input **folds**: live
//!     per-group accumulators absorb the input delta and the output is
//!     re-rendered from group state. Deletes retract exactly except when
//!     a group loses its MIN/MAX extreme, which rebuilds that group from
//!     the view input under its key filter, pushed toward the scans so
//!     zone maps and the scan mask read only the group's rows (or the
//!     whole view when the key is not expressible as a literal filter);
//!   - everything else — and any change to a *frozen* table (the
//!     snapshot-probed side of a join) — recomputes from scratch.
//!
//! A frozen or unchanged join side is hashed once and kept ([`KeptSides`]):
//! the delta probes it until a write to a table under it forces a rebuild.
//!
//! Incremental maintenance cannot reproduce full-recompute output
//! *order* bit-for-bit (hash joins and revived groups land elsewhere),
//! so equivalence is asserted as multiset equality via
//! [`multiset_digest`]; `set_verify(true)` (the default in debug builds)
//! checks every incremental step against a full recompute.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use vdm_exec::kernels::hash_values;
use vdm_exec::{KeptSides, ParallelConfig, SignedBatch};
use vdm_expr::{AggExpr, Expr, Retraction};
use vdm_obs::registry::{self, MetricsRegistry};
use vdm_obs::{names, trace as qtrace};
use vdm_optimizer::filters::pushdown_filters;
use vdm_plan::{
    derive_delta_plan, plan_digest_canonical, scan_tables, DeltaClass, DeltaPlan, LogicalPlan,
    PlanRef,
};
use vdm_storage::{Batch, Snapshot, StorageEngine};
use vdm_types::{Result, Schema, Value, VdmError};

/// Refresh discipline of a cached view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Static cached view: serves the last refresh, however old.
    Static,
    /// Dynamic cached view: transparently maintained on read.
    Dynamic,
}

/// Maintenance counters (observability for tests and benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: usize,
    pub full_refreshes: usize,
    pub incremental_refreshes: usize,
    /// Maintenance passes that found the dependencies unchanged.
    pub noop_refreshes: usize,
    /// Signed delta rows (both signs) folded into the materialization.
    pub delta_rows: usize,
    /// Groups rebuilt from a key-filtered scan after losing their
    /// MIN/MAX extreme to a retraction.
    pub group_recomputes: usize,
    /// Whole-view recomputes forced by a MIN/MAX retraction whose group
    /// could not be rebuilt in isolation.
    pub minmax_full_refreshes: usize,
    /// Join sides executed and hashed to be kept (see [`KeptSides`]).
    pub side_builds: usize,
}

/// What a maintenance pass did — surfaced in `EXPLAIN ANALYZE`'s
/// `[view cache: ...]` header and the `vdm_view_refresh_total` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainOutcome {
    /// Dependencies unchanged (or SCV read): served as-is.
    Fresh,
    /// Patched from the signed delta; `delta_rows` counts both signs.
    Incremental { delta_rows: usize },
    /// Recomputed from scratch.
    Full,
}

impl MaintainOutcome {
    /// Render for the `[view cache: ...]` EXPLAIN header.
    pub fn describe(&self) -> String {
        match self {
            MaintainOutcome::Fresh => "fresh".to_string(),
            MaintainOutcome::Incremental { delta_rows } => {
                format!("incremental(+{delta_rows} rows)")
            }
            MaintainOutcome::Full => "full refresh".to_string(),
        }
    }
}

/// Order-insensitive multiset digest of a batch: commutative sum of
/// per-row hashes, tied to the row count. Incremental maintenance is
/// asserted digest-equal to full recomputation under this (output *order*
/// is not reproducible — see the module docs).
pub fn multiset_digest(batch: &Batch) -> u64 {
    let mut acc = 0u64;
    for i in 0..batch.num_rows() {
        acc = acc.wrapping_add(hash_values(&batch.row(i)));
    }
    acc ^ (batch.num_rows() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Live accumulator state for a folded root aggregate: one slot per
/// group in first-seen order (matching the executor's aggregation), with
/// a hidden per-group live-row count so deletes can tombstone emptied
/// groups.
struct GroupState {
    index: HashMap<Vec<Value>, usize>,
    order: Vec<Vec<Value>>,
    accs: Vec<Vec<vdm_expr::Accumulator>>,
    /// Input rows currently contributing to the slot; 0 = dead (skipped
    /// when rendering, revived in place if the key reappears).
    live: Vec<i64>,
    /// Ungrouped aggregate: the single slot renders even when empty.
    global: bool,
}

enum RetractOutcome {
    Clean,
    /// The slot lost a MIN/MAX extreme and must be rebuilt.
    Dirty(usize),
    /// The retracted row's group does not exist — the state is
    /// inconsistent with the delta feed; fall back to full recompute.
    Missing,
}

/// `agg`'s input value for `row` (COUNT(*) folds a placeholder 1).
fn agg_arg(agg: &AggExpr, row: &[Value]) -> Result<Value> {
    agg.arg.as_ref().map_or(Ok(Value::Int(1)), |a| a.eval_row(row))
}

impl GroupState {
    fn build(
        input: &Batch,
        group_by: &[(Expr, String)],
        aggs: &[(AggExpr, String)],
    ) -> Result<GroupState> {
        let mut gs = GroupState {
            index: HashMap::new(),
            order: Vec::new(),
            accs: Vec::new(),
            live: Vec::new(),
            global: group_by.is_empty(),
        };
        if gs.global {
            gs.push_group(Vec::new(), aggs);
        }
        for i in 0..input.num_rows() {
            gs.insert(&input.row(i), group_by, aggs)?;
        }
        Ok(gs)
    }

    fn push_group(&mut self, key: Vec<Value>, aggs: &[(AggExpr, String)]) -> usize {
        let slot = self.order.len();
        self.index.insert(key.clone(), slot);
        self.order.push(key);
        self.accs.push(aggs.iter().map(|(a, _)| a.accumulator()).collect());
        self.live.push(0);
        slot
    }

    fn key_of(row: &[Value], group_by: &[(Expr, String)]) -> Result<Vec<Value>> {
        let mut key = Vec::with_capacity(group_by.len());
        for (e, _) in group_by {
            key.push(e.eval_row(row)?);
        }
        Ok(key)
    }

    fn insert(
        &mut self,
        row: &[Value],
        group_by: &[(Expr, String)],
        aggs: &[(AggExpr, String)],
    ) -> Result<()> {
        let key = Self::key_of(row, group_by)?;
        let slot = match self.index.get(&key) {
            Some(&s) => s,
            None => self.push_group(key, aggs),
        };
        self.absorb(slot, row, aggs)
    }

    /// Counts `row` into `slot` and folds it into the slot's accumulators.
    fn absorb(&mut self, slot: usize, row: &[Value], aggs: &[(AggExpr, String)]) -> Result<()> {
        self.live[slot] += 1;
        for (acc, (agg, _)) in self.accs[slot].iter_mut().zip(aggs) {
            acc.update(&agg_arg(agg, row)?)?;
        }
        Ok(())
    }

    fn retract(
        &mut self,
        row: &[Value],
        group_by: &[(Expr, String)],
        aggs: &[(AggExpr, String)],
    ) -> Result<RetractOutcome> {
        let key = Self::key_of(row, group_by)?;
        let Some(&slot) = self.index.get(&key) else {
            return Ok(RetractOutcome::Missing);
        };
        if self.live[slot] == 0 {
            return Ok(RetractOutcome::Missing);
        }
        self.live[slot] -= 1;
        let mut dirty = false;
        for (acc, (agg, _)) in self.accs[slot].iter_mut().zip(aggs) {
            dirty |= acc.retract(&agg_arg(agg, row)?)? == Retraction::Recompute;
        }
        Ok(if dirty { RetractOutcome::Dirty(slot) } else { RetractOutcome::Clean })
    }

    /// Rebuilds the dirty slots from the input under a key filter, executed
    /// by `run`. Returns `false` when the rebuild cannot be expressed or
    /// the filtered rows don't map back cleanly — the caller falls back
    /// to a whole-view recompute.
    fn recompute_groups(
        &mut self,
        input: &PlanRef,
        group_by: &[(Expr, String)],
        aggs: &[(AggExpr, String)],
        dirty: &BTreeSet<usize>,
        run: impl Fn(&PlanRef) -> Result<Batch>,
    ) -> Result<bool> {
        // An ungrouped aggregate's rebuild *is* a whole-view recompute.
        if group_by.is_empty() {
            return Ok(false);
        }
        let _span = qtrace::span("view.rebuild_groups");
        qtrace::attr("groups", dirty.len());
        let mut groups = Vec::with_capacity(dirty.len());
        for &slot in dirty {
            let key = &self.order[slot];
            // `expr = NULL` is never true; the group is not reachable by an
            // equality filter.
            if key.iter().any(Value::is_null) {
                return Ok(false);
            }
            let eqs =
                group_by.iter().zip(key).map(|((ge, _), kv)| ge.clone().eq(Expr::Lit(kv.clone())));
            groups.push(Expr::conjunction(eqs.collect()));
        }
        // The optimizer's own pushdown carries the key conjuncts to the
        // scans (across the left side of LEFT OUTER joins, never the
        // right), where zone maps and the mask drop the other groups' rows
        // before any join sees them.
        let pred = groups.into_iter().reduce(Expr::or).expect("dirty set non-empty");
        let rows = run(&pushdown_filters(&LogicalPlan::filter(Arc::clone(input), pred)?)?)?;
        qtrace::attr("rows", rows.num_rows());
        for &slot in dirty {
            self.accs[slot] = aggs.iter().map(|(a, _)| a.accumulator()).collect();
            self.live[slot] = 0;
        }
        for i in 0..rows.num_rows() {
            let row = rows.row(i);
            match self.index.get(&Self::key_of(&row, group_by)?) {
                Some(&slot) if dirty.contains(&slot) => self.absorb(slot, &row, aggs)?,
                // No group, or a clean one the equality filter matched
                // (values equal under SQL `=` but distinct as map keys).
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Renders the live groups in first-seen order.
    fn render(&self, schema: Arc<Schema>) -> Result<Batch> {
        let mut rows = Vec::with_capacity(self.order.len());
        for slot in 0..self.order.len() {
            if self.live[slot] == 0 && !self.global {
                continue;
            }
            let mut row = self.order[slot].clone();
            for acc in &self.accs[slot] {
                row.push(acc.finish()?);
            }
            rows.push(row);
        }
        Batch::from_rows(schema, &rows)
    }
}

struct CacheState {
    /// The materialization, shared with readers. Maintenance builds a
    /// replacement *outside* the state lock and swaps the `Arc` in, so
    /// readers are only ever blocked for the pointer swap.
    data: Arc<Batch>,
    as_of: Snapshot,
    /// Live accumulator state for folded aggregates. Taken out (not
    /// cloned) for the duration of a fold so maintenance stays O(delta);
    /// `None` after a fold error or for non-folding views — the next
    /// recompute rebuilds it.
    groups: Option<GroupState>,
    stats: CacheStats,
}

/// One materialized view.
pub struct CachedView {
    name: String,
    plan: PlanRef,
    mode: CacheMode,
    /// Maintenance classification, derived once at registration.
    delta_plan: DeltaPlan,
    /// Base tables the plan scans (maintenance dependencies).
    dependencies: Vec<String>,
    state: Mutex<CacheState>,
    /// Serializes maintenance (which computes outside the state lock) so
    /// concurrent maintainers don't duplicate or reorder work.
    /// Readers never take this lock.
    maintenance: Mutex<()>,
    /// Check every incremental step against a full recompute
    /// (multiset-digest equality). Defaults on in debug builds.
    verify: AtomicBool,
    /// The owning [`ViewCache`]'s executor configuration.
    parallel: Arc<Mutex<ParallelConfig>>,
    /// Hash builds of unchanged join sides (used under the maintenance lock).
    sides: Mutex<KeptSides>,
}

impl Drop for CachedView {
    fn drop(&mut self) {
        let rows = self.sides.get_mut().map_or(0, |sides| sides.rows());
        MetricsRegistry::global().gauge_add(names::VIEW_KEPT_SIDE_ROWS, -(rows as i64));
    }
}

/// The pieces of a folded root aggregate — the `Aggregate` node itself
/// (possibly under the binder's renaming `Project`, which
/// [`render_folded`] re-applies): (input, group_by, aggs, schema).
type FoldParts<'a> = (&'a PlanRef, &'a [(Expr, String)], &'a [(AggExpr, String)], &'a Arc<Schema>);

fn fold_parts(plan: &PlanRef) -> Option<FoldParts<'_>> {
    let agg = vdm_plan::folded_aggregate(plan)?;
    let LogicalPlan::Aggregate { input, group_by, aggs, schema } = agg.as_ref() else {
        return None;
    };
    Some((input, group_by, aggs, schema))
}

/// Renders the view output from live group state: the aggregate rows in
/// first-seen order, then the root projection (if any) on top.
fn render_folded(plan: &PlanRef, gs: &GroupState, agg_schema: &Arc<Schema>) -> Result<Batch> {
    let out = gs.render(Arc::clone(agg_schema))?;
    if let LogicalPlan::Project { exprs, schema, .. } = plan.as_ref() {
        return vdm_exec::kernels::project_batch(&out, exprs, Arc::clone(schema));
    }
    Ok(out)
}

/// Executes `plan` at `snapshot` under the owner's executor configuration
/// (on the caller's worker pool when one is installed).
fn run_at(
    plan: &PlanRef,
    engine: &StorageEngine,
    snapshot: Snapshot,
    parallel: ParallelConfig,
) -> Result<Batch> {
    let opts = vdm_exec::ExecOptions { snapshot: Some(snapshot), parallel };
    Ok(vdm_exec::execute_with(plan, engine, &opts)?.batch)
}

/// Materializes `plan` at `snapshot`; folded aggregates build group
/// state and render from it (same first-seen order as the executor).
fn materialize(
    plan: &PlanRef,
    folds_aggregate: bool,
    engine: &StorageEngine,
    snapshot: Snapshot,
    parallel: ParallelConfig,
) -> Result<(Batch, Option<GroupState>)> {
    if folds_aggregate {
        if let Some((input, group_by, aggs, agg_schema)) = fold_parts(plan) {
            let in_batch = run_at(input, engine, snapshot, parallel)?;
            let gs = GroupState::build(&in_batch, group_by, aggs)?;
            let out = render_folded(plan, &gs, agg_schema)?;
            return Ok((out, Some(gs)));
        }
    }
    Ok((run_at(plan, engine, snapshot, parallel)?, None))
}

fn record_refresh(kind: &'static str, seconds: f64, delta_rows: usize) {
    let m = MetricsRegistry::global();
    m.inc(&registry::label(names::VIEW_REFRESH_TOTAL, "kind", kind), 1);
    m.observe(names::VIEW_REFRESH_SECONDS, seconds);
    if delta_rows > 0 {
        m.inc(names::VIEW_DELTA_ROWS_TOTAL, delta_rows as u64);
    }
}

impl CachedView {
    fn new(
        name: &str,
        plan: PlanRef,
        mode: CacheMode,
        engine: &StorageEngine,
        parallel: Arc<Mutex<ParallelConfig>>,
    ) -> Result<CachedView> {
        let mut dependencies = scan_tables(&plan);
        dependencies.sort();
        dependencies.dedup();
        let view = CachedView {
            name: name.to_string(),
            delta_plan: derive_delta_plan(&plan),
            state: Mutex::new(CacheState {
                data: Arc::new(Batch::empty(plan.schema())),
                as_of: Snapshot(0),
                groups: None,
                stats: CacheStats::default(),
            }),
            sides: Mutex::new(KeptSides::new(&plan)),
            plan,
            mode,
            dependencies,
            maintenance: Mutex::new(()),
            verify: AtomicBool::new(cfg!(debug_assertions)),
            parallel,
        };
        // Registration is the view's first full recompute.
        view.recompute(engine)?;
        Ok(view)
    }

    fn parallel(&self) -> ParallelConfig {
        *self.parallel.lock().unwrap()
    }

    /// The cached view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The view's definition plan.
    pub fn plan(&self) -> &PlanRef {
        &self.plan
    }

    /// The maintenance classification derived at registration.
    pub fn delta_plan(&self) -> &DeltaPlan {
        &self.delta_plan
    }

    /// Base tables this view depends on.
    pub fn dependencies(&self) -> &[String] {
        &self.dependencies
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().unwrap().stats
    }

    /// Snapshot the current materialization was computed at.
    pub fn as_of(&self) -> Snapshot {
        self.state.lock().unwrap().as_of
    }

    /// How far the materialization lags the engine clock (SCV staleness).
    pub fn staleness(&self, engine: &StorageEngine) -> u64 {
        engine.snapshot().0.saturating_sub(self.state.lock().unwrap().as_of.0)
    }

    /// Toggles per-step verification of incremental maintenance against
    /// a full recompute (multiset-digest equality).
    pub fn set_verify(&self, on: bool) {
        self.verify.store(on, Ordering::Relaxed);
    }

    /// Reads the view. SCV: the stored snapshot. DCV: maintained first.
    /// Readers share the materialization by `Arc`, so a concurrent
    /// maintenance only blocks them for the duration of the pointer swap.
    pub fn read(&self, engine: &StorageEngine) -> Result<Arc<Batch>> {
        Ok(self.read_with_outcome(engine)?.0)
    }

    /// [`read`](CachedView::read), also reporting what maintenance did —
    /// the source of `EXPLAIN ANALYZE`'s `[view cache: ...]` header.
    pub fn read_with_outcome(
        &self,
        engine: &StorageEngine,
    ) -> Result<(Arc<Batch>, MaintainOutcome)> {
        let outcome = if self.mode == CacheMode::Dynamic {
            self.maintain(engine)?
        } else {
            MaintainOutcome::Fresh
        };
        let mut state = self.state.lock().unwrap();
        state.stats.hits += 1;
        Ok((Arc::clone(&state.data), outcome))
    }

    /// One view's share of the SCV periodic tick: the same
    /// [`maintain`](CachedView::maintain) a DCV read runs.
    pub fn refresh(&self, engine: &StorageEngine) -> Result<MaintainOutcome> {
        self.maintain(engine)
    }

    /// Full recompute, computed without holding the state lock: the
    /// registration's materialization, and otherwise only
    /// [`maintain`](CachedView::maintain)'s fallback, under its
    /// maintenance lock.
    fn recompute(&self, engine: &StorageEngine) -> Result<()> {
        let started = Instant::now();
        let snapshot = engine.snapshot();
        let (batch, groups) = materialize(
            &self.plan,
            self.delta_plan.folds_aggregate,
            engine,
            snapshot,
            self.parallel(),
        )?;
        let mut state = self.state.lock().unwrap();
        state.data = Arc::new(batch);
        state.as_of = snapshot;
        state.groups = groups;
        state.stats.full_refreshes += 1;
        drop(state);
        record_refresh("full", started.elapsed().as_secs_f64(), 0);
        Ok(())
    }

    /// Brings the view up to date (a DCV on read, an SCV on the tick),
    /// dispatching on the precomputed [`DeltaPlan`]: no-op when the
    /// dependencies are unchanged, signed-delta patch or aggregate fold
    /// when the class allows it, full recompute otherwise.
    pub fn maintain(&self, engine: &StorageEngine) -> Result<MaintainOutcome> {
        let _serialize = self.maintenance.lock().unwrap();
        let _span = qtrace::span("view.maintain");
        qtrace::attr("view", &self.name);
        let started = Instant::now();
        let now = engine.snapshot();
        let (as_of, current) = {
            let state = self.state.lock().unwrap();
            (state.as_of, Arc::clone(&state.data))
        };
        let mut changed = false;
        let mut frozen_changed = false;
        let mut any_delete = false;
        for dep in &self.dependencies {
            if engine.table_version(dep)? > as_of.0 {
                changed = true;
                if self.delta_plan.frozen_tables.binary_search(dep).is_ok() {
                    frozen_changed = true;
                }
                if engine.deleted_since(dep, as_of)? {
                    any_delete = true;
                }
            }
        }
        if !changed {
            self.state.lock().unwrap().stats.noop_refreshes += 1;
            record_refresh("noop", started.elapsed().as_secs_f64(), 0);
            qtrace::attr("outcome", "noop");
            return Ok(MaintainOutcome::Fresh);
        }
        let incremental_ok = !frozen_changed
            && match self.delta_plan.class {
                DeltaClass::FullOnly => false,
                // DISTINCT seen-sets carry no multiplicity: inserts fold,
                // deletes recompute.
                DeltaClass::IncrementalInsert => !any_delete,
                DeltaClass::IncrementalRetract => true,
            };
        if incremental_ok {
            let applied = if self.delta_plan.folds_aggregate {
                self.fold_aggregate_delta(engine, as_of, now)?
            } else {
                self.apply_signed_delta(engine, as_of, now, &current)?
            };
            if let Some(delta_rows) = applied {
                if self.verify.load(Ordering::Relaxed) {
                    if let Err(diverged) = self.verify_against_full(engine, now) {
                        // The next read must not serve the diverged rows
                        // as fresh.
                        self.recompute(engine)?;
                        return Err(diverged);
                    }
                }
                record_refresh("incremental", started.elapsed().as_secs_f64(), delta_rows);
                qtrace::attr("outcome", "incremental");
                qtrace::attr("delta_rows", delta_rows);
                return Ok(MaintainOutcome::Incremental { delta_rows });
            }
            // Fell through: retraction not representable incrementally.
        }
        self.recompute(engine)?;
        qtrace::attr("outcome", "full");
        Ok(MaintainOutcome::Full)
    }

    /// Patches a plain (non-folding) view from its signed delta:
    /// multiset-subtract the retractions, append the insertions.
    /// `None` = a retracted row is missing from the materialization
    /// (inconsistent state) — fall back to full recompute.
    fn apply_signed_delta(
        &self,
        engine: &StorageEngine,
        as_of: Snapshot,
        now: Snapshot,
        current: &Arc<Batch>,
    ) -> Result<Option<usize>> {
        let d = self.signed_delta(&self.plan, engine, as_of, now)?;
        let delta_rows = d.rows();
        let merged = if delta_rows == 0 {
            None // dependencies moved but the view's output did not
        } else {
            let base = if d.minus.num_rows() == 0 {
                (**current).clone()
            } else {
                match multiset_subtract(current, &d.minus) {
                    Some(b) => b,
                    None => return Ok(None),
                }
            };
            Some(Batch::concat(self.plan.schema(), &[base, d.plus])?)
        };
        let mut state = self.state.lock().unwrap();
        if let Some(b) = merged {
            state.data = Arc::new(b);
        }
        state.as_of = now;
        state.stats.incremental_refreshes += 1;
        state.stats.delta_rows += delta_rows;
        Ok(Some(delta_rows))
    }

    /// Folds the input's signed delta into live group state and
    /// re-renders. `None` = fall back to full recompute (missing group
    /// state, unmatched retraction, or a MIN/MAX rebuild that cannot be
    /// scoped to its group).
    fn fold_aggregate_delta(
        &self,
        engine: &StorageEngine,
        as_of: Snapshot,
        now: Snapshot,
    ) -> Result<Option<usize>> {
        let Some((input, group_by, aggs, agg_schema)) = fold_parts(&self.plan) else {
            return Ok(None);
        };
        let d = self.signed_delta(input, engine, as_of, now)?;
        let delta_rows = d.rows();
        if delta_rows == 0 {
            let mut state = self.state.lock().unwrap();
            state.as_of = now;
            state.stats.incremental_refreshes += 1;
            return Ok(Some(0));
        }
        // Take the state out (no clone): on any error it stays `None`
        // and the next recompute rebuilds it.
        let Some(mut gs) = self.state.lock().unwrap().groups.take() else {
            return Ok(None);
        };
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for i in 0..d.plus.num_rows() {
            gs.insert(&d.plus.row(i), group_by, aggs)?;
        }
        for i in 0..d.minus.num_rows() {
            match gs.retract(&d.minus.row(i), group_by, aggs)? {
                RetractOutcome::Clean => {}
                RetractOutcome::Dirty(slot) => {
                    dirty.insert(slot);
                }
                RetractOutcome::Missing => return Ok(None),
            }
        }
        let recomputed = dirty.len();
        if !dirty.is_empty()
            && !gs.recompute_groups(input, group_by, aggs, &dirty, |p| {
                run_at(p, engine, now, self.parallel())
            })?
        {
            self.state.lock().unwrap().stats.minmax_full_refreshes += 1;
            return Ok(None);
        }
        let rendered = render_folded(&self.plan, &gs, agg_schema)?;
        let mut state = self.state.lock().unwrap();
        state.data = Arc::new(rendered);
        state.as_of = now;
        state.groups = Some(gs);
        state.stats.incremental_refreshes += 1;
        state.stats.delta_rows += delta_rows;
        state.stats.group_recomputes += recomputed;
        Ok(Some(delta_rows))
    }

    /// The signed delta of `plan` (the view's or its folded input), counting
    /// the join sides built (stats, metrics, span).
    fn signed_delta(
        &self,
        plan: &PlanRef,
        engine: &StorageEngine,
        as_of: Snapshot,
        now: Snapshot,
    ) -> Result<SignedBatch> {
        let mut sides = self.sides.lock().unwrap();
        let (builds, rows) = (sides.builds, sides.rows());
        let d = vdm_exec::eval_signed_delta(plan, engine, as_of, now, self.parallel(), &mut sides);
        let built = sides.builds - builds;
        if sides.builds > 0 {
            qtrace::attr("sides_built", built);
        }
        if built > 0 {
            self.state.lock().unwrap().stats.side_builds += built;
            let m = MetricsRegistry::global();
            m.inc(names::VIEW_SIDE_BUILDS_TOTAL, built as u64);
            m.gauge_add(names::VIEW_KEPT_SIDE_ROWS, sides.rows() as i64 - rows as i64);
        }
        d
    }

    fn verify_against_full(&self, engine: &StorageEngine, now: Snapshot) -> Result<()> {
        let full = run_at(&self.plan, engine, now, self.parallel())?;
        let got = Arc::clone(&self.state.lock().unwrap().data);
        if multiset_digest(&got) != multiset_digest(&full) {
            return Err(VdmError::Exec(format!(
                "cached view {:?}: incremental maintenance diverged from full recompute \
                 ({} rows vs {} rows)",
                self.name,
                got.num_rows(),
                full.num_rows()
            )));
        }
        Ok(())
    }
}

/// Multiset subtraction preserving `stored`'s order: removes one
/// occurrence per `minus` row. `None` when a `minus` row has no match —
/// the materialization disagrees with the delta feed.
fn multiset_subtract(stored: &Batch, minus: &Batch) -> Option<Batch> {
    let mut counts: HashMap<Vec<Value>, usize> = HashMap::new();
    for i in 0..minus.num_rows() {
        *counts.entry(minus.row(i)).or_insert(0) += 1;
    }
    let mut remaining = minus.num_rows();
    let mut keep = Vec::with_capacity(stored.num_rows().saturating_sub(remaining));
    for i in 0..stored.num_rows() {
        if remaining > 0 {
            if let Some(c) = counts.get_mut(&stored.row(i)) {
                if *c > 0 {
                    *c -= 1;
                    remaining -= 1;
                    continue;
                }
            }
        }
        keep.push(i);
    }
    if remaining > 0 {
        return None;
    }
    Some(stored.gather(&keep))
}

/// The registry of cached views. Internally synchronized: registration,
/// lookup, and refresh all take `&self`, so a serving layer can share one
/// `ViewCache` across sessions without an outer lock.
#[derive(Default)]
pub struct ViewCache {
    views: RwLock<HashMap<String, Arc<CachedView>>>,
    /// Names reserved by in-flight registrations, so the duplicate check
    /// happens *before* the (possibly expensive) materialization and two
    /// racing `register` calls can't both materialize.
    reserved: Mutex<HashSet<String>>,
    /// The owner's one executor configuration, shared with every registered
    /// view.
    parallel: Arc<Mutex<ParallelConfig>>,
}

impl ViewCache {
    /// Empty cache.
    pub fn new() -> ViewCache {
        ViewCache::default()
    }

    /// Sets the executor configuration under which views materialize,
    /// refresh and maintain. The owner's queries read it back through
    /// [`ViewCache::parallelism`], so `threads: 1` keeps queries and
    /// maintenance inline on the calling thread alike.
    pub fn set_parallelism(&self, config: ParallelConfig) {
        *self.parallel.lock().unwrap() = config;
    }

    /// The executor configuration views (and the owner's queries) run under.
    pub fn parallelism(&self) -> ParallelConfig {
        *self.parallel.lock().unwrap()
    }

    /// Registers and immediately materializes a cached view. The name is
    /// check-and-reserved under the registry lock first, so a duplicate
    /// fails fast without materializing and concurrent registrations of
    /// the same name see exactly one winner.
    pub fn register(
        &self,
        name: &str,
        plan: PlanRef,
        mode: CacheMode,
        engine: &StorageEngine,
    ) -> Result<Arc<CachedView>> {
        let key = name.to_ascii_lowercase();
        {
            let views = self.views.read().unwrap();
            let mut reserved = self.reserved.lock().unwrap();
            if views.contains_key(&key) || !reserved.insert(key.clone()) {
                return Err(VdmError::Catalog(format!("cached view {name:?} already exists")));
            }
        }
        // Materialize outside the registry locks; the reservation holds
        // the name either way.
        let built = CachedView::new(name, plan, mode, engine, Arc::clone(&self.parallel));
        let mut views = self.views.write().unwrap();
        self.reserved.lock().unwrap().remove(&key);
        let view = Arc::new(built?);
        views.insert(key, Arc::clone(&view));
        Ok(view)
    }

    /// Replaces a view's definition. When the new plan's canonical digest
    /// and mode match the existing registration, the current
    /// materialization and maintenance plan are kept as-is (re-running
    /// DDL or re-planning after a profile switch is free); otherwise the
    /// view is re-derived and re-materialized.
    pub fn reregister(
        &self,
        name: &str,
        plan: PlanRef,
        mode: CacheMode,
        engine: &StorageEngine,
    ) -> Result<Arc<CachedView>> {
        let key = name.to_ascii_lowercase();
        let existing = self
            .get(name)
            .ok_or_else(|| VdmError::Catalog(format!("unknown cached view {name:?}")))?;
        if existing.mode() == mode && existing.delta_plan().digest == plan_digest_canonical(&plan) {
            return Ok(existing);
        }
        let view = Arc::new(CachedView::new(name, plan, mode, engine, Arc::clone(&self.parallel))?);
        self.views.write().unwrap().insert(key, Arc::clone(&view));
        Ok(view)
    }

    /// Looks up a cached view.
    pub fn get(&self, name: &str) -> Option<Arc<CachedView>> {
        self.views.read().unwrap().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Drops a cached view's materialization.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        self.views
            .write()
            .unwrap()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| VdmError::Catalog(format!("unknown cached view {name:?}")))
    }

    /// Maintains every static view (the "periodic" refresh tick). The
    /// registry lock is released before any view maintains, so lookups and
    /// reads proceed while refreshes run. A view that fails does not keep
    /// the later ones stale: every view is maintained, then the first error
    /// is returned.
    pub fn refresh_all_static(&self, engine: &StorageEngine) -> Result<usize> {
        let statics: Vec<Arc<CachedView>> = self
            .views
            .read()
            .unwrap()
            .values()
            .filter(|v| v.mode() == CacheMode::Static)
            .cloned()
            .collect();
        let mut first_error = None;
        for v in &statics {
            if let Err(e) = v.refresh(engine) {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(statics.len()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::{TableBuilder, TableDef};
    use vdm_expr::{AggExpr, AggFunc, BinOp, Expr};
    use vdm_plan::SortKey;
    use vdm_types::SqlType;

    fn sales() -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new("sales")
                .column("id", SqlType::Int, false)
                .column("amount", SqlType::Int, false)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
    }

    /// `view`'s plan run from scratch at the engine's current snapshot.
    fn fresh_run(view: &CachedView, engine: &StorageEngine) -> Batch {
        run_at(view.plan(), engine, engine.snapshot(), view.parallel()).unwrap()
    }

    fn setup() -> (StorageEngine, PlanRef, PlanRef) {
        let engine = StorageEngine::new();
        let t = sales();
        engine.create_table(Arc::clone(&t)).unwrap();
        engine
            .insert("sales", (0..10).map(|i| vec![Value::Int(i), Value::Int(i * 10)]).collect())
            .unwrap();
        // Delta-capable plan: filter + project.
        let filtered = LogicalPlan::filter(
            LogicalPlan::scan(Arc::clone(&t)),
            Expr::col(1).binary(BinOp::GtEq, Expr::int(50)),
        )
        .unwrap();
        let capable = LogicalPlan::project(filtered, vec![(Expr::col(0), "id".into())]).unwrap();
        // Folding plan: root aggregate.
        let agg = LogicalPlan::aggregate(
            LogicalPlan::scan(t),
            vec![],
            vec![(AggExpr::count_star(), "n".into())],
        )
        .unwrap();
        (engine, capable, agg)
    }

    #[test]
    fn scv_serves_stale_until_refresh() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        let scv = cache.register("big_sales", plan, CacheMode::Static, &engine).unwrap();
        let stale = multiset_digest(&scv.read(&engine).unwrap());
        engine.insert("sales", vec![vec![Value::Int(100), Value::Int(999)]]).unwrap();
        engine.delete_where("sales", &|r| r[0] == Value::Int(9)).unwrap();
        engine.merge_delta("sales").unwrap();
        // Still the old snapshot...
        assert_eq!(multiset_digest(&scv.read(&engine).unwrap()), stale);
        assert!(scv.staleness(&engine) > 0);
        // ...until the periodic tick, which folds the delta like a DCV read.
        assert_eq!(cache.refresh_all_static(&engine).unwrap(), 1);
        let fresh = multiset_digest(&fresh_run(&scv, &engine));
        assert_ne!(fresh, stale);
        assert_eq!(multiset_digest(&scv.read(&engine).unwrap()), fresh);
        assert_eq!(scv.staleness(&engine), 0);
        let stats = scv.stats();
        assert_eq!((stats.incremental_refreshes, stats.full_refreshes), (1, 1), "{stats:?}");
        assert_eq!(stats.delta_rows, 2, "one row in, one row out");
    }

    #[test]
    fn static_full_only_view_recomputes_on_the_tick() {
        let (engine, plan, _) = setup();
        let top3 = LogicalPlan::limit(
            LogicalPlan::sort(plan, vec![SortKey::desc(0)]).unwrap(),
            0,
            Some(3),
        );
        let cache = ViewCache::new();
        let scv = cache.register("top3", top3, CacheMode::Static, &engine).unwrap();
        assert_eq!(scv.delta_plan().class, DeltaClass::FullOnly);
        engine.insert("sales", vec![vec![Value::Int(100), Value::Int(999)]]).unwrap();
        cache.refresh_all_static(&engine).unwrap();
        assert_eq!(scv.read(&engine).unwrap().to_rows(), fresh_run(&scv, &engine).to_rows());
        let stats = scv.stats();
        assert_eq!((stats.incremental_refreshes, stats.full_refreshes), (0, 2), "{stats:?}");
    }

    #[test]
    fn a_failing_static_view_does_not_keep_the_others_stale() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        // `10 / (amount - 999)` divides by zero once an amount of 999 lands.
        let q = Expr::int(10).binary(BinOp::Div, Expr::col(1).binary(BinOp::Sub, Expr::int(999)));
        let divides = LogicalPlan::project(LogicalPlan::scan(sales()), vec![(q, "q".into())]);
        cache.register("divides", divides.unwrap(), CacheMode::Static, &engine).unwrap();
        let others: Vec<Arc<CachedView>> = (0..4)
            .map(|i| cache.register(&format!("v{i}"), plan.clone(), CacheMode::Static, &engine))
            .collect::<Result<_>>()
            .unwrap();
        engine.insert("sales", vec![vec![Value::Int(100), Value::Int(999)]]).unwrap();
        assert!(cache.refresh_all_static(&engine).is_err(), "the division by zero surfaces");
        for v in &others {
            assert_eq!(v.staleness(&engine), 0, "{} was maintained", v.name());
            assert_eq!(v.read(&engine).unwrap().num_rows(), 6);
        }
    }

    #[test]
    fn a_diverged_view_is_recomputed_before_the_error() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        let dcv = cache.register("v", plan, CacheMode::Dynamic, &engine).unwrap();
        dcv.set_verify(true);
        // Corrupt the materialization: drop its first row.
        {
            let mut state = dcv.state.lock().unwrap();
            let rest: Vec<usize> = (1..state.data.num_rows()).collect();
            state.data = Arc::new(state.data.gather(&rest));
        }
        engine.insert("sales", vec![vec![Value::Int(100), Value::Int(999)]]).unwrap();
        assert!(dcv.read(&engine).is_err(), "verification catches the divergence");
        let fresh = multiset_digest(&fresh_run(&dcv, &engine));
        assert_eq!(multiset_digest(&dcv.read(&engine).unwrap()), fresh);
    }

    #[test]
    fn maintenance_runs_under_the_owners_parallel_config() {
        let (engine, plan, agg) = setup();
        let cache = ViewCache::new();
        let before = cache.register("big_sales", plan, CacheMode::Dynamic, &engine).unwrap();
        let serial = ParallelConfig { threads: 1, morsel_rows: 3 };
        cache.set_parallelism(serial);
        let after = cache.register("n_sales", agg, CacheMode::Static, &engine).unwrap();
        assert_eq!((before.parallel(), after.parallel()), (serial, serial));
        engine.insert("sales", vec![vec![Value::Int(100), Value::Int(999)]]).unwrap();
        assert_eq!(before.read(&engine).unwrap().num_rows(), 6);
        after.refresh(&engine).unwrap();
        assert_eq!(after.read(&engine).unwrap().row(0), vec![Value::Int(11)]);
    }

    #[test]
    fn dcv_incremental_on_insert_only() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        let dcv = cache.register("big_sales", plan, CacheMode::Dynamic, &engine).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 5);
        engine
            .insert(
                "sales",
                vec![
                    vec![Value::Int(100), Value::Int(999)],
                    vec![Value::Int(101), Value::Int(1)], // filtered out
                ],
            )
            .unwrap();
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 6, "up to date without refresh");
        let stats = dcv.stats();
        assert_eq!(stats.incremental_refreshes, 1, "maintained incrementally");
        assert_eq!(stats.full_refreshes, 1, "only the initial materialization");
        // An unchanged dependency costs nothing.
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 6);
        assert_eq!(dcv.stats().incremental_refreshes, 1);
        assert_eq!(dcv.stats().noop_refreshes, 2, "first read and the re-read were no-ops");
    }

    #[test]
    fn dcv_retracts_deletes_incrementally() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        let dcv = cache.register("v", plan, CacheMode::Dynamic, &engine).unwrap();
        engine.delete_where("sales", &|r| r[0] == Value::Int(9)).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 4);
        let stats = dcv.stats();
        assert_eq!(stats.full_refreshes, 1, "delete retracted, not recomputed");
        assert_eq!(stats.incremental_refreshes, 1);
        assert_eq!(stats.delta_rows, 1);
    }

    #[test]
    fn dcv_folds_root_aggregate() {
        let (engine, _, agg) = setup();
        let cache = ViewCache::new();
        let dcv = cache.register("cnt", agg, CacheMode::Dynamic, &engine).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(10));
        engine.insert("sales", vec![vec![Value::Int(50), Value::Int(5)]]).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(11));
        engine.delete_where("sales", &|r| r[0] == Value::Int(50)).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(10));
        let stats = dcv.stats();
        assert_eq!(stats.full_refreshes, 1, "only the initial materialization");
        assert_eq!(stats.incremental_refreshes, 2);
    }

    #[test]
    fn minmax_retraction_recomputes_the_group() {
        let engine = StorageEngine::new();
        let t = Arc::new(
            TableBuilder::new("m")
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Int, false)
                .primary_key(&["k", "v"])
                .build()
                .unwrap(),
        );
        engine.create_table(Arc::clone(&t)).unwrap();
        engine
            .insert(
                "m",
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Int(20)],
                    vec![Value::Int(2), Value::Int(30)],
                ],
            )
            .unwrap();
        let agg = LogicalPlan::aggregate(
            LogicalPlan::scan(t),
            vec![(Expr::col(0), "k".into())],
            vec![(AggExpr::new(AggFunc::Max, Expr::col(1)), "mx".into())],
        )
        .unwrap();
        let cache = ViewCache::new();
        let dcv = cache.register("mx", agg, CacheMode::Dynamic, &engine).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 2);
        // Delete group 1's extreme: the group is rebuilt, not the view.
        engine.delete_where("m", &|r| r[1] == Value::Int(20)).unwrap();
        let data = dcv.read(&engine).unwrap();
        let rows = data.to_rows();
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(10)]));
        assert!(rows.contains(&vec![Value::Int(2), Value::Int(30)]));
        let stats = dcv.stats();
        assert_eq!(stats.group_recomputes, 1);
        assert_eq!(stats.full_refreshes, 1);
        // Delete a non-extreme value: exact retraction, no rebuild.
        engine.delete_where("m", &|r| r[1] == Value::Int(10)).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().num_rows(), 1, "group 1 died");
        assert_eq!(dcv.stats().group_recomputes, 2, "10 was the remaining extreme");
    }

    #[test]
    fn minmax_group_rebuild_reads_only_its_group() {
        let engine = StorageEngine::new();
        let t = Arc::new(
            TableBuilder::new("m")
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Int, false)
                .primary_key(&["k", "v"])
                .build()
                .unwrap(),
        );
        engine.create_table(Arc::clone(&t)).unwrap();
        // Four zone-map blocks of main, one group per block.
        let block = vdm_storage::zonemap::ZONE_BLOCK_ROWS as i64;
        engine
            .insert(
                "m",
                (0..4 * block).map(|i| vec![Value::Int(i / block), Value::Int(i)]).collect(),
            )
            .unwrap();
        engine.merge_delta("m").unwrap();
        // The key filter lands above the projection; only a pushed one
        // reaches the scan.
        let renamed = LogicalPlan::project(
            LogicalPlan::scan(t),
            vec![(Expr::col(0), "grp".into()), (Expr::col(1), "val".into())],
        );
        let agg = LogicalPlan::aggregate(
            renamed.unwrap(),
            vec![(Expr::col(0), "grp".into())],
            vec![(AggExpr::new(AggFunc::Max, Expr::col(1)), "mx".into())],
        )
        .unwrap();
        let cache = ViewCache::new();
        let dcv = cache.register("mx", agg, CacheMode::Dynamic, &engine).unwrap();
        let skipped = engine.blocks_skipped("m").unwrap();
        // Group 2 loses its extreme: its rebuild reads its own block only.
        engine.delete_where("m", &|r| r[1] == Value::Int(3 * block - 1)).unwrap();
        let got = dcv.read(&engine).unwrap();
        assert_eq!(multiset_digest(&got), multiset_digest(&fresh_run(&dcv, &engine)));
        let stats = dcv.stats();
        assert_eq!((stats.group_recomputes, stats.full_refreshes), (1, 1), "{stats:?}");
        assert_eq!(engine.blocks_skipped("m").unwrap() - skipped, 3, "the other groups' blocks");
    }

    #[test]
    fn distinct_aggregate_falls_back_to_full_on_delete() {
        let (engine, _, _) = setup();
        let mut distinct = AggExpr::new(AggFunc::Count, Expr::col(1));
        distinct.distinct = true;
        let agg = LogicalPlan::aggregate(
            LogicalPlan::scan(sales()),
            vec![],
            vec![(distinct, "n".into())],
        )
        .unwrap();
        let cache = ViewCache::new();
        let dcv = cache.register("d", agg, CacheMode::Dynamic, &engine).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(10));
        engine.insert("sales", vec![vec![Value::Int(50), Value::Int(90)]]).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(10), "90 already seen");
        assert_eq!(dcv.stats().incremental_refreshes, 1, "inserts fold");
        engine.delete_where("sales", &|r| r[0] == Value::Int(9)).unwrap();
        assert_eq!(dcv.read(&engine).unwrap().row(0)[0], Value::Int(10), "50 still has 90");
        assert_eq!(dcv.stats().full_refreshes, 2, "deletes recompute");
    }

    #[test]
    fn registry_semantics() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        cache.register("v", plan.clone(), CacheMode::Static, &engine).unwrap();
        assert!(cache.register("V", plan, CacheMode::Static, &engine).is_err());
        assert!(cache.get("v").is_some());
        let deps = cache.get("v").unwrap().dependencies().to_vec();
        assert_eq!(deps, vec!["sales".to_string()]);
        cache.drop_view("v").unwrap();
        assert!(cache.get("v").is_none());
        assert!(cache.drop_view("v").is_err());
    }

    #[test]
    fn racing_registrations_have_one_winner() {
        let (engine, plan, _) = setup();
        let cache = ViewCache::new();
        let oks: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let plan = plan.clone();
                    let cache = &cache;
                    let engine = &engine;
                    s.spawn(move || {
                        cache.register("raced", plan, CacheMode::Static, engine).is_ok() as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(oks, 1, "exactly one registration wins");
        assert!(cache.get("raced").is_some());
    }

    #[test]
    fn reregister_skips_rederivation_when_digest_unchanged() {
        let (engine, plan, agg) = setup();
        let cache = ViewCache::new();
        let v1 = cache.register("v", plan.clone(), CacheMode::Dynamic, &engine).unwrap();
        // Same canonical plan: the existing view (and its materialization)
        // is kept.
        let v2 = cache.reregister("v", plan, CacheMode::Dynamic, &engine).unwrap();
        assert!(Arc::ptr_eq(&v1, &v2));
        // Different plan: re-derived and re-materialized.
        let v3 = cache.reregister("v", agg, CacheMode::Dynamic, &engine).unwrap();
        assert!(!Arc::ptr_eq(&v1, &v3));
        assert!(v3.delta_plan().folds_aggregate);
        assert!(cache.reregister("nope", v3.plan().clone(), CacheMode::Static, &engine).is_err());
    }

    #[test]
    fn multiset_digest_is_order_insensitive() {
        let (engine, _, _) = setup();
        let snap = engine.snapshot();
        let a = engine.scan("sales", snap).unwrap();
        let rev: Vec<usize> = (0..a.num_rows()).rev().collect();
        let b = a.gather(&rev);
        assert_eq!(multiset_digest(&a), multiset_digest(&b));
        // ...but not multiplicity-insensitive.
        let dup: Vec<usize> = (0..a.num_rows()).chain(0..1).collect();
        assert_ne!(multiset_digest(&a), multiset_digest(&a.gather(&dup)));
    }
}
