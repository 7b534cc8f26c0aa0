//! The plan executor: one morsel-driven engine.
//!
//! Every plan runs through the same operators at every thread count; the
//! thread count only decides how many workers share a pipeline's morsels.
//! Every wave goes through one door, `parallel_map`: at `threads: 1` it runs
//! every item in a plain loop on the calling thread — nothing is broadcast —
//! and that *is* the serial mode; there is no second interpreter. A wave over
//! fewer than [`MIN_DISPATCH_MORSELS`] morsels runs the same way at any
//! thread count; a wider one is broadcast on a [`crate::pool`], whose roles
//! claim morsels one at a time from one shared cursor.
//!
//! There is one streaming body, the **pipeline**: a source — a table scan
//! split into fixed-size morsels, or a materialized batch chunked the same
//! way — the `Filter` / `Project` / `Join` nodes stacked on it as steps, and
//! a sink. One worker carries a [`Morsel`] through every step into the sink:
//!
//! * **steps pass a selection vector, not a copy.** A filter (a
//!   [`kernels::FilterKernel`] compiled once per operator) refines the
//!   selection; adjacent pass-through/renaming projections compose into one
//!   column mapping ([`vdm_plan::fusion`]) that keeps it; a probe reads keys
//!   at the selected rows and, when no probe row matched twice, appends the
//!   gathered build columns beside the morsel's own. Only a probe that
//!   expands, a computed projection and the sink copy rows;
//! * **build sides are the breakers.** A join's build input runs first and
//!   is chained by key hash into partitioned [`KeyTable`]s of row ids (no
//!   key is materialized); its other input continues the pipeline. A
//!   commutable inner join materializes both inputs, builds on the smaller
//!   and seeds a pipeline with the larger. `Sort`, `Distinct`, `Limit`,
//!   `UnionAll` and `Aggregate` outputs are batches, sources for what is
//!   stacked on them — and so is what survives a filter the scan applied
//!   ahead of its gather: ragged morsels, re-chunked into full ones;
//! * **the sink** materializes the morsels in morsel order or — under an
//!   `Aggregate` — folds each into a partial ([`group_rows`]: a [`KeyTable`],
//!   no `Vec<Value>` key) and merges the partials in morsel order through
//!   the same table ([`vdm_expr::Accumulator::merge`]).
//!
//! Results — *including row and group order* — do not depend on scheduling,
//! worker count or morsel size: every merge happens in morsel index order,
//! and an error is the lowest-index morsel's. The one exception is a scan's
//! `rows_in` (`Metrics::rows_scanned`) under a pushed-down LIMIT: the
//! budgeted scan dispatches whole waves of budget-sized morsels, so it scans
//! at most `budget + workers * morsel_rows` rows (exactly `budget` in the
//! serial mode when the table's head is live).
//!
//! There is one plan walker (`run`; a LIMIT budget is its argument) and one
//! ledger: every node records rows in and out, self time, calls (one per
//! morsel in a pipeline) and workers into the [`QueryProfile`], on every
//! execution. Operator-class totals are [`vdm_obs::Metrics::roll_up`] of it.

use crate::kernels::{self, FilterKernel, RowScratch};
use crate::ops;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vdm_expr::{Accumulator, AggExpr, Expr};
use vdm_obs::{NodeIndex, QueryProfile};
use vdm_plan::fusion;
use vdm_plan::{JoinKind, LogicalPlan, PlanRef, ScanCols};
use vdm_storage::column::{gather_ids, NO_ROW};
use vdm_storage::hash::{hash_keys, hash_side, KeyEq, KeyTable};
use vdm_storage::zonemap::ZONE_BLOCK_ROWS;
use vdm_storage::{Batch, Column, ColumnData, ScanFilter, ScanRange, Snapshot, StorageEngine};
use vdm_types::{Result, Schema, Value, VdmError};

/// How the engine splits and dispatches work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. `1` (or `0`) is the serial mode: every morsel runs
    /// inline on the calling thread.
    pub threads: usize,
    /// Rows per scan morsel and per operator chunk.
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig { threads: host_cores(), morsel_rows: 4 * ZONE_BLOCK_ROWS }
    }
}

/// The host's available parallelism, probed once (the probe reads cgroup
/// files): the default thread count and the cap on dispatched workers.
fn host_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

impl ParallelConfig {
    /// A sane copy: at least one thread, at least one row per morsel.
    pub(crate) fn normalized(self) -> ParallelConfig {
        ParallelConfig { threads: self.threads.max(1), morsel_rows: self.morsel_rows.max(1) }
    }
}

/// What one execution reads and how it is dispatched.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Snapshot to read at; `None` = the engine's current snapshot.
    pub snapshot: Option<Snapshot>,
    /// Thread count and morsel size.
    pub parallel: ParallelConfig,
}

/// The outcome of [`execute_with`].
#[derive(Debug)]
pub struct Execution {
    /// The plan's output.
    pub batch: Batch,
    /// Per-node stats keyed by pre-order node id, plus dispatch totals —
    /// the only thing the executor counts. Operator-class totals are
    /// [`vdm_obs::Metrics::roll_up`] of the plan and this.
    pub profile: QueryProfile,
    /// Workers a dispatched wave runs on: `threads` capped at the
    /// host's cores (floor 2), `1` in the serial mode.
    pub workers: usize,
}

/// Executes `plan` at the engine's current snapshot with default options.
pub fn execute(plan: &PlanRef, engine: &StorageEngine) -> Result<Batch> {
    Ok(execute_with(plan, engine, &ExecOptions::default())?.batch)
}

/// Executes `plan` against `engine` as `opts` directs, holding a
/// [`vdm_storage::ReadPin`] for the whole run so no merge compacts under it.
pub fn execute_with(
    plan: &PlanRef,
    engine: &StorageEngine,
    opts: &ExecOptions,
) -> Result<Execution> {
    let config = opts.parallel.normalized();
    let pin = engine.pin();
    let mut ctx = Ctx {
        engine,
        snapshot: opts.snapshot.unwrap_or_else(|| pin.snapshot()),
        config,
        index: NodeIndex::new(plan),
        profile: QueryProfile::default(),
        child_nanos: 0,
    };
    let batch = run(plan, None, &mut ctx)?;
    Ok(Execution { batch, profile: ctx.profile, workers: pool_workers(config.threads) })
}

/// Elapsed nanoseconds since `start`, saturating into `u64`.
fn nanos_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The prunable `(table ordinal, range)` of every conjunct of the filter on
/// a scan emitting `cols` that has the form `col ⟨cmp⟩ literal` over an
/// orderable type: a block that any one of them excludes cannot hold a match.
fn prune_ranges(predicate: &Expr, cols: &ScanCols) -> Vec<(usize, ScanRange)> {
    use vdm_expr::{predicate as preds, BinOp};
    let atoms = preds::split_conjunction(predicate).into_iter().filter_map(preds::as_atom);
    atoms
        .filter_map(|atom| {
            let range = match atom.op {
                BinOp::Eq => ScanRange::point(atom.value),
                BinOp::Gt | BinOp::GtEq => ScanRange::at_least(atom.value),
                BinOp::Lt | BinOp::LtEq => ScanRange::at_most(atom.value),
                _ => return None,
            };
            Some((cols.table_ordinal(atom.col), range))
        })
        .collect()
}

struct Ctx<'a> {
    engine: &'a StorageEngine,
    snapshot: Snapshot,
    config: ParallelConfig,
    /// Pre-order node ids of the executed plan (see `vdm_plan::number_nodes`).
    index: NodeIndex,
    /// Stats recorded so far.
    profile: QueryProfile,
    /// Nanoseconds spent in child operators of the node currently running —
    /// subtracted from its elapsed time to get self time.
    child_nanos: u64,
}

/// Workers a wave is dispatched onto for a logical `threads` setting: capped
/// at the machine's available parallelism, because oversubscribing cores only
/// adds context-switch cost (results are schedule-independent). A floor of
/// two keeps cross-worker merge paths exercised on single-core hosts. The cap
/// is also the process pool's thread count.
pub(crate) fn pool_workers(threads: usize) -> usize {
    threads.min(host_cores().max(2))
}

/// Morsels of input a wave must span before it is dispatched to other
/// threads; a shorter wave runs inline on the calling thread (the serial
/// mode). At the default morsel size that is 65 536 rows — about half the
/// 122 880-row row group that is DuckDB's unit of parallelism. Below it a
/// second worker buys at most 1.3× on a wave that lasts well under a
/// millisecond, and only when the host runs the woken thread on its own core
/// at once: a short query's cost would follow the host's scheduler, not the
/// query (EXPERIMENTS.md, "Touched fields only").
const MIN_DISPATCH_MORSELS: usize = 16;

/// Runs `f` over indices `0..n` — one wave covering `morsels` morsels of
/// input. Results come back in index order and the partial profiles `f`
/// records into are merged into `profile` in role order, so the output is
/// schedule-independent; errors surface as the failing index's error (lowest
/// index wins — what a left-to-right run reports).
///
/// A wave with one worker runs inline: a plain loop on the calling thread,
/// the serial mode. A wider one is one [`WorkerPool::broadcast`] — role 0 on
/// the calling thread, the others on the pool installed with
/// [`with_worker_pool`], else on the process pool — whose roles claim items
/// one at a time from one shared cursor until it passes `n`, each into a
/// role-local result list and partial profile it publishes once at the end.
/// `f` never runs under a lock, and a role the pool cancels before it starts
/// has claimed nothing. The items pool roles ran count as
/// `profile.morsel_steals`.
///
/// [`WorkerPool::broadcast`]: crate::pool::WorkerPool::broadcast
/// [`with_worker_pool`]: crate::pool::with_worker_pool
fn parallel_map<T, F>(
    threads: usize,
    morsels: usize,
    n: usize,
    profile: &mut QueryProfile,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut QueryProfile) -> Result<T> + Sync,
{
    let workers = if morsels < MIN_DISPATCH_MORSELS { 1 } else { pool_workers(threads).min(n) };
    if workers <= 1 {
        let mut partial = QueryProfile::default();
        let out = (0..n).map(|i| f(i, &mut partial)).collect::<Result<Vec<T>>>()?;
        profile.merge(&partial);
        return Ok(out);
    }
    profile.dispatched += 1;
    // Relaxed: the cursor only hands out indices and publishes no data; the
    // results reach this thread through the role mutexes and the broadcast's
    // completion latch.
    let cursor = AtomicUsize::new(0);
    let roles: Vec<Mutex<Option<RoleOutput<T>>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    crate::pool::dispatch_pool().broadcast(workers, &|role| {
        let (mut partial, mut ran) = (QueryProfile::default(), Vec::new());
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            ran.push((i, f(i, &mut partial)));
        }
        *roles[role].lock().expect("a role's slot is locked only to publish it") =
            Some((partial, ran));
    });
    let mut out: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    for (role, slot) in roles.into_iter().enumerate() {
        let published = slot.into_inner().expect("a role's slot is locked only to publish it");
        let Some((partial, ran)) = published else { continue };
        profile.merge(&partial);
        if role > 0 {
            profile.morsel_steals += ran.len() as u64;
        }
        for (i, r) in ran {
            out[i] = Some(r);
        }
    }
    let dropped = |i| VdmError::Exec(format!("parallel worker dropped morsel {i}"));
    out.into_iter().enumerate().map(|(i, r)| r.unwrap_or_else(|| Err(dropped(i)))).collect()
}

/// What one role of a dispatched wave publishes: its partial profile and
/// the `(index, result)` of every item it claimed.
type RoleOutput<T> = (QueryProfile, Vec<(usize, Result<T>)>);

/// Row range of chunk `i` when `total` rows split into `chunk`-row pieces.
fn chunk_range(i: usize, chunk: usize, total: usize) -> Range<usize> {
    let start = (i * chunk).min(total);
    start..(start + chunk).min(total)
}

// ---------------------------------------------------------------------------
// Pipelines: a source, the steps stacked on it, a sink — one morsel at a time.

/// What a pipeline carries from source to sink: columns, and which of their
/// rows are live. Steps refine `sel` and add or reorder columns; only the sink
/// ([`Morsel::into_columns`]), an expanding probe and a computed projection copy.
struct Morsel<'a> {
    /// Borrowed from a batch source, owned otherwise.
    cols: Vec<Cow<'a, Column>>,
    /// The rows of `cols` the morsel covers; each holds at least `span.end`.
    span: Range<usize>,
    /// The live rows of `span`, ascending; `None` = all of them.
    sel: Option<Vec<usize>>,
}

impl<'a> Morsel<'a> {
    /// Every row of owned `cols`, live.
    fn dense(cols: Vec<Column>, rows: usize) -> Morsel<'a> {
        Morsel { cols: cols.into_iter().map(Cow::Owned).collect(), span: 0..rows, sel: None }
    }

    fn rows(&self) -> usize {
        self.sel.as_ref().map_or(self.span.len(), Vec::len)
    }

    fn live(&self) -> Cow<'_, [usize]> {
        match &self.sel {
            Some(sel) => Cow::Borrowed(sel),
            None => Cow::Owned(self.span.clone().collect()),
        }
    }

    fn columns(&self) -> Vec<&Column> {
        self.cols.iter().map(Cow::as_ref).collect()
    }

    /// The live rows, gathered: a column that is all live moves as it is, and
    /// a dictionary longer than the rows left of it is compacted — or every
    /// part of a selective read would carry, and the merge re-intern, all of it.
    fn into_columns(mut self) -> Vec<Column> {
        let dense = self.sel.is_none();
        let live = self.sel.take().unwrap_or_else(|| self.span.clone().collect());
        let gather = |c: Cow<'_, Column>| match c.data() {
            ColumnData::Str(s) if s.dict.len() > live.len() => c.gather_compact(&live),
            _ if dense && self.span == (0..c.len()) => c.into_owned(),
            _ => c.gather(&live),
        };
        self.cols.into_iter().map(gather).collect()
    }
}

enum Source<'p> {
    Scan {
        table: &'p str,
        /// What the scan emits (table ordinals; `None` = every column).
        cols: &'p ScanCols,
        /// Zone-map pruning from the filter sitting directly on the scan, one
        /// range per prunable conjunct, its column as a table ordinal.
        ranges: Vec<(usize, ScanRange)>,
        engine: &'p StorageEngine,
        snapshot: Snapshot,
        id: usize,
    },
    /// A breaker's output, chunked by `morsel_rows`.
    Batch(Cow<'p, Batch>),
}

enum Op<'p> {
    Filter(FilterKernel<'p>),
    /// A projection that computes: evaluated over the live rows.
    Project(&'p [(Expr, String)], &'p Arc<Schema>),
    /// Adjacent pass-through/renaming projections, composed: out `j` = in `map[j]`.
    Map(Vec<usize>),
    /// A probe of a join's build side, owned or borrowed.
    Probe(Cow<'p, JoinBuild<'p>>, JoinSpec<'p>),
}

struct Step<'p> {
    op: Op<'p>,
    /// Profile ids of the plan nodes the step covers, innermost first (a
    /// composed column map covers several; its time goes to the last).
    ids: Vec<usize>,
}

struct Pipeline<'p> {
    source: Source<'p>,
    /// Operators above the source, bottom-up.
    steps: Vec<Step<'p>>,
}

/// The pipeline rooted at `plan`: its `Filter` / `Project` / `Join` nodes
/// down to the first scan or breaker become steps; the breakers below — join
/// build sides, and the source if it is not a scan — are executed here.
fn pipeline<'p>(plan: &'p PlanRef, ctx: &mut Ctx<'p>) -> Result<Pipeline<'p>> {
    let id = ctx.index.id_of(plan).expect("every node the walker reaches is in the index");
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, .. } => Ok(Pipeline {
            source: Source::Scan {
                table: &table.name,
                cols,
                ranges: Vec::new(),
                engine: ctx.engine,
                snapshot: ctx.snapshot,
                id,
            },
            steps: Vec::new(),
        }),
        LogicalPlan::Filter { input, predicate } => {
            let mut p = pipeline(input, ctx)?;
            let kernel = FilterKernel::new(predicate);
            let mut pushed = false;
            if let (Source::Scan { cols, ranges, .. }, true) = (&mut p.source, p.steps.is_empty()) {
                *ranges = prune_ranges(predicate, cols);
                pushed = kernel.pushed(None).is_some();
            }
            p.steps.push(Step { op: Op::Filter(kernel), ids: vec![id] });
            // A filter the scan applies ahead of its gather leaves ragged
            // morsels — a page of a few hundred rows spread over every morsel
            // of the table, each paying every later step's fixed cost: what
            // survives is a breaker's output, re-chunked into full morsels.
            if pushed {
                let kept = materialize(p, &input.schema(), None, ctx.config, &mut ctx.profile)?;
                p = Pipeline { source: Source::Batch(Cow::Owned(kept)), steps: Vec::new() };
            }
            Ok(p)
        }
        LogicalPlan::Project { input, .. } => {
            let mut p = pipeline(input, ctx)?;
            push_project(&mut p, plan, id);
            Ok(p)
        }
        LogicalPlan::Join { left, right, kind, on, filter, .. } => {
            let (right_rows, mut p, build, build_left) =
                if *kind == JoinKind::Inner && filter.is_none() {
                    let (lb, rb) = (run(left, None, ctx)?, run(right, None, ctx)?);
                    let right_rows = rb.num_rows();
                    let build_left = lb.num_rows() < rb.num_rows();
                    let (build, probe) = if build_left { (lb, rb) } else { (rb, lb) };
                    let p = Pipeline { source: Source::Batch(Cow::Owned(probe)), steps: vec![] };
                    (right_rows, p, build, build_left)
                } else {
                    let rb = run(right, None, ctx)?;
                    (rb.num_rows(), pipeline(left, ctx)?, rb, false)
                };
            let probe_schema = if build_left { right.schema() } else { left.schema() };
            let join = JoinSpec { kind: *kind, residual: filter.as_ref(), build_left };
            let (start, rows, build) = (Instant::now(), build.num_rows(), Cow::Owned(build));
            let (config, profile) = (ctx.config, &mut ctx.profile);
            let build = JoinBuild::new(build, &probe_schema, on, build_left, config, profile)?;
            let probe = Op::Probe(Cow::Owned(build), join);
            // The build side enters the join's ledger here, once; the probe
            // side morsel by morsel.
            let stats = ctx.profile.nodes.entry(id).or_default();
            stats.rows_in += rows as u64;
            stats.build_rows += right_rows as u64;
            stats.nanos += nanos_since(start);
            p.steps.push(Step { op: probe, ids: vec![id] });
            Ok(p)
        }
        _ => Ok(Pipeline {
            source: Source::Batch(Cow::Owned(run(plan, None, ctx)?)),
            steps: Vec::new(),
        }),
    }
}

/// Stacks the `Project` node `plan` on `p`: a pure column mapping composes
/// into the step below when that is itself a column mapping.
fn push_project<'p>(p: &mut Pipeline<'p>, plan: &'p PlanRef, id: usize) {
    let LogicalPlan::Project { exprs, schema, .. } = plan.as_ref() else {
        unreachable!("push_project takes a Project node")
    };
    match (fusion::column_mapping(exprs), p.steps.last_mut()) {
        // out[j] = prev[outer[j]] — compose in place.
        (Some(outer), Some(Step { op: Op::Map(map), ids })) => {
            *map = outer.iter().map(|&j| map[j]).collect();
            ids.push(id);
        }
        (Some(outer), _) => p.steps.push(Step { op: Op::Map(outer), ids: vec![id] }),
        (None, _) => p.steps.push(Step { op: Op::Project(exprs, schema), ids: vec![id] }),
    }
}

/// Runs `pipe`: each morsel goes through the steps and into `sink` on one
/// worker, and what `sink` made of them comes back in morsel order; covered
/// nodes and `sink_id` (the node the sink stands for) are recorded per morsel
/// by the workers. One wave, one dispatch, covers the source — except under a
/// `budget` (the pipeline is then a bare scan: the last wave over-reads, and
/// no operator may see, or fail on, rows the budget cuts off). Morsels are
/// then no larger than the budget and waves dispatch in index order until the
/// completed prefix covers it: first one morsel per worker (the serial mode
/// reads exactly `budget` rows when the table's head is live), then doubling
/// (deleted heads cost O(log) dispatches) up to `workers * morsel_rows` rows,
/// keeping pushed-down LIMIT O(k) instead of O(table).
fn run_pipeline<T: Send>(
    pipe: &Pipeline<'_>,
    sink_id: Option<usize>,
    budget: Option<usize>,
    config: ParallelConfig,
    profile: &mut QueryProfile,
    sink: impl Fn(Morsel<'_>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let (morsel_rows, n) = match &pipe.source {
        // Pruned scans align morsels to zone-map blocks so every block
        // belongs to exactly one morsel and is skipped (and counted) at most
        // once.
        Source::Scan { table, ranges, engine, .. } => {
            let rows = if !ranges.is_empty() {
                config.morsel_rows.div_ceil(ZONE_BLOCK_ROWS).max(1) * ZONE_BLOCK_ROWS
            } else {
                budget.map_or(config.morsel_rows, |b| b.clamp(1, config.morsel_rows))
            };
            (rows, engine.morsel_count(table, rows)?)
        }
        Source::Batch(batch) => (config.morsel_rows, batch.num_rows().div_ceil(config.morsel_rows)),
    };
    let (mut width, widest) = match budget {
        Some(_) => {
            let workers = pool_workers(config.threads);
            (workers, workers.saturating_mul(config.morsel_rows) / morsel_rows)
        }
        None => (n, n),
    };
    // The run is counted here: workers record morsels, and a pipeline over
    // an empty source dispatches none.
    for id in pipe.ids().chain(sink_id) {
        profile.nodes.entry(id).or_default().runs += 1;
    }
    profile.pipelines += 1;
    let top = pipe.ids().last();
    let mut parts: Vec<T> = Vec::new();
    let (mut have, mut base) = (0usize, 0usize);
    while base < n && budget.is_none_or(|b| have < b) {
        let wave = (n - base).min(width);
        width = (width * 2).min(widest);
        // A budget shrinks the morsels; the wave's span is in full-size ones.
        let span = (wave * morsel_rows).div_ceil(config.morsel_rows);
        let done = parallel_map(config.threads, span, wave, profile, |i, prof| {
            let morsel = pipe.morsel(base + i, morsel_rows, prof)?;
            let (start, rows) = (Instant::now(), morsel.rows());
            let part = sink(morsel)?;
            // The sink's time is its node's, or — materializing — the top
            // node's, whose rows these are.
            match (sink_id, top) {
                (Some(id), _) => _ = prof.record_morsel(id, rows as u64, 0, nanos_since(start)),
                (None, Some(top)) => prof.nodes.entry(top).or_default().nanos += nanos_since(start),
                (None, None) => {}
            }
            Ok((rows, part))
        })?;
        for (rows, part) in done {
            have += rows;
            parts.push(part);
        }
        base += wave;
    }
    Ok(parts)
}

impl<'p> Pipeline<'p> {
    /// Profile ids of the covered plan nodes, bottom-up.
    fn ids(&self) -> impl Iterator<Item = usize> + use<'_, 'p> {
        let scan = match &self.source {
            Source::Scan { id, .. } => Some(*id),
            Source::Batch(_) => None,
        };
        scan.into_iter().chain(self.steps.iter().flat_map(|s| &s.ids).copied())
    }

    /// Morsel `index` of the source, carried through every step, each
    /// covered node recorded into `prof`.
    fn morsel(
        &self,
        index: usize,
        morsel_rows: usize,
        prof: &mut QueryProfile,
    ) -> Result<Morsel<'_>> {
        let (mut morsel, mut rows) = match &self.source {
            Source::Scan { table, cols, ranges, engine, snapshot, id } => {
                let start = Instant::now();
                let cols = cols.narrowed();
                // The filter directly on the scan refines the selection
                // before the gather; storage returns a superset (a mask may
                // decline a run), so the step below still runs.
                let pushed = match self.steps.first() {
                    Some(Step { op: Op::Filter(kernel), .. }) => kernel.pushed(cols),
                    _ => None,
                };
                let filter = ScanFilter { ranges, mask: pushed.as_deref() };
                let (raw, visible) =
                    engine.scan_morsel(table, *snapshot, index, morsel_rows, filter, cols)?;
                // Bytes are charged for the rows gathered; the scan's ledger
                // line is the visible rows, whatever the filter let through
                // early — they are the filter's `rows_in`.
                prof.morsel_bytes += (kernels::row_bytes(&raw.columns) * raw.num_rows()) as u64;
                prof.record_morsel(*id, visible as u64, visible as u64, nanos_since(start));
                let rows = raw.num_rows();
                (Morsel::dense(raw.columns, rows), visible as u64)
            }
            Source::Batch(batch) => {
                let span = chunk_range(index, morsel_rows, batch.num_rows());
                prof.morsel_bytes += (kernels::row_bytes(&batch.columns) * span.len()) as u64;
                let cols = batch.columns.iter().map(Cow::Borrowed).collect();
                let rows = span.len() as u64;
                (Morsel { cols, span, sel: None }, rows)
            }
        };
        for step in &self.steps {
            let start = Instant::now();
            morsel = step.op.apply(morsel)?;
            let nanos = nanos_since(start);
            let rows_in = std::mem::replace(&mut rows, morsel.rows() as u64);
            // Every covered node reports this morsel's rows; the kernel time
            // goes to the outermost covered node (the last id).
            for (k, id) in step.ids.iter().enumerate() {
                let nanos = if k + 1 == step.ids.len() { nanos } else { 0 };
                prof.record_morsel(*id, rows_in, rows, nanos);
            }
        }
        Ok(morsel)
    }
}

impl Op<'_> {
    fn apply<'a>(&self, mut m: Morsel<'a>) -> Result<Morsel<'a>> {
        match self {
            Op::Filter(kernel) => {
                let keep = kernel.select(&m.columns(), m.span.clone(), m.sel.as_deref())?;
                m.sel = (keep.len() < m.span.len()).then_some(keep);
                Ok(m)
            }
            Op::Project(exprs, schema) => {
                let live = m.live();
                let cols = kernels::project_rows(&m.columns(), exprs, schema, &live)?;
                Ok(Morsel::dense(cols, live.len()))
            }
            Op::Map(map) => {
                // A column's last use moves it; an earlier one copies.
                let mut uses = vec![0usize; m.cols.len()];
                map.iter().for_each(|&c| uses[c] += 1);
                let mut from: Vec<_> = m.cols.into_iter().map(Some).collect();
                let mut take = |c: usize| {
                    uses[c] -= 1;
                    if uses[c] == 0 {
                        from[c].take()
                    } else {
                        from[c].clone()
                    }
                };
                m.cols = map.iter().filter_map(|&c| take(c)).collect();
                Ok(m)
            }
            Op::Probe(build, join) => build.probe(join, m),
        }
    }
}

/// Runs `pipe` into the sink that materializes the morsels in morsel order.
fn materialize(
    pipe: Pipeline<'_>,
    schema: &Arc<Schema>,
    budget: Option<usize>,
    config: ParallelConfig,
    profile: &mut QueryProfile,
) -> Result<Batch> {
    // A breaker's output with nothing stacked on it is the result.
    let pipe = match pipe {
        Pipeline { source: Source::Batch(done), steps } if steps.is_empty() => {
            return Ok(done.into_owned());
        }
        pipe => pipe,
    };
    let mut parts = run_pipeline(&pipe, None, budget, config, profile, |m| {
        Batch::new(Arc::clone(schema), m.into_columns())
    })?;
    let start = Instant::now();
    let have: usize = parts.iter().map(Batch::num_rows).sum();
    // A lone part (every small input) is adopted, not copied and re-interned.
    let merged = match parts.len() {
        1 => parts.remove(0),
        _ => Batch::concat(Arc::clone(schema), &parts)?,
    };
    let out = slice(merged, 0, budget);
    // Merging the parts is the top node's; so is what a budget cut off: the
    // last wave over-reads, which the scan read (`rows_in`) but did not emit.
    if let Some(top) = pipe.ids().last() {
        let stats = profile.nodes.entry(top).or_default();
        stats.nanos += nanos_since(start);
        stats.rows_out -= (have - out.num_rows()) as u64;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The partitioned hash join: a breaker (the build side) and a step (the probe).

pub(crate) struct JoinSpec<'p> {
    pub(crate) kind: JoinKind,
    pub(crate) residual: Option<&'p Expr>,
    /// The build side is the left input (output = `build ++ probe`): inner, no residual.
    pub(crate) build_left: bool,
}

/// A join's build side, hashed into [`KeyTable`]s of row ids, with the key
/// columns of both sides: made per join per query, or kept by a cached view
/// for a join side that did not change ([`crate::delta`]).
#[derive(Clone)]
pub(crate) struct JoinBuild<'b> {
    pub(crate) build: Cow<'b, Batch>,
    /// One table per partition of the build side's key hashes (their low bits).
    tables: Vec<KeyTable<usize>>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    /// Each key column pair has one physical type on both sides, so both hash
    /// payloads (`Int(2) == Dec(2.00)` must not land in different partitions).
    columnar: bool,
}

impl<'b> JoinBuild<'b> {
    /// Partitions `build` (the left input when `build_left`) by key hash and
    /// chains each partition's row ids; chunk and partition counts follow its
    /// size (one chunk: one partition, inline).
    pub(crate) fn new(
        build: Cow<'b, Batch>,
        probe_schema: &Schema,
        on: &[(usize, usize)],
        build_left: bool,
        config: ParallelConfig,
        profile: &mut QueryProfile,
    ) -> Result<JoinBuild<'b>> {
        let side = |&(lc, rc): &(usize, usize)| if build_left { (lc, rc) } else { (rc, lc) };
        let (build_keys, probe_keys): (Vec<usize>, Vec<usize>) = on.iter().map(side).unzip();
        let keys: Vec<&Column> = build_keys.iter().map(|&c| &build.columns[c]).collect();
        let columnar =
            keys.iter().zip(&probe_keys).all(|(b, &p)| b.sql_type() == probe_schema.field(p).ty);
        // NULL keys never match: such rows are not inserted.
        let nullable: Vec<&[bool]> = keys.iter().filter_map(|c| c.validity()).collect();

        let chunk = config.morsel_rows;
        let n_chunks = build.num_rows().div_ceil(chunk).max(1);
        let n_parts = (pool_workers(config.threads) * 4).min(n_chunks).next_power_of_two();
        let mask = n_parts - 1;

        // Phase 1: scatter build rows into per-chunk, per-partition entry lists.
        let scattered = parallel_map(config.threads, n_chunks, n_chunks, profile, |ci, _prof| {
            let range = chunk_range(ci, chunk, build.num_rows());
            let hashes = hash_side(&keys, range.clone(), columnar);
            let mut parts: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n_parts];
            for (h, i) in hashes.into_iter().zip(range) {
                if nullable.iter().all(|valid| valid[i]) {
                    parts[(h as usize) & mask].push((h, i));
                }
            }
            Ok(parts)
        })?;

        // Phase 2: one table per partition, filled from the last build row
        // back: a chain lists its newest entry first, so rows ascend.
        let tables = parallel_map(config.threads, n_chunks, n_parts, profile, |p, _prof| {
            let mut table = KeyTable::with_capacity(scattered.iter().map(|ps| ps[p].len()).sum());
            for &(hash, row) in scattered.iter().rev().flat_map(|ps| ps[p].iter().rev()) {
                table.insert(hash, row);
            }
            Ok(table)
        })?;
        Ok(JoinBuild { build, tables, build_keys, probe_keys, columnar })
    }

    /// The join of all of `probe` with this side: a one-step pipeline, skipped
    /// when `probe` is empty or, inner, this side is.
    pub(crate) fn join(
        &self,
        probe: &Batch,
        join: JoinSpec<'_>,
        schema: Arc<Schema>,
        config: ParallelConfig,
        profile: &mut QueryProfile,
    ) -> Result<Batch> {
        if probe.num_rows() == 0 || (join.kind == JoinKind::Inner && self.build.num_rows() == 0) {
            return Ok(Batch::empty(schema));
        }
        let steps = vec![Step { op: Op::Probe(Cow::Borrowed(self), join), ids: vec![0] }];
        let source = Source::Batch(Cow::Borrowed(probe));
        materialize(Pipeline { source, steps }, &schema, None, config.normalized(), profile)
    }

    /// The `Join` node as a pipeline step: probes with the live rows of `m`.
    /// NULL keys never match; a LEFT OUTER probe row whose matches all fail the
    /// residual is emitted once, NULL-padded; rows come out in probe-row order,
    /// a row's matches in build-row order. The morsel is looked up in one pass
    /// ([`JoinBuild::lookup`]). When no probe row matched twice — observed
    /// there (every N:1 augmentation join), never taken from the declared
    /// cardinality: a wrong declaration costs a gather, not a row — each build
    /// column is gathered once to line up with the morsel's rows and appended
    /// beside its own (an inner join also refines the selection); only a probe
    /// that expands, or a morsel not starting at row 0, gathers the probe side.
    fn probe<'a>(&self, join: &JoinSpec<'_>, m: Morsel<'a>) -> Result<Morsel<'a>> {
        let (pairs, mut rows) = match &m.sel {
            Some(sel) => self.lookup(join, &m, sel.iter().copied(), m.span.start > 0)?,
            None => self.lookup(join, &m, m.span.clone(), m.span.start > 0)?,
        };
        let (cols, span, sel) = match pairs {
            Some(probe_rows) => {
                let cols = m.cols.iter().map(|c| Cow::Owned(c.gather(&probe_rows))).collect();
                (cols, 0..probe_rows.len(), None)
            }
            // An inner join drops its unmatched rows from the selection.
            None if join.kind == JoinKind::Inner && rows.contains(&NO_ROW) => {
                let mut kept = m.sel.unwrap_or_else(|| m.span.clone().collect());
                kept.retain(|&i| rows[i] != NO_ROW);
                rows.iter_mut().filter(|b| **b == NO_ROW).for_each(|b| *b = 0);
                (m.cols, m.span, Some(kept))
            }
            None => (m.cols, m.span, m.sel),
        };
        let built = gather_ids(&self.build.columns, &rows).map(Cow::Owned);
        let cols = if join.build_left {
            built.chain(cols).collect()
        } else {
            cols.into_iter().chain(built).collect()
        };
        Ok(Morsel { cols, span, sel })
    }

    /// Looks up the `live` rows of `m` (ascending) in phases: the keys of its
    /// span are hashed, then each live row walks its slot's chain, comparing
    /// keys through one [`KeyEq`] (and the residual over the key-equal
    /// candidates only), and records its build row as a `u32`. A NULL key is
    /// looked up like any other and compares unequal: the build holds no NULL
    /// key. With `pairs` — a morsel past row 0, or one whose lookup saw a
    /// second passing match — the probe rows come back beside the build rows.
    fn lookup(
        &self,
        join: &JoinSpec<'_>,
        m: &Morsel<'_>,
        live: impl Iterator<Item = usize> + Clone,
        pairs: bool,
    ) -> Result<(Option<Vec<usize>>, Vec<u32>)> {
        let (build, columns) = (self.build.as_ref(), m.columns());
        let keys: Vec<&Column> = self.probe_keys.iter().map(|&c| columns[c]).collect();
        let build_keys: Vec<&Column> = self.build_keys.iter().map(|&c| &build.columns[c]).collect();
        let same_type = |(b, p): (&&Column, &&Column)| b.sql_type() == p.sql_type();
        if self.columnar && !build_keys.iter().zip(&keys).all(same_type) {
            return Err(VdmError::Exec("join key column differs from its plan type".into()));
        }
        let hashes = hash_side(&keys, m.span.clone(), self.columnar);
        let (eq, mask, start) =
            (KeyEq::new(&build_keys, &keys), self.tables.len() - 1, m.span.start);
        // A residual implies `probe ++ build` = `left ++ right`.
        let probe_width = columns.len();
        let mut pair = RowScratch::new(join.residual, probe_width + build.columns.len());
        let mut passes = |bi: usize, i: usize| -> Result<bool> {
            let Some(f) = join.residual else { return Ok(true) };
            let row = pair.load(|c| match c.checked_sub(probe_width) {
                Some(b) => build.columns[b].get(bi),
                None => columns[c].get(i),
            });
            Ok(f.eval_row(row)?.as_bool()? == Some(true))
        };
        let (left_outer, residual) = (join.kind == JoinKind::LeftOuter, join.residual.is_some());
        // Rows outside the selection are never read: they repeat a build row
        // rather than carry a NULL, so a probe that matched every live row
        // adds no validity mask.
        let fill = if build.num_rows() > 0 { 0 } else { NO_ROW };
        let mut rows = vec![fill; if pairs { 0 } else { m.span.len() }];
        let mut pairs = pairs.then(|| (Vec::new(), Vec::new()));
        for i in live.clone() {
            let (k, mut first, mut matched) = (i - start, NO_ROW, false);
            let h = hashes[k];
            for (_, bi) in self.tables[(h as usize) & mask].candidates(h) {
                if !eq.eq(bi, i) || (residual && !passes(bi, i)?) {
                    continue;
                }
                matched = true;
                match &mut pairs {
                    Some((probe_rows, build_rows)) => {
                        probe_rows.push(i);
                        build_rows.push(bi as u32);
                    }
                    None if first == NO_ROW => first = bi as u32,
                    // A second match: the morsel expands.
                    None => return self.lookup(join, m, live, true),
                }
            }
            match &mut pairs {
                None => rows[k] = first,
                Some((probe_rows, build_rows)) if !matched && left_outer => {
                    probe_rows.push(i);
                    build_rows.push(NO_ROW);
                }
                Some(_) => {}
            }
        }
        Ok(pairs.map_or((None, rows), |(probe_rows, build_rows)| (Some(probe_rows), build_rows)))
    }
}

/// The hash join over two materialized inputs, for [`crate::delta`] and the
/// operator tests: builds on the right input and probes with the left, except
/// that an inner equi-join without residual builds on its smaller input (the
/// paper's §4.4 economics). An inner join with an empty input, or a LEFT
/// OUTER join with an empty left, is empty and builds nothing. Output columns
/// are `left ++ right`; `profile` is scratch (the step is node 0).
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    schema: Arc<Schema>,
    config: ParallelConfig,
    profile: &mut QueryProfile,
) -> Result<Batch> {
    let config = config.normalized();
    let build_left =
        kind == JoinKind::Inner && residual.is_none() && left.num_rows() < right.num_rows();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    if probe.num_rows() == 0 || (kind == JoinKind::Inner && build.num_rows() == 0) {
        return Ok(Batch::empty(schema));
    }
    let build =
        JoinBuild::new(Cow::Borrowed(build), &probe.schema, on, build_left, config, profile)?;
    build.join(probe, JoinSpec { kind, residual, build_left }, schema, config, profile)
}

// ---------------------------------------------------------------------------
// Aggregation: the pipeline's other sink.

/// Groups and their aggregate states: one morsel's partial or, merged, the result.
struct Groups {
    /// One column per key expression, one row per group, first-seen order.
    keys: Vec<Column>,
    /// Per group, one accumulator per aggregate.
    states: Vec<Vec<Accumulator>>,
}

/// The group table: puts each of the `n` rows of the key columns `keys` in a
/// group — rows agreeing on every key, NULLs together — numbered in
/// first-seen order; returns each row's group and each group's first row.
fn group_rows(keys: &[Column], n: usize) -> (Vec<usize>, Vec<usize>) {
    let (hashes, eq) = (hash_keys(keys, 0..n), KeyEq::new(keys, keys));
    let mut table = KeyTable::with_capacity(n);
    let mut group_of = Vec::with_capacity(n);
    for (row, &h) in hashes.iter().enumerate() {
        group_of.push(table.find_or_insert(h, row, |first| eq.eq(first, row)).0);
    }
    (group_of, table.refs().collect())
}

/// One morsel's aggregate partial: group expressions evaluated once into key
/// columns over the live rows, the rows grouped, each row's aggregate
/// arguments fed to its group's accumulators in row order.
fn group_morsel(
    m: &Morsel<'_>,
    group_by: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    schema: &Schema,
) -> Result<Groups> {
    let (live, columns) = (m.live(), m.columns());
    let keys = kernels::project_rows(&columns, group_by, schema, &live)?;
    let (group_of, first_rows) = group_rows(&keys, live.len());
    let fresh = || aggs.iter().map(|(a, _)| a.accumulator()).collect::<Vec<_>>();
    let mut states: Vec<Vec<Accumulator>> = first_rows.iter().map(|_| fresh()).collect();
    // Plain-column arguments read the column; computed ones evaluate over a
    // scratch row of the columns they reference.
    let computed = aggs.iter().filter_map(|(a, _)| a.arg.as_ref());
    let mut scratch =
        RowScratch::new(computed.filter(|e| !matches!(e, Expr::Col(_))), columns.len());
    for (&row, &group) in live.iter().zip(&group_of) {
        let values = scratch.load(|c| columns[c].get(row));
        for ((agg, _), state) in aggs.iter().zip(&mut states[group]) {
            let v = match &agg.arg {
                None => Value::Int(1), // COUNT(*) placeholder
                Some(Expr::Col(c)) => columns[*c].get(row),
                Some(e) => e.eval_row(values)?,
            };
            state.update(&v)?;
        }
    }
    Ok(Groups { keys: keys.iter().map(|c| c.gather_compact(&first_rows)).collect(), states })
}

/// Merges the morsels' partials in morsel order (a group first occurs in the
/// earliest morsel containing it, so the merged order is first-seen order) by
/// grouping their groups through the same table, and finishes each group.
fn merge_groups(
    partials: Vec<Groups>,
    group_by: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    schema: &Arc<Schema>,
) -> Result<Batch> {
    if partials.is_empty() && !group_by.is_empty() {
        return Ok(Batch::empty(Arc::clone(schema)));
    }
    let key = |k| Column::concat(&partials.iter().map(|p| &p.keys[k]).collect::<Vec<_>>());
    let keys: Vec<Column> = (0..group_by.len()).map(key).collect::<Result<_>>()?;
    let mut states: Vec<Vec<Accumulator>> = partials.into_iter().flat_map(|p| p.states).collect();
    let (group_of, mut first_rows) = group_rows(&keys, states.len());
    for (row, &group) in group_of.iter().enumerate() {
        let (merged, rest) = states.split_at_mut(row);
        if let Some(into) = merged.get_mut(first_rows[group]) {
            for (state, other) in into.iter_mut().zip(&rest[0]) {
                state.merge(other)?;
            }
        }
    }
    // A global aggregate over no rows is still one row.
    if group_by.is_empty() && states.is_empty() {
        states.push(aggs.iter().map(|(a, _)| a.accumulator()).collect());
        first_rows.push(0);
    }
    let mut columns: Vec<Column> = keys.iter().map(|c| c.gather(&first_rows)).collect();
    for (j, field) in schema.fields().iter().enumerate().skip(group_by.len()) {
        let finish = |&row: &usize| states[row][j - group_by.len()].finish();
        let values: Vec<Value> = first_rows.iter().map(finish).collect::<Result<_>>()?;
        columns.push(Column::from_values(field.ty, &values)?);
    }
    Batch::new(Arc::clone(schema), columns)
}

// ---------------------------------------------------------------------------
// The recursive executor.

/// Executes `plan` needing at most `budget` output rows (`None` = all of
/// them) and records every node it runs. A budget is sound without an
/// intervening Sort and is pushed only where truncation cannot change
/// which rows *could* appear under LIMIT-without-ORDER semantics — scans,
/// projections, unions, stacked limits, literal rows; every other operator
/// runs (and is recorded) in full and is truncated afterwards.
fn run<'p>(plan: &'p PlanRef, budget: Option<usize>, ctx: &mut Ctx<'p>) -> Result<Batch> {
    let pushes_budget = matches!(
        plan.as_ref(),
        LogicalPlan::Scan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Project { .. }
            | LogicalPlan::UnionAll { .. }
            | LogicalPlan::Limit { .. }
    );
    if budget.is_some() && !pushes_budget {
        return Ok(slice(run(plan, None, ctx)?, 0, budget));
    }
    // Self time is elapsed time minus what the children accumulated in
    // `child_nanos` meanwhile. A pipeline's nodes are recorded by the workers
    // (`rows_in` is `None`); its wall time is the enclosing operator's child time.
    let start = Instant::now();
    let saved_children = std::mem::take(&mut ctx.child_nanos);
    let id = ctx.index.id_of(plan).expect("every node the walker reaches is in the index");
    let (rows_in, out) = match plan.as_ref() {
        LogicalPlan::Aggregate { input, group_by, aggs, schema } => {
            let pipe = pipeline(input, ctx)?;
            let sink = |m: Morsel<'_>| group_morsel(&m, group_by, aggs, schema);
            let partials = run_pipeline(&pipe, Some(id), None, ctx.config, &mut ctx.profile, sink)?;
            let merging = Instant::now();
            let out = merge_groups(partials, group_by, aggs, schema)?;
            let stats = ctx.profile.nodes.entry(id).or_default();
            stats.rows_out += out.num_rows() as u64;
            stats.nanos += nanos_since(merging);
            (None, out)
        }
        LogicalPlan::Scan { .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::Project { .. }
        | LogicalPlan::Join { .. } => {
            let pipe = match (plan.as_ref(), budget) {
                // Under a budget a projection runs over what it left of the input.
                (LogicalPlan::Project { input, .. }, Some(_)) => {
                    let source = Source::Batch(Cow::Owned(run(input, budget, ctx)?));
                    let mut pipe = Pipeline { source, steps: Vec::new() };
                    push_project(&mut pipe, plan, id);
                    pipe
                }
                _ => pipeline(plan, ctx)?,
            };
            (None, materialize(pipe, &plan.schema(), budget, ctx.config, &mut ctx.profile)?)
        }
        LogicalPlan::Values { schema, rows } => {
            let take = budget.map_or(rows.len(), |b| b.min(rows.len()));
            (Some(0), Batch::from_rows(Arc::clone(schema), &rows[..take])?)
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            let mut parts = Vec::with_capacity(inputs.len());
            let mut have = 0usize;
            for inp in inputs {
                if budget.is_some_and(|b| have >= b) {
                    break;
                }
                let part = run(inp, budget.map(|b| b - have), ctx)?;
                have += part.num_rows();
                parts.push(part);
            }
            (Some(have), slice(Batch::concat(Arc::clone(schema), &parts)?, 0, budget))
        }
        // DISTINCT: every column a key, each group's first row kept.
        LogicalPlan::Distinct { input } => {
            let child = run(input, None, ctx)?;
            let first_rows = group_rows(&child.columns, child.num_rows()).1;
            (Some(child.num_rows()), child.gather(&first_rows))
        }
        LogicalPlan::Sort { input, keys } => {
            let child = run(input, None, ctx)?;
            (Some(child.num_rows()), ops::sort(&child, keys)?)
        }
        LogicalPlan::Limit { input, skip, fetch } => {
            let skip_rows = *skip as usize;
            let inner = match fetch {
                Some(f) => {
                    Some(budget.unwrap_or(usize::MAX).min(skip_rows.saturating_add(*f as usize)))
                }
                None => budget.map(|b| b.saturating_add(skip_rows)),
            };
            let child = run(input, inner, ctx)?;
            let take = fetch.map(|f| f as usize).into_iter().chain(budget).min();
            (Some(child.num_rows()), slice(child, skip_rows, take))
        }
    };
    let total = nanos_since(start);
    if let Some(rows_in) = rows_in {
        let self_nanos = total.saturating_sub(ctx.child_nanos);
        ctx.profile.record(id, rows_in as u64, out.num_rows() as u64, self_nanos);
    }
    ctx.child_nanos = saved_children + total;
    Ok(out)
}

/// Rows `skip..skip + fetch` of `batch` (LIMIT/OFFSET, and a budget's cut) —
/// the batch itself when that is all of it.
fn slice(batch: Batch, skip: usize, fetch: Option<usize>) -> Batch {
    let start = skip.min(batch.num_rows());
    let end = fetch.map_or(batch.num_rows(), |f| start.saturating_add(f).min(batch.num_rows()));
    match end - start == batch.num_rows() {
        true => batch,
        false => batch.gather(&(start..end).collect::<Vec<usize>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{thread_name, Rendezvous};
    use crate::pool::{with_worker_pool, WorkerPool};
    use vdm_catalog::TableBuilder;
    use vdm_expr::{AggExpr, AggFunc};
    use vdm_obs::Metrics;
    use vdm_types::SqlType;

    fn many_rows_engine(n: i64) -> (StorageEngine, Arc<vdm_catalog::TableDef>) {
        let def = Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("grp", SqlType::Int, false)
                .column("amt", SqlType::Decimal { scale: 2 }, false)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        );
        let e = StorageEngine::new();
        e.create_table(Arc::clone(&def)).unwrap();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 13),
                    Value::Dec(vdm_types::Decimal::from_units((i * 7 % 1000) as i128, 2)),
                ]
            })
            .collect();
        e.insert("t", rows).unwrap();
        // Half in main, half in delta.
        e.merge_delta("t").unwrap();
        let extra: Vec<Vec<Value>> = (n..n + n / 2)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 13),
                    Value::Dec(vdm_types::Decimal::from_units(5, 2)),
                ]
            })
            .collect();
        e.insert("t", extra).unwrap();
        (e, def)
    }

    fn cfg(threads: usize) -> ParallelConfig {
        ParallelConfig { threads, morsel_rows: 512 }
    }

    fn run_at(plan: &PlanRef, e: &StorageEngine, snap: Snapshot, threads: usize) -> Execution {
        let opts = ExecOptions { snapshot: Some(snap), parallel: cfg(threads) };
        execute_with(plan, e, &opts).unwrap()
    }

    /// Serial mode (`threads: 1`) is the reference the other thread counts
    /// are held to.
    fn assert_equivalent(plan: &PlanRef, e: &StorageEngine) {
        let snap = e.snapshot();
        let serial = run_at(plan, e, snap, 1);
        let sm = Metrics::roll_up(plan, &serial.profile);
        for threads in [2, 4] {
            let par = run_at(plan, e, snap, threads);
            let pm = Metrics::roll_up(plan, &par.profile);
            assert_eq!(par.batch.to_rows(), serial.batch.to_rows(), "threads={threads}");
            assert_eq!(pm.rows_scanned, sm.rows_scanned, "threads={threads}");
            assert_eq!(pm.filter_input_rows, sm.filter_input_rows, "threads={threads}");
            assert_eq!(pm.join_build_rows, sm.join_build_rows, "threads={threads}");
            assert_eq!(pm.join_output_rows, sm.join_output_rows, "threads={threads}");
            assert_eq!(pm.agg_input_rows, sm.agg_input_rows, "threads={threads}");
            assert_eq!(pm.operators, sm.operators, "threads={threads}");
            assert_eq!(par.profile.rows_by_node(), serial.profile.rows_by_node());
        }
    }

    #[test]
    fn parallel_scan_filter_project_matches_serial() {
        let (e, def) = many_rows_engine(4_000);
        let scan = LogicalPlan::scan(Arc::clone(&def));
        assert_equivalent(&scan, &e);
        let filtered = LogicalPlan::filter(scan, Expr::col(1).eq(Expr::int(3))).unwrap();
        assert_equivalent(&filtered, &e);
        let projected = LogicalPlan::project(
            filtered,
            vec![(Expr::col(0), "k".into()), (Expr::col(2), "amt".into())],
        )
        .unwrap();
        assert_equivalent(&projected, &e);
    }

    #[test]
    fn parallel_join_matches_serial() {
        let (e, def) = many_rows_engine(3_000);
        let dim = Arc::new(
            TableBuilder::new("dim")
                .column("g", SqlType::Int, false)
                .column("name", SqlType::Text, false)
                .primary_key(&["g"])
                .build()
                .unwrap(),
        );
        e.create_table(Arc::clone(&dim)).unwrap();
        // Only some groups have dimension rows: outer joins pad the rest.
        e.insert(
            "dim",
            (0..8i64).map(|g| vec![Value::Int(g), Value::str(format!("g{g}"))]).collect(),
        )
        .unwrap();
        let inner = LogicalPlan::inner_join(
            LogicalPlan::scan(Arc::clone(&def)),
            LogicalPlan::scan(Arc::clone(&dim)),
            vec![(1, 0)],
        )
        .unwrap();
        assert_equivalent(&inner, &e);
        let outer = LogicalPlan::left_join(
            LogicalPlan::scan(Arc::clone(&def)),
            LogicalPlan::scan(Arc::clone(&dim)),
            vec![(1, 0)],
        )
        .unwrap();
        assert_equivalent(&outer, &e);
        // Left-outer with residual: padding only when the residual rejects.
        let residual = LogicalPlan::join(
            LogicalPlan::scan(def),
            LogicalPlan::scan(dim),
            JoinKind::LeftOuter,
            vec![(1, 0)],
            Some(Expr::col(4).eq(Expr::str("g3"))),
            None,
            false,
        )
        .unwrap();
        assert_equivalent(&residual, &e);
    }

    #[test]
    fn parallel_aggregate_matches_serial() {
        let (e, def) = many_rows_engine(4_000);
        let agg = LogicalPlan::aggregate(
            LogicalPlan::scan(Arc::clone(&def)),
            vec![(Expr::col(1), "g".into())],
            vec![
                (AggExpr::count_star(), "n".into()),
                (AggExpr::new(AggFunc::Sum, Expr::col(2)), "total".into()),
                (AggExpr::new(AggFunc::Min, Expr::col(0)), "lo".into()),
                (AggExpr::new(AggFunc::Avg, Expr::col(0)), "avg_k".into()),
            ],
        )
        .unwrap();
        assert_equivalent(&agg, &e);
        // Global aggregate (no keys) over the same data.
        let global = LogicalPlan::aggregate(
            LogicalPlan::scan(def),
            vec![],
            vec![(AggExpr::new(AggFunc::Sum, Expr::col(2)), "total".into())],
        )
        .unwrap();
        assert_equivalent(&global, &e);
    }

    #[test]
    fn budgeted_parallel_limit_is_bounded_and_exact() {
        let (e, def) = many_rows_engine(20_000);
        let plan = LogicalPlan::limit(LogicalPlan::scan(def), 5, Some(100));
        // A live head, then a deleted one (waves widen until live rows
        // cover the budget).
        for deleted_head in [false, true] {
            if deleted_head {
                e.delete_where("t", &|r| matches!(r[0], Value::Int(k) if k < 3_000)).unwrap();
            }
            let total = e.row_count("t", e.snapshot()).unwrap();
            let snap = e.snapshot();
            let serial = run_at(&plan, &e, snap, 1);
            assert_eq!(serial.batch.num_rows(), 100);
            for threads in [1, 4] {
                let x = run_at(&plan, &e, snap, threads);
                assert_eq!(x.batch.to_rows(), serial.batch.to_rows());
                let bound = 105 + x.workers * cfg(threads).morsel_rows;
                let scanned = Metrics::roll_up(&plan, &x.profile).rows_scanned;
                assert!(
                    scanned <= bound,
                    "threads={threads}: budgeted scan touched {scanned} rows (bound {bound}, table {total})"
                );
                assert!(scanned < total, "must not scan the whole table");
                if x.workers == 1 && !deleted_head {
                    assert_eq!(scanned, 105, "serial mode reads exactly the budget");
                }
                // What the budget cut off was read, not emitted: the scan
                // node reports the budget at every thread count.
                assert_eq!(x.profile.rows_out(1), Some(105));
            }
        }
    }

    #[test]
    fn budget_truncates_before_a_projection_evaluates() {
        use vdm_expr::BinOp;
        let (e, def) = many_rows_engine(100);
        // `1 / (k - 3)` fails on the fourth row: past the budget of two, but
        // inside the first wave at any worker count above one.
        let quotient =
            Expr::int(1).binary(BinOp::Div, Expr::col(0).binary(BinOp::Sub, Expr::int(3)));
        let project =
            LogicalPlan::project(LogicalPlan::scan(def), vec![(quotient, "q".into())]).unwrap();
        let plan = LogicalPlan::limit(project, 0, Some(2));
        let snap = e.snapshot();
        let serial = run_at(&plan, &e, snap, 1);
        assert_eq!(serial.batch.num_rows(), 2);
        let par = run_at(&plan, &e, snap, 4);
        assert_eq!(par.batch.to_rows(), serial.batch.to_rows());
        assert!(par.profile.nodes[&2].rows_in > 2, "the wave over-read");
        assert_eq!(par.profile.nodes[&1].rows_in, 2, "the projection saw only the budget");
    }

    #[test]
    fn erroring_filter_raises_the_same_error_at_every_thread_count() {
        use vdm_expr::BinOp;
        let (e, def) = many_rows_engine(4_000);
        // `1 / (k - 3) > 0` does not compile to the columnar form; its
        // division by zero sits in the first morsel, later morsels succeed.
        let quotient =
            Expr::int(1).binary(BinOp::Div, Expr::col(0).binary(BinOp::Sub, Expr::int(3)));
        let failing = quotient.binary(BinOp::Gt, Expr::int(0)).or(Expr::col(1).eq(Expr::int(2)));
        let scan = lower_to(&LogicalPlan::scan(def), &[0, 1]);
        let plan = LogicalPlan::filter(scan, failing).unwrap();
        let errors: Vec<String> = [1, 2, 4]
            .iter()
            .map(|&threads| {
                let opts = ExecOptions { snapshot: None, parallel: cfg(threads) };
                execute_with(&plan, &e, &opts).unwrap_err().to_string()
            })
            .collect();
        assert!(errors[0].contains("zero"), "{errors:?}");
        assert!(errors.iter().all(|err| *err == errors[0]), "{errors:?}");
    }

    /// A row-wise predicate sees the selected rows only: `1 / (k - 3)` above a
    /// filter that dropped `k = 3` — behind a column map, so the filter is a
    /// selection over the morsel, not pushed into the scan — never divides by
    /// zero; below it, it raises the same error at every thread count and
    /// morsel size.
    #[test]
    fn a_raising_predicate_sees_only_the_rows_still_selected() {
        use vdm_expr::BinOp;
        let (e, def) = many_rows_engine(4_000);
        let quotient =
            Expr::int(1).binary(BinOp::Div, Expr::col(0).binary(BinOp::Sub, Expr::int(3)));
        let raising = quotient.binary(BinOp::LtEq, Expr::int(1));
        let safe = Expr::col(0).binary(BinOp::NotEq, Expr::int(3));
        let mapped = || LogicalPlan::project_cols(LogicalPlan::scan(Arc::clone(&def)), &[0, 1]);
        let stack = |lower: &Expr, upper: &Expr| {
            let lower = LogicalPlan::filter(mapped().unwrap(), lower.clone()).unwrap();
            LogicalPlan::filter(lower, upper.clone()).unwrap()
        };
        let (after, before) = (stack(&safe, &raising), stack(&raising, &safe));
        let mut errors = Vec::new();
        for morsel_rows in [7, 64, 4096] {
            for threads in [1, 2, 4] {
                let parallel = ParallelConfig { threads, morsel_rows };
                let opts = ExecOptions { snapshot: None, parallel };
                let rows = execute_with(&after, &e, &opts).unwrap().batch.num_rows();
                assert_eq!(rows, 4_000 + 2_000 - 1, "{parallel:?}");
                errors.push(execute_with(&before, &e, &opts).unwrap_err().to_string());
            }
        }
        assert!(errors[0].contains("zero"), "{errors:?}");
        assert!(errors.iter().all(|err| *err == errors[0]), "{errors:?}");
    }

    /// `scan` narrowed to the table ordinals `cols`.
    fn lower_to(scan: &PlanRef, cols: &[usize]) -> PlanRef {
        let LogicalPlan::Scan { table, instance, .. } = scan.as_ref() else { unreachable!() };
        LogicalPlan::scan_cols(Arc::clone(table), *instance, cols)
    }

    #[test]
    fn narrowed_scan_prunes_by_table_ordinal_and_feeds_narrow_morsels() {
        let (e, def) = many_rows_engine(3 * ZONE_BLOCK_ROWS as i64);
        // Scan emits (amt, k): the filter's `$1 >= …` is table column 0,
        // whose zone map must be the one consulted.
        let scan = lower_to(&LogicalPlan::scan(Arc::clone(&def)), &[2, 0]);
        let from = 2 * ZONE_BLOCK_ROWS as i64;
        let pred = Expr::col(1).binary(vdm_expr::BinOp::GtEq, Expr::int(from));
        let narrow = LogicalPlan::filter(scan, pred).unwrap();
        let wide = LogicalPlan::project_cols(
            LogicalPlan::filter(
                LogicalPlan::scan(def),
                Expr::col(0).binary(vdm_expr::BinOp::GtEq, Expr::int(from)),
            )
            .unwrap(),
            &[2, 0],
        )
        .unwrap();
        let skipped = e.blocks_skipped("t").unwrap();
        let snap = e.snapshot();
        let got = run_at(&narrow, &e, snap, 2);
        assert_eq!(e.blocks_skipped("t").unwrap() - skipped, 2, "two leading blocks excluded");
        assert_eq!(got.batch.to_rows(), run_at(&wide, &e, snap, 2).batch.to_rows());
        assert_eq!(got.batch.schema.len(), 2);
        assert_equivalent(&narrow, &e);
    }

    #[test]
    fn every_prunable_conjunct_prunes() {
        let (e, def) = many_rows_engine(3 * ZONE_BLOCK_ROWS as i64);
        // `grp = 3` holds somewhere in every block; `k`, under the second
        // conjunct, ascends with position, so its range alone excludes the
        // two leading blocks — each once, morsels being block-aligned.
        let from = 2 * ZONE_BLOCK_ROWS as i64;
        let pred = Expr::col(1)
            .eq(Expr::int(3))
            .and(Expr::col(0).binary(vdm_expr::BinOp::GtEq, Expr::int(from)));
        let plan = LogicalPlan::filter(LogicalPlan::scan(def), pred).unwrap();
        let skipped = e.blocks_skipped("t").unwrap();
        let got = run_at(&plan, &e, e.snapshot(), 2);
        assert_eq!(e.blocks_skipped("t").unwrap() - skipped, 2);
        // 3 blocks of keys in main, half as many again in the delta.
        let matching = (from..9 * from / 4).filter(|k| k % 13 == 3).count();
        assert_eq!(got.batch.num_rows(), matching);
        // One block of main plus the unindexed delta were visible to the scan.
        assert_eq!(got.profile.rows_out(1), Some(ZONE_BLOCK_ROWS as u64 * 5 / 2));
        assert_equivalent(&plan, &e);
    }

    #[test]
    fn threads_one_runs_inline_on_the_calling_thread() {
        let (e, def) = many_rows_engine(4_000);
        let plan = LogicalPlan::aggregate(
            LogicalPlan::scan(def),
            vec![(Expr::col(1), "g".into())],
            vec![(AggExpr::count_star(), "n".into())],
        )
        .unwrap();
        let caller = std::thread::current().id();
        let check = || {
            // The engine's one dispatch point: at `threads: 1` no item
            // leaves the calling thread, so nothing is spawned or broadcast.
            let mut totals = QueryProfile::default();
            let ids = parallel_map(1, 64, 64, &mut totals, |_, _| Ok(std::thread::current().id()))
                .unwrap();
            assert!(ids.iter().all(|id| *id == caller));
            assert_eq!(totals.morsel_steals, 0);
            let x = run_at(&plan, &e, e.snapshot(), 1);
            assert_eq!(x.workers, 1);
            assert_eq!(x.profile.morsel_steals, 0);
            assert_eq!(x.batch.num_rows(), 13);
        };
        check();
        let pool = WorkerPool::new(3);
        with_worker_pool(&pool, check);
    }

    #[test]
    fn a_wave_under_the_dispatch_floor_runs_inline_at_any_thread_count() {
        let caller = std::thread::current().id();
        let mut totals = QueryProfile::default();
        let ids = parallel_map(4, MIN_DISPATCH_MORSELS - 1, 64, &mut totals, |_, _| {
            Ok(std::thread::current().id())
        })
        .unwrap();
        assert!(ids.iter().all(|id| *id == caller));
        assert_eq!((totals.dispatched, totals.morsel_steals), (0, 0));
        // At the floor the wave is broadcast on the process pool. Its two
        // items meet each other, so the caller cannot run both: a pool
        // thread provably takes one, and it is the one steal counted.
        let met = Rendezvous::default();
        let names = parallel_map(4, MIN_DISPATCH_MORSELS, 2, &mut totals, |_, _| {
            met.meet();
            Ok(thread_name())
        })
        .unwrap();
        assert_eq!(totals.dispatched, 1);
        assert_eq!(totals.morsel_steals, 1);
        assert!(names.iter().any(|n| n.starts_with("vdm-pool-")), "{names:?}");
    }

    /// A dispatched wave of `n` items at `threads`, each recording one
    /// `morsel_bytes` into the partial profile it is handed.
    fn dispatch_wave<T: Send>(
        threads: usize,
        n: usize,
        f: impl Fn(usize) -> Result<T> + Sync,
    ) -> (Result<Vec<T>>, QueryProfile) {
        let mut totals = QueryProfile::default();
        let out = parallel_map(threads, MIN_DISPATCH_MORSELS, n, &mut totals, |i, prof| {
            prof.morsel_bytes += 1;
            f(i)
        });
        (out, totals)
    }

    /// Every item runs exactly once, lands in its own slot, and its partial
    /// profile is merged exactly once; items `>= 57` fail and the lowest
    /// index's error is the one reported.
    fn check_the_contract(ns: &[usize]) {
        for threads in [1, 2, 3, 8] {
            for &n in ns {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let (out, totals) = dispatch_wave(threads, n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    Ok(i * 3)
                });
                assert_eq!(out.unwrap(), (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{threads}/{n}");
                assert_eq!(totals.morsel_bytes, n as u64, "threads={threads} n={n}");
                let stealable = if threads == 1 { 0 } else { n as u64 };
                assert!(totals.morsel_steals <= stealable, "threads={threads} n={n}");
            }
            let (out, _) = dispatch_wave(threads, 100, |i| {
                if i >= 57 {
                    Err(VdmError::Exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(out.unwrap_err(), VdmError::Exec("boom 57".into()));
        }
    }

    #[test]
    fn a_dispatched_wave_keeps_the_contract() {
        check_the_contract(&[0, 1, 2, 7, 100, 1000]);
    }

    #[test]
    fn an_installed_pool_keeps_the_contract() {
        with_worker_pool(&WorkerPool::new(3), || check_the_contract(&[2, 7, 100, 1000]));
    }

    /// A role that dispatches a wave of its own completes — on the process
    /// pool, and on an installed one-thread pool whose only thread is
    /// provably busy in the outer wave while the caller's inner wave is
    /// dispatched onto it: a broadcast never waits on a role that has not
    /// started.
    #[test]
    fn a_role_that_dispatches_a_wave_completes() {
        let nested = || {
            let (met, released) = (Rendezvous::default(), Rendezvous::default());
            let inner = || Ok(dispatch_wave(2, 64, Ok).0?.into_iter().sum::<usize>());
            let (out, _) = dispatch_wave(2, 2, |_| {
                // The two items meet, so one runs on the caller and one on a
                // pool thread; which is which follows the thread, not the
                // index, since every role claims from the same cursor.
                met.meet();
                let on_pool = thread_name().starts_with("vdm-pool-");
                let sum = if on_pool {
                    // Held here until the caller's inner wave is done, so no
                    // pool thread can take that wave's pool role.
                    released.meet();
                    inner()
                } else {
                    let sum = inner();
                    released.meet();
                    sum
                };
                Ok((sum?, on_pool))
            });
            let out = out.unwrap();
            assert!(out.iter().all(|(sum, _)| *sum == 64 * 63 / 2), "{out:?}");
            assert_eq!(out.iter().filter(|(_, on_pool)| *on_pool).count(), 1, "{out:?}");
        };
        nested();
        with_worker_pool(&WorkerPool::new(1), nested);
    }

    /// One item spins for 40 ms while the rest are free: the other worker
    /// claims past it, so the worker holding the hot item runs a minority of
    /// the items, and the steal count is exactly what the pool ran.
    #[test]
    fn a_hot_item_does_not_hold_up_the_rest() {
        let n = 256;
        let caller = std::thread::current().id();
        with_worker_pool(&WorkerPool::new(3), || {
            let (out, totals) = dispatch_wave(4, n, |i| {
                if i == 1 {
                    let t0 = Instant::now();
                    let mut x = 0u64;
                    while t0.elapsed().as_millis() < 40 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                        std::hint::black_box(x);
                    }
                }
                Ok((i, std::thread::current().id()))
            });
            let out = out.unwrap();
            assert!(out.iter().enumerate().all(|(i, (j, _))| i == *j));
            let hot = out[1].1;
            let held = out.iter().filter(|(_, id)| *id == hot).count();
            assert!(held < n / 2, "the hot item's worker ran {held} of {n}");
            let pooled = out.iter().filter(|(_, id)| *id != caller).count();
            assert_eq!(totals.morsel_steals, pooled as u64);
            assert_eq!(totals.morsel_bytes, n as u64, "every role's partial is merged once");
        });
    }

    /// A panicking item reaches the caller, and the process pool still runs
    /// the next dispatched wave to completion, on more than the caller.
    #[test]
    fn a_panicking_item_leaves_the_pool_usable() {
        let caught = std::panic::catch_unwind(|| {
            let mut totals = QueryProfile::default();
            parallel_map(2, MIN_DISPATCH_MORSELS, 64, &mut totals, |i, _| {
                assert_ne!(i, 40, "item 40 panics");
                Ok(i)
            })
        });
        assert!(caught.is_err(), "the panic must reach the caller");
        let met = Rendezvous::default();
        let (out, totals) = dispatch_wave(2, 64, |i| {
            if i < 2 {
                met.meet();
            }
            Ok((i, thread_name()))
        });
        let out = out.unwrap();
        assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
        assert!(out.iter().any(|(_, name)| name.starts_with("vdm-pool-")), "{out:?}");
        assert_eq!(totals.dispatched, 1);
    }
}
