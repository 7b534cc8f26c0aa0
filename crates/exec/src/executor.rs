//! The plan executor: one morsel-driven engine.
//!
//! Every plan runs through the same operators at every thread count; the
//! thread count only decides how the work-stealing [`crate::scheduler`]
//! dispatches an operator's morsels and chunks. At `threads: 1` the
//! scheduler runs every item inline on the calling thread — no thread is
//! spawned and no pool broadcast is issued — and that *is* the serial mode;
//! there is no second interpreter. A wave over fewer than
//! [`MIN_DISPATCH_MORSELS`] morsels runs the same way at any thread count.
//!
//! * **scans** — and any filter/projection stack sitting directly on one —
//!   split the table into fixed-size morsels, so filters and projections
//!   run per morsel (filters through a [`kernels::FilterKernel`] compiled
//!   once per operator); a scan the optimizer narrowed reads, and hands on,
//!   only the table columns it lists ([`vdm_plan::ScanCols`]);
//! * **projection chains** of pure pass-through/renaming nodes fuse into a
//!   single composed column-mapping kernel
//!   ([`vdm_plan::fusion`] + [`kernels::apply_column_map`]), with per-node
//!   stats attributed back to every covered node;
//! * **joins** — one [`hash_join`] at every input size, for the plan
//!   walker and for [`crate::delta`] — partition the build side by key
//!   hash (columnar branch-free hashing when both sides' key columns share
//!   a physical type), chain each partition's row ids by hash slot (no key
//!   is materialized; a probe compares the key columns in place), probe
//!   chunks of the other side and assemble the output by payload-level
//!   gather; a build side of one chunk is one partition and runs inline;
//! * **aggregations** radix-partition rows by group-key hash so each
//!   worker owns a disjoint key range and groups never merge across
//!   workers ([`vdm_expr::Accumulator::merge`] is only needed on the
//!   small-input and global-aggregate path);
//! * **UNION ALL** concatenates branch results columnar-wise.
//!
//! Results — *including row order* — do not depend on scheduling or on the
//! worker count: every merge happens in morsel/chunk index order. The one
//! exception is a scan's `rows_in` (`Metrics::rows_scanned`) under a
//! pushed-down LIMIT: the budgeted leaf pipeline dispatches whole waves of
//! budget-sized morsels and stops once the completed prefix covers the
//! budget, so it scans at most `budget + workers * morsel_rows` rows
//! (exactly `budget` in the serial mode when the table's head is live).
//!
//! There is one plan walker (`run`; a LIMIT budget is its argument)
//! and one ledger: every node the walker runs records rows in, rows out,
//! self time, calls and workers into the [`QueryProfile`], on every
//! execution. Operator-class totals are [`vdm_obs::Metrics::roll_up`] of
//! that.

use crate::kernels::{self, FilterKernel, FxHashMap, RowScratch};
use crate::ops;
use crate::scheduler;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use vdm_expr::{AggExpr, Expr};
use vdm_obs::{NodeIndex, QueryProfile};
use vdm_plan::fusion;
use vdm_plan::{JoinKind, LogicalPlan, PlanRef, ScanCols};
use vdm_storage::zonemap::ZONE_BLOCK_ROWS;
use vdm_storage::{Batch, ScanFilter, ScanRange, Snapshot, StorageEngine};
use vdm_types::{Result, Schema, Value};

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
    fn normalized(self) -> ParallelConfig {
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
    /// Per-node stats keyed by pre-order node id, plus scheduler totals —
    /// the only thing the executor counts. Operator-class totals are
    /// [`vdm_obs::Metrics::roll_up`] of the plan and this.
    pub profile: QueryProfile,
    /// Workers the scheduler dispatched onto: `threads` capped at the
    /// host's cores (floor 2), `1` in the serial mode.
    pub workers: usize,
}

/// Executes `plan` at the engine's current snapshot with default options.
pub fn execute(plan: &PlanRef, engine: &StorageEngine) -> Result<Batch> {
    Ok(execute_with(plan, engine, &ExecOptions::default())?.batch)
}

/// Executes `plan` against `engine` as `opts` directs.
pub fn execute_with(
    plan: &PlanRef,
    engine: &StorageEngine,
    opts: &ExecOptions,
) -> Result<Execution> {
    let config = opts.parallel.normalized();
    let mut ctx = Ctx {
        engine,
        snapshot: opts.snapshot.unwrap_or_else(|| engine.snapshot()),
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

impl Ctx<'_> {
    /// The profile key of `plan`, a node of the plan being executed.
    fn id_of(&self, plan: &PlanRef) -> usize {
        self.index.id_of(plan).expect("every node the walker reaches is in the plan's index")
    }
}

/// OS worker threads actually spawned for a logical `threads` setting:
/// capped at the machine's available parallelism, because oversubscribing
/// cores only adds spawn and context-switch cost (results are
/// schedule-independent, so the cap cannot change output). A floor of two
/// keeps cross-worker merge paths exercised even on single-core hosts.
fn pool_workers(threads: usize) -> usize {
    threads.min(host_cores().max(2))
}

/// Morsels of input a wave must span before it is dispatched to other
/// threads; a shorter wave runs inline on the calling thread (the serial
/// mode). At the default morsel size that is 65 536 rows — about half the
/// 122 880-row row group that is DuckDB's unit of parallelism. Below it a
/// second worker buys at most 1.3× on an operator that lasts well under a
/// millisecond, and only when the host runs the woken thread on a core of
/// its own at once: what a short query costs would follow the host's
/// scheduler, not the query (EXPERIMENTS.md, "Touched fields only").
const MIN_DISPATCH_MORSELS: usize = 16;

/// Runs `f` over indices `0..n` — one wave covering `morsels` morsels of
/// input — on the work-stealing scheduler. Results come back in index order
/// and the worker-local partial profiles `f` records into are merged into
/// `profile`, so the output is schedule-independent; errors surface as the
/// failing index's error (lowest index wins — what a left-to-right run
/// reports). The scheduler's steal and claim counts land in `profile`'s
/// totals.
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
    let workers = if morsels < MIN_DISPATCH_MORSELS { 1 } else { pool_workers(threads) };
    let (out, states, stats) = scheduler::run_with(workers, n, QueryProfile::default, f)?;
    for partial in &states {
        profile.merge(partial);
    }
    profile.morsel_steals += stats.steals as u64;
    profile.morsel_claims += stats.claims as u64;
    Ok(out)
}

/// Row range of chunk `i` when `total` rows split into `chunk`-row pieces.
fn chunk_range(i: usize, chunk: usize, total: usize) -> Range<usize> {
    let start = (i * chunk).min(total);
    start..(start + chunk).min(total)
}

fn chunk_count(total: usize, chunk: usize) -> usize {
    total.div_ceil(chunk).max(1)
}

/// Merges one operator's morsel/chunk outputs in index order. A lone part
/// — every operator in the serial mode over a small input — is adopted as
/// is instead of being copied (and its string dictionaries re-interned).
fn merge_parts(schema: Arc<Schema>, mut parts: Vec<Batch>) -> Result<Batch> {
    if parts.len() == 1 {
        return Batch::new(schema, parts.remove(0).columns);
    }
    Batch::concat(schema, &parts)
}

// ---------------------------------------------------------------------------
// Leaf pipelines: Scan with optional Filter/Project stack, fused per morsel.

enum LeafStep<'p> {
    Filter(FilterKernel<'p>),
    Project(&'p [(Expr, String)], &'p Arc<Schema>),
    /// One or more adjacent pass-through/renaming projections, composed
    /// into a single column mapping executed by
    /// [`kernels::apply_column_map`]. `covered` is how many plan nodes
    /// (and `nodes` entries) the mapping absorbs.
    FusedMap {
        mapping: Vec<usize>,
        schema: &'p Arc<Schema>,
        covered: usize,
    },
}

struct LeafPipeline<'p> {
    table: &'p str,
    /// What the scan emits (table ordinals; `None` = every column).
    cols: &'p ScanCols,
    scan_schema: &'p Arc<Schema>,
    /// Zone-map pruning from the filter sitting directly on the scan, one
    /// range per prunable conjunct, its column as a table ordinal.
    ranges: Vec<(usize, ScanRange)>,
    /// Operators above the scan, bottom-up.
    steps: Vec<LeafStep<'p>>,
    /// The covered plan nodes: the scan first, then one per node a step
    /// absorbs, in `steps` order.
    nodes: Vec<&'p PlanRef>,
}

impl LeafPipeline<'_> {
    fn output_schema(&self) -> Arc<Schema> {
        for step in self.steps.iter().rev() {
            match step {
                LeafStep::Project(_, s) | LeafStep::FusedMap { schema: s, .. } => {
                    return Arc::clone(s)
                }
                LeafStep::Filter(_) => {}
            }
        }
        Arc::clone(self.scan_schema)
    }
}

/// Recognizes a scan-rooted pipeline (`Scan`, `Filter(Scan)`,
/// `Project(…(Scan))`, …) that can run morsel-at-a-time without any
/// cross-morsel state. Zone-map pruning attaches at a filter directly over
/// the scan. With `stack` off only the bare scan is recognized: under a
/// LIMIT budget the last wave over-reads, and no operator may see (or fail
/// on) rows the budget then cuts off.
fn extract_leaf(plan: &PlanRef, stack: bool) -> Option<LeafPipeline<'_>> {
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, schema, .. } => Some(LeafPipeline {
            table: &table.name,
            cols,
            scan_schema: schema,
            ranges: Vec::new(),
            steps: Vec::new(),
            nodes: vec![plan],
        }),
        LogicalPlan::Filter { input, predicate } if stack => {
            let mut p = extract_leaf(input, stack)?;
            if p.steps.is_empty() {
                p.ranges = prune_ranges(predicate, p.cols);
            }
            p.steps.push(LeafStep::Filter(FilterKernel::new(predicate)));
            p.nodes.push(plan);
            Some(p)
        }
        LogicalPlan::Project { input, exprs, schema } if stack => {
            let mut p = extract_leaf(input, stack)?;
            match fusion::column_mapping(exprs) {
                // Pure column mapping: fuse into the step below when that
                // is itself a (possibly already fused) column mapping.
                Some(outer) => match p.steps.last_mut() {
                    Some(LeafStep::FusedMap { mapping, schema: s, covered }) => {
                        // out[j] = prev[outer[j]] — compose in place.
                        *mapping = outer.iter().map(|&j| mapping[j]).collect();
                        *s = schema;
                        *covered += 1;
                    }
                    _ => p.steps.push(LeafStep::FusedMap { mapping: outer, schema, covered: 1 }),
                },
                None => p.steps.push(LeafStep::Project(exprs, schema)),
            }
            p.nodes.push(plan);
            Some(p)
        }
        _ => None,
    }
}

/// Runs a leaf pipeline morsel by morsel, every covered node recorded per
/// morsel by the workers. Without a budget one wave covers the table.
/// With one (the pipeline is then the bare scan), morsels are no larger
/// than the budget and waves dispatch in index order until the completed
/// prefix covers it: the first wave is one morsel per worker, so the serial
/// mode reads exactly `budget` rows when the table's head is live; waves
/// then double (deleted heads cost O(log) dispatches) up to
/// `workers * morsel_rows` rows. Scanned rows stay within
/// `budget + workers * morsel_rows`, keeping pushed-down LIMIT O(k) instead
/// of O(table).
fn run_leaf(pipe: &LeafPipeline<'_>, budget: Option<usize>, ctx: &mut Ctx<'_>) -> Result<Batch> {
    let start = Instant::now();
    let config = ctx.config;
    // Pruned scans align morsels to zone-map blocks so every block belongs
    // to exactly one morsel and is skipped (and counted) at most once.
    let morsel_rows = if !pipe.ranges.is_empty() {
        config.morsel_rows.div_ceil(ZONE_BLOCK_ROWS).max(1) * ZONE_BLOCK_ROWS
    } else {
        budget.map_or(config.morsel_rows, |b| b.clamp(1, config.morsel_rows))
    };
    let n = ctx.engine.morsel_count(pipe.table, morsel_rows)?;
    let (mut width, widest) = match budget {
        Some(_) => {
            let workers = pool_workers(config.threads);
            (workers, workers.saturating_mul(config.morsel_rows) / morsel_rows)
        }
        None => (n, n),
    };
    let engine = ctx.engine;
    let snapshot = ctx.snapshot;
    // Pre-resolved node ids, so worker closures record into plain maps. The
    // run is counted here: workers record morsels, and a pipeline over an
    // empty table dispatches none.
    let ids: Vec<usize> = pipe.nodes.iter().map(|node| ctx.id_of(node)).collect();
    for id in &ids {
        ctx.profile.nodes.entry(*id).or_default().runs += 1;
    }
    let mut parts: Vec<Batch> = Vec::new();
    let (mut have, mut base) = (0usize, 0usize);
    while base < n && budget.is_none_or(|b| have < b) {
        let wave = (n - base).min(width);
        width = (width * 2).min(widest);
        // A budget shrinks the morsels; the wave's span is in full-size ones.
        let span = (wave * morsel_rows).div_ceil(config.morsel_rows);
        let batches = parallel_map(config.threads, span, wave, &mut ctx.profile, |i, prof| {
            leaf_morsel(engine, snapshot, pipe, base + i, morsel_rows, &ids, prof)
        })?;
        have += batches.iter().map(Batch::num_rows).sum::<usize>();
        parts.extend(batches);
        base += wave;
    }
    let out = truncate(merge_parts(pipe.output_schema(), parts)?, budget);
    // The last wave over-reads: what the budget cut off the scan read
    // (`rows_in`) but did not emit.
    ctx.profile.nodes.get_mut(&ids[0]).expect("recorded above").rows_out -=
        (have - out.num_rows()) as u64;
    // Charge the pipeline's wall time as child time of the enclosing
    // operator (the covered nodes' own time is the workers' kernel time).
    ctx.child_nanos += nanos_since(start);
    Ok(out)
}

fn leaf_morsel(
    engine: &StorageEngine,
    snapshot: Snapshot,
    pipe: &LeafPipeline<'_>,
    morsel: usize,
    morsel_rows: usize,
    ids: &[usize],
    prof: &mut QueryProfile,
) -> Result<Batch> {
    let t = Instant::now();
    let cols = pipe.cols.narrowed();
    // The filter directly on the scan refines the morsel's selection before
    // the gather; storage returns a superset (the delta comes back whole), so
    // the step below still runs, over the survivors.
    let pushed = match pipe.steps.first() {
        Some(LeafStep::Filter(kernel)) => kernel.pushed(cols),
        _ => None,
    };
    let filter = ScanFilter { ranges: &pipe.ranges, mask: pushed.as_deref() };
    let (raw, visible) =
        engine.scan_morsel(pipe.table, snapshot, morsel, morsel_rows, filter, cols)?;
    let scan_nanos = nanos_since(t);
    let mut batch = Batch::new(Arc::clone(pipe.scan_schema), raw.columns)?;
    // Bytes are charged for the rows gathered; the scan's ledger line is the
    // visible rows, whatever the filter let through early — they are the
    // filter's `rows_in`.
    prof.morsel_bytes += (kernels::row_bytes(&batch) * batch.num_rows()) as u64;
    let mut rows = visible as u64;
    prof.record_morsel(ids[0], rows, rows, scan_nanos);
    // `ids` holds one entry per covered plan node; steps advance the
    // cursor by however many nodes they absorb (FusedMap covers several).
    let mut next = 1usize;
    for step in &pipe.steps {
        let t = Instant::now();
        let covered = match step {
            LeafStep::Filter(kernel) => {
                batch = kernel.filter(&batch, 0..batch.num_rows())?;
                1
            }
            LeafStep::Project(exprs, schema) => {
                batch =
                    kernels::project_rows(&batch, exprs, Arc::clone(schema), 0..batch.num_rows())?;
                1
            }
            LeafStep::FusedMap { mapping, schema, covered } => {
                batch = kernels::apply_column_map(&batch, mapping, Arc::clone(schema))?;
                *covered
            }
        };
        let step_nanos = nanos_since(t);
        let rows_in = std::mem::replace(&mut rows, batch.num_rows() as u64);
        // Every covered node reports this morsel's rows; the kernel time
        // goes to the outermost covered node (the last id).
        for (k, id) in ids[next..next + covered].iter().enumerate() {
            let nanos = if k + 1 == covered { step_nanos } else { 0 };
            prof.record_morsel(*id, rows_in, rows, nanos);
        }
        next += covered;
    }
    Ok(batch)
}

// ---------------------------------------------------------------------------
// The recursive executor.

/// Executes `plan` needing at most `budget` output rows (`None` = all of
/// them) and records every node it runs. A budget is sound without an
/// intervening Sort and is pushed only where truncation cannot change
/// which rows *could* appear under LIMIT-without-ORDER semantics — scans,
/// projections, unions, stacked limits, literal rows; every other operator
/// runs (and is recorded) in full and is truncated afterwards.
fn run(plan: &PlanRef, budget: Option<usize>, ctx: &mut Ctx<'_>) -> Result<Batch> {
    let pushes_budget = matches!(
        plan.as_ref(),
        LogicalPlan::Scan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Project { .. }
            | LogicalPlan::UnionAll { .. }
            | LogicalPlan::Limit { .. }
    );
    if budget.is_some() && !pushes_budget {
        return Ok(truncate(run(plan, None, ctx)?, budget));
    }
    if let Some(pipe) = extract_leaf(plan, budget.is_none()) {
        return run_leaf(&pipe, budget, ctx);
    }
    // Self time is the node's elapsed time minus what its children
    // accumulated in `child_nanos` meanwhile.
    let start = Instant::now();
    let saved_children = std::mem::take(&mut ctx.child_nanos);
    let mut build_rows = 0;
    let (rows_in, out) = match plan.as_ref() {
        LogicalPlan::Scan { .. } => unreachable!("every scan roots a leaf pipeline"),
        LogicalPlan::Values { schema, rows } => {
            let take = budget.map_or(rows.len(), |b| b.min(rows.len()));
            (0, Batch::from_rows(Arc::clone(schema), &rows[..take])?)
        }
        // Scan-rooted projection chains are absorbed by the leaf pipeline
        // above; this catches chains sitting on joins, aggregates, unions, …
        // and on a budgeted scan, which is truncated before they see it.
        // A chain of pure column maps runs as one composed kernel pass.
        // Column maps preserve cardinality, so every covered node reports
        // the chain's row count (exactly what node-by-node execution would)
        // and the budget passes straight through; the kernel's time goes
        // to the outermost node, recorded below like any other operator.
        LogicalPlan::Project { input, exprs, schema } => {
            match fusion::fused_projection_chain(plan, 2) {
                Some(chain) => {
                    let child = run(chain.input, budget, ctx)?;
                    let rows = child.num_rows();
                    for inner in &chain.nodes[1..] {
                        let id = ctx.id_of(inner);
                        ctx.profile.record(id, rows as u64, rows as u64, 0);
                    }
                    let schema = Arc::clone(chain.schema);
                    (rows, kernels::apply_column_map(&child, &chain.mapping, schema)?)
                }
                None => {
                    let child = run(input, budget, ctx)?;
                    (child.num_rows(), project(&child, exprs, Arc::clone(schema), ctx)?)
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = run(input, None, ctx)?;
            (child.num_rows(), filter(&child, predicate, ctx)?)
        }
        LogicalPlan::Join { left, right, kind, on, filter, schema, .. } => {
            let lb = run(left, None, ctx)?;
            let rb = run(right, None, ctx)?;
            build_rows = rb.num_rows() as u64;
            let (residual, schema) = (filter.as_ref(), Arc::clone(schema));
            let out =
                hash_join(&lb, &rb, *kind, on, residual, schema, ctx.config, &mut ctx.profile)?;
            (lb.num_rows() + rb.num_rows(), out)
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
            (have, truncate(Batch::concat(Arc::clone(schema), &parts)?, budget))
        }
        LogicalPlan::Aggregate { input, group_by, aggs, schema } => {
            let child = run(input, None, ctx)?;
            (child.num_rows(), aggregate(&child, group_by, aggs, Arc::clone(schema), ctx)?)
        }
        LogicalPlan::Distinct { input } => {
            let child = run(input, None, ctx)?;
            (child.num_rows(), ops::distinct(&child)?)
        }
        LogicalPlan::Sort { input, keys } => {
            let child = run(input, None, ctx)?;
            (child.num_rows(), ops::sort(&child, keys)?)
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
            (child.num_rows(), truncate(ops::limit(&child, *skip, *fetch), budget))
        }
    };
    let total = nanos_since(start);
    let id = ctx.id_of(plan);
    let self_nanos = total.saturating_sub(ctx.child_nanos);
    ctx.profile.record(id, rows_in as u64, out.num_rows() as u64, self_nanos).build_rows +=
        build_rows;
    ctx.child_nanos = saved_children + total;
    Ok(out)
}

/// Filter over a materialized batch: selection-vector kernel per chunk,
/// chunked across the pool.
fn filter(child: &Batch, predicate: &Expr, ctx: &mut Ctx<'_>) -> Result<Batch> {
    let kernel = FilterKernel::new(predicate);
    let chunk = ctx.config.morsel_rows;
    let n = chunk_count(child.num_rows(), chunk);
    let row_bytes = kernels::row_bytes(child);
    let parts = parallel_map(ctx.config.threads, n, n, &mut ctx.profile, |i, prof| {
        let range = chunk_range(i, chunk, child.num_rows());
        prof.morsel_bytes += (row_bytes * range.len()) as u64;
        kernel.filter(child, range)
    })?;
    merge_parts(Arc::clone(&child.schema), parts)
}

/// Projection over a materialized batch. Pure column mappings apply as a
/// single whole-batch kernel; computed projections evaluate row-at-a-time,
/// chunked across the pool.
fn project(
    child: &Batch,
    exprs: &[(Expr, String)],
    schema: Arc<Schema>,
    ctx: &mut Ctx<'_>,
) -> Result<Batch> {
    if let Some(map) = fusion::column_mapping(exprs) {
        return kernels::apply_column_map(child, &map, schema);
    }
    let chunk = ctx.config.morsel_rows;
    let n = chunk_count(child.num_rows(), chunk);
    let row_bytes = kernels::row_bytes(child);
    let parts = parallel_map(ctx.config.threads, n, n, &mut ctx.profile, |i, prof| {
        let range = chunk_range(i, chunk, child.num_rows());
        prof.morsel_bytes += (row_bytes * range.len()) as u64;
        kernels::project_rows(child, exprs, Arc::clone(&schema), range)
    })?;
    merge_parts(schema, parts)
}

// ---------------------------------------------------------------------------
// The partitioned hash join.

/// Per-chunk partition-routing hashes for the key columns `cols` over
/// `range`. The columnar kernel hashes typed payloads directly; it is
/// only consistent *across two batches* when each key column pair shares
/// a physical type (see [`kernels`] module docs), which the caller gates
/// via `columnar`. Otherwise keys hash through `Value::hash`, canonical
/// across the Int/Dec numeric family.
fn routing_hashes(batch: &Batch, cols: &[usize], range: Range<usize>, columnar: bool) -> Vec<u64> {
    if columnar {
        return kernels::hash_keys(batch, cols, range);
    }
    range
        .map(|i| {
            let key: Vec<Value> = cols.iter().map(|&c| batch.columns[c].get(i)).collect();
            kernels::hash_values(&key)
        })
        .collect()
}

/// One partition of a join's build side: its row ids in build-row order,
/// chained per hash slot. No key and no hash is stored — a probe walks the
/// chain of its slot and compares the key columns in place.
struct JoinTable {
    rows: Vec<usize>,
    /// Per slot, 1 + the index in `rows` of its first entry; 0 = empty.
    heads: Vec<usize>,
    /// Per entry, 1 + the index of the next entry in its slot; 0 = last.
    next: Vec<usize>,
    /// The hash bits below `shift` chose the partition; slots use the rest.
    shift: u32,
}

impl JoinTable {
    /// Chains `entries` — `(routing hash, row id)`, ascending by row.
    fn build(entries: &[(u64, usize)], shift: u32) -> JoinTable {
        let mut table = JoinTable {
            rows: entries.iter().map(|&(_, row)| row).collect(),
            heads: vec![0; (entries.len() * 2).next_power_of_two()],
            next: vec![0; entries.len()],
            shift,
        };
        // Last entry first, each pushed onto the front of its chain: a slot
        // then lists its entries in build-row order.
        for (k, &(hash, _)) in entries.iter().enumerate().rev() {
            let slot = table.slot(hash);
            table.next[k] = std::mem::replace(&mut table.heads[slot], k + 1);
        }
        table
    }

    fn slot(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize & (self.heads.len() - 1)
    }

    /// The build rows sharing `hash`'s slot, ascending.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[self.slot(hash)];
        std::iter::from_fn(move || {
            let k = at.checked_sub(1)?;
            at = self.next[k];
            Some(self.rows[k])
        })
    }
}

/// The hash join: builds on the right input and probes with the left,
/// except that an inner equi-join without residual commutes and builds on
/// its smaller input (the economics the paper points at when discussing
/// limit pushdown, §4.4). Output columns are `left ++ right`; rows come in
/// probe-row order, a probe row's matches in build-row order.
///
/// NULL join keys never match (SQL equi-join semantics). For left-outer
/// joins, a left row whose matches all fail the residual filter is still
/// emitted once, NULL-padded.
///
/// The build side is partitioned by key hash into per-partition
/// [`JoinTable`]s of row ids, chunks of the probe side probe them
/// concurrently — a probe row walks its slot's chain and compares the key
/// columns cell against cell ([`kernels::cells_equal`]) — and chunk outputs
/// concatenate in chunk order. Chunk and partition counts follow the input
/// sizes, so a one-chunk build side is one partition and every phase runs
/// inline on the calling thread.
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
    let build_cols: Vec<usize> =
        on.iter().map(|&(lc, rc)| if build_left { lc } else { rc }).collect();
    let probe_cols: Vec<usize> =
        on.iter().map(|&(lc, rc)| if build_left { rc } else { lc }).collect();
    // Columnar routing hashes are safe only when each key column pair has
    // the same physical type on both sides (`Int(2) == Dec(2.00)` must not
    // land in different partitions).
    let columnar = build_cols
        .iter()
        .zip(&probe_cols)
        .all(|(&b, &p)| build.columns[b].sql_type() == probe.columns[p].sql_type());
    // NULL keys never match: such rows are neither inserted nor probed.
    let null_key =
        |side: &Batch, cols: &[usize], i: usize| cols.iter().any(|&c| side.columns[c].is_null(i));

    let chunk = config.morsel_rows;
    let n_chunks = chunk_count(build.num_rows(), chunk);
    let n_parts = (pool_workers(config.threads) * 4).min(n_chunks).next_power_of_two();
    let mask = n_parts - 1;

    // Phase 1: scatter build rows into per-chunk, per-partition entry lists.
    let build_bytes = kernels::row_bytes(build);
    let scattered = parallel_map(config.threads, n_chunks, n_chunks, profile, |ci, prof| {
        let range = chunk_range(ci, chunk, build.num_rows());
        prof.morsel_bytes += (build_bytes * range.len()) as u64;
        let hashes = routing_hashes(build, &build_cols, range.clone(), columnar);
        let mut parts: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n_parts];
        for (h, i) in hashes.into_iter().zip(range) {
            if !null_key(build, &build_cols, i) {
                parts[(h as usize) & mask].push((h, i));
            }
        }
        Ok(parts)
    })?;

    // Phase 2: one table per partition. Chunks are visited in index order,
    // so every chain holds build-row indices ascending.
    let tables = parallel_map(config.threads, n_chunks, n_parts, profile, |p, _prof| {
        let entries: Vec<_> = scattered.iter().flat_map(|parts| &parts[p]).copied().collect();
        Ok(JoinTable::build(&entries, mask.count_ones()))
    })?;

    // Phase 3: probe in parallel over chunks of the probe side. Matches
    // accumulate as index pairs; the output batch is assembled by a
    // payload-level columnar gather — no row materialization.
    let probe_chunks = chunk_count(probe.num_rows(), chunk);
    let probe_bytes = kernels::row_bytes(probe);
    let parts = parallel_map(config.threads, probe_chunks, probe_chunks, profile, |ci, prof| {
        let range = chunk_range(ci, chunk, probe.num_rows());
        prof.morsel_bytes += (probe_bytes * range.len()) as u64;
        let hashes = routing_hashes(probe, &probe_cols, range.clone(), columnar);
        let mut probe_sel: Vec<usize> = Vec::new();
        let mut build_sel: Vec<Option<usize>> = Vec::new();
        let mut pair = RowScratch::new(residual, schema.len());
        let probe_width = probe.columns.len();
        for (h, i) in hashes.into_iter().zip(range) {
            let candidates = (!null_key(probe, &probe_cols, i))
                .then(|| tables[(h as usize) & mask].candidates(h));
            let mut emitted = false;
            for bi in candidates.into_iter().flatten() {
                let keys_equal = build_cols.iter().zip(&probe_cols).all(|(&b, &p)| {
                    kernels::cells_equal(&build.columns[b], bi, &probe.columns[p], i)
                });
                // A residual implies `probe ++ build` = `left ++ right`.
                let pass = keys_equal
                    && match residual {
                        Some(f) => {
                            let row = pair.load(|c| match c.checked_sub(probe_width) {
                                Some(b) => build.columns[b].get(bi),
                                None => probe.columns[c].get(i),
                            });
                            f.eval_row(row)?.as_bool()? == Some(true)
                        }
                        None => true,
                    };
                if pass {
                    probe_sel.push(i);
                    build_sel.push(Some(bi));
                    emitted = true;
                }
            }
            if !emitted && kind == JoinKind::LeftOuter {
                probe_sel.push(i);
                build_sel.push(None);
            }
        }
        let probe_out = probe.columns.iter().map(|c| c.gather(&probe_sel));
        let build_out = build.columns.iter().map(|c| c.gather_opt(&build_sel));
        let columns = if build_left {
            build_out.chain(probe_out).collect()
        } else {
            probe_out.chain(build_out).collect()
        };
        Batch::new(Arc::clone(&schema), columns)
    })?;
    merge_parts(schema, parts)
}

// ---------------------------------------------------------------------------
// Aggregation.
//
// Two strategies:
//
// * **partition-wise** (the default for grouped aggregation): rows are
//   radix-partitioned by group-key hash, each worker owns a disjoint set
//   of partitions — and therefore a disjoint key range — so a group's
//   accumulator is updated by exactly one worker in global row order and
//   no cross-worker state merge ever happens. Finished groups carry their
//   global first-row index; one final sort by that index yields
//   first-seen output order, whatever the partitioning.
// * **chunk partials** (global aggregates and small inputs): thread-local
//   partial states per chunk, merged in chunk order via
//   [`vdm_expr::Accumulator::merge`].

type AggPartial = (Vec<Vec<Value>>, Vec<Vec<vdm_expr::Accumulator>>);

/// Hash aggregation over one row range, producing partial states
/// instead of finished values (group order: first-seen within the range).
fn agg_partial(
    input: &Batch,
    range: Range<usize>,
    group_by: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
) -> Result<AggPartial> {
    let mut groups: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut states: Vec<Vec<vdm_expr::Accumulator>> = Vec::new();
    if group_by.is_empty() {
        groups.insert(Vec::new(), 0);
        order.push(Vec::new());
        states.push(aggs.iter().map(|(a, _)| a.accumulator()).collect());
    }
    for i in range {
        let row = input.row(i);
        let mut key = Vec::with_capacity(group_by.len());
        for (e, _) in group_by {
            key.push(e.eval_row(&row)?);
        }
        let slot = match groups.get(&key) {
            Some(&s) => s,
            None => {
                let s = order.len();
                groups.insert(key.clone(), s);
                order.push(key);
                states.push(aggs.iter().map(|(a, _)| a.accumulator()).collect());
                s
            }
        };
        for (j, (agg, _)) in aggs.iter().enumerate() {
            let v = match &agg.arg {
                Some(a) => a.eval_row(&row)?,
                None => Value::Int(1), // COUNT(*) placeholder
            };
            states[slot][j].update(&v)?;
        }
    }
    Ok((order, states))
}

/// One aggregate's input value for row `i`: plain-column arguments read
/// the column directly (no row materialization), computed arguments fall
/// back to row evaluation, `COUNT(*)` uses its placeholder.
fn agg_arg_value(child: &Batch, i: usize, agg: &AggExpr) -> Result<Value> {
    match &agg.arg {
        None => Ok(Value::Int(1)), // COUNT(*) placeholder
        Some(Expr::Col(c)) => Ok(child.columns[*c].get(i)),
        Some(e) => e.eval_row(&child.row(i)),
    }
}

fn aggregate(
    child: &Batch,
    group_by: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    schema: Arc<Schema>,
    ctx: &mut Ctx<'_>,
) -> Result<Batch> {
    let config = ctx.config;
    let (threads, chunk) = (config.threads, config.morsel_rows);
    // Global aggregates have a single group — nothing to partition; tiny
    // inputs aren't worth the scatter pass.
    if group_by.is_empty() || child.num_rows() < 2 * chunk {
        return aggregate_merge(child, group_by, aggs, schema, ctx);
    }

    // Columnar key extraction/hashing applies when every group expression
    // is a plain column (a single batch hashes consistently within each
    // column, so no cross-batch type gate is needed here).
    let key_cols: Option<Vec<usize>> = group_by
        .iter()
        .map(|(e, _)| match e {
            Expr::Col(i) => Some(*i),
            _ => None,
        })
        .collect();
    let n_parts = (pool_workers(threads) * 4).next_power_of_two();
    let mask = n_parts - 1;
    let n_chunks = chunk_count(child.num_rows(), chunk);
    let row_bytes = kernels::row_bytes(child);

    // Phase 1: scatter (hash, row) pairs into per-chunk partition lists by
    // group-key hash. Intra-chunk order is preserved, so visiting chunks
    // in index order later yields global row order within each partition.
    // Keys are *not* materialized here — a representative row index stands
    // in for each group, so the hot loop allocates nothing per row.
    let scattered = parallel_map(threads, n_chunks, n_chunks, &mut ctx.profile, |ci, prof| {
        let range = chunk_range(ci, chunk, child.num_rows());
        prof.morsel_bytes += (row_bytes * range.len()) as u64;
        let mut parts: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n_parts];
        match &key_cols {
            Some(cols) => {
                let hashes = kernels::hash_keys(child, cols, range.clone());
                for (k, i) in range.enumerate() {
                    let h = hashes[k];
                    parts[(h as usize) & mask].push((h, i));
                }
            }
            None => {
                let mut key = Vec::with_capacity(group_by.len());
                for i in range {
                    let row = child.row(i);
                    key.clear();
                    for (e, _) in group_by {
                        key.push(e.eval_row(&row)?);
                    }
                    let h = kernels::hash_values(&key);
                    parts[(h as usize) & mask].push((h, i));
                }
            }
        }
        Ok(parts)
    })?;

    // Phase 2: exclusive per-partition build. Equal keys always hash to
    // the same partition, so each group belongs to exactly one partition
    // and its accumulators see updates in global row order — no
    // cross-worker merge, hence no merge-order sensitivity. Groups are
    // identified by hash + key comparison against the group's first row
    // (collision chains), so lookups never rebuild or rehash key vectors.
    let built = parallel_map(threads, n_chunks, n_parts, &mut ctx.profile, |p, _prof| {
        let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut groups: Vec<(usize, Vec<vdm_expr::Accumulator>)> = Vec::new();
        for chunk_parts in &scattered {
            for &(h, i) in &chunk_parts[p] {
                let slots = map.entry(h).or_default();
                let mut slot = usize::MAX;
                for &s in slots.iter() {
                    if group_keys_equal(child, group_by, &key_cols, groups[s].0, i)? {
                        slot = s;
                        break;
                    }
                }
                if slot == usize::MAX {
                    slot = groups.len();
                    slots.push(slot);
                    groups.push((i, aggs.iter().map(|(a, _)| a.accumulator()).collect()));
                }
                for (j, (agg, _)) in aggs.iter().enumerate() {
                    let v = agg_arg_value(child, i, agg)?;
                    groups[slot].1[j].update(&v)?;
                }
            }
        }
        Ok(groups)
    })?;

    // Phase 3: groups ordered by global first occurrence give first-seen
    // output order; the key values are materialized once per group from
    // its representative row.
    let mut all: Vec<(usize, Vec<vdm_expr::Accumulator>)> = built.into_iter().flatten().collect();
    all.sort_unstable_by_key(|(first, _)| *first);
    let mut rows = Vec::with_capacity(all.len());
    for (repr, accs) in all {
        let mut row: Vec<Value> = match &key_cols {
            Some(cols) => cols.iter().map(|&c| child.columns[c].get(repr)).collect(),
            None => {
                let r = child.row(repr);
                group_by.iter().map(|(e, _)| e.eval_row(&r)).collect::<Result<_>>()?
            }
        };
        for acc in &accs {
            row.push(acc.finish()?);
        }
        rows.push(row);
    }
    Batch::from_rows(schema, &rows)
}

/// True when rows `a` and `b` agree on every group-key expression. Plain
/// column keys compare column values directly; computed keys re-evaluate
/// per expression with short-circuiting. Uses `Value` equality, i.e. the
/// same NULL-groups-together and Int/Dec-family semantics as a
/// `Vec<Value>`-keyed map.
fn group_keys_equal(
    child: &Batch,
    group_by: &[(Expr, String)],
    key_cols: &Option<Vec<usize>>,
    a: usize,
    b: usize,
) -> Result<bool> {
    match key_cols {
        Some(cols) => Ok(cols.iter().all(|&c| child.columns[c].get(a) == child.columns[c].get(b))),
        None => {
            let ra = child.row(a);
            let rb = child.row(b);
            for (e, _) in group_by {
                if e.eval_row(&ra)? != e.eval_row(&rb)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}

/// Chunk-partial aggregation: thread-local partial states merged in
/// chunk order — a group's global first occurrence lies in the earliest
/// chunk containing it, so the merged order is first-seen order.
fn aggregate_merge(
    child: &Batch,
    group_by: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    schema: Arc<Schema>,
    ctx: &mut Ctx<'_>,
) -> Result<Batch> {
    let chunk = ctx.config.morsel_rows;
    let n = chunk_count(child.num_rows(), chunk);
    let partials = parallel_map(ctx.config.threads, n, n, &mut ctx.profile, |i, _prof| {
        agg_partial(child, chunk_range(i, chunk, child.num_rows()), group_by, aggs)
    })?;
    let mut groups: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut states: Vec<Vec<vdm_expr::Accumulator>> = Vec::new();
    for (p_order, p_states) in partials {
        for (key, accs) in p_order.into_iter().zip(p_states) {
            match groups.get(&key) {
                Some(&slot) => {
                    for (j, acc) in accs.iter().enumerate() {
                        states[slot][j].merge(acc)?;
                    }
                }
                None => {
                    groups.insert(key.clone(), order.len());
                    order.push(key);
                    states.push(accs);
                }
            }
        }
    }
    let mut rows = Vec::with_capacity(order.len());
    for (key, accs) in order.into_iter().zip(states.iter()) {
        let mut row = key;
        for acc in accs {
            row.push(acc.finish()?);
        }
        rows.push(row);
    }
    Batch::from_rows(schema, &rows)
}

/// The first `budget` rows of `batch` (all of them without a budget).
fn truncate(batch: Batch, budget: Option<usize>) -> Batch {
    match budget {
        Some(b) if batch.num_rows() > b => batch.gather(&(0..b).collect::<Vec<usize>>()),
        _ => batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let ids_of = |morsels: usize| {
            let mut totals = QueryProfile::default();
            parallel_map(4, morsels, 64, &mut totals, |_, _| Ok(std::thread::current().id()))
                .unwrap()
        };
        assert!(ids_of(MIN_DISPATCH_MORSELS - 1).iter().all(|id| *id == caller));
        // Without an installed pool the scheduler spawns scoped workers, so
        // at the floor no item stays on the caller.
        assert!(ids_of(MIN_DISPATCH_MORSELS).iter().all(|id| *id != caller));
    }
}
