//! Signed-delta evaluation: the batch-level engine behind incremental
//! view maintenance.
//!
//! A [`SignedBatch`] carries the *change* of a subtree's output between
//! two snapshots as two bags: `plus` (rows the output gained) and `minus`
//! (rows it lost). Scans source their deltas from the storage engine's
//! insert/tombstone feeds; filters and projections distribute over both
//! bags through the columnar kernels (compiled-predicate selection
//! vectors, fused column maps) rather than per-row `eval_row`; joins apply
//! the bilinear product rule
//!
//! ```text
//! Δ(A ⋈ B) = ΔA ⋈ B_old  ∪  A_old ⋈ ΔB  ∪  ΔA ⋈ ΔB
//! ```
//!
//! with signs multiplying (`+·+ = +`, `+·− = −`, `−·− = +`). A frozen or
//! unchanged right side is probed through the `JoinBuild` [`KeptSides`]
//! keeps of it; any other unchanged side is read from its snapshot. The
//! caller (the cached-view maintainer) guarantees that frozen sides are
//! actually unchanged — `vdm-plan`'s `DeltaPlan` freezes their tables.

use crate::executor::{hash_join, JoinBuild, JoinSpec};
use crate::kernels::{project_batch, FilterKernel};
use crate::{ExecOptions, ParallelConfig, QueryProfile};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use vdm_obs::NodeIndex;
use vdm_plan::{delta_capable, scan_tables, JoinKind, LogicalPlan, PlanRef};
use vdm_storage::{Batch, Snapshot, StorageEngine};
use vdm_types::{Result, Schema, VdmError};

/// The change of a relation between two snapshots, as signed bags.
#[derive(Debug, Clone)]
pub struct SignedBatch {
    /// Rows the output gained.
    pub plus: Batch,
    /// Rows the output lost (retractions).
    pub minus: Batch,
}

impl SignedBatch {
    /// The empty delta.
    pub fn empty(schema: Arc<Schema>) -> SignedBatch {
        SignedBatch { plus: Batch::empty(Arc::clone(&schema)), minus: Batch::empty(schema) }
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.plus.num_rows() == 0 && self.minus.num_rows() == 0
    }

    /// Total delta rows (both signs) — the cost driver of maintenance.
    pub fn rows(&self) -> usize {
        self.plus.num_rows() + self.minus.num_rows()
    }
}

/// The hash builds of join sides a cached view keeps between passes, at most
/// one per join node (by pre-order id in the view's plan). A build made at
/// snapshot `S` stays valid while every table under its side has
/// `table_version ≤ S` — a write's timestamp is allocated under its table's
/// write lock — and is otherwise made again at `now`.
pub struct KeptSides {
    nodes: NodeIndex,
    /// Per join node: its right side's build, the snapshot it was made at
    /// and the tables under it.
    sides: HashMap<usize, (JoinBuild<'static>, Snapshot, Vec<String>)>,
    /// Side builds made so far.
    pub builds: usize,
}

impl KeptSides {
    /// Nothing kept yet, for the joins of `plan`.
    pub fn new(plan: &PlanRef) -> KeptSides {
        KeptSides { nodes: NodeIndex::new(plan), sides: HashMap::new(), builds: 0 }
    }

    /// Build-side rows held.
    pub fn rows(&self) -> usize {
        self.sides.values().map(|(side, ..)| side.build.num_rows()).sum()
    }

    /// The right input of the join node `join`, hashed as of `now`.
    fn right_of(
        &mut self,
        join: &PlanRef,
        engine: &StorageEngine,
        now: Snapshot,
        parallel: ParallelConfig,
    ) -> Result<&JoinBuild<'static>> {
        let LogicalPlan::Join { left, right, on, .. } = join.as_ref() else {
            unreachable!("right_of takes a Join node")
        };
        let id = self.nodes.id_of(join).ok_or_else(|| VdmError::Plan("join not in plan".into()))?;
        // A table that cannot be read is changed: the rebuild reports why.
        let version = |table: &String| engine.table_version(table).unwrap_or(u64::MAX);
        let stale = |(_, at, deps): &(_, Snapshot, Vec<_>)| deps.iter().any(|t| version(t) > at.0);
        if self.sides.get(&id).is_none_or(stale) {
            let opts = ExecOptions { snapshot: Some(now), parallel };
            let batch = Cow::Owned(crate::execute_with(right, engine, &opts)?.batch);
            let (parallel, mut scratch) = (parallel.normalized(), QueryProfile::default());
            let build = JoinBuild::new(batch, &left.schema(), on, false, parallel, &mut scratch)?;
            self.sides.insert(id, (build, now, scan_tables(right)));
            self.builds += 1;
        }
        Ok(&self.sides[&id].0)
    }
}

/// Evaluates the signed delta of `plan`'s output between `as_of` and
/// `now`, probing the join sides `kept` holds. Errors on subtrees that do not
/// propagate deltas (aggregates, DISTINCT, sorts, limits — and LEFT OUTER
/// joins whose left side is not delta-capable); the maintenance planner
/// routes those to full recompute before ever calling this.
pub fn eval_signed_delta(
    plan: &PlanRef,
    engine: &StorageEngine,
    as_of: Snapshot,
    now: Snapshot,
    parallel: ParallelConfig,
    kept: &mut KeptSides,
) -> Result<SignedBatch> {
    match plan.as_ref() {
        LogicalPlan::Scan { table, cols, schema, .. } => {
            let plus = engine.inserted_between(&table.name, as_of, now, cols.narrowed())?;
            let minus = engine.deleted_between(&table.name, as_of, now, cols.narrowed())?;
            Ok(SignedBatch {
                plus: Batch::new(Arc::clone(schema), plus.columns)?,
                minus: Batch::new(Arc::clone(schema), minus.columns)?,
            })
        }
        // Constant relations never change.
        LogicalPlan::Values { schema, .. } => Ok(SignedBatch::empty(Arc::clone(schema))),
        LogicalPlan::Filter { input, predicate } => {
            let d = eval_signed_delta(input, engine, as_of, now, parallel, kept)?;
            let kernel = FilterKernel::new(predicate);
            let keep = |bag: &Batch| -> Result<Batch> {
                let columns: Vec<_> = bag.columns.iter().collect();
                Ok(bag.gather(&kernel.select(&columns, 0..bag.num_rows(), None)?))
            };
            Ok(SignedBatch { plus: keep(&d.plus)?, minus: keep(&d.minus)? })
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let d = eval_signed_delta(input, engine, as_of, now, parallel, kept)?;
            Ok(SignedBatch {
                plus: project_batch(&d.plus, exprs, Arc::clone(schema))?,
                minus: project_batch(&d.minus, exprs, Arc::clone(schema))?,
            })
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            let mut plus = Vec::with_capacity(inputs.len());
            let mut minus = Vec::with_capacity(inputs.len());
            for c in inputs {
                let d = eval_signed_delta(c, engine, as_of, now, parallel, kept)?;
                plus.push(d.plus);
                minus.push(d.minus);
            }
            Ok(SignedBatch {
                plus: Batch::concat(Arc::clone(schema), &plus)?,
                minus: Batch::concat(Arc::clone(schema), &minus)?,
            })
        }
        LogicalPlan::Join { .. } => join_delta(plan, engine, as_of, now, parallel, kept),
        other => Err(VdmError::Plan(format!(
            "plan operator {} does not propagate deltas",
            other.op_name()
        ))),
    }
}

/// The signed delta of the `Join` node `plan`.
fn join_delta(
    plan: &PlanRef,
    engine: &StorageEngine,
    as_of: Snapshot,
    now: Snapshot,
    parallel: ParallelConfig,
    kept: &mut KeptSides,
) -> Result<SignedBatch> {
    let LogicalPlan::Join { left, right, kind, on, filter, schema, .. } = plan.as_ref() else {
        unreachable!("join_delta takes a Join node")
    };
    let (kind, residual) = (*kind, filter.as_ref());
    // Maintenance keeps no per-node ledger; the join's dispatch totals
    // land in a scratch profile.
    let join = |l: &Batch, r: &Batch| -> Result<Batch> {
        let mut scratch = QueryProfile::default();
        hash_join(l, r, kind, on, residual, Arc::clone(schema), parallel, &mut scratch)
    };
    let snap = |side: &PlanRef, at: Snapshot| -> Result<Batch> {
        let opts = ExecOptions { snapshot: Some(at), parallel };
        crate::execute_with(side, engine, &opts).map(|x| x.batch)
    };
    let probe_right = |ld: &SignedBatch, kept: &mut KeptSides| -> Result<SignedBatch> {
        let b = kept.right_of(plan, engine, now, parallel)?;
        let probe = |bag: &Batch| {
            let join = JoinSpec { kind, residual, build_left: false };
            b.join(bag, join, Arc::clone(schema), parallel, &mut QueryProfile::default())
        };
        Ok(SignedBatch { plus: probe(&ld.plus)?, minus: probe(&ld.minus)? })
    };
    // LEFT OUTER is linear only in its left input: a right-side insert can
    // retract an existing NULL-padded row, which the product rule cannot
    // express. The planner froze the right side's tables.
    let (l_cap, r_cap) = (delta_capable(left), kind == JoinKind::Inner && delta_capable(right));
    if !l_cap && !r_cap {
        let msg = format!("{kind:?} join with no delta-capable side does not propagate deltas");
        return Err(VdmError::Plan(msg));
    }
    // A side that is not delta-capable is frozen: it did not change.
    let mut delta = |cap: bool, side: &PlanRef| match cap {
        true => eval_signed_delta(side, engine, as_of, now, parallel, kept),
        false => Ok(SignedBatch::empty(side.schema())),
    };
    let (ld, rd) = (delta(l_cap, left)?, delta(r_cap, right)?);
    if rd.is_empty() {
        // B frozen or unchanged: Δ(A ⋈ B) = ΔA ⋈ B, probing B's kept build.
        return match ld.is_empty() {
            true => Ok(SignedBatch::empty(Arc::clone(schema))),
            false => probe_right(&ld, kept),
        };
    }
    if ld.is_empty() {
        let a = snap(left, now)?;
        return Ok(SignedBatch { plus: join(&a, &rd.plus)?, minus: join(&a, &rd.minus)? });
    }
    // Both sides moved: the full product rule over signed bags.
    let a_old = snap(left, as_of)?;
    let b_old = snap(right, as_of)?;
    let plus = Batch::concat(
        Arc::clone(schema),
        &[
            join(&ld.plus, &b_old)?,
            join(&a_old, &rd.plus)?,
            join(&ld.plus, &rd.plus)?,
            join(&ld.minus, &rd.minus)?,
        ],
    )?;
    let minus = Batch::concat(
        Arc::clone(schema),
        &[
            join(&ld.minus, &b_old)?,
            join(&a_old, &rd.minus)?,
            join(&ld.plus, &rd.minus)?,
            join(&ld.minus, &rd.plus)?,
        ],
    )?;
    Ok(SignedBatch { plus, minus })
}
