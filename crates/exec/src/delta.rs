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
//! with signs multiplying (`+·+ = +`, `+·− = −`, `−·− = +`), probing any
//! unchanged or non-delta-capable side from its snapshot scan. The caller
//! (the cached-view maintainer) guarantees that snapshot-probed sides are
//! actually unchanged — `vdm-plan`'s `DeltaPlan` freezes their tables.

use crate::executor::hash_join;
use crate::kernels::{project_batch, FilterKernel};
use crate::{ExecOptions, ParallelConfig, QueryProfile};
use std::sync::Arc;
use vdm_expr::Expr;
use vdm_plan::{delta_capable, JoinKind, LogicalPlan, PlanRef};
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

/// Evaluates the signed delta of `plan`'s output between `as_of` and
/// `now`. Errors on subtrees that do not propagate deltas (aggregates,
/// DISTINCT, sorts, limits — and LEFT OUTER joins whose left side is not
/// delta-capable); the maintenance planner routes those to full recompute
/// before ever calling this.
pub fn eval_signed_delta(
    plan: &PlanRef,
    engine: &StorageEngine,
    as_of: Snapshot,
    now: Snapshot,
    parallel: ParallelConfig,
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
            let d = eval_signed_delta(input, engine, as_of, now, parallel)?;
            let kernel = FilterKernel::new(predicate);
            let keep = |bag: &Batch| -> Result<Batch> {
                let columns: Vec<_> = bag.columns.iter().collect();
                Ok(bag.gather(&kernel.select(&columns, 0..bag.num_rows(), None)?))
            };
            Ok(SignedBatch { plus: keep(&d.plus)?, minus: keep(&d.minus)? })
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let d = eval_signed_delta(input, engine, as_of, now, parallel)?;
            Ok(SignedBatch {
                plus: project_batch(&d.plus, exprs, Arc::clone(schema))?,
                minus: project_batch(&d.minus, exprs, Arc::clone(schema))?,
            })
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            let mut plus = Vec::with_capacity(inputs.len());
            let mut minus = Vec::with_capacity(inputs.len());
            for c in inputs {
                let d = eval_signed_delta(c, engine, as_of, now, parallel)?;
                plus.push(d.plus);
                minus.push(d.minus);
            }
            Ok(SignedBatch {
                plus: Batch::concat(Arc::clone(schema), &plus)?,
                minus: Batch::concat(Arc::clone(schema), &minus)?,
            })
        }
        LogicalPlan::Join { left, right, kind, on, filter, schema, .. } => join_delta(
            left,
            right,
            *kind,
            on,
            filter.as_ref(),
            schema,
            engine,
            as_of,
            now,
            parallel,
        ),
        other => Err(VdmError::Plan(format!(
            "plan operator {} does not propagate deltas",
            other.op_name()
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn join_delta(
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    schema: &Arc<Schema>,
    engine: &StorageEngine,
    as_of: Snapshot,
    now: Snapshot,
    parallel: ParallelConfig,
) -> Result<SignedBatch> {
    // Maintenance keeps no per-node ledger; the join's dispatch totals
    // land in a scratch profile.
    let join = |l: &Batch, r: &Batch, k: JoinKind| -> Result<Batch> {
        let mut scratch = QueryProfile::default();
        hash_join(l, r, k, on, residual, Arc::clone(schema), parallel, &mut scratch)
    };
    let snap = |side: &PlanRef, at: Snapshot| -> Result<Batch> {
        let opts = ExecOptions { snapshot: Some(at), parallel };
        crate::execute_with(side, engine, &opts).map(|x| x.batch)
    };
    let l_cap = delta_capable(left);
    // LEFT OUTER is linear only in its left input: a right-side insert can
    // retract an existing NULL-padded row, which the product rule cannot
    // express. The planner froze the right side's tables; probe it at `now`.
    let r_cap = kind == JoinKind::Inner && delta_capable(right);
    match (l_cap, r_cap) {
        (true, true) => {
            let ld = eval_signed_delta(left, engine, as_of, now, parallel)?;
            let rd = eval_signed_delta(right, engine, as_of, now, parallel)?;
            if rd.is_empty() {
                // B unchanged: Δ(A ⋈ B) = ΔA ⋈ B, one probe side, no
                // old-snapshot re-evaluation. (Symmetrically below.)
                let b = snap(right, now)?;
                return Ok(SignedBatch {
                    plus: join(&ld.plus, &b, kind)?,
                    minus: join(&ld.minus, &b, kind)?,
                });
            }
            if ld.is_empty() {
                let a = snap(left, now)?;
                return Ok(SignedBatch {
                    plus: join(&a, &rd.plus, kind)?,
                    minus: join(&a, &rd.minus, kind)?,
                });
            }
            // Both sides moved: the full product rule over signed bags.
            let a_old = snap(left, as_of)?;
            let b_old = snap(right, as_of)?;
            let plus = Batch::concat(
                Arc::clone(schema),
                &[
                    join(&ld.plus, &b_old, kind)?,
                    join(&a_old, &rd.plus, kind)?,
                    join(&ld.plus, &rd.plus, kind)?,
                    join(&ld.minus, &rd.minus, kind)?,
                ],
            )?;
            let minus = Batch::concat(
                Arc::clone(schema),
                &[
                    join(&ld.minus, &b_old, kind)?,
                    join(&a_old, &rd.minus, kind)?,
                    join(&ld.plus, &rd.minus, kind)?,
                    join(&ld.minus, &rd.plus, kind)?,
                ],
            )?;
            Ok(SignedBatch { plus, minus })
        }
        (true, false) => {
            // Frozen/unchanged right side, probed from its snapshot scan.
            let ld = eval_signed_delta(left, engine, as_of, now, parallel)?;
            if ld.is_empty() {
                return Ok(SignedBatch::empty(Arc::clone(schema)));
            }
            let b = snap(right, now)?;
            Ok(SignedBatch { plus: join(&ld.plus, &b, kind)?, minus: join(&ld.minus, &b, kind)? })
        }
        (false, true) => {
            let rd = eval_signed_delta(right, engine, as_of, now, parallel)?;
            if rd.is_empty() {
                return Ok(SignedBatch::empty(Arc::clone(schema)));
            }
            let a = snap(left, now)?;
            Ok(SignedBatch { plus: join(&a, &rd.plus, kind)?, minus: join(&a, &rd.minus, kind)? })
        }
        (false, false) => Err(VdmError::Plan(format!(
            "{} join with no delta-capable side does not propagate deltas",
            kind_name(kind)
        ))),
    }
}

fn kind_name(kind: JoinKind) -> &'static str {
    match kind {
        JoinKind::Inner => "INNER",
        JoinKind::LeftOuter => "LEFT OUTER",
    }
}
