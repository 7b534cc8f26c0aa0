//! Column lineage: tracing an output column to its originating base-table
//! scan through pure column references.
//!
//! This is the second load-bearing analysis behind ASJ elimination (§5 of
//! the paper): re-wiring an augmenter field to the anchor is only sound
//! when the anchor's join key *is* the base table's key column, reached
//! without computation. The `filtered`/`nulled` flags record whether the
//! path can drop rows (inner joins, filters, limits) or NULL-pad them
//! (the padded side of an outer join) — each blocks a different rewrite.

use crate::node::{JoinKind, LogicalPlan, PlanRef};
use std::sync::Arc;
use vdm_catalog::TableDef;
use vdm_expr::Expr;

/// Where an output column comes from.
#[derive(Debug, Clone)]
pub struct Origin {
    /// The originating base table.
    pub table: Arc<TableDef>,
    /// Scan instance id (distinguishes self-join instances).
    pub instance: usize,
    /// Column ordinal within the base table.
    pub column: usize,
    /// The path may drop rows (filter, limit, inner join, join matching).
    pub filtered: bool,
    /// The path crosses the NULL-padded side of an outer join.
    pub nulled: bool,
}

/// Traces output column `ord` of `plan` to its base-table origin, if it is
/// a pure (uncomputed) column reference all the way down.
pub fn trace_column(plan: &PlanRef, ord: usize) -> Option<Origin> {
    match plan.as_ref() {
        LogicalPlan::Scan { table, instance, cols, .. } => Some(Origin {
            table: Arc::clone(table),
            instance: *instance,
            column: cols.table_ordinal(ord),
            filtered: false,
            nulled: false,
        }),
        LogicalPlan::Project { input, exprs, .. } => match &exprs.get(ord)?.0 {
            Expr::Col(i) => trace_column(input, *i),
            _ => None,
        },
        LogicalPlan::Filter { input, .. } => {
            let mut o = trace_column(input, ord)?;
            o.filtered = true;
            Some(o)
        }
        LogicalPlan::Sort { input, .. } => trace_column(input, ord),
        LogicalPlan::Limit { input, .. } => {
            // LIMIT can drop the row carrying a given base row's value.
            let mut o = trace_column(input, ord)?;
            o.filtered = true;
            Some(o)
        }
        LogicalPlan::Join { left, right, kind, .. } => {
            let nl = left.schema().len();
            if ord < nl {
                let mut o = trace_column(left, ord)?;
                // An inner join can drop unmatched left rows; a left-outer
                // join never does.
                o.filtered |= *kind == JoinKind::Inner;
                Some(o)
            } else {
                let mut o = trace_column(right, ord - nl)?;
                // The right side can always miss rows (no probe match)...
                o.filtered = true;
                // ...and a left-outer join NULL-pads it.
                o.nulled |= *kind == JoinKind::LeftOuter;
                Some(o)
            }
        }
        // Unions mix instances; aggregates/distinct/values compute rows.
        _ => None,
    }
}

/// Lineage of every output column (None = computed or untraceable).
pub fn column_lineage(plan: &PlanRef) -> Vec<Option<Origin>> {
    (0..plan.schema().len()).map(|i| trace_column(plan, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn table(name: &str) -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new(name)
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Int, false)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn traces_through_pure_wrappers() {
        let t = table("t");
        let plan = LogicalPlan::project(
            LogicalPlan::filter(LogicalPlan::scan(Arc::clone(&t)), Expr::col(1).eq(Expr::int(1)))
                .unwrap(),
            vec![(Expr::col(1), "vee".into()), (Expr::col(0), "kay".into())],
        )
        .unwrap();
        let o = trace_column(&plan, 1).unwrap();
        assert_eq!(o.table.name, "t");
        assert_eq!(o.column, 0);
        assert!(o.filtered, "filter on the path");
        assert!(!o.nulled);
        // Computed columns have no lineage.
        let plan = LogicalPlan::project(
            LogicalPlan::scan(t),
            vec![(Expr::col(0).binary(vdm_expr::BinOp::Add, Expr::int(1)), "c".into())],
        )
        .unwrap();
        assert!(trace_column(&plan, 0).is_none());
    }

    #[test]
    fn join_sides_set_flags() {
        let l = LogicalPlan::scan(table("l"));
        let r = LogicalPlan::scan(table("r"));
        let join = LogicalPlan::left_join(l, r, vec![(0, 0)]).unwrap();
        let left_col = trace_column(&join, 0).unwrap();
        assert!(!left_col.filtered && !left_col.nulled, "left of ⟕ is preserved");
        let right_col = trace_column(&join, 2).unwrap();
        assert!(right_col.filtered && right_col.nulled, "right of ⟕ may be padded");
        let l = LogicalPlan::scan(table("l"));
        let r = LogicalPlan::scan(table("r"));
        let inner = LogicalPlan::inner_join(l, r, vec![(0, 0)]).unwrap();
        let left_col = trace_column(&inner, 0).unwrap();
        assert!(left_col.filtered, "inner join can drop left rows");
        assert!(!left_col.nulled);
    }

    #[test]
    fn lineage_vector_and_instances() {
        let t = table("t");
        let a = LogicalPlan::scan(Arc::clone(&t));
        let b = LogicalPlan::scan(t);
        let join = LogicalPlan::inner_join(a, b, vec![(0, 0)]).unwrap();
        let lin = column_lineage(&join);
        assert_eq!(lin.len(), 4);
        let (i0, i2) = (lin[0].as_ref().unwrap().instance, lin[2].as_ref().unwrap().instance);
        assert_ne!(i0, i2, "self-join instances stay distinguishable");
        assert_eq!(lin[0].as_ref().unwrap().table.name, "t");
    }

    #[test]
    fn blocked_by_aggregates_and_unions() {
        let t = table("t");
        let agg = LogicalPlan::aggregate(
            LogicalPlan::scan(Arc::clone(&t)),
            vec![(Expr::col(0), "k".into())],
            vec![],
        )
        .unwrap();
        assert!(trace_column(&agg, 0).is_none());
        let u =
            LogicalPlan::union_all(vec![LogicalPlan::scan(Arc::clone(&t)), LogicalPlan::scan(t)])
                .unwrap();
        assert!(trace_column(&u, 0).is_none());
    }
}
