//! Plan complexity metrics — the numbers behind Fig. 3 / Fig. 4 of the
//! paper ("47 table instances, 49 joins, one five-way UNION ALL, one GROUP
//! BY, one DISTINCT"; 62 table instances when shared subtrees are counted
//! per reference).

use crate::node::{LogicalPlan, NodeMap, PlanRef};

/// Operator counts over a plan DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Distinct scan nodes (shared subtrees counted once) — the paper's
    /// "table instances" in DAG form.
    pub table_instances: usize,
    /// Scan references counted per path (shared subtrees multiplied) — the
    /// paper's "unshared" count.
    pub table_references: usize,
    pub joins: usize,
    pub left_outer_joins: usize,
    pub unions: usize,
    /// Largest UNION ALL fan-in.
    pub max_union_width: usize,
    pub aggregates: usize,
    pub distincts: usize,
    pub filters: usize,
    pub projects: usize,
    pub limits: usize,
    pub sorts: usize,
    /// Total distinct nodes in the DAG.
    pub nodes: usize,
    /// Longest root-to-leaf path (nesting depth proxy).
    pub depth: usize,
}

/// Computes [`PlanStats`] for a plan DAG in one walk that visits every
/// distinct node once: the per-path figures (`table_references`, `depth`)
/// are memoized per node, so shared subtrees multiply without being
/// re-walked.
pub fn plan_stats(plan: &PlanRef) -> PlanStats {
    let mut stats = PlanStats::default();
    (stats.table_references, stats.depth) = count_dag(plan, &mut stats, &mut NodeMap::default());
    stats
}

/// Counts `plan`'s operators into `stats` on its first visit; returns its
/// `(scan references per path, depth)`.
fn count_dag(
    plan: &PlanRef,
    stats: &mut PlanStats,
    seen: &mut NodeMap<*const LogicalPlan, (usize, usize)>,
) -> (usize, usize) {
    let ptr = std::sync::Arc::as_ptr(plan);
    if let Some(&per_path) = seen.get(&ptr) {
        return per_path;
    }
    stats.nodes += 1;
    let mut refs = 0;
    match plan.as_ref() {
        LogicalPlan::Scan { .. } => {
            stats.table_instances += 1;
            refs = 1;
        }
        LogicalPlan::Values { .. } => {}
        LogicalPlan::Project { .. } => stats.projects += 1,
        LogicalPlan::Filter { .. } => stats.filters += 1,
        LogicalPlan::Join { kind, .. } => {
            stats.joins += 1;
            if *kind == crate::node::JoinKind::LeftOuter {
                stats.left_outer_joins += 1;
            }
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            stats.unions += 1;
            stats.max_union_width = stats.max_union_width.max(inputs.len());
        }
        LogicalPlan::Aggregate { .. } => stats.aggregates += 1,
        LogicalPlan::Distinct { .. } => stats.distincts += 1,
        LogicalPlan::Sort { .. } => stats.sorts += 1,
        LogicalPlan::Limit { .. } => stats.limits += 1,
    }
    let mut below = 0;
    for child in plan.children() {
        let (child_refs, child_depth) = count_dag(child, stats, seen);
        refs += child_refs;
        below = below.max(child_depth);
    }
    seen.insert(ptr, (refs, below + 1));
    (refs, below + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn table(name: &str) -> Arc<vdm_catalog::TableDef> {
        Arc::new(
            TableBuilder::new(name)
                .column("k", SqlType::Int, false)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn shared_subtree_counts_once_in_dag_twice_in_refs() {
        let t = LogicalPlan::scan(table("t"));
        // Join the SAME Arc with itself: DAG sharing.
        let j = LogicalPlan::inner_join(Arc::clone(&t), t, vec![(0, 0)]).unwrap();
        let s = plan_stats(&j);
        assert_eq!(s.table_instances, 1, "shared scan counted once");
        assert_eq!(s.table_references, 2, "but referenced twice");
        assert_eq!(s.joins, 1);
    }

    #[test]
    fn union_width_tracked() {
        let inputs = (0..5).map(|_| LogicalPlan::scan(table("t"))).collect();
        let u = LogicalPlan::union_all(inputs).unwrap();
        let s = plan_stats(&u);
        assert_eq!(s.unions, 1);
        assert_eq!(s.max_union_width, 5);
        assert_eq!(s.table_instances, 5);
    }

    /// 24 levels, each the level below inner-joined with itself and
    /// projected back to one column: a per-path walk would visit 2^25 nodes.
    #[test]
    fn per_path_figures_are_memoized_per_node() {
        let mut level = LogicalPlan::scan(table("t"));
        for _ in 0..24 {
            let join = LogicalPlan::inner_join(Arc::clone(&level), level, vec![(0, 0)]).unwrap();
            level = LogicalPlan::project_cols(join, &[0]).unwrap();
        }
        let started = std::time::Instant::now();
        let s = plan_stats(&level);
        assert_eq!((s.nodes, s.joins, s.table_instances), (49, 24, 1));
        assert_eq!((s.table_references, s.depth), (1 << 24, 49));
        assert!(started.elapsed().as_millis() < 1_000, "{:?}", started.elapsed());
    }

    #[test]
    fn depth_counts_longest_path() {
        let t = LogicalPlan::scan(table("t"));
        let f = LogicalPlan::filter(t, vdm_expr::Expr::col(0).eq(vdm_expr::Expr::int(1))).unwrap();
        let l = LogicalPlan::limit(f, 0, Some(1));
        assert_eq!(plan_stats(&l).depth, 3);
    }
}
