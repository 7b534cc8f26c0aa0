//! Per-operator runtime profiles, keyed by stable plan-node ids.
//!
//! [`LogicalPlan`] nodes are immutable and `Arc`-shared, so a node's
//! identity is its allocation. [`NodeIndex`] freezes that identity into
//! small pre-order integers (the same numbering `EXPLAIN` renders), which
//! lets worker threads record into plain maps without holding `Arc`s and
//! lets serial and parallel profiles of the same plan be compared key by
//! key.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use vdm_plan::{explain, LogicalPlan, PlanRef};

/// Stable pre-order ids for every distinct node of a plan DAG.
///
/// Shared subtrees get one id (first visit wins), matching the
/// `[shared #n]` convention of `plan::explain`.
#[derive(Debug, Clone, Default)]
pub struct NodeIndex {
    ids: HashMap<usize, usize>,
}

impl NodeIndex {
    /// Numbers `plan`'s nodes in pre-order (root = 0).
    pub fn new(plan: &PlanRef) -> NodeIndex {
        let ids =
            explain::number_nodes(plan).into_iter().map(|(ptr, id)| (ptr as usize, id)).collect();
        NodeIndex { ids }
    }

    /// The id of `plan`, if it belongs to the indexed DAG.
    pub fn id_of(&self, plan: &PlanRef) -> Option<usize> {
        self.ids.get(&(Arc::as_ptr(plan) as usize)).copied()
    }

    /// Number of distinct nodes indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Runtime stats for one plan node — the executor's only accounting.
///
/// Nodes of a scan-rooted leaf pipeline are recorded per morsel by the
/// workers: `nanos` sums their kernel time (it can exceed wall time),
/// `invocations` counts morsels and `workers` the worker-local partial
/// profiles that touched the node. Every other operator records once per
/// run: elapsed self time, one invocation, one worker. A subtree shared by
/// several parents runs once per parent that reaches it (`runs`) and sums
/// into the one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Rows the operator consumed: what its children handed it (a join:
    /// probe plus build side), or for a scan the rows read from storage —
    /// under a pushed-down LIMIT more than the scan went on to emit.
    pub rows_in: u64,
    /// Of `rows_in`, the rows of a join's right (hash-table) input; zero
    /// for every other operator.
    pub build_rows: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Self time (child time excluded).
    pub nanos: u64,
    /// Times the plan walker ran the operator.
    pub runs: u64,
    /// Kernel calls: one per run, or one per morsel in a leaf pipeline.
    pub invocations: u64,
    /// Worker-local profiles that recorded into this node.
    pub workers: u64,
}

impl NodeStats {
    fn absorb(&mut self, other: &NodeStats) {
        self.rows_in += other.rows_in;
        self.build_rows += other.build_rows;
        self.rows_out += other.rows_out;
        self.nanos += other.nanos;
        self.runs += other.runs;
        self.invocations += other.invocations;
        self.workers += other.workers;
    }
}

/// A per-query, node-keyed runtime profile, plus the dispatch totals that
/// belong to no single node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Stats per [`NodeIndex`] id. `BTreeMap` so renderings are ordered.
    pub nodes: BTreeMap<usize, NodeStats>,
    /// Items of dispatched waves that a pool thread ran — the work the
    /// calling thread did not do (always 0 at `threads: 1`, which runs every
    /// item inline on the calling thread).
    pub morsel_steals: u64,
    /// Estimated payload bytes of the morsels pipelines were fed — scan morsels
    /// and chunks of breaker output (the `vdm_morsel_size_bytes` counter).
    pub morsel_bytes: u64,
    /// Pipelines run (a scan or breaker output carried morsel by morsel to a sink).
    pub pipelines: u64,
    /// Waves of morsels handed to the worker pool rather than run inline.
    pub dispatched: u64,
}

impl QueryProfile {
    /// Adds one run of node `id` by the plan walker and returns the node's
    /// stats (a join adds its `build_rows` there).
    pub fn record(&mut self, id: usize, rows_in: u64, rows_out: u64, nanos: u64) -> &mut NodeStats {
        let s = self.record_morsel(id, rows_in, rows_out, nanos);
        s.runs += 1;
        s
    }

    /// Adds one morsel's kernel call to leaf-pipeline node `id`; the walker
    /// counts the pipeline's run itself.
    pub fn record_morsel(
        &mut self,
        id: usize,
        rows_in: u64,
        rows_out: u64,
        nanos: u64,
    ) -> &mut NodeStats {
        let s = self.nodes.entry(id).or_default();
        s.rows_in += rows_in;
        s.rows_out += rows_out;
        s.nanos += nanos;
        s.invocations += 1;
        s.workers = s.workers.max(1);
        s
    }

    /// Merges a worker-local partial profile into this one.
    pub fn merge(&mut self, other: &QueryProfile) {
        for (id, s) in &other.nodes {
            self.nodes.entry(*id).or_default().absorb(s);
        }
        self.morsel_steals += other.morsel_steals;
        self.morsel_bytes += other.morsel_bytes;
        self.pipelines += other.pipelines;
        self.dispatched += other.dispatched;
    }

    /// Rows produced by node `id`, if it executed.
    pub fn rows_out(&self, id: usize) -> Option<u64> {
        self.nodes.get(&id).map(|s| s.rows_out)
    }

    /// The rows-only view used by thread-count equivalence checks (nanos,
    /// invocations, and worker counts legitimately differ).
    pub fn rows_by_node(&self) -> BTreeMap<usize, u64> {
        self.nodes.iter().map(|(id, s)| (*id, s.rows_out)).collect()
    }
}

/// Operator-class totals of one execution: a roll-up of its per-node
/// [`QueryProfile`] over the plan, never counted on their own.
///
/// Row totals do not depend on the thread count — except `rows_scanned`
/// under a pushed-down LIMIT, which is only bounded (the scan reads whole
/// waves of morsels). Times are per-class sums of [`NodeStats::nanos`], so
/// they mix its two clocks: worker-summed kernel time for leaf-pipeline
/// nodes, elapsed self time for every other operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Operator executions (a shared subtree counts once per parent that
    /// reached it).
    pub operators: usize,
    /// Rows read by scans.
    pub rows_scanned: usize,
    /// Rows evaluated by filters.
    pub filter_input_rows: usize,
    /// Rows on the right (hash-table) side of joins.
    pub join_build_rows: usize,
    /// Rows on the left (probe) side of joins.
    pub join_probe_rows: usize,
    /// Rows emitted by joins.
    pub join_output_rows: usize,
    /// Rows fed into aggregations.
    pub agg_input_rows: usize,
    /// Time reading scan morsels.
    pub scan_nanos: u64,
    /// Time evaluating filter predicates.
    pub filter_nanos: u64,
    /// Time evaluating projections.
    pub project_nanos: u64,
    /// Time building and probing join hash tables.
    pub join_nanos: u64,
    /// Time in hash aggregation.
    pub agg_nanos: u64,
    /// Time eliminating duplicates.
    pub distinct_nanos: u64,
    /// Time sorting.
    pub sort_nanos: u64,
    /// Time concatenating UNION ALL branches.
    pub union_nanos: u64,
    /// Time in LIMIT and literal-row operators.
    pub other_nanos: u64,
}

impl Metrics {
    /// Rolls `profile` (recorded while executing `plan`) up by operator
    /// class. Nodes without stats did not run — a LIMIT budget was met
    /// before their turn — and neither did anything below them.
    pub fn roll_up(plan: &PlanRef, profile: &QueryProfile) -> Metrics {
        fn walk(
            plan: &PlanRef,
            index: &NodeIndex,
            profile: &QueryProfile,
            seen: &mut HashSet<usize>,
            m: &mut Metrics,
        ) {
            let Some(id) = index.id_of(plan) else { return };
            let Some(s) = profile.nodes.get(&id) else { return };
            // A shared subtree's stats already sum its runs: add them once.
            if !seen.insert(id) {
                return;
            }
            m.operators += s.runs as usize;
            match plan.as_ref() {
                LogicalPlan::Scan { .. } => {
                    m.rows_scanned += s.rows_in as usize;
                    m.scan_nanos += s.nanos;
                }
                LogicalPlan::Filter { .. } => {
                    m.filter_input_rows += s.rows_in as usize;
                    m.filter_nanos += s.nanos;
                }
                LogicalPlan::Project { .. } => m.project_nanos += s.nanos,
                LogicalPlan::Join { .. } => {
                    m.join_build_rows += s.build_rows as usize;
                    m.join_probe_rows += (s.rows_in - s.build_rows) as usize;
                    m.join_output_rows += s.rows_out as usize;
                    m.join_nanos += s.nanos;
                }
                LogicalPlan::Aggregate { .. } => {
                    m.agg_input_rows += s.rows_in as usize;
                    m.agg_nanos += s.nanos;
                }
                LogicalPlan::Distinct { .. } => m.distinct_nanos += s.nanos,
                LogicalPlan::Sort { .. } => m.sort_nanos += s.nanos,
                LogicalPlan::UnionAll { .. } => m.union_nanos += s.nanos,
                LogicalPlan::Limit { .. } | LogicalPlan::Values { .. } => m.other_nanos += s.nanos,
            }
            for c in plan.children() {
                walk(c, index, profile, seen, m);
            }
        }
        let mut m = Metrics::default();
        walk(plan, &NodeIndex::new(plan), profile, &mut HashSet::new(), &mut m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields_and_counts_workers() {
        let mut a = QueryProfile::default();
        a.record(0, 12, 10, 100);
        a.record(0, 5, 5, 50).build_rows += 4;
        a.morsel_bytes = 8;
        let mut b = QueryProfile::default();
        b.record(0, 9, 7, 70);
        b.record(2, 1, 1, 1);
        b.morsel_bytes = 3;
        b.morsel_steals = 2;
        a.merge(&b);
        let s = a.nodes[&0];
        assert_eq!((s.rows_in, s.build_rows, s.rows_out), (26, 4, 22));
        assert_eq!(s.nanos, 220);
        assert_eq!((s.runs, s.invocations), (3, 3));
        assert_eq!(s.workers, 2);
        assert_eq!(a.rows_out(2), Some(1));
        assert_eq!(a.rows_out(1), None);
        assert_eq!((a.morsel_bytes, a.morsel_steals), (11, 2));
    }
}
