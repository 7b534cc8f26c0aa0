//! Feedback-driven re-optimization support: the storage-backed
//! [`StatsProvider`] and the misestimate arithmetic that decides when a
//! cached plan gets re-planned with observed cardinalities.
//!
//! The loop (DESIGN.md §14): every optimized SELECT is estimated node by
//! node and the estimates are cached next to the plan; every execution's
//! per-node profile puts the true `rows_out` into the
//! [`QueryStore`](vdm_obs::QueryStore) keyed by canonical plan digest; on
//! the next plan-cache hit the two are compared, and when the worst
//! est/actual ratio exceeds [`REOPT_WORST_RATIO_THRESHOLD`] the statement
//! is re-optimized with the observed values injected as per-subtree
//! overriding estimates ([`CardOverrides`]) and the cache entry replaced.

use vdm_plan::{node_estimates, subtree_digests, CardOverrides, Cardinality, PlanRef};
use vdm_plan::{DeriveOptions, PropertyCache, StatsProvider, TableStats};
use vdm_storage::{Snapshot, StorageEngine};

/// Worst-node `max(est, act) / min(est, act)` ratio above which a cache
/// hit triggers re-optimization with observed cardinalities.
pub const REOPT_WORST_RATIO_THRESHOLD: f64 = 4.0;

/// [`StatsProvider`] over the storage engine at one snapshot: exact
/// visible row counts plus zone-map column ranges (present after the
/// first delta merge; string columns have none).
pub struct EngineStats<'a> {
    engine: &'a StorageEngine,
    snapshot: Snapshot,
}

impl<'a> EngineStats<'a> {
    /// Statistics as of the engine's current snapshot.
    pub fn new(engine: &'a StorageEngine) -> EngineStats<'a> {
        EngineStats { engine, snapshot: engine.snapshot() }
    }
}

impl StatsProvider for EngineStats<'_> {
    fn table_stats(&self, table: &str) -> Option<TableStats> {
        let rows = self.engine.row_count(table, self.snapshot).ok()? as u64;
        let ranges = self.engine.column_ranges(table).unwrap_or_default();
        Some(TableStats { rows, ranges })
    }
}

/// Per-node estimates for an optimized plan, in pre-order node-id order —
/// what gets cached beside the plan and stamped into store records.
pub fn estimates_with(
    plan: &PlanRef,
    stats: &dyn StatsProvider,
    opts: DeriveOptions,
    overrides: Option<&CardOverrides>,
) -> Vec<(u32, u64)> {
    let props = PropertyCache::new();
    let mut card = Cardinality::new(&props, opts).with_stats(stats);
    if let Some(ov) = overrides {
        card = card.with_overrides(ov);
    }
    node_estimates(plan, &card)
}

/// The worst per-node misestimate between cached estimates and observed
/// average rows: `(ratio, node id)` with ratio ≥ 1, over nodes present in
/// both. `None` when the sets don't overlap. Counts are +1-smoothed so a
/// zero on either side doesn't divide by zero.
pub fn worst_misestimate(est: &[(u32, u64)], observed: &[(u32, f64)]) -> Option<(f64, u32)> {
    let obs: std::collections::HashMap<u32, f64> = observed.iter().copied().collect();
    let mut worst: Option<(f64, u32)> = None;
    for &(node, e) in est {
        let Some(&a) = obs.get(&node) else { continue };
        let (e, a) = (e as f64 + 1.0, a + 1.0);
        let ratio = (e / a).max(a / e);
        if worst.map(|(w, _)| ratio > w).unwrap_or(true) {
            worst = Some((ratio, node));
        }
    }
    worst
}

/// Translates observed per-node rows (keyed by the cached plan's
/// pre-order node ids) into digest-keyed [`CardOverrides`], so they apply
/// to structurally identical subtrees wherever they appear in the
/// re-optimized plan.
pub fn overrides_from_observed(plan: &PlanRef, observed: &[(u32, f64)]) -> CardOverrides {
    let digests = subtree_digests(plan);
    let mut overrides = CardOverrides::new();
    for &(node, rows) in observed {
        if let Some(&digest) = digests.get(&(node as usize)) {
            overrides.insert(digest, rows);
        }
    }
    overrides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_misestimate_picks_the_largest_ratio_either_direction() {
        let est = vec![(0u32, 100u64), (1, 10), (2, 1000)];
        // Node 1 is 10x under, node 2 ~2x over, node 3 unknown.
        let obs = vec![(1u32, 109.0f64), (2, 499.0), (9, 1.0)];
        let (ratio, node) = worst_misestimate(&est, &obs).unwrap();
        assert_eq!(node, 1);
        assert!((ratio - 10.0).abs() < 0.1, "{ratio}");
        assert!(worst_misestimate(&est, &[(7, 3.0)]).is_none());
    }
}
