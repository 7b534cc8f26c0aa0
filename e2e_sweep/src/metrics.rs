//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! lists the same names (a test holds the two together); the README maps
//! every per-layer metric to the end-to-end metric and workload it should
//! move.

/// An end-to-end metric, measured with tracing off, and its gate.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better, bound }
}

pub const END_TO_END: [EndToEnd; 5] = [
    gated("p50_ms", "ms", false, 0.2),
    gated("p90_ms", "ms", false, 0.25),
    gated("ops_per_s", "1/s", true, 0.25),
    gated("setup_s", "s", false, 0.25),
    gated("peak_rss_mb", "MB", false, 0.12),
];

/// (name, unit) of every end-to-end metric, in printing order.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// (name, unit) of every per-layer metric, from the traced pass. A metric
/// whose layer a workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.rewrites_fired", "count"),
    ("plan.nodes_in", "count"),
    ("plan.nodes_out", "count"),
    ("plan.joins_out", "count"),
    ("core.plan_cache_hit_rate", "ratio"),
    ("core.select_plan_us", "us"),
    ("core.reoptimizations", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.rows_out", "count"),
    ("exec.rows_scanned_per_row_out", "ratio"),
    ("exec.morsel_steals", "count"),
    ("storage.scan_ms", "ms"),
    ("storage.blocks_skipped_frac", "ratio"),
    ("storage.insert_us_per_row", "us"),
    ("storage.delete_ms", "ms"),
    ("storage.merge_ms", "ms"),
    ("storage.delta_rows", "count"),
    ("cache.maintain_fresh_ms", "ms"),
    ("cache.maintain_incremental_ms", "ms"),
    ("cache.maintain_full_ms", "ms"),
    ("cache.incremental_frac", "ratio"),
    ("cache.group_recomputes", "count"),
    ("cache.minmax_full_refreshes", "count"),
    ("cache.refresh_ms", "ms"),
    ("serve.overhead_us", "us"),
    ("serve.lock_wait_us", "us"),
    ("share.sql_optimizer_pct", "%"),
    ("share.exec_pct", "%"),
    ("share.cache_storage_pct", "%"),
    ("attributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("obs.trace_gap_pct", "%"),
];

/// Per-layer metrics that are counts of work, not times: for one seed
/// and scale they must repeat exactly from run to run.
#[cfg(test)]
pub const EXACT_COUNTS: [&str; 10] = [
    "optimizer.rewrites_fired",
    "plan.nodes_in",
    "plan.nodes_out",
    "plan.joins_out",
    "core.plan_cache_hit_rate",
    "exec.rows_out",
    "storage.delta_rows",
    "cache.incremental_frac",
    "cache.group_recomputes",
    "cache.minmax_full_refreshes",
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Pairs `values` (by name) with the units of `table`, in table order.
/// Panics on a missing or unknown name: the tables are the contract.
pub fn assemble(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            Metric { name, unit, value }
        })
        .collect()
}
