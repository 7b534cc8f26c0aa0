//! The canonical catalog of every metric the workspace emits.
//!
//! Each metric has exactly one home here: a `pub const` name used by the
//! emitting crate (CI greps that no `"vdm_` string literal exists outside
//! `crates/obs`) and a [`MetricDesc`] entry that gives the Prometheus
//! exporter its `# HELP` text and expected `# TYPE`. Adding a metric
//! anywhere else without registering it here fails the
//! `metric_catalog_covers_every_export` test in `tests/observability.rs`.

/// Prometheus metric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` token.
    pub fn token(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalogued metric: base name (labels excluded), type, help text.
#[derive(Debug, Clone, Copy)]
pub struct MetricDesc {
    pub name: &'static str,
    pub kind: MetricKind,
    pub help: &'static str,
}

// -------------------------------------------------------------- queries
/// SELECT statements executed end to end.
pub const QUERIES_TOTAL: &str = "vdm_queries_total";
/// End-to-end SELECT latency (plan resolution + execution), seconds.
pub const QUERY_SECONDS: &str = "vdm_query_seconds";
/// Optimizer time spent per plan resolution, seconds.
pub const OPTIMIZE_SECONDS: &str = "vdm_optimize_seconds";
/// Rows read out of base-table scans.
pub const ROWS_SCANNED_TOTAL: &str = "vdm_rows_scanned_total";
/// Rows produced by join operators.
pub const ROWS_JOINED_TOTAL: &str = "vdm_rows_joined_total";
/// Rewrite-rule firings, labelled `{rule="..."}`.
pub const REWRITE_FIRED_TOTAL: &str = "vdm_rewrite_fired_total";

// ------------------------------------------------------------ dispatch
/// Items of dispatched waves that a pool thread ran, not the calling thread.
pub const MORSEL_STEALS_TOTAL: &str = "vdm_morsel_steals_total";
/// Estimated payload bytes dispatched in scan morsels and operator chunks.
pub const MORSEL_SIZE_BYTES: &str = "vdm_morsel_size_bytes";

// ------------------------------------------------------------ optimizer
/// Property-cache hits during optimization.
pub const OPT_PROPERTY_CACHE_HITS_TOTAL: &str = "vdm_opt_property_cache_hits_total";
/// Property-cache misses during optimization.
pub const OPT_PROPERTY_CACHE_MISSES_TOTAL: &str = "vdm_opt_property_cache_misses_total";

// ------------------------------------------------------------ plan cache
/// Parameterized-plan cache hits.
pub const PLAN_CACHE_HITS_TOTAL: &str = "vdm_plan_cache_hits_total";
/// Parameterized-plan cache misses (bind + optimize paid).
pub const PLAN_CACHE_MISSES_TOTAL: &str = "vdm_plan_cache_misses_total";
/// Plans evicted by the cache's LRU policy.
pub const PLAN_CACHE_EVICTIONS_TOTAL: &str = "vdm_plan_cache_evictions_total";

// ---------------------------------------------------------- cached views
/// Cached-view maintenance passes, labelled `{kind="full|incremental|noop"}`.
pub const VIEW_REFRESH_TOTAL: &str = "vdm_view_refresh_total";
/// Cached-view maintenance latency, seconds.
pub const VIEW_REFRESH_SECONDS: &str = "vdm_view_refresh_seconds";
/// Signed delta rows (both signs) folded into cached views.
pub const VIEW_DELTA_ROWS_TOTAL: &str = "vdm_view_delta_rows_total";
/// Join sides cached views executed and hashed to keep across passes.
pub const VIEW_SIDE_BUILDS_TOTAL: &str = "vdm_view_side_builds_total";
/// Build-side rows the cached views' kept join sides hold.
pub const VIEW_KEPT_SIDE_ROWS: &str = "vdm_view_kept_side_rows";

// -------------------------------------------------------------- serving
/// Prepared statements currently alive.
pub const PREPARED_STATEMENTS_OPEN: &str = "vdm_prepared_statements_open";
/// Serve-layer sessions currently open.
pub const SESSIONS_OPEN: &str = "vdm_sessions_open";
/// Queries currently between admission and completion.
pub const INFLIGHT_QUERIES: &str = "vdm_inflight_queries";
/// Admission wait before execution starts (state-lock + plan resolution),
/// seconds.
pub const QUEUE_WAIT_SECONDS: &str = "vdm_queue_wait_seconds";

// ------------------------------------------------- tracing + query store
/// Query traces finished and published.
pub const TRACES_TOTAL: &str = "vdm_traces_total";
/// Executions recorded into the query store.
pub const STORE_RECORDS_TOTAL: &str = "vdm_store_records_total";
/// Executions over the slow-query threshold, captured with full
/// EXPLAIN ANALYZE output.
pub const SLOW_QUERIES_TOTAL: &str = "vdm_slow_queries_total";
/// Cached plans re-optimized because observed cardinalities disagreed
/// with the plan's estimates beyond the misestimate threshold.
pub const REOPTIMIZATIONS_TOTAL: &str = "vdm_reoptimizations_total";

/// Every metric the workspace emits. Kept sorted by name so the catalog
/// doubles as documentation.
pub const ALL: &[MetricDesc] = &[
    MetricDesc {
        name: INFLIGHT_QUERIES,
        kind: MetricKind::Gauge,
        help: "Queries currently between admission and completion.",
    },
    MetricDesc {
        name: MORSEL_SIZE_BYTES,
        kind: MetricKind::Counter,
        help: "Estimated payload bytes dispatched in scan morsels and operator chunks.",
    },
    MetricDesc {
        name: MORSEL_STEALS_TOTAL,
        kind: MetricKind::Counter,
        help: "Items of dispatched waves that a pool thread ran, not the calling thread.",
    },
    MetricDesc {
        name: OPT_PROPERTY_CACHE_HITS_TOTAL,
        kind: MetricKind::Counter,
        help: "Property-cache hits during optimization.",
    },
    MetricDesc {
        name: OPT_PROPERTY_CACHE_MISSES_TOTAL,
        kind: MetricKind::Counter,
        help: "Property-cache misses during optimization.",
    },
    MetricDesc {
        name: OPTIMIZE_SECONDS,
        kind: MetricKind::Histogram,
        help: "Optimizer time spent per plan resolution, in seconds.",
    },
    MetricDesc {
        name: PLAN_CACHE_EVICTIONS_TOTAL,
        kind: MetricKind::Counter,
        help: "Plans evicted by the parameterized-plan cache's LRU policy.",
    },
    MetricDesc {
        name: PLAN_CACHE_HITS_TOTAL,
        kind: MetricKind::Counter,
        help: "Parameterized-plan cache hits.",
    },
    MetricDesc {
        name: PLAN_CACHE_MISSES_TOTAL,
        kind: MetricKind::Counter,
        help: "Parameterized-plan cache misses (bind + optimize paid).",
    },
    MetricDesc {
        name: PREPARED_STATEMENTS_OPEN,
        kind: MetricKind::Gauge,
        help: "Prepared statements currently alive.",
    },
    MetricDesc {
        name: QUERIES_TOTAL,
        kind: MetricKind::Counter,
        help: "SELECT statements executed end to end.",
    },
    MetricDesc {
        name: QUERY_SECONDS,
        kind: MetricKind::Histogram,
        help: "End-to-end SELECT latency (plan resolution + execution), in seconds.",
    },
    MetricDesc {
        name: QUEUE_WAIT_SECONDS,
        kind: MetricKind::Histogram,
        help: "Admission wait before execution starts (state-lock + plan resolution), in seconds.",
    },
    MetricDesc {
        name: REOPTIMIZATIONS_TOTAL,
        kind: MetricKind::Counter,
        help: "Cached plans re-optimized after observed cardinalities exceeded the misestimate threshold.",
    },
    MetricDesc {
        name: REWRITE_FIRED_TOTAL,
        kind: MetricKind::Counter,
        help: "Rewrite-rule firings, labelled by rule.",
    },
    MetricDesc {
        name: ROWS_JOINED_TOTAL,
        kind: MetricKind::Counter,
        help: "Rows produced by join operators.",
    },
    MetricDesc {
        name: ROWS_SCANNED_TOTAL,
        kind: MetricKind::Counter,
        help: "Rows read out of base-table scans.",
    },
    MetricDesc {
        name: SESSIONS_OPEN,
        kind: MetricKind::Gauge,
        help: "Serve-layer sessions currently open.",
    },
    MetricDesc {
        name: SLOW_QUERIES_TOTAL,
        kind: MetricKind::Counter,
        help: "Executions over the slow-query threshold, captured in the slow-query log.",
    },
    MetricDesc {
        name: STORE_RECORDS_TOTAL,
        kind: MetricKind::Counter,
        help: "Executions recorded into the query store.",
    },
    MetricDesc {
        name: TRACES_TOTAL,
        kind: MetricKind::Counter,
        help: "Query traces finished and published.",
    },
    MetricDesc {
        name: VIEW_DELTA_ROWS_TOTAL,
        kind: MetricKind::Counter,
        help: "Signed delta rows (both signs) folded into cached views.",
    },
    MetricDesc {
        name: VIEW_KEPT_SIDE_ROWS,
        kind: MetricKind::Gauge,
        help: "Build-side rows held by the join sides cached views keep.",
    },
    MetricDesc {
        name: VIEW_REFRESH_SECONDS,
        kind: MetricKind::Histogram,
        help: "Cached-view maintenance latency, in seconds.",
    },
    MetricDesc {
        name: VIEW_REFRESH_TOTAL,
        kind: MetricKind::Counter,
        help: "Cached-view maintenance passes, labelled by kind (full/incremental/noop).",
    },
    MetricDesc {
        name: VIEW_SIDE_BUILDS_TOTAL,
        kind: MetricKind::Counter,
        help: "Join sides cached views executed and hashed to keep across maintenance passes.",
    },
];

/// The catalog entry for a base metric name (labels stripped by the
/// caller), if registered.
pub fn describe(base: &str) -> Option<&'static MetricDesc> {
    ALL.iter().find(|d| d.name == base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_unique_and_well_formed() {
        for w in ALL.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
        for d in ALL {
            assert!(d.name.starts_with("vdm_"), "{}", d.name);
            assert!(!d.help.is_empty(), "{}", d.name);
            assert!(!d.name.contains('{'), "base names carry no labels: {}", d.name);
        }
        assert_eq!(describe(QUERIES_TOTAL).unwrap().kind, MetricKind::Counter);
        assert!(describe("vdm_not_a_metric").is_none());
    }
}
