//! The canonical catalog of every metric the workspace emits.
//!
//! Each metric has exactly one home here, one `catalog!` line: a `pub const`
//! name used by the emitting crate (CI greps that no `"vdm_` string literal
//! exists outside `crates/obs`) and its [`ALL`] entry, which gives the
//! Prometheus exporter its `# HELP` text and expected `# TYPE`. Adding a
//! metric anywhere else without registering it here fails the
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

/// Declares each metric once: its name constant, documented by its help
/// text, and its [`ALL`] entry, in the order given.
macro_rules! catalog {
    ($($name:ident = $base:literal, $kind:ident, $help:literal;)*) => {
        $(#[doc = $help] pub const $name: &str = $base;)*
        /// Every metric the workspace emits. Kept sorted by name so the
        /// catalog doubles as documentation.
        pub const ALL: &[MetricDesc] =
            &[$(MetricDesc { name: $name, kind: MetricKind::$kind, help: $help }),*];
    };
}

catalog! {
    INFLIGHT_QUERIES = "vdm_inflight_queries", Gauge,
        "Queries currently between admission and completion.";
    MORSEL_SIZE_BYTES = "vdm_morsel_size_bytes", Counter,
        "Estimated payload bytes dispatched in scan morsels and operator chunks.";
    MORSEL_STEALS_TOTAL = "vdm_morsel_steals_total", Counter,
        "Items of dispatched waves that a pool thread ran, not the calling thread.";
    OPT_PROPERTY_CACHE_HITS_TOTAL = "vdm_opt_property_cache_hits_total", Counter,
        "Property-cache hits during optimization.";
    OPT_PROPERTY_CACHE_MISSES_TOTAL = "vdm_opt_property_cache_misses_total", Counter,
        "Property-cache misses during optimization.";
    OPTIMIZE_SECONDS = "vdm_optimize_seconds", Histogram,
        "Optimizer time spent per plan resolution, in seconds.";
    PLAN_CACHE_EVICTIONS_TOTAL = "vdm_plan_cache_evictions_total", Counter,
        "Plans evicted by the parameterized-plan cache's LRU policy.";
    PLAN_CACHE_HITS_TOTAL = "vdm_plan_cache_hits_total", Counter, "Parameterized-plan cache hits.";
    PLAN_CACHE_MISSES_TOTAL = "vdm_plan_cache_misses_total", Counter,
        "Parameterized-plan cache misses (bind + optimize paid).";
    PREPARED_STATEMENTS_OPEN = "vdm_prepared_statements_open", Gauge,
        "Prepared statements currently alive.";
    QUERIES_TOTAL = "vdm_queries_total", Counter, "SELECT statements executed end to end.";
    QUERY_SECONDS = "vdm_query_seconds", Histogram,
        "End-to-end SELECT latency (plan resolution + execution), in seconds.";
    QUEUE_WAIT_SECONDS = "vdm_queue_wait_seconds", Histogram,
        "Admission wait before execution starts (state-lock + plan resolution), in seconds.";
    REOPTIMIZATIONS_TOTAL = "vdm_reoptimizations_total", Counter,
        "Cached plans re-optimized after observed cardinalities exceeded the misestimate threshold.";
    REWRITE_FIRED_TOTAL = "vdm_rewrite_fired_total", Counter,
        "Rewrite-rule firings, labelled by rule.";
    ROWS_JOINED_TOTAL = "vdm_rows_joined_total", Counter, "Rows produced by join operators.";
    ROWS_SCANNED_TOTAL = "vdm_rows_scanned_total", Counter, "Rows read out of base-table scans.";
    SESSIONS_OPEN = "vdm_sessions_open", Gauge, "Serve-layer sessions currently open.";
    SLOW_QUERIES_TOTAL = "vdm_slow_queries_total", Counter,
        "Executions over the slow-query threshold, captured in the slow-query log.";
    STORE_EVICTIONS_TOTAL = "vdm_store_evictions_total", Counter,
        "Least-executed digests the query store evicted to stay within its cap.";
    STORE_RECORDS_TOTAL = "vdm_store_records_total", Counter,
        "Executions recorded into the query store.";
    TRACES_TOTAL = "vdm_traces_total", Counter, "Query traces finished and published.";
    VIEW_DELTA_ROWS_TOTAL = "vdm_view_delta_rows_total", Counter,
        "Signed delta rows (both signs) folded into cached views.";
    VIEW_KEPT_SIDE_ROWS = "vdm_view_kept_side_rows", Gauge,
        "Build-side rows held by the join sides cached views keep.";
    VIEW_REFRESH_SECONDS = "vdm_view_refresh_seconds", Histogram,
        "Cached-view maintenance latency, in seconds.";
    VIEW_REFRESH_TOTAL = "vdm_view_refresh_total", Counter,
        "Cached-view maintenance passes, labelled by kind (full/incremental/noop).";
    VIEW_SIDE_BUILDS_TOTAL = "vdm_view_side_builds_total", Counter,
        "Join sides cached views executed and hashed to keep across maintenance passes.";
}

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
