//! Query-lifecycle observability: rewrite traces, per-operator runtime
//! profiles, structured query tracing, a process-wide metrics registry,
//! and a persistent plan-digest query store.
//!
//! The paper's argument (§4–§6) is that VDM queries live or die by whether
//! specific rewrites — UAJ removal, ASJ elimination, limit pushdown across
//! augmentation joins — actually fire. This crate makes those decisions,
//! and the runtime behaviour of the resulting plans, inspectable:
//!
//! * [`rewrite`] — a thread-local event sink the optimizer passes report
//!   into: which rule fired, on which plan node, and what cardinality
//!   evidence justified it.
//! * [`profile`] — per-operator runtime stats ([`QueryProfile`]) keyed by
//!   the stable pre-order node ids of [`NodeIndex`], recorded by the
//!   executor on every run, and their operator-class roll-up ([`Metrics`]).
//! * [`trace`] — structured spans ([`Span`]/[`QueryTrace`]) linking one
//!   query's plan-cache lookup, optimization, execution, and cached-view
//!   maintenance into a single causal tree (`EXPLAIN TRACE`).
//! * [`registry`] — a zero-dependency [`MetricsRegistry`] of monotonic
//!   counters, gauges, and log-linear latency histograms with JSON and
//!   Prometheus-text exporters; every exported name is catalogued in
//!   [`names`].
//! * [`store`] — the [`QueryStore`]: durable per-plan-digest execution
//!   history (latency histograms, rows in/out, per-node rows, cache
//!   hit/miss) with a recent-executions ring and a slow-query log.

pub mod hist;
pub mod names;
pub mod profile;
pub mod registry;
pub mod rewrite;
pub mod store;
pub mod trace;
pub mod util;

pub use hist::{LatencyHist, LE_BOUNDS};
pub use profile::{Metrics, NodeIndex, NodeStats, QueryProfile};
pub use registry::MetricsRegistry;
pub use rewrite::RewriteEvent;
pub use store::{
    DigestAggregate, ExecRecord, FeedbackProvider, LoadReport, ObservedCardinalities, QueryStore,
    SlowQuery,
};
pub use trace::{QueryTrace, Span};
