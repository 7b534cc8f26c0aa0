//! The persistent plan-digest query store: durable, per-query-shape
//! execution history feeding the serve layer and (next) feedback-driven
//! optimization.
//!
//! Three structures live behind one mutex:
//!
//! * **Per-digest aggregates** keyed by `plan_digest_canonical` — exec
//!   count, plan-cache hit/miss split, rows in/out, a fixed-bucket
//!   log-linear latency histogram ([`LatencyHist`]) for p50/p95/p99, the
//!   last worker count, and cumulative per-node `rows_out` from
//!   [`QueryProfile`](crate::QueryProfile). This is deliberately the
//!   exact input a feedback-driven join-ordering pass needs, so the
//!   JSON-lines serialization is a documented stable schema
//!   (DESIGN.md §13).
//! * **A ring buffer** of the most recent executions (FIFO eviction),
//!   for "what ran just now" diagnostics.
//! * **A slow-query log** capturing the full `EXPLAIN ANALYZE` text of
//!   executions over a configurable latency threshold.
//!
//! The store is enabled by default; recording is one short mutex hold
//! per query. Callers check [`QueryStore::slow_threshold_nanos`] before
//! rendering EXPLAIN ANALYZE text so the expensive rendering only happens
//! for queries that will actually be captured.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hist::LatencyHist;
use crate::util::{json_number, json_string, Json};
use crate::{names, registry};

/// Schema version stamped on every JSON-lines record. Version 2 added
/// `node_est` (per-node estimated rows); version-1 files still load, with
/// estimates empty. Unknown versions and malformed lines are skipped and
/// counted, never a hard failure — see [`QueryStore::load_jsonl_str`].
pub const SCHEMA_VERSION: u64 = 2;

/// One finished execution, as reported by `vdm-core`.
#[derive(Debug, Clone, Default)]
pub struct ExecRecord {
    /// `plan_digest_canonical` of the executed plan.
    pub digest: u64,
    /// Canonical statement shape (parameters replaced by placeholders).
    pub shape: String,
    pub latency_nanos: u64,
    /// Rows scanned out of base tables.
    pub rows_in: u64,
    /// Rows returned to the client.
    pub rows_out: u64,
    /// Whether the parameterized plan cache served the plan.
    pub cache_hit: bool,
    pub workers: u32,
    /// Per-plan-node output rows `(node_id, rows_out)` from the
    /// execution's profile.
    pub node_rows: Vec<(u32, u64)>,
    /// Per-plan-node *estimated* rows `(node_id, est)` from the optimizer's
    /// cardinality model; empty when no statistics were available.
    pub node_est: Vec<(u32, u64)>,
    /// Rendered EXPLAIN ANALYZE text; only expected when `latency_nanos`
    /// is over the slow threshold.
    pub explain: Option<String>,
}

/// Aggregated history for one plan digest.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestAggregate {
    pub digest: u64,
    pub shape: String,
    pub execs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rows_in_total: u64,
    pub rows_out_total: u64,
    pub latency: LatencyHist,
    /// Worker count of the most recent execution.
    pub workers_last: u32,
    /// Cumulative rows_out per plan node id, sorted by node id.
    pub node_rows: BTreeMap<u32, u64>,
    /// Estimated rows per plan node id from the most recent execution
    /// that carried estimates (last write wins — estimates are a property
    /// of the current plan, not an accumulating quantity).
    pub node_est: BTreeMap<u32, u64>,
}

impl DigestAggregate {
    fn new(digest: u64, shape: &str) -> DigestAggregate {
        DigestAggregate {
            digest,
            shape: shape.to_string(),
            execs: 0,
            cache_hits: 0,
            cache_misses: 0,
            rows_in_total: 0,
            rows_out_total: 0,
            latency: LatencyHist::new(),
            workers_last: 0,
            node_rows: BTreeMap::new(),
            node_est: BTreeMap::new(),
        }
    }

    /// Estimated latency quantile in seconds (log-linear histogram).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q)
    }

    /// One JSON-lines record (the stable on-disk schema, version
    /// [`SCHEMA_VERSION`]; see DESIGN.md §13).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"v\": {SCHEMA_VERSION}, \"digest\": \"{:016x}\", \"shape\": {}, \
             \"execs\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"rows_in\": {}, \"rows_out\": {}, \"workers_last\": {}, \
             \"latency_sum\": {}, \"latency_buckets\": [",
            self.digest,
            json_string(&self.shape),
            self.execs,
            self.cache_hits,
            self.cache_misses,
            self.rows_in_total,
            self.rows_out_total,
            self.workers_last,
            json_number(self.latency.sum()),
        );
        for (i, c) in self.latency.bucket_counts().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.to_string());
        }
        out.push_str("], \"node_rows\": [");
        for (i, (node, rows)) in self.node_rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{node}, {rows}]"));
        }
        out.push_str("], \"node_est\": [");
        for (i, (node, est)) in self.node_est.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{node}, {est}]"));
        }
        out.push_str("]}");
        out
    }

    /// Parses one JSON-lines record written by [`to_json_line`].
    ///
    /// [`to_json_line`]: DigestAggregate::to_json_line
    pub fn from_json_line(line: &str) -> Result<DigestAggregate, String> {
        let v = Json::parse(line)?;
        let version = v.get("v").and_then(Json::as_u64).ok_or("missing v")?;
        // v1 records lack `node_est` and load with empty estimates; later
        // versions are unknown and rejected (the loader skip-and-counts).
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!("unsupported schema version {version}"));
        }
        let digest_hex = v.get("digest").and_then(Json::as_str).ok_or("missing digest")?;
        let digest = u64::from_str_radix(digest_hex, 16).map_err(|e| e.to_string())?;
        let need = |key: &str| v.get(key).and_then(Json::as_u64).ok_or(format!("missing {key}"));
        let counts: Vec<u64> = v
            .get("latency_buckets")
            .and_then(Json::as_array)
            .ok_or("missing latency_buckets")?
            .iter()
            .map(|c| c.as_u64().ok_or("bad bucket count"))
            .collect::<Result<_, _>>()?;
        let sum = v.get("latency_sum").and_then(Json::as_f64).ok_or("missing latency_sum")?;
        let latency = LatencyHist::from_parts(&counts, sum)
            .ok_or("bucket layout mismatch (file written under different LE_BOUNDS)")?;
        let mut node_rows = BTreeMap::new();
        for pair in v.get("node_rows").and_then(Json::as_array).ok_or("missing node_rows")? {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or("bad node_rows pair")?;
            node_rows.insert(
                pair[0].as_u64().ok_or("bad node id")? as u32,
                pair[1].as_u64().ok_or("bad node rows")?,
            );
        }
        let mut node_est = BTreeMap::new();
        if version >= 2 {
            for pair in v.get("node_est").and_then(Json::as_array).ok_or("missing node_est")? {
                let pair = pair.as_array().filter(|p| p.len() == 2).ok_or("bad node_est pair")?;
                node_est.insert(
                    pair[0].as_u64().ok_or("bad node id")? as u32,
                    pair[1].as_u64().ok_or("bad node est")?,
                );
            }
        }
        Ok(DigestAggregate {
            digest,
            shape: v.get("shape").and_then(Json::as_str).ok_or("missing shape")?.to_string(),
            execs: need("execs")?,
            cache_hits: need("cache_hits")?,
            cache_misses: need("cache_misses")?,
            rows_in_total: need("rows_in")?,
            rows_out_total: need("rows_out")?,
            latency,
            workers_last: need("workers_last")? as u32,
            node_rows,
            node_est,
        })
    }
}

/// One entry of the recent-executions ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSample {
    pub digest: u64,
    pub latency_nanos: u64,
    pub rows_out: u64,
    pub cache_hit: bool,
    pub workers: u32,
}

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    pub digest: u64,
    pub shape: String,
    pub latency_nanos: u64,
    /// Full EXPLAIN ANALYZE output at capture time (empty when the
    /// caller could not render one).
    pub explain: String,
}

#[derive(Debug, Default)]
struct Inner {
    aggregates: BTreeMap<u64, DigestAggregate>,
    ring: VecDeque<ExecSample>,
    ring_capacity: usize,
    slow: VecDeque<SlowQuery>,
    slow_capacity: usize,
}

/// The query store. Use [`QueryStore::global`] for the process-wide
/// instance `vdm-core` records into; `new()` instances serve tests.
#[derive(Debug)]
pub struct QueryStore {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
    slow_threshold_nanos: AtomicU64,
}

impl Default for QueryStore {
    fn default() -> QueryStore {
        QueryStore::new()
    }
}

/// Ring-buffer capacity of a fresh store.
pub const DEFAULT_RING_CAPACITY: usize = 512;
/// Slow-query log capacity of a fresh store.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;

impl QueryStore {
    /// A fresh store: enabled, ring of [`DEFAULT_RING_CAPACITY`], slow
    /// log of [`DEFAULT_SLOW_CAPACITY`], slow threshold off.
    pub fn new() -> QueryStore {
        QueryStore {
            inner: Mutex::new(Inner {
                aggregates: BTreeMap::new(),
                ring: VecDeque::new(),
                ring_capacity: DEFAULT_RING_CAPACITY,
                slow: VecDeque::new(),
                slow_capacity: DEFAULT_SLOW_CAPACITY,
            }),
            enabled: AtomicBool::new(true),
            slow_threshold_nanos: AtomicU64::new(u64::MAX),
        }
    }

    /// The process-wide store.
    pub fn global() -> &'static QueryStore {
        static GLOBAL: OnceLock<QueryStore> = OnceLock::new();
        GLOBAL.get_or_init(QueryStore::new)
    }

    /// Whether recording is on (default: on).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Latency threshold above which executions are captured into the
    /// slow-query log. `u64::MAX` (the default) disables capture.
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    /// Sets the slow-query capture threshold.
    pub fn set_slow_threshold_nanos(&self, nanos: u64) {
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Resizes the recent-executions ring (evicts oldest if shrinking).
    pub fn set_ring_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.ring_capacity = capacity;
        while inner.ring.len() > capacity {
            inner.ring.pop_front();
        }
    }

    /// Records one finished execution. No-op when disabled.
    pub fn record(&self, rec: ExecRecord) {
        if !self.enabled() {
            return;
        }
        let slow = rec.latency_nanos >= self.slow_threshold_nanos();
        {
            let mut inner = self.inner.lock().unwrap();
            let agg = inner
                .aggregates
                .entry(rec.digest)
                .or_insert_with(|| DigestAggregate::new(rec.digest, &rec.shape));
            agg.execs += 1;
            if rec.cache_hit {
                agg.cache_hits += 1;
            } else {
                agg.cache_misses += 1;
            }
            agg.rows_in_total += rec.rows_in;
            agg.rows_out_total += rec.rows_out;
            agg.latency.observe(rec.latency_nanos as f64 / 1e9);
            agg.workers_last = rec.workers;
            for (node, rows) in &rec.node_rows {
                *agg.node_rows.entry(*node).or_insert(0) += rows;
            }
            if !rec.node_est.is_empty() {
                agg.node_est = rec.node_est.iter().copied().collect();
            }

            if inner.ring_capacity > 0 {
                if inner.ring.len() == inner.ring_capacity {
                    inner.ring.pop_front();
                }
                inner.ring.push_back(ExecSample {
                    digest: rec.digest,
                    latency_nanos: rec.latency_nanos,
                    rows_out: rec.rows_out,
                    cache_hit: rec.cache_hit,
                    workers: rec.workers,
                });
            }

            if slow && inner.slow_capacity > 0 {
                if inner.slow.len() == inner.slow_capacity {
                    inner.slow.pop_front();
                }
                inner.slow.push_back(SlowQuery {
                    digest: rec.digest,
                    shape: rec.shape.clone(),
                    latency_nanos: rec.latency_nanos,
                    explain: rec.explain.unwrap_or_default(),
                });
            }
        }
        registry::global().inc(names::STORE_RECORDS_TOTAL, 1);
        if slow {
            registry::global().inc(names::SLOW_QUERIES_TOTAL, 1);
        }
    }

    /// Snapshot of all per-digest aggregates, sorted by digest.
    pub fn aggregates(&self) -> Vec<DigestAggregate> {
        self.inner.lock().unwrap().aggregates.values().cloned().collect()
    }

    /// The aggregate for one digest.
    pub fn aggregate(&self, digest: u64) -> Option<DigestAggregate> {
        self.inner.lock().unwrap().aggregates.get(&digest).cloned()
    }

    /// Snapshot of the recent-executions ring, oldest first.
    pub fn recent(&self) -> Vec<ExecSample> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Snapshot of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.inner.lock().unwrap().slow.iter().cloned().collect()
    }

    /// Drops all aggregates, ring entries, and slow captures (capacities
    /// and flags keep their values).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.aggregates.clear();
        inner.ring.clear();
        inner.slow.clear();
    }

    /// Serializes every aggregate as JSON lines (one digest per line,
    /// sorted by digest — deterministic output for a given state).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for agg in self.inner.lock().unwrap().aggregates.values() {
            out.push_str(&agg.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Loads aggregates from JSON-lines text, merging into existing
    /// entries (histograms merge, counts add; a loaded shape wins only
    /// for digests not yet present; estimates take the incoming value
    /// when present).
    ///
    /// Unknown schema versions and malformed lines are *skipped and
    /// counted*, never a hard failure: a store written by a newer build
    /// (schema v3+) or a corrupted tail must not take down loading of
    /// every readable record.
    pub fn load_jsonl_str(&self, text: &str) -> LoadReport {
        let mut report = LoadReport::default();
        let mut inner = self.inner.lock().unwrap();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let agg = match DigestAggregate::from_json_line(line) {
                Ok(agg) => agg,
                Err(e) => {
                    report.skipped += 1;
                    if report.first_error.is_none() {
                        report.first_error = Some(format!("line {}: {e}", lineno + 1));
                    }
                    continue;
                }
            };
            match inner.aggregates.get_mut(&agg.digest) {
                None => {
                    inner.aggregates.insert(agg.digest, agg);
                }
                Some(existing) => {
                    existing.execs += agg.execs;
                    existing.cache_hits += agg.cache_hits;
                    existing.cache_misses += agg.cache_misses;
                    existing.rows_in_total += agg.rows_in_total;
                    existing.rows_out_total += agg.rows_out_total;
                    existing.latency.merge(&agg.latency);
                    existing.workers_last = agg.workers_last;
                    for (node, rows) in agg.node_rows {
                        *existing.node_rows.entry(node).or_insert(0) += rows;
                    }
                    if !agg.node_est.is_empty() {
                        existing.node_est = agg.node_est;
                    }
                }
            }
            report.loaded += 1;
        }
        report
    }

    /// Writes [`QueryStore::to_jsonl`] to `path` (replacing the file).
    pub fn save_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Loads a JSON-lines file written by [`QueryStore::save_jsonl`].
    /// IO errors fail; unreadable records are skipped (see
    /// [`QueryStore::load_jsonl_str`]).
    pub fn load_jsonl(&self, path: &Path) -> std::io::Result<LoadReport> {
        let text = std::fs::read_to_string(path)?;
        Ok(self.load_jsonl_str(&text))
    }
}

/// Outcome of a JSON-lines load: how many records merged, how many were
/// skipped as unknown/malformed, and the first skip reason for diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    pub loaded: usize,
    pub skipped: usize,
    pub first_error: Option<String>,
}

/// Observed per-node cardinalities for one plan digest, averaged per
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedCardinalities {
    /// Executions backing the averages.
    pub execs: u64,
    /// `(pre-order node id, average rows_out per execution)`.
    pub node_rows: Vec<(u32, f64)>,
}

/// The optimizer-facing window onto execution feedback. Rules and the
/// re-optimization path consume observed cardinalities *only* through
/// this trait (CI greps that no optimizer code names `QueryStore`), so
/// the store stays swappable and tests can feed synthetic histories.
pub trait FeedbackProvider {
    /// Observed per-node cardinalities for `digest`, or `None` when the
    /// digest has no recorded executions.
    fn observed(&self, digest: u64) -> Option<ObservedCardinalities>;
}

impl FeedbackProvider for QueryStore {
    fn observed(&self, digest: u64) -> Option<ObservedCardinalities> {
        let agg = self.aggregate(digest)?;
        if agg.execs == 0 {
            return None;
        }
        let node_rows = agg
            .node_rows
            .iter()
            .map(|(&node, &rows)| (node, rows as f64 / agg.execs as f64))
            .collect();
        Some(ObservedCardinalities { execs: agg.execs, node_rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(digest: u64, nanos: u64, hit: bool) -> ExecRecord {
        ExecRecord {
            digest,
            shape: format!("select {digest}"),
            latency_nanos: nanos,
            rows_in: 10,
            rows_out: 3,
            cache_hit: hit,
            workers: 4,
            node_rows: vec![(0, 3), (1, 10)],
            node_est: vec![(0, 5), (1, 12)],
            explain: None,
        }
    }

    #[test]
    fn aggregates_accumulate_by_digest() {
        let store = QueryStore::new();
        store.record(rec(7, 1_000_000, false));
        store.record(rec(7, 2_000_000, true));
        store.record(rec(9, 5_000_000, true));
        let agg = store.aggregate(7).unwrap();
        assert_eq!(agg.execs, 2);
        assert_eq!((agg.cache_hits, agg.cache_misses), (1, 1));
        assert_eq!(agg.rows_out_total, 6);
        assert_eq!(agg.node_rows.get(&1), Some(&20));
        assert_eq!(store.aggregates().len(), 2);
        let p50 = agg.latency_quantile(0.5);
        assert!(p50 > 0.0 && p50 < 0.01, "{p50}");
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let store = QueryStore::new();
        store.set_ring_capacity(2);
        store.record(rec(1, 1, false));
        store.record(rec(2, 2, false));
        store.record(rec(3, 3, false));
        let digests: Vec<u64> = store.recent().iter().map(|s| s.digest).collect();
        assert_eq!(digests, [2, 3]);
    }

    #[test]
    fn jsonl_round_trips_to_identical_aggregates() {
        let store = QueryStore::new();
        store.record(rec(0xdead_beef, 750_000, true));
        store.record(rec(0xdead_beef, 1_250_000, false));
        store.record(rec(42, u64::MAX / 2, false)); // overflow bucket
        let text = store.to_jsonl();
        let reloaded = QueryStore::new();
        let report = reloaded.load_jsonl_str(&text);
        assert_eq!((report.loaded, report.skipped), (2, 0));
        assert_eq!(reloaded.aggregates(), store.aggregates());
        // And the merge path doubles counts deterministically (estimates
        // are last-write-wins, not additive).
        assert_eq!(reloaded.load_jsonl_str(&text).loaded, 2);
        assert_eq!(reloaded.aggregate(42).unwrap().execs, 2);
        assert_eq!(reloaded.aggregate(42).unwrap().node_est.get(&0), Some(&5));
    }

    #[test]
    fn slow_threshold_captures_explain() {
        let store = QueryStore::new();
        store.set_slow_threshold_nanos(1_000_000);
        store.record(rec(1, 999_999, false));
        let mut slow = rec(2, 1_000_001, false);
        slow.explain = Some("Scan journal ...".to_string());
        store.record(slow);
        let log = store.slow_queries();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].digest, 2);
        assert!(log[0].explain.contains("Scan journal"));
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = QueryStore::new();
        store.set_enabled(false);
        store.record(rec(1, 1, false));
        assert!(store.aggregates().is_empty());
        assert!(store.recent().is_empty());
    }

    #[test]
    fn load_skips_and_counts_foreign_or_malformed_records() {
        let store = QueryStore::new();
        store.record(rec(7, 1_000_000, false));
        let good = store.to_jsonl();
        let mixed = format!("{{\"v\": 99, \"digest\": \"0\"}}\nnot json\n{good}");
        let fresh = QueryStore::new();
        let report = fresh.load_jsonl_str(&mixed);
        assert_eq!((report.loaded, report.skipped), (1, 2));
        let first = report.first_error.unwrap();
        assert!(first.contains("line 1") && first.contains("schema version"), "{first}");
        assert_eq!(fresh.aggregate(7).unwrap().execs, 1);
    }

    #[test]
    fn v1_records_load_with_empty_estimates() {
        // A hand-built v1 line: no node_est field at all.
        let line = "{\"v\": 1, \"digest\": \"002a\", \"shape\": \"select 1\", \
                    \"execs\": 3, \"cache_hits\": 1, \"cache_misses\": 2, \
                    \"rows_in\": 30, \"rows_out\": 9, \"workers_last\": 2, \
                    \"latency_sum\": 0.5, \"latency_buckets\": []}";
        // Pad the bucket array to the real layout so from_parts accepts it.
        let buckets: Vec<String> = crate::hist::LE_BOUNDS.iter().map(|_| "0".to_string()).collect();
        let line = line.replace(
            "\"latency_buckets\": []",
            &format!("\"latency_buckets\": [{}, 0]", buckets.join(", ")),
        );
        let line = format!("{}, \"node_rows\": [[0, 9]]}}", &line[..line.len() - 1]);
        let store = QueryStore::new();
        let report = store.load_jsonl_str(&line);
        assert_eq!((report.loaded, report.skipped), (1, 0), "{:?}", report.first_error);
        let agg = store.aggregate(0x2a).unwrap();
        assert_eq!(agg.execs, 3);
        assert!(agg.node_est.is_empty());
    }
}
