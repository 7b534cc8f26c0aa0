//! Per-layer metrics: read off the traced pass's spans (times and the
//! counts recorded on them) plus a few counters of the real server.

use crate::metrics::{assemble, Metric, PER_LAYER};
use crate::spans::{Recorder, Span};
use crate::stats::median;

/// Counters of the real server and the twin that are not on any span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub plan_cache_hit_rate: f64,
    pub reoptimizations: u64,
    pub blocks_skipped_frac: f64,
    pub scan_ms: f64,
    pub delta_rows: usize,
    pub group_recomputes: usize,
    pub minmax_full_refreshes: usize,
    /// `p50_ms` of the same operations with the recorder off and on.
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
}

/// One operation's trace: its real call and the staged layer spans.
struct OpTrace<'a> {
    kind: &'a str,
    call_ns: f64,
    /// The layer spans: children of `staged`.
    layers: Vec<&'a Span>,
    /// Total of the program's own trace of the call, when it made one.
    program_ns: Option<f64>,
}

impl OpTrace<'_> {
    fn is_read(&self) -> bool {
        !matches!(self.kind, "cycle" | "reversal" | "refresh" | "merge")
    }

    fn staged_ns(&self) -> f64 {
        self.layers.iter().map(|s| s.duration_ns() as f64).sum()
    }
}

fn op_traces(spans: &[Span]) -> Vec<OpTrace<'_>> {
    let mut traces: Vec<OpTrace<'_>> = Vec::new();
    let mut staged_id = None;
    for s in spans {
        match (s.parent_id, s.name) {
            (None, _) => traces.push(OpTrace {
                kind: s.attr("kind").unwrap_or(""),
                call_ns: 0.0,
                layers: Vec::new(),
                program_ns: None,
            }),
            (_, "serve.call") => {
                traces.last_mut().expect("root first").call_ns = s.duration_ns() as f64
            }
            (_, "staged") => staged_id = Some(s.span_id),
            (_, "obs.program_trace") => {
                traces.last_mut().expect("root first").program_ns =
                    s.attr("total_ns").and_then(|v| v.parse().ok());
            }
            (parent, _) if parent == staged_id => {
                traces.last_mut().expect("root first").layers.push(s)
            }
            _ => {}
        }
    }
    traces
}

fn num(span: &Span, key: &str) -> f64 {
    span.attr(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        // An empty f64 sum is -0.0; print it as 0.
        part / whole + 0.0
    }
}

/// Every per-layer metric of one traced pass.
pub fn per_layer(rec: &Recorder, c: &Counters) -> Vec<Metric> {
    let traces = op_traces(rec.spans());
    let layers: Vec<&Span> = traces.iter().flat_map(|t| t.layers.iter().copied()).collect();
    let named =
        |name: &str| -> Vec<&Span> { layers.iter().copied().filter(|s| s.name == name).collect() };
    // Median duration of the spans called `name`, in units of `per` ns.
    let time = |name: &str, per: f64| {
        let d: Vec<f64> = named(name).iter().map(|s| s.duration_ns() as f64 / per).collect();
        median_or_zero(&d)
    };
    let mean_attr = |name: &str, key: &str| {
        let v: Vec<f64> = named(name).iter().map(|s| num(s, key)).collect();
        mean_or_zero(&v)
    };
    let total_ns = |prefixes: &[&str]| -> f64 {
        layers
            .iter()
            .filter(|s| prefixes.iter().any(|p| s.name.starts_with(p)))
            .map(|s| s.duration_ns() as f64)
            .sum()
    };

    let exec = named("exec.execute");
    let rows_out: f64 = exec.iter().map(|s| num(s, "rows_out")).sum();
    let rows_scanned: f64 = exec.iter().map(|s| num(s, "rows_scanned")).sum();

    let inserts = named("storage.insert");
    let insert_ns: f64 = inserts.iter().map(|s| s.duration_ns() as f64).sum();
    let insert_rows: f64 = inserts.iter().map(|s| num(s, "rows")).sum();

    let maintains = named("cache.maintain");
    let maintain_ms = |outcome: &str| {
        let d: Vec<f64> = maintains
            .iter()
            .filter(|s| s.attr("outcome") == Some(outcome))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        median_or_zero(&d)
    };
    let incremental = maintains.iter().filter(|s| s.attr("outcome") == Some("incremental")).count();

    let reads: Vec<&OpTrace<'_>> = traces.iter().filter(|t| t.is_read()).collect();
    let overhead_us: Vec<f64> = reads.iter().map(|t| (t.call_ns - t.staged_ns()) / 1e3).collect();
    let gap_pct: Vec<f64> = reads
        .iter()
        .filter_map(|t| t.program_ns.map(|p| (t.staged_ns() - p).abs() / p * 100.0))
        .collect();
    let call_ns: f64 = traces.iter().map(|t| t.call_ns).sum();
    let share = |prefixes: &[&str]| ratio(total_ns(prefixes), call_ns) * 100.0;

    assemble(
        &PER_LAYER,
        &[
            ("sql.parse_us", time("sql.parse", 1e3)),
            ("sql.bind_us", time("sql.bind", 1e3)),
            ("optimizer.optimize_us", time("optimizer.optimize", 1e3)),
            ("optimizer.rewrites_fired", mean_attr("optimizer.optimize", "rewrites_fired")),
            ("plan.nodes_in", mean_attr("optimizer.optimize", "nodes_in")),
            ("plan.nodes_out", mean_attr("exec.execute", "nodes_out")),
            ("plan.joins_out", mean_attr("exec.execute", "joins_out")),
            ("core.plan_cache_hit_rate", c.plan_cache_hit_rate),
            ("core.select_plan_us", time("core.select_plan", 1e3)),
            ("core.reoptimizations", c.reoptimizations as f64),
            ("exec.execute_ms", time("exec.execute", 1e6)),
            ("exec.rows_out", mean_attr("exec.execute", "rows_out")),
            ("exec.rows_scanned_per_row_out", ratio(rows_scanned, rows_out.max(1.0))),
            ("exec.morsel_steals", mean_attr("exec.execute", "morsel_steals")),
            ("storage.scan_ms", c.scan_ms),
            ("storage.blocks_skipped_frac", c.blocks_skipped_frac),
            ("storage.insert_us_per_row", ratio(insert_ns / 1e3, insert_rows)),
            ("storage.delete_ms", time("storage.delete", 1e6)),
            ("storage.merge_ms", time("storage.merge", 1e6)),
            ("storage.delta_rows", c.delta_rows as f64),
            ("cache.maintain_fresh_ms", maintain_ms("fresh")),
            ("cache.maintain_incremental_ms", maintain_ms("incremental")),
            ("cache.maintain_full_ms", maintain_ms("full")),
            ("cache.incremental_frac", ratio(incremental as f64, maintains.len() as f64)),
            ("cache.group_recomputes", c.group_recomputes as f64),
            ("cache.minmax_full_refreshes", c.minmax_full_refreshes as f64),
            ("cache.refresh_ms", time("cache.refresh", 1e6)),
            ("serve.overhead_us", median_or_zero(&overhead_us)),
            // One client: no other session ever holds the state lock or
            // the pool, so there is nothing to wait for. Reported, not
            // omitted, so the column exists when sessions > 1 arrive.
            ("serve.lock_wait_us", 0.0),
            ("share.sql_optimizer_pct", share(&["sql.", "optimizer."])),
            ("share.exec_pct", share(&["exec."])),
            ("share.cache_storage_pct", share(&["cache.", "storage."])),
            ("attributed_pct", share(&[""])),
            (
                "trace_overhead_pct",
                ratio(c.traced_p50_ms - c.untraced_p50_ms, c.untraced_p50_ms) * 100.0,
            ),
            ("obs.trace_gap_pct", median_or_zero(&gap_pct)),
        ],
    )
}

/// Share of the window's real-call time per layer span name, largest
/// first: the README's share-of-time table.
pub fn share_table(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let traces = op_traces(rec.spans());
    let call_ns: f64 = traces.iter().map(|t| t.call_ns).sum();
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for span in traces.iter().flat_map(|t| t.layers.iter()) {
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, ns)) => *ns += span.duration_ns() as f64,
            None => by_name.push((span.name, span.duration_ns() as f64)),
        }
    }
    for (_, ns) in &mut by_name {
        *ns = ratio(*ns, call_ns) * 100.0;
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}
