//! Structured query tracing: causally-linked spans covering one query's
//! whole lifecycle (plan-cache lookup → bind → optimize → execute →
//! cached-view maintenance), collected through a thread-local builder the
//! same way [`rewrite`](crate::rewrite) collects optimizer events.
//!
//! The emitting crates never hold a trace object: they open guards —
//! [`root`] at query entry, [`span`] around each phase — and annotate the
//! innermost open span with [`attr`]. Guards close LIFO on drop, so the
//! parent links always form a tree. When no trace is active (tracing
//! disabled, or code running outside a query) every call is a no-op that
//! costs one thread-local read, which is what keeps the always-on default
//! inside the ≤3% overhead budget.
//!
//! Nesting composes: if a root guard is opened while a trace is already
//! active (e.g. `Session::query` inside `Session::with_trace`), it becomes
//! a child span and the outermost owner still receives one tree.

use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::util::{fmt_nanos, json_string};

/// One completed span of a query trace. Times are nanoseconds; `start`
/// is relative to the trace root's start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in [`QueryTrace::spans`] (pre-order: parents precede
    /// children, siblings in open order).
    pub id: u32,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u32>,
    pub name: String,
    pub start_nanos: u64,
    pub wall_nanos: u64,
    /// Key=value annotations in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The named attribute's value, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A finished trace: the spans of one query in pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Process-unique trace id.
    pub trace_id: u64,
    pub spans: Vec<Span>,
}

impl QueryTrace {
    /// Wall time of the root span, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.spans.first().map(|s| s.wall_nanos).unwrap_or(0)
    }

    /// Wall time minus the wall time of direct children (time spent in
    /// the span itself), for span `id`.
    pub fn self_nanos(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.wall_nanos).sum();
        span.wall_nanos.saturating_sub(children)
    }

    /// Renders the trace as an indented text tree:
    ///
    /// ```text
    /// trace 0000000000000001
    /// └─ query total=1.234ms self=0.100ms shape="select ..."
    ///    ├─ select_plan total=... self=...
    ///    └─ execute total=... rows=42
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("trace {:016x}\n", self.trace_id);
        if self.spans.is_empty() {
            return out;
        }
        self.render_node(0, "", true, &mut out);
        out
    }

    fn render_node(&self, id: u32, prefix: &str, last: bool, out: &mut String) {
        let span = &self.spans[id as usize];
        let branch = if last { "└─ " } else { "├─ " };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&span.name);
        out.push_str(&format!(
            " total={} self={}",
            fmt_nanos(span.wall_nanos),
            fmt_nanos(self.self_nanos(id))
        ));
        for (k, v) in &span.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let children: Vec<u32> =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.id).collect();
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, c) in children.iter().enumerate() {
            self.render_node(*c, &child_prefix, i + 1 == children.len(), out);
        }
    }

    /// Exports the trace as one JSON object (span attrs as a nested
    /// object, `self_nanos` precomputed for consumers).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\": \"{:016x}\", \"spans\": [", self.trace_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_nanos\": {}, \
                 \"wall_nanos\": {}, \"self_nanos\": {}, \"attrs\": {{",
                s.id,
                s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string()),
                json_string(&s.name),
                s.start_nanos,
                s.wall_nanos,
                self.self_nanos(s.id),
            ));
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Global default for automatic per-query tracing.
static ENABLED: AtomicBool = AtomicBool::new(true);
/// Process-wide trace-id allocator (ids must be unique, not meaningful).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Whether automatic query tracing is on (default: on).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns automatic query tracing on or off process-wide. Explicit traces
/// ([`root_forced`], used by `EXPLAIN TRACE` and `Session::with_trace`)
/// still work when off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

struct OpenSpan {
    idx: usize,
    started: Instant,
}

struct Collector {
    /// Someone asked for this trace ([`root_forced`]).
    explicit: bool,
    trace_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Guard for a root claim: the outermost one owns the trace and yields it
/// from [`RootGuard::finish`]; nested roots behave like plain spans.
pub struct RootGuard {
    owner: bool,
    span: SpanGuard,
}

/// Guard for one span; closes on drop. Inert when no trace is active.
pub struct SpanGuard {
    open: bool,
}

/// Opens a trace root named `name` if automatic tracing is enabled. When
/// a trace is already active on this thread the guard nests as a child
/// span and ownership stays with the outer root.
pub fn root(name: &str) -> RootGuard {
    root_inner(name, false)
}

/// Like [`root`], but starts a trace even when automatic tracing is
/// disabled — used by `EXPLAIN TRACE` and explicit trace scopes.
pub fn root_forced(name: &str) -> RootGuard {
    root_inner(name, true)
}

fn root_inner(name: &str, forced: bool) -> RootGuard {
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(col) = slot.as_mut() {
            col.explicit |= forced;
            drop(slot);
            return RootGuard { owner: false, span: open_span(name) };
        }
        if !forced && !enabled() {
            return RootGuard { owner: false, span: SpanGuard { open: false } };
        }
        let now = Instant::now();
        *slot = Some(Collector {
            explicit: forced,
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            origin: now,
            spans: vec![Span {
                id: 0,
                parent: None,
                name: name.to_string(),
                start_nanos: 0,
                wall_nanos: 0,
                attrs: Vec::new(),
            }],
            stack: vec![OpenSpan { idx: 0, started: now }],
        });
        RootGuard { owner: true, span: SpanGuard { open: true } }
    })
}

/// True inside a trace someone asked for (`EXPLAIN TRACE`, an explicit
/// trace scope): detail that is only worth its cost when it is read — the
/// optimizer's per-pass split — is recorded under this, not on every query.
pub fn explicit() -> bool {
    COLLECTOR.with(|cell| cell.borrow().as_ref().is_some_and(|col| col.explicit))
}

/// Opens a child span of the innermost open span. Inert when no trace is
/// active on this thread.
pub fn span(name: &str) -> SpanGuard {
    open_span(name)
}

fn open_span(name: &str) -> SpanGuard {
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(col) = slot.as_mut() else {
            return SpanGuard { open: false };
        };
        let now = Instant::now();
        let parent = col.stack.last().map(|o| col.spans[o.idx].id);
        let idx = col.spans.len();
        col.spans.push(Span {
            id: idx as u32,
            parent,
            name: name.to_string(),
            start_nanos: now.duration_since(col.origin).as_nanos() as u64,
            wall_nanos: 0,
            attrs: Vec::new(),
        });
        col.stack.push(OpenSpan { idx, started: now });
        SpanGuard { open: true }
    })
}

/// Annotates the innermost open span with `key=value`. No-op without an
/// active trace.
pub fn attr(key: &str, value: impl Display) {
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(col) = slot.as_mut() {
            if let Some(open) = col.stack.last() {
                col.spans[open.idx].attrs.push((key.to_string(), value.to_string()));
            }
        }
    });
}

fn close_innermost() {
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(col) = slot.as_mut() {
            if let Some(open) = col.stack.pop() {
                col.spans[open.idx].wall_nanos = open.started.elapsed().as_nanos() as u64;
            }
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            self.open = false;
            close_innermost();
        }
    }
}

impl RootGuard {
    /// Closes the root span. The owning (outermost) guard returns the
    /// finished trace; nested roots and disabled claims return `None`.
    pub fn finish(mut self) -> Option<QueryTrace> {
        if !self.span.open {
            return None;
        }
        self.span.open = false;
        close_innermost();
        if !self.owner {
            return None;
        }
        let trace = COLLECTOR.with(|cell| {
            let col = cell.borrow_mut().take()?;
            Some(QueryTrace { trace_id: col.trace_id, spans: col.spans })
        });
        if trace.is_some() {
            crate::registry::global().inc(crate::names::TRACES_TOTAL, 1);
        }
        trace
    }
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        if self.span.open {
            self.span.open = false;
            close_innermost();
            if self.owner {
                COLLECTOR.with(|cell| cell.borrow_mut().take());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_with_causal_links() {
        let r = root_forced("query");
        attr("shape", "select 1");
        {
            let _plan = span("select_plan");
            {
                let _lookup = span("plan_cache.lookup");
                attr("outcome", "miss");
            }
            let _opt = span("optimize");
        }
        let _exec = span("execute");
        drop(_exec);
        let trace = r.finish().expect("owner gets the trace");

        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["query", "select_plan", "plan_cache.lookup", "optimize", "execute"]);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[3].parent, Some(1));
        assert_eq!(trace.spans[4].parent, Some(0));
        assert_eq!(trace.spans[2].attr("outcome"), Some("miss"));
        assert!(trace.total_nanos() >= trace.spans[1].wall_nanos);

        let text = trace.render();
        assert!(text.contains("└─ query total="), "{text}");
        assert!(text.contains("│  ├─ plan_cache.lookup"), "{text}");
        let json = trace.to_json();
        assert!(json.contains("\"name\": \"optimize\""), "{json}");
        assert!(json.contains("\"parent\": 1"), "{json}");
    }

    #[test]
    fn nested_roots_fold_into_the_outer_trace() {
        let outer = root_forced("scope");
        let inner = root("query");
        let _child = span("execute");
        drop(_child);
        assert!(inner.finish().is_none(), "nested root is not the owner");
        let trace = outer.finish().unwrap();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["scope", "query", "execute"]);
        assert_eq!(trace.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracing_is_inert_but_forced_roots_still_work() {
        set_enabled(false);
        let r = root("query");
        let _s = span("execute");
        attr("rows", 1);
        drop(_s);
        assert!(r.finish().is_none());

        let f = root_forced("explain trace");
        let trace = f.finish().unwrap();
        assert_eq!(trace.spans.len(), 1);
        set_enabled(true);
    }

    #[test]
    fn dropped_root_clears_the_thread_state() {
        {
            let _r = root_forced("query");
            let _s = span("execute");
        }
        // A fresh root must start a brand-new trace, not nest.
        let r = root_forced("query2");
        let trace = r.finish().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "query2");
    }
}
