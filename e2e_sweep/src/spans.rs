//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, written out when the run ends.
//!
//! Every span of one operation shares a `trace_id`; `parent_id` names the
//! span that caused it. A span's *self time* is its duration minus its
//! children's, so the self times of a trace sum to its root exactly.

use std::fmt::Write as _;
use std::time::Instant;
use vdm_obs::util::json_string;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

/// Handle of an open span, returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// Records spans on one thread (the benchmark's single client). A
/// disabled recorder makes every call a no-op, so the untraced and the
/// traced pass run the same code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<usize>,
    next_trace_id: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_trace_id: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; with none open it is the
    /// root of a new trace.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let (trace_id, parent_id) = match self.stack.last() {
            Some(&p) => (self.spans[p].trace_id, Some(self.spans[p].span_id)),
            None => {
                self.next_trace_id += 1;
                (self.next_trace_id - 1, None)
            }
        };
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace_id,
            span_id: idx as u64 + 1,
            parent_id,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.stack.pop().expect("end() without begin()");
        assert_eq!(idx, open.0, "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Records a count or label on an open (or just closed) span.
    pub fn attr(&mut self, open: Open, key: &'static str, value: impl ToString) {
        if self.enabled {
            self.spans[open.0].attrs.push((key, value.to_string()));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Open) {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        (out, open)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds the span at `idx` spent outside its children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let me = &self.spans[idx];
        let children: u64 = self.spans[idx + 1..]
            .iter()
            .take_while(|s| s.trace_id == me.trace_id)
            .filter(|s| s.parent_id == Some(me.span_id))
            .map(Span::duration_ns)
            .sum();
        me.duration_ns() - children
    }

    /// One JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent_id.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"trace_id\": {}, \"span_id\": {}, \"parent_id\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{",
                s.trace_id,
                s.span_id,
                parent,
                json_string(s.name),
                s.start_ns,
                s.end_ns
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}: {}", json_string(k), json_string(v));
            }
            out.push_str("}}\n");
        }
        out
    }
}
