//! Optimizer rewrite trace: structured events reported by the rule passes.
//!
//! The optimizer drives many small pure functions that rebuild plan
//! subtrees; threading an event sink through every signature would bloat
//! them for what is diagnostic data. Instead the collector is
//! thread-local: `Optimizer::optimize_traced` brackets a run with
//! [`begin_collect`]/[`finish_collect`], announces each pass with
//! [`begin_pass`], and fire sites call [`fired`] — a no-op when no
//! collection is active. The collector's work is proportional to what
//! fires: a pass's input is numbered when its first rule fires, and a firing
//! counts the nodes of the two subtrees it names, nothing else.

use std::cell::RefCell;

use vdm_plan::{number_nodes, LogicalPlan, NodeMap, PlanRef};

/// One rewrite-rule firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteEvent {
    /// Fixpoint round (0 = the pre-round constant folding / pushdown).
    pub round: usize,
    /// Pass name as reported to the pass-level trace.
    pub pass: &'static str,
    /// Rule name, e.g. `uaj-removal`.
    pub rule: &'static str,
    /// Pre-order id of the rewritten node within the pass's input plan.
    /// `None` when the node was itself built earlier in the same pass.
    pub node_id: Option<usize>,
    /// Operator name of the rewritten node.
    pub node: &'static str,
    /// Cardinality/uniqueness evidence that justified the rewrite.
    pub evidence: String,
    /// Node count of the rewritten subtree before the rule fired.
    pub nodes_before: usize,
    /// Node count of the replacement subtree.
    pub nodes_after: usize,
}

impl RewriteEvent {
    /// One-line rendering used by EXPLAIN ANALYZE and `Trace::render`.
    pub fn render(&self) -> String {
        let id = match self.node_id {
            Some(id) => format!("#{id}"),
            None => "#?".to_string(),
        };
        format!(
            "round {} [{}]: {} @ {id} {}: {} (subtree {} -> {} nodes)",
            self.round,
            self.pass,
            self.rule,
            self.node,
            self.evidence,
            self.nodes_before,
            self.nodes_after
        )
    }
}

#[derive(Default)]
struct Collector {
    round: usize,
    pass: &'static str,
    /// The current pass's input plan, and — once a rule has fired in the
    /// pass — its nodes' pre-order ids.
    input: Option<PlanRef>,
    ids: Option<NodeMap<*const LogicalPlan, usize>>,
    events: Vec<RewriteEvent>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Starts collecting rewrite events on this thread (drops any prior
/// unfinished collection).
pub fn begin_collect() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(Collector::default()));
}

/// True when a collection is active on this thread.
pub fn is_collecting() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Announces the pass about to run over `input`, the plan [`fired`]
/// attributes node ids within.
pub fn begin_pass(round: usize, pass: &'static str, input: &PlanRef) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            (c.round, c.pass, c.input, c.ids) = (round, pass, Some(input.clone()), None);
        }
    });
}

/// Reports that `rule` rewrote `node` into `replacement` (or removed it)
/// because of `evidence`. No-op unless a collection is active.
pub fn fired(rule: &'static str, node: &PlanRef, replacement: Option<&PlanRef>, evidence: &str) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            let ids =
                c.ids.get_or_insert_with(|| c.input.as_ref().map(number_nodes).unwrap_or_default());
            c.events.push(RewriteEvent {
                round: c.round,
                pass: c.pass,
                rule,
                node_id: ids.get(&std::sync::Arc::as_ptr(node)).copied(),
                node: node.op_name(),
                evidence: evidence.to_string(),
                nodes_before: number_nodes(node).len(),
                nodes_after: replacement.map_or(0, |p| number_nodes(p).len()),
            });
        }
    });
}

/// Ends the collection and returns the events in firing order.
pub fn finish_collect() -> Vec<RewriteEvent> {
    ACTIVE.with(|a| a.borrow_mut().take().map(|c| c.events).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fired_is_noop_without_collection() {
        assert!(!is_collecting());
        // Nothing to assert beyond "does not panic": no plan handy here,
        // so just check the collect bracket protocol.
        begin_collect();
        assert!(is_collecting());
        assert!(finish_collect().is_empty());
        assert!(!is_collecting());
    }
}
