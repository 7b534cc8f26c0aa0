//! EXPLAIN: human-readable plan rendering.
//!
//! Shared subtrees (DAG nodes referenced more than once) are rendered once
//! and referenced by id afterwards, mirroring how SAP HANA displays shared
//! subqueries.

use crate::node::{JoinKind, LogicalPlan, NodeMap, PlanRef};
use std::fmt::Write;

/// Renders a plan tree as indented text.
pub fn explain(plan: &PlanRef) -> String {
    explain_annotated(plan, &|_| None)
}

/// Like [`explain`], appending a caller-supplied annotation to each node
/// line (e.g. the `[#id rows=… time=…]` notes of EXPLAIN ANALYZE).
/// Shared subtrees are annotated once, at their first (defining) render.
pub fn explain_annotated(plan: &PlanRef, note: &dyn Fn(&PlanRef) -> Option<String>) -> String {
    let mut shared: NodeMap<*const LogicalPlan, usize> = NodeMap::default();
    collect_shared(plan, &mut NodeMap::default(), &mut shared);
    let mut out = String::new();
    let mut printed: NodeMap<*const LogicalPlan, usize> = NodeMap::default();
    render(plan, 0, &shared, &mut printed, note, &mut out);
    out
}

/// Numbers every distinct node of the DAG in pre-order (root = 0); shared
/// subtrees keep the id of their first visit. These are the stable node
/// ids the observability layer keys rewrite events and runtime profiles by.
pub fn number_nodes(plan: &PlanRef) -> NodeMap<*const LogicalPlan, usize> {
    fn walk(plan: &PlanRef, ids: &mut NodeMap<*const LogicalPlan, usize>) {
        let ptr = std::sync::Arc::as_ptr(plan);
        if ids.contains_key(&ptr) {
            return;
        }
        ids.insert(ptr, ids.len());
        for c in plan.children() {
            walk(c, ids);
        }
    }
    // Sized for a VDM view's plan up front: a rewrite firing counts two
    // subtrees through here, and growing from empty was most of that.
    let mut ids = NodeMap::with_capacity_and_hasher(128, Default::default());
    walk(plan, &mut ids);
    ids
}

fn collect_shared(
    plan: &PlanRef,
    refcount: &mut NodeMap<*const LogicalPlan, usize>,
    shared: &mut NodeMap<*const LogicalPlan, usize>,
) {
    let ptr = std::sync::Arc::as_ptr(plan);
    let count = refcount.entry(ptr).or_insert(0);
    *count += 1;
    if *count == 2 {
        let id = shared.len() + 1;
        shared.insert(ptr, id);
        return;
    }
    if *count > 1 {
        return;
    }
    for c in plan.children() {
        collect_shared(c, refcount, shared);
    }
}

fn render(
    plan: &PlanRef,
    indent: usize,
    shared: &NodeMap<*const LogicalPlan, usize>,
    printed: &mut NodeMap<*const LogicalPlan, usize>,
    note: &dyn Fn(&PlanRef) -> Option<String>,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let ptr = std::sync::Arc::as_ptr(plan);
    if let Some(id) = shared.get(&ptr) {
        if printed.contains_key(&ptr) {
            let _ = writeln!(out, "{pad}[shared #{id}]");
            return;
        }
        printed.insert(ptr, *id);
        let _ = write!(out, "{pad}#{id}: ");
    } else {
        let _ = write!(out, "{pad}");
    }
    render_node(plan, out);
    if let Some(n) = note(plan) {
        debug_assert!(out.ends_with('\n'));
        out.pop();
        let _ = writeln!(out, " {n}");
    }
    for c in plan.children() {
        render(c, indent + 1, shared, printed, note, out);
    }
}

fn render_node(plan: &PlanRef, out: &mut String) {
    match plan.as_ref() {
        LogicalPlan::Scan { table, instance, cols, .. } => {
            let _ = write!(out, "Scan {} (inst {})", table.name, instance);
            if let Some(cols) = cols.narrowed() {
                let _ = write!(out, " cols={}/{}", cols.len(), table.schema.len());
            }
            out.push('\n');
        }
        LogicalPlan::Values { rows, schema } => {
            let _ = writeln!(out, "Values {} row(s), {} col(s)", rows.len(), schema.len());
        }
        LogicalPlan::Project { exprs, input, .. } => {
            let names = exprs
                .iter()
                .map(|(e, n)| format!("{n}={}", render_expr(e, &input.schema())))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "Project [{names}]");
        }
        LogicalPlan::Filter { predicate, input } => {
            let _ = writeln!(out, "Filter {}", render_expr(predicate, &input.schema()));
        }
        LogicalPlan::Join { kind, on, declared, asj_intent, filter, left, right, .. } => {
            let kind_s = match kind {
                JoinKind::Inner => "InnerJoin",
                JoinKind::LeftOuter => "LeftOuterJoin",
            };
            let ls = left.schema();
            let rs = right.schema();
            let keys = on
                .iter()
                .map(|&(l, r)| format!("{}={}", ls.field(l).name, rs.field(r).name))
                .collect::<Vec<_>>()
                .join(" AND ");
            let mut extra = String::new();
            if let Some(d) = declared {
                let _ = write!(extra, " [{d:?}]");
            }
            if *asj_intent {
                extra.push_str(" [CASE JOIN]");
            }
            if filter.is_some() {
                extra.push_str(" [+filter]");
            }
            let _ = writeln!(out, "{kind_s} on {keys}{extra}");
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            let _ = writeln!(out, "UnionAll ({} inputs)", inputs.len());
        }
        LogicalPlan::Aggregate { group_by, aggs, input, .. } => {
            let g = group_by
                .iter()
                .map(|(e, n)| format!("{n}={}", render_expr(e, &input.schema())))
                .collect::<Vec<_>>()
                .join(", ");
            let a = aggs.iter().map(|(x, n)| format!("{n}={x}")).collect::<Vec<_>>().join(", ");
            let _ = writeln!(out, "Aggregate group=[{g}] aggs=[{a}]");
        }
        LogicalPlan::Distinct { .. } => {
            let _ = writeln!(out, "Distinct");
        }
        LogicalPlan::Sort { keys, .. } => {
            let k = keys
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.asc { " ASC" } else { " DESC" }))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "Sort [{k}]");
        }
        LogicalPlan::Limit { skip, fetch, .. } => {
            let f = fetch.map(|f| f.to_string()).unwrap_or_else(|| "ALL".into());
            let _ = writeln!(out, "Limit fetch={f} offset={skip}");
        }
    }
}

/// Renders an expression substituting `$i` ordinals with field names.
fn render_expr(e: &vdm_expr::Expr, schema: &vdm_types::Schema) -> String {
    use vdm_expr::Expr;
    let pretty = e.transform(&|node| {
        if let Expr::Col(i) = node {
            if *i < schema.len() {
                // Encode the name as a string literal leaf for display only.
                return Some(Expr::Lit(vdm_types::Value::str(format!(
                    "\u{1}{}\u{2}",
                    schema.field(*i).name
                ))));
            }
        }
        None
    });
    pretty.to_string().replace("'\u{1}", "").replace("\u{2}'", "").replace(['\u{1}', '\u{2}'], "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdm_catalog::TableBuilder;
    use vdm_expr::Expr;
    use vdm_types::SqlType;

    fn table(name: &str) -> Arc<vdm_catalog::TableDef> {
        Arc::new(
            TableBuilder::new(name)
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Text, false)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn renders_tree_with_field_names() {
        let t = LogicalPlan::scan(table("orders"));
        let f = LogicalPlan::filter(t, Expr::col(0).eq(Expr::int(5))).unwrap();
        let text = explain(&f);
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("k"), "field name resolved: {text}");
        assert!(text.contains("Scan orders"), "{text}");
    }

    #[test]
    fn numbers_nodes_preorder_sharing_ids() {
        let t = LogicalPlan::scan(table("t"));
        let j = LogicalPlan::inner_join(Arc::clone(&t), Arc::clone(&t), vec![(0, 0)]).unwrap();
        let ids = number_nodes(&j);
        assert_eq!(ids.len(), 2, "join + one shared scan");
        assert_eq!(ids[&Arc::as_ptr(&j)], 0);
        assert_eq!(ids[&Arc::as_ptr(&t)], 1);
    }

    #[test]
    fn annotations_attach_to_node_lines() {
        let t = LogicalPlan::scan(table("orders"));
        let f = LogicalPlan::filter(t, Expr::col(0).eq(Expr::int(5))).unwrap();
        let ids = number_nodes(&f);
        let text = explain_annotated(&f, &|p| {
            ids.get(&Arc::as_ptr(p)).map(|id| format!("[#{id} rows=0]"))
        });
        assert!(text.contains("Filter (k = 5) [#0 rows=0]"), "{text}");
        assert!(text.contains("Scan orders (inst") && text.contains(") [#1 rows=0]"), "{text}");
    }

    #[test]
    fn shared_subtrees_rendered_once() {
        let t = LogicalPlan::scan(table("t"));
        let j = LogicalPlan::inner_join(Arc::clone(&t), t, vec![(0, 0)]).unwrap();
        let text = explain(&j);
        assert_eq!(text.matches("Scan t").count(), 1, "{text}");
        assert!(text.contains("[shared #1]"), "{text}");
    }
}
