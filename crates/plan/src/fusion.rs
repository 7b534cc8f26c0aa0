//! Execution-time projection-chain fusion (detection side).
//!
//! The VDM unfolder stacks dozens of pass-through/renaming `Project`
//! nodes — the paper's §4.4 paging browser carries a 28-node chain where
//! every node only reorders, renames, or duplicates input columns. Each
//! such node is a *pure column mapping*: every output expression is
//! `Expr::Col(i)`. Adjacent column mappings compose into one mapping
//! (`(outer ∘ inner)[j] = inner[outer[j]]`), so the whole chain can run
//! as a single column-select kernel instead of N per-row evaluation
//! passes.
//!
//! This module only *detects* column mappings; composing a chain into one
//! pipeline step, executing it and attributing per-node stats back to the
//! covered nodes is the executor's job. Fusion is deliberately an execution-time
//! rewrite, not an optimizer rule: the logical plan keeps its per-node
//! shape so EXPLAIN, lineage, and rewrite traces still see every
//! projection the view unfolder produced.

use vdm_expr::Expr;

/// Returns the column mapping of a pure pass-through/renaming projection:
/// `Some(m)` with `m[j] = i` iff every output expression `j` is
/// `Expr::Col(i)`. Computed expressions disqualify the node.
pub fn column_mapping(exprs: &[(Expr, String)]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|(e, _)| match e {
            Expr::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pure_column_references_map() {
        let cols = |cs: &[usize]| -> Vec<(Expr, String)> {
            cs.iter().map(|&c| (Expr::col(c), format!("c{c}"))).collect()
        };
        // Reorder, rename, duplicate.
        assert_eq!(column_mapping(&cols(&[2, 0, 0])), Some(vec![2, 0, 0]));
        let mut computed = cols(&[1]);
        computed.push((Expr::col(0).binary(vdm_expr::BinOp::Add, Expr::int(1)), "x".into()));
        assert_eq!(column_mapping(&computed), None);
    }
}
