//! Structural plan digests for cheap change detection.
//!
//! The optimizer's fixpoint loop needs to know whether a round changed the
//! plan. Comparing node counts ([`crate::stats::plan_stats`]) misses
//! count-neutral rewrites (e.g. an ASJ rewiring that swaps a join input
//! without adding or removing nodes); comparing full plans with `==` walks
//! shared subtrees once per path. [`plan_digest`] hashes the whole
//! structure — operator, per-variant content, and child digests — with a
//! DAG memo, so equal digests mean "no observable rewrite happened" and
//! each shared node is hashed once.

use crate::node::{LogicalPlan, NodeMap, PlanRef};
use std::collections::HashMap;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]); // separator so "ab"+"c" != "a"+"bc"
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Structural digest of a plan DAG. Two plans with equal digests are
/// structurally identical for fixpoint purposes; shared nodes hash once.
pub fn plan_digest(plan: &PlanRef) -> u64 {
    let mut memo: NodeMap<*const LogicalPlan, u64> = NodeMap::default();
    digest_memo(plan, &mut memo, None)
}

/// Like [`plan_digest`], but scan instance ids are renumbered by first
/// visit in traversal order. Instance ids come from a process-global
/// counter at bind time, so two plans bound independently from the same
/// statement never share them — this variant makes such plans compare
/// equal (used to assert a cached plan matches a cold re-optimize) while
/// still distinguishing *which* scans a DAG shares.
pub fn plan_digest_canonical(plan: &PlanRef) -> u64 {
    let mut memo: NodeMap<*const LogicalPlan, u64> = NodeMap::default();
    let mut renumber: HashMap<usize, u64> = HashMap::new();
    digest_memo(plan, &mut memo, Some(&mut renumber))
}

fn digest_memo(
    plan: &PlanRef,
    memo: &mut NodeMap<*const LogicalPlan, u64>,
    mut renumber: Option<&mut HashMap<usize, u64>>,
) -> u64 {
    let key = Arc::as_ptr(plan);
    if let Some(&d) = memo.get(&key) {
        return d;
    }
    let mut h = Fnv::new();
    h.str(plan.op_name());
    match plan.as_ref() {
        LogicalPlan::Scan { table, instance, cols, .. } => {
            h.str(&table.name);
            // An all-columns scan hashes as it always has; only a narrowed
            // scan adds its column list.
            if let Some(cols) = cols.narrowed() {
                h.str(&format!("{cols:?}"));
            }
            let id = match renumber.as_deref_mut() {
                Some(map) => {
                    let next = map.len() as u64;
                    *map.entry(*instance).or_insert(next)
                }
                None => *instance as u64,
            };
            h.u64(id);
        }
        LogicalPlan::Values { rows, schema } => {
            h.str(&format!("{rows:?}"));
            h.u64(schema.len() as u64);
        }
        LogicalPlan::Project { exprs, .. } => h.str(&format!("{exprs:?}")),
        LogicalPlan::Filter { predicate, .. } => h.str(&format!("{predicate:?}")),
        LogicalPlan::Join { kind, on, filter, declared, asj_intent, .. } => {
            h.str(&format!("{kind:?} {on:?} {filter:?} {declared:?} {asj_intent}"));
        }
        LogicalPlan::UnionAll { inputs, .. } => h.u64(inputs.len() as u64),
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            h.str(&format!("{group_by:?} {aggs:?}"));
        }
        LogicalPlan::Distinct { .. } => {}
        LogicalPlan::Sort { keys, .. } => h.str(&format!("{keys:?}")),
        LogicalPlan::Limit { skip, fetch, .. } => {
            h.u64(*skip);
            h.u64(fetch.map_or(u64::MAX, |f| f));
            h.u64(u64::from(fetch.is_some()));
        }
    }
    for c in plan.children() {
        let d = digest_memo(c, memo, renumber.as_deref_mut());
        h.u64(d);
    }
    memo.insert(key, h.0);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;
    use vdm_expr::Expr;
    use vdm_types::SqlType;

    fn scan() -> PlanRef {
        LogicalPlan::scan(std::sync::Arc::new(
            TableBuilder::new("t")
                .column("a", SqlType::Int, false)
                .column("b", SqlType::Int, false)
                .primary_key(&["a"])
                .build()
                .unwrap(),
        ))
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let s = scan();
        let p1 = LogicalPlan::filter(s.clone(), Expr::col(0).eq(Expr::int(1))).unwrap();
        let p2 = LogicalPlan::filter(s.clone(), Expr::col(0).eq(Expr::int(1))).unwrap();
        let p3 = LogicalPlan::filter(s, Expr::col(0).eq(Expr::int(2))).unwrap();
        assert_eq!(plan_digest(&p1), plan_digest(&p2));
        assert_ne!(plan_digest(&p1), plan_digest(&p3));
    }

    #[test]
    fn canonical_digest_ignores_instance_numbering() {
        // Two binds of the same statement get fresh instance ids: raw
        // digests differ, canonical digests agree.
        let p1 = LogicalPlan::inner_join(scan(), scan(), vec![(0, 0)]).unwrap();
        let p2 = LogicalPlan::inner_join(scan(), scan(), vec![(0, 0)]).unwrap();
        assert_ne!(plan_digest(&p1), plan_digest(&p2));
        assert_eq!(plan_digest_canonical(&p1), plan_digest_canonical(&p2));
        // But a self-join of ONE scan is still distinct from a join of two
        // scans of the same table — sharing matters.
        let s = scan();
        let shared = LogicalPlan::inner_join(s.clone(), s, vec![(0, 0)]).unwrap();
        assert_ne!(plan_digest_canonical(&shared), plan_digest_canonical(&p1));
    }

    #[test]
    fn digest_distinguishes_count_equal_plans() {
        // Same node counts, different wiring — exactly what plan_stats-based
        // fixpoint detection cannot see.
        let a = scan();
        let b = scan();
        let j1 = LogicalPlan::inner_join(a.clone(), b.clone(), vec![(0, 0)]).unwrap();
        let j2 = LogicalPlan::inner_join(b, a, vec![(0, 0)]).unwrap();
        assert_ne!(plan_digest(&j1), plan_digest(&j2));
        assert_eq!(crate::stats::plan_stats(&j1), crate::stats::plan_stats(&j2));
    }
}
