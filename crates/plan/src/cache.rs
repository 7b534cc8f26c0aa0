//! Memoized per-node plan properties — the "annotated plan" core.
//!
//! Optimizer rules probe the same properties (unique sets, lineage,
//! emptiness) on the same nodes over and over: per join node, per pass,
//! per fixpoint round. Plans are immutable DAGs of `Arc`-shared nodes, so
//! every property is a pure function of the node pointer (plus, for unique
//! sets, the [`DeriveOptions`] in force) — a rewrite *constructs new nodes*
//! rather than mutating old ones, which makes the cache invalidation-free
//! by construction: a changed subtree has a new address, an unchanged one
//! keeps its memoized entries.
//!
//! Keying by raw pointer is only sound while the pointed-to allocation
//! lives. The cache therefore retains a strong [`PlanRef`] for every key it
//! inserts (`keepalive`), so an `Arc` dropped mid-optimization can never
//! hand its address to a newly built node that would then inherit stale
//! properties (the classic pointer-reuse ABA).
//!
//! The cache is deliberately single-threaded (one per `optimize()` call):
//! `RefCell`/`Cell` interior mutability keeps probes allocation-free on the
//! hit path, and nothing escapes the optimizer invocation.

use crate::lineage::{self, Origin};
use crate::node::{DeclaredCardinality, NodeMap, PlanRef};
use crate::props::{self, DeriveOptions};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// Hit/miss counters of a [`PropertyCache`], exported to the metrics
/// registry and printed in the EXPLAIN ANALYZE header.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that had to derive (each derives exactly once per key).
    pub misses: u64,
    /// Distinct memoized entries across all property tables.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of probes answered from the memo (0 when nothing probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type UniqueKey = (usize, DeriveOptions);

/// Pointer-identity-keyed memo of derived plan properties.
#[derive(Default)]
pub struct PropertyCache {
    unique: RefCell<NodeMap<UniqueKey, Rc<Vec<BTreeSet<usize>>>>>,
    empty: RefCell<NodeMap<usize, bool>>,
    lineage: RefCell<NodeMap<usize, Rc<Vec<Option<Origin>>>>>,
    /// Strong refs backing every pointer key (see module docs).
    keepalive: RefCell<Vec<PlanRef>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl PropertyCache {
    /// A fresh, empty cache.
    pub fn new() -> PropertyCache {
        PropertyCache::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.unique.borrow().len()
                + self.empty.borrow().len()
                + self.lineage.borrow().len(),
        }
    }

    fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }

    fn miss(&self, plan: &PlanRef) {
        self.misses.set(self.misses.get() + 1);
        self.keepalive.borrow_mut().push(plan.clone());
    }

    /// Memoized [`props::unique_sets`]: shared DAG nodes derive once per
    /// `DeriveOptions`, no matter how many paths reach them.
    pub fn unique_sets(&self, plan: &PlanRef, opts: &DeriveOptions) -> Rc<Vec<BTreeSet<usize>>> {
        let key = (Arc::as_ptr(plan) as usize, *opts);
        if let Some(sets) = self.unique.borrow().get(&key) {
            self.hit();
            return Rc::clone(sets);
        }
        self.miss(plan);
        let sets = Rc::new(props::derive_with(plan, opts, &mut |child| {
            (*self.unique_sets(child, opts)).clone()
        }));
        self.unique.borrow_mut().insert(key, Rc::clone(&sets));
        sets
    }

    /// Memoized at-most-one-match test for a join's right side.
    pub fn right_at_most_one(
        &self,
        right: &PlanRef,
        on: &[(usize, usize)],
        declared: Option<DeclaredCardinality>,
        opts: &DeriveOptions,
    ) -> bool {
        if opts.trust_declared && declared.is_some() {
            return true;
        }
        let right_cols: BTreeSet<usize> = on.iter().map(|&(_, r)| r).collect();
        props::covers_unique(&self.unique_sets(right, opts), &right_cols)
    }

    /// Memoized [`props::statically_empty`].
    pub fn statically_empty(&self, plan: &PlanRef) -> bool {
        let key = Arc::as_ptr(plan) as usize;
        if let Some(&empty) = self.empty.borrow().get(&key) {
            self.hit();
            return empty;
        }
        self.miss(plan);
        let empty = props::statically_empty_with(plan, &mut |c| self.statically_empty(c));
        self.empty.borrow_mut().insert(key, empty);
        empty
    }

    /// Memoized [`lineage::column_lineage`]: the full used-column → base
    /// origin map of a node, derived once and indexed per probe.
    pub fn lineage(&self, plan: &PlanRef) -> Rc<Vec<Option<Origin>>> {
        let key = Arc::as_ptr(plan) as usize;
        if let Some(l) = self.lineage.borrow().get(&key) {
            self.hit();
            return Rc::clone(l);
        }
        self.miss(plan);
        let l = Rc::new(lineage::column_lineage(plan));
        self.lineage.borrow_mut().insert(key, Rc::clone(&l));
        l
    }

    /// The base-table origin of one output ordinal, via [`Self::lineage`].
    pub fn origin(&self, plan: &PlanRef, ord: usize) -> Option<Origin> {
        self.lineage(plan).get(ord).cloned().flatten()
    }
}

impl std::fmt::Debug for PropertyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PropertyCache {{ hits: {}, misses: {}, entries: {} }}",
            s.hits, s.misses, s.entries
        )
    }
}
