//! The shared rewrite context threaded through every optimizer rule.
//!
//! `RewriteCtx` bundles the three things a rule needs: the capability
//! [`Profile`] (what is it allowed to do), the [`PropertyCache`] (memoized
//! plan properties — unique sets, lineage, emptiness, nullability), and the
//! observability sink for rule-firing events. Rules never derive properties
//! themselves: every probe goes through the cache, so a property of a
//! shared DAG node is computed once per `optimize()` call instead of once
//! per probing rule per fixpoint round.

use crate::profile::Profile;
use crate::Capability;
use std::collections::BTreeSet;
use std::rc::Rc;
use vdm_plan::props::DeriveOptions;
use vdm_plan::{DeclaredCardinality, Origin, PlanRef, PropertyCache};

/// Everything a rewrite rule needs, borrowed for one `optimize()` call.
pub struct RewriteCtx<'a> {
    /// The capability profile in force.
    pub profile: &'a Profile,
    /// Memoized plan properties (see [`PropertyCache`]).
    pub props: &'a PropertyCache,
    opts: DeriveOptions,
}

impl<'a> RewriteCtx<'a> {
    /// A context for `profile`, probing properties through `props`.
    pub fn new(profile: &'a Profile, props: &'a PropertyCache) -> RewriteCtx<'a> {
        RewriteCtx { profile, props, opts: profile.derive_options() }
    }

    /// The profile's derivation options (computed once, not per probe).
    pub fn opts(&self) -> &DeriveOptions {
        &self.opts
    }

    /// Whether the profile has `cap` — sugar for `self.profile.has(cap)`.
    pub fn has(&self, cap: Capability) -> bool {
        self.profile.has(cap)
    }

    /// Memoized unique key sets of `plan` under the profile's options.
    pub fn unique_sets(&self, plan: &PlanRef) -> Rc<Vec<BTreeSet<usize>>> {
        self.props.unique_sets(plan, &self.opts)
    }

    /// Memoized "right side matches at most once" test (§4.2's cardinality
    /// precondition for every augmentation-join rewrite).
    pub fn right_at_most_one(
        &self,
        right: &PlanRef,
        on: &[(usize, usize)],
        declared: Option<DeclaredCardinality>,
    ) -> bool {
        self.props.right_at_most_one(right, on, declared, &self.opts)
    }

    /// Memoized static-emptiness test (AJ 2b evidence).
    pub fn statically_empty(&self, plan: &PlanRef) -> bool {
        self.props.statically_empty(plan)
    }

    /// Memoized base-table origin of output ordinal `ord`.
    pub fn origin(&self, plan: &PlanRef, ord: usize) -> Option<Origin> {
        self.props.origin(plan, ord)
    }
}
