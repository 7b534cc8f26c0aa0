//! The query optimizer — the paper's primary subject.
//!
//! A rule-based rewriter whose individual capabilities can be switched per
//! [`Profile`]. The five built-in profiles (`hana`, `postgres`, `system_x`,
//! `system_y`, `system_z`) encode the capability sets the paper observed in
//! the five evaluated DBMSs, so running the same rule machinery at the five
//! levels regenerates Tables 1–4 *mechanically*: the harness inspects
//! optimized plans, nothing is hard-coded.
//!
//! Rule inventory (paper section in parentheses):
//!
//! * [`prune`] — projection pruning + **unused augmentation join (UAJ)
//!   elimination** (§4.2–4.3), including the AJ 2b empty-augmenter case and
//!   the FK-witnessed AJ 1a inner-join case;
//! * [`asj`] — **augmentation self-join elimination** with field re-wiring
//!   (§5), anchor-side UNION ALL traversal (Fig. 13a), and the **case
//!   join** for augmenter-side UNION ALL (§6.3 / Fig. 13b);
//! * [`limit_pushdown`] — LIMIT across augmentation joins (§4.4);
//! * [`precision`] — `allow_precision_loss` aggregation/rounding
//!   interchange (§7.1) and eager aggregation below AJ joins;
//! * [`filters`] — conjunct-wise filter pushdown and plan cleanup
//!   (baseline rules every evaluated system has).

pub mod asj;
pub mod ctx;
pub mod filters;
pub mod join_order;
pub mod limit_pushdown;
pub mod precision;
pub mod profile;
pub mod prune;

pub use ctx::RewriteCtx;
pub use profile::{Capability, Profile};

use vdm_plan::{
    plan_digest, plan_stats, CacheStats, CardOverrides, Cardinality, PlanRef, PropertyCache,
    StatsProvider,
};
use vdm_types::Result;

/// The optimizer: a capability profile plus a fixpoint driver.
///
/// One body, [`Optimizer::optimize_traced_with`]; [`Optimizer::optimize`]
/// is its rule-only shorthand. Every property probe goes through one
/// [`PropertyCache`] per call. The pre-PR-3 cost model (re-derive every
/// probe, re-normalize UNION ALL children every pruning pass) used to be
/// selectable here; its output is kept as data in
/// `tests/golden/optimize_digests.txt` and its timings are pinned in
/// EXPERIMENTS.md at commit `bfa28ad`.
#[derive(Debug, Clone)]
pub struct Optimizer {
    profile: Profile,
}

impl Optimizer {
    /// Optimizer with the given capability profile.
    pub fn new(profile: Profile) -> Optimizer {
        Optimizer { profile }
    }

    /// Optimizer with every capability (the HANA profile).
    pub fn hana() -> Optimizer {
        Optimizer::new(Profile::hana())
    }

    /// The active profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Optimizes a plan to fixpoint with the rules alone: no statistics,
    /// so no cost-based join ordering — shorthand for
    /// `optimize_traced_with(plan, None, None)` minus the trace.
    pub fn optimize(&self, plan: &PlanRef) -> Result<PlanRef> {
        Ok(self.optimize_traced_with(plan, None, None)?.0)
    }

    /// Optimizes a plan and reports, pass by pass, which rewrites changed
    /// it — the "why did my plan shrink" view a VDM developer asks for.
    /// Beyond the pass-level [`Trace::steps`], every rule firing is
    /// collected as a structured [`vdm_obs::RewriteEvent`] in
    /// [`Trace::events`] (rule name, plan-node id, cardinality evidence).
    ///
    /// Base-table statistics enable the cost-based join-ordering pass
    /// (when the profile has [`Capability::CostBasedJoinOrdering`]), and
    /// observed per-subtree cardinalities override model estimates — the
    /// feedback path re-optimization uses. With `stats: None` the
    /// optimizer is the rule-based rewriter alone.
    pub fn optimize_traced_with(
        &self,
        plan: &PlanRef,
        stats: Option<&dyn StatsProvider>,
        overrides: Option<&CardOverrides>,
    ) -> Result<(PlanRef, Trace)> {
        let started = std::time::Instant::now();
        vdm_obs::rewrite::begin_collect();
        let result = self.optimize_traced_inner(plan, stats, overrides);
        let events = vdm_obs::rewrite::finish_collect();
        let (out, mut trace) = result?;
        trace.events = events;
        trace.counted = None;
        trace.optimize_nanos = started.elapsed().as_nanos() as u64;
        let reg = vdm_obs::registry::MetricsRegistry::global();
        reg.inc(vdm_obs::names::OPT_PROPERTY_CACHE_HITS_TOTAL, trace.cache.hits);
        reg.inc(vdm_obs::names::OPT_PROPERTY_CACHE_MISSES_TOTAL, trace.cache.misses);
        Ok((out, trace))
    }

    fn optimize_traced_inner(
        &self,
        plan: &PlanRef,
        stats: Option<&dyn StatsProvider>,
        overrides: Option<&CardOverrides>,
    ) -> Result<(PlanRef, Trace)> {
        let p = &self.profile;
        let props = PropertyCache::new();
        let ctx = RewriteCtx::new(p, &props);
        let mut trace = Trace::default();
        let mut plan = plan.clone();
        if p.has(Capability::ConstantFolding) {
            plan = trace.step("constant folding", &plan, filters::fold_constants)?;
        }
        if p.has(Capability::FilterPushdown) {
            plan = trace.step("filter pushdown", &plan, filters::pushdown_filters)?;
        }
        // Fixpoint loop: rules enable each other (an ASJ rewrite exposes a
        // UAJ; a UAJ removal exposes a limit pushdown; ...). Convergence is
        // detected by `Arc` identity with a structural-digest fallback; the
        // digest — unlike node counts — also catches count-neutral rewrites
        // (e.g. an ASJ rewiring that swaps one join input for another of
        // the same size).
        //
        // `noop` remembers, per pass, the plan it last returned unchanged:
        // a pass whose input is pointer-identical to that plan is a
        // *memoized* no-op (its result on exactly this input is already
        // known) and is skipped — no idempotence assumption involved.
        let mut noop: [Option<PlanRef>; 6] = Default::default();
        // Digest of the plan as of the previous round's end, carried
        // forward so each productive round hashes the plan once.
        let mut prev_digest: Option<u64> = None;
        let skip = |memo: &Option<PlanRef>, plan: &PlanRef| {
            memo.as_ref().is_some_and(|o| std::sync::Arc::ptr_eq(o, plan))
        };
        macro_rules! pass {
            ($idx:expr, $name:expr, $f:expr) => {
                if !skip(&noop[$idx], &plan) {
                    let out = trace.step($name, &plan, $f)?;
                    noop[$idx] = std::sync::Arc::ptr_eq(&out, &plan).then(|| out.clone());
                    plan = out;
                }
            };
        }
        for round in 0..8 {
            trace.round = round;
            let prev = plan.clone();
            if p.any_asj() {
                pass!(0, "ASJ elimination", |pl| asj::asj_pass(pl, &ctx));
            }
            if p.has(Capability::ProjectionPruning) || p.has(Capability::UajElimination) {
                pass!(1, "pruning + UAJ elimination", |pl| prune::prune_pass(pl, &ctx));
            }
            if p.has(Capability::LimitPushdownAj) {
                pass!(2, "limit pushdown", |pl| limit_pushdown::limit_pass(pl, &ctx));
            }
            if p.has(Capability::AllowPrecisionLoss) {
                pass!(3, "precision-loss interchange", precision::precision_pass);
            }
            if p.has(Capability::EagerAggregation) {
                pass!(4, "eager aggregation", |pl| precision::eager_agg_pass(pl, &ctx));
            }
            if p.has(Capability::RemoveRedundantDistinct) {
                pass!(5, "distinct removal", |pl| filters::remove_redundant_distinct(pl, &ctx));
            }
            if std::sync::Arc::ptr_eq(&plan, &prev) {
                break;
            }
            let digest = plan_digest(&plan);
            if prev_digest == Some(digest) {
                break;
            }
            prev_digest = Some(digest);
        }
        // The physical passes run once, after the rule fixpoint, gated on
        // statistics being supplied so plain `optimize()` callers (and
        // stats-less tests) see the rule-based planner's logical verdict
        // unchanged. First the lowering: every scan narrows to the columns
        // an ancestor references — before join ordering, so the subtree
        // digests it keys observed cardinalities by are those of the plan
        // that executes. Then cost-based join ordering: UAJ/ASJ-eliminated
        // joins are already gone and never enumerated.
        if let Some(stats) = stats {
            plan = trace.timed("scan lowering", &plan, prune::lower_scans)?;
            if p.has(Capability::CostBasedJoinOrdering) {
                let mut card = Cardinality::new(&props, p.derive_options()).with_stats(stats);
                if let Some(ov) = overrides {
                    card = card.with_overrides(ov);
                }
                plan = trace
                    .step("join ordering", &plan, |pl| join_order::join_order_pass(pl, &card))?;
            }
        }
        let out = trace.timed("cleanup", &plan, filters::cleanup)?;
        trace.cache = props.stats();
        Ok((out, trace))
    }
}

/// A pass-level record of what the optimizer did.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    round: usize,
    /// The plan the last counted pass returned, with its stats: the next
    /// pass that changes it starts from these instead of re-counting.
    counted: Option<(PlanRef, vdm_plan::PlanStats)>,
    /// `(round, pass name, stats before, stats after)` for every pass that
    /// changed the plan's operator counts.
    pub steps: Vec<(usize, &'static str, vdm_plan::PlanStats, vdm_plan::PlanStats)>,
    /// `(round, pass name, nanoseconds, changed)` for every pass that ran,
    /// in order — `changed` = it returned a plan other than its input.
    pub passes: Vec<(usize, &'static str, u64, bool)>,
    /// Every individual rule firing, in order (filled by
    /// [`Optimizer::optimize_traced_with`]).
    pub events: Vec<vdm_obs::RewriteEvent>,
    /// Wall-clock time spent in the optimizer, in nanoseconds.
    pub optimize_nanos: u64,
    /// Property-cache hit/miss counters for this `optimize()` call.
    pub cache: CacheStats,
}

impl Trace {
    /// Runs one pass under a stopwatch.
    fn timed(
        &mut self,
        name: &'static str,
        plan: &PlanRef,
        f: impl FnOnce(&PlanRef) -> Result<PlanRef>,
    ) -> Result<PlanRef> {
        let started = std::time::Instant::now();
        let out = f(plan)?;
        let changed = !std::sync::Arc::ptr_eq(&out, plan);
        self.passes.push((self.round, name, started.elapsed().as_nanos() as u64, changed));
        Ok(out)
    }

    /// Runs one rule pass: announced to the rewrite collector, timed, and —
    /// only when it returned a plan other than its input — counted.
    fn step(
        &mut self,
        name: &'static str,
        plan: &PlanRef,
        f: impl FnOnce(&PlanRef) -> Result<PlanRef>,
    ) -> Result<PlanRef> {
        vdm_obs::rewrite::begin_pass(self.round, name, plan);
        let out = self.timed(name, plan, f)?;
        if !std::sync::Arc::ptr_eq(&out, plan) {
            let before = match self.counted.take() {
                Some((counted, stats)) if std::sync::Arc::ptr_eq(&counted, plan) => stats,
                _ => plan_stats(plan),
            };
            let after = plan_stats(&out);
            if before != after {
                self.steps.push((self.round, name, before, after.clone()));
            }
            self.counted = Some((out.clone(), after));
        }
        Ok(out)
    }

    /// Firings per rule name — the counts the metrics registry exposes as
    /// `vdm_rewrite_fired_total{rule="..."}`.
    pub fn hit_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.rule).or_insert(0) += 1;
        }
        counts
    }

    /// One line per rule firing (rule, node id, evidence, size digest).
    pub fn render_events(&self) -> String {
        if self.events.is_empty() {
            return "no rewrites fired".to_string();
        }
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// The `[optimize ...]` stats line shown in the EXPLAIN ANALYZE
    /// header: optimize time plus property-cache effectiveness.
    pub fn render_opt_stats(&self) -> String {
        format!(
            "[optimize time={:.3}ms | property cache: {} hits, {} misses, {:.0}% hit rate]",
            self.optimize_nanos as f64 / 1e6,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        )
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        if self.steps.is_empty() {
            return "no rewrites applied".to_string();
        }
        let mut out = String::new();
        for (round, name, before, after) in &self.steps {
            out.push_str(&format!(
                "round {round}: {name}: joins {} -> {}, tables {} -> {}, operators {} -> {}\n",
                before.joins,
                after.joins,
                before.table_instances,
                after.table_instances,
                before.nodes,
                after.nodes,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests;
