//! Logical query plans and their derived properties.
//!
//! A [`LogicalPlan`] is an immutable DAG (`Arc`-shared children — SAP HANA
//! shares subqueries the same way, which is why Fig. 3 of the paper counts
//! 47 table instances shared vs 62 unshared). Construction goes through
//! validating constructors that compute output schemas eagerly.
//!
//! The properties module implements the *unique key set* derivation at the
//! heart of augmentation-join detection (§4.2), parameterised by
//! [`props::DeriveOptions`] so optimizer capability profiles can disable
//! individual derivations and reproduce the behaviour differences of
//! Tables 1–4.

pub mod cache;
pub mod card;
pub mod delta;
pub mod digest;
pub mod explain;
pub mod fusion;
pub mod lineage;
pub mod node;
pub mod params;
pub mod props;
pub mod registry;
pub mod stats;
pub mod transform;

pub use cache::{CacheStats, PropertyCache};
pub use card::{
    explain_with_estimates, node_estimates, subtree_digests, CardOverrides, Cardinality,
    StatsProvider, TableStats,
};
pub use delta::{
    delta_capable, derive_delta_plan, folded_aggregate, scan_tables, DeltaClass, DeltaPlan,
};
pub use digest::{plan_digest, plan_digest_canonical};
pub use explain::{explain, explain_annotated, number_nodes};
pub use fusion::column_mapping;
pub use lineage::{column_lineage, trace_column, Origin};
pub use node::{DeclaredCardinality, JoinKind, LogicalPlan, NodeMap, PlanRef, ScanCols, SortKey};
pub use params::{bind_params, contains_params, max_param_index};
pub use props::{statically_empty, unique_sets, DeriveOptions};
pub use registry::ViewRegistry;
pub use stats::{plan_stats, PlanStats};
pub use transform::{map_children, transform_up};
