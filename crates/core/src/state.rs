//! The mutable half of a database: everything bind/optimize reads.
//!
//! [`DbState`] groups the catalog, the view registry, and the optimizer
//! behind a single value so a serving layer ([`vdm-serve`]) can put exactly
//! the bind-time state behind one `RwLock` while the storage engine and plan
//! cache (both internally synchronized) stay lock-free at that level.
//!
//! Tables and views share one namespace, and this is where it is kept:
//! [`DbState::create_table`] and [`DbState::define_view`] are the paths
//! that create either, and each refuses a name the other kind holds.
//!
//! The struct carries a monotonically increasing **metadata version**.
//! Every DDL-shaped mutation (CREATE/DROP TABLE, CREATE/DROP VIEW, plan
//! view registration) bumps it; cached plans are stamped with the version
//! they were optimized under, and the plan cache treats a stamp mismatch
//! as a miss. Profile switches do *not* bump the version — the profile
//! fingerprint is part of the cache key, so entries for the previous
//! profile stay valid and become reachable again if the profile is
//! switched back.
//!
//! [`vdm-serve`]: ../../vdm_serve/index.html

use std::sync::Arc;
use vdm_catalog::{Catalog, TableDef};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{PlanRef, ViewRegistry};
use vdm_sql::{Binder, MacroRegistry};
use vdm_types::{Result, VdmError};

/// Catalog + view registry + optimizer + metadata version: the state a
/// query's bind/optimize phase reads and DDL writes.
pub struct DbState {
    pub catalog: Catalog,
    pub views: ViewRegistry,
    pub macros: MacroRegistry,
    pub optimizer: Optimizer,
    version: u64,
}

impl DbState {
    /// Fresh state with the given optimizer profile.
    pub fn new(profile: Profile) -> DbState {
        DbState {
            catalog: Catalog::new(),
            views: ViewRegistry::new(),
            macros: MacroRegistry::new(),
            optimizer: Optimizer::new(profile),
            version: 0,
        }
    }

    /// The current metadata version (bumped by every DDL mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records a metadata change, invalidating all version-stamped cached
    /// plans. Call after any mutation that can change how a statement
    /// binds (table/view creation or removal, macro registration).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Creates a table in the catalog; errors when a table or a view
    /// already holds the name. The caller creates its storage.
    pub fn create_table(&mut self, def: TableDef) -> Result<Arc<TableDef>> {
        if self.views.get(&def.name).is_some() {
            return Err(VdmError::Catalog(format!("relation {:?} is already a view", def.name)));
        }
        let table = self.catalog.create_table(def)?;
        self.bump_version();
        Ok(table)
    }

    /// Defines view `name` as `plan`; errors when a table holds the name,
    /// or when a view does and `replace` is false.
    pub fn define_view(&mut self, name: &str, plan: PlanRef, replace: bool) -> Result<()> {
        if self.catalog.table(name).is_some() {
            return Err(VdmError::Catalog(format!("relation {name:?} is already a table")));
        }
        if replace {
            self.views.register(name, plan);
        } else {
            self.views.register_new(name, plan)?;
        }
        self.bump_version();
        Ok(())
    }

    /// Swaps the optimizer profile. No version bump: the profile
    /// fingerprint is part of every plan-cache key, so plans optimized
    /// under other profiles simply stop matching.
    pub fn set_profile(&mut self, profile: Profile) {
        self.optimizer = Optimizer::new(profile);
    }

    /// A binder over this state's catalog, views, and macros.
    pub fn binder(&self) -> Binder<'_> {
        Binder::new(&self.catalog, &self.views, &self.macros)
    }

    /// Rendering of the active profile used in plan-cache keys.
    /// (`Profile` holds only flags, so its `Debug` form is a faithful
    /// fingerprint.)
    pub fn profile_fingerprint(&self) -> String {
        format!("{:?}", self.optimizer.profile())
    }
}
