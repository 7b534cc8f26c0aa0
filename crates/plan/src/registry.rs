//! Registry of views, each a bound logical plan.
//!
//! The one view store: `CREATE VIEW` binds its query once and registers the
//! plan here, as do plans the VDM layer (`vdm-model`) builds itself. The SQL
//! binder resolves a name to a table first, else to the plan registered
//! here, so a view named twice in a query is one shared subplan.

use crate::node::PlanRef;
use std::collections::HashMap;
use vdm_types::{Result, VdmError};

/// Name → logical plan mapping, case-insensitive.
#[derive(Debug, Default, Clone)]
pub struct ViewRegistry {
    views: HashMap<String, PlanRef>,
}

impl ViewRegistry {
    /// Empty registry.
    pub fn new() -> ViewRegistry {
        ViewRegistry::default()
    }

    /// Registers (or replaces) a plan view.
    pub fn register(&mut self, name: &str, plan: PlanRef) {
        self.views.insert(name.to_ascii_lowercase(), plan);
    }

    /// Registers a view, erroring on duplicates.
    pub fn register_new(&mut self, name: &str, plan: PlanRef) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.views.contains_key(&key) {
            return Err(VdmError::Catalog(format!("view {name:?} already exists")));
        }
        self.views.insert(key, plan);
        Ok(())
    }

    /// Looks a view up by name.
    pub fn get(&self, name: &str) -> Option<PlanRef> {
        self.views.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Removes a view; `true` when it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        self.views.remove(&name.to_ascii_lowercase()).is_some()
    }

    /// All registered view names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.views.keys().cloned().collect();
        out.sort();
        out
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LogicalPlan;
    use std::sync::Arc;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn plan() -> PlanRef {
        LogicalPlan::scan(Arc::new(
            TableBuilder::new("t").column("k", SqlType::Int, false).build().unwrap(),
        ))
    }

    #[test]
    fn register_and_lookup() {
        let mut r = ViewRegistry::new();
        r.register("MyView", plan());
        assert!(r.get("myview").is_some());
        assert!(r.get("MYVIEW").is_some());
        assert!(r.get("other").is_none());
        assert_eq!(r.names(), vec!["myview".to_string()]);
    }

    #[test]
    fn register_new_rejects_duplicates() {
        let mut r = ViewRegistry::new();
        r.register_new("v", plan()).unwrap();
        assert!(r.register_new("V", plan()).is_err());
        // Plain register replaces.
        r.register("v", plan());
        assert_eq!(r.len(), 1);
        assert!(r.remove("V"));
        assert!(!r.remove("v"));
    }
}
