//! Catalog: tables and their constraints.
//!
//! The catalog is the metadata source the optimizer's uniqueness analysis
//! feeds on (§4.2 of the paper): primary keys and unique constraints seed
//! *unique key sets*, and foreign keys witness the lower bound of
//! many-to-exactly-one inner joins (AJ 1a). The paper notes that foreign
//! keys are *infrequent* in the SAP ecosystem — our ERP generator mirrors
//! that by mostly omitting them, which is why declared join cardinalities
//! (§7.3) exist as an alternative witness.
//!
//! Views are not kept here: every view is a bound plan in
//! `vdm_plan::ViewRegistry`, and the database state that owns both
//! (`vdm_core::DbState`) keeps tables and views in one namespace.

mod table;

pub use table::{ForeignKey, TableBuilder, TableDef};

use std::collections::HashMap;
use std::sync::Arc;
use vdm_types::{Result, VdmError};

/// The schema catalog: tables, case-insensitive by name.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<TableDef>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table; errors on duplicate names.
    pub fn create_table(&mut self, table: TableDef) -> Result<Arc<TableDef>> {
        let key = table.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(VdmError::Catalog(format!("relation {:?} already exists", table.name)));
        }
        let arc = Arc::new(table);
        self.tables.insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<Arc<TableDef>> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Looks up a table, erroring with the unknown name.
    pub fn table_or_err(&self, name: &str) -> Result<Arc<TableDef>> {
        self.table(name).ok_or_else(|| VdmError::Catalog(format!("unknown table {name:?}")))
    }

    /// Drops a table (no-op error if missing).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| VdmError::Catalog(format!("unknown table {name:?}")))
    }

    /// All table names, sorted (deterministic listings for tests/tools).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::SqlType;

    fn customer() -> TableDef {
        TableBuilder::new("customer")
            .column("c_custkey", SqlType::Int, false)
            .column("c_name", SqlType::Text, false)
            .primary_key(&["c_custkey"])
            .build()
            .unwrap()
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut cat = Catalog::new();
        cat.create_table(customer()).unwrap();
        assert!(cat.table("CUSTOMER").is_some());
        assert!(cat.table("Customer").is_some());
        assert!(cat.table_or_err("nope").is_err());
    }

    #[test]
    fn duplicate_table_names_rejected() {
        let mut cat = Catalog::new();
        cat.create_table(customer()).unwrap();
        assert!(cat.create_table(customer()).is_err());
        let mut upper = customer();
        upper.name = "CUSTOMER".into();
        assert!(cat.create_table(upper).is_err());
    }

    #[test]
    fn drop_table() {
        let mut cat = Catalog::new();
        cat.create_table(customer()).unwrap();
        cat.drop_table("customer").unwrap();
        assert!(cat.table("customer").is_none());
        assert!(cat.drop_table("customer").is_err());
    }

    #[test]
    fn listings_are_sorted() {
        let mut cat = Catalog::new();
        for name in ["zeta", "alpha"] {
            let mut t = customer();
            t.name = name.into();
            cat.create_table(t).unwrap();
        }
        assert_eq!(cat.table_names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
