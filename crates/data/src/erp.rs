//! Synthetic S/4HANA-like ERP schema and the `journal_entry_item_browser`
//! consumption view (the paper's motivating example, §3).
//!
//! The real `JournalEntryItemBrowser` is proprietary; the paper publishes
//! its complexity profile, which fully determines the plan shape we must
//! reproduce: **47 table instances** (62 when shared subtrees are counted
//! per reference), **49 joins**, one **five-way UNION ALL**, one **GROUP
//! BY**, one **DISTINCT**, an ACDOCA-centric three-way interface join,
//! **30 many-to-one left-outer augmentation joins**, and record-wise DAC
//! over the supplier (`lfa1`) and customer (`kna1`) joins.
//!
//! The view is `CREATE VIEW` text, `journal_entry_item_browser.sql`, bound
//! by the SQL binder as application DDL would be (structure verified
//! exactly by tests):
//!
//! * interface view: `acdoca ⋈ t001 ⋈ t881` (inner, declared
//!   many-to-exact-one — company and ledger always exist);
//! * a **shared country view** `G = t005 ⟕ t005t ⟕ t005u` (3 scans,
//!   2 joins) referenced by 5 dimension views — the DAG sharing that makes
//!   47 instances become 62 references;
//! * 30 augmenters: supplier (`lfa1 ⟕ G`, DAC), customer (`kna1 ⟕ G`,
//!   DAC), a 5-way business-partner UNION ALL (Fig. 11c), a per-document
//!   GROUP BY aggregate, a DISTINCT existence dim, 3 country dims
//!   (`⟕ G`), 4 text-joined dims, 3 three-level nested dims, 12 simple
//!   dims, and 3 dims re-using another dim's view (more sharing).

use std::collections::HashMap;
use std::sync::Arc;
use vdm_catalog::{Catalog, TableBuilder, TableDef};
use vdm_model::{AccessPolicy, DacRule};
use vdm_plan::{PlanRef, ViewRegistry};
use vdm_sql::{Binder, MacroRegistry, Statement};
use vdm_storage::StorageEngine;
use vdm_types::{Decimal, Result, SqlType, Value, VdmError};

/// ERP generator configuration.
#[derive(Debug, Clone)]
pub struct Erp {
    /// Universal-journal line items to generate.
    pub journal_rows: usize,
    pub seed: u64,
}

impl Default for Erp {
    fn default() -> Self {
        Erp { journal_rows: 20_000, seed: 4711 }
    }
}

/// Handle to the created schema: a catalog of the ERP tables alone.
#[derive(Debug, Clone)]
pub struct ErpSchema {
    catalog: Catalog,
}

impl ErpSchema {
    /// Looks up a table definition.
    pub fn table(&self, name: &str) -> Arc<TableDef> {
        self.catalog.table(name).unwrap_or_else(|| panic!("missing ERP table {name}"))
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }
}

/// Cardinalities of the dimension tables.
const N_COMPANY: i64 = 20;
const N_LEDGER: i64 = 4;
const N_COUNTRY: i64 = 40;
const N_SUPPLIER: i64 = 400;
const N_CUSTOMER: i64 = 600;
const N_PARTNER_PER_ROLE: i64 = 120;
const N_GENERIC_DIM: i64 = 60;
const N_DOCS: i64 = 2_500;

/// Simple single-table dimensions: (table, acdoca key column).
const SIMPLE_DIMS: &[(&str, &str)] = &[
    ("tcurc", "rtcur"),
    ("t003", "blart"),
    ("usr02", "usnam"),
    ("fagl_segm", "segment"),
    ("tgsb", "gsber"),
    ("t007a", "mwskz"),
    ("t042z", "zlsch"),
    ("t052", "zterm"),
    ("t880", "vbund"),
    ("t047", "mahns"),
    ("tbsl", "bschl"),
    ("t856", "rmvct"),
];
/// Dims re-using another simple dim's scan (extra shared references):
/// (shared table, acdoca key column).
const DUP_DIMS: &[(&str, &str)] =
    &[("usr02", "usnam2"), ("tcurc", "hwaer"), ("fagl_segm", "psegment")];
/// Text-joined dims: (base, texts, acdoca key column).
const TEXT_DIMS: &[(&str, &str, &str)] = &[
    ("ska1", "skat", "racct"),
    ("csks", "cskt", "kostl"),
    ("cepc", "cepct", "prctr"),
    ("mara", "makt", "matnr"),
];
/// Three-level nested dims: (base, texts, groups, acdoca key column).
const NESTED_DIMS: &[(&str, &str, &str, &str)] = &[
    ("aufk", "aufkt", "auart_grp", "aufnr"),
    ("prps", "prpst", "prps_grp", "pspnr"),
    ("anla", "anlat", "anla_grp", "anln1"),
];
/// Country dims (base ⟕ shared country view): (base, acdoca key column).
const COUNTRY_DIMS: &[(&str, &str)] = &[("t001w", "werks"), ("t012", "bankl"), ("twlad", "site")];
/// The five business-partner role tables (Fig. 11c union).
const PARTNER_ROLES: &[&str] = &["bp_soldto", "bp_shipto", "bp_billto", "bp_payer", "bp_contact"];

impl Erp {
    /// Creates every table in catalog + storage.
    pub fn create_schema(
        &self,
        catalog: &mut Catalog,
        engine: &StorageEngine,
    ) -> Result<ErpSchema> {
        let mut tables = Catalog::new();
        let mut mk = |catalog: &mut Catalog, def: TableDef| -> Result<()> {
            engine.create_table(catalog.create_table(def.clone())?)?;
            tables.create_table(def)?;
            Ok(())
        };

        // The universal journal.
        let mut acdoca = TableBuilder::new("acdoca")
            .column("rldnr", SqlType::Int, false)
            .column("rbukrs", SqlType::Int, false)
            .column("gjahr", SqlType::Int, false)
            .column("belnr", SqlType::Int, false)
            .column("docln", SqlType::Int, false)
            // Measures.
            .column("hsl", SqlType::Decimal { scale: 2 }, false)
            .column("ksl", SqlType::Decimal { scale: 2 }, false)
            .column("msl", SqlType::Decimal { scale: 3 }, false)
            .column("drcrk", SqlType::Text, false)
            .column("budat", SqlType::Date, false)
            // Partner keys (nullable: not every line has one).
            .column("lifnr", SqlType::Int, true)
            .column("kunnr", SqlType::Int, true)
            .column("bp_type", SqlType::Int, false)
            .column("bp_id", SqlType::Int, false);
        // Dimension keys.
        for (_, key) in SIMPLE_DIMS {
            acdoca = acdoca.column(*key, SqlType::Int, false);
        }
        for (_, key) in DUP_DIMS {
            acdoca = acdoca.column(*key, SqlType::Int, false);
        }
        for (_, _, key) in TEXT_DIMS {
            acdoca = acdoca.column(*key, SqlType::Int, false);
        }
        for (_, _, _, key) in NESTED_DIMS {
            acdoca = acdoca.column(*key, SqlType::Int, false);
        }
        for (_, key) in COUNTRY_DIMS {
            acdoca = acdoca.column(*key, SqlType::Int, false);
        }
        let acdoca = acdoca.primary_key(&["rldnr", "rbukrs", "gjahr", "belnr", "docln"]).build()?;
        mk(catalog, acdoca)?;

        // Core master data.
        mk(
            catalog,
            TableBuilder::new("t001")
                .column("rbukrs", SqlType::Int, false)
                .column("butxt", SqlType::Text, false)
                .column("land1", SqlType::Int, false)
                .column("waers", SqlType::Int, false)
                .primary_key(&["rbukrs"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("t881")
                .column("rldnr", SqlType::Int, false)
                .column("lname", SqlType::Text, false)
                .primary_key(&["rldnr"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("lfa1")
                .column("lifnr", SqlType::Int, false)
                .column("name1", SqlType::Text, false)
                .column("land1", SqlType::Int, false)
                .column("ktokk", SqlType::Int, false)
                .primary_key(&["lifnr"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("kna1")
                .column("kunnr", SqlType::Int, false)
                .column("name1", SqlType::Text, false)
                .column("land1", SqlType::Int, false)
                .column("ktokd", SqlType::Int, false)
                .primary_key(&["kunnr"])
                .build()?,
        )?;

        // Country stack (the shared view's tables).
        mk(
            catalog,
            TableBuilder::new("t005")
                .column("land1", SqlType::Int, false)
                .column("landx", SqlType::Text, false)
                .column("regio", SqlType::Int, false)
                .primary_key(&["land1"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("t005t")
                .column("land1", SqlType::Int, false)
                .column("natio", SqlType::Text, false)
                .primary_key(&["land1"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("t005u")
                .column("land1", SqlType::Int, false)
                .column("bezei", SqlType::Text, false)
                .primary_key(&["land1"])
                .build()?,
        )?;

        // Partner role tables (5-way union members).
        for role in PARTNER_ROLES {
            mk(
                catalog,
                TableBuilder::new(*role)
                    .column("bp_id", SqlType::Int, false)
                    .column("bp_name", SqlType::Text, false)
                    .primary_key(&["bp_id"])
                    .build()?,
            )?;
        }

        // Per-document open items (GROUP BY dim) and attachments (DISTINCT).
        mk(
            catalog,
            TableBuilder::new("bseg_open")
                .column("belnr", SqlType::Int, false)
                .column("itemno", SqlType::Int, false)
                .column("open_amount", SqlType::Decimal { scale: 2 }, false)
                .primary_key(&["belnr", "itemno"])
                .build()?,
        )?;
        mk(
            catalog,
            TableBuilder::new("attachments")
                .column("belnr", SqlType::Int, false)
                .column("attid", SqlType::Int, false)
                .column("mime", SqlType::Text, false)
                .primary_key(&["belnr", "attid"])
                .build()?,
        )?;

        // Generic dimension tables (key, text [, land1 | grp]).
        let plain = |name: &str| -> Result<TableDef> {
            TableBuilder::new(name)
                .column("dimkey", SqlType::Int, false)
                .column("txt", SqlType::Text, false)
                .primary_key(&["dimkey"])
                .build()
        };
        for (name, _) in SIMPLE_DIMS {
            mk(catalog, plain(name)?)?;
        }
        for (base, texts, _) in TEXT_DIMS {
            mk(catalog, plain(base)?)?;
            mk(catalog, plain(texts)?)?;
        }
        for (base, texts, groups, _) in NESTED_DIMS {
            mk(
                catalog,
                TableBuilder::new(*base)
                    .column("dimkey", SqlType::Int, false)
                    .column("txt", SqlType::Text, false)
                    .column("grp", SqlType::Int, false)
                    .primary_key(&["dimkey"])
                    .build()?,
            )?;
            mk(catalog, plain(texts)?)?;
            mk(catalog, plain(groups)?)?;
        }
        for (base, _) in COUNTRY_DIMS {
            mk(
                catalog,
                TableBuilder::new(*base)
                    .column("dimkey", SqlType::Int, false)
                    .column("txt", SqlType::Text, false)
                    .column("land1", SqlType::Int, false)
                    .primary_key(&["dimkey"])
                    .build()?,
            )?;
        }
        Ok(ErpSchema { catalog: tables })
    }

    /// Loads deterministic data into every table. Returns total rows.
    pub fn load(&self, engine: &StorageEngine) -> Result<usize> {
        let mut rng = crate::rng(self.seed);
        let mut total = 0usize;
        let dec2 = |u: i64| Value::Dec(Decimal::from_units(u as i128, 2));

        let plain_rows = |n: i64, label: &str| -> Vec<Vec<Value>> {
            (1..=n).map(|i| vec![Value::Int(i), Value::str(format!("{label}-{i:04}"))]).collect()
        };
        total += engine.insert(
            "t001",
            (1..=N_COMPANY)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("Company {i:02}")),
                        Value::Int((i % N_COUNTRY) + 1),
                        Value::Int((i % 10) + 1),
                    ]
                })
                .collect(),
        )?;
        total += engine.insert(
            "t881",
            (1..=N_LEDGER)
                .map(|i| vec![Value::Int(i), Value::str(format!("Ledger {i}"))])
                .collect(),
        )?;
        total += engine.insert(
            "t005",
            (1..=N_COUNTRY)
                .map(|i| {
                    vec![Value::Int(i), Value::str(format!("Country{i:02}")), Value::Int(i % 7)]
                })
                .collect(),
        )?;
        total += engine.insert("t005t", plain_rows(N_COUNTRY, "Nationality"))?;
        total += engine.insert("t005u", plain_rows(N_COUNTRY, "Region"))?;
        total += engine.insert(
            "lfa1",
            (1..=N_SUPPLIER)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("Supplier {i:05}")),
                        Value::Int((i % N_COUNTRY) + 1),
                        Value::Int(i % 4),
                    ]
                })
                .collect(),
        )?;
        total += engine.insert(
            "kna1",
            (1..=N_CUSTOMER)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("Customer {i:05}")),
                        Value::Int((i % N_COUNTRY) + 1),
                        Value::Int(i % 3),
                    ]
                })
                .collect(),
        )?;
        for role in PARTNER_ROLES {
            total += engine.insert(
                role,
                (1..=N_PARTNER_PER_ROLE)
                    .map(|i| vec![Value::Int(i), Value::str(format!("{role}-{i:04}"))])
                    .collect(),
            )?;
        }
        for (name, _) in SIMPLE_DIMS {
            total += engine.insert(name, plain_rows(N_GENERIC_DIM, name))?;
        }
        for (base, texts, _) in TEXT_DIMS {
            total += engine.insert(base, plain_rows(N_GENERIC_DIM, base))?;
            total += engine.insert(texts, plain_rows(N_GENERIC_DIM, texts))?;
        }
        for (base, texts, groups, _) in NESTED_DIMS {
            total += engine.insert(
                base,
                (1..=N_GENERIC_DIM)
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::str(format!("{base}-{i:04}")),
                            Value::Int((i % 10) + 1),
                        ]
                    })
                    .collect(),
            )?;
            total += engine.insert(texts, plain_rows(N_GENERIC_DIM, texts))?;
            total += engine.insert(groups, plain_rows(10, groups))?;
        }
        for (base, _) in COUNTRY_DIMS {
            total += engine.insert(
                base,
                (1..=N_GENERIC_DIM)
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::str(format!("{base}-{i:04}")),
                            Value::Int((i % N_COUNTRY) + 1),
                        ]
                    })
                    .collect(),
            )?;
        }
        // Open items: 0-3 per document.
        let mut open = Vec::new();
        for d in 1..=N_DOCS {
            for item in 1..=(d % 4) {
                open.push(vec![Value::Int(d), Value::Int(item), dec2((d * 7 + item) % 100_000)]);
            }
        }
        total += engine.insert("bseg_open", open)?;
        // Attachments: some documents have several.
        let mut atts = Vec::new();
        for d in 1..=N_DOCS {
            for a in 1..=(d % 3) {
                atts.push(vec![Value::Int(d), Value::Int(a), Value::str("application/pdf")]);
            }
        }
        total += engine.insert("attachments", atts)?;

        // The journal itself.
        let mut journal = Vec::with_capacity(self.journal_rows);
        let mut line_of_doc: HashMap<(i64, i64, i64, i64), i64> = HashMap::new();
        for _ in 0..self.journal_rows {
            let rldnr = rng.random_range(1..=N_LEDGER);
            let rbukrs = rng.random_range(1..=N_COMPANY);
            let gjahr = rng.random_range(2023..=2026);
            let belnr = rng.random_range(1..=N_DOCS);
            let docln = {
                let c = line_of_doc.entry((rldnr, rbukrs, gjahr, belnr)).or_insert(0);
                *c += 1;
                *c
            };
            let mut row = vec![
                Value::Int(rldnr),
                Value::Int(rbukrs),
                Value::Int(gjahr),
                Value::Int(belnr),
                Value::Int(docln),
                dec2(rng.random_range(-500_000..5_000_000)),
                dec2(rng.random_range(-500_000..5_000_000)),
                Value::Dec(Decimal::from_units(rng.random_range(0..100_000), 3)),
                Value::str(if rng.random_range(0..2) == 0 { "S" } else { "H" }),
                Value::Date(rng.random_range(19_700..20_500)),
                if rng.random_range(0..3) == 0 {
                    Value::Null
                } else {
                    Value::Int(rng.random_range(1..=N_SUPPLIER))
                },
                if rng.random_range(0..3) == 0 {
                    Value::Null
                } else {
                    Value::Int(rng.random_range(1..=N_CUSTOMER))
                },
                Value::Int(rng.random_range(0..PARTNER_ROLES.len() as i64)),
                Value::Int(rng.random_range(1..=N_PARTNER_PER_ROLE)),
            ];
            let n_generic = SIMPLE_DIMS.len()
                + DUP_DIMS.len()
                + TEXT_DIMS.len()
                + NESTED_DIMS.len()
                + COUNTRY_DIMS.len();
            for _ in 0..n_generic {
                row.push(Value::Int(rng.random_range(1..=N_GENERIC_DIM)));
            }
            journal.push(row);
        }
        total += engine.insert("acdoca", journal)?;
        Ok(total)
    }

    /// Schema + data in one call.
    pub fn build(&self, catalog: &mut Catalog, engine: &StorageEngine) -> Result<ErpSchema> {
        let schema = self.create_schema(catalog, engine)?;
        self.load(engine)?;
        Ok(schema)
    }
}

/// The assembled browser: view, DAC policy, and the protected plan.
pub struct Browser {
    /// The full consumption view (before DAC).
    pub view: PlanRef,
    /// DAC policy with rules for the demo user `"kim"`.
    pub policy: AccessPolicy,
    /// The DAC-protected plan for `"kim"` — the paper's Fig. 3 plan.
    pub protected: PlanRef,
}

/// The browser's DDL: the views it shares between augmenters, then the
/// browser itself.
pub const BROWSER_SQL: &str = include_str!("journal_entry_item_browser.sql");

/// Binds the `journal_entry_item_browser` DDL over the ERP schema, each view
/// over the ones before it, and protects the browser with the demo DAC
/// policy.
pub fn journal_entry_item_browser(schema: &ErpSchema) -> Result<Browser> {
    let (mut views, macros) = (ViewRegistry::new(), MacroRegistry::new());
    for stmt in vdm_sql::parse(BROWSER_SQL)? {
        let Statement::CreateView { name, query, .. } = stmt else {
            return Err(VdmError::Plan("the browser DDL holds CREATE VIEW statements only".into()));
        };
        let plan = Binder::new(&schema.catalog, &views, &macros).bind_select(&query)?;
        views.register_new(&name, plan)?;
    }
    let view = views.get("journal_entry_item_browser").expect("the DDL defines the browser");

    // ---- DAC (record-wise access control for the demo user).
    let mut policy = AccessPolicy::new();
    policy.add_rule(
        "kim",
        DacRule {
            view: "journal_entry_item_browser".into(),
            column: "SupplierGroup".into(),
            allowed: vec![Value::Int(0), Value::Int(1)],
            allow_null: true,
        },
    );
    policy.add_rule(
        "kim",
        DacRule {
            view: "journal_entry_item_browser".into(),
            column: "CustomerCountry".into(),
            allowed: (1..=20).map(Value::Int).collect(),
            allow_null: true,
        },
    );
    let protected = policy.protect("kim", "journal_entry_item_browser", view.clone())?;
    Ok(Browser { view, policy, protected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_plan::plan_stats;

    #[test]
    fn schema_builds_and_loads() {
        let erp = Erp { journal_rows: 500, seed: 1 };
        let mut catalog = Catalog::new();
        let engine = StorageEngine::new();
        let schema = erp.build(&mut catalog, &engine).unwrap();
        assert!(schema.table_names().len() > 30);
        assert_eq!(engine.row_count("acdoca", engine.snapshot()).unwrap(), 500);
    }

    #[test]
    fn browser_matches_fig3_complexity_profile() {
        let erp = Erp { journal_rows: 10, seed: 1 };
        let mut catalog = Catalog::new();
        let engine = StorageEngine::new();
        let schema = erp.build(&mut catalog, &engine).unwrap();
        let browser = journal_entry_item_browser(&schema).unwrap();
        let stats = plan_stats(&browser.protected);
        assert_eq!(stats.table_instances, 47, "Fig. 3: 47 table instances; got {stats:?}");
        assert_eq!(stats.joins, 49, "Fig. 3: 49 joins; got {stats:?}");
        assert_eq!(stats.table_references, 62, "Fig. 3: 62 instances when unshared; got {stats:?}");
        assert_eq!(stats.unions, 1);
        assert_eq!(stats.max_union_width, 5, "five-way UNION ALL");
        assert_eq!(stats.aggregates, 1, "one GROUP BY");
        assert_eq!(stats.distincts, 1, "one DISTINCT");
    }

    #[test]
    fn browser_executes_and_dac_filters() {
        let erp = Erp { journal_rows: 300, seed: 2 };
        let mut catalog = Catalog::new();
        let engine = StorageEngine::new();
        let schema = erp.build(&mut catalog, &engine).unwrap();
        let browser = journal_entry_item_browser(&schema).unwrap();
        let out = vdm_exec::execute(&browser.view, &engine).unwrap();
        assert_eq!(out.num_rows(), 300, "augmentation joins must not change cardinality");
        let protected = vdm_exec::execute(&browser.protected, &engine).unwrap();
        assert!(protected.num_rows() <= 300, "DAC can only filter");
        assert!(protected.num_rows() > 0, "the demo user sees something");
    }
}
