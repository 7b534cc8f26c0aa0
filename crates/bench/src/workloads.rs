//! The data sets and statement shapes more than one sweep runs: the
//! fact ⋈ dim → GROUP BY microbench (`par_sweep`, `cache_sweep`), the ERP
//! load with the Fig. 3 browser view (`par_sweep`, `opt_sweep`,
//! `fig3_plan_complexity`), and the same view behind a [`Server`] with the
//! three prepared paging shapes (`serve_sweep`, `obs_sweep`).

use std::sync::Arc;
use vdm_catalog::{Catalog, TableBuilder};
use vdm_core::Database;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_expr::{AggExpr, AggFunc, Expr};
use vdm_optimizer::Profile;
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_serve::Server;
use vdm_storage::StorageEngine;
use vdm_types::{Decimal, SplitMix64, SqlType, Value};

/// Rows of `dim_product` in [`agg_over_join`].
pub const DIM_ROWS: usize = 1_000;

/// Loads `dim_product` (1 000 rows, 37 categories) and `fact_rows` of
/// `fact_sales` straight into the storage engine, merges both deltas, and
/// returns `fact ⋈ dim → GROUP BY category (COUNT(*), SUM(amount))` — the
/// classic analytical morsel-parallelism shape, with a root `Aggregate`
/// the view-maintenance planner classifies as foldable.
pub fn agg_over_join(engine: &StorageEngine, fact_rows: usize) -> PlanRef {
    let dim = Arc::new(
        TableBuilder::new("dim_product")
            .column("d_id", SqlType::Int, false)
            .column("d_category", SqlType::Int, false)
            .primary_key(&["d_id"])
            .build()
            .expect("dim table"),
    );
    let fact = Arc::new(
        TableBuilder::new("fact_sales")
            .column("f_id", SqlType::Int, false)
            .column("f_product", SqlType::Int, false)
            .column("f_amount", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["f_id"])
            .build()
            .expect("fact table"),
    );
    engine.create_table(Arc::clone(&dim)).expect("create dim");
    engine.create_table(Arc::clone(&fact)).expect("create fact");
    let dim_rows = (0..DIM_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i % 37)]).collect();
    engine.insert("dim_product", dim_rows).expect("load dim");
    insert_facts(engine, &mut SplitMix64::seed_from_u64(0xFACADE), 0, fact_rows);
    engine.merge_delta("fact_sales").expect("merge fact");
    engine.merge_delta("dim_product").expect("merge dim");

    let join =
        LogicalPlan::inner_join(LogicalPlan::scan(fact), LogicalPlan::scan(dim), vec![(1, 0)])
            .expect("join plan");
    LogicalPlan::aggregate(
        join,
        vec![(Expr::col(4), "category".into())],
        vec![
            (AggExpr::count_star(), "n".into()),
            (AggExpr::new(AggFunc::Sum, Expr::col(2)), "revenue".into()),
        ],
    )
    .expect("aggregate plan")
}

/// Appends `count` `fact_sales` rows with ids from `first_id`, in batches
/// of 50 000, into the table's delta.
pub fn insert_facts(engine: &StorageEngine, rng: &mut SplitMix64, first_id: usize, count: usize) {
    let mut batch = Vec::with_capacity(count.min(50_000));
    for id in first_id..first_id + count {
        batch.push(vec![
            Value::Int(id as i64),
            Value::Int(rng.random_range(0..DIM_ROWS as i64)),
            Value::Dec(Decimal::from_units(rng.random_range(0..1_000_000i64) as i128, 2)),
        ]);
        if batch.len() == 50_000 {
            engine.insert("fact_sales", std::mem::take(&mut batch)).expect("load fact");
        }
    }
    if !batch.is_empty() {
        engine.insert("fact_sales", batch).expect("load fact tail");
    }
}

fn load_erp(catalog: &mut Catalog, engine: &StorageEngine, journal_rows: usize) -> PlanRef {
    let schema = Erp { journal_rows, seed: 4711 }.build(catalog, engine).expect("ERP generation");
    journal_entry_item_browser(&schema).expect("browser view").protected.clone()
}

/// The ERP dataset at `journal_rows` and the unoptimized Fig. 3
/// `journal_entry_item_browser` plan (DAC-protected) over it.
pub fn erp_browser(journal_rows: usize) -> (StorageEngine, PlanRef) {
    let engine = StorageEngine::new();
    let browser = load_erp(&mut Catalog::new(), &engine, journal_rows);
    (engine, browser)
}

/// A HANA-profile [`Server`] over the ERP dataset with the Fig. 3 browser
/// registered as a queryable view; `configure` sets what the sweep varies
/// (plan-cache capacity, parallelism) before the data loads.
pub fn browser_server(journal_rows: usize, configure: impl FnOnce(&mut Database)) -> Server {
    let mut db = Database::new(Profile::hana());
    configure(&mut db);
    let (catalog, engine) = db.catalog_and_engine();
    let browser = load_erp(catalog, engine, journal_rows);
    db.invalidate_plans();
    db.register_view("journal_entry_item_browser", browser).unwrap();
    Server::from_database(db)
}

/// The browser paging shapes every session cycles through: list page,
/// document drill-down, per-year count.
pub const SHAPES: [&str; 3] = [
    "select AccountingDocument, LineItem, PostingDate, AmountInCompanyCodeCurrency, \
     SupplierName, CustomerName from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? \
     order by AccountingDocument, LineItem limit 50",
    "select LineItem, AmountInCompanyCodeCurrency, DebitCreditCode, CompanyName \
     from journal_entry_item_browser \
     where CompanyCode = ? and FiscalYear = ? and AccountingDocument = ? \
     order by LineItem",
    "select FiscalYear, count(*) as n from journal_entry_item_browser \
     where CompanyCode = ? group by FiscalYear order by FiscalYear",
];

/// Parameter values for `SHAPES[shape]`, drawn from the ERP generator's
/// value ranges (companies 1..=20, fiscal years 2023..=2026, documents
/// 1..=2500).
pub fn shape_params(shape: usize, rng: &mut SplitMix64) -> Vec<Value> {
    let company = Value::Int(rng.random_range(1..=20));
    match shape {
        0 => vec![company, Value::Int(rng.random_range(2023..=2026))],
        1 => vec![
            company,
            Value::Int(rng.random_range(2023..=2026)),
            Value::Int(rng.random_range(1..=2_500)),
        ],
        _ => vec![company],
    }
}
