//! Data set-up: the synthetic ERP schema, the Fig. 3 browser view, and the
//! posting batches `htap_mixed` writes.

use crate::workloads::batch_company_year;
use vdm_core::Database;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_optimizer::Profile;
use vdm_types::{Decimal, Result, SplitMix64, Value};

/// Name the browser view is registered under.
pub const BROWSER: &str = "journal_entry_item_browser";

/// Value ranges of the ERP generator (`vdm_data::erp`), which the
/// parameter grids and posting batches must stay inside.
pub const COMPANIES: i64 = 20;
pub const LEDGERS: i64 = 4;
pub const FIRST_YEAR: i64 = 2023;
pub const YEARS: i64 = 4;
/// Loaded posting dates are below this; posted batches start at it, so a
/// post always moves its group's `MAX(PostingDate)`.
pub const FIRST_POSTED_DATE: i32 = 20_500;
/// Posted documents are numbered from here: above every generated
/// document, so primary keys never collide.
pub const FIRST_POSTED_DOC: i64 = 1_000_000;

/// A database with the ERP tables loaded from `seed`, **every table
/// merged** (so main fragments and zone maps exist, unlike the legacy
/// `BENCH_*.json` runs), and the browser view registered.
pub fn build_database(
    journal_rows: usize,
    seed: u64,
    plan_cache_capacity: usize,
) -> Result<Database> {
    let mut db = Database::new(Profile::hana());
    db.set_plan_cache_capacity(plan_cache_capacity);
    let (catalog, engine) = db.catalog_and_engine();
    let schema = Erp { journal_rows, seed }.build(catalog, engine)?;
    for table in db.engine().table_names() {
        db.engine().merge_delta(&table)?;
    }
    let browser = journal_entry_item_browser(&schema)?;
    db.register_view(BROWSER, browser.protected);
    Ok(db)
}

/// Document number of posting batch `batch`.
pub fn posted_doc(batch: usize) -> i64 {
    FIRST_POSTED_DOC + batch as i64
}

/// One posting batch: `lines` journal lines of one new document, for the
/// company and year [`batch_company_year`] assigns, dated later than any
/// earlier batch. Column order is `acdoca`'s.
pub fn posting_batch(rng: &mut SplitMix64, batch: usize, lines: usize) -> Vec<Vec<Value>> {
    let dec2 = |u: i64| Value::Dec(Decimal::from_units(u as i128, 2));
    let (company, year) = batch_company_year(batch);
    let doc = posted_doc(batch);
    let date = FIRST_POSTED_DATE + batch as i32;
    (0..lines)
        .map(|line| {
            let mut row = vec![
                Value::Int(1 + (line as i64 % LEDGERS)),
                Value::Int(company),
                Value::Int(year),
                Value::Int(doc),
                Value::Int(1 + line as i64 / LEDGERS),
                dec2(rng.random_range(-500_000..5_000_000)),
                dec2(rng.random_range(-500_000..5_000_000)),
                Value::Dec(Decimal::from_units(rng.random_range(0..100_000), 3)),
                Value::str(if line % 2 == 0 { "S" } else { "H" }),
                Value::Date(date),
                Value::Int(rng.random_range(1..=400)),
                Value::Int(rng.random_range(1..=600)),
                Value::Int(rng.random_range(0..5)),
                Value::Int(rng.random_range(1..=120)),
            ];
            // The 25 generic dimension keys (all dimension tables have
            // keys 1..=60).
            row.extend((0..25).map(|_| Value::Int(rng.random_range(1..=60))));
            row
        })
        .collect()
}
