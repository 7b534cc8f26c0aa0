//! Embedded analytics over the universal journal — the paper's §3 scenario.
//!
//! Builds the synthetic ERP schema, assembles the
//! `journal_entry_item_browser` consumption view (47 table instances,
//! 49 joins — Fig. 3), registers it with the database, and runs analytical
//! SQL against it. The optimizer collapses the plan per query.
//!
//! Run: `cargo run --release --example erp_analytics`

use vdm_core::Database;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_plan::plan_stats;

fn main() -> vdm_types::Result<()> {
    let mut db = Database::hana();

    // Generate the ERP world (universal journal + ~40 dimension tables).
    let erp = Erp { journal_rows: 5_000, seed: 4711 };
    let schema = {
        let (catalog, engine) = db.catalog_and_engine();
        erp.build(catalog, engine)?
    };
    let browser = journal_entry_item_browser(&schema)?;
    let stats = plan_stats(&browser.protected);
    println!(
        "journal_entry_item_browser: {} table instances, {} joins, {}-way union",
        stats.table_instances, stats.joins, stats.max_union_width
    );

    // Register the DAC-protected view so SQL can use it.
    db.register_view("journal_entry_item_browser", browser.protected.clone())?;

    // 1. The paper's count(*): almost everything is optimized away.
    let plan = db.optimized_plan("select count(*) from journal_entry_item_browser")?;
    let after = plan_stats(&plan);
    println!(
        "count(*): optimizer keeps {} joins of {} (only the DAC-guarded supplier/customer joins)",
        after.joins, stats.joins
    );
    let n = db.query("select count(*) from journal_entry_item_browser")?;
    println!("visible journal lines for user 'kim': {}", n.row(0)[0]);

    // 2. Revenue-style aggregation touching two dimensions.
    let batch = db.query(
        "select FiscalYear, count(*) as lines, sum(AmountInCompanyCodeCurrency) as amount
         from journal_entry_item_browser
         group by FiscalYear
         order by FiscalYear",
    )?;
    println!("\namount by fiscal year:");
    for row in batch.to_rows() {
        println!("  {} | {:>6} lines | {}", row[0], row[1], row[2]);
    }

    // 3. A selective drill-down: only the needed dimension joins execute.
    let sql = "select AccountingDocument, SupplierName, OpenAmount
               from journal_entry_item_browser
               where SupplierGroup = 1
               order by AccountingDocument
               limit 5";
    let plan = db.optimized_plan(sql)?;
    println!(
        "\ndrill-down plan uses {} of the view's {} joins",
        plan_stats(&plan).joins,
        stats.joins
    );
    for row in db.query(sql)?.to_rows() {
        println!("  doc {} | {} | open {}", row[0], row[1], row[2]);
    }
    Ok(())
}
