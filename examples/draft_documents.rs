//! The stateless-app draft pattern (§6.1, Fig. 11b).
//!
//! In-progress user input lives in a draft table beside the active table.
//! Operational queries read the branch-id union of both; analytical
//! queries read only active data — and the optimizer still derives
//! ⟨bid, key⟩ uniqueness across the union (Fig. 12b), so unused joins to
//! the logical table disappear.
//!
//! Run: `cargo run --example draft_documents`

use std::sync::Arc;
use vdm_catalog::TableBuilder;
use vdm_core::Database;
use vdm_model::DraftPair;
use vdm_plan::{plan_stats, unique_sets, DeriveOptions};
use vdm_types::{SqlType, Value};

fn main() -> vdm_types::Result<()> {
    let mut db = Database::hana();
    let mk = |name: &str| {
        TableBuilder::new(name)
            .column("doc_id", SqlType::Int, false)
            .column("customer", SqlType::Text, false)
            .column("amount", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["doc_id"])
            .build()
    };
    let active = db.catalog_mut().create_table(mk("sales_doc")?)?;
    let draft = db.catalog_mut().create_table(mk("sales_doc_draft")?)?;
    db.engine().create_table(Arc::clone(&active))?;
    db.engine().create_table(Arc::clone(&draft))?;

    // Committed documents.
    db.execute(
        "insert into sales_doc values
            (1, 'Aurora', 1200.00),
            (2, 'Borealis', 75.50)",
    )?;
    // A user is editing a new document — transactional write to the draft.
    db.execute("insert into sales_doc_draft values (3, 'Cumulus', 410.00)")?;

    let pair = DraftPair::new(active, draft)?;
    db.register_view("sales_doc_operational", pair.operational_plan()?)?;
    db.register_view("sales_doc_analytical", pair.analytical_plan())?;

    // The operational UI sees committed + in-progress documents.
    println!("operational view (active ⊎ draft):");
    for row in db
        .query("select bid, doc_id, customer, amount from sales_doc_operational order by doc_id")?
        .to_rows()
    {
        let state = if row[0] == Value::Int(0) { "active" } else { "draft " };
        println!("  [{state}] doc {} | {} | {}", row[1], row[2], row[3]);
    }

    // Analytics sees only committed data.
    let total = db.query("select sum(amount) from sales_doc_analytical")?;
    println!("\nanalytical total (active only): {}", total.row(0)[0]);

    // The union preserves ⟨bid, doc_id⟩ uniqueness — the Fig. 12b property
    // that lets the optimizer treat the logical table as a join target.
    let op = pair.operational_plan()?;
    let sets = unique_sets(&op, &DeriveOptions::all());
    println!("\nderived unique key sets of the union: {sets:?}");

    // Consequence: a join to the logical table that no one uses vanishes —
    // the optimizer proves ⟨bid, doc_id⟩ unique across the union (Fig. 12b).
    db.execute(
        "create view audit_overview as
         select a.doc_id as audited_doc, a.customer as audited_customer, o.amount
         from (select doc_id, customer, 0 as probe from sales_doc) a
         left join sales_doc_operational o
           on a.probe = o.bid and a.doc_id = o.doc_id",
    )?;
    let plan = db.optimized_plan("select audited_doc from audit_overview")?;
    println!(
        "unused join to the draft union: {} joins remain after optimization",
        plan_stats(&plan).joins
    );
    Ok(())
}
