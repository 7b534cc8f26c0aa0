//! Upgrade-safe custom fields (§5/§6.3 of the paper).
//!
//! A customer extends the SAP-managed `vbak` table with `zz_priority`.
//! The stable consumption view must expose the field without redefining
//! the interim view stack — so it self-joins the base table on its key.
//! With a capable optimizer the self-join costs nothing (Fig. 9c); over a
//! draft-enabled table, declaring the CASE JOIN keeps it that way.
//!
//! Run: `cargo run --example custom_fields`

use std::sync::Arc;
use vdm_catalog::TableBuilder;
use vdm_core::Database;
use vdm_expr::Expr;
use vdm_model::{
    extension::extend_draft_with_fields, extension::extend_with_fields, DraftPair, ExtensionSpec,
};
use vdm_plan::{plan_stats, LogicalPlan};
use vdm_types::{SqlType, Value};

fn main() -> vdm_types::Result<()> {
    let mut db = Database::hana();

    // SAP-managed table, already extended with the customer field zz_priority.
    let vbak = Arc::new(
        TableBuilder::new("vbak")
            .column("vbeln", SqlType::Int, false)
            .column("kunnr", SqlType::Int, false)
            .column("netwr", SqlType::Decimal { scale: 2 }, false)
            .column("zz_priority", SqlType::Text, true)
            .primary_key(&["vbeln"])
            .build()?,
    );
    db.catalog_mut().create_table((*vbak).clone())?;
    db.engine().create_table(Arc::clone(&vbak))?;
    db.execute(
        "insert into vbak values
            (1, 10, 1500.00, 'HIGH'),
            (2, 11,  250.00, null),
            (3, 10,  980.50, 'LOW')",
    )?;

    // The SAP-managed view stack does NOT project zz_priority.
    let managed = LogicalPlan::project(
        LogicalPlan::scan(Arc::clone(&vbak)),
        vec![
            (Expr::col(0), "SalesOrder".into()),
            (Expr::col(1), "SoldToParty".into()),
            (Expr::col(2), "NetAmount".into()),
        ],
    )?;

    // Fig. 8(b): expose zz_priority via an augmentation self-join.
    let spec = ExtensionSpec {
        key: vec![("SalesOrder".into(), "vbeln".into())],
        fields: vec!["zz_priority".into()],
    };
    let extended = extend_with_fields(managed, Arc::clone(&vbak), &spec)?;
    println!("extension view: {} joins before optimization", plan_stats(&extended).joins);
    let optimized = db.optimizer().optimize(&extended)?;
    println!(
        "               {} joins after  optimization (ASJ removed, field re-wired)",
        plan_stats(&optimized).joins
    );
    db.register_view("sales_order_ext", extended)?;
    let rows = db.query(
        "select SalesOrder, NetAmount, zz_priority from sales_order_ext order by SalesOrder",
    )?;
    for row in rows.to_rows() {
        println!("  order {} | {} | priority {}", row[0], row[1], row[2]);
    }

    // Draft-enabled variant: the logical table is active ⊎ draft, and only
    // a CASE JOIN keeps the extension free (Fig. 13b / Fig. 14).
    let draft = Arc::new(
        TableBuilder::new("vbak_draft")
            .column("vbeln", SqlType::Int, false)
            .column("kunnr", SqlType::Int, false)
            .column("netwr", SqlType::Decimal { scale: 2 }, false)
            .column("zz_priority", SqlType::Text, true)
            .primary_key(&["vbeln"])
            .build()?,
    );
    db.catalog_mut().create_table((*draft).clone())?;
    db.engine().create_table(Arc::clone(&draft))?;
    db.engine().insert(
        "vbak_draft",
        vec![vec![
            Value::Int(99),
            Value::Int(11),
            Value::Dec("10.00".parse()?),
            Value::str("DRAFT-RUSH"),
        ]],
    )?;
    let pair = DraftPair::new(vbak, draft)?;
    let op_view = pair.operational_plan()?;
    let s = op_view.schema();
    let managed_op = LogicalPlan::project(
        op_view,
        vec![
            (Expr::col(0), s.field(0).name.clone()), // bid
            (Expr::col(1), "SalesOrder".into()),
            (Expr::col(2), "SoldToParty".into()),
            (Expr::col(3), "NetAmount".into()),
        ],
    )?;
    for (label, intent) in [("plain join", false), ("CASE JOIN", true)] {
        let ext = extend_draft_with_fields(managed_op.clone(), &pair, "bid", &spec, intent)?;
        let optimized = db.optimizer().optimize(&ext)?;
        println!(
            "draft extension via {label}: {} joins after optimization",
            plan_stats(&optimized).joins
        );
    }
    Ok(())
}
