//! Kept join sides: three dynamic views over the ERP browser, shaped like
//! `htap_mixed`'s, build each join side once and probe it on every later
//! pass — until a write to a table under a side makes the next pass rebuild
//! exactly that side. Every step is checked against a fresh run.

use std::sync::Arc;
use vdm_cache::{multiset_digest, CacheMode, CachedView};
use vdm_core::Database;
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_optimizer::Profile;
use vdm_plan::{scan_tables, LogicalPlan, PlanRef};
use vdm_types::Value;

const VIEWS: [(&str, &str); 3] = [
    (
        "dcv_count_sum",
        "select CompanyCode, FiscalYear, count(*) as n, sum(AmountInCompanyCodeCurrency) as amount \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
    ),
    (
        "dcv_last_posting",
        "select CompanyCode, FiscalYear, count(*) as n, max(PostingDate) as last_posting \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
    ),
    (
        "dcv_open_year",
        "select AccountingDocument, LineItem, Ledger, AmountInCompanyCodeCurrency, CompanyName \
         from journal_entry_item_browser where FiscalYear = 2025",
    ),
];

/// Joins of `plan` whose right input scans `table` (the sides over it).
fn sides_over(plan: &PlanRef, table: &str) -> usize {
    let here = match plan.as_ref() {
        LogicalPlan::Join { right, .. } => {
            usize::from(scan_tables(right).iter().any(|t| t == table))
        }
        _ => 0,
    };
    here + plan.children().iter().map(|c| sides_over(c, table)).sum::<usize>()
}

#[test]
fn unchanged_join_sides_are_built_once_and_rebuilt_only_when_written() {
    let mut db = Database::new(Profile::hana());
    let (catalog, engine) = db.catalog_and_engine();
    let schema = Erp { journal_rows: 2_000, seed: 7 }.build(catalog, engine).unwrap();
    for table in db.engine().table_names() {
        db.engine().merge_delta(&table).unwrap();
    }
    let browser = journal_entry_item_browser(&schema).unwrap();
    db.register_view("journal_entry_item_browser", browser.protected);
    for (name, sql) in VIEWS {
        db.create_cached_view(name, sql, CacheMode::Dynamic).unwrap();
    }
    let views: Vec<Arc<CachedView>> =
        VIEWS.iter().map(|(n, _)| db.cached_view(n).unwrap()).collect();
    let stats = || views.iter().map(|v| v.stats()).collect::<Vec<_>>();
    let template = db.engine().scan("acdoca", db.engine().snapshot()).unwrap().to_rows();
    // A posting: 20 journal lines under fresh document numbers.
    let post = |batch: i64| {
        let lines = template[..20].iter().enumerate().map(|(i, row)| {
            let mut row = row.clone();
            row[3] = Value::Int(1_000_000 + batch * 100 + i as i64);
            row
        });
        db.engine().insert("acdoca", lines.collect()).unwrap();
    };
    let read_all = |step: &str| {
        for (name, sql) in VIEWS {
            let got = db.read_cached(name).unwrap();
            let fresh = db.query(sql).unwrap();
            assert_eq!(multiset_digest(&got), multiset_digest(&fresh), "{name} after {step}");
        }
    };

    post(0);
    read_all("the first tick");
    let first = stats();
    assert!(first.iter().all(|s| s.side_builds > 0 && s.incremental_refreshes == 1), "{first:?}");
    for batch in 1..=10 {
        post(batch);
        read_all(&format!("posting {batch}"));
    }
    let posted = stats();
    for (before, after) in first.iter().zip(&posted) {
        assert_eq!(after.side_builds, before.side_builds, "insert-only cycles build no side");
        assert_eq!(after.incremental_refreshes, before.incremental_refreshes + 10);
    }

    // A write to a frozen side's table recomputes every view over it ...
    let renamed = |row: &mut Vec<Value>| row[1] = Value::str("renamed");
    db.engine().update_where("lfa1", &|row| row[0] == Value::Int(1), &renamed).unwrap();
    read_all("the lfa1 write");
    let recomputed = stats();
    for (before, after) in posted.iter().zip(&recomputed) {
        assert_eq!(after.full_refreshes, before.full_refreshes + 1);
        assert_eq!(after.side_builds, before.side_builds, "a recompute builds no side");
    }
    // ... and the next incremental pass rebuilds exactly the sides over lfa1.
    post(11);
    read_all("the posting after the lfa1 write");
    for ((view, before), after) in views.iter().zip(&recomputed).zip(stats()) {
        let over_lfa1 = sides_over(view.plan(), "lfa1");
        assert!(over_lfa1 > 0, "{} joins lfa1", view.name());
        assert_eq!(after.side_builds - before.side_builds, over_lfa1, "{}", view.name());
        assert_eq!(after.incremental_refreshes, before.incremental_refreshes + 1);
    }
}
