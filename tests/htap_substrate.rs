//! HTAP substrate scenarios: concurrent OLTP writes with OLAP snapshot
//! reads, delta-merge behaviour under load, and the NSE page-loadable
//! simulation for write-mostly journals (§2.2 of the paper).

use std::sync::Arc;
use vdm_catalog::TableBuilder;
use vdm_exec::{execute_with, ExecOptions, Metrics};
use vdm_expr::{AggExpr, AggFunc, Expr};
use vdm_plan::{LogicalPlan, PlanRef};
use vdm_storage::{Batch, LoadMode, Snapshot, StorageEngine};
use vdm_types::{SqlType, Value};

fn run_at(plan: &PlanRef, engine: &StorageEngine, snapshot: Snapshot) -> (Batch, Metrics) {
    let opts = ExecOptions { snapshot: Some(snapshot), ..ExecOptions::default() };
    let x = execute_with(plan, engine, &opts).unwrap();
    let metrics = Metrics::roll_up(plan, &x.profile);
    (x.batch, metrics)
}

fn journal_table() -> vdm_catalog::TableDef {
    TableBuilder::new("journal")
        .column("id", SqlType::Int, false)
        .column("amount", SqlType::Int, false)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

#[test]
fn concurrent_writers_and_snapshot_readers() {
    let engine = Arc::new(StorageEngine::new());
    let def = Arc::new(journal_table());
    engine.create_table(Arc::clone(&def)).unwrap();
    engine
        .insert("journal", (0..100).map(|i| vec![Value::Int(i), Value::Int(1)]).collect())
        .unwrap();

    let scan = LogicalPlan::scan(def);
    let sum_plan = LogicalPlan::aggregate(
        scan,
        vec![],
        vec![(AggExpr::new(AggFunc::Sum, Expr::col(1)), "total".into())],
    )
    .unwrap();

    // Writers append; readers pin snapshots and re-read them — a pinned
    // snapshot must return the same answer every time, regardless of
    // concurrent commits.
    let mut handles = Vec::new();
    for w in 0..3 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                engine
                    .insert("journal", vec![vec![Value::Int(1_000 + w * 1_000 + i), Value::Int(1)]])
                    .unwrap();
            }
        }));
    }
    for _ in 0..3 {
        let engine = Arc::clone(&engine);
        let plan = sum_plan.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..30 {
                let snap = engine.snapshot();
                let (first, _) = run_at(&plan, &engine, snap);
                let (second, _) = run_at(&plan, &engine, snap);
                assert_eq!(first.row(0), second.row(0), "pinned snapshot must be stable");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (final_batch, _) = run_at(&sum_plan, &engine, engine.snapshot());
    assert_eq!(final_batch.row(0)[0], Value::Int(100 + 3 * 200));
}

#[test]
fn delta_merge_under_writes_is_transparent() {
    let engine = StorageEngine::new();
    engine.create_table(Arc::new(journal_table())).unwrap();
    for round in 0..5i64 {
        engine
            .insert(
                "journal",
                (0..50).map(|i| vec![Value::Int(round * 50 + i), Value::Int(1)]).collect(),
            )
            .unwrap();
        let before = engine.row_count("journal", engine.snapshot()).unwrap();
        engine.merge_delta("journal").unwrap();
        let after = engine.row_count("journal", engine.snapshot()).unwrap();
        assert_eq!(before, after, "merge round {round} changed visible rows");
        let (main, delta) = engine.fragment_sizes("journal").unwrap();
        assert_eq!(delta, 0);
        assert_eq!(main as i64, (round + 1) * 50);
    }
}

#[test]
fn nse_page_loadable_journal() {
    let engine = StorageEngine::new();
    let def = Arc::new(journal_table());
    engine.create_table(Arc::clone(&def)).unwrap();
    engine
        .insert("journal", (0..1_000).map(|i| vec![Value::Int(i), Value::Int(1)]).collect())
        .unwrap();
    engine.merge_delta("journal").unwrap();

    // Column loadable (default): no page traffic at all.
    let snap = engine.snapshot();
    engine.scan("journal", snap).unwrap();
    let stats = engine.page_stats("journal").unwrap();
    assert_eq!((stats.loads, stats.hits), (0, 0));

    // Switch to page loadable — the §2.2 metadata change + reload.
    engine.set_load_mode("journal", LoadMode::PageLoadable { page_rows: 100 }, 20).unwrap();
    engine.scan("journal", snap).unwrap();
    let cold = engine.page_stats("journal").unwrap();
    assert_eq!(cold.loads, 10, "1 000 rows / 100 per page = 10 faults");
    engine.scan("journal", snap).unwrap();
    let warm = engine.page_stats("journal").unwrap();
    assert_eq!(warm.loads, 10, "second scan is buffer-resident");
    assert_eq!(warm.hits, 10);
    assert!(warm.hit_rate() > 0.49);

    // A pushed-down LIMIT touches only the pages it needs.
    let page = LogicalPlan::limit(LogicalPlan::scan(def), 0, Some(5));
    engine.set_load_mode("journal", LoadMode::PageLoadable { page_rows: 100 }, 20).unwrap();
    vdm_exec::execute(&page, &engine).unwrap();
    let paged = engine.page_stats("journal").unwrap();
    assert_eq!(paged.loads, 1, "limit 5 faults a single page, not ten");

    // A tiny buffer thrashes: full scans evict and refault.
    engine.set_load_mode("journal", LoadMode::PageLoadable { page_rows: 100 }, 3).unwrap();
    engine.scan("journal", snap).unwrap();
    engine.scan("journal", snap).unwrap();
    let thrash = engine.page_stats("journal").unwrap();
    assert!(thrash.evictions > 0, "3-page buffer cannot hold a 10-page table");
    assert!(thrash.hit_rate() < 0.5, "hit rate collapses: {thrash:?}");
}

#[test]
fn zone_maps_prune_merged_blocks() {
    let engine = StorageEngine::new();
    let def = Arc::new(journal_table());
    engine.create_table(Arc::clone(&def)).unwrap();
    // Time-clustered ids: consecutive blocks hold disjoint ranges, like
    // the range-partitioned-by-time journals the paper describes.
    engine
        .insert("journal", (0..8_192).map(|i| vec![Value::Int(i), Value::Int(1)]).collect())
        .unwrap();
    engine.merge_delta("journal").unwrap();

    let pred = Expr::col(0).binary(vdm_expr::BinOp::GtEq, Expr::int(8_000));
    let plan = LogicalPlan::filter(LogicalPlan::scan(Arc::clone(&def)), pred.clone()).unwrap();
    let (batch, metrics) = run_at(&plan, &engine, engine.snapshot());
    assert_eq!(batch.num_rows(), 192);
    assert!(
        metrics.rows_scanned < 2_048,
        "pruning must skip most of the 8 192 merged rows: {metrics:?}"
    );
    assert!(engine.blocks_skipped("journal").unwrap() >= 7, "7 of 8 blocks prunable");

    // Unmerged delta rows are always visible (never pruned away).
    engine.insert("journal", vec![vec![Value::Int(9_000), Value::Int(1)]]).unwrap();
    let plan = LogicalPlan::filter(LogicalPlan::scan(def), pred).unwrap();
    let (batch, _) = run_at(&plan, &engine, engine.snapshot());
    assert_eq!(batch.num_rows(), 193, "delta row found without a merge");
}
