//! Guards the paper's published numbers: Tables 1–4 cell-for-cell, the
//! Fig. 3/4 complexity profile, and the Fig. 14 recognition split. These
//! are the same checks the bench binaries print, pinned as tests so a
//! regression in any rewrite rule trips CI before it skews an experiment.

use vdm_bench::{harness, queries};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{plan_stats, LogicalPlan};

#[test]
fn table1_all_35_cells() {
    let (catalog, _engine) = harness::setup_tpch(0.01, false);
    let systems = Profile::paper_systems();
    let expected: [[bool; 5]; 7] = [
        [true, true, false, true, true],
        [true, true, false, false, true],
        [true, true, false, true, true],
        [true, false, false, false, true],
        [true, true, false, false, true],
        [true, false, false, false, true],
        [true, false, false, false, false],
    ];
    for ((name, plan), want_row) in queries::all_uaj(&catalog).iter().zip(expected) {
        for (profile, want) in systems.iter().zip(want_row) {
            assert_eq!(
                harness::join_free_under(profile, plan),
                want,
                "{name} under {}",
                profile.name()
            );
        }
    }
}

#[test]
fn table2_limit_pushdown_cells() {
    let (catalog, _engine) = harness::setup_tpch(0.01, false);
    let paging = queries::paging(&catalog).unwrap();
    for profile in Profile::paper_systems() {
        let optimized = Optimizer::new(profile.clone()).optimize(&paging).unwrap();
        assert_eq!(
            queries::limit_below_join(&optimized),
            profile.name() == "hana",
            "profile {}",
            profile.name()
        );
    }
}

#[test]
fn table3_asj_cells() {
    let (catalog, _engine) = harness::setup_tpch(0.01, false);
    for (name, plan) in queries::all_asj(&catalog) {
        for profile in Profile::paper_systems() {
            assert_eq!(
                harness::join_free_under(&profile, &plan),
                profile.name() == "hana",
                "{name} under {}",
                profile.name()
            );
        }
    }
}

#[test]
fn table4_union_cells() {
    let (catalog, _engine) = harness::setup_tpch(0.01, false);
    for (name, plan) in queries::all_union(&catalog) {
        for profile in Profile::paper_systems() {
            assert_eq!(
                harness::join_free_under(&profile, &plan),
                profile.name() == "hana",
                "{name} under {}",
                profile.name()
            );
        }
    }
}

#[test]
fn fig3_and_fig4_profile() {
    let erp = vdm_data::erp::Erp { journal_rows: 50, seed: 4711 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = vdm_storage::StorageEngine::new();
    let schema = erp.build(&mut catalog, &engine).unwrap();
    let browser = vdm_data::erp::journal_entry_item_browser(&schema).unwrap();
    let fig3 = plan_stats(&browser.protected);
    assert_eq!(
        (fig3.table_instances, fig3.table_references, fig3.joins),
        (47, 62, 49),
        "Fig. 3 complexity profile"
    );
    assert_eq!((fig3.unions, fig3.max_union_width), (1, 5));
    assert_eq!((fig3.aggregates, fig3.distincts), (1, 1));

    let count = LogicalPlan::aggregate(
        browser.protected.clone(),
        vec![],
        vec![(vdm_expr::AggExpr::count_star(), "n".into())],
    )
    .unwrap();
    let optimized = Optimizer::hana().optimize(&count).unwrap();
    let fig4 = plan_stats(&optimized);
    assert_eq!(fig4.joins, 2, "only DAC-guarded joins survive:\n{}", vdm_plan::explain(&optimized));
    assert_eq!(fig4.table_instances, 3);
    assert_eq!(fig4.unions, 0);
    assert_eq!(fig4.distincts, 0);

    // The rewritten count agrees with the raw one.
    let a = vdm_exec::execute(&count, &engine).unwrap();
    let b = vdm_exec::execute(&optimized, &engine).unwrap();
    assert_eq!(a.row(0), b.row(0));
}

#[test]
fn fig14_recognition_split() {
    let cfg = vdm_data::figview::Fig14Config { n_views: 12, rows_per_table: 60, seed: 77 };
    let mut catalog = vdm_catalog::Catalog::new();
    let engine = vdm_storage::StorageEngine::new();
    let fig = vdm_data::figview::generate(&cfg, &mut catalog, &engine).unwrap();
    let hana = Optimizer::hana();
    for case in &fig.cases {
        let orig = hana.optimize(&case.original).unwrap();
        let plain = hana.optimize(&case.extended_plain).unwrap();
        let with_case = hana.optimize(&case.extended_case).unwrap();
        // Case join always collapses to the original's join count.
        assert_eq!(
            plan_stats(&with_case).joins,
            plan_stats(&orig).joins,
            "{} with intent",
            case.name
        );
        // The heuristic only matches shallow shapes.
        assert_eq!(
            plan_stats(&plain).joins == plan_stats(&orig).joins,
            !case.deep,
            "{} heuristic",
            case.name
        );
    }
}

#[test]
fn uaj_execution_metrics_shrink() {
    // Beyond wall time: the optimized plan must do strictly less work.
    let (catalog, engine) = harness::setup_tpch(0.02, false);
    let plan = queries::uaj2a(&catalog).unwrap();
    let optimized = Optimizer::hana().optimize(&plan).unwrap();
    let opts = vdm_exec::ExecOptions { snapshot: Some(engine.snapshot()), ..Default::default() };
    let run = |plan: &vdm_plan::PlanRef| {
        let x = vdm_exec::execute_with(plan, &engine, &opts).unwrap();
        (x.batch, vdm_exec::Metrics::roll_up(plan, &x.profile))
    };
    let (a, m_raw) = run(&plan);
    let (b, m_opt) = run(&optimized);
    assert_eq!(a.num_rows(), b.num_rows());
    assert!(m_opt.rows_scanned < m_raw.rows_scanned);
    assert_eq!(m_opt.join_build_rows, 0, "no joins left");
    assert!(m_raw.join_build_rows > 0);
}
