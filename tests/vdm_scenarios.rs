//! VDM-layer scenarios end-to-end: layered views with associations, DAC
//! injection, the draft pattern, custom-field extension, the one namespace
//! of tables and views, and the Fig. 3 browser's DDL — all executed through
//! the `Database` facade.

use std::sync::Arc;
use vdm_catalog::TableBuilder;
use vdm_core::Database;
use vdm_data::erp::{Erp, BROWSER_SQL};
use vdm_expr::Expr;
use vdm_model::{
    extension::{extend_with_fields, ExtensionSpec},
    AccessPolicy, Association, DacRule, DraftPair, VdmModel, VdmView, ViewLayer,
};
use vdm_plan::{plan_stats, DeclaredCardinality, LogicalPlan, PlanRef};
use vdm_types::{Result, SqlType, Value, VdmError};

fn sales_world(db: &mut Database) -> (Arc<vdm_catalog::TableDef>, Arc<vdm_catalog::TableDef>) {
    let vbak = db
        .catalog_mut()
        .create_table(
            TableBuilder::new("vbak")
                .column("vbeln", SqlType::Int, false)
                .column("kunnr", SqlType::Int, false)
                .column("netwr", SqlType::Decimal { scale: 2 }, false)
                .column("zz_region", SqlType::Text, true)
                .primary_key(&["vbeln"])
                .build()
                .unwrap(),
        )
        .unwrap();
    let kna1 = db
        .catalog_mut()
        .create_table(
            TableBuilder::new("kna1")
                .column("kunnr", SqlType::Int, false)
                .column("name1", SqlType::Text, false)
                .column("land1", SqlType::Text, false)
                .primary_key(&["kunnr"])
                .build()
                .unwrap(),
        )
        .unwrap();
    db.engine().create_table(Arc::clone(&vbak)).unwrap();
    db.engine().create_table(Arc::clone(&kna1)).unwrap();
    db.execute_script(
        "insert into kna1 values (10, 'Aurora', 'DE'), (11, 'Borealis', 'FR');
         insert into vbak values
            (1, 10, 1500.00, 'EMEA'),
            (2, 11, 250.00, null),
            (3, 10, 980.50, 'EMEA')",
    )
    .unwrap();
    (vbak, kna1)
}

#[test]
fn layered_views_with_associations() {
    let mut db = Database::hana();
    let (vbak, kna1) = sales_world(&mut db);
    let mut model = VdmModel::new();
    // Basic layer: business names over raw tables.
    model
        .basic_view_over(
            "I_Customer",
            kna1,
            &[("kunnr", "Customer"), ("name1", "CustomerName"), ("land1", "Country")],
            vec![],
        )
        .unwrap();
    model
        .basic_view_over(
            "I_SalesOrder",
            vbak,
            &[("vbeln", "SalesOrder"), ("kunnr", "SoldToParty"), ("netwr", "NetAmount")],
            vec![Association {
                name: "_Customer".into(),
                target: "I_Customer".into(),
                on: vec![("SoldToParty".into(), "Customer".into())],
                cardinality: DeclaredCardinality::ManyToOne,
            }],
        )
        .unwrap();
    // Composite layer via a path expression: SalesOrder._Customer.
    let with_customer = model.resolve_association("I_SalesOrder", "_Customer").unwrap();
    model
        .register(VdmView {
            name: "C_SalesOrderEnriched".into(),
            layer: ViewLayer::Composite,
            plan: with_customer,
            associations: vec![],
        })
        .unwrap();
    assert_eq!(model.layer_counts(), (2, 1, 0));
    // Queries through SQL use the registered plans.
    db.register_view(
        "C_SalesOrderEnriched",
        model.view("C_SalesOrderEnriched").unwrap().plan.clone(),
    )
    .unwrap();
    let rows = db
        .query("select SalesOrder, CustomerName from C_SalesOrderEnriched order by SalesOrder")
        .unwrap();
    assert_eq!(rows.num_rows(), 3);
    assert_eq!(rows.row(0)[1], Value::str("Aurora"));
    // The association join disappears when unused.
    let plan = db.optimized_plan("select SalesOrder, NetAmount from C_SalesOrderEnriched").unwrap();
    assert_eq!(plan_stats(&plan).joins, 0);
}

#[test]
fn dac_restricts_per_user() {
    let mut db = Database::hana();
    let (vbak, kna1) = sales_world(&mut db);
    // Consumption view: orders + customer country.
    let join =
        LogicalPlan::left_join(LogicalPlan::scan(vbak), LogicalPlan::scan(kna1), vec![(1, 0)])
            .unwrap();
    let view = LogicalPlan::project(
        join,
        vec![
            (Expr::col(0), "SalesOrder".into()),
            (Expr::col(2), "NetAmount".into()),
            (Expr::col(6), "Country".into()),
        ],
    )
    .unwrap();
    let mut policy = AccessPolicy::new();
    policy.add_rule(
        "german_sales",
        DacRule {
            view: "orders_v".into(),
            column: "Country".into(),
            allowed: vec![Value::str("DE")],
            allow_null: false,
        },
    );
    policy.add_rule(
        "global_audit",
        DacRule {
            view: "orders_v".into(),
            column: "Country".into(),
            allowed: vec![Value::str("DE"), Value::str("FR")],
            allow_null: true,
        },
    );
    let german = policy.protect("german_sales", "orders_v", view.clone()).unwrap();
    let audit = policy.protect("global_audit", "orders_v", view.clone()).unwrap();
    db.register_view("orders_german", german).unwrap();
    db.register_view("orders_audit", audit).unwrap();
    assert_eq!(db.query("select SalesOrder from orders_german").unwrap().num_rows(), 2);
    assert_eq!(db.query("select SalesOrder from orders_audit").unwrap().num_rows(), 3);
    // Unknown user: denied outright.
    assert!(policy.protect("mallory", "orders_v", view).is_err());
}

#[test]
fn draft_pattern_full_cycle() {
    let mut db = Database::hana();
    let mk = |name: &str| {
        TableBuilder::new(name)
            .column("doc_id", SqlType::Int, false)
            .column("amount", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["doc_id"])
            .build()
            .unwrap()
    };
    let active = db.catalog_mut().create_table(mk("doc")).unwrap();
    let draft = db.catalog_mut().create_table(mk("doc_draft")).unwrap();
    db.engine().create_table(Arc::clone(&active)).unwrap();
    db.engine().create_table(Arc::clone(&draft)).unwrap();
    db.execute("insert into doc values (1, 100.00), (2, 40.00)").unwrap();
    let pair = DraftPair::new(active, draft).unwrap();
    db.register_view("doc_op", pair.operational_plan().unwrap()).unwrap();

    // 1. User starts editing: draft row appears in the operational view only.
    db.execute("insert into doc_draft values (3, 77.70)").unwrap();
    assert_eq!(db.query("select doc_id from doc_op").unwrap().num_rows(), 3);
    // 2. Activation: move draft to active (application-side transaction).
    db.engine().delete_where("doc_draft", &|r| r[0] == Value::Int(3)).unwrap();
    db.execute("insert into doc values (3, 77.70)").unwrap();
    assert_eq!(db.query("select doc_id from doc_op").unwrap().num_rows(), 3);
    let total = db.query("select sum(amount) from doc_op").unwrap();
    assert_eq!(total.row(0)[0], Value::Dec("217.70".parse().unwrap()));
}

#[test]
fn custom_field_extension_through_sql() {
    let mut db = Database::hana();
    let (vbak, _) = sales_world(&mut db);
    // The managed view hides zz_region.
    let managed = LogicalPlan::project(
        LogicalPlan::scan(Arc::clone(&vbak)),
        vec![(Expr::col(0), "SalesOrder".into()), (Expr::col(2), "NetAmount".into())],
    )
    .unwrap();
    let spec = ExtensionSpec {
        key: vec![("SalesOrder".into(), "vbeln".into())],
        fields: vec!["zz_region".into()],
    };
    let extended = extend_with_fields(managed, vbak, &spec).unwrap();
    db.register_view("sales_ext", extended).unwrap();
    // The custom field flows through SQL...
    let rows = db.query("select SalesOrder, zz_region from sales_ext order by SalesOrder").unwrap();
    assert_eq!(rows.row(0)[1], Value::str("EMEA"));
    assert!(rows.row(1)[1].is_null());
    // ...and the self-join is gone from the executed plan.
    let plan = db.optimized_plan("select SalesOrder, zz_region from sales_ext").unwrap();
    assert_eq!(plan_stats(&plan).joins, 0);
    assert_eq!(plan_stats(&plan).table_instances, 1);
}

/// Tables and views share one namespace: each way of giving a name that one
/// kind holds to the other is a catalog error, and the holder still reads
/// as before.
#[test]
fn tables_and_views_share_one_namespace() {
    let mut db = Database::hana();
    db.execute_script(
        "create table t (k bigint primary key, v bigint);
         insert into t values (1, 10), (2, 20);
         create view w as select k from t",
    )
    .unwrap();
    let plan = db.plan("select k from t").unwrap();
    type Attempt = fn(&mut Database, PlanRef) -> Result<()>;
    let cases: [(&str, &str, Attempt); 4] = [
        ("view over a table", "t", |db, _| {
            db.execute("create view t as select k from t").map(drop)
        }),
        ("table over a view", "w", |db, _| {
            db.execute("create table w (a int, b int, c int)").map(drop)
        }),
        ("replacing view over a table", "t", |db, _| {
            db.execute("create or replace view t as select k from t").map(drop)
        }),
        ("register_view over a table", "t", |db, plan| db.register_view("t", plan)),
    ];
    for (case, name, attempt) in cases {
        let read = |db: &Database| db.query(&format!("select * from {name}")).unwrap().to_rows();
        let before = read(&db);
        let err = attempt(&mut db, plan.clone()).unwrap_err();
        assert!(matches!(err, VdmError::Catalog(_)), "{case}: {err}");
        assert_eq!(read(&db), before, "{case}");
    }
}

/// The browser's shipped DDL is checked as user DDL, not only through the
/// loader: run as a script on an ERP database, the browser reads every
/// journal row once.
#[test]
fn the_browser_ddl_runs_as_a_user_script() {
    let mut db = Database::hana();
    let (catalog, engine) = db.catalog_and_engine();
    Erp { journal_rows: 300, seed: 7 }.build(catalog, engine).unwrap();
    db.execute_script(BROWSER_SQL).unwrap();
    let count = |sql| db.query(sql).unwrap().row(0)[0].clone();
    assert_eq!(count("select count(*) from journal_entry_item_browser"), Value::Int(300));
    assert_eq!(count("select count(*) from acdoca"), Value::Int(300));
}
