//! Binder tests: SQL in, logical plans out, executed against storage.

use crate::binder::{Binder, MacroRegistry};
use crate::parser::{parse, parse_one};
use crate::Statement;

use vdm_catalog::Catalog;
use vdm_plan::{plan_stats, LogicalPlan, PlanRef, ViewRegistry};
use vdm_storage::StorageEngine;
use vdm_types::{Value, VdmError};

/// A small test harness: catalog + views + macros + storage.
struct Db {
    catalog: Catalog,
    views: ViewRegistry,
    macros: MacroRegistry,
    engine: StorageEngine,
}

impl Db {
    fn new() -> Db {
        Db {
            catalog: Catalog::new(),
            views: ViewRegistry::new(),
            macros: MacroRegistry::new(),
            engine: StorageEngine::new(),
        }
    }

    fn run_ddl(&mut self, sql: &str) {
        for stmt in parse(sql).unwrap() {
            match stmt {
                Statement::CreateTable(ct) => {
                    let binder = Binder::new(&self.catalog, &self.views, &self.macros);
                    let def = binder.table_def(&ct).unwrap();
                    let arc = self.catalog.create_table(def).unwrap();
                    self.engine.create_table(arc).unwrap();
                }
                Statement::CreateView { name, or_replace, query, macros } => {
                    // Bind once to validate and extract macros.
                    let (plan, defs) = {
                        let binder = Binder::new(&self.catalog, &self.views, &self.macros);
                        let plan = binder.bind_select(&query).unwrap();
                        let defs: Vec<_> = macros
                            .iter()
                            .map(|m| binder.bind_macro(m, &plan.schema()).unwrap())
                            .collect();
                        (plan, defs)
                    };
                    for def in defs {
                        self.macros.insert(def.name.to_ascii_lowercase(), def);
                    }
                    if or_replace {
                        self.views.register(&name, plan);
                    } else {
                        self.views.register_new(&name, plan).unwrap();
                    }
                }
                Statement::Insert { table, columns, rows } => {
                    let binder = Binder::new(&self.catalog, &self.views, &self.macros);
                    let def = self.catalog.table_or_err(&table).unwrap();
                    let values = binder.insert_rows(&def, &columns, &rows).unwrap();
                    self.engine.insert(&table, values).unwrap();
                }
                other => panic!("unexpected statement {other:?}"),
            }
        }
    }

    fn plan(&self, sql: &str) -> Result<PlanRef, VdmError> {
        let stmt = parse_one(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(VdmError::Bind("not a select".into()));
        };
        Binder::new(&self.catalog, &self.views, &self.macros).bind_select(&sel)
    }

    fn query(&self, sql: &str) -> Vec<Vec<Value>> {
        let plan = self.plan(sql).unwrap();
        vdm_exec::execute(&plan, &self.engine).unwrap().to_rows()
    }
}

fn db() -> Db {
    let mut db = Db::new();
    db.run_ddl(
        "create table customer (c_custkey bigint primary key, c_name text not null, c_nation bigint not null);
         create table orders (o_orderkey bigint primary key, o_custkey bigint not null, o_total decimal(10,2) not null);
         insert into customer values (1, 'alice', 10), (2, 'bob', 20);
         insert into orders values (100, 1, 5.00), (101, 1, 7.25), (102, 9, 1.00);",
    );
    db
}

#[test]
fn select_star_and_projection() {
    let db = db();
    let rows = db.query("select * from customer order by c_custkey");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1], Value::str("alice"));
    let rows = db.query("select c_name as n from customer order by n desc");
    assert_eq!(rows[0], vec![Value::str("bob")]);
}

#[test]
fn where_and_qualified_names() {
    let db = db();
    let rows = db.query("select o.o_orderkey from orders o where o.o_custkey = 1 order by 1");
    assert_eq!(rows, vec![vec![Value::Int(100)], vec![Value::Int(101)]]);
}

#[test]
fn joins_and_aliases() {
    let db = db();
    let rows = db.query(
        "select o.o_orderkey, c.c_name from orders o \
         left join customer c on o.o_custkey = c.c_custkey order by 1",
    );
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[2], vec![Value::Int(102), Value::Null]);
}

#[test]
fn join_cardinality_annotation_lands_in_plan() {
    let db = db();
    let plan = db
        .plan(
            "select o_orderkey from orders left outer many to one join customer \
             on o_custkey = c_custkey",
        )
        .unwrap();
    fn find_declared(p: &PlanRef) -> Option<vdm_plan::DeclaredCardinality> {
        if let LogicalPlan::Join { declared, .. } = p.as_ref() {
            return *declared;
        }
        p.children().iter().find_map(|c| find_declared(c))
    }
    assert_eq!(find_declared(&plan), Some(vdm_plan::DeclaredCardinality::ManyToOne));
}

#[test]
fn case_join_sets_intent() {
    let db = db();
    let plan = db
        .plan(
            "select o_orderkey from orders left outer case join customer on o_custkey = c_custkey",
        )
        .unwrap();
    fn find_intent(p: &PlanRef) -> bool {
        if let LogicalPlan::Join { asj_intent, .. } = p.as_ref() {
            return *asj_intent;
        }
        p.children().iter().any(|c| find_intent(c))
    }
    assert!(find_intent(&plan));
}

#[test]
fn group_by_and_having() {
    let db = db();
    let rows = db.query(
        "select o_custkey, count(*), sum(o_total) from orders \
         group by o_custkey having count(*) > 1 order by 1",
    );
    assert_eq!(
        rows,
        vec![vec![Value::Int(1), Value::Int(2), Value::Dec("12.25".parse().unwrap())]]
    );
}

#[test]
fn count_star_and_global_aggregate() {
    let db = db();
    let rows = db.query("select count(*) from orders");
    assert_eq!(rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn group_key_must_cover_bare_columns() {
    let db = db();
    let err = db.plan("select o_custkey, o_total from orders group by o_custkey").unwrap_err();
    assert!(err.to_string().contains("GROUP BY"), "{err}");
}

#[test]
fn union_all_binds_and_runs() {
    let db = db();
    let rows = db
        .query("select c_custkey as k from customer union all select o_orderkey as k from orders");
    assert_eq!(rows.len(), 5);
}

#[test]
fn subquery_in_from() {
    let db = db();
    let rows = db.query(
        "select s.k from (select o_orderkey as k from orders where o_custkey = 1) s order by k",
    );
    assert_eq!(rows.len(), 2);
}

#[test]
fn views_expand_recursively() {
    let mut db = db();
    db.run_ddl("create view v1 as select o_orderkey, o_custkey from orders");
    db.run_ddl("create view v2 as select v1.o_orderkey from v1 where v1.o_custkey = 1");
    let rows = db.query("select * from v2 order by 1");
    assert_eq!(rows.len(), 2);
    let plan = db.plan("select * from v1").unwrap();
    assert!(plan_stats(&plan).table_instances >= 1);
}

/// A view binds when it is created, over relations that exist then, so
/// no definition can reach back to itself: there is no cycle to detect.
#[test]
fn a_view_binds_over_existing_relations_only() {
    let db = db();
    let Statement::CreateView { query, .. } =
        parse_one("create view a as select * from b").unwrap()
    else {
        unreachable!("a CREATE VIEW parses as one");
    };
    let err = Binder::new(&db.catalog, &db.views, &db.macros).bind_select(&query).unwrap_err();
    assert!(err.to_string().contains("unknown relation"), "{err}");
}

#[test]
fn precision_loss_flag_reaches_agg() {
    let db = db();
    let plan =
        db.plan("select allow_precision_loss(sum(round(o_total * 1.11, 2))) from orders").unwrap();
    fn find_flag(p: &PlanRef) -> bool {
        if let LogicalPlan::Aggregate { aggs, .. } = p.as_ref() {
            return aggs.iter().any(|(a, _)| a.allow_precision_loss);
        }
        p.children().iter().any(|c| find_flag(c))
    }
    assert!(find_flag(&plan));
}

#[test]
fn expression_macros_define_and_reuse() {
    let mut db = db();
    db.run_ddl(
        "create view sales as select o_custkey, o_total from orders \
         with expression macros (sum(o_total) / count(*) as avg_order)",
    );
    let rows = db.query(
        "select o_custkey, expression_macro(avg_order) from sales group by o_custkey order by 1",
    );
    assert_eq!(rows.len(), 2);
    // avg for customer 1: (5.00 + 7.25) / 2 = 6.125.
    let v = rows[0][1].as_dec().unwrap();
    assert_eq!(v.round_to(3).to_string(), "6.125");
    // Unknown macro errors cleanly.
    let err = db.plan("select expression_macro(nope) from sales group by o_custkey").unwrap_err();
    assert!(err.to_string().contains("unknown expression macro"), "{err}");
}

#[test]
fn order_by_position_and_limit_offset() {
    let db = db();
    let rows = db.query("select o_orderkey from orders order by 1 desc limit 1 offset 1");
    assert_eq!(rows, vec![vec![Value::Int(101)]]);
}

#[test]
fn distinct_binds() {
    let db = db();
    let rows = db.query("select distinct o_custkey from orders");
    assert_eq!(rows.len(), 2);
}

#[test]
fn ambiguity_and_unknowns_are_errors() {
    let db = db();
    assert!(db.plan("select missing from orders").is_err());
    assert!(db.plan("select * from missing_table").is_err());
    let err = db
        .plan(
            "select o_custkey from orders o \
             join orders o2 on o.o_orderkey = o2.o_orderkey",
        )
        .unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn insert_reorders_and_defaults_null() {
    let mut db = Db::new();
    db.run_ddl(
        "create table t (a bigint primary key, b text, c bigint);
         insert into t (c, a) values (7, 1);",
    );
    let rows = db.query("select * from t");
    assert_eq!(rows, vec![vec![Value::Int(1), Value::Null, Value::Int(7)]]);
}

#[test]
fn from_less_select() {
    let db = Db::new();
    let rows = db.query("select 1 + 1 as two");
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn scalar_functions_bind() {
    let db = db();
    let rows = db.query("select upper(c_name) from customer where c_custkey = 1");
    assert_eq!(rows, vec![vec![Value::str("ALICE")]]);
    assert!(db.plan("select nosuchfunc(c_name) from customer").is_err());
}

#[test]
fn aggregates_rejected_in_where() {
    let db = db();
    let err = db.plan("select o_orderkey from orders where sum(o_total) > 1").unwrap_err();
    assert!(err.to_string().contains("not allowed"), "{err}");
}

#[test]
fn in_list_and_between_desugar() {
    let db = db();
    let rows = db.query("select o_orderkey from orders where o_custkey in (1, 9) order by 1");
    assert_eq!(rows.len(), 3);
    let rows = db.query("select o_orderkey from orders where o_custkey not in (1) order by 1");
    assert_eq!(rows, vec![vec![Value::Int(102)]]);
    let rows =
        db.query("select o_orderkey from orders where o_total between 5.00 and 8.00 order by 1");
    assert_eq!(rows.len(), 2);
    let rows = db
        .query("select o_orderkey from orders where o_total not between 5.00 and 8.00 order by 1");
    assert_eq!(rows, vec![vec![Value::Int(102)]]);
    // Empty-ish edge: NOT IN with a NULL yields no rows (NULL semantics).
    let rows = db.query("select o_orderkey from orders where o_custkey not in (1, null)");
    assert_eq!(rows.len(), 0);
    // IN works in HAVING position too.
    let rows = db.query(
        "select o_custkey, count(*) from orders group by o_custkey having count(*) in (2) order by 1",
    );
    assert_eq!(rows.len(), 1);
}
