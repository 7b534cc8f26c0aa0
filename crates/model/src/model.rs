//! VDM views, layers, and associations.

use std::collections::HashMap;
use std::sync::Arc;
use vdm_catalog::TableDef;
use vdm_expr::Expr;
use vdm_plan::{DeclaredCardinality, JoinKind, LogicalPlan, PlanRef};
use vdm_types::{Result, VdmError};

/// The three VDM layers (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewLayer {
    /// Close to the tables; adds business names, semantics, associations.
    Basic,
    /// Built on basic views for a functional purpose.
    Composite,
    /// Tailored for one UI/API; top of the stack.
    Consumption,
}

/// A declared many-to-one relationship from a view to a target view.
///
/// Associations power the CDS *path expression*: `view.assoc.field` adds a
/// left-outer augmentation join to the target and projects the field — the
/// "easy and convenient way to join a view and project columns from it"
/// (§2.3). Unused associations are exactly the UAJs of §4.
#[derive(Debug, Clone)]
pub struct Association {
    pub name: String,
    /// Target view (or table) name.
    pub target: String,
    /// (local column, target column) equi-pairs.
    pub on: Vec<(String, String)>,
    /// Declared cardinality (associations are many-to-one by design).
    pub cardinality: DeclaredCardinality,
}

/// A VDM view: a named plan with a layer tag and associations.
#[derive(Debug, Clone)]
pub struct VdmView {
    pub name: String,
    pub layer: ViewLayer,
    pub plan: PlanRef,
    pub associations: Vec<Association>,
}

/// The model: all VDM views, by case-insensitive name.
#[derive(Debug, Default)]
pub struct VdmModel {
    views: HashMap<String, VdmView>,
}

impl VdmModel {
    /// Empty model.
    pub fn new() -> VdmModel {
        VdmModel::default()
    }

    /// Registers a view; consumption views may build on any layer, but a
    /// basic view may not depend on composite/consumption views — we
    /// enforce only name uniqueness here (layer discipline is a modeling
    /// convention, not a hard database rule).
    pub fn register(&mut self, view: VdmView) -> Result<()> {
        let key = view.name.to_ascii_lowercase();
        if self.views.contains_key(&key) {
            return Err(VdmError::Catalog(format!("VDM view {:?} already exists", view.name)));
        }
        self.views.insert(key, view);
        Ok(())
    }

    /// Replaces a view's plan (used by the extension mechanism: the
    /// consumption view is redefined, interim views stay untouched).
    pub fn replace_plan(&mut self, name: &str, plan: PlanRef) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let view = self
            .views
            .get_mut(&key)
            .ok_or_else(|| VdmError::Catalog(format!("unknown VDM view {name:?}")))?;
        view.plan = plan;
        Ok(())
    }

    /// Looks a view up.
    pub fn view(&self, name: &str) -> Option<&VdmView> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// Number of registered views, per layer.
    pub fn layer_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for v in self.views.values() {
            match v.layer {
                ViewLayer::Basic => counts.0 += 1,
                ViewLayer::Composite => counts.1 += 1,
                ViewLayer::Consumption => counts.2 += 1,
            }
        }
        counts
    }

    /// Creates a basic view directly over a table, exposing all columns
    /// under business-oriented names (`renames`: table column → view name).
    pub fn basic_view_over(
        &mut self,
        name: &str,
        table: Arc<TableDef>,
        renames: &[(&str, &str)],
        associations: Vec<Association>,
    ) -> Result<PlanRef> {
        let scan = LogicalPlan::scan(table);
        let schema = scan.schema();
        let exprs = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let new_name = renames
                    .iter()
                    .find(|(from, _)| from.eq_ignore_ascii_case(&f.name))
                    .map(|(_, to)| to.to_string())
                    .unwrap_or_else(|| f.name.clone());
                (Expr::col(i), new_name)
            })
            .collect();
        let plan = LogicalPlan::project(scan, exprs)?;
        self.register(VdmView {
            name: name.to_string(),
            layer: ViewLayer::Basic,
            plan: plan.clone(),
            associations,
        })?;
        Ok(plan)
    }

    /// Resolves a CDS path expression `view.assoc`: returns the view's plan
    /// augmented with a left-outer many-to-one join to the association
    /// target, exposing the target's columns after the view's own.
    pub fn resolve_association(&self, view_name: &str, assoc_name: &str) -> Result<PlanRef> {
        let view = self
            .view(view_name)
            .ok_or_else(|| VdmError::Catalog(format!("unknown VDM view {view_name:?}")))?;
        let assoc = view
            .associations
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(assoc_name))
            .ok_or_else(|| {
                VdmError::Catalog(format!("view {view_name:?} has no association {assoc_name:?}"))
            })?;
        let target = self.view(&assoc.target).map(|v| v.plan.clone()).ok_or_else(|| {
            VdmError::Catalog(format!("association target {:?} not found", assoc.target))
        })?;
        let ls = view.plan.schema();
        let rs = target.schema();
        let on = assoc
            .on
            .iter()
            .map(|(l, r)| Ok((ls.index_of_or_err(l)?, rs.index_of_or_err(r)?)))
            .collect::<Result<Vec<_>>>()?;
        LogicalPlan::join(
            view.plan.clone(),
            target,
            JoinKind::LeftOuter,
            on,
            None,
            Some(assoc.cardinality),
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn table(name: &str, cols: &[&str]) -> Arc<TableDef> {
        let mut b = TableBuilder::new(name);
        for c in cols {
            b = b.column(*c, SqlType::Int, false);
        }
        Arc::new(b.primary_key(&[cols[0]]).build().unwrap())
    }

    #[test]
    fn basic_view_renames_columns() {
        let mut m = VdmModel::new();
        let plan = m
            .basic_view_over(
                "I_Customer",
                table("kna1", &["kunnr", "land1"]),
                &[("kunnr", "Customer"), ("land1", "Country")],
                vec![],
            )
            .unwrap();
        assert_eq!(plan.schema().field(0).name, "Customer");
        assert_eq!(plan.schema().field(1).name, "Country");
        assert!(m.view("i_customer").is_some());
        assert_eq!(m.view("I_Customer").unwrap().plan.schema(), plan.schema());
    }

    #[test]
    fn association_resolution_builds_aj() {
        let mut m = VdmModel::new();
        m.basic_view_over("I_Customer", table("kna1", &["kunnr", "land1"]), &[], vec![]).unwrap();
        m.basic_view_over(
            "I_SalesOrder",
            table("vbak", &["vbeln", "kunnr"]),
            &[],
            vec![Association {
                name: "_Customer".into(),
                target: "I_Customer".into(),
                on: vec![("kunnr".into(), "kunnr".into())],
                cardinality: DeclaredCardinality::ManyToOne,
            }],
        )
        .unwrap();
        let plan = m.resolve_association("I_SalesOrder", "_Customer").unwrap();
        let stats = vdm_plan::plan_stats(&plan);
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.left_outer_joins, 1);
        assert_eq!(plan.schema().len(), 4);
        // Unknown names error.
        assert!(m.resolve_association("I_SalesOrder", "_Nope").is_err());
        assert!(m.resolve_association("nope", "_Customer").is_err());
    }

    #[test]
    fn duplicate_views_rejected_and_replace_works() {
        let mut m = VdmModel::new();
        let t = table("t", &["k"]);
        m.basic_view_over("v", Arc::clone(&t), &[], vec![]).unwrap();
        assert!(m.basic_view_over("V", t, &[], vec![]).is_err());
        let new_plan = LogicalPlan::scan(table("u", &["k"]));
        m.replace_plan("v", new_plan.clone()).unwrap();
        assert_eq!(m.view("v").unwrap().plan.schema(), new_plan.schema());
        assert!(m.replace_plan("zzz", new_plan).is_err());
    }

    #[test]
    fn layer_counts() {
        let mut m = VdmModel::new();
        m.basic_view_over("b1", table("t1", &["k"]), &[], vec![]).unwrap();
        let p = m.view("b1").unwrap().plan.clone();
        m.register(VdmView {
            name: "c1".into(),
            layer: ViewLayer::Composite,
            plan: p.clone(),
            associations: vec![],
        })
        .unwrap();
        m.register(VdmView {
            name: "q1".into(),
            layer: ViewLayer::Consumption,
            plan: p,
            associations: vec![],
        })
        .unwrap();
        assert_eq!(m.layer_counts(), (1, 1, 1));
    }
}
