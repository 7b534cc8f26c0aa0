//! Logical plan nodes and validating constructors.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vdm_catalog::TableDef;
use vdm_expr::{AggExpr, Expr};
use vdm_types::{Field, Result, Schema, SqlType, Value, VdmError};

/// Shared plan handle. Plans form DAGs: sharing a subquery is just cloning
/// the `Arc`.
pub type PlanRef = Arc<LogicalPlan>;

/// Map keyed by plan-node addresses — every per-walk memo and the property
/// cache. The keys are addresses this program handed out, so nothing is
/// gained by SipHash's flood resistance.
pub type NodeMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// Multiply-shift over the address words: the multiply spreads an
/// allocation's aligned address over the high bits, the rotate brings them
/// down to where the table takes its bucket index.
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b as usize));
    }
    fn write_usize(&mut self, word: usize) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Join kinds. The paper's augmentation-join analysis needs exactly these
/// two; other kinds (right/full outer, semi, anti) are out of scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// A declared join cardinality (§7.3): the HANA SQL extension
/// `LEFT OUTER MANY TO ONE JOIN`. Not enforced — trusted by the optimizer
/// when the `TRUST_DECLARED_CARDINALITY` capability is on, and checkable
/// against data with `vdm_model`'s verification tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclaredCardinality {
    /// Each left record matches at most one right record (`1..m : 0..1`).
    ManyToOne,
    /// Each left record matches exactly one right record (`1..m : 1..1`).
    ManyToExactOne,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub asc: bool,
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending key over a column, NULLs first.
    pub fn asc(col: usize) -> SortKey {
        SortKey { expr: Expr::col(col), asc: true, nulls_first: true }
    }

    /// Descending key over a column, NULLs last.
    pub fn desc(col: usize) -> SortKey {
        SortKey { expr: Expr::col(col), asc: false, nulls_first: false }
    }
}

static NEXT_INSTANCE: AtomicUsize = AtomicUsize::new(1);

/// The table columns a scan emits, in output order: every column in table
/// order (what the binder and every rewrite rule see), or — after the
/// optimizer's physical lowering — the narrowed list an ancestor actually
/// references. [`ScanCols::table_ordinal`] is the one place a scan output
/// ordinal turns into a table ordinal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanCols(Option<Arc<[usize]>>);

impl ScanCols {
    /// Table ordinal behind output ordinal `ord` of the scan.
    pub fn table_ordinal(&self, ord: usize) -> usize {
        self.0.as_ref().map_or(ord, |cols| cols[ord])
    }

    /// The narrowed table-ordinal list; `None` = all columns.
    pub fn narrowed(&self) -> Option<&[usize]> {
        self.0.as_deref()
    }
}

/// A logical relational operator.
///
/// Output schemas are precomputed by the constructors; expressions in every
/// node reference *child output ordinals* (for joins: left columns first,
/// then right).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan. `instance` distinguishes several scans of the same
    /// table (self joins) and identifies scans for lineage tracking; `cols`
    /// is what the scan emits (`schema` = that projection of the table's).
    Scan { table: Arc<TableDef>, instance: usize, cols: ScanCols, schema: Arc<Schema> },
    /// Literal rows (also models the empty relation of AJ 2b).
    Values { schema: Arc<Schema>, rows: Vec<Vec<Value>> },
    /// Projection: computes `exprs` over the input; output field `i` is
    /// named `exprs[i].1`.
    Project { input: PlanRef, exprs: Vec<(Expr, String)>, schema: Arc<Schema> },
    /// Filter: keeps rows where the predicate evaluates to TRUE.
    Filter { input: PlanRef, predicate: Expr },
    /// Equi join with optional residual filter over the combined schema.
    Join {
        left: PlanRef,
        right: PlanRef,
        kind: JoinKind,
        /// Equi-key pairs: (left ordinal, right ordinal in right schema).
        on: Vec<(usize, usize)>,
        /// Residual non-equi condition over `left ++ right` ordinals.
        filter: Option<Expr>,
        /// §7.3 declared cardinality, if the query spelled one.
        declared: Option<DeclaredCardinality>,
        /// §6.3 case join: the query declared ASJ intent, so the optimizer
        /// must preserve the augmenter-side UNION ALL subgraph and try ASJ
        /// elimination eagerly.
        asj_intent: bool,
        schema: Arc<Schema>,
    },
    /// Bag union of arity-compatible inputs.
    UnionAll { inputs: Vec<PlanRef>, schema: Arc<Schema> },
    /// Grouped aggregation; output = group columns then aggregates.
    Aggregate {
        input: PlanRef,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<(AggExpr, String)>,
        schema: Arc<Schema>,
    },
    /// Duplicate elimination over all columns.
    Distinct { input: PlanRef },
    /// ORDER BY.
    Sort { input: PlanRef, keys: Vec<SortKey> },
    /// LIMIT/OFFSET: skips `skip` rows, then emits at most `fetch` rows.
    Limit { input: PlanRef, skip: u64, fetch: Option<u64> },
}

impl LogicalPlan {
    /// Fresh scan of `table` with a new instance id.
    pub fn scan(table: Arc<TableDef>) -> PlanRef {
        let schema = Arc::new(table.schema.clone());
        Arc::new(LogicalPlan::Scan {
            table,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            cols: ScanCols::default(),
            schema,
        })
    }

    /// Scan instance `instance` of `table` narrowed to the table ordinals
    /// `cols`, in that order. Listing every column in table order is the
    /// all-columns scan, so it compares and hashes as [`LogicalPlan::scan`]'s.
    pub fn scan_cols(table: Arc<TableDef>, instance: usize, cols: &[usize]) -> PlanRef {
        let all = cols.len() == table.schema.len() && cols.iter().enumerate().all(|(i, c)| i == *c);
        let schema = Arc::new(table.schema.select(cols));
        let cols = ScanCols(if all { None } else { Some(cols.into()) });
        Arc::new(LogicalPlan::Scan { table, instance, cols, schema })
    }

    /// Literal rows; validates row arity against the schema.
    pub fn values(schema: Schema, rows: Vec<Vec<Value>>) -> Result<PlanRef> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(VdmError::Plan(format!(
                    "VALUES row {i} has {} fields, schema has {}",
                    r.len(),
                    schema.len()
                )));
            }
        }
        Ok(Arc::new(LogicalPlan::Values { schema: Arc::new(schema), rows }))
    }

    /// The empty relation with the given schema (AJ 2b's `R ⟕ ∅`).
    pub fn empty(schema: Schema) -> PlanRef {
        Arc::new(LogicalPlan::Values { schema: Arc::new(schema), rows: Vec::new() })
    }

    /// Projection; type-checks every expression.
    pub fn project(input: PlanRef, exprs: Vec<(Expr, String)>) -> Result<PlanRef> {
        let in_schema = input.schema();
        let mut fields = Vec::with_capacity(exprs.len());
        for (e, name) in &exprs {
            let (ty, nullable) = e.data_type(&in_schema)?;
            fields.push(Field::new(name.clone(), ty, nullable));
        }
        Ok(Arc::new(LogicalPlan::Project { input, exprs, schema: Arc::new(Schema::new(fields)) }))
    }

    /// Identity projection passing through `cols` of the input by ordinal,
    /// keeping their names.
    pub fn project_cols(input: PlanRef, cols: &[usize]) -> Result<PlanRef> {
        let schema = input.schema();
        let exprs = cols.iter().map(|&i| (Expr::col(i), schema.field(i).name.clone())).collect();
        LogicalPlan::project(input, exprs)
    }

    /// Filter; the predicate must be boolean.
    pub fn filter(input: PlanRef, predicate: Expr) -> Result<PlanRef> {
        let (ty, _) = predicate.data_type(&input.schema())?;
        if ty != SqlType::Bool {
            return Err(VdmError::Plan(format!("filter predicate must be boolean, got {ty}")));
        }
        Ok(Arc::new(LogicalPlan::Filter { input, predicate }))
    }

    /// Equi join with validation of key ordinals/types and the residual
    /// filter.
    pub fn join(
        left: PlanRef,
        right: PlanRef,
        kind: JoinKind,
        on: Vec<(usize, usize)>,
        filter: Option<Expr>,
        declared: Option<DeclaredCardinality>,
        asj_intent: bool,
    ) -> Result<PlanRef> {
        let ls = left.schema();
        let rs = right.schema();
        for &(l, r) in &on {
            if l >= ls.len() || r >= rs.len() {
                return Err(VdmError::Plan(format!(
                    "join key ({l}, {r}) out of range for schemas of {} and {} fields",
                    ls.len(),
                    rs.len()
                )));
            }
            let lt = ls.field(l).ty;
            let rt = rs.field(r).ty;
            if lt.unify(&rt).is_none() {
                return Err(VdmError::Plan(format!("join key type mismatch: {lt} vs {rt}")));
            }
        }
        let schema = Arc::new(ls.join(&rs, kind == JoinKind::LeftOuter));
        if let Some(f) = &filter {
            let (ty, _) = f.data_type(&schema)?;
            if ty != SqlType::Bool {
                return Err(VdmError::Plan("join filter must be boolean".into()));
            }
        }
        Ok(Arc::new(LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            filter,
            declared,
            asj_intent,
            schema,
        }))
    }

    /// Plain inner equi join.
    pub fn inner_join(left: PlanRef, right: PlanRef, on: Vec<(usize, usize)>) -> Result<PlanRef> {
        LogicalPlan::join(left, right, JoinKind::Inner, on, None, None, false)
    }

    /// Plain left-outer equi join.
    pub fn left_join(left: PlanRef, right: PlanRef, on: Vec<(usize, usize)>) -> Result<PlanRef> {
        LogicalPlan::join(left, right, JoinKind::LeftOuter, on, None, None, false)
    }

    /// UNION ALL; inputs must agree in arity and unify in types. Output
    /// fields take the first child's names and the unified types; a field
    /// is nullable if nullable in any child.
    pub fn union_all(inputs: Vec<PlanRef>) -> Result<PlanRef> {
        let first = inputs
            .first()
            .ok_or_else(|| VdmError::Plan("UNION ALL needs at least one input".into()))?;
        let mut fields: Vec<Field> = first.schema().fields().to_vec();
        for inp in &inputs[1..] {
            let s = inp.schema();
            if s.len() != fields.len() {
                return Err(VdmError::Plan(format!(
                    "UNION ALL arity mismatch: {} vs {}",
                    fields.len(),
                    s.len()
                )));
            }
            for (f, other) in fields.iter_mut().zip(s.fields()) {
                f.ty = f.ty.unify(&other.ty).ok_or_else(|| {
                    VdmError::Plan(format!(
                        "UNION ALL type mismatch on {:?}: {} vs {}",
                        f.name, f.ty, other.ty
                    ))
                })?;
                f.nullable |= other.nullable;
            }
        }
        Ok(Arc::new(LogicalPlan::UnionAll { inputs, schema: Arc::new(Schema::new(fields)) }))
    }

    /// Grouped aggregation.
    pub fn aggregate(
        input: PlanRef,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<(AggExpr, String)>,
    ) -> Result<PlanRef> {
        let in_schema = input.schema();
        let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
        for (e, name) in &group_by {
            let (ty, nullable) = e.data_type(&in_schema)?;
            fields.push(Field::new(name.clone(), ty, nullable));
        }
        for (a, name) in &aggs {
            let (ty, nullable) = a.data_type(&in_schema)?;
            fields.push(Field::new(name.clone(), ty, nullable));
        }
        Ok(Arc::new(LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema: Arc::new(Schema::new(fields)),
        }))
    }

    /// DISTINCT over all columns.
    pub fn distinct(input: PlanRef) -> PlanRef {
        Arc::new(LogicalPlan::Distinct { input })
    }

    /// ORDER BY; keys are type-checked.
    pub fn sort(input: PlanRef, keys: Vec<SortKey>) -> Result<PlanRef> {
        let s = input.schema();
        for k in &keys {
            k.expr.data_type(&s)?;
        }
        Ok(Arc::new(LogicalPlan::Sort { input, keys }))
    }

    /// LIMIT `fetch` OFFSET `skip`.
    pub fn limit(input: PlanRef, skip: u64, fetch: Option<u64>) -> PlanRef {
        Arc::new(LogicalPlan::Limit { input, skip, fetch })
    }

    /// The node's output schema.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::UnionAll { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Child plans in order.
    pub fn children(&self) -> Vec<&PlanRef> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// The child slots in [`LogicalPlan::children`] order.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut PlanRef> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter_mut().collect(),
        }
    }

    /// Short operator name for EXPLAIN output and stats.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::UnionAll { .. } => "UnionAll",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Distinct { .. } => "Distinct",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;

    fn customer() -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new("customer")
                .column("c_custkey", SqlType::Int, false)
                .column("c_name", SqlType::Text, false)
                .column("c_nationkey", SqlType::Int, false)
                .primary_key(&["c_custkey"])
                .build()
                .unwrap(),
        )
    }

    fn orders() -> Arc<TableDef> {
        Arc::new(
            TableBuilder::new("orders")
                .column("o_orderkey", SqlType::Int, false)
                .column("o_custkey", SqlType::Int, false)
                .primary_key(&["o_orderkey"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn scan_instances_are_distinct() {
        let t = customer();
        let a = LogicalPlan::scan(Arc::clone(&t));
        let b = LogicalPlan::scan(t);
        let (ia, ib) = match (a.as_ref(), b.as_ref()) {
            (LogicalPlan::Scan { instance: ia, .. }, LogicalPlan::Scan { instance: ib, .. }) => {
                (*ia, *ib)
            }
            _ => unreachable!(),
        };
        assert_ne!(ia, ib);
    }

    #[test]
    fn narrowed_scan_maps_ordinals_and_all_columns_is_the_plain_scan() {
        use crate::{explain, plan_digest, trace_column, unique_sets, DeriveOptions};
        let t = customer();
        let plain = LogicalPlan::scan(Arc::clone(&t));
        let LogicalPlan::Scan { instance, .. } = plain.as_ref() else { unreachable!() };
        // Every column in table order *is* the plain scan: equal, same
        // digest, same text — no un-lowered plan's digest moves.
        let all = LogicalPlan::scan_cols(Arc::clone(&t), *instance, &[0, 1, 2]);
        assert_eq!(all, plain);
        assert_eq!(plan_digest(&all), plan_digest(&plain));
        assert_eq!(explain(&all), explain(&plain));
        // (c_nationkey, c_custkey): ordinals map back through the accessor.
        let narrow = LogicalPlan::scan_cols(Arc::clone(&t), *instance, &[2, 0]);
        assert_ne!(narrow, plain);
        assert_ne!(plan_digest(&narrow), plan_digest(&plain));
        assert!(explain(&narrow).contains(&format!("Scan customer (inst {instance}) cols=2/3")));
        assert_eq!(narrow.schema().field(0).name, "c_nationkey");
        assert_eq!(trace_column(&narrow, 0).unwrap().column, 2);
        assert_eq!(trace_column(&narrow, 1).unwrap().column, 0);
        let key_at = |plan: &PlanRef| unique_sets(plan, &DeriveOptions::all());
        assert_eq!(key_at(&narrow), vec![[1].into_iter().collect()], "the key moved to output 1");
        let keyless = LogicalPlan::scan_cols(t, *instance, &[1]);
        assert!(key_at(&keyless).is_empty(), "a scan that drops its key is not unique");
    }

    #[test]
    fn join_schema_marks_outer_side_nullable() {
        let o = LogicalPlan::scan(orders());
        let c = LogicalPlan::scan(customer());
        let j = LogicalPlan::left_join(o, c, vec![(1, 0)]).unwrap();
        let s = j.schema();
        assert_eq!(s.len(), 5);
        assert!(!s.field(0).nullable);
        assert!(s.field(2).nullable, "left-outer right side must be nullable");
    }

    #[test]
    fn join_validates_keys() {
        let o = LogicalPlan::scan(orders());
        let c = LogicalPlan::scan(customer());
        assert!(LogicalPlan::inner_join(Arc::clone(&o), Arc::clone(&c), vec![(9, 0)]).is_err());
        // Type mismatch: orders.o_orderkey (Int) vs customer.c_name (Text).
        assert!(LogicalPlan::inner_join(o, c, vec![(0, 1)]).is_err());
    }

    #[test]
    fn union_all_unifies_and_validates() {
        let a = LogicalPlan::scan(orders());
        let b = LogicalPlan::scan(orders());
        let u = LogicalPlan::union_all(vec![a, b]).unwrap();
        assert_eq!(u.schema().len(), 2);
        let c = LogicalPlan::scan(customer());
        let o = LogicalPlan::scan(orders());
        assert!(LogicalPlan::union_all(vec![o, c]).is_err());
        assert!(LogicalPlan::union_all(vec![]).is_err());
    }

    #[test]
    fn project_types_exprs() {
        let o = LogicalPlan::scan(orders());
        let p = LogicalPlan::project(
            o,
            vec![(Expr::col(0), "k".into()), (Expr::col(0).eq(Expr::int(1)), "is_one".into())],
        )
        .unwrap();
        assert_eq!(p.schema().field(1).ty, SqlType::Bool);
        let o = LogicalPlan::scan(orders());
        assert!(LogicalPlan::project(o, vec![(Expr::col(7), "x".into())]).is_err());
    }

    #[test]
    fn filter_must_be_boolean() {
        let o = LogicalPlan::scan(orders());
        assert!(LogicalPlan::filter(Arc::clone(&o), Expr::col(0)).is_err());
        assert!(LogicalPlan::filter(o, Expr::col(0).eq(Expr::int(1))).is_ok());
    }

    #[test]
    fn values_arity_checked() {
        let s = Schema::new(vec![Field::new("a", SqlType::Int, false)]);
        assert!(LogicalPlan::values(s.clone(), vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        assert!(LogicalPlan::values(s, vec![vec![Value::Int(1)]]).is_ok());
    }

    #[test]
    fn aggregate_schema_layout() {
        let o = LogicalPlan::scan(orders());
        let a = LogicalPlan::aggregate(
            o,
            vec![(Expr::col(1), "cust".into())],
            vec![(AggExpr::count_star(), "n".into())],
        )
        .unwrap();
        let s = a.schema();
        assert_eq!(s.field(0).name, "cust");
        assert_eq!(s.field(1).name, "n");
        assert_eq!(s.field(1).ty, SqlType::Int);
    }
}
