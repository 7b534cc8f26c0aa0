//! Name resolution and plan construction (AST → [`LogicalPlan`]).

use crate::ast::*;
use std::collections::HashMap;
use std::sync::Arc;
use vdm_catalog::{Catalog, TableBuilder, TableDef};
use vdm_expr::{AggExpr, AggFunc, Expr, MacroDef, ScalarFunc};
use vdm_plan::{LogicalPlan, PlanRef, SortKey, ViewRegistry};
use vdm_types::{Field, Result, Schema, SqlType, Value, VdmError};

/// Expression macros by (lowercase) name (§7.2).
pub type MacroRegistry = HashMap<String, MacroDef>;

/// The binder: resolves names against the catalog, plan-view registry, and
/// macro registry, and produces logical plans. A view is bound once, when
/// it is defined; a query naming it is bound over its plan (heuristic
/// rewrite #1 in the paper's description of HANA: views are inlined).
pub struct Binder<'a> {
    pub catalog: &'a Catalog,
    pub views: &'a ViewRegistry,
    pub macros: &'a MacroRegistry,
    /// Types for `?`/`$n` placeholders, by 0-based index. Empty unless set
    /// via [`Binder::with_param_types`]; binding a statement that references
    /// `$k` with fewer than `k` types errors.
    pub param_types: &'a [SqlType],
}

/// One named relation visible in a FROM scope.
struct ScopeEntry {
    qualifier: Option<String>,
    start: usize,
    schema: Arc<Schema>,
}

/// Name-resolution scope for a FROM clause.
struct Scope {
    entries: Vec<ScopeEntry>,
}

impl Scope {
    fn single(qualifier: Option<String>, schema: Arc<Schema>) -> Scope {
        Scope { entries: vec![ScopeEntry { qualifier, start: 0, schema }] }
    }

    fn join(mut self, right: Scope) -> Scope {
        let offset = self.width();
        for mut e in right.entries {
            e.start += offset;
            self.entries.push(e);
        }
        self
    }

    fn width(&self) -> usize {
        self.entries.iter().map(|e| e.schema.len()).sum()
    }

    fn resolve(&self, parts: &[String]) -> Result<usize> {
        match parts {
            [name] => {
                let mut found = None;
                for e in &self.entries {
                    for idx in e.schema.indices_of(name) {
                        if found.is_some() {
                            return Err(VdmError::Bind(format!("ambiguous column {name:?}")));
                        }
                        found = Some(e.start + idx);
                    }
                }
                found.ok_or_else(|| VdmError::Bind(format!("unknown column {name:?}")))
            }
            [qual, name] => {
                let mut found = None;
                for e in &self.entries {
                    let matches_qual =
                        e.qualifier.as_ref().is_some_and(|q| q.eq_ignore_ascii_case(qual));
                    if !matches_qual {
                        continue;
                    }
                    if let Some(idx) = e.schema.index_of(name) {
                        if found.is_some() {
                            return Err(VdmError::Bind(format!("ambiguous column {qual}.{name}")));
                        }
                        found = Some(e.start + idx);
                    }
                }
                found.ok_or_else(|| VdmError::Bind(format!("unknown column {qual}.{name}")))
            }
            _ => Err(VdmError::Bind(format!("unsupported qualified name {parts:?}"))),
        }
    }
}

impl<'a> Binder<'a> {
    /// Creates a binder over the given metadata.
    pub fn new(
        catalog: &'a Catalog,
        views: &'a ViewRegistry,
        macros: &'a MacroRegistry,
    ) -> Binder<'a> {
        Binder { catalog, views, macros, param_types: &[] }
    }

    /// Supplies placeholder types (from a prepared statement's execute-time
    /// values) so `?`/`$n` bind as typed [`Expr::Param`] nodes.
    pub fn with_param_types(mut self, types: &'a [SqlType]) -> Binder<'a> {
        self.param_types = types;
        self
    }

    /// Binds a full SELECT statement (with unions, ordering, paging).
    pub fn bind_select(&self, stmt: &SelectStmt) -> Result<PlanRef> {
        let mut plan = self.bind_core(stmt)?;
        if !stmt.union_all.is_empty() {
            let mut arms = vec![plan];
            for arm in &stmt.union_all {
                arms.push(self.bind_core(arm)?);
            }
            plan = LogicalPlan::union_all(arms)?;
        }
        if !stmt.order_by.is_empty() {
            let schema = plan.schema();
            let keys = stmt
                .order_by
                .iter()
                .map(|(e, asc)| {
                    let col = self.resolve_output_column(e, &schema)?;
                    Ok(SortKey { expr: Expr::col(col), asc: *asc, nulls_first: *asc })
                })
                .collect::<Result<Vec<_>>>()?;
            plan = LogicalPlan::sort(plan, keys)?;
        }
        if stmt.limit.is_some() || stmt.offset.is_some() {
            plan = LogicalPlan::limit(plan, stmt.offset.unwrap_or(0), stmt.limit);
        }
        Ok(plan)
    }

    /// ORDER BY items resolve against the output schema: a name, or a
    /// 1-based position.
    fn resolve_output_column(&self, e: &AstExpr, schema: &Schema) -> Result<usize> {
        match e {
            AstExpr::Ident(parts) if parts.len() == 1 => schema.index_of_or_err(&parts[0]),
            AstExpr::Ident(parts) => schema.index_of_or_err(&parts[parts.len() - 1]),
            AstExpr::Number(n) => {
                let k: usize =
                    n.parse().map_err(|_| VdmError::Bind(format!("bad ORDER BY position {n}")))?;
                if k == 0 || k > schema.len() {
                    return Err(VdmError::Bind(format!("ORDER BY position {k} out of range")));
                }
                Ok(k - 1)
            }
            _ => Err(VdmError::Bind("ORDER BY supports output column names and positions".into())),
        }
    }

    fn bind_core(&self, stmt: &SelectStmt) -> Result<PlanRef> {
        let (mut plan, scope) = match &stmt.from {
            Some(tr) => self.bind_table_ref(tr)?,
            None => {
                // FROM-less select: one synthetic row.
                let schema = Schema::new(vec![Field::new("__dual", SqlType::Int, false)]);
                let plan = LogicalPlan::values(schema, vec![vec![Value::Int(0)]])?;
                let scope = Scope::single(None, plan.schema());
                (plan, scope)
            }
        };
        if let Some(w) = &stmt.where_clause {
            let pred = self.bind_scalar(w, &scope)?;
            plan = LogicalPlan::filter(plan, pred)?;
        }

        let is_aggregate = !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || stmt.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });

        if is_aggregate {
            self.bind_aggregate_select(stmt, plan, &scope)
        } else {
            let mut exprs: Vec<(Expr, String)> = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => {
                        for e in &scope.entries {
                            for (i, f) in e.schema.fields().iter().enumerate() {
                                exprs.push((Expr::col(e.start + i), f.name.clone()));
                            }
                        }
                    }
                    SelectItem::QualifiedWildcard(q) => {
                        let entry = scope
                            .entries
                            .iter()
                            .find(|e| {
                                e.qualifier.as_ref().is_some_and(|x| x.eq_ignore_ascii_case(q))
                            })
                            .ok_or_else(|| {
                                VdmError::Bind(format!("unknown relation alias {q:?}"))
                            })?;
                        for (i, f) in entry.schema.fields().iter().enumerate() {
                            exprs.push((Expr::col(entry.start + i), f.name.clone()));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = self.bind_scalar(expr, &scope)?;
                        exprs.push((bound, item_name(expr, alias, exprs.len())));
                    }
                }
            }
            let mut plan = LogicalPlan::project(plan, exprs)?;
            if stmt.distinct {
                plan = LogicalPlan::distinct(plan);
            }
            Ok(plan)
        }
    }

    fn bind_aggregate_select(
        &self,
        stmt: &SelectStmt,
        input: PlanRef,
        scope: &Scope,
    ) -> Result<PlanRef> {
        // 1. Bind group keys.
        let mut group_by: Vec<(Expr, String)> = Vec::new();
        for (i, g) in stmt.group_by.iter().enumerate() {
            let bound = self.bind_scalar(g, scope)?;
            group_by.push((bound, item_name(g, &None, i)));
        }
        let ng = group_by.len();
        // 2. Collect aggregates from the select list and HAVING.
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut post_items: Vec<(Expr, String)> = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let post = self.bind_post(expr, scope, &stmt.group_by, &group_by, &mut aggs)?;
                    post_items.push((post, item_name(expr, alias, post_items.len())));
                }
                _ => {
                    return Err(VdmError::Bind(
                        "wildcards are not allowed in aggregate queries".into(),
                    ))
                }
            }
        }
        let having = stmt
            .having
            .as_ref()
            .map(|h| self.bind_post(h, scope, &stmt.group_by, &group_by, &mut aggs))
            .transpose()?;
        // 3. Build Aggregate node.
        let agg_named: Vec<(AggExpr, String)> =
            aggs.iter().enumerate().map(|(i, a)| (a.clone(), format!("__agg_{i}"))).collect();
        let mut plan = LogicalPlan::aggregate(input, group_by, agg_named)?;
        // 4. HAVING filters the grouped rows.
        if let Some(h) = having {
            plan = LogicalPlan::filter(plan, h)?;
        }
        // 5. Final projection computes post-aggregate expressions.
        let _ = ng;
        let mut plan = LogicalPlan::project(plan, post_items)?;
        if stmt.distinct {
            plan = LogicalPlan::distinct(plan);
        }
        Ok(plan)
    }

    /// Binds an expression *above* the aggregation: group-key references
    /// become group columns, aggregate calls become aggregate slots, macros
    /// expand, and anything else must be constant or derived from those.
    fn bind_post(
        &self,
        e: &AstExpr,
        scope: &Scope,
        group_ast: &[AstExpr],
        group_bound: &[(Expr, String)],
        aggs: &mut Vec<AggExpr>,
    ) -> Result<Expr> {
        let ng = group_bound.len();
        // Whole-expression match against a group key.
        if let Some(i) = group_ast.iter().position(|g| g == e) {
            return Ok(Expr::col(i));
        }
        match e {
            AstExpr::PrecisionLoss(inner) => {
                let bound = self.bind_post(inner, scope, group_ast, group_bound, aggs)?;
                // Mark every aggregate referenced under the wrapper.
                let mut slots = std::collections::BTreeSet::new();
                bound.referenced_columns(&mut slots);
                for s in slots {
                    if s >= ng {
                        aggs[s - ng].allow_precision_loss = true;
                    }
                }
                Ok(bound)
            }
            AstExpr::MacroRef(name) => {
                let def = self
                    .macros
                    .get(&name.to_ascii_lowercase())
                    .ok_or_else(|| VdmError::Bind(format!("unknown expression macro {name:?}")))?;
                // Macro aggregate arguments are recorded against the
                // defining view's output; they are valid here only when the
                // FROM clause is that (single) relation at offset 0.
                if scope.entries.len() != 1 {
                    return Err(VdmError::Bind(format!(
                        "EXPRESSION_MACRO({name}) requires the defining view as the only FROM relation"
                    )));
                }
                let body = def.expand(aggs);
                Ok(body.remap_columns(&|slot| ng + slot))
            }
            AstExpr::Func { name, args, distinct } => {
                if let Some(func) = agg_func_by_name(name) {
                    let agg = self.bind_agg_call(func, args, *distinct, scope)?;
                    let slot = match aggs.iter().position(|a| *a == agg) {
                        Some(s) => s,
                        None => {
                            aggs.push(agg);
                            aggs.len() - 1
                        }
                    };
                    return Ok(Expr::col(ng + slot));
                }
                // Scalar function over post-aggregate arguments.
                let bound = args
                    .iter()
                    .map(|a| self.bind_post(a, scope, group_ast, group_bound, aggs))
                    .collect::<Result<Vec<_>>>()?;
                self.finish_scalar_func(name, bound)
            }
            AstExpr::Binary { op, left, right } => {
                let l = self.bind_post(left, scope, group_ast, group_bound, aggs)?;
                let r = self.bind_post(right, scope, group_ast, group_bound, aggs)?;
                Ok(l.binary(op.to_binop(), r))
            }
            AstExpr::Not(inner) => Ok(Expr::Not(Box::new(self.bind_post(
                inner,
                scope,
                group_ast,
                group_bound,
                aggs,
            )?))),
            AstExpr::IsNull { expr, negated } => {
                let inner = Box::new(self.bind_post(expr, scope, group_ast, group_bound, aggs)?);
                Ok(if *negated { Expr::IsNotNull(inner) } else { Expr::IsNull(inner) })
            }
            AstExpr::InList { expr, list, negated } => {
                let e = self.bind_post(expr, scope, group_ast, group_bound, aggs)?;
                let items = list
                    .iter()
                    .map(|x| self.bind_post(x, scope, group_ast, group_bound, aggs))
                    .collect::<Result<Vec<_>>>()?;
                Ok(desugar_in(e, items, *negated))
            }
            AstExpr::Between { expr, low, high, negated } => {
                let e = self.bind_post(expr, scope, group_ast, group_bound, aggs)?;
                let lo = self.bind_post(low, scope, group_ast, group_bound, aggs)?;
                let hi = self.bind_post(high, scope, group_ast, group_bound, aggs)?;
                Ok(desugar_between(e, lo, hi, *negated))
            }
            AstExpr::Case { branches, else_expr } => {
                let bs = branches
                    .iter()
                    .map(|(c, v)| {
                        Ok((
                            self.bind_post(c, scope, group_ast, group_bound, aggs)?,
                            self.bind_post(v, scope, group_ast, group_bound, aggs)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let el = else_expr
                    .as_ref()
                    .map(|x| self.bind_post(x, scope, group_ast, group_bound, aggs))
                    .transpose()?
                    .map(Box::new);
                Ok(Expr::Case { branches: bs, else_expr: el })
            }
            AstExpr::Cast { expr, type_name, scale } => {
                let inner = self.bind_post(expr, scope, group_ast, group_bound, aggs)?;
                Ok(Expr::Cast { expr: Box::new(inner), ty: sql_type(type_name, *scale)? })
            }
            AstExpr::Number(_)
            | AstExpr::Str(_)
            | AstExpr::Bool(_)
            | AstExpr::Null
            | AstExpr::Param(_) => self.bind_scalar(e, scope),
            AstExpr::Ident(parts) => {
                // Bare column: legal only if it matches a group key's bound
                // form (e.g. GROUP BY t.c, select c).
                let bound = Expr::col(scope.resolve(parts)?);
                if let Some(i) = group_bound.iter().position(|(g, _)| *g == bound) {
                    return Ok(Expr::col(i));
                }
                Err(VdmError::Bind(format!(
                    "column {} must appear in GROUP BY or inside an aggregate",
                    parts.join(".")
                )))
            }
            AstExpr::Star => Err(VdmError::Bind("`*` is only valid in COUNT(*)".into())),
        }
    }

    fn bind_agg_call(
        &self,
        func: AggFunc,
        args: &[AstExpr],
        distinct: bool,
        scope: &Scope,
    ) -> Result<AggExpr> {
        if func == AggFunc::Count && args.len() == 1 && matches!(args[0], AstExpr::Star) {
            if distinct {
                return Err(VdmError::Bind("COUNT(DISTINCT *) is not valid".into()));
            }
            return Ok(AggExpr::count_star());
        }
        if args.len() != 1 {
            return Err(VdmError::Bind(format!("{} takes exactly one argument", func.name())));
        }
        let arg = self.bind_scalar(&args[0], scope)?;
        let mut agg = AggExpr::new(func, arg);
        agg.distinct = distinct;
        Ok(agg)
    }

    /// Binds a scalar expression over a FROM scope (WHERE, ON, GROUP BY,
    /// aggregate arguments). Aggregate calls are rejected here.
    fn bind_scalar(&self, e: &AstExpr, scope: &Scope) -> Result<Expr> {
        match e {
            AstExpr::Ident(parts) => Ok(Expr::col(scope.resolve(parts)?)),
            AstExpr::Number(n) => literal(n),
            AstExpr::Str(s) => Ok(Expr::Lit(Value::str(s.clone()))),
            AstExpr::Bool(b) => Ok(Expr::boolean(*b)),
            AstExpr::Null => Ok(Expr::Lit(Value::Null)),
            AstExpr::Param(idx) => self.param_expr(*idx),
            AstExpr::Star => Err(VdmError::Bind("`*` is only valid in COUNT(*)".into())),
            AstExpr::Binary { op, left, right } => {
                let l = self.bind_scalar(left, scope)?;
                let r = self.bind_scalar(right, scope)?;
                Ok(l.binary(op.to_binop(), r))
            }
            AstExpr::Not(inner) => Ok(Expr::Not(Box::new(self.bind_scalar(inner, scope)?))),
            AstExpr::IsNull { expr, negated } => {
                let inner = Box::new(self.bind_scalar(expr, scope)?);
                Ok(if *negated { Expr::IsNotNull(inner) } else { Expr::IsNull(inner) })
            }
            AstExpr::InList { expr, list, negated } => {
                let e = self.bind_scalar(expr, scope)?;
                let items =
                    list.iter().map(|x| self.bind_scalar(x, scope)).collect::<Result<Vec<_>>>()?;
                Ok(desugar_in(e, items, *negated))
            }
            AstExpr::Between { expr, low, high, negated } => {
                let e = self.bind_scalar(expr, scope)?;
                let lo = self.bind_scalar(low, scope)?;
                let hi = self.bind_scalar(high, scope)?;
                Ok(desugar_between(e, lo, hi, *negated))
            }
            AstExpr::Case { branches, else_expr } => {
                let bs = branches
                    .iter()
                    .map(|(c, v)| Ok((self.bind_scalar(c, scope)?, self.bind_scalar(v, scope)?)))
                    .collect::<Result<Vec<_>>>()?;
                let el = else_expr
                    .as_ref()
                    .map(|x| self.bind_scalar(x, scope))
                    .transpose()?
                    .map(Box::new);
                Ok(Expr::Case { branches: bs, else_expr: el })
            }
            AstExpr::Func { name, args, distinct } => {
                if agg_func_by_name(name).is_some() {
                    return Err(VdmError::Bind(format!("aggregate {name} is not allowed here")));
                }
                if *distinct {
                    return Err(VdmError::Bind("DISTINCT only applies to aggregates".into()));
                }
                let bound =
                    args.iter().map(|a| self.bind_scalar(a, scope)).collect::<Result<Vec<_>>>()?;
                self.finish_scalar_func(name, bound)
            }
            AstExpr::Cast { expr, type_name, scale } => {
                let inner = self.bind_scalar(expr, scope)?;
                Ok(Expr::Cast { expr: Box::new(inner), ty: sql_type(type_name, *scale)? })
            }
            AstExpr::PrecisionLoss(_) => Err(VdmError::Bind(
                "ALLOW_PRECISION_LOSS wraps aggregates in the select list".into(),
            )),
            AstExpr::MacroRef(name) => Err(VdmError::Bind(format!(
                "EXPRESSION_MACRO({name}) is only valid in an aggregating select list"
            ))),
        }
    }

    fn param_expr(&self, idx: usize) -> Result<Expr> {
        match self.param_types.get(idx) {
            Some(ty) => Ok(Expr::Param { idx, ty: *ty }),
            None => Err(VdmError::Bind(format!(
                "statement references parameter ${} but only {} parameter value(s) were supplied",
                idx + 1,
                self.param_types.len()
            ))),
        }
    }

    fn finish_scalar_func(&self, name: &str, args: Vec<Expr>) -> Result<Expr> {
        let func = ScalarFunc::by_name(name)
            .ok_or_else(|| VdmError::Bind(format!("unknown function {name:?}")))?;
        Ok(Expr::Func { func, args })
    }

    // --------------------------------------------------------- FROM

    fn bind_table_ref(&self, tr: &TableRef) -> Result<(PlanRef, Scope)> {
        match tr {
            TableRef::Named { name, alias } => {
                let qualifier = Some(alias.clone().unwrap_or_else(|| name.clone()));
                // A table, else a view: the registered plan itself, so a
                // view named twice is one shared subplan.
                let plan = match self.catalog.table(name) {
                    Some(table) => LogicalPlan::scan(table),
                    None => self
                        .views
                        .get(name)
                        .ok_or_else(|| VdmError::Bind(format!("unknown relation {name:?}")))?,
                };
                let scope = Scope::single(qualifier, plan.schema());
                Ok((plan, scope))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.bind_select(query)?;
                let scope = Scope::single(Some(alias.clone()), plan.schema());
                Ok((plan, scope))
            }
            TableRef::Join { left, right, kind, cardinality, case_join, on } => {
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let nl = ls.width();
                let scope = ls.join(rs);
                let on_expr = on.as_ref().map(|e| self.bind_scalar(e, &scope)).transpose()?;
                // Split conjunctions into equi-key pairs vs residual filter.
                let mut pairs = Vec::new();
                let mut residual = Vec::new();
                if let Some(cond) = on_expr {
                    for c in vdm_expr::predicate::split_conjunction(&cond) {
                        match as_equi_pair(c, nl) {
                            Some(p) => pairs.push(p),
                            None => residual.push(c.clone()),
                        }
                    }
                }
                let plan_kind = match kind {
                    AstJoinKind::Inner => vdm_plan::JoinKind::Inner,
                    AstJoinKind::LeftOuter => vdm_plan::JoinKind::LeftOuter,
                };
                let filter =
                    if residual.is_empty() { None } else { Some(Expr::conjunction(residual)) };
                let plan =
                    LogicalPlan::join(lp, rp, plan_kind, pairs, filter, *cardinality, *case_join)?;
                Ok((plan, scope))
            }
        }
    }

    // ----------------------------------------------------- DDL helpers

    /// Converts a parsed CREATE TABLE into a [`TableDef`].
    pub fn table_def(&self, ast: &CreateTable) -> Result<TableDef> {
        let mut b = TableBuilder::new(ast.name.clone());
        for c in &ast.columns {
            let implicit_pk = ast.primary_key.iter().any(|k| k.eq_ignore_ascii_case(&c.name));
            b = b.column(
                c.name.clone(),
                sql_type(&c.type_name, c.scale)?,
                !(c.not_null || implicit_pk),
            );
        }
        if !ast.primary_key.is_empty() {
            let keys: Vec<&str> = ast.primary_key.iter().map(|s| s.as_str()).collect();
            b = b.primary_key(&keys);
        }
        for u in &ast.uniques {
            let cols: Vec<&str> = u.iter().map(|s| s.as_str()).collect();
            b = b.unique(&cols);
        }
        for (cols, ref_table, ref_cols) in &ast.foreign_keys {
            let c: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            let r: Vec<&str> = ref_cols.iter().map(|s| s.as_str()).collect();
            b = b.foreign_key(&c, ref_table, &r);
        }
        b.build()
    }

    /// Binds a CREATE VIEW macro declaration against the view's output
    /// schema, producing a registrable [`MacroDef`].
    pub fn bind_macro(&self, ast: &MacroAst, view_schema: &Arc<Schema>) -> Result<MacroDef> {
        let scope = Scope::single(None, Arc::clone(view_schema));
        let mut aggs = Vec::new();
        let body = self.bind_post(&ast.body, &scope, &[], &[], &mut aggs)?;
        // Body references aggregate slots at offset ng = 0.
        let def = MacroDef { name: ast.name.clone(), body, aggs };
        def.validate()?;
        Ok(def)
    }

    /// Evaluates INSERT literal rows against a table definition, reordering
    /// named columns and filling omitted ones with NULL.
    pub fn insert_rows(
        &self,
        table: &TableDef,
        columns: &Option<Vec<String>>,
        rows: &[Vec<AstExpr>],
    ) -> Result<Vec<Vec<Value>>> {
        let width = table.schema.len();
        let positions: Vec<usize> = match columns {
            Some(names) => {
                names.iter().map(|n| table.schema.index_of_or_err(n)).collect::<Result<_>>()?
            }
            None => (0..width).collect(),
        };
        let scope = Scope::single(None, Arc::new(Schema::empty()));
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != positions.len() {
                return Err(VdmError::Bind(format!(
                    "INSERT row has {} values, expected {}",
                    row.len(),
                    positions.len()
                )));
            }
            let mut values = vec![Value::Null; width];
            for (ast, &pos) in row.iter().zip(&positions) {
                let bound = self.bind_scalar(ast, &scope)?;
                values[pos] = bound
                    .eval_row(&[])
                    .map_err(|e| VdmError::Bind(format!("INSERT values must be constant: {e}")))?;
            }
            out.push(values);
        }
        Ok(out)
    }
}

/// Desugars `x [NOT] IN (v1, ...)`: an OR chain of equalities, or an AND
/// chain of inequalities under NOT (matching SQL's NULL semantics).
fn desugar_in(e: Expr, items: Vec<Expr>, negated: bool) -> Expr {
    let mut it = items.into_iter();
    let first = match it.next() {
        Some(v) => v,
        None => return Expr::boolean(negated),
    };
    if negated {
        let head = e.clone().binary(vdm_expr::BinOp::NotEq, first);
        it.fold(head, |acc, v| acc.and(e.clone().binary(vdm_expr::BinOp::NotEq, v)))
    } else {
        let head = e.clone().eq(first);
        it.fold(head, |acc, v| acc.or(e.clone().eq(v)))
    }
}

/// Desugars `x [NOT] BETWEEN lo AND hi` into range comparisons.
fn desugar_between(e: Expr, lo: Expr, hi: Expr, negated: bool) -> Expr {
    if negated {
        e.clone().binary(vdm_expr::BinOp::Lt, lo).or(e.binary(vdm_expr::BinOp::Gt, hi))
    } else {
        e.clone().binary(vdm_expr::BinOp::GtEq, lo).and(e.binary(vdm_expr::BinOp::LtEq, hi))
    }
}

/// Recognizes `left-col = right-col` equi-join conjuncts.
fn as_equi_pair(e: &Expr, nl: usize) -> Option<(usize, usize)> {
    if let Expr::Binary { op: vdm_expr::BinOp::Eq, left, right } = e {
        if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
            if *a < nl && *b >= nl {
                return Some((*a, *b - nl));
            }
            if *b < nl && *a >= nl {
                return Some((*b, *a - nl));
            }
        }
    }
    None
}

fn agg_func_by_name(name: &str) -> Option<AggFunc> {
    let n = name.to_ascii_uppercase();
    Some(match n.as_str() {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "AVG" => AggFunc::Avg,
        _ => return None,
    })
}

fn literal(n: &str) -> Result<Expr> {
    if n.contains('.') {
        Ok(Expr::Lit(Value::Dec(n.parse()?)))
    } else {
        n.parse::<i64>()
            .map(Expr::int)
            .map_err(|_| VdmError::Bind(format!("integer literal {n} overflows")))
    }
}

fn sql_type(name: &str, scale: Option<u8>) -> Result<SqlType> {
    let n = name.to_ascii_uppercase();
    Ok(match n.as_str() {
        "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => SqlType::Int,
        "DECIMAL" | "NUMERIC" => SqlType::Decimal { scale: scale.unwrap_or(0) },
        "TEXT" | "VARCHAR" | "CHAR" | "NVARCHAR" | "STRING" => SqlType::Text,
        "BOOLEAN" | "BOOL" => SqlType::Bool,
        "DATE" => SqlType::Date,
        other => return Err(VdmError::Bind(format!("unknown type {other}"))),
    })
}

/// True when the expression contains an aggregate call, a macro reference,
/// or an `ALLOW_PRECISION_LOSS` wrapper — anything forcing an Aggregate node.
fn contains_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Func { name, args, .. } => {
            agg_func_by_name(name).is_some() || args.iter().any(contains_aggregate)
        }
        AstExpr::PrecisionLoss(_) | AstExpr::MacroRef(_) => true,
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Not(x) => contains_aggregate(x),
        AstExpr::IsNull { expr, .. } => contains_aggregate(expr),
        AstExpr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        AstExpr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        AstExpr::Case { branches, else_expr } => {
            branches.iter().any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || else_expr.as_ref().is_some_and(|x| contains_aggregate(x))
        }
        AstExpr::Cast { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

/// Output-column naming: alias, else identifier tail, else `col_i`.
fn item_name(e: &AstExpr, alias: &Option<String>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match e {
        AstExpr::Ident(parts) => parts.last().cloned().unwrap_or_else(|| format!("col_{idx}")),
        AstExpr::Func { name, .. } => name.to_ascii_lowercase(),
        AstExpr::MacroRef(name) => name.clone(),
        _ => format!("col_{idx}"),
    }
}

#[cfg(test)]
#[path = "binder/tests.rs"]
mod tests;
