//! Tight columnar kernels shared by the engine's operators and the
//! signed-delta evaluator.
//!
//! Three families live here, all safe Rust tuned so the compiler can
//! auto-vectorize the inner loops (plain index arithmetic over typed
//! payload slices, no `unsafe` SIMD intrinsics):
//!
//! * **hashing** — [`mix64`], [`FxHasher`], [`hash_keys`], [`cells_equal`],
//!   re-exported from `vdm_storage::hash` (shared with the key index);
//! * **filtering** — [`FilterKernel`], the one predicate evaluator: trees
//!   of `AND` / `OR` / `IS [NOT] NULL` over `col ⟨cmp⟩ literal` atoms
//!   evaluate column-at-a-time into one TRUE-mask over typed payloads (an
//!   `OR` of `=` atoms on one column as a single membership test); anything
//!   else evaluates row-wise through [`RowScratch`], which materializes
//!   only the columns the expression references. Either way a caller's
//!   selection vector goes in and a refined one comes out;
//! * **projection** — [`project_rows`]: a plain column reference gathers,
//!   a computed expression evaluates row-wise (also through [`RowScratch`]).
//!
//! Hashes are consistent with [`Value`] equality only within one physical
//! column type: see `vdm_storage::hash` for the cross-batch contract.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use vdm_expr::{predicate, BinOp, Expr};
use vdm_storage::{Batch, Column, ColumnData, MaskFn};
use vdm_types::{Decimal, Result, Schema, Value};

// The one typed hash lives beside `Column` in `vdm-storage`.
pub use vdm_storage::hash::{cells_equal, hash_keys, hash_values, mix64, FxHasher};

// ---------------------------------------------------------------------------
// Predicate evaluation.

/// The columnar form of a predicate: any tree of `AND` / `OR` /
/// `IS [NOT] NULL` over `col ⟨cmp⟩ literal` atoms. Each node evaluates to
/// the mask of rows on which it is TRUE, so OR is a union and AND an
/// intersection — exact under three-valued logic because a filter keeps
/// TRUE only (`NULL OR TRUE` is TRUE, `NULL AND FALSE` is not), and none of
/// these nodes can raise an error.
#[derive(Debug)]
enum Pred {
    Atom(predicate::Atom),
    /// `col = v₁ OR col = v₂ OR …` — the paper's DAC predicate — as one
    /// membership test: the `=` atoms of an `OR` on one column, literals all INT
    /// or all TEXT. `runs`: the INT literals as sorted, coalesced inclusive ranges.
    AnyOf {
        atoms: Vec<predicate::Atom>,
        runs: Vec<(i64, i64)>,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    And(Vec<Pred>),
    Or(Vec<Pred>),
}

#[inline]
fn keep(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::NotEq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::LtEq => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::GtEq => ord != Less,
        _ => false,
    }
}

/// How a node's verdict lands in the mask under construction.
#[derive(Clone, Copy, PartialEq)]
enum Fold {
    Set,
    And,
    Or,
}

/// A leaf's target: buffer, how, validity (a NULL is UNKNOWN: it folds in FALSE).
type Target<'m> = (&'m mut [bool], Fold, Option<&'m [bool]>);

fn fold_into((out, how, valid): Target<'_>, tests: impl Iterator<Item = bool>) {
    fn fold(out: &mut [bool], how: Fold, tests: impl Iterator<Item = bool>) {
        match how {
            Fold::Set => out.iter_mut().zip(tests).for_each(|(o, t)| *o = t),
            Fold::And => out.iter_mut().zip(tests).for_each(|(o, t)| *o &= t),
            Fold::Or => out.iter_mut().zip(tests).for_each(|(o, t)| *o |= t),
        }
    }
    match valid {
        Some(valid) => fold(out, how, tests.zip(valid).map(|(t, ok)| t & ok)),
        None => fold(out, how, tests),
    }
}

/// A test on string content: once per dictionary entry, then per code — or
/// per row, when the run is shorter than the dictionary (a table's main
/// fragment). NULL slots carry code 0 over a possibly empty dictionary.
fn fold_str(
    s: &vdm_storage::column::StrColumn,
    rows: Range<usize>,
    target: Target<'_>,
    test: impl Fn(&str) -> bool,
) {
    let codes = s.codes[rows].iter();
    if s.dict.len() > codes.len() {
        fold_into(target, codes.map(|&c| s.dict.get(c as usize).is_some_and(|d| test(d))));
    } else {
        let verdict: Vec<bool> = s.dict.iter().map(|d| test(d)).collect();
        fold_into(target, codes.map(|&c| verdict.get(c as usize) == Some(&true)));
    }
}

/// The `=` atoms among an `OR`'s operands, grouped per column and literal
/// type into [`Pred::AnyOf`]s (an `OR` commutes, and no operand can raise).
fn fold_equalities(parts: Vec<Pred>) -> Vec<Pred> {
    let mut groups: BTreeMap<(usize, bool), Vec<predicate::Atom>> = BTreeMap::new();
    let mut out = Vec::new();
    for part in parts {
        match part {
            Pred::Atom(a)
                if a.op == BinOp::Eq && matches!(a.value, Value::Int(_) | Value::Str(_)) =>
            {
                groups.entry((a.col, matches!(a.value, Value::Int(_)))).or_default().push(a)
            }
            other => out.push(other),
        }
    }
    for atoms in groups.into_values() {
        let mut ints: Vec<i64> = atoms.iter().filter_map(|a| a.value.as_int().ok()).collect();
        ints.sort_unstable();
        let mut runs: Vec<(i64, i64)> = Vec::new();
        for x in ints {
            match runs.last_mut() {
                Some(run) if x <= run.1.saturating_add(1) => run.1 = x,
                _ => runs.push((x, x)),
            }
        }
        out.push(Pred::AnyOf { atoms, runs });
    }
    out
}

impl Pred {
    /// `None` for any other shape (arithmetic, CASE, functions, NOT,
    /// column-to-column comparisons): the caller evaluates row-wise.
    fn compile(e: &Expr) -> Option<Pred> {
        match e {
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
                let mut parts = Vec::new();
                for side in [left, right] {
                    match (Pred::compile(side)?, op) {
                        // Flatten left-deep chains: one pass per operand.
                        (Pred::And(inner), BinOp::And) | (Pred::Or(inner), BinOp::Or) => {
                            parts.extend(inner)
                        }
                        (other, _) => parts.push(other),
                    }
                }
                Some(if *op == BinOp::And { Pred::And(parts) } else { Pred::Or(parts) })
            }
            Expr::IsNull(inner) | Expr::IsNotNull(inner) => match inner.as_ref() {
                Expr::Col(col) => {
                    Some(Pred::IsNull { col: *col, negated: matches!(e, Expr::IsNotNull(_)) })
                }
                _ => None,
            },
            _ => predicate::as_atom(e).map(Pred::Atom),
        }
    }

    /// Every `OR`'s same-column `=` atoms folded — once, after flattening.
    fn folded(self) -> Pred {
        match self {
            Pred::And(parts) => Pred::And(parts.into_iter().map(Pred::folded).collect()),
            Pred::Or(parts) => {
                Pred::Or(fold_equalities(parts.into_iter().map(Pred::folded).collect()))
            }
            leaf => leaf,
        }
    }

    /// `mask[k]` ⇔ the predicate is TRUE on row `rows.start + k` of
    /// `columns`. `None` when a column's physical type doesn't pair with its
    /// literal.
    fn mask(&self, columns: &[&Column], rows: Range<usize>) -> Option<Vec<bool>> {
        let mut out = vec![false; rows.len()];
        self.accumulate(columns, rows, Fold::Set, &mut out)?;
        Some(out)
    }

    /// Folds this node's TRUE-mask over `rows` into `out`: the operands of an
    /// `AND` / `OR` accumulate into the one buffer, and only an alternation
    /// nested the other way round takes a buffer of its own.
    fn accumulate(
        &self,
        columns: &[&Column],
        rows: Range<usize>,
        how: Fold,
        out: &mut [bool],
    ) -> Option<()> {
        let valid = |c: usize| columns[c].validity().map(|v| &v[rows.clone()]);
        match self {
            Pred::Atom(atom) => {
                atom_mask(atom, columns[atom.col], rows.clone(), (out, how, valid(atom.col)))?
            }
            Pred::AnyOf { atoms, runs } => {
                let col = atoms[0].col;
                any_of_mask(atoms, runs, columns[col], rows.clone(), (out, how, valid(col)))?
            }
            Pred::IsNull { col, negated } => match valid(*col) {
                Some(valid) => fold_into((out, how, None), valid.iter().map(|ok| ok == negated)),
                None => fold_into((out, how, None), rows.map(|_| *negated)),
            },
            Pred::And(parts) | Pred::Or(parts) => {
                let inner = if matches!(self, Pred::And(_)) { Fold::And } else { Fold::Or };
                if how != Fold::Set && how != inner {
                    let own = self.mask(columns, rows)?;
                    fold_into((out, how, None), own.into_iter());
                    return Some(());
                }
                for (n, part) in parts.iter().enumerate() {
                    let how = if n == 0 { how } else { inner };
                    part.accumulate(columns, rows.clone(), how, out)?;
                }
            }
        }
        Some(())
    }
}

/// One atom over typed payloads: a dense comparison loop per physical
/// type. Numeric cross-type pairs (INT column against a DECIMAL literal and
/// the reverse) compare through [`Decimal`], as [`Value::sql_cmp`] does.
fn atom_mask(
    atom: &predicate::Atom,
    col: &Column,
    r: Range<usize>,
    target: Target<'_>,
) -> Option<()> {
    let cmp = |ord| keep(atom.op, ord);
    match (col.data(), &atom.value) {
        (ColumnData::Int(v), Value::Int(rhs)) => {
            fold_into(target, v[r].iter().map(|x| cmp(x.cmp(rhs))))
        }
        (ColumnData::Int(v), Value::Dec(rhs)) => {
            fold_into(target, v[r].iter().map(|x| cmp(Decimal::from_int(*x).cmp(rhs))))
        }
        (ColumnData::Dec { units, scale }, Value::Dec(_) | Value::Int(_)) => {
            let rhs = atom.value.as_dec().ok()?;
            let lhs = units[r].iter().map(|u| Decimal::from_units(*u, *scale));
            fold_into(target, lhs.map(|x| cmp(x.cmp(&rhs))))
        }
        (ColumnData::Date(v), Value::Date(rhs)) => {
            fold_into(target, v[r].iter().map(|x| cmp(x.cmp(rhs))))
        }
        (ColumnData::Bool(v), Value::Bool(rhs)) => {
            fold_into(target, v[r].iter().map(|x| cmp(x.cmp(rhs))))
        }
        (ColumnData::Str(s), Value::Str(rhs)) => {
            fold_str(s, r, target, |d| cmp(d.cmp(rhs.as_ref())))
        }
        _ => return None,
    }
    Some(())
}

/// `col ∈ {literals of atoms}` in one pass: INT payloads test the coalesced
/// `runs` (a contiguous code list is one range test), strings each dictionary
/// entry once; an INT list over a DECIMAL column compares literal by literal.
fn any_of_mask(
    atoms: &[predicate::Atom],
    runs: &[(i64, i64)],
    col: &Column,
    r: Range<usize>,
    target: Target<'_>,
) -> Option<()> {
    let ints = !runs.is_empty();
    match col.data() {
        ColumnData::Int(v) if ints => {
            // Branch-free: the verdict must not depend on a predicted jump.
            let member =
                |x: &i64| runs.iter().fold(false, |m, (lo, hi)| m | ((lo <= x) & (x <= hi)));
            fold_into(target, v[r].iter().map(member))
        }
        ColumnData::Dec { units, scale } if ints => {
            let literals: Vec<Decimal> =
                atoms.iter().filter_map(|a| a.value.as_dec().ok()).collect();
            let member = |x: Decimal| literals.iter().any(|l| x.cmp(l).is_eq());
            fold_into(target, units[r].iter().map(|u| member(Decimal::from_units(*u, *scale))))
        }
        ColumnData::Str(s) if !ints => fold_str(s, r, target, |d| {
            atoms.iter().any(|a| matches!(&a.value, Value::Str(v) if v.as_ref() == d))
        }),
        _ => return None,
    }
    Some(())
}

/// The one place the executor turns columns back into a `Value` row: a
/// scratch row as wide as the input in which only the ordinals `exprs`
/// reference are ever loaded (the rest stay NULL, unread). Filters that do
/// not compile, computed projections, aggregate arguments, sort keys and join
/// residuals evaluate through it: row-wise costs the columns touched, not the width.
pub struct RowScratch {
    cols: Vec<usize>,
    row: Vec<Value>,
}

impl RowScratch {
    /// Scratch for evaluating `exprs` over inputs `width` columns wide.
    pub fn new<'e>(exprs: impl IntoIterator<Item = &'e Expr>, width: usize) -> RowScratch {
        let mut cols = std::collections::BTreeSet::new();
        for e in exprs {
            e.referenced_columns(&mut cols);
        }
        RowScratch { cols: cols.into_iter().collect(), row: vec![Value::Null; width] }
    }

    /// Loads the referenced ordinals from `value_at` and returns the row.
    pub fn load(&mut self, value_at: impl Fn(usize) -> Value) -> &[Value] {
        for &c in &self.cols {
            self.row[c] = value_at(c);
        }
        &self.row
    }
}

/// A filter operator's predicate, prepared once per operator and applied to
/// every morsel — the executor's one predicate evaluator: column-at-a-time
/// over typed payloads when the predicate is a tree of `AND` / `OR` /
/// `IS [NOT] NULL` over `col ⟨cmp⟩ literal` atoms, row-wise over its referenced
/// columns otherwise (or on a type mismatch). Both mirror `Expr::eval_row`.
pub struct FilterKernel<'e> {
    predicate: &'e Expr,
    columnar: Option<Pred>,
}

impl<'e> FilterKernel<'e> {
    /// Prepares `predicate` (compiles it when it has the tree shape).
    pub fn new(predicate: &'e Expr) -> FilterKernel<'e> {
        FilterKernel { predicate, columnar: Pred::compile(predicate).map(Pred::folded) }
    }

    /// The rows on which the predicate is TRUE, ascending, out of `sel`
    /// (ascending rows of `span`; `None` = all). The columnar form evaluates
    /// dense over `span` and intersects — it cannot raise; the row-wise form
    /// evaluates the selected rows only.
    pub fn select(
        &self,
        columns: &[&Column],
        span: Range<usize>,
        sel: Option<&[usize]>,
    ) -> Result<Vec<usize>> {
        let all: Vec<usize>;
        let candidates = match sel {
            Some(sel) => sel,
            None => {
                all = span.clone().collect();
                &all
            }
        };
        if let Some(mask) = self.columnar.as_ref().and_then(|p| p.mask(columns, span.clone())) {
            // Branch-free compaction: every candidate is written, and only a
            // kept one advances the cursor.
            let mut keep = vec![0usize; candidates.len() + 1];
            let mut kept = 0usize;
            for &i in candidates {
                keep[kept] = i;
                kept += mask[i - span.start] as usize;
            }
            keep.truncate(kept);
            return Ok(keep);
        }
        let mut scratch = RowScratch::new([self.predicate], columns.len());
        let mut keep = Vec::new();
        for &r in candidates {
            let row = scratch.load(|c| columns[c].get(r));
            if self.predicate.eval_row(row)?.as_bool()? == Some(true) {
                keep.push(r);
            }
        }
        Ok(keep)
    }

    /// The predicate as a scan may apply it ahead of its gather
    /// ([`vdm_storage::ScanFilter::mask`]): the columnar form over the
    /// columns of a table fragment, predicate column `c` being table ordinal
    /// `ordinals[c]`. `None` unless it compiled — the row-wise fallback can
    /// raise, and an error belongs to the filter operator.
    pub fn pushed<'a>(&'a self, ordinals: Option<&'a [usize]>) -> Option<Box<MaskFn<'a>>> {
        let pred = self.columnar.as_ref()?;
        Some(Box::new(move |fragment: &[Column], rows: Range<usize>| {
            let columns: Vec<&Column> = match ordinals {
                Some(ordinals) => ordinals.iter().map(|&o| &fragment[o]).collect(),
                None => fragment.iter().collect(),
            };
            pred.mask(&columns, rows)
        }))
    }
}

// ---------------------------------------------------------------------------
// Projection execution.

/// Projection of a whole batch ([`project_rows`] over all of its rows).
pub fn project_batch(
    input: &Batch,
    exprs: &[(Expr, String)],
    schema: Arc<Schema>,
) -> Result<Batch> {
    let columns: Vec<&Column> = input.columns.iter().collect();
    let rows: Vec<usize> = (0..input.num_rows()).collect();
    let projected = project_rows(&columns, exprs, &schema, &rows)?;
    Batch::new(schema, projected)
}

/// `exprs` over `rows` of `columns`, output `j` typed as `schema`'s field
/// `j`: a plain column reference is gathered, anything else evaluates
/// row-at-a-time (row by row, expressions in order).
pub fn project_rows(
    columns: &[&Column],
    exprs: &[(Expr, String)],
    schema: &Schema,
    rows: &[usize],
) -> Result<Vec<Column>> {
    let computed = || exprs.iter().map(|(e, _)| e).filter(|e| !matches!(e, Expr::Col(_)));
    let mut scratch = RowScratch::new(computed(), columns.len());
    let mut values: Vec<Vec<Value>> = computed().map(|_| Vec::with_capacity(rows.len())).collect();
    for &r in rows {
        let row = scratch.load(|c| columns[c].get(r));
        for (e, out) in computed().zip(&mut values) {
            out.push(e.eval_row(row)?);
        }
    }
    let mut values = values.into_iter();
    let typed = exprs.iter().zip(schema.fields());
    typed
        .map(|((e, _), field)| match e {
            Expr::Col(c) => Ok(columns[*c].gather(rows)),
            _ => Column::from_values(field.ty, &values.next().expect("one per computed expr")),
        })
        .collect()
}

/// Estimated payload bytes of one row of `columns` — feeds the
/// `vdm_morsel_size_bytes` dispatch counter (dictionary-encoded strings
/// count their 4-byte codes; dictionaries are shared, not per-row).
pub fn row_bytes<'c>(columns: impl IntoIterator<Item = &'c Column>) -> usize {
    let width = |c: &Column| match c.data() {
        ColumnData::Int(_) => 8,
        ColumnData::Dec { .. } => 16,
        ColumnData::Bool(_) => 1,
        ColumnData::Date(_) => 4,
        ColumnData::Str(_) => 4,
    };
    columns.into_iter().map(width).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::{Field, SqlType};

    fn cols(b: &Batch) -> Vec<&Column> {
        b.columns.iter().collect()
    }

    fn batch(vals: Vec<(SqlType, Vec<Value>)>) -> Batch {
        let fields: Vec<Field> = vals
            .iter()
            .enumerate()
            .map(|(i, (ty, _))| Field::new(format!("c{i}"), *ty, true))
            .collect();
        let schema = Arc::new(Schema::new(fields));
        let cols = vals.into_iter().map(|(ty, v)| Column::from_values(ty, &v).unwrap()).collect();
        Batch::new(schema, cols).unwrap()
    }

    #[test]
    fn columnar_hash_agrees_within_a_column() {
        // Equal values → equal hashes, across two batches of the same type.
        let a = batch(vec![(SqlType::Text, vec![Value::str("x"), Value::str("y"), Value::Null])]);
        let b = batch(vec![(SqlType::Text, vec![Value::Null, Value::str("y"), Value::str("x")])]);
        let ha = hash_keys(&cols(&a), 0..3);
        let hb = hash_keys(&cols(&b), 0..3);
        assert_eq!(ha[0], hb[2], "same string, different dictionaries");
        assert_eq!(ha[1], hb[1]);
        assert_eq!(ha[2], hb[0], "NULLs hash to one sentinel");
        assert_ne!(ha[0], ha[1]);
        assert_ne!(ha[0], ha[2], "NULL must not collide with a real value");
    }

    #[test]
    fn columnar_hash_subrange_offsets_correctly() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let b = batch(vec![(SqlType::Int, vals)]);
        let full = hash_keys(&cols(&b), 0..100);
        let sub = hash_keys(&cols(&b), 40..60);
        assert_eq!(&full[40..60], &sub[..]);
    }

    /// What `Expr::eval_row` over fully materialized rows keeps.
    fn row_wise(pred: &Expr, b: &Batch) -> Result<Vec<usize>> {
        let mut keep = Vec::new();
        for i in 0..b.num_rows() {
            if pred.eval_row(&b.row(i))?.as_bool()? == Some(true) {
                keep.push(i);
            }
        }
        Ok(keep)
    }

    /// Int, Decimal, Date, Bool, dictionary Text and an all-NULL Text
    /// column (empty dictionary), NULLs in every column.
    fn typed_batch(rng: &mut vdm_types::SplitMix64, rows: usize) -> Batch {
        let mut col = |gen: &mut dyn FnMut(&mut vdm_types::SplitMix64) -> Value| -> Vec<Value> {
            (0..rows)
                .map(|_| if rng.random_range(0..5u32) == 0 { Value::Null } else { gen(rng) })
                .collect()
        };
        batch(vec![
            (SqlType::Int, col(&mut |r| Value::Int(r.random_range(0..6)))),
            (
                SqlType::Decimal { scale: 2 },
                col(&mut |r| Value::Dec(Decimal::from_units(r.random_range(0..600), 2))),
            ),
            (SqlType::Date, col(&mut |r| Value::Date(r.random_range(100..106)))),
            (SqlType::Bool, col(&mut |r| Value::Bool(r.random_range(0..2u32) == 0))),
            (SqlType::Text, col(&mut |r| Value::str(format!("s{}", r.random_range(0..4u32))))),
            (SqlType::Text, vec![Value::Null; rows]),
        ])
    }

    /// A random tree of AND / OR / IS [NOT] NULL over atoms; literals are
    /// drawn near each column's values (Int columns also meet Decimal
    /// literals and the Decimal column Int ones).
    fn random_tree(rng: &mut vdm_types::SplitMix64, depth: usize) -> Expr {
        if depth > 0 && rng.random_range(0..3u32) > 0 {
            let (l, r) = (random_tree(rng, depth - 1), random_tree(rng, depth - 1));
            return if rng.random_range(0..2u32) == 0 { l.and(r) } else { l.or(r) };
        }
        let col = rng.random_range(0..6usize);
        match rng.random_range(0..6u32) {
            0 => return Expr::IsNull(Box::new(Expr::col(col))),
            1 => return Expr::IsNotNull(Box::new(Expr::col(col))),
            _ => {}
        }
        let dec = |u: i128| Value::Dec(Decimal::from_units(u, 2));
        let lit = match col {
            0 if rng.random_range(0..3u32) == 0 => dec(rng.random_range(0..600)),
            0 => Value::Int(rng.random_range(0..6)),
            1 if rng.random_range(0..3u32) == 0 => Value::Int(rng.random_range(0..6)),
            1 => dec(rng.random_range(0..600)),
            2 => Value::Date(rng.random_range(100..106)),
            3 => Value::Bool(rng.random_range(0..2u32) == 0),
            _ => Value::str(format!("s{}", rng.random_range(0..5u32))),
        };
        let ops = [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq];
        let op = ops[rng.random_range(0..ops.len())];
        // Either operand order: `lit ⟨cmp⟩ col` flips the comparison.
        if rng.random_range(0..4u32) == 0 {
            Expr::Lit(lit).binary(op, Expr::col(col))
        } else {
            Expr::col(col).binary(op, Expr::Lit(lit))
        }
    }

    #[test]
    fn predicate_evaluator_matches_row_eval_on_random_trees() {
        for seed in 0..40u64 {
            let mut rng = vdm_types::SplitMix64::seed_from_u64(seed);
            let b = typed_batch(&mut rng, 97);
            for case in 0..50 {
                let pred = random_tree(&mut rng, 4);
                let kernel = FilterKernel::new(&pred);
                assert!(kernel.columnar.is_some(), "seed {seed} case {case}: {pred}");
                let want = row_wise(&pred, &b).unwrap();
                assert_eq!(
                    kernel.select(&cols(&b), 0..97, None).unwrap(),
                    want,
                    "seed {seed}: {pred}"
                );
                // A sub-range selects exactly the sub-range's share.
                let part: Vec<usize> =
                    want.iter().copied().filter(|i| (13..61).contains(i)).collect();
                assert_eq!(
                    kernel.select(&cols(&b), 13..61, None).unwrap(),
                    part,
                    "seed {seed}: {pred}"
                );
            }
        }
    }

    /// A pushed string atom meets runs of a main fragment under the table's
    /// whole dictionary: a run shorter than the dictionary compares per row,
    /// a longer one per entry — the same mask on both sides of that line.
    #[test]
    fn pushed_string_atom_over_runs_shorter_and_longer_than_the_dictionary() {
        let mut rng = vdm_types::SplitMix64::seed_from_u64(7);
        let names: Vec<Value> = (0..200)
            .map(|_| match rng.random_range(0..80u32) {
                0..8 => Value::Null,
                k => Value::str(format!("s{k:02}")),
            })
            .collect();
        let narrowed = batch(vec![(SqlType::Text, names.clone())]);
        let main = batch(vec![(SqlType::Int, vec![Value::Int(0); 200]), (SqlType::Text, names)]);
        let ColumnData::Str(s) = main.columns[1].data() else { panic!("expected Str") };
        assert!((11..200).contains(&s.dict.len()), "{} entries", s.dict.len());
        for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::GtEq] {
            for lit in ["s40", "s07", ""] {
                // The filter's column 0 is table ordinal 1.
                let pred = Expr::col(0).binary(op, Expr::str(lit));
                let kernel = FilterKernel::new(&pred);
                let pushed = kernel.pushed(Some(&[1])).expect("an atom compiles");
                let want = row_wise(&pred, &narrowed).unwrap();
                for run in [0..200, 50..60, 199..200, 60..60] {
                    let mask = pushed(&main.columns, run.clone()).expect("Text pairs with Str");
                    let got: Vec<usize> =
                        run.clone().zip(mask).filter_map(|(i, keep)| keep.then_some(i)).collect();
                    let part: Vec<usize> =
                        want.iter().copied().filter(|i| run.contains(i)).collect();
                    assert_eq!(got, part, "{pred} over {run:?}");
                }
            }
        }
    }

    #[test]
    fn three_valued_logic_keeps_true_only() {
        let b = batch(vec![
            (SqlType::Int, vec![Value::Null, Value::Null, Value::Int(1), Value::Int(2)]),
            (SqlType::Int, vec![Value::Int(7), Value::Int(8), Value::Null, Value::Int(7)]),
        ]);
        let (null_side, seven) = (Expr::col(0).eq(Expr::int(1)), Expr::col(1).eq(Expr::int(7)));
        // Row 0: NULL OR TRUE = TRUE (kept); row 1: NULL OR FALSE = NULL.
        let or = null_side.clone().or(seven.clone());
        assert_eq!(FilterKernel::new(&or).select(&cols(&b), 0..4, None).unwrap(), vec![0, 2, 3]);
        // Row 1: NULL AND FALSE = FALSE, row 0: NULL AND TRUE = NULL — both
        // dropped; only a TRUE AND TRUE row would survive.
        let and = null_side.and(seven);
        assert_eq!(
            FilterKernel::new(&and).select(&cols(&b), 0..4, None).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(row_wise(&or, &b).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn type_mismatched_literal_falls_back_to_row_evaluation() {
        // The tree compiles, but a Text literal does not pair with an Int
        // payload: the whole predicate row-evaluates (cross-type rank
        // order), never a partial columnar answer.
        let b = batch(vec![(SqlType::Int, vec![Value::Int(1), Value::Null, Value::Int(3)])]);
        let pred = Expr::col(0).binary(BinOp::Lt, Expr::str("x")).or(Expr::col(0).eq(Expr::int(3)));
        let kernel = FilterKernel::new(&pred);
        assert!(kernel.columnar.as_ref().is_some_and(|p| p.mask(&cols(&b), 0..3).is_none()));
        assert_eq!(kernel.select(&cols(&b), 0..3, None).unwrap(), row_wise(&pred, &b).unwrap());
        assert_eq!(kernel.select(&cols(&b), 0..3, None).unwrap(), vec![0, 2]);
    }

    #[test]
    fn other_shapes_evaluate_row_wise_over_referenced_columns() {
        let b = batch(vec![
            (SqlType::Int, vec![Value::Int(1), Value::Int(3), Value::Int(5)]),
            (SqlType::Text, vec![Value::str("a"), Value::str("b"), Value::Null]),
            (SqlType::Int, vec![Value::Int(1), Value::Int(4), Value::Int(5)]),
        ]);
        let col_col = Expr::col(0).eq(Expr::col(2));
        let not = Expr::Not(Box::new(Expr::col(0).eq(Expr::int(3))));
        let arith = Expr::col(0).binary(BinOp::Add, Expr::int(1)).eq(Expr::int(2));
        for pred in [col_col, not, arith] {
            let kernel = FilterKernel::new(&pred);
            assert!(kernel.columnar.is_none(), "{pred}");
            assert_eq!(
                kernel.select(&cols(&b), 0..3, None).unwrap(),
                row_wise(&pred, &b).unwrap(),
                "{pred}"
            );
        }
        // Only referenced ordinals are materialized; the rest stay NULL.
        let mut scratch = RowScratch::new([&Expr::col(2)], 3);
        assert_eq!(
            scratch.load(|c| b.columns[c].get(1)),
            &[Value::Null, Value::Null, Value::Int(4)]
        );
        // An erroring predicate raises the row-wise error, whatever range
        // (morsel) the failing row falls in.
        let quotient =
            Expr::int(1).binary(BinOp::Div, Expr::col(0).binary(BinOp::Sub, Expr::int(3)));
        let failing = quotient.binary(BinOp::Gt, Expr::int(0));
        let want = row_wise(&failing, &b).unwrap_err().to_string();
        let kernel = FilterKernel::new(&failing);
        assert_eq!(kernel.select(&cols(&b), 0..3, None).unwrap_err().to_string(), want);
        assert_eq!(kernel.select(&cols(&b), 1..2, None).unwrap_err().to_string(), want);
        assert_eq!(kernel.select(&cols(&b), 2..3, None).unwrap(), vec![2]);
    }

    #[test]
    fn a_pure_column_map_selects_and_duplicates() {
        let b = batch(vec![
            (SqlType::Int, vec![Value::Int(1), Value::Int(2)]),
            (SqlType::Text, vec![Value::str("a"), Value::Null]),
        ]);
        let schema = Arc::new(Schema::new(vec![
            Field::new("s", SqlType::Text, true),
            Field::new("k", SqlType::Int, true),
            Field::new("k2", SqlType::Int, true),
        ]));
        let exprs: Vec<(Expr, String)> =
            [1, 0, 0].iter().map(|&c| (Expr::col(c), format!("c{c}"))).collect();
        let out = project_batch(&b, &exprs, schema).unwrap();
        assert_eq!(out.to_rows()[0], vec![Value::str("a"), Value::Int(1), Value::Int(1)]);
        assert_eq!(out.to_rows()[1], vec![Value::Null, Value::Int(2), Value::Int(2)]);
    }
}
