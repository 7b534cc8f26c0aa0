//! Typed columns and batches — the unit of data exchange between storage
//! and the executor.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use vdm_types::{Decimal, Result, Schema, SqlType, Value, VdmError};

/// Dictionary-encoded string column: `codes[i]` indexes into the
/// deduplicated `dict` (entries appear in first-seen order, not sorted —
/// see [`Column::from_values`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StrColumn {
    pub dict: Vec<Arc<str>>,
    pub codes: Vec<u32>,
}

impl StrColumn {
    /// Value at `i` (validity handled by the owning [`Column`]).
    pub fn get(&self, i: usize) -> Arc<str> {
        Arc::clone(&self.dict[self.codes[i] as usize])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Distinct values stored — compression diagnostics.
    pub fn dict_size(&self) -> usize {
        self.dict.len()
    }
}

/// Physical column payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    /// Fixed-point decimals normalized to one scale.
    Dec {
        units: Vec<i128>,
        scale: u8,
    },
    Bool(Vec<bool>),
    Date(Vec<i32>),
    Str(StrColumn),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Dec { units, .. } => units.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str(s) => s.len(),
        }
    }

    /// A zero-row payload of the same type with room for `rows` rows
    /// (string columns get an empty dictionary rather than a clone of this
    /// one's).
    fn empty_like(&self, rows: usize) -> ColumnData {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::with_capacity(rows)),
            ColumnData::Dec { scale, .. } => {
                ColumnData::Dec { units: Vec::with_capacity(rows), scale: *scale }
            }
            ColumnData::Bool(_) => ColumnData::Bool(Vec::with_capacity(rows)),
            ColumnData::Date(_) => ColumnData::Date(Vec::with_capacity(rows)),
            ColumnData::Str(_) => {
                ColumnData::Str(StrColumn { dict: Vec::new(), codes: Vec::with_capacity(rows) })
            }
        }
    }
}

/// A typed column with an optional validity mask (absent = all valid).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    /// Builds a column of `ty` from cells — a slice of values, or one
    /// column of a set of rows — in one typed pass: decimal scales are
    /// normalized, strings are dictionary-encoded in first-seen order (NULL
    /// slots get code 0, masked by the validity), and a cell the type
    /// cannot store is an error. NULLs are allowed regardless of schema
    /// nullability here — nullability enforcement is the store's job.
    pub fn from_values<'a>(
        ty: SqlType,
        values: impl IntoIterator<Item = &'a Value>,
    ) -> Result<Column> {
        /// The payload `cell` decodes from each non-NULL value
        /// (`T::default()` under a NULL), recording validity as it goes.
        fn typed<'a, T: Default>(
            values: impl Iterator<Item = &'a Value>,
            validity: &mut Vec<bool>,
            mut cell: impl FnMut(&'a Value) -> Result<T>,
        ) -> Result<Vec<T>> {
            let mut out = Vec::with_capacity(values.size_hint().0);
            for v in values {
                validity.push(!v.is_null());
                out.push(if v.is_null() { T::default() } else { cell(v)? });
            }
            Ok(out)
        }
        let values = values.into_iter();
        let mut validity = Vec::with_capacity(values.size_hint().0);
        let data = match ty {
            SqlType::Int => ColumnData::Int(typed(values, &mut validity, |v| match v {
                Value::Int(i) => Ok(*i),
                other => Err(type_err(ty, other)),
            })?),
            SqlType::Decimal { scale } => {
                let units = typed(values, &mut validity, |v| match v {
                    Value::Dec(d) => Ok(d.rescale(scale)?.units()),
                    Value::Int(i) => Ok(Decimal::from_int(*i).rescale(scale)?.units()),
                    other => Err(type_err(ty, other)),
                })?;
                ColumnData::Dec { units, scale }
            }
            SqlType::Bool => ColumnData::Bool(typed(values, &mut validity, |v| match v {
                Value::Bool(b) => Ok(*b),
                other => Err(type_err(ty, other)),
            })?),
            SqlType::Date => ColumnData::Date(typed(values, &mut validity, |v| match v {
                Value::Date(d) => Ok(*d),
                other => Err(type_err(ty, other)),
            })?),
            SqlType::Text => {
                let (mut dict, mut code_of) = (Vec::new(), HashMap::new());
                let codes = typed(values, &mut validity, |v| match v {
                    Value::Str(s) => Ok(*code_of.entry(s).or_insert_with(|| {
                        dict.push(Arc::clone(s));
                        (dict.len() - 1) as u32
                    })),
                    other => Err(type_err(ty, other)),
                })?;
                ColumnData::Str(StrColumn { dict, codes })
            }
        };
        Ok(Column { data, validity: validity.contains(&false).then_some(validity) })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity mask (`false` = NULL); `None` when every row is valid.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        let mut value = Value::Null;
        self.values_into(i..i + 1, std::iter::once(&mut value));
        value
    }

    /// The values of rows `rows`, written into `out` one slot per row,
    /// dispatching on the payload type once — the one cell decoder. A NULL
    /// slot is written as NULL before its payload is read (an all-NULL
    /// string column has an empty dictionary).
    pub(crate) fn values_into<'a>(
        &self,
        rows: Range<usize>,
        out: impl Iterator<Item = &'a mut Value>,
    ) {
        fn fill<'a>(
            out: impl Iterator<Item = &'a mut Value>,
            rows: Range<usize>,
            valid: Option<&[bool]>,
            cell: impl Fn(usize) -> Value,
        ) {
            for (slot, i) in out.zip(rows) {
                *slot = if valid.is_some_and(|v| !v[i]) { Value::Null } else { cell(i) };
            }
        }
        let valid = self.validity.as_deref();
        match &self.data {
            ColumnData::Int(v) => fill(out, rows, valid, |i| Value::Int(v[i])),
            ColumnData::Dec { units, scale } => {
                fill(out, rows, valid, |i| Value::Dec(Decimal::from_units(units[i], *scale)))
            }
            ColumnData::Bool(v) => fill(out, rows, valid, |i| Value::Bool(v[i])),
            ColumnData::Date(v) => fill(out, rows, valid, |i| Value::Date(v[i])),
            ColumnData::Str(s) => fill(out, rows, valid, |i| Value::Str(s.get(i))),
        }
    }

    /// Concatenates columns of one type without a row-wise detour: an empty
    /// column of the first part's type sized for all of them, then `append`
    /// of every part under one shared dictionary index. Requires at least
    /// one part.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(VdmError::Exec("Column::concat needs at least one part".into()));
        };
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let any_null =
            parts.iter().any(|p| p.validity.as_ref().is_some_and(|v| v.contains(&false)));
        let mut out = Column {
            data: first.data.empty_like(total),
            validity: any_null.then(|| Vec::with_capacity(total)),
        };
        let mut code_of = HashMap::new();
        for p in parts {
            out.append_with(p, &mut code_of)?;
        }
        Ok(out)
    }

    /// Appends `other`'s rows (same type) in place: fixed-width payloads
    /// extend, string codes are remapped into this column's dictionary
    /// (entries new to it join in first-seen order). The result is the
    /// column [`Column::from_values`] builds from both parts' values.
    pub(crate) fn append(&mut self, other: &Column) -> Result<()> {
        let mut code_of = match &self.data {
            ColumnData::Str(s) => s.dict.iter().cloned().zip(0..).collect(),
            _ => HashMap::new(),
        };
        self.append_with(other, &mut code_of)
    }

    /// [`Column::append`] with this column's dictionary index passed in, so
    /// a run of appends hashes each dictionary entry once.
    fn append_with(&mut self, other: &Column, code_of: &mut HashMap<Arc<str>, u32>) -> Result<()> {
        let (len, valid) = (self.len(), other.validity.as_deref());
        match (&mut self.data, &other.data) {
            (ColumnData::Int(v), ColumnData::Int(w)) => v.extend_from_slice(w),
            (ColumnData::Dec { units, scale }, ColumnData::Dec { units: w, scale: s })
                if scale == s =>
            {
                units.extend_from_slice(w)
            }
            (ColumnData::Bool(v), ColumnData::Bool(w)) => v.extend_from_slice(w),
            (ColumnData::Date(v), ColumnData::Date(w)) => v.extend_from_slice(w),
            (ColumnData::Str(s), ColumnData::Str(w)) => {
                let remap: Vec<u32> = w
                    .dict
                    .iter()
                    .map(|d| {
                        *code_of.entry(Arc::clone(d)).or_insert_with(|| {
                            s.dict.push(Arc::clone(d));
                            (s.dict.len() - 1) as u32
                        })
                    })
                    .collect();
                let codes = w.codes.iter().map(|&c| remap.get(c as usize).copied().unwrap_or(0));
                match valid {
                    // A NULL slot keeps code 0 (its part's dictionary may be empty).
                    Some(v) => s.codes.extend(codes.zip(v).map(|(c, &ok)| c * u32::from(ok))),
                    None => s.codes.extend(codes),
                }
            }
            _ => return Err(VdmError::Exec("appended columns disagree in type".into())),
        }
        if self.validity.is_some() || valid.is_some_and(|v| v.contains(&false)) {
            let mine = self.validity.get_or_insert_with(|| vec![true; len]);
            match valid {
                Some(theirs) => mine.extend_from_slice(theirs),
                None => mine.extend(std::iter::repeat_n(true, other.len())),
            }
        }
        Ok(())
    }

    /// The column's storage type.
    pub fn sql_type(&self) -> SqlType {
        match &self.data {
            ColumnData::Int(_) => SqlType::Int,
            ColumnData::Dec { scale, .. } => SqlType::Decimal { scale: *scale },
            ColumnData::Bool(_) => SqlType::Bool,
            ColumnData::Date(_) => SqlType::Date,
            ColumnData::Str(_) => SqlType::Text,
        }
    }

    /// Payload-level gather: `out[j] = self[indices[j]]` without value
    /// materialization — fixed-width payloads copy directly and string
    /// dictionaries are shared, not re-interned.
    pub fn gather(&self, indices: &[usize]) -> Column {
        // All-false selection vectors are common under selective filters:
        // return a truly empty column instead of cloning the dictionary.
        if indices.is_empty() {
            return Column { data: self.data.empty_like(0), validity: None };
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Dec { units, scale } => ColumnData::Dec {
                units: indices.iter().map(|&i| units[i]).collect(),
                scale: *scale,
            },
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Date(v) => ColumnData::Date(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(s) => ColumnData::Str(StrColumn {
                dict: s.dict.clone(),
                codes: indices.iter().map(|&i| s.codes[i]).collect(),
            }),
        };
        Column { data, validity: self.gather_validity(indices) }
    }

    /// [`Column::gather`] for a slice of a much larger column (a scan
    /// morsel of a table's main fragment): the string dictionary is
    /// compacted to the entries `indices` reference, in first-seen order,
    /// in O(`indices`) — the source dictionary is neither cloned nor
    /// hashed, so per-dictionary-entry work downstream stays morsel-sized.
    pub fn gather_compact(&self, indices: &[usize]) -> Column {
        let ColumnData::Str(s) = &self.data else {
            return self.gather(indices);
        };
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut remap: HashMap<u32, u32> = HashMap::with_capacity(indices.len().min(s.dict.len()));
        let codes = indices
            .iter()
            .map(|&i| {
                if self.is_null(i) {
                    return 0;
                }
                *remap.entry(s.codes[i]).or_insert_with(|| {
                    dict.push(s.get(i));
                    (dict.len() - 1) as u32
                })
            })
            .collect();
        Column {
            data: ColumnData::Str(StrColumn { dict, codes }),
            validity: self.gather_validity(indices),
        }
    }

    /// The validity mask of the rows at `indices`; `None` when all valid.
    fn gather_validity(&self, indices: &[usize]) -> Option<Vec<bool>> {
        let v = self.validity.as_ref()?;
        let picked: Vec<bool> = indices.iter().map(|&i| v[i]).collect();
        picked.contains(&false).then_some(picked)
    }
}

/// The row id of no row in [`gather_ids`].
pub const NO_ROW: u32 = u32::MAX;

/// Each of `columns` gathered by `u32` row ids, a [`NO_ROW`] slot a NULL row
/// (an outer join's no-match). Which slots those are is found once, and
/// shared by every column without a mask of its own.
pub fn gather_ids<'a>(
    columns: impl IntoIterator<Item = &'a Column> + 'a,
    rows: &'a [u32],
) -> impl Iterator<Item = Column> + 'a {
    // A NO_ROW slot reads the last row, then takes the default: two
    // branch-free passes.
    fn pick<T: Copy + Default>(v: &[T], rows: &[u32]) -> Vec<T> {
        let Some(last) = v.len().checked_sub(1) else { return vec![T::default(); rows.len()] };
        let mut out: Vec<T> = rows.iter().map(|&r| v[(r as usize).min(last)]).collect();
        for (x, &r) in out.iter_mut().zip(rows) {
            *x = if r == NO_ROW { T::default() } else { *x };
        }
        out
    }
    let found: Option<Vec<bool>> =
        rows.contains(&NO_ROW).then(|| rows.iter().map(|&r| r != NO_ROW).collect());
    columns.into_iter().map(move |c| {
        let data = match &c.data {
            _ if rows.is_empty() => c.data.empty_like(0),
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows)),
            ColumnData::Dec { units, scale } => {
                ColumnData::Dec { units: pick(units, rows), scale: *scale }
            }
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, rows)),
            ColumnData::Date(v) => ColumnData::Date(pick(v, rows)),
            ColumnData::Str(s) => {
                ColumnData::Str(StrColumn { dict: s.dict.clone(), codes: pick(&s.codes, rows) })
            }
        };
        let validity = match &c.validity {
            None => found.clone(),
            Some(v) => Some(pick(v, rows)).filter(|picked| picked.contains(&false)),
        };
        Column { data, validity }
    })
}

fn type_err(ty: SqlType, v: &Value) -> VdmError {
    VdmError::Type(format!("column of type {ty} cannot store {v}"))
}

/// A set of equal-length columns plus the schema describing them.
#[derive(Debug, Clone)]
pub struct Batch {
    pub schema: Arc<Schema>,
    pub columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Builds a batch, validating column count and lengths.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Batch> {
        if columns.len() != schema.len() {
            return Err(VdmError::Exec(format!(
                "batch has {} columns, schema {}",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(VdmError::Exec("batch columns disagree in length".into()));
        }
        Ok(Batch { schema, columns, rows })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::from_values(f.ty, &[]).expect("empty column"))
            .collect();
        Batch { schema, columns, rows: 0 }
    }

    /// Builds a batch from row-major values.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> Result<Batch> {
        let mut cols = Vec::with_capacity(schema.len());
        for (i, f) in schema.fields().iter().enumerate() {
            cols.push(Column::from_values(f.ty, rows.iter().map(|r| &r[i]))?);
        }
        Batch::new(schema, cols)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// All rows, row-major (tests and small results only).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Concatenates batches column-wise under `schema` — the UNION ALL and
    /// morsel-merge fast path (no row materialization for parts already in
    /// the schema's types). A part column stored under a narrower unified
    /// type (e.g. `INT` under a `DECIMAL` union field) is widened first.
    pub fn concat(schema: Arc<Schema>, parts: &[Batch]) -> Result<Batch> {
        if parts.is_empty() {
            return Ok(Batch::empty(schema));
        }
        if parts.iter().any(|b| b.columns.len() != schema.len()) {
            return Err(VdmError::Exec("Batch::concat parts disagree with schema".into()));
        }
        let mut columns = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let ty = schema.field(i).ty;
            let widened: Vec<Option<Column>> = parts
                .iter()
                .map(|b| {
                    let c = &b.columns[i];
                    if c.sql_type() == ty {
                        return Ok(None);
                    }
                    let values: Vec<Value> = (0..c.len()).map(|r| c.get(r)).collect();
                    Column::from_values(ty, &values).map(Some)
                })
                .collect::<Result<_>>()?;
            let cols: Vec<&Column> = parts
                .iter()
                .zip(&widened)
                .map(|(b, w)| w.as_ref().unwrap_or(&b.columns[i]))
                .collect();
            columns.push(Column::concat(&cols)?);
        }
        Batch::new(schema, columns)
    }

    /// Row gather at the column-payload level (see [`Column::gather`]).
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::Field;

    #[test]
    fn int_column_round_trip() {
        let c = Column::from_values(SqlType::Int, &[Value::Int(1), Value::Null, Value::Int(3)])
            .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert!(c.is_null(1));
        assert_eq!(c.get(2), Value::Int(3));
    }

    #[test]
    fn decimal_column_normalizes_scale() {
        let c = Column::from_values(
            SqlType::Decimal { scale: 2 },
            &[Value::Dec("1.5".parse().unwrap()), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(c.get(0), Value::Dec("1.50".parse().unwrap()));
        assert_eq!(c.get(1), Value::Dec("2.00".parse().unwrap()));
    }

    #[test]
    fn string_dictionary_compresses() {
        let vals: Vec<Value> =
            (0..100).map(|i| Value::str(if i % 2 == 0 { "DE" } else { "FR" })).collect();
        let c = Column::from_values(SqlType::Text, &vals).unwrap();
        match c.data() {
            ColumnData::Str(s) => assert_eq!(s.dict_size(), 2),
            _ => panic!("expected string column"),
        }
        assert_eq!(c.get(0), Value::str("DE"));
        assert_eq!(c.get(1), Value::str("FR"));
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(Column::from_values(SqlType::Int, &[Value::str("x")]).is_err());
        assert!(Column::from_values(SqlType::Text, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn batch_validation_and_rows() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", SqlType::Int, false),
            Field::new("name", SqlType::Text, true),
        ]));
        let rows = vec![vec![Value::Int(1), Value::str("a")], vec![Value::Int(2), Value::Null]];
        let b = Batch::from_rows(Arc::clone(&schema), &rows).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.to_rows(), rows);
        let picked = b.gather(&[1]);
        assert_eq!(picked.num_rows(), 1);
        assert_eq!(picked.row(0), rows[1]);
        // Column count mismatch.
        assert!(Batch::new(schema, vec![]).is_err());
    }

    #[test]
    fn concat_merges_dictionaries_and_validity() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", SqlType::Int, false),
            Field::new("name", SqlType::Text, true),
            Field::new("amt", SqlType::Decimal { scale: 2 }, true),
        ]));
        let a = Batch::from_rows(
            Arc::clone(&schema),
            &[
                vec![Value::Int(1), Value::str("DE"), Value::Dec("1.50".parse().unwrap())],
                vec![Value::Int(2), Value::Null, Value::Null],
            ],
        )
        .unwrap();
        let b = Batch::from_rows(
            Arc::clone(&schema),
            &[vec![Value::Int(3), Value::str("FR"), Value::Dec("2.25".parse().unwrap())]],
        )
        .unwrap();
        let empty = Batch::empty(Arc::clone(&schema));
        let got = Batch::concat(Arc::clone(&schema), &[a.clone(), empty, b.clone()]).unwrap();
        assert_eq!(got.num_rows(), 3);
        let mut want = a.to_rows();
        want.extend(b.to_rows());
        assert_eq!(got.to_rows(), want);
        // Dictionary is merged, not duplicated per part.
        match got.columns[1].data() {
            ColumnData::Str(s) => assert_eq!(s.dict_size(), 2),
            _ => panic!("expected string column"),
        }
        // Zero parts yields an empty batch of the schema.
        assert_eq!(Batch::concat(schema, &[]).unwrap().num_rows(), 0);
    }

    #[test]
    fn concat_shared_dictionary_values_keep_one_code() {
        let vals = |names: &[&str]| names.iter().map(Value::str).collect::<Vec<_>>();
        let a = Column::from_values(SqlType::Text, &vals(&["x", "y"])).unwrap();
        let b = Column::from_values(SqlType::Text, &vals(&["y", "z", "x"])).unwrap();
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 5);
        match c.data() {
            ColumnData::Str(s) => assert_eq!(s.dict_size(), 3),
            _ => panic!("expected string column"),
        }
        let got: Vec<Value> = (0..5).map(|i| c.get(i)).collect();
        assert_eq!(got, vals(&["x", "y", "y", "z", "x"]));
    }

    #[test]
    fn concat_widens_int_parts_to_decimal_schema() {
        let int_schema = Arc::new(Schema::new(vec![Field::new("v", SqlType::Int, false)]));
        let dec_schema =
            Arc::new(Schema::new(vec![Field::new("v", SqlType::Decimal { scale: 2 }, false)]));
        let ints = Batch::from_rows(int_schema, &[vec![Value::Int(7)]]).unwrap();
        let decs =
            Batch::from_rows(Arc::clone(&dec_schema), &[vec![Value::Dec("1.25".parse().unwrap())]])
                .unwrap();
        let got = Batch::concat(dec_schema, &[ints, decs]).unwrap();
        let vals: Vec<String> = got.to_rows().iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["7.00".to_string(), "1.25".to_string()]);
    }

    #[test]
    fn concat_rejects_type_mismatch() {
        let a = Column::from_values(SqlType::Int, &[Value::Int(1)]).unwrap();
        let b = Column::from_values(SqlType::Bool, &[Value::Bool(true)]).unwrap();
        assert!(Column::concat(&[&a, &b]).is_err());
        assert!(Column::concat(&[]).is_err());
    }

    #[test]
    fn gather_picks_rows_by_value() {
        for ty in [SqlType::Int, SqlType::Text, SqlType::Decimal { scale: 2 }] {
            let vals: Vec<Value> = (0..6)
                .map(|i| match (i % 3, ty) {
                    (2, _) => Value::Null,
                    (_, SqlType::Int) => Value::Int(i),
                    (_, SqlType::Text) => Value::str(format!("v{i}")),
                    _ => Value::Dec(Decimal::from_units(i as i128 * 10, 2)),
                })
                .collect();
            let c = Column::from_values(ty, &vals).unwrap();
            let idx = [5usize, 0, 2, 2, 4];
            for got in [c.gather(&idx), c.gather_compact(&idx)] {
                for (j, &i) in idx.iter().enumerate() {
                    assert_eq!(got.get(j), vals[i], "{ty} row {j}");
                }
            }
        }
    }

    #[test]
    fn gather_compact_keeps_only_referenced_dictionary_entries() {
        let vals =
            [Value::Null, Value::str("a"), Value::str("b"), Value::str("c"), Value::str("d")];
        let c = Column::from_values(SqlType::Text, &vals).unwrap();
        // Same column the row-wise rebuild would produce: first-seen order,
        // NULL slots on code 0 without an entry of their own.
        let picked = [3usize, 0, 1, 3];
        let want: Vec<Value> = picked.iter().map(|&i| vals[i].clone()).collect();
        assert_eq!(c.gather_compact(&picked), Column::from_values(SqlType::Text, &want).unwrap());
        match c.gather_compact(&[0]).data() {
            ColumnData::Str(s) => assert!(s.dict.is_empty(), "a NULL references nothing"),
            other => panic!("expected Str, got {other:?}"),
        }
        assert_eq!(c.gather_compact(&[]).len(), 0);
    }

    #[test]
    fn gather_ids_pads_no_row_with_nulls() {
        let c = Column::from_values(SqlType::Text, &[Value::str("a"), Value::Null]).unwrap();
        let g = gather_ids([&c], &[0, NO_ROW, 1, 0]).next().unwrap();
        assert_eq!(g.get(0), Value::str("a"));
        assert_eq!(g.get(1), Value::Null);
        assert_eq!(g.get(2), Value::Null);
        assert_eq!(g.get(3), Value::str("a"));
        // All-valid gather over a null-free column drops the validity mask.
        let dense = Column::from_values(SqlType::Int, &[Value::Int(1), Value::Int(2)]).unwrap();
        let g = gather_ids([&dense], &[1, 0]).next().unwrap();
        assert_eq!(g.validity(), None);
        assert!(!g.is_null(0) && !g.is_null(1));
        assert_eq!(g.get(0), Value::Int(2));
    }

    #[test]
    fn empty_gather_drops_the_dictionary() {
        // The all-false-selection case: no rows kept, so no dictionary
        // clone and no validity mask should survive.
        let c = Column::from_values(SqlType::Text, &[Value::str("a"), Value::Null]).unwrap();
        let g = c.gather(&[]);
        assert_eq!(g.len(), 0);
        assert_eq!(g.sql_type(), SqlType::Text);
        match g.data() {
            ColumnData::Str(s) => assert!(s.dict.is_empty(), "dict must not be cloned"),
            other => panic!("expected Str, got {other:?}"),
        }
        let g = gather_ids([&c], &[]).next().unwrap();
        assert_eq!(g.len(), 0);
        // Decimal scale survives an empty gather.
        let d = Column::from_values(SqlType::Decimal { scale: 2 }, &[Value::Null]).unwrap();
        assert_eq!(d.gather(&[]).sql_type(), SqlType::Decimal { scale: 2 });
    }

    #[test]
    fn concat_accepts_empty_gathered_parts() {
        // Batches flowing out of all-false filter morsels concatenate with
        // non-empty ones: empty-dictionary parts must merge cleanly.
        let c = Column::from_values(SqlType::Text, &[Value::str("a"), Value::str("b")]).unwrap();
        let empty = c.gather(&[]);
        let merged = Column::concat(&[&empty, &c, &empty]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(0), Value::str("a"));
        assert_eq!(merged.get(1), Value::str("b"));
        let all_empty = Column::concat(&[&empty, &empty]).unwrap();
        assert_eq!(all_empty.len(), 0);
    }

    #[test]
    fn single_row_gather_roundtrips() {
        let c = Column::from_values(SqlType::Int, &[Value::Int(7)]).unwrap();
        let g = c.gather(&[0]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(0), Value::Int(7));
    }

    #[test]
    fn gather_preserves_nulls() {
        let c = Column::from_values(SqlType::Int, &[Value::Int(1), Value::Null]).unwrap();
        let t = c.gather(&[1, 0, 1]);
        assert_eq!(t.get(0), Value::Null);
        assert_eq!(t.get(1), Value::Int(1));
        assert_eq!(t.get(2), Value::Null);
    }
}
