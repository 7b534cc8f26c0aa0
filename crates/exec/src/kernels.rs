//! Tight columnar kernels shared by the engine's operators and the
//! signed-delta evaluator.
//!
//! Three families live here, all safe Rust tuned so the compiler can
//! auto-vectorize the inner loops (plain index arithmetic over typed
//! payload slices, no `unsafe` SIMD intrinsics):
//!
//! * **hashing** — a branch-free splitmix64 finalizer ([`mix64`]), an
//!   FxHash-style [`Hasher`] replacing SipHash for `Vec<Value>` hash-table
//!   keys, and columnar key hashing ([`hash_keys`]) that hashes whole key
//!   columns payload-at-a-time (string columns hash each *dictionary
//!   entry* once and fan the result out over the codes);
//! * **filtering** — [`CompiledPredicate`], a selection-vector evaluator
//!   for conjunctions of `col ⟨cmp⟩ literal` atoms that scans typed
//!   payloads directly instead of materializing `Value` rows, wrapped per
//!   operator in a [`FilterKernel`];
//! * **projection** — [`apply_column_map`], the execution kernel of a
//!   fused pass-through/renaming projection chain: output column `j` is
//!   input column `map[j]`, moved or memcpy'd wholesale; [`project_rows`]
//!   is the row-wise fallback for computed expressions.
//!
//! Hash-consistency contract: two rows whose key values are equal under
//! [`Value`] equality must receive the same routing hash. The columnar
//! path guarantees this only *within one physical column type* (equal
//! values of one column share a payload representation), so callers
//! hashing across two batches — the join build/probe sides — must check
//! [`Column::sql_type`] equality first and otherwise fall back to
//! [`hash_values`], which hashes through `Value::hash` (canonical across
//! the numeric family).

use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;
use vdm_expr::{predicate, BinOp, Expr};
use vdm_storage::{Batch, Column, ColumnData};
use vdm_types::{Decimal, Result, Schema, Value};

// ---------------------------------------------------------------------------
// Hash mixing.

/// splitmix64 finalizer: a full-avalanche, branch-free 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Seed every composite-key hash starts from (any odd constant works).
const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Payload stand-in for NULL slots, distinct from any mixed real payload.
const NULL_PAYLOAD: u64 = 0x632b_e593_04b4_d3b1;

/// Order-dependent combine of one key part into a running hash.
#[inline]
fn combine(h: u64, payload: u64) -> u64 {
    mix64(h ^ payload.wrapping_mul(KEY_SEED))
}

/// FxHash-style multiplicative hasher — replaces the standard library's
/// SipHash for interior hash tables keyed by `Vec<Value>`, where DoS
/// resistance buys nothing and the per-key cost dominates aggregation and
/// join build/probe time.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Finalize so low bits (used by HashMap bucket masks) avalanche.
        mix64(self.hash)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i128(&mut self, v: i128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` using [`FxHasher`] — drop-in for hash-join and group-by maps.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Routing hash of a materialized key through `Value::hash` (canonical
/// across Int/Dec) — the fallback when columnar hashing is not applicable.
pub fn hash_values(key: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Content hash of one string (used per dictionary entry, not per row).
fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Mixes column `col` over `rows` into `hashes` (`hashes[k]` covers row
/// `rows.start + k`). Fixed-width payloads mix directly; string columns
/// hash each dictionary entry once and index the results by code.
fn hash_column_into(col: &Column, rows: Range<usize>, hashes: &mut [u64]) {
    debug_assert_eq!(hashes.len(), rows.len());
    let start = rows.start;
    // Stage payloads in a scratch vector so NULL slots can be *replaced*
    // by the sentinel before mixing — the dense per-type loops stay
    // branch-free and vectorizable, and the null patch-up touches only
    // the mask.
    let mut payloads = vec![0u64; hashes.len()];
    match col.data() {
        ColumnData::Int(v) => {
            for (k, p) in payloads.iter_mut().enumerate() {
                *p = v[start + k] as u64;
            }
        }
        ColumnData::Dec { units, .. } => {
            for (k, p) in payloads.iter_mut().enumerate() {
                let u = units[start + k];
                *p = (u as u64).wrapping_add(mix64((u >> 64) as u64));
            }
        }
        ColumnData::Bool(v) => {
            for (k, p) in payloads.iter_mut().enumerate() {
                *p = v[start + k] as u64;
            }
        }
        ColumnData::Date(v) => {
            for (k, p) in payloads.iter_mut().enumerate() {
                *p = v[start + k] as u64;
            }
        }
        ColumnData::Str(s) => {
            let dict_hashes: Vec<u64> = s.dict.iter().map(|d| str_hash(d)).collect();
            for (k, p) in payloads.iter_mut().enumerate() {
                // NULL slots carry code 0 over a possibly empty dict;
                // whatever lands here is overwritten by the sentinel below.
                *p = dict_hashes.get(s.codes[start + k] as usize).copied().unwrap_or(0);
            }
        }
    }
    for (k, p) in payloads.iter_mut().enumerate() {
        if col.is_null(start + k) {
            *p = NULL_PAYLOAD;
        }
    }
    for (h, p) in hashes.iter_mut().zip(&payloads) {
        *h = combine(*h, *p);
    }
}

/// Routing hashes for the composite key `cols` over `rows` of `batch`,
/// computed column-at-a-time. Consistent with [`Value`] equality within
/// each physical column type (see the module docs for the cross-batch
/// contract).
pub fn hash_keys(batch: &Batch, cols: &[usize], rows: Range<usize>) -> Vec<u64> {
    let mut hashes = vec![KEY_SEED; rows.len()];
    for &c in cols {
        hash_column_into(&batch.columns[c], rows.clone(), &mut hashes);
    }
    hashes
}

// ---------------------------------------------------------------------------
// Selection-vector filtering.

/// One compiled `col ⟨cmp⟩ literal` conjunct. String comparisons resolve
/// per batch (dictionaries are batch-local); everything else is closed at
/// compile time.
#[derive(Debug, Clone)]
enum CompiledAtom {
    Int {
        col: usize,
        op: BinOp,
        rhs: i64,
    },
    /// Numeric cross-type: an INT column against a DECIMAL literal (or any
    /// decimal/decimal pair) compares through [`Decimal`].
    Dec {
        col: usize,
        op: BinOp,
        rhs: Decimal,
    },
    Date {
        col: usize,
        op: BinOp,
        rhs: i32,
    },
    Bool {
        col: usize,
        op: BinOp,
        rhs: bool,
    },
    Str {
        col: usize,
        op: BinOp,
        rhs: Arc<str>,
    },
}

/// A predicate compiled to a conjunction of typed payload comparisons,
/// evaluated into a selection vector without materializing rows.
///
/// Semantics mirror `Expr::eval_row` exactly: a row is kept iff every
/// conjunct evaluates to TRUE, and a NULL column value makes its conjunct
/// UNKNOWN (row dropped) — so compiling only conjunctions of non-NULL
/// literal atoms is lossless.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    atoms: Vec<CompiledAtom>,
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

impl CompiledPredicate {
    /// Compiles `pred` when every top-level conjunct is `col ⟨cmp⟩ lit`
    /// (either side) with a non-NULL literal. Returns `None` — caller
    /// falls back to row-at-a-time evaluation — for any other shape.
    pub fn compile(pred: &Expr) -> Option<CompiledPredicate> {
        let mut atoms = Vec::new();
        for conj in predicate::split_conjunction(pred) {
            let a = predicate::as_atom(conj)?;
            let atom = match a.value {
                Value::Int(v) => CompiledAtom::Int { col: a.col, op: a.op, rhs: v },
                Value::Dec(d) => CompiledAtom::Dec { col: a.col, op: a.op, rhs: d },
                Value::Date(d) => CompiledAtom::Date { col: a.col, op: a.op, rhs: d },
                Value::Bool(b) => CompiledAtom::Bool { col: a.col, op: a.op, rhs: b },
                Value::Str(s) => CompiledAtom::Str { col: a.col, op: a.op, rhs: s },
                Value::Null => return None, // as_atom filters these already
            };
            atoms.push(atom);
        }
        Some(CompiledPredicate { atoms })
    }

    /// Evaluates over `rows` of `batch`, appending kept row indices to
    /// `sel` in ascending order. Returns `false` (leaving `sel` untouched
    /// beyond its original length) when a column's physical type doesn't
    /// pair with its compiled literal — the caller then row-evaluates.
    pub fn eval_into(&self, batch: &Batch, rows: Range<usize>, sel: &mut Vec<usize>) -> bool {
        let base = sel.len();
        for (k, atom) in self.atoms.iter().enumerate() {
            let ok = if k == 0 {
                eval_atom_range(atom, batch, rows.clone(), sel)
            } else {
                eval_atom_retain(atom, batch, sel, base)
            };
            if !ok {
                sel.truncate(base);
                return false;
            }
        }
        true
    }
}

/// First conjunct: scan the whole range, pushing matches.
fn eval_atom_range(
    atom: &CompiledAtom,
    batch: &Batch,
    rows: Range<usize>,
    sel: &mut Vec<usize>,
) -> bool {
    atom_tester(atom, batch, |test| {
        for i in rows.clone() {
            if test(i) {
                sel.push(i);
            }
        }
    })
}

/// Later conjuncts: shrink the existing selection in place.
fn eval_atom_retain(atom: &CompiledAtom, batch: &Batch, sel: &mut Vec<usize>, base: usize) -> bool {
    atom_tester(atom, batch, |test| {
        let mut w = base;
        for r in base..sel.len() {
            let i = sel[r];
            if test(i) {
                sel[w] = i;
                w += 1;
            }
        }
        sel.truncate(w);
    })
}

/// Resolves one atom against the batch's physical column and hands the
/// caller a `row -> keep` tester. Returns `false` when the column type
/// doesn't pair with the literal (caller falls back).
fn atom_tester(
    atom: &CompiledAtom,
    batch: &Batch,
    mut scan: impl FnMut(&mut dyn FnMut(usize) -> bool),
) -> bool {
    match atom {
        CompiledAtom::Int { col, op, rhs } => {
            let c = &batch.columns[*col];
            match c.data() {
                ColumnData::Int(v) => {
                    scan(&mut |i| !c.is_null(i) && keep(*op, v[i].cmp(rhs)));
                    true
                }
                ColumnData::Dec { units, scale } => {
                    let rhs = Decimal::from_int(*rhs);
                    scan(&mut |i| {
                        !c.is_null(i) && keep(*op, Decimal::from_units(units[i], *scale).cmp(&rhs))
                    });
                    true
                }
                _ => false,
            }
        }
        CompiledAtom::Dec { col, op, rhs } => {
            let c = &batch.columns[*col];
            match c.data() {
                ColumnData::Dec { units, scale } => {
                    scan(&mut |i| {
                        !c.is_null(i) && keep(*op, Decimal::from_units(units[i], *scale).cmp(rhs))
                    });
                    true
                }
                ColumnData::Int(v) => {
                    scan(&mut |i| !c.is_null(i) && keep(*op, Decimal::from_int(v[i]).cmp(rhs)));
                    true
                }
                _ => false,
            }
        }
        CompiledAtom::Date { col, op, rhs } => {
            let c = &batch.columns[*col];
            match c.data() {
                ColumnData::Date(v) => {
                    scan(&mut |i| !c.is_null(i) && keep(*op, v[i].cmp(rhs)));
                    true
                }
                _ => false,
            }
        }
        CompiledAtom::Bool { col, op, rhs } => {
            let c = &batch.columns[*col];
            match c.data() {
                ColumnData::Bool(v) => {
                    scan(&mut |i| !c.is_null(i) && keep(*op, v[i].cmp(rhs)));
                    true
                }
                _ => false,
            }
        }
        CompiledAtom::Str { col, op, rhs } => {
            let c = &batch.columns[*col];
            match c.data() {
                ColumnData::Str(s) => {
                    // Compare once per dictionary entry, then test codes.
                    let verdict: Vec<bool> =
                        s.dict.iter().map(|d| keep(*op, d.as_ref().cmp(rhs.as_ref()))).collect();
                    scan(&mut |i| {
                        !c.is_null(i) && verdict.get(s.codes[i] as usize).copied().unwrap_or(false)
                    });
                    true
                }
                _ => false,
            }
        }
    }
}

/// A filter operator's predicate, prepared once per operator and applied
/// to every morsel or chunk: the compiled selection-vector form when the
/// predicate is a conjunction of `col ⟨cmp⟩ literal` atoms, row-at-a-time
/// evaluation otherwise (or when a column's physical type doesn't pair
/// with its literal).
pub struct FilterKernel<'e> {
    predicate: &'e Expr,
    compiled: Option<CompiledPredicate>,
}

impl<'e> FilterKernel<'e> {
    /// Prepares `predicate` (compiles it when it has the atom shape).
    pub fn new(predicate: &'e Expr) -> FilterKernel<'e> {
        FilterKernel { predicate, compiled: CompiledPredicate::compile(predicate) }
    }

    /// The rows of `batch[rows]` on which the predicate is TRUE, in order,
    /// assembled by a payload-level gather.
    pub fn filter(&self, batch: &Batch, rows: Range<usize>) -> Result<Batch> {
        let mut keep = Vec::new();
        let fast =
            self.compiled.as_ref().is_some_and(|c| c.eval_into(batch, rows.clone(), &mut keep));
        if !fast {
            for r in rows {
                if self.predicate.eval_row(&batch.row(r))?.as_bool()? == Some(true) {
                    keep.push(r);
                }
            }
        }
        Ok(batch.gather(&keep))
    }
}

// ---------------------------------------------------------------------------
// Projection execution.

/// Projection of a whole batch: pure column maps move whole columns
/// ([`apply_column_map`]), anything else evaluates row-wise.
pub fn project_batch(
    input: &Batch,
    exprs: &[(Expr, String)],
    schema: Arc<Schema>,
) -> Result<Batch> {
    match vdm_plan::column_mapping(exprs) {
        Some(map) => apply_column_map(input, &map, schema),
        None => project_rows(input, exprs, schema, 0..input.num_rows()),
    }
}

/// Row-at-a-time projection of `input[rows]` (computed expressions).
pub fn project_rows(
    input: &Batch,
    exprs: &[(Expr, String)],
    schema: Arc<Schema>,
    rows: Range<usize>,
) -> Result<Batch> {
    let mut out_rows = Vec::with_capacity(rows.len());
    for r in rows {
        let row = input.row(r);
        let mut out = Vec::with_capacity(exprs.len());
        for (e, _) in exprs {
            out.push(e.eval_row(&row)?);
        }
        out_rows.push(out);
    }
    Batch::from_rows(schema, &out_rows)
}

/// Applies a pure column mapping in one move: output column `j` is input
/// column `map[j]`, cloned at the payload level (a memcpy the compiler
/// vectorizes, and an `Arc` bump per dictionary) — no per-row expression
/// evaluation, no row materialization.
pub fn apply_column_map(input: &Batch, map: &[usize], schema: Arc<Schema>) -> Result<Batch> {
    let columns: Vec<Column> = map.iter().map(|&c| input.columns[c].clone()).collect();
    Batch::new(schema, columns)
}

/// Estimated payload bytes of one row of `batch` — feeds the
/// `vdm_morsel_size_bytes` dispatch counter (dictionary-encoded strings
/// count their 4-byte codes; dictionaries are shared, not per-row).
pub fn row_bytes(batch: &Batch) -> usize {
    batch
        .columns
        .iter()
        .map(|c| match c.data() {
            ColumnData::Int(_) => 8,
            ColumnData::Dec { .. } => 16,
            ColumnData::Bool(_) => 1,
            ColumnData::Date(_) => 4,
            ColumnData::Str(_) => 4,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::{Field, SqlType};

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
        let ha = hash_keys(&a, &[0], 0..3);
        let hb = hash_keys(&b, &[0], 0..3);
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
        let full = hash_keys(&b, &[0], 0..100);
        let sub = hash_keys(&b, &[0], 40..60);
        assert_eq!(&full[40..60], &sub[..]);
    }

    #[test]
    fn compiled_predicate_matches_row_eval() {
        let b = batch(vec![
            (SqlType::Int, vec![Value::Int(1), Value::Int(5), Value::Null, Value::Int(9)]),
            (SqlType::Text, vec![Value::str("a"), Value::str("b"), Value::str("b"), Value::Null]),
        ]);
        let pred =
            Expr::col(0).binary(BinOp::GtEq, Expr::int(2)).and(Expr::col(1).eq(Expr::str("b")));
        let compiled = CompiledPredicate::compile(&pred).expect("compilable");
        let mut sel = Vec::new();
        assert!(compiled.eval_into(&b, 0..4, &mut sel));
        let mut expect = Vec::new();
        for i in 0..4 {
            if pred.eval_row(&b.row(i)).unwrap().as_bool().unwrap() == Some(true) {
                expect.push(i);
            }
        }
        assert_eq!(sel, expect);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn compiled_predicate_numeric_cross_type() {
        // INT column vs DECIMAL literal goes through Decimal comparison.
        let b = batch(vec![(SqlType::Int, vec![Value::Int(2), Value::Int(3)])]);
        let pred = Expr::col(0).binary(BinOp::Gt, Expr::Lit(Value::Dec("2.5".parse().unwrap())));
        let compiled = CompiledPredicate::compile(&pred).unwrap();
        let mut sel = Vec::new();
        assert!(compiled.eval_into(&b, 0..2, &mut sel));
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn compiled_predicate_rejects_non_atom_shapes() {
        assert!(CompiledPredicate::compile(&Expr::col(0).eq(Expr::col(1))).is_none());
        let arith = Expr::col(0).binary(BinOp::Add, Expr::int(1)).eq(Expr::int(2));
        assert!(CompiledPredicate::compile(&arith).is_none());
    }

    #[test]
    fn column_map_kernel_selects_and_duplicates() {
        let b = batch(vec![
            (SqlType::Int, vec![Value::Int(1), Value::Int(2)]),
            (SqlType::Text, vec![Value::str("a"), Value::Null]),
        ]);
        let schema = Arc::new(Schema::new(vec![
            Field::new("s", SqlType::Text, true),
            Field::new("k", SqlType::Int, true),
            Field::new("k2", SqlType::Int, true),
        ]));
        let out = apply_column_map(&b, &[1, 0, 0], schema).unwrap();
        assert_eq!(out.to_rows()[0], vec![Value::str("a"), Value::Int(1), Value::Int(1)]);
        assert_eq!(out.to_rows()[1], vec![Value::Null, Value::Int(2), Value::Int(2)]);
    }
}
