//! The one typed hash of the join, the group table and the unique-key index.
//! Keys equal under [`Value`] equality hash alike only *within one physical
//! column type*: across two batches, check [`Column::sql_type`] equality
//! first, else hash through `Value::hash` as [`hash_values`] does.

use crate::column::{Column, ColumnData};
use std::hash::Hasher;
use vdm_types::Value;

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
/// SipHash for hashing `Value` rows (cross-type join keys, result
/// digests) and already-mixed `u64` keys, where DoS resistance buys nothing.
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

/// `Hasher` methods that feed one word each.
macro_rules! words {
    ($($name:ident: $ty:ty),*) => {
        $(#[inline] fn $name(&mut self, v: $ty) { self.add(v as u64); })*
    };
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

    words!(write_u8: u8, write_u32: u32, write_u64: u64);
    words!(write_usize: usize, write_i32: i32, write_i64: i64);

    #[inline]
    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
}

/// Routing hash of a materialized key through `Value::hash` (canonical
/// across Int/Dec) — the fallback when columnar hashing is not applicable.
pub fn hash_values(key: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Content hash of one string.
#[inline]
fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Mixes column `col` at `rows` into `hashes` (`hashes[k]` covers the
/// `k`-th row). Fixed-width payloads mix directly; a string column hashes its
/// dictionary once when that is no longer than the row set, else each cell.
#[inline]
fn hash_column_into(col: &Column, rows: impl Iterator<Item = usize>, hashes: &mut [u64]) {
    let valid = col.validity();
    match col.data() {
        ColumnData::Int(v) => mix_into(hashes, valid, rows, |r| v[r] as u64),
        ColumnData::Dec { units, .. } => mix_into(hashes, valid, rows, |r| {
            let u = units[r];
            (u as u64).wrapping_add(mix64((u >> 64) as u64))
        }),
        ColumnData::Bool(v) => mix_into(hashes, valid, rows, |r| v[r] as u64),
        ColumnData::Date(v) => mix_into(hashes, valid, rows, |r| v[r] as u64),
        // NULL slots carry code 0 over a possibly empty dictionary.
        ColumnData::Str(s) if s.dict.len() <= hashes.len() => {
            let dict_hashes: Vec<u64> = s.dict.iter().map(|d| str_hash(d)).collect();
            mix_into(hashes, valid, rows, |r| {
                dict_hashes.get(s.codes[r] as usize).copied().unwrap_or(0)
            })
        }
        ColumnData::Str(s) => mix_into(hashes, valid, rows, |r| {
            s.dict.get(s.codes[r] as usize).map_or(0, |d| str_hash(d))
        }),
    }
}

/// Combines `payload(row)` into each row's hash; a NULL slot contributes the
/// sentinel instead. A column without a validity mask (NOT NULL keys) takes
/// the dense loop, which stays branch-free.
#[inline]
fn mix_into(
    hashes: &mut [u64],
    valid: Option<&[bool]>,
    rows: impl Iterator<Item = usize>,
    payload: impl Fn(usize) -> u64,
) {
    let at = hashes.iter_mut().zip(rows);
    match valid {
        None => at.for_each(|(h, r)| *h = combine(*h, payload(r))),
        Some(v) => {
            at.for_each(|(h, r)| *h = combine(*h, if v[r] { payload(r) } else { NULL_PAYLOAD }))
        }
    }
}

/// `a[i] == b[j]` for two non-NULL cells, under [`Value`] equality: typed
/// payloads compare in place (strings by content, so the two sides may carry
/// different dictionaries); only a cross-type pair — `INT` against `DECIMAL`,
/// two decimal scales — goes through `Value`.
#[inline]
pub fn cells_equal(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a.data(), b.data()) {
        (ColumnData::Int(x), ColumnData::Int(y)) => x[i] == y[j],
        (ColumnData::Dec { units: x, scale: s }, ColumnData::Dec { units: y, scale: t })
            if s == t =>
        {
            x[i] == y[j]
        }
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[i] == y[j],
        (ColumnData::Date(x), ColumnData::Date(y)) => x[i] == y[j],
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            x.dict[x.codes[i] as usize] == y.dict[y.codes[j] as usize]
        }
        _ => a.get(i) == b.get(j),
    }
}

/// Hashes of the composite key `cols` at `rows` (a range, or a selection),
/// computed column-at-a-time. Consistent with [`Value`] equality within each
/// physical column type (see the module docs for the cross-batch contract).
pub fn hash_keys(cols: &[&Column], rows: impl ExactSizeIterator<Item = usize> + Clone) -> Vec<u64> {
    let mut hashes = vec![KEY_SEED; rows.len()];
    for col in cols {
        hash_column_into(col, rows.clone(), &mut hashes);
    }
    hashes
}
