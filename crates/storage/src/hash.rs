//! The one typed hash and the one table that finds rows by it ([`KeyTable`],
//! keys compared by [`KeyEq`]). Keys equal under [`Value`] equality hash
//! alike only *within one physical column type*: across two batches, check
//! [`Column::sql_type`] equality first, else hash through `Value::hash` as
//! [`hash_side`] and [`hash_values`] do.

use crate::column::{Column, ColumnData, StrColumn};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::Range;
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
/// SipHash for hashing `Value` rows (cross-type keys, result digests),
/// where DoS resistance buys nothing.
#[derive(Default, Clone)]
struct FxHasher {
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
/// sentinel instead, selected by mask (NULLs scattered through a column
/// would mispredict a branch), so `payload` also reads NULL slots.
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
        Some(v) => at.for_each(|(h, r)| {
            let keep = u64::from(v[r]).wrapping_neg();
            *h = combine(*h, (payload(r) & keep) | (NULL_PAYLOAD & !keep))
        }),
    }
}

/// Hashes of the composite key `cols` at `rows` (a range, or a selection),
/// computed column-at-a-time. Consistent with [`Value`] equality within each
/// physical column type (see the module docs for the cross-batch contract).
pub fn hash_keys(
    cols: &[impl Borrow<Column>],
    rows: impl ExactSizeIterator<Item = usize> + Clone,
) -> Vec<u64> {
    let mut hashes = vec![KEY_SEED; rows.len()];
    for col in cols {
        hash_column_into(col.borrow(), rows.clone(), &mut hashes);
    }
    hashes
}

/// Key equality between two sets of key columns: row `i` of `a` against
/// row `j` of `b` under [`Value`] equality, NULL equal to NULL (a join and a
/// unique constraint drop NULL keys before they hash). Each key pair is
/// resolved once to typed payload slices: strings of two dictionaries
/// compare by content, of one column by code; only a cross-type pair (`INT`
/// and `DECIMAL`, two scales) goes by `Value`.
pub struct KeyEq<'a> {
    /// Per key pair: both validity masks and the payloads.
    parts: Vec<([Option<&'a [bool]>; 2], Cells<'a>)>,
}

/// `Dec` is one scale; `Code`, one string column against itself (its
/// dictionary holds each string once).
enum Cells<'a> {
    Int(&'a [i64], &'a [i64]),
    Dec(&'a [i128], &'a [i128]),
    Bool(&'a [bool], &'a [bool]),
    Date(&'a [i32], &'a [i32]),
    Code(&'a [u32]),
    Str(&'a StrColumn, &'a StrColumn),
    Value(&'a Column, &'a Column),
}

impl<'a> KeyEq<'a> {
    /// The comparator of key columns `a` against `b`, pair by pair.
    pub fn new(a: &'a [impl Borrow<Column>], b: &'a [impl Borrow<Column>]) -> KeyEq<'a> {
        use ColumnData::*;
        let part = |a: &'a Column, b: &'a Column| {
            let cells = match (a.data(), b.data()) {
                (Int(x), Int(y)) => Cells::Int(x, y),
                (Dec { units: x, scale: s }, Dec { units: y, scale: t }) if s == t => {
                    Cells::Dec(x, y)
                }
                (Bool(x), Bool(y)) => Cells::Bool(x, y),
                (Date(x), Date(y)) => Cells::Date(x, y),
                (Str(x), Str(y)) if std::ptr::eq(x, y) => {
                    let mut seen = std::collections::HashSet::new();
                    debug_assert!(x.dict.iter().all(|d| seen.insert(d)), "a duplicated string");
                    Cells::Code(&x.codes)
                }
                (Str(x), Str(y)) => Cells::Str(x, y),
                _ => Cells::Value(a, b),
            };
            ([a.validity(), b.validity()], cells)
        };
        KeyEq { parts: a.iter().zip(b).map(|(a, b)| part(a.borrow(), b.borrow())).collect() }
    }

    /// Whether row `i` of `a` holds the key of row `j` of `b`. Fixed-width
    /// payloads compare without a branch (a NULL slot holds one too).
    #[inline]
    pub fn eq(&self, i: usize, j: usize) -> bool {
        self.parts.iter().all(|([a, b], cells)| {
            let (a, b) = (a.is_none_or(|v| v[i]), b.is_none_or(|v| v[j]));
            let same = match *cells {
                Cells::Int(x, y) => x[i] == y[j],
                Cells::Dec(x, y) => x[i] == y[j],
                Cells::Bool(x, y) => x[i] == y[j],
                Cells::Date(x, y) => x[i] == y[j],
                Cells::Code(c) => c[i] == c[j],
                // A NULL slot's code may index an empty dictionary.
                Cells::Str(x, y) => {
                    a && b && x.dict[x.codes[i] as usize] == y.dict[y.codes[j] as usize]
                }
                Cells::Value(x, y) => a && b && x.get(i) == y.get(j),
            };
            (a & b & same) | (!a & !b)
        })
    }
}

/// Hashes of key columns `cols` at `rows` for a lookup between two batches:
/// [`hash_keys`] when `typed` (each key column has its counterpart's physical
/// type), else through `Value::hash`, so that `Int(2)` finds `Dec(2.00)`.
/// Both sides must hash with one `typed`.
pub fn hash_side(cols: &[impl Borrow<Column>], rows: Range<usize>, typed: bool) -> Vec<u64> {
    if typed {
        return hash_keys(cols, rows);
    }
    let cells = |i: usize| {
        let mut h = FxHasher::default();
        cols.iter().for_each(|c| c.borrow().get(i).hash(&mut h));
        h.finish()
    };
    rows.map(cells).collect()
}

/// A chained hash table of row references `R` over key columns the caller
/// owns; it stores no key. A lookup walks the chain of the hash's slot past
/// entries whose full hash differs; the caller compares the rest's cells
/// ([`KeyEq`]). Slots take the hash's high bits, so a caller may
/// partition on the low ones. Ids are `0..len`, in insertion order until a
/// remove hands the removed id to the last entry.
#[derive(Debug, Clone)]
pub struct KeyTable<R> {
    /// Per slot, 1 + the id of its chain's first entry; 0 = empty.
    heads: Vec<u32>,
    entries: Vec<Entry<R>>,
}

/// A [`KeyTable`] entry — its key's hash, 1 + the id of the next entry in
/// its chain (0 = last) and its reference — so a chain step reads one entry.
#[derive(Debug, Clone, Copy)]
struct Entry<R> {
    hash: u64,
    next: u32,
    r: R,
}

impl<R: Copy> KeyTable<R> {
    /// An empty table that takes `n` entries before it grows.
    pub fn with_capacity(n: usize) -> KeyTable<R> {
        let slots = (2 * n).next_power_of_two().max(8);
        KeyTable { heads: vec![0; slots], entries: Vec::with_capacity(n) }
    }

    fn slot(&self, hash: u64) -> usize {
        (hash >> (64 - self.heads.len().trailing_zeros())) as usize
    }

    /// Adds an entry for `r` under `hash` at the front of its chain, whether
    /// or not its key is already held (a multiset); returns its id.
    pub fn insert(&mut self, hash: u64, r: R) -> usize {
        let id = self.entries.len();
        assert!(id < u32::MAX as usize, "a key table holds fewer than 2^32 - 1 entries");
        if id >= self.heads.len() / 2 {
            self.grow();
        }
        let slot = self.slot(hash);
        let next = std::mem::replace(&mut self.heads[slot], id as u32 + 1);
        self.entries.push(Entry { hash, next, r });
        id
    }

    /// The id of the entry under hash `h` whose reference `eq` confirms
    /// holds the key.
    pub fn find(&self, h: u64, mut eq: impl FnMut(R) -> bool) -> Option<usize> {
        self.candidates(h).find(|&(_, held)| eq(held)).map(|(id, _)| id)
    }

    /// [`KeyTable::find`], else a new entry for `r`: its id, and whether it is new.
    pub fn find_or_insert(&mut self, h: u64, r: R, eq: impl FnMut(R) -> bool) -> (usize, bool) {
        self.find(h, eq).map_or_else(|| (self.insert(h, r), true), |id| (id, false))
    }

    /// The entries under exactly `hash` as `(id, reference)`. A table that
    /// never removed an entry lists them newest first: by id, descending.
    pub fn candidates(&self, hash: u64) -> impl Iterator<Item = (usize, R)> + '_ {
        let mut at = self.heads[self.slot(hash)] as usize;
        std::iter::from_fn(move || loop {
            let id = at.checked_sub(1)?;
            let entry = &self.entries[id];
            at = entry.next as usize;
            if entry.hash == hash {
                return Some((id, entry.r));
            }
        })
    }

    /// Removes entry `id`: the last entry takes over its id.
    pub fn remove(&mut self, id: usize) {
        let last = self.entries.len() - 1;
        self.relink(id, self.entries[id].next);
        if id != last {
            self.relink(last, id as u32 + 1);
        }
        self.entries.swap_remove(id);
    }

    /// Points the link to entry `id` (a head or a `next`) at `to`.
    fn relink(&mut self, id: usize, to: u32) {
        let slot = self.slot(self.entries[id].hash);
        let mut link = &mut self.heads[slot];
        while *link as usize != id + 1 {
            let at = *link as usize - 1;
            link = &mut self.entries[at].next;
        }
        *link = to;
    }

    /// The references, by id.
    pub fn refs(&self) -> impl ExactSizeIterator<Item = R> + '_ {
        self.entries.iter().map(|entry| entry.r)
    }

    /// Entry `id`'s reference, to re-point at a row that moved.
    pub(crate) fn ref_mut(&mut self, id: usize) -> &mut R {
        &mut self.entries[id].r
    }

    /// Doubles the slots; each chain is rebuilt by id, descending.
    fn grow(&mut self) {
        self.heads = vec![0; 2 * self.heads.len()];
        for id in 0..self.entries.len() {
            let slot = self.slot(self.entries[id].hash);
            self.entries[id].next = std::mem::replace(&mut self.heads[slot], id as u32 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::SplitMix64;

    /// Seeded scripts of inserts and find-or-inserts — then removes too —
    /// over keys that share their full hash in pairs, against a model that
    /// keeps each id's key: every returned id, the ids a remove hands over,
    /// each hash's candidates and the table's size match across several
    /// doublings of the slots, and until the first remove the candidates
    /// come newest first.
    #[test]
    fn key_table_matches_a_model() {
        // Keys 2k and 2k + 1 share a full hash; keys are their own references.
        let hash_of = |key: u32| mix64(u64::from(key / 2));
        for seed in [7u64, 8, 9] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut table: KeyTable<u32> = KeyTable::with_capacity(0);
            // Each id's key.
            let mut model: Vec<u32> = Vec::new();
            let (mut grew, mut removed) = (0, false);
            for step in 0..6000usize {
                let ctx = format!("seed {seed} step {step}");
                let key = rng.random_range(0..3000u32);
                let slots = table.heads.len();
                match rng.random_range(0..10u32) {
                    0..=3 => {
                        assert_eq!(table.insert(hash_of(key), key), model.len(), "{ctx}");
                        model.push(key);
                    }
                    4..=7 => {
                        let got = table.find_or_insert(hash_of(key), key, |k| k == key);
                        // Until the first remove, the newest holder is the highest id.
                        match model.iter().rposition(|&k| k == key) {
                            Some(id) if !removed => assert_eq!(got, (id, false), "{ctx}"),
                            Some(_) => assert_eq!((model[got.0], got.1), (key, false), "{ctx}"),
                            None => {
                                assert_eq!(got, (model.len(), true), "{ctx}");
                                model.push(key);
                            }
                        }
                    }
                    _ if step < 2000 || model.is_empty() => {}
                    _ => {
                        let id = rng.random_range(0..model.len());
                        table.remove(id);
                        model.swap_remove(id);
                        removed = true;
                    }
                }
                grew += usize::from(table.heads.len() > slots);
                if step % 250 == 0 || step == 5999 {
                    assert_eq!(table.refs().collect::<Vec<_>>(), model, "{ctx}");
                    // Each hash's entries, by id descending.
                    let mut chains: Vec<Vec<(usize, u32)>> = vec![Vec::new(); 1500];
                    model
                        .iter()
                        .enumerate()
                        .rev()
                        .for_each(|(id, &k)| chains[k as usize / 2].push((id, k)));
                    for (pair, want) in chains.into_iter().enumerate() {
                        let mut got: Vec<(usize, u32)> =
                            table.candidates(hash_of(2 * pair as u32)).collect();
                        if removed {
                            got.sort_by(|a, b| b.cmp(a));
                        }
                        assert_eq!(got, want, "{ctx} pair {pair}");
                    }
                }
            }
            assert!(grew >= 4 && removed, "seed {seed}: the slots doubled {grew} times");
        }
    }
}
