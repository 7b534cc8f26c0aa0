//! Per-table storage: three fragments of one kind — main, delta and the
//! tombstone log — each typed columns with per-row visibility stamps.

use crate::column::{Batch, Column};
use crate::hash::{hash_keys, KeyEq, KeyTable};
use crate::nse::{LoadMode, PageBuffer, PageStats};
use crate::zonemap::{ScanRange, ZoneMaps, ZONE_BLOCK_ROWS};
use std::ops::Range;
use std::sync::Arc;
use std::sync::Mutex;
use vdm_catalog::TableDef;
use vdm_types::{Result, Schema, Value, VdmError};

/// Rows [`TableStore::delete_where`] reads into its buffer at a time.
const DELETE_CHUNK_ROWS: usize = 256;

/// Visibility stamps of one row version; in the tombstone log, those of
/// the deleted version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowMeta {
    insert_ts: u64,
    /// `u64::MAX` = live.
    delete_ts: u64,
}

impl RowMeta {
    fn visible_at(&self, ts: u64) -> bool {
        self.insert_ts <= ts && ts < self.delete_ts
    }
}

/// One typed column per table column plus one [`RowMeta`] per row: a
/// table's main fragment, its delta and its tombstone log are each one.
#[derive(Debug)]
struct Fragment {
    columns: Vec<Column>,
    meta: Vec<RowMeta>,
}

impl Fragment {
    /// No rows, in the types of `schema`.
    fn empty(schema: &Arc<Schema>) -> Fragment {
        Fragment { columns: Batch::empty(Arc::clone(schema)).columns, meta: Vec::new() }
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    /// Appends `columns` (this fragment's types) stamped `meta`; into an
    /// empty fragment they move as they are.
    fn append(&mut self, columns: Vec<Column>, meta: impl Iterator<Item = RowMeta>) -> Result<()> {
        if self.meta.is_empty() {
            self.columns = columns;
        } else {
            for (col, tail) in self.columns.iter_mut().zip(&columns) {
                col.append(tail)?;
            }
        }
        self.meta.extend(meta);
        Ok(())
    }
}

/// Where a row lives; while an insert claims keys, a delta row past the end
/// is the incoming batch's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowRef {
    Main(u32),
    Delta(u32),
}

/// The key columns `cols` of a fragment's columns.
fn key_cols<'f>(cols: &[usize], frag: &'f [Column]) -> Vec<&'f Column> {
    cols.iter().map(|&c| &frag[c]).collect()
}

/// The rows of `sel` whose key columns `cols` have no NULL part, each with
/// its hash — one [`hash_keys`] call for the whole set.
fn keyed(cols: &[&Column], sel: &[usize]) -> Vec<(usize, u64)> {
    let hashes = hash_keys(cols, sel.iter().copied());
    let keyed = sel.iter().zip(hashes).filter(|(&i, _)| cols.iter().all(|c| !c.is_null(i)));
    keyed.map(|(&i, h)| (i, h)).collect()
}

/// A predicate over a fragment: its columns (by table ordinal) and a row
/// range to the mask of rows on which it is TRUE, `None` when it cannot be
/// evaluated there.
pub type MaskFn<'a> = dyn Fn(&[Column], Range<usize>) -> Option<Vec<bool>> + Sync + 'a;

/// The filter sitting on a scan, in storage's own vocabulary: what lets a
/// read skip blocks and drop rows before it gathers them. The result is a
/// superset of the matches — zone maps are per block, and a mask may
/// decline a run — so the caller re-applies the full predicate.
#[derive(Clone, Copy, Default)]
pub struct ScanFilter<'a> {
    /// Conjuncts `(table ordinal, range)`: a main-fragment block whose zone
    /// map excludes any one of them holds no match and is skipped.
    pub ranges: &'a [(usize, ScanRange)],
    /// The whole predicate, applied to main and delta rows alike; it must
    /// not be able to fail.
    pub mask: Option<&'a MaskFn<'a>>,
}

/// One table's data: a read-optimized `main` fragment (zone-mapped,
/// page-accounted), a `delta` that every insert appends to, and the
/// tombstone log — three `Fragment`s, so storage keeps no rows.
#[derive(Debug)]
pub struct TableStore {
    def: Arc<TableDef>,
    schema: Arc<Schema>,
    main: Fragment,
    delta: Fragment,
    /// Per unique constraint (PK first), its key columns and the rows
    /// holding its live non-NULL keys (found by hash, never materialized).
    key_index: Vec<(Vec<usize>, KeyTable<RowRef>)>,
    /// Append-only tombstone log (delete-timestamp order): each deleted row
    /// version's columns under its `(insert_ts, delete_ts)`. Authoritative
    /// source for [`TableStore::deleted_between`]: unlike main and delta,
    /// it survives `merge_delta` compaction, so a view whose `as_of`
    /// predates a merge still sees every retraction.
    tombstones: Fragment,
    merges: usize,
    /// Timestamp of the most recent write (insert or delete).
    last_write_ts: u64,
    /// Timestamp of the most recent delete.
    last_delete_ts: u64,
    /// Per-block min/max over the main fragment, extended from the first
    /// changed block at delta merge (rebuilt only when a merge compacts) —
    /// the scan-pruning analogue of S/4HANA's partition pruning (§2.2).
    zone_maps: ZoneMaps,
    /// Blocks skipped by zone-map pruning (diagnostics).
    blocks_skipped: Mutex<u64>,
    /// NSE simulation: how the main fragment is kept resident.
    load_mode: LoadMode,
    /// Page buffer for page-loadable tables (interior mutability: scans
    /// take a read lock but still account page traffic).
    page_buffer: Mutex<PageBuffer>,
}

impl TableStore {
    /// Empty store for a table definition.
    pub fn new(def: Arc<TableDef>) -> TableStore {
        let schema = Arc::new(def.schema.clone());
        let index = |cols| (cols, KeyTable::with_capacity(0));
        TableStore {
            main: Fragment::empty(&schema),
            delta: Fragment::empty(&schema),
            tombstones: Fragment::empty(&schema),
            key_index: def.unique_sets().into_iter().map(index).collect(),
            def,
            schema,
            merges: 0,
            last_write_ts: 0,
            last_delete_ts: 0,
            zone_maps: ZoneMaps::default(),
            blocks_skipped: Mutex::new(0),
            load_mode: LoadMode::ColumnLoadable,
            page_buffer: Mutex::new(PageBuffer::new(64)),
        }
    }

    /// The table's NSE load mode.
    pub fn load_mode(&self) -> LoadMode {
        self.load_mode
    }

    /// Switches the load mode — the paper's "changing the metadata of the
    /// table and reloading": the page buffer is dropped.
    pub fn set_load_mode(&mut self, mode: LoadMode, buffer_pages: usize) {
        self.load_mode = mode;
        *self.page_buffer.lock().unwrap() = PageBuffer::new(buffer_pages);
    }

    /// Page-buffer counters (all zero for column-loadable tables).
    pub fn page_stats(&self) -> PageStats {
        self.page_buffer.lock().unwrap().stats()
    }

    /// Accounts page traffic for a scan touching main-fragment rows `rows`.
    fn account_scan(&self, rows: Range<usize>) {
        if let LoadMode::PageLoadable { page_rows } = self.load_mode {
            self.page_buffer.lock().unwrap().touch_range(rows, page_rows);
        }
    }

    /// Timestamp of the most recent write (insert or delete); 0 = never.
    pub fn last_write_ts(&self) -> u64 {
        self.last_write_ts
    }

    /// Timestamp of the most recent delete; 0 = never.
    pub fn last_delete_ts(&self) -> u64 {
        self.last_delete_ts
    }

    /// Rows inserted after `ts` (exclusive) that are still live at `now` —
    /// the append-delta used by incremental view maintenance. Rows inserted
    /// *and* deleted inside the window cancel out: they appear in neither
    /// this feed nor [`TableStore::deleted_between`].
    ///
    /// Insert timestamps are non-decreasing within each fragment (the delta
    /// appends in commit order; merges preserve it), so the matching suffix
    /// is located by binary search instead of a full stamp sweep — the cost
    /// is O(log table + delta rows), not O(table).
    pub fn inserted_between(&self, ts: u64, now: u64, cols: Option<&[usize]>) -> Result<Batch> {
        let born = |f: &Fragment| f.meta.partition_point(|m| m.insert_ts <= ts)..f.len();
        let (main, delta) = (born(&self.main), born(&self.delta));
        Ok(self.read(|m| m.visible_at(now), main, delta, ScanFilter::default(), cols)?.0)
    }

    /// Rows that were visible at `ts` and tombstoned by `now` — the
    /// retraction-delta counterpart of [`TableStore::inserted_between`].
    /// Served from the tombstone log (delete-timestamp order, binary
    /// searched), so the cost is O(log deletes + matches) and the feed stays
    /// correct after `merge_delta` compacts the deleted rows away.
    pub fn deleted_between(&self, ts: u64, now: u64, cols: Option<&[usize]>) -> Result<Batch> {
        let log = &self.tombstones.meta;
        let window = log.partition_point(|m| m.delete_ts <= ts)..log.len();
        // `insert_ts <= ts` keeps rows born inside the window out: those
        // cancel against the insert feed rather than retracting.
        let sel: Vec<usize> =
            window.filter(|&i| log[i].delete_ts <= now && log[i].insert_ts <= ts).collect();
        self.gather(&[(&self.tombstones, &sel)], cols)
    }

    /// The table definition.
    pub fn def(&self) -> &Arc<TableDef> {
        &self.def
    }

    /// Rows in the delta fragment (merge diagnostics).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Rows in the main fragment.
    pub fn main_len(&self) -> usize {
        self.main.len()
    }

    /// Completed delta merges.
    pub fn merge_count(&self) -> usize {
        self.merges
    }

    /// Validates and appends rows to the delta at `ts`, all or nothing.
    /// Enforces arity, types (values must coerce into the column type), NOT
    /// NULL, and key uniqueness. The only place a row becomes columns: each
    /// is built straight from the rows' cells in one typed pass.
    pub fn insert(&mut self, rows: &[Vec<Value>], ts: u64) -> Result<usize> {
        let fail = |what| VdmError::Storage(format!("insert into {:?}: {what}", self.def.name));
        let width = self.schema.len();
        if let Some(row) = rows.iter().find(|r| r.len() != width) {
            return Err(fail(format!("row has {} values, table has {width} columns", row.len())));
        }
        let mut columns = Vec::with_capacity(width);
        for (c, f) in self.schema.fields().iter().enumerate() {
            let column = Column::from_values(f.ty, rows.iter().map(|r| &r[c]))
                .map_err(|e| fail(format!("column {:?}: {e}", f.name)))?;
            if !f.nullable && column.validity().is_some() {
                return Err(fail(format!("column {:?} is NOT NULL", f.name)));
            }
            columns.push(column);
        }
        self.claim_keys(&columns, rows.len())?;
        let live = RowMeta { insert_ts: ts, delete_ts: u64::MAX };
        self.delta.append(columns, std::iter::repeat_n(live, rows.len()))?;
        if !rows.is_empty() {
            self.last_write_ts = self.last_write_ts.max(ts);
        }
        Ok(rows.len())
    }

    /// Claims the keys of the `n` incoming rows `columns` (delta rows
    /// `delta.len()..` once appended), all or none.
    fn claim_keys(&mut self, columns: &[Column], n: usize) -> Result<()> {
        let base = self.delta.len();
        let (all, mut claimed): (Vec<usize>, _) = ((0..n).collect(), Vec::new());
        for ki in 0..self.key_index.len() {
            let (cols, rows) = &mut self.key_index[ki];
            let frags = [&self.main.columns, &self.delta.columns, columns];
            let [main, delta, incoming] = frags.map(|frag| key_cols(cols, frag));
            let [main, delta, batch] =
                [&main, &delta, &incoming].map(|held| KeyEq::new(held, &incoming));
            for (r, h) in keyed(&incoming, &all) {
                let same = |held| match held {
                    RowRef::Main(i) => main.eq(i as usize, r),
                    RowRef::Delta(i) if (i as usize) < base => delta.eq(i as usize, r),
                    RowRef::Delta(i) => batch.eq(i as usize - base, r),
                };
                let (id, fresh) = rows.find_or_insert(h, RowRef::Delta((base + r) as u32), same);
                if fresh {
                    claimed.push((ki, id));
                    continue;
                }
                // Last claim first: each is its table's last entry.
                for (k, id) in claimed.into_iter().rev() {
                    self.key_index[k].1.remove(id);
                }
                let name = &self.def.name;
                let msg = format!("insert into {name:?}: duplicate key for unique constraint {ki}");
                return Err(VdmError::Storage(msg));
            }
        }
        Ok(())
    }

    /// Marks rows matching `pred` (still live just before `ts`) as deleted:
    /// they become invisible to snapshots at `ts` and later and are gathered
    /// into the tombstone log, main rows first. Returns the number of rows
    /// deleted.
    pub fn delete_where(&mut self, pred: &dyn Fn(&[Value]) -> bool, ts: u64) -> usize {
        let [main, delta] = self.doomed(pred, ts, |_| {});
        self.kill(&main, &delta, ts)
    }

    /// The rows of main and of the delta live just before `ts` on which
    /// `pred` holds, in physical order; each is handed to `hit`, then all give
    /// up their keys. Both fragments are read the same way: a chunk of rows at
    /// a time into one reused row buffer, one payload dispatch per column per
    /// chunk.
    fn doomed(
        &mut self,
        pred: &dyn Fn(&[Value]) -> bool,
        ts: u64,
        mut hit: impl FnMut(&[Value]),
    ) -> [Vec<usize>; 2] {
        let width = self.schema.len();
        let mut buf = vec![Value::Null; DELETE_CHUNK_ROWS * width];
        let doomed = [&self.main, &self.delta].map(|frag| {
            let mut out = Vec::new();
            for start in (0..frag.len()).step_by(DELETE_CHUNK_ROWS) {
                let rows = start..(start + DELETE_CHUNK_ROWS).min(frag.len());
                for (c, col) in frag.columns.iter().enumerate() {
                    col.values_into(rows.clone(), buf[c..].iter_mut().step_by(width));
                }
                for (i, row) in rows.zip(buf.chunks_exact(width)) {
                    if frag.meta[i].visible_at(ts.saturating_sub(1)) && pred(row) {
                        hit(row);
                        out.push(i);
                    }
                }
            }
            out
        });
        self.rekey(&doomed, false);
        doomed
    }

    /// Releases the keys of rows `rows[0]` of main and `rows[1]` of the
    /// delta, or — `hold` — claims them back unchecked (they were held).
    fn rekey(&mut self, rows: &[Vec<usize>; 2], hold: bool) {
        let frags = [(&self.main, RowRef::Main as fn(u32) -> RowRef), (&self.delta, RowRef::Delta)];
        for (cols, keys) in &mut self.key_index {
            for ((frag, at), sel) in frags.iter().zip(rows) {
                for (i, h) in keyed(&key_cols(cols, &frag.columns), sel) {
                    let row = at(i as u32);
                    match hold {
                        true => _ = keys.insert(h, row),
                        false => {
                            keys.find(h, |r| r == row).into_iter().for_each(|id| keys.remove(id))
                        }
                    }
                }
            }
        }
    }

    /// Stamps rows `main` of main and `delta` of the delta deleted at `ts`
    /// and gathers them into the tombstone log; returns how many.
    fn kill(&mut self, main: &[usize], delta: &[usize], ts: u64) -> usize {
        for (frag, doomed) in [(&mut self.main, main), (&mut self.delta, delta)] {
            if doomed.is_empty() {
                continue;
            }
            for &i in doomed {
                frag.meta[i].delete_ts = ts;
            }
            let columns = frag.columns.iter().map(|c| c.gather_compact(doomed)).collect();
            let meta = doomed.iter().map(|&i| frag.meta[i]);
            self.tombstones.append(columns, meta).expect("all fragments have the table's types");
        }
        let n = main.len() + delta.len();
        if n > 0 {
            self.last_write_ts = self.last_write_ts.max(ts);
            self.last_delete_ts = self.last_delete_ts.max(ts);
        }
        n
    }

    /// Rewrites the rows matching `pred` with `f` at `ts`, all or nothing:
    /// the matches (main then delta, typed as a scan returns them — an INT
    /// inserted into a DECIMAL column arrives as a decimal) give up their
    /// keys, their rewritten versions are inserted, and only then are they
    /// deleted. A rejected insert hands the keys back and leaves the table
    /// as it was. Returns the number of rows updated.
    pub(crate) fn update_where(
        &mut self,
        pred: &dyn Fn(&[Value]) -> bool,
        f: &dyn Fn(&mut Vec<Value>),
        ts: u64,
    ) -> Result<usize> {
        let mut rows = Vec::new();
        let doomed = self.doomed(pred, ts, |row| rows.push(row.to_vec()));
        rows.iter_mut().for_each(f);
        if let Err(e) = self.insert(&rows, ts) {
            self.rekey(&doomed, true);
            return Err(e);
        }
        Ok(self.kill(&doomed[0], &doomed[1], ts))
    }

    /// Materializes all rows visible at `ts` as a columnar batch — the
    /// whole table as one morsel.
    pub fn scan(&self, ts: u64) -> Result<Batch> {
        Ok(self.scan_morsel(ts, 0, usize::MAX, ScanFilter::default(), None)?.0)
    }

    /// Number of fixed-size morsels covering the table's physical rows
    /// (main then delta). A scan claims indices `0..morsel_count`, and
    /// concatenating the morsel batches in index order reproduces
    /// [`TableStore::scan`] exactly.
    pub fn morsel_count(&self, morsel_rows: usize) -> usize {
        let total = self.main.len() + self.delta.len();
        total.div_ceil(morsel_rows.max(1))
    }

    /// The rows of one morsel — physical rows `[morsel * morsel_rows, ..)`
    /// of main++delta — visible at `ts`, narrowed to the table ordinals
    /// `cols` when given, and how many rows were visible. `filter` may leave
    /// rows out (see [`ScanFilter`]): the batch is then a superset of the
    /// matching rows and callers re-apply the full predicate. A skipped
    /// block is counted by the morsel holding its head and contributes no
    /// visible rows, so use a `morsel_rows` that is a multiple of
    /// [`ZONE_BLOCK_ROWS`] for each block to fall inside one morsel.
    pub fn scan_morsel(
        &self,
        ts: u64,
        morsel: usize,
        morsel_rows: usize,
        filter: ScanFilter<'_>,
        cols: Option<&[usize]>,
    ) -> Result<(Batch, usize)> {
        let morsel_rows = morsel_rows.max(1);
        let start = morsel.saturating_mul(morsel_rows);
        let end = start.saturating_add(morsel_rows);
        let (main_len, delta_len) = (self.main.len(), self.delta.len());
        let main = start.min(main_len)..end.min(main_len);
        let delta = start.saturating_sub(main_len).min(delta_len)
            ..end.saturating_sub(main_len).min(delta_len);
        self.read(|m| m.visible_at(ts), main, delta, filter, cols)
    }

    /// The one read path — scans, the insert feed and the delta merge:
    /// rows `main` of main then rows `delta` of the delta whose stamps pass
    /// `keep`, as one batch of the table ordinals `cols`, with how many
    /// passed `keep` in the rows read. Both fragments take the same three
    /// steps: the kept rows are selected (main blocks the zone maps exclude
    /// are neither read nor charged to the page buffer); the filter's mask,
    /// one run of rows at a time, drops those it rejects; each emitted
    /// column is gathered at payload level.
    fn read(
        &self,
        keep: impl Fn(&RowMeta) -> bool,
        main: Range<usize>,
        delta: Range<usize>,
        filter: ScanFilter<'_>,
        cols: Option<&[usize]>,
    ) -> Result<(Batch, usize)> {
        // Rows of `run` that pass `keep` and then the mask join `sel`;
        // returns how many passed `keep`.
        let select = |frag: &Fragment, run: Range<usize>, sel: &mut Vec<usize>| {
            if run.is_empty() {
                return 0;
            }
            let hits = filter.mask.and_then(|mask| mask(&frag.columns, run.clone()));
            let mut visible = 0;
            for (k, i) in run.enumerate() {
                if keep(&frag.meta[i]) {
                    visible += 1;
                    if hits.as_ref().is_none_or(|h| h[k]) {
                        sel.push(i);
                    }
                }
            }
            visible
        };
        // A mask is expected to keep few rows; without one, most are kept.
        let mut sel = Vec::with_capacity(if filter.mask.is_some() { 0 } else { main.len() });
        let mut visible = 0usize;
        let mut read_run = |run: Range<usize>| {
            self.account_scan(run.clone());
            visible += select(&self.main, run, &mut sel);
        };
        let mut skipped = 0u64;
        // Start of the run of adjacent blocks read since the last skip.
        let mut run_start = main.start;
        let mut b_start = main.start;
        while b_start < main.end {
            let block = b_start / ZONE_BLOCK_ROWS;
            let b_end = ((block + 1) * ZONE_BLOCK_ROWS).min(main.end);
            let excluded = |(col, range): &(usize, ScanRange)| {
                !self.zone_maps.block_may_match(*col, block, range)
            };
            if filter.ranges.iter().any(excluded) {
                if b_start == block * ZONE_BLOCK_ROWS {
                    skipped += 1;
                }
                read_run(run_start..b_start);
                run_start = b_end;
            }
            b_start = b_end;
        }
        read_run(run_start..main.end);
        if skipped > 0 {
            *self.blocks_skipped.lock().unwrap() += skipped;
        }
        let mut delta_sel = Vec::new();
        visible += select(&self.delta, delta, &mut delta_sel);
        Ok((self.gather(&[(&self.main, &sel), (&self.delta, &delta_sel)], cols)?, visible))
    }

    /// Rows `sel` of each fragment in turn as one batch of the table
    /// ordinals `cols` (`None` = every column), every column gathered at
    /// payload level.
    fn gather(&self, parts: &[(&Fragment, &[usize])], cols: Option<&[usize]>) -> Result<Batch> {
        let schema =
            cols.map_or_else(|| Arc::clone(&self.schema), |c| Arc::new(self.schema.select(c)));
        let mut columns = Vec::with_capacity(schema.len());
        for out in 0..schema.len() {
            let c = cols.map_or(out, |cols| cols[out]);
            let mut column = parts[0].0.columns[c].gather_compact(parts[0].1);
            for (frag, sel) in parts[1..].iter().filter(|(_, sel)| !sel.is_empty()) {
                column.append(&frag.columns[c].gather_compact(sel))?;
            }
            columns.push(column);
        }
        Batch::new(schema, columns)
    }

    /// Total main-fragment blocks skipped by zone-map pruning so far.
    pub fn blocks_skipped(&self) -> u64 {
        *self.blocks_skipped.lock().unwrap()
    }

    /// Whole-main-fragment `(min, max)` of every column, from zone maps.
    /// Excludes unmerged delta rows — good enough for estimation, and the
    /// maps only exist after a delta merge anyway.
    pub fn column_ranges(&self) -> Vec<Option<(Value, Value)>> {
        (0..self.schema.len()).map(|c| self.zone_maps.column_range(c)).collect()
    }

    /// Total live rows at `ts`.
    pub fn row_count(&self, ts: u64) -> usize {
        self.main.meta.iter().chain(&self.delta.meta).filter(|m| m.visible_at(ts)).count()
    }

    /// Folds the delta into the main fragment, dropping the row versions
    /// deleted at or before `ts` (others keep their stamps). The engine
    /// passes its clock when no read is pinned, else 0, which drops nothing.
    /// Without a reclaimable main row only the delta's survivors are read,
    /// appended to main in place and the zone maps extended; otherwise both
    /// fragments' survivors become main and the maps are rebuilt. Either way
    /// main is what [`Column::from_values`] builds from the survivors.
    pub fn merge_delta(&mut self, ts: u64) -> Result<()> {
        let survives = |m: &RowMeta| m.delete_ts > ts;
        let main_len = self.main.len();
        // The first main row the merge rewrites: main's end when it appends.
        let first_changed = if self.main.meta.iter().all(survives) { main_len } else { 0 };
        let (main, delta) = (first_changed..main_len, 0..self.delta.len());
        let (merged, _) = self.read(survives, main, delta, ScanFilter::default(), None)?;
        // Each remaining row's place in main, from the first changed row on: every
        // key entry moves when compacting, only the live delta rows' (O(delta)).
        let mut to = first_changed as u32;
        let mut moved_to = Vec::with_capacity(main_len - first_changed + self.delta.len());
        for m in self.main.meta[first_changed..].iter().chain(&self.delta.meta) {
            moved_to.push(to);
            to += u32::from(survives(m));
        }
        let place = |r| match r {
            RowRef::Main(i) => RowRef::Main(moved_to[i as usize - first_changed]),
            RowRef::Delta(j) => RowRef::Main(moved_to[main_len - first_changed + j as usize]),
        };
        let live: Vec<usize> =
            (0..self.delta.len()).filter(|&j| self.delta.meta[j].delete_ts == u64::MAX).collect();
        for (cols, keys) in &mut self.key_index {
            if first_changed < main_len {
                let moved: Vec<RowRef> = keys.refs().map(place).collect();
                moved.into_iter().enumerate().for_each(|(id, r)| *keys.ref_mut(id) = r);
                continue;
            }
            for (j, h) in keyed(&key_cols(cols, &self.delta.columns), &live) {
                let row = RowRef::Delta(j as u32);
                if let Some(id) = keys.find(h, |r| r == row) {
                    *keys.ref_mut(id) = place(row);
                }
            }
        }
        // A compaction drains every main stamp: `merged` then replaces main.
        let rewritten = self.main.meta.drain(first_changed..).chain(self.delta.meta.drain(..));
        let meta: Vec<RowMeta> = rewritten.filter(survives).collect();
        self.main.append(merged.columns, meta.into_iter())?;
        self.zone_maps.extend(&self.main.columns, first_changed);
        self.delta = Fragment::empty(&self.schema);
        self.merges += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn store() -> TableStore {
        TableStore::new(Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Text, true)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        ))
    }

    fn row(k: i64, v: &str) -> Vec<Value> {
        vec![Value::Int(k), Value::str(v)]
    }

    #[test]
    fn insert_scan_round_trip() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b")], 1).unwrap();
        let b = s.scan(1).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), row(1, "a"));
    }

    #[test]
    fn snapshot_isolation() {
        let mut s = store();
        s.insert(&[row(1, "a")], 1).unwrap();
        s.insert(&[row(2, "b")], 5).unwrap();
        assert_eq!(s.scan(1).unwrap().num_rows(), 1, "older snapshot misses later insert");
        assert_eq!(s.scan(5).unwrap().num_rows(), 2);
        assert_eq!(s.row_count(0), 0);
    }

    #[test]
    fn delete_respects_snapshots() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b")], 1).unwrap();
        let n = s.delete_where(&|r| r[0] == Value::Int(1), 3);
        assert_eq!(n, 1);
        assert_eq!(s.scan(3).unwrap().num_rows(), 1, "invisible from ts 3 onward");
        assert_eq!(s.scan(4).unwrap().num_rows(), 1);
        assert_eq!(s.scan(2).unwrap().num_rows(), 2, "old snapshot still sees the row");
    }

    #[test]
    fn constraints_enforced() {
        let mut s = store();
        s.insert(&[row(1, "a")], 1).unwrap();
        assert!(s.insert(&[row(1, "dup")], 2).is_err(), "duplicate PK");
        assert!(s.insert(&[vec![Value::Null, Value::str("x")]], 2).is_err(), "NOT NULL");
        assert!(s.insert(&[vec![Value::str("bad"), Value::Null]], 2).is_err(), "type");
        assert!(s.insert(&[vec![Value::Int(3)]], 2).is_err(), "arity");
        // Deleting frees the key for re-insert.
        s.delete_where(&|r| r[0] == Value::Int(1), 3);
        s.insert(&[row(1, "again")], 4).unwrap();
    }

    /// A rejected batch stores nothing and holds no key afterwards — not
    /// even those of the rows ahead of the one that failed.
    #[test]
    fn a_failed_insert_leaves_no_key_behind() {
        let mut s = store();
        s.insert(&[row(5, "e")], 1).unwrap();
        let null_key = vec![Value::Null, Value::str("x")];
        assert!(s.insert(&[row(1, "a"), null_key], 2).is_err(), "NOT NULL after a good row");
        assert!(s.insert(&[row(2, "b"), row(2, "again")], 2).is_err(), "duplicate in the batch");
        assert!(s.insert(&[row(3, "c"), row(5, "dup")], 2).is_err(), "collides with a stored key");
        assert_eq!(s.scan(2).unwrap().to_rows(), vec![row(5, "e")]);
        s.insert(&[row(1, "a"), row(2, "b"), row(3, "c")], 3).unwrap();
        assert!(s.insert(&[row(5, "dup")], 4).is_err(), "the stored key is still held");
    }

    #[test]
    fn merge_delta_moves_rows_to_main() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b")], 1).unwrap();
        assert_eq!(s.delta_len(), 2);
        assert_eq!(s.main_len(), 0);
        s.merge_delta(1).unwrap();
        assert_eq!(s.delta_len(), 0);
        assert_eq!(s.main_len(), 2);
        assert_eq!(s.merge_count(), 1);
        let b = s.scan(1).unwrap();
        assert_eq!(b.num_rows(), 2);
        // Writes after a merge land in the delta again.
        s.insert(&[row(3, "c")], 2).unwrap();
        assert_eq!(s.delta_len(), 1);
        assert_eq!(s.scan(2).unwrap().num_rows(), 3);
    }

    #[test]
    fn morsel_scan_union_equals_serial_scan() {
        let mut s = store();
        // 10 rows in main, 5 in delta, one deleted in each fragment.
        s.insert(&(0..10).map(|i| row(i, "m")).collect::<Vec<_>>(), 1).unwrap();
        s.merge_delta(1).unwrap();
        s.insert(&(10..15).map(|i| row(i, "d")).collect::<Vec<_>>(), 2).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(3), 3);
        s.delete_where(&|r| r[0] == Value::Int(12), 3);
        for morsel_rows in [1, 3, 4, 7, 100] {
            let n = s.morsel_count(morsel_rows);
            assert_eq!(n, 15usize.div_ceil(morsel_rows));
            let mut rows = Vec::new();
            for m in 0..n {
                rows.extend(
                    s.scan_morsel(3, m, morsel_rows, ScanFilter::default(), None)
                        .unwrap()
                        .0
                        .to_rows(),
                );
            }
            assert_eq!(rows, s.scan(3).unwrap().to_rows(), "morsel_rows={morsel_rows}");
        }
        // Out-of-range morsels are empty, not errors.
        assert_eq!(s.scan_morsel(3, 99, 4, ScanFilter::default(), None).unwrap().0.num_rows(), 0);
    }

    #[test]
    fn morsel_pruned_scan_skips_each_excluded_block_once() {
        let mut s = TableStore::new(Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Int, true)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        ));
        let n = 3 * ZONE_BLOCK_ROWS + 17;
        s.insert(
            &(0..n as i64).map(|i| vec![Value::Int(i), Value::Int(i % 7)]).collect::<Vec<_>>(),
            1,
        )
        .unwrap();
        s.merge_delta(1).unwrap();
        s.insert(
            &(n as i64..n as i64 + 5)
                .map(|i| vec![Value::Int(i), Value::Int(0)])
                .collect::<Vec<_>>(),
            2,
        )
        .unwrap();
        // Keys ascend with position, so the range excludes exactly the first
        // two blocks and the pruned scan returns exactly the matching rows.
        let first_kept = Value::Int(2 * ZONE_BLOCK_ROWS as i64);
        let ranges = [(0, ScanRange::at_least(first_kept.clone()))];
        let pruned = ScanFilter { ranges: &ranges, mask: None };
        let mut expected = s.scan(2).unwrap().to_rows();
        expected.retain(|r| r[0].total_cmp(&first_kept).is_ge());
        for (round, morsel_rows) in [ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS].into_iter().enumerate() {
            let mut rows = Vec::new();
            for m in 0..s.morsel_count(morsel_rows) {
                rows.extend(s.scan_morsel(2, m, morsel_rows, pruned, None).unwrap().0.to_rows());
            }
            assert_eq!(rows, expected, "morsel_rows={morsel_rows}");
            assert_eq!(s.blocks_skipped(), 2 * (round as u64 + 1), "each block skipped once");
        }
    }

    #[test]
    fn pruned_scan_charges_pages_of_read_blocks_only() {
        let mut s = TableStore::new(Arc::new(
            TableBuilder::new("t").column("k", SqlType::Int, false).build().unwrap(),
        ));
        let n = 4 * ZONE_BLOCK_ROWS;
        s.insert(&(0..n as i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(), 1).unwrap();
        s.merge_delta(1).unwrap();
        let page_rows = ZONE_BLOCK_ROWS / 4;
        s.set_load_mode(LoadMode::PageLoadable { page_rows }, 64);
        // Only block 2 can hold the key: one morsel spans the table, and
        // the three excluded blocks must not fault their pages in.
        let key = Value::Int(2 * ZONE_BLOCK_ROWS as i64 + 7);
        let ranges = [(0, ScanRange::point(key))];
        let (hit, visible) =
            s.scan_morsel(1, 0, n, ScanFilter { ranges: &ranges, mask: None }, None).unwrap();
        assert_eq!((hit.num_rows(), visible), (ZONE_BLOCK_ROWS, ZONE_BLOCK_ROWS));
        assert_eq!(s.blocks_skipped(), 3);
        assert_eq!(s.page_stats().loads, (ZONE_BLOCK_ROWS / page_rows) as u64);
        // The unpruned scan reads — and is charged for — every page.
        s.scan(1).unwrap();
        let stats = s.page_stats();
        assert_eq!(stats.loads + stats.hits, 5 * (ZONE_BLOCK_ROWS / page_rows) as u64);
    }

    /// A merge is charged for the main rows it reads: none when it appends
    /// the delta, all of main when it compacts.
    #[test]
    fn merges_charge_pages_of_the_main_rows_they_read() {
        let mut s = TableStore::new(Arc::new(
            TableBuilder::new("t").column("k", SqlType::Int, false).build().unwrap(),
        ));
        s.insert(&(0..1_000).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(), 1).unwrap();
        s.merge_delta(1).unwrap();
        s.set_load_mode(LoadMode::PageLoadable { page_rows: 100 }, 64);
        s.insert(&(1_000..1_050).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(), 2).unwrap();
        s.merge_delta(2).unwrap();
        assert_eq!(s.page_stats(), PageStats::default(), "an appending merge reads no main row");
        s.delete_where(&|r| r[0] == Value::Int(3), 3);
        s.merge_delta(3).unwrap();
        assert_eq!(s.main_len(), 1_049);
        let stats = s.page_stats();
        assert_eq!((stats.loads, stats.hits), (11, 0), "a compacting merge reads 1 050 rows");
    }

    /// Random insert / delete / merge scripts against a naive model that
    /// keeps `(row, stamps)` in physical order (and every deleted version in
    /// a log) and filters row by row: both feeds, the scans, then random
    /// pushed predicates against the unrefined read — over main and the
    /// unmerged delta alike.
    #[test]
    fn morsel_scans_match_a_row_by_row_visibility_oracle() {
        use vdm_types::{Decimal, SplitMix64};
        let mut retracted = 0;
        for seed in [1u64, 2, 3] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut s = TableStore::new(Arc::new(
                TableBuilder::new("t")
                    .column("k", SqlType::Int, false)
                    .column("doc", SqlType::Text, true)
                    .column("amt", SqlType::Decimal { scale: 2 }, true)
                    .column("day", SqlType::Date, true)
                    .primary_key(&["k"])
                    .build()
                    .unwrap(),
            ));
            let mut model: Vec<(Vec<Value>, RowMeta)> = Vec::new();
            // Every deleted row version in delete order, never compacted.
            let mut log: Vec<(Vec<Value>, RowMeta)> = Vec::new();
            let (mut ts, mut next_k, mut old_ts) = (0u64, 0i64, 0u64);
            for step in 0..40 {
                ts += 1;
                // A late merge and a closing insert leave several main
                // blocks and a non-empty delta behind every script.
                let op = match step {
                    36 => 1,
                    39 => 2,
                    _ => rng.random_range(0..8u32),
                };
                match op {
                    0 => {
                        let (m, r) = (rng.random_range(2..9i64), rng.random_range(0..2i64));
                        let doomed = |row: &[Value]| matches!(row[0], Value::Int(k) if k % m == r);
                        let n = s.delete_where(&doomed, ts);
                        let live = model.iter_mut().filter(|(_, meta)| meta.visible_at(ts - 1));
                        let hit = live.filter(|(row, _)| doomed(row)).map(|(row, m)| {
                            m.delete_ts = ts;
                            log.push((row.clone(), *m));
                        });
                        assert_eq!(hit.count(), n, "seed {seed} step {step}");
                    }
                    1 => {
                        s.merge_delta(ts).unwrap();
                        model.retain(|(_, meta)| meta.delete_ts > ts);
                    }
                    _ => {
                        let rows: Vec<Vec<Value>> = (0..rng.random_range(1..500usize))
                            .map(|_| {
                                next_k += 1;
                                let mut row = vec![
                                    Value::Int(next_k),
                                    Value::str(format!("doc-{next_k}")),
                                    Value::Dec(Decimal::from_units(rng.random_range(-999..999), 2)),
                                    Value::Date(rng.random_range(19_000..19_400)),
                                ];
                                match rng.random_range(0..8usize) {
                                    c @ 1..=3 => row[c] = Value::Null,
                                    4 => row[2] = Value::Int(rng.random_range(0..50)),
                                    _ => {}
                                }
                                row
                            })
                            .collect();
                        let meta = RowMeta { insert_ts: ts, delete_ts: u64::MAX };
                        model.extend(rows.iter().map(|r| (r.clone(), meta)));
                        s.insert(&rows, ts).unwrap();
                    }
                }
                if step == 25 {
                    old_ts = ts;
                }
            }
            assert!(s.main_len() > 2 * ZONE_BLOCK_ROWS && s.delta_len() > 0, "seed {seed}");
            // Both feeds over (old_ts, ts] and (0, ts], whole and narrowed.
            let narrow = [3usize, 1];
            for since in [old_ts, 0] {
                for cols in [None, Some(&narrow[..])] {
                    let project = |(row, _): &(Vec<Value>, RowMeta)| match cols {
                        Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
                        None => row.clone(),
                    };
                    let born =
                        model.iter().filter(|(_, m)| m.insert_ts > since && m.visible_at(ts));
                    let gone =
                        log.iter().filter(|(_, m)| m.delete_ts > since && m.insert_ts <= since);
                    let (born, gone): (Vec<Vec<Value>>, Vec<Vec<Value>>) =
                        (born.map(project).collect(), gone.map(project).collect());
                    retracted += gone.len();
                    let ctx = format!("seed {seed} since {since} cols {cols:?}");
                    assert_eq!(
                        s.inserted_between(since, ts, cols).unwrap().to_rows(),
                        born,
                        "{ctx}"
                    );
                    assert_eq!(
                        s.deleted_between(since, ts, cols).unwrap().to_rows(),
                        gone,
                        "{ctx}"
                    );
                }
            }
            let mid_k = Value::Int(next_k / 2);
            let mut delta_dropped = 0;
            let prunes = [
                None,
                Some((0, ScanRange::point(mid_k.clone()))),
                Some((0, ScanRange::at_least(mid_k.clone()))),
                Some((0, ScanRange::at_most(mid_k))),
                Some((3, ScanRange::at_least(Value::Date(19_200)))),
            ];
            for (prune, at) in prunes.iter().flat_map(|p| [(p, old_ts), (p, ts)]) {
                let in_range = |row: &[Value]| {
                    prune.as_ref().is_none_or(|(c, range)| {
                        !row[*c].is_null()
                            && range.min.as_ref().is_none_or(|lo| row[*c].total_cmp(lo).is_ge())
                            && range.max.as_ref().is_none_or(|hi| row[*c].total_cmp(hi).is_le())
                    })
                };
                let want: Vec<&Vec<Value>> = model
                    .iter()
                    .filter(|(row, meta)| meta.visible_at(at) && in_range(row))
                    .map(|(row, _)| row)
                    .collect();
                // Blocks the zone map must exclude: no NULL, and every
                // physical row on one side of the range.
                let excluded = (0..s.main_len().div_ceil(ZONE_BLOCK_ROWS))
                    .filter(|b| {
                        let Some((c, range)) = prune else { return false };
                        let end = ((b + 1) * ZONE_BLOCK_ROWS).min(s.main_len());
                        let all = |side: &dyn Fn(&Value) -> bool| {
                            (b * ZONE_BLOCK_ROWS..end).all(|i| {
                                let v = s.main.columns[*c].get(i);
                                !v.is_null() && side(&v)
                            })
                        };
                        range.min.as_ref().is_some_and(|lo| all(&|v| v.total_cmp(lo).is_lt()))
                            || range
                                .max
                                .as_ref()
                                .is_some_and(|hi| all(&|v| v.total_cmp(hi).is_gt()))
                    })
                    .count() as u64;
                // What a pushed predicate adds to the range: a random cut
                // on `amt`, or a NULL `doc`. Odd-headed runs decline to
                // evaluate it, which must read like no mask at all.
                let cut = Value::Dec(Decimal::from_units(rng.random_range(-999..999), 2));
                let pred = |row: &[Value]| {
                    in_range(row) && (row[1].is_null() || row[2].total_cmp(&cut).is_lt())
                };
                let mask = |main: &[Column], rows: Range<usize>| {
                    let row = |i| main.iter().map(|c| c.get(i)).collect::<Vec<_>>();
                    rows.start.is_multiple_of(2).then(|| rows.map(|i| pred(&row(i))).collect())
                };
                let plain = ScanFilter { ranges: prune.as_slice(), mask: None };
                let refined = ScanFilter { mask: Some(&mask), ..plain };
                let recheck = |b: &Batch| -> Vec<Vec<Value>> {
                    b.to_rows().into_iter().filter(|row| pred(row)).collect()
                };
                let mut dropped = 0;
                for morsel_rows in [1usize, 3, 1024, 4096] {
                    let ctx = format!("seed {seed} at {at} morsel_rows {morsel_rows} {prune:?}");
                    let skipped_before = s.blocks_skipped();
                    let mut got: Vec<Vec<Value>> = Vec::new();
                    let mut morsels: Vec<Batch> = Vec::new();
                    for m in 0..s.morsel_count(morsel_rows) {
                        let (b, visible) = s.scan_morsel(at, m, morsel_rows, plain, None).unwrap();
                        assert_eq!(visible, b.num_rows(), "{ctx}");
                        match b.columns[1].data() {
                            ColumnData::Str(doc) => assert!(doc.dict_size() <= b.num_rows()),
                            other => panic!("expected Str, got {other:?}"),
                        }
                        got.extend(b.to_rows().into_iter().filter(|row| in_range(row)));
                        morsels.push(b);
                    }
                    assert_eq!(got.iter().collect::<Vec<_>>(), want, "{ctx}");
                    assert_eq!(s.blocks_skipped() - skipped_before, excluded, "{ctx}");
                    // A refined read then the caller's re-check is the plain
                    // read then the same filter; it counts the same visible
                    // rows, and narrows like any other read.
                    for (m, b) in morsels.iter().enumerate() {
                        let (r, visible) =
                            s.scan_morsel(at, m, morsel_rows, refined, None).unwrap();
                        assert_eq!(visible, b.num_rows(), "{ctx} morsel {m}");
                        assert_eq!(recheck(&r), recheck(b), "{ctx} morsel {m}");
                        dropped += b.num_rows() - r.num_rows();
                        if m * morsel_rows >= s.main_len() {
                            delta_dropped += b.num_rows() - r.num_rows();
                        }
                        let cols = [2usize, 0];
                        let (narrow, _) =
                            s.scan_morsel(at, m, morsel_rows, refined, Some(&cols)).unwrap();
                        let projected: Vec<Vec<Value>> =
                            r.to_rows().iter().map(|r| vec![r[2].clone(), r[0].clone()]).collect();
                        assert_eq!(narrow.to_rows(), projected, "{ctx} morsel {m}");
                    }
                }
                assert!(dropped > 0, "seed {seed} at {at} {prune:?}: the mask refined nothing");
            }
            assert!(delta_dropped > 0, "seed {seed}: the mask refined no unmerged delta row");
        }
        assert!(retracted > 0, "no script retracted a row the feeds had to report");
    }

    #[test]
    fn delta_feeds_pair_up() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b"), row(3, "c")], 1).unwrap();
        // Window (1, 4]: row 4 inserted, row 2 deleted, row 5 born+killed.
        s.insert(&[row(4, "d")], 2).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(2), 3);
        s.insert(&[row(5, "e")], 3).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(5), 4);
        let ins = s.inserted_between(1, 4, None).unwrap();
        assert_eq!(ins.to_rows(), vec![row(4, "d")], "intra-window birth+death cancels");
        let del = s.deleted_between(1, 4, None).unwrap();
        assert_eq!(del.to_rows(), vec![row(2, "b")]);
        // A window that predates the delete sees nothing retracted.
        assert_eq!(s.deleted_between(3, 3, None).unwrap().num_rows(), 0);
        // A window starting after the delete: the tombstone is out of range.
        assert_eq!(s.deleted_between(4, 4, None).unwrap().num_rows(), 0);
    }

    /// Every read door narrowed to `cols` is the full read projected: main
    /// and delta rows, the insert feed and the tombstone feed, with the
    /// zone-map column still named by its table ordinal.
    #[test]
    fn narrowed_reads_are_projections_of_full_reads() {
        let mut s = store();
        s.insert(&(0..2 * ZONE_BLOCK_ROWS as i64).map(|i| row(i, "m")).collect::<Vec<_>>(), 1)
            .unwrap();
        s.merge_delta(1).unwrap();
        s.insert(&[row(-1, "d"), vec![Value::Int(-2), Value::Null]], 2).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(7) || r[0] == Value::Int(-1), 3);
        let project = |b: Batch, cols: &[usize]| -> Vec<Vec<Value>> {
            b.to_rows().iter().map(|r| cols.iter().map(|&c| r[c].clone()).collect()).collect()
        };
        for cols in [&[1usize, 0][..], &[1], &[0]] {
            let ranges = [(0, ScanRange::at_least(Value::Int(ZONE_BLOCK_ROWS as i64)))];
            for prune in [&[][..], &ranges] {
                let filter = ScanFilter { ranges: prune, mask: None };
                let (full, _) = s.scan_morsel(3, 0, usize::MAX, filter, None).unwrap();
                let (narrow, _) = s.scan_morsel(3, 0, usize::MAX, filter, Some(cols)).unwrap();
                assert_eq!(narrow.schema.len(), cols.len());
                assert_eq!(narrow.to_rows(), project(full, cols), "{cols:?} {prune:?}");
            }
            let ins = s.inserted_between(1, 3, Some(cols)).unwrap();
            assert_eq!(ins.to_rows(), project(s.inserted_between(1, 3, None).unwrap(), cols));
            let del = s.deleted_between(1, 3, Some(cols)).unwrap();
            assert_eq!(del.to_rows(), project(s.deleted_between(1, 3, None).unwrap(), cols));
            assert_eq!(del.num_rows(), 1, "row 7 retracts; row -1 was born inside the window");
        }
    }

    /// Seeded insert / delete / merge scripts against a model that keeps
    /// `(row, stamps)` in physical order: after every merge each main column
    /// is the one `Column::from_values` builds from the surviving rows, and
    /// the zone maps are a fresh build over them — whether the merge
    /// appended to main or compacted it.
    #[test]
    fn merges_leave_the_main_fragment_a_rebuild_would() {
        use vdm_types::{Decimal, SplitMix64};
        let def = Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("doc", SqlType::Text, true)
                .column("amt", SqlType::Decimal { scale: 2 }, true)
                .column("day", SqlType::Date, true)
                .column("open", SqlType::Bool, true)
                .column("note", SqlType::Text, true)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        );
        let types: Vec<SqlType> = def.schema.fields().iter().map(|f| f.ty).collect();
        // Merges seen: appending, compacting, of an empty delta, into an
        // empty main, onto a main ending mid-block, into an all-NULL `note`.
        let mut seen = [0usize; 6];
        for seed in [1u64, 2, 3, 4] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut s = TableStore::new(Arc::clone(&def));
            let mut model: Vec<(Vec<Value>, RowMeta)> = Vec::new();
            let (mut ts, mut next_k) = (0u64, 0i64);
            for step in 0..60 {
                ts += 1;
                // A merge into an empty main, one of an empty delta, and one
                // that brings the first `note` values; later everything is
                // deleted and compacted away.
                let op = match step {
                    0 | 3..=10 => 7,
                    1 | 2 | 11 | 41 => 1,
                    40 => 3,
                    _ => rng.random_range(0..8u32),
                };
                let mut delete = |doomed: &dyn Fn(&[Value]) -> bool| {
                    let n = s.delete_where(doomed, ts);
                    let live = model.iter_mut().filter(|(_, meta)| meta.visible_at(ts - 1));
                    let hit = live.filter(|(row, _)| doomed(row)).map(|(_, m)| m.delete_ts = ts);
                    assert_eq!(hit.count(), n, "seed {seed} step {step}");
                };
                match op {
                    0 => {
                        let (m, r) = (rng.random_range(2..9i64), rng.random_range(0..2i64));
                        delete(&|row| matches!(row[0], Value::Int(k) if k % m == r));
                    }
                    // The newest keys: mostly delta rows.
                    2 => {
                        let from = next_k - rng.random_range(1..40i64);
                        delete(&|row| matches!(row[0], Value::Int(k) if k > from));
                    }
                    3 => delete(&|_| true),
                    1 => {
                        let main_len = s.main_len();
                        let reclaimable = model[..main_len].iter().any(|(_, m)| m.delete_ts <= ts);
                        let note_dict_empty = main_len > 0
                            && matches!(s.main.columns[5].data(), ColumnData::Str(n) if n.dict.is_empty());
                        let notes_arrive = model[main_len..]
                            .iter()
                            .any(|(row, m)| m.delete_ts > ts && !row[5].is_null());
                        seen[0] += usize::from(main_len > 0 && !reclaimable);
                        seen[1] += usize::from(reclaimable);
                        seen[2] += usize::from(s.delta_len() == 0);
                        seen[3] += usize::from(main_len == 0);
                        let mid_block = !main_len.is_multiple_of(ZONE_BLOCK_ROWS);
                        seen[4] += usize::from(!reclaimable && mid_block);
                        seen[5] += usize::from(!reclaimable && note_dict_empty && notes_arrive);
                        s.merge_delta(ts).unwrap();
                        model.retain(|(_, meta)| meta.delete_ts > ts);
                        let ctx = format!("seed {seed} step {step}");
                        assert_eq!(s.delta_len(), 0, "{ctx}");
                        let metas: Vec<RowMeta> = model.iter().map(|(_, m)| *m).collect();
                        assert_eq!(s.main.meta, metas, "{ctx}");
                        for (c, ty) in types.iter().enumerate() {
                            let vals: Vec<Value> =
                                model.iter().map(|(row, _)| row[c].clone()).collect();
                            let want = Column::from_values(*ty, &vals).unwrap();
                            assert_eq!(s.main.columns[c], want, "{ctx} column {c}");
                        }
                        assert_eq!(s.zone_maps, ZoneMaps::build(&s.main.columns), "{ctx}");
                    }
                    _ => {
                        let rows: Vec<Vec<Value>> = (0..rng.random_range(1..400usize))
                            .map(|_| {
                                next_k += 1;
                                let mut row = vec![
                                    Value::Int(next_k),
                                    Value::str(format!("doc-{}", next_k % 97)),
                                    Value::Dec(Decimal::from_units(rng.random_range(-999..999), 2)),
                                    Value::Date(rng.random_range(19_000..19_400)),
                                    Value::Bool(next_k % 3 == 0),
                                    Value::str(format!("note-{}", next_k % 5)),
                                ];
                                // `note` stays all NULL until the tenth step.
                                if step < 10 || rng.random_range(0..4) == 0 {
                                    row[5] = Value::Null;
                                }
                                if let c @ 1..=4 = rng.random_range(0..10usize) {
                                    row[c] = Value::Null;
                                }
                                row
                            })
                            .collect();
                        let meta = RowMeta { insert_ts: ts, delete_ts: u64::MAX };
                        model.extend(rows.iter().map(|r| (r.clone(), meta)));
                        s.insert(&rows, ts).unwrap();
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind of merge is exercised: {seen:?}");
    }

    /// `delete_where` reads main a chunk at a time. Around the chunk size and
    /// across zone blocks, with an all-NULL text column (an empty dictionary
    /// under NULL slots that carry code 0) last, a predicate on the first or
    /// the last column deletes, logs and frees exactly what a row-by-row pass
    /// over the visible rows would.
    #[test]
    fn chunked_deletes_match_a_row_by_row_pass() {
        use vdm_types::Decimal;
        let def = Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("tag", SqlType::Text, true)
                .column("amt", SqlType::Decimal { scale: 2 }, true)
                .column("note", SqlType::Text, true)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        );
        let row = |k: i64| {
            let tag = if k % 4 == 0 { Value::Null } else { Value::str(format!("t{}", k % 5)) };
            vec![Value::Int(k), tag, Value::Dec(Decimal::from_units(k as i128, 2)), Value::Null]
        };
        let on_first = |r: &[Value]| matches!(r[0], Value::Int(k) if k % 3 == 1);
        let on_last = |r: &[Value]| r[3].is_null();
        let c = DELETE_CHUNK_ROWS;
        for n in [0, 1, c - 1, c, c + 1, 3 * ZONE_BLOCK_ROWS + 5] {
            for (name, pred) in
                [("first", &on_first as &dyn Fn(&[Value]) -> bool), ("last", &on_last)]
            {
                let ctx = format!("main {n} rows, predicate on the {name} column");
                let mut s = TableStore::new(Arc::clone(&def));
                s.insert(&(0..n as i64).map(row).collect::<Vec<_>>(), 1).unwrap();
                s.merge_delta(1).unwrap();
                s.insert(&(n as i64..n as i64 + 3).map(row).collect::<Vec<_>>(), 2).unwrap();
                // A row already deleted in each fragment must stay out.
                s.delete_where(&|r| r[0] == Value::Int(1) || r[0] == Value::Int(n as i64), 3);
                let live = s.scan(3).unwrap().to_rows();
                let want: Vec<Vec<Value>> = live.iter().filter(|r| pred(r)).cloned().collect();
                assert_eq!(s.delete_where(pred, 4), want.len(), "{ctx}");
                assert_eq!(s.deleted_between(3, 4, None).unwrap().to_rows(), want, "{ctx}");
                assert_eq!(s.scan(4).unwrap().num_rows(), live.len() - want.len(), "{ctx}");
                if let Some(again) = want.first() {
                    s.insert(std::slice::from_ref(again), 5).unwrap();
                }
            }
        }
    }

    /// Two keys that share a hash: both claim, releasing the first holder
    /// leaves the other, and a third row with the survivor's key is a
    /// duplicate.
    #[test]
    fn keys_sharing_a_hash_are_told_apart_cell_by_cell() {
        let col = Column::from_values(SqlType::Int, &[Value::Int(1), Value::Int(2), Value::Int(2)]);
        let col = &[col.unwrap()];
        let eq = KeyEq::new(col, col);
        let same = |r: usize| {
            let eq = &eq;
            move |held: RowRef| {
                let RowRef::Delta(i) = held else { unreachable!("every row is a delta row") };
                eq.eq(i as usize, r)
            }
        };
        let mut rows = KeyTable::with_capacity(0);
        let h = 42;
        assert_eq!(rows.find_or_insert(h, RowRef::Delta(0), same(0)), (0, true));
        let second = rows.find_or_insert(h, RowRef::Delta(1), same(1));
        assert_eq!(second, (1, true), "a different key under the same hash");
        assert_eq!(rows.candidates(h).count(), 2);
        // The survivor takes over the removed entry's id.
        rows.remove(0);
        assert_eq!(rows.candidates(h).collect::<Vec<_>>(), vec![(0, RowRef::Delta(1))]);
        let again = rows.find_or_insert(h, RowRef::Delta(2), same(2));
        assert_eq!(again, (0, false), "the survivor's key is still held");
        rows.remove(0);
        assert!(rows.refs().len() == 0 && rows.find_or_insert(h, RowRef::Delta(2), same(2)).1);
    }

    /// Posting cycles that insert a batch and delete it again, with no merge
    /// in between: a removed entry's id is reused, so the primary key's
    /// table holds the live keys only, however many rows died.
    #[test]
    fn a_key_index_without_merges_stays_its_live_size() {
        let mut s = store();
        s.insert(&[row(-1, "kept")], 1).unwrap();
        for cycle in 0..500i64 {
            let ts = 2 + 2 * cycle as u64;
            s.insert(&(0..100).map(|k| row(cycle * 100 + k, "x")).collect::<Vec<_>>(), ts).unwrap();
            assert_eq!(s.delete_where(&|r| r[0] != Value::Int(-1), ts + 1), 100);
            assert_eq!(
                s.key_index[0].1.refs().collect::<Vec<_>>(),
                [RowRef::Delta(0)],
                "cycle {cycle}"
            );
        }
    }

    /// Seeded scripts of batches (with in-batch and cross-batch duplicates
    /// and NULL keys), deletes, updates (moving a key, keeping it, rejected)
    /// and merges (appending and compacting) over a composite INT / DECIMAL /
    /// TEXT primary key and a nullable UNIQUE column, against a model that
    /// keeps the live rows and checks uniqueness with a `HashSet<Vec<Value>>`:
    /// after every step the store made the same accept/reject decision and
    /// its key index holds exactly the model's live keys, each at a live row.
    #[test]
    fn key_index_matches_a_hash_set_model() {
        use std::collections::HashSet;
        use vdm_types::{Decimal, SplitMix64};
        let def = Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("amt", SqlType::Decimal { scale: 2 }, false)
                .column("doc", SqlType::Text, false)
                .column("tag", SqlType::Text, true)
                .column("v", SqlType::Int, true)
                .primary_key(&["k", "amt", "doc"])
                .unique(&["tag"])
                .build()
                .unwrap(),
        );
        let uniques = def.unique_sets();
        let key = |row: &[Value], cols: &[usize]| -> Vec<Value> {
            cols.iter().map(|&c| row[c].clone()).collect()
        };
        // The model's verdict: every non-NULL key of `rows` is distinct.
        let unique = |rows: &[Vec<Value>]| {
            uniques.iter().all(|cols| {
                let mut seen: HashSet<Vec<Value>> = HashSet::new();
                let keys =
                    rows.iter().map(|r| key(r, cols)).filter(|k| !k.iter().any(Value::is_null));
                keys.into_iter().all(|k| seen.insert(k))
            })
        };
        // Rejections of each kind, NULL-keyed batches taken, updates that move
        // or keep their keys, appending and compacting merges.
        let mut seen = [0usize; 8];
        for seed in [1u64, 2, 3, 4, 5] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut s = TableStore::new(Arc::clone(&def));
            let mut live: Vec<Vec<Value>> = Vec::new();
            let fresh_row = |rng: &mut SplitMix64| {
                let tag = match rng.random_range(0..3u32) {
                    0 => Value::Null,
                    _ => Value::str(format!("t{}", rng.random_range(0..400u32))),
                };
                vec![
                    Value::Int(rng.random_range(0..40i64)),
                    Value::Dec(Decimal::from_units(rng.random_range(0..3i64) as i128 * 125, 2)),
                    Value::str(format!("d{}", rng.random_range(0..3u32))),
                    tag,
                    Value::Int(rng.random_range(0..9i64)),
                ]
            };
            for (step, ts) in (1..=90u64).enumerate() {
                let ctx = format!("seed {seed} step {step}");
                match rng.random_range(0..10u32) {
                    0..=3 => {
                        let mut rows: Vec<Vec<Value>> = (0..rng.random_range(1..12usize))
                            .map(|_| fresh_row(&mut rng))
                            .collect();
                        match rng.random_range(0..4u32) {
                            0 => rows.push(rows[0].clone()),
                            1 if !live.is_empty() => {
                                rows.push(live[rng.random_range(0..live.len())].clone());
                            }
                            _ => {}
                        }
                        let after: Vec<Vec<Value>> = live.iter().chain(&rows).cloned().collect();
                        let accept = unique(&after);
                        assert_eq!(s.insert(&rows, ts).is_ok(), accept, "{ctx}");
                        if accept {
                            let null_key = rows.iter().any(|r| r[3].is_null());
                            seen[0] += usize::from(null_key);
                            live = after;
                        } else {
                            seen[1] += 1;
                        }
                    }
                    4 | 5 => {
                        let (m, r) = (rng.random_range(3..9i64), rng.random_range(0..3i64));
                        let doomed = |row: &[Value]| matches!(row[0], Value::Int(k) if k % m == r);
                        let n = s.delete_where(&doomed, ts);
                        let before = live.len();
                        live.retain(|row| !doomed(row));
                        assert_eq!(n, before - live.len(), "{ctx}");
                    }
                    6 | 7 => {
                        let target = Value::Int(rng.random_range(0..40i64));
                        let (kind, new_k) = (rng.random_range(0..3u32), rng.random_range(0..40i64));
                        let clash =
                            live.iter().find_map(|r| (!r[3].is_null()).then(|| r[3].clone()));
                        let pred = |row: &[Value]| row[0] == target;
                        let f = |row: &mut Vec<Value>| match kind {
                            0 => row[0] = Value::Int(new_k),
                            1 => row[4] = Value::Int(99),
                            _ => row[3] = clash.clone().unwrap_or(Value::Null),
                        };
                        let (mut hit, rest): (Vec<_>, Vec<_>) =
                            live.iter().cloned().partition(|row| pred(row));
                        hit.iter_mut().for_each(f);
                        let after: Vec<Vec<Value>> = rest.into_iter().chain(hit.clone()).collect();
                        let accept = unique(&after);
                        let got = s.update_where(&pred, &f, ts);
                        assert_eq!(got.as_ref().ok(), accept.then_some(&hit.len()), "{ctx}");
                        if accept {
                            seen[2 + kind.min(1) as usize] += usize::from(!hit.is_empty());
                            live = after;
                        } else {
                            seen[4] += 1;
                        }
                    }
                    _ => {
                        let compacts = s.main.meta.iter().any(|m| m.delete_ts <= ts);
                        seen[5 + usize::from(compacts)] += 1;
                        s.merge_delta(ts).unwrap();
                        seen[7] += usize::from(s.main_len() > 0 && compacts);
                    }
                }
                // The index holds each live key once, at a live row.
                for ((_, rows), cols) in s.key_index.iter().zip(&uniques) {
                    let held: Vec<Vec<Value>> = rows
                        .refs()
                        .map(|r| {
                            let (frag, i) = match r {
                                RowRef::Main(i) => (&s.main, i as usize),
                                RowRef::Delta(i) => (&s.delta, i as usize),
                            };
                            assert_eq!(frag.meta[i].delete_ts, u64::MAX, "{ctx}: a dead holder");
                            cols.iter().map(|&c| frag.columns[c].get(i)).collect()
                        })
                        .collect();
                    let want: HashSet<Vec<Value>> = live
                        .iter()
                        .map(|r| key(r, cols))
                        .filter(|k| !k.iter().any(Value::is_null))
                        .collect();
                    assert_eq!(held.len(), want.len(), "{ctx} {cols:?}");
                    assert_eq!(held.into_iter().collect::<HashSet<_>>(), want, "{ctx} {cols:?}");
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind of step is exercised: {seen:?}");
    }

    #[test]
    fn deleted_between_survives_merge_compaction() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b")], 1).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(1), 2);
        // Compaction at ts 5 drops the deleted row version entirely...
        s.merge_delta(5).unwrap();
        assert_eq!(s.main_len(), 1);
        // ...but a maintainer whose snapshot predates the delete still gets
        // the retraction from the tombstone log.
        assert_eq!(s.deleted_between(1, 5, None).unwrap().to_rows(), vec![row(1, "a")]);
    }

    #[test]
    fn merge_drops_fully_deleted_rows() {
        let mut s = store();
        s.insert(&[row(1, "a"), row(2, "b")], 1).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(1), 2);
        s.merge_delta(5).unwrap();
        assert_eq!(s.main_len(), 1, "deleted row compacted away");
        assert_eq!(s.scan(5).unwrap().num_rows(), 1);
    }
}
