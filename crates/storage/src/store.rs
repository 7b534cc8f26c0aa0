//! Per-table storage: delta + main fragments with row visibility stamps.

use crate::column::{Batch, Column};
use crate::nse::{LoadMode, PageBuffer, PageStats};
use crate::zonemap::{ScanRange, ZoneMaps, ZONE_BLOCK_ROWS};
use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;
use vdm_catalog::TableDef;
use vdm_types::{Result, Schema, Value, VdmError};

/// Visibility stamps of one row version.
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

/// One tombstoned row version, logged at delete time so incremental view
/// maintenance can retrieve retraction deltas even after a delta merge
/// compacted the fragment that held the row.
#[derive(Debug, Clone)]
struct Tombstone {
    insert_ts: u64,
    delete_ts: u64,
    row: Vec<Value>,
}

/// One table's data: a read-optimized columnar `main` fragment and a
/// write-optimized row-wise `delta`, each with per-row visibility stamps.
#[derive(Debug)]
pub struct TableStore {
    def: Arc<TableDef>,
    schema: Arc<Schema>,
    main: Vec<Column>,
    main_meta: Vec<RowMeta>,
    delta: Vec<Vec<Value>>,
    delta_meta: Vec<RowMeta>,
    /// Live key tuples per unique constraint (PK first), for enforcement.
    key_index: Vec<HashSet<Vec<Value>>>,
    /// Append-only tombstone log (delete-timestamp order). Authoritative
    /// source for [`TableStore::deleted_between`]: unlike the fragments, it
    /// survives `merge_delta` compaction, so a view whose `as_of` predates a
    /// merge still sees every retraction.
    tombstones: Vec<Tombstone>,
    merges: usize,
    /// Timestamp of the most recent write (insert or delete).
    last_write_ts: u64,
    /// Timestamp of the most recent delete.
    last_delete_ts: u64,
    /// Per-block min/max over the main fragment, rebuilt at delta merge —
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
        let n_keys = def.unique_sets().len();
        TableStore {
            def,
            schema,
            main: Vec::new(),
            main_meta: Vec::new(),
            delta: Vec::new(),
            delta_meta: Vec::new(),
            key_index: vec![HashSet::new(); n_keys],
            tombstones: Vec::new(),
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
    fn account_scan(&self, rows: std::ops::Range<usize>) {
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
    pub fn inserted_between(&self, ts: u64, now: u64) -> Result<Batch> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let m_start = self.main_meta.partition_point(|m| m.insert_ts <= ts);
        for (i, meta) in self.main_meta.iter().enumerate().skip(m_start) {
            if meta.visible_at(now) {
                rows.push(self.main.iter().map(|c| c.get(i)).collect());
            }
        }
        let d_start = self.delta_meta.partition_point(|m| m.insert_ts <= ts);
        for (i, meta) in self.delta_meta.iter().enumerate().skip(d_start) {
            if meta.visible_at(now) {
                rows.push(self.delta[i].clone());
            }
        }
        Batch::from_rows(Arc::clone(&self.schema), &rows)
    }

    /// Rows that were visible at `ts` and tombstoned by `now` — the
    /// retraction-delta counterpart of [`TableStore::inserted_between`].
    /// Served from the tombstone log (delete-timestamp order, binary
    /// searched), so the cost is O(log deletes + matches) and the feed stays
    /// correct after `merge_delta` compacts the deleted rows away.
    pub fn deleted_between(&self, ts: u64, now: u64) -> Result<Batch> {
        let start = self.tombstones.partition_point(|t| t.delete_ts <= ts);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for t in &self.tombstones[start..] {
            // `insert_ts <= ts` keeps rows born inside the window out: those
            // cancel against the insert feed rather than retracting.
            if t.delete_ts <= now && t.insert_ts <= ts {
                rows.push(t.row.clone());
            }
        }
        Batch::from_rows(Arc::clone(&self.schema), &rows)
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
        self.main_meta.len()
    }

    /// Completed delta merges.
    pub fn merge_count(&self) -> usize {
        self.merges
    }

    /// Validates and appends rows at `ts`. Enforces arity, types (values
    /// must coerce into the column type), NOT NULL, and key uniqueness.
    pub fn insert(&mut self, rows: Vec<Vec<Value>>, ts: u64) -> Result<usize> {
        let uniques = self.def.unique_sets();
        for row in &rows {
            if row.len() != self.schema.len() {
                return Err(VdmError::Storage(format!(
                    "insert into {:?}: row has {} values, table has {} columns",
                    self.def.name,
                    row.len(),
                    self.schema.len()
                )));
            }
            for (i, f) in self.schema.fields().iter().enumerate() {
                if row[i].is_null() {
                    if !f.nullable {
                        return Err(VdmError::Storage(format!(
                            "insert into {:?}: column {:?} is NOT NULL",
                            self.def.name, f.name
                        )));
                    }
                    continue;
                }
                if let Some(t) = row[i].sql_type() {
                    if !f.ty.accepts(&t) {
                        return Err(VdmError::Storage(format!(
                            "insert into {:?}: column {:?} expects {}, got {}",
                            self.def.name, f.name, f.ty, t
                        )));
                    }
                }
            }
            for (ki, key_cols) in uniques.iter().enumerate() {
                let key: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
                if key.iter().any(|v| v.is_null()) {
                    continue; // SQL unique constraints ignore NULL keys.
                }
                if !self.key_index[ki].insert(key) {
                    return Err(VdmError::Storage(format!(
                        "insert into {:?}: duplicate key for unique constraint {ki}",
                        self.def.name
                    )));
                }
            }
        }
        let n = rows.len();
        for row in rows {
            self.delta.push(row);
            self.delta_meta.push(RowMeta { insert_ts: ts, delete_ts: u64::MAX });
        }
        if n > 0 {
            self.last_write_ts = self.last_write_ts.max(ts);
        }
        Ok(n)
    }

    /// Marks rows matching `pred` (still live just before `ts`) as deleted:
    /// they become invisible to snapshots at `ts` and later. Returns the
    /// number of rows deleted.
    pub fn delete_where(&mut self, pred: &dyn Fn(&[Value]) -> bool, ts: u64) -> usize {
        let mut deleted = 0;
        let uniques = self.def.unique_sets();
        // Main fragment.
        for i in 0..self.main_meta.len() {
            if self.main_meta[i].visible_at(ts.saturating_sub(1)) {
                let row: Vec<Value> = self.main.iter().map(|c| c.get(i)).collect();
                if pred(&row) {
                    self.main_meta[i].delete_ts = ts;
                    remove_keys(&mut self.key_index, &uniques, &row);
                    self.tombstones.push(Tombstone {
                        insert_ts: self.main_meta[i].insert_ts,
                        delete_ts: ts,
                        row,
                    });
                    deleted += 1;
                }
            }
        }
        // Delta fragment.
        for i in 0..self.delta.len() {
            if self.delta_meta[i].visible_at(ts.saturating_sub(1)) && pred(&self.delta[i]) {
                self.delta_meta[i].delete_ts = ts;
                remove_keys(&mut self.key_index, &uniques, &self.delta[i]);
                self.tombstones.push(Tombstone {
                    insert_ts: self.delta_meta[i].insert_ts,
                    delete_ts: ts,
                    row: self.delta[i].clone(),
                });
                deleted += 1;
            }
        }
        if deleted > 0 {
            self.last_write_ts = self.last_write_ts.max(ts);
            self.last_delete_ts = self.last_delete_ts.max(ts);
        }
        deleted
    }

    /// Materializes all rows visible at `ts` as a columnar batch — the
    /// whole table as one morsel.
    pub fn scan(&self, ts: u64) -> Result<Batch> {
        self.scan_morsel(ts, 0, usize::MAX)
    }

    /// Number of fixed-size morsels covering the table's physical rows
    /// (main then delta). A scan claims indices `0..morsel_count`, and
    /// concatenating the morsel batches in index order reproduces
    /// [`TableStore::scan`] exactly.
    pub fn morsel_count(&self, morsel_rows: usize) -> usize {
        let total = self.main_meta.len() + self.delta.len();
        total.div_ceil(morsel_rows.max(1))
    }

    /// Physical row range `[morsel * morsel_rows, ..)` of main++delta,
    /// split into the main part and the delta part.
    fn morsel_bounds(&self, morsel: usize, morsel_rows: usize) -> (usize, usize, usize, usize) {
        let morsel_rows = morsel_rows.max(1);
        let start = morsel * morsel_rows;
        let end = start + morsel_rows;
        let main_len = self.main_meta.len();
        let m_start = start.min(main_len);
        let m_end = end.min(main_len);
        let d_start = start.saturating_sub(main_len).min(self.delta.len());
        let d_end = end.saturating_sub(main_len).min(self.delta.len());
        (m_start, m_end, d_start, d_end)
    }

    /// Materializes the rows of one morsel visible at `ts`.
    pub fn scan_morsel(&self, ts: u64, morsel: usize, morsel_rows: usize) -> Result<Batch> {
        let (m_start, m_end, d_start, d_end) = self.morsel_bounds(morsel, morsel_rows);
        self.account_scan(m_start..m_end);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for i in m_start..m_end {
            if self.main_meta[i].visible_at(ts) {
                rows.push(self.main.iter().map(|c| c.get(i)).collect());
            }
        }
        for i in d_start..d_end {
            if self.delta_meta[i].visible_at(ts) {
                rows.push(self.delta[i].clone());
            }
        }
        Batch::from_rows(Arc::clone(&self.schema), &rows)
    }

    /// Morsel scan with zone-map pruning on the main fragment. Callers must
    /// use a `morsel_rows` that is a multiple of [`ZONE_BLOCK_ROWS`] so each
    /// block falls entirely inside one morsel and skipped blocks are counted
    /// exactly once. The result is a superset of the matching rows —
    /// callers re-apply the full predicate.
    pub fn scan_morsel_pruned(
        &self,
        ts: u64,
        morsel: usize,
        morsel_rows: usize,
        column: usize,
        range: &ScanRange,
    ) -> Result<Batch> {
        let (m_start, m_end, d_start, d_end) = self.morsel_bounds(morsel, morsel_rows);
        self.account_scan(m_start..m_end);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut skipped = 0u64;
        if m_start < m_end {
            let first_block = m_start / ZONE_BLOCK_ROWS;
            let last_block = m_end.div_ceil(ZONE_BLOCK_ROWS);
            for block in first_block..last_block {
                let b_start = (block * ZONE_BLOCK_ROWS).max(m_start);
                let b_end = ((block + 1) * ZONE_BLOCK_ROWS).min(m_end);
                if !self.zone_maps.block_may_match(column, block, range) {
                    // Count a skip only from the morsel holding the block's
                    // head, so unaligned morsels never double-count.
                    if b_start == block * ZONE_BLOCK_ROWS {
                        skipped += 1;
                    }
                    continue;
                }
                for i in b_start..b_end {
                    if self.main_meta[i].visible_at(ts) {
                        rows.push(self.main.iter().map(|c| c.get(i)).collect());
                    }
                }
            }
        }
        // The delta is unindexed: its share of the morsel is always scanned.
        for i in d_start..d_end {
            if self.delta_meta[i].visible_at(ts) {
                rows.push(self.delta[i].clone());
            }
        }
        if skipped > 0 {
            *self.blocks_skipped.lock().unwrap() += skipped;
        }
        Batch::from_rows(Arc::clone(&self.schema), &rows)
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
        self.main_meta.iter().filter(|m| m.visible_at(ts)).count()
            + self.delta_meta.iter().filter(|m| m.visible_at(ts)).count()
    }

    /// Folds the delta into the main fragment, dropping rows already
    /// deleted before every possible reader (compaction at `ts`: row
    /// versions with `delete_ts <= ts` vanish; others keep their stamps).
    pub fn merge_delta(&mut self, ts: u64) -> Result<()> {
        // Gather surviving (row, meta) pairs from both fragments.
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut meta: Vec<RowMeta> = Vec::new();
        for (i, m) in self.main_meta.iter().enumerate() {
            if m.delete_ts > ts {
                rows.push(self.main.iter().map(|c| c.get(i)).collect());
                meta.push(*m);
            }
        }
        for (i, m) in self.delta_meta.iter().enumerate() {
            if m.delete_ts > ts {
                rows.push(std::mem::take(&mut self.delta[i]));
                meta.push(*m);
            }
        }
        // Rebuild main columns (re-encoding string dictionaries).
        let mut columns = Vec::with_capacity(self.schema.len());
        for (i, f) in self.schema.fields().iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[i].clone()).collect();
            columns.push(Column::from_values(f.ty, &vals)?);
        }
        self.zone_maps = ZoneMaps::build(&columns);
        self.main = columns;
        self.main_meta = meta;
        self.delta.clear();
        self.delta_meta.clear();
        self.merges += 1;
        Ok(())
    }
}

fn remove_keys(index: &mut [HashSet<Vec<Value>>], uniques: &[Vec<usize>], row: &[Value]) {
    for (ki, key_cols) in uniques.iter().enumerate() {
        let key: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
        if !key.iter().any(|v| v.is_null()) {
            index[ki].remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        s.insert(vec![row(1, "a"), row(2, "b")], 1).unwrap();
        let b = s.scan(1).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), row(1, "a"));
    }

    #[test]
    fn snapshot_isolation() {
        let mut s = store();
        s.insert(vec![row(1, "a")], 1).unwrap();
        s.insert(vec![row(2, "b")], 5).unwrap();
        assert_eq!(s.scan(1).unwrap().num_rows(), 1, "older snapshot misses later insert");
        assert_eq!(s.scan(5).unwrap().num_rows(), 2);
        assert_eq!(s.row_count(0), 0);
    }

    #[test]
    fn delete_respects_snapshots() {
        let mut s = store();
        s.insert(vec![row(1, "a"), row(2, "b")], 1).unwrap();
        let n = s.delete_where(&|r| r[0] == Value::Int(1), 3);
        assert_eq!(n, 1);
        assert_eq!(s.scan(3).unwrap().num_rows(), 1, "invisible from ts 3 onward");
        assert_eq!(s.scan(4).unwrap().num_rows(), 1);
        assert_eq!(s.scan(2).unwrap().num_rows(), 2, "old snapshot still sees the row");
    }

    #[test]
    fn constraints_enforced() {
        let mut s = store();
        s.insert(vec![row(1, "a")], 1).unwrap();
        assert!(s.insert(vec![row(1, "dup")], 2).is_err(), "duplicate PK");
        assert!(s.insert(vec![vec![Value::Null, Value::str("x")]], 2).is_err(), "NOT NULL");
        assert!(s.insert(vec![vec![Value::str("bad"), Value::Null]], 2).is_err(), "type");
        assert!(s.insert(vec![vec![Value::Int(3)]], 2).is_err(), "arity");
        // Deleting frees the key for re-insert.
        s.delete_where(&|r| r[0] == Value::Int(1), 3);
        s.insert(vec![row(1, "again")], 4).unwrap();
    }

    #[test]
    fn merge_delta_moves_rows_to_main() {
        let mut s = store();
        s.insert(vec![row(1, "a"), row(2, "b")], 1).unwrap();
        assert_eq!(s.delta_len(), 2);
        assert_eq!(s.main_len(), 0);
        s.merge_delta(1).unwrap();
        assert_eq!(s.delta_len(), 0);
        assert_eq!(s.main_len(), 2);
        assert_eq!(s.merge_count(), 1);
        let b = s.scan(1).unwrap();
        assert_eq!(b.num_rows(), 2);
        // Writes after a merge land in the delta again.
        s.insert(vec![row(3, "c")], 2).unwrap();
        assert_eq!(s.delta_len(), 1);
        assert_eq!(s.scan(2).unwrap().num_rows(), 3);
    }

    #[test]
    fn morsel_scan_union_equals_serial_scan() {
        let mut s = store();
        // 10 rows in main, 5 in delta, one deleted in each fragment.
        s.insert((0..10).map(|i| row(i, "m")).collect(), 1).unwrap();
        s.merge_delta(1).unwrap();
        s.insert((10..15).map(|i| row(i, "d")).collect(), 2).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(3), 3);
        s.delete_where(&|r| r[0] == Value::Int(12), 3);
        for morsel_rows in [1, 3, 4, 7, 100] {
            let n = s.morsel_count(morsel_rows);
            assert_eq!(n, 15usize.div_ceil(morsel_rows));
            let mut rows = Vec::new();
            for m in 0..n {
                rows.extend(s.scan_morsel(3, m, morsel_rows).unwrap().to_rows());
            }
            assert_eq!(rows, s.scan(3).unwrap().to_rows(), "morsel_rows={morsel_rows}");
        }
        // Out-of-range morsels are empty, not errors.
        assert_eq!(s.scan_morsel(3, 99, 4).unwrap().num_rows(), 0);
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
        s.insert((0..n as i64).map(|i| vec![Value::Int(i), Value::Int(i % 7)]).collect(), 1)
            .unwrap();
        s.merge_delta(1).unwrap();
        s.insert((n as i64..n as i64 + 5).map(|i| vec![Value::Int(i), Value::Int(0)]).collect(), 2)
            .unwrap();
        // Keys ascend with position, so the range excludes exactly the first
        // two blocks and the pruned scan returns exactly the matching rows.
        let first_kept = Value::Int(2 * ZONE_BLOCK_ROWS as i64);
        let range = ScanRange::at_least(first_kept.clone());
        let mut expected = s.scan(2).unwrap().to_rows();
        expected.retain(|r| r[0].total_cmp(&first_kept).is_ge());
        for (round, morsel_rows) in [ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS].into_iter().enumerate() {
            let mut rows = Vec::new();
            for m in 0..s.morsel_count(morsel_rows) {
                rows.extend(s.scan_morsel_pruned(2, m, morsel_rows, 0, &range).unwrap().to_rows());
            }
            assert_eq!(rows, expected, "morsel_rows={morsel_rows}");
            assert_eq!(s.blocks_skipped(), 2 * (round as u64 + 1), "each block skipped once");
        }
    }

    #[test]
    fn delta_feeds_pair_up() {
        let mut s = store();
        s.insert(vec![row(1, "a"), row(2, "b"), row(3, "c")], 1).unwrap();
        // Window (1, 4]: row 4 inserted, row 2 deleted, row 5 born+killed.
        s.insert(vec![row(4, "d")], 2).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(2), 3);
        s.insert(vec![row(5, "e")], 3).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(5), 4);
        let ins = s.inserted_between(1, 4).unwrap();
        assert_eq!(ins.to_rows(), vec![row(4, "d")], "intra-window birth+death cancels");
        let del = s.deleted_between(1, 4).unwrap();
        assert_eq!(del.to_rows(), vec![row(2, "b")]);
        // A window that predates the delete sees nothing retracted.
        assert_eq!(s.deleted_between(3, 3).unwrap().num_rows(), 0);
        // A window starting after the delete: the tombstone is out of range.
        assert_eq!(s.deleted_between(4, 4).unwrap().num_rows(), 0);
    }

    #[test]
    fn deleted_between_survives_merge_compaction() {
        let mut s = store();
        s.insert(vec![row(1, "a"), row(2, "b")], 1).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(1), 2);
        // Compaction at ts 5 drops the deleted row version entirely...
        s.merge_delta(5).unwrap();
        assert_eq!(s.main_len(), 1);
        // ...but a maintainer whose snapshot predates the delete still gets
        // the retraction from the tombstone log.
        assert_eq!(s.deleted_between(1, 5).unwrap().to_rows(), vec![row(1, "a")]);
    }

    #[test]
    fn merge_drops_fully_deleted_rows() {
        let mut s = store();
        s.insert(vec![row(1, "a"), row(2, "b")], 1).unwrap();
        s.delete_where(&|r| r[0] == Value::Int(1), 2);
        s.merge_delta(5).unwrap();
        assert_eq!(s.main_len(), 1, "deleted row compacted away");
        assert_eq!(s.scan(5).unwrap().num_rows(), 1);
    }
}
