//! The storage engine: named tables, monotone timestamps, snapshots.

use crate::column::Batch;
use crate::store::TableStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::RwLock;
use vdm_catalog::TableDef;
use vdm_types::{Result, Value, VdmError};

/// A read timestamp. Scans against one snapshot observe a consistent state
/// regardless of concurrent writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Snapshot(pub u64);

/// Thread-safe multi-table storage engine with auto-commit writes.
#[derive(Debug, Default)]
pub struct StorageEngine {
    tables: RwLock<HashMap<String, Arc<RwLock<TableStore>>>>,
    clock: AtomicU64,
}

impl StorageEngine {
    /// Fresh, empty engine.
    pub fn new() -> StorageEngine {
        StorageEngine::default()
    }

    /// Creates the backing store for a table definition.
    pub fn create_table(&self, def: Arc<TableDef>) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        let mut tables = self.tables.write().unwrap();
        if tables.contains_key(&key) {
            return Err(VdmError::Storage(format!("table {:?} already stored", def.name)));
        }
        tables.insert(key, Arc::new(RwLock::new(TableStore::new(def))));
        Ok(())
    }

    /// Drops a table's data.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .unwrap()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| VdmError::Storage(format!("unknown table {name:?}")))
    }

    fn table(&self, name: &str) -> Result<Arc<RwLock<TableStore>>> {
        self.tables
            .read()
            .unwrap()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| VdmError::Storage(format!("unknown table {name:?}")))
    }

    /// The current read snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.clock.load(Ordering::SeqCst))
    }

    fn next_ts(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Inserts rows (one auto-committed transaction). Returns rows written.
    ///
    /// The commit timestamp is allocated while holding the table's write
    /// lock: the clock must never advertise a timestamp whose rows are not
    /// yet in the store, or a snapshot pinned at that instant would see the
    /// rows appear between two reads.
    pub fn insert(&self, name: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let table = self.table(name)?;
        let mut store = table.write().unwrap();
        let ts = self.next_ts();
        store.insert(&rows, ts)
    }

    /// Deletes rows matching `pred` (one auto-committed transaction).
    pub fn delete_where(&self, name: &str, pred: &dyn Fn(&[Value]) -> bool) -> Result<usize> {
        let table = self.table(name)?;
        let mut store = table.write().unwrap();
        let ts = self.next_ts();
        Ok(store.delete_where(pred, ts))
    }

    /// Updates rows matching `pred` by applying `f`, all or nothing: the
    /// matches are deleted and their rewritten versions inserted at one
    /// timestamp, or, if a rewritten row is rejected, nothing changes.
    pub fn update_where(
        &self,
        name: &str,
        pred: &dyn Fn(&[Value]) -> bool,
        f: &dyn Fn(&mut Vec<Value>),
    ) -> Result<usize> {
        let table = self.table(name)?;
        let mut store = table.write().unwrap();
        let ts = self.next_ts();
        store.update_where(pred, f, ts)
    }

    /// Scans a table at `snapshot`.
    pub fn scan(&self, name: &str, snapshot: Snapshot) -> Result<Batch> {
        self.table(name)?.read().unwrap().scan(snapshot.0)
    }

    /// Timestamp of the table's most recent write (0 = never written).
    pub fn table_version(&self, name: &str) -> Result<u64> {
        Ok(self.table(name)?.read().unwrap().last_write_ts())
    }

    /// True when the table saw deletes after `since`.
    pub fn deleted_since(&self, name: &str, since: Snapshot) -> Result<bool> {
        Ok(self.table(name)?.read().unwrap().last_delete_ts() > since.0)
    }

    /// Rows inserted after `since` and still live at `now` (incremental
    /// view maintenance feed), narrowed to the table ordinals `cols`.
    pub fn inserted_between(
        &self,
        name: &str,
        since: Snapshot,
        now: Snapshot,
        cols: Option<&[usize]>,
    ) -> Result<Batch> {
        self.table(name)?.read().unwrap().inserted_between(since.0, now.0, cols)
    }

    /// Rows visible at `since` but tombstoned in `(since, now]` — the
    /// retraction feed paired with [`StorageEngine::inserted_between`].
    /// Rows both inserted and deleted inside the window appear in neither.
    pub fn deleted_between(
        &self,
        name: &str,
        since: Snapshot,
        now: Snapshot,
        cols: Option<&[usize]>,
    ) -> Result<Batch> {
        self.table(name)?.read().unwrap().deleted_between(since.0, now.0, cols)
    }

    /// Switches a table between column-loadable and page-loadable layouts
    /// (the NSE metadata change + reload of §2.2).
    pub fn set_load_mode(
        &self,
        name: &str,
        mode: crate::nse::LoadMode,
        buffer_pages: usize,
    ) -> Result<()> {
        let table = self.table(name)?;
        table.write().unwrap().set_load_mode(mode, buffer_pages);
        Ok(())
    }

    /// Page-buffer counters of a table.
    pub fn page_stats(&self, name: &str) -> Result<crate::nse::PageStats> {
        Ok(self.table(name)?.read().unwrap().page_stats())
    }

    /// Number of fixed-size morsels a scan of the table claims.
    pub fn morsel_count(&self, name: &str, morsel_rows: usize) -> Result<usize> {
        Ok(self.table(name)?.read().unwrap().morsel_count(morsel_rows))
    }

    /// Scans one morsel of a table at `snapshot` — refined by `filter`,
    /// narrowed to the table ordinals `cols` when given — and counts its
    /// visible rows (see [`TableStore::scan_morsel`]). Unfiltered,
    /// un-narrowed morsels concatenated in index order reproduce
    /// [`StorageEngine::scan`] exactly.
    pub fn scan_morsel(
        &self,
        name: &str,
        snapshot: Snapshot,
        morsel: usize,
        morsel_rows: usize,
        filter: crate::store::ScanFilter<'_>,
        cols: Option<&[usize]>,
    ) -> Result<(Batch, usize)> {
        let table = self.table(name)?;
        let store = table.read().unwrap();
        store.scan_morsel(snapshot.0, morsel, morsel_rows, filter, cols)
    }

    /// Main-fragment blocks skipped by zone-map pruning so far.
    pub fn blocks_skipped(&self, name: &str) -> Result<u64> {
        Ok(self.table(name)?.read().unwrap().blocks_skipped())
    }

    /// Live row count at `snapshot`.
    pub fn row_count(&self, name: &str, snapshot: Snapshot) -> Result<usize> {
        Ok(self.table(name)?.read().unwrap().row_count(snapshot.0))
    }

    /// Per-column `(min, max)` zone-map ranges over a table's main
    /// fragment (empty until the first delta merge builds the maps).
    pub fn column_ranges(&self, name: &str) -> Result<Vec<Option<(Value, Value)>>> {
        Ok(self.table(name)?.read().unwrap().column_ranges())
    }

    /// Merges a table's delta into its main fragment.
    pub fn merge_delta(&self, name: &str) -> Result<()> {
        let table = self.table(name)?;
        let ts = self.clock.load(Ordering::SeqCst);
        let result = table.write().unwrap().merge_delta(ts);
        result
    }

    /// Delta size diagnostics.
    pub fn fragment_sizes(&self, name: &str) -> Result<(usize, usize)> {
        let t = self.table(name)?;
        let t = t.read().unwrap();
        Ok((t.main_len(), t.delta_len()))
    }

    /// Stored table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn engine_with_table() -> StorageEngine {
        let e = StorageEngine::new();
        e.create_table(Arc::new(
            TableBuilder::new("t")
                .column("k", SqlType::Int, false)
                .column("v", SqlType::Int, false)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        ))
        .unwrap();
        e
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn snapshot_sees_consistent_state() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10)]).unwrap();
        let snap = e.snapshot();
        e.insert("t", vec![row(2, 20)]).unwrap();
        assert_eq!(e.scan("t", snap).unwrap().num_rows(), 1);
        assert_eq!(e.scan("t", e.snapshot()).unwrap().num_rows(), 2);
    }

    #[test]
    fn delete_invisible_after_commit() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10), row(2, 20)]).unwrap();
        let before = e.snapshot();
        let n = e.delete_where("t", &|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(e.scan("t", e.snapshot()).unwrap().num_rows(), 1);
        assert_eq!(e.scan("t", before).unwrap().num_rows(), 2, "old snapshot unaffected");
    }

    #[test]
    fn update_where_rewrites_rows() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10), row(2, 20)]).unwrap();
        let n =
            e.update_where("t", &|r| r[0] == Value::Int(2), &|r| r[1] = Value::Int(99)).unwrap();
        assert_eq!(n, 1);
        let b = e.scan("t", e.snapshot()).unwrap();
        let mut rows = b.to_rows();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows[1], row(2, 99));
    }

    #[test]
    fn update_where_keeps_a_merged_rows_key() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10), row(2, 20), row(3, 30)]).unwrap();
        e.merge_delta("t").unwrap();
        let before = e.snapshot();
        let n =
            e.update_where("t", &|r| r[0] == Value::Int(2), &|r| r[1] = Value::Int(21)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(e.fragment_sizes("t").unwrap(), (3, 1), "the new version lands in the delta");
        let mut rows = e.scan("t", e.snapshot()).unwrap().to_rows();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows, vec![row(1, 10), row(2, 21), row(3, 30)]);
        let now = e.snapshot();
        assert_eq!(e.deleted_between("t", before, now, None).unwrap().to_rows(), vec![row(2, 20)]);
        assert_eq!(e.inserted_between("t", before, now, None).unwrap().to_rows(), vec![row(2, 21)]);
        assert!(e.insert("t", vec![row(2, 0)]).is_err(), "the new version holds the key");
        assert_eq!(e.update_where("t", &|r| r[0] == Value::Int(9), &|_| {}).unwrap(), 0);
    }

    /// An INT inserted into a DECIMAL column is stored as a decimal; the
    /// update closure sees it that way in main and in the delta alike.
    #[test]
    fn update_where_sees_delta_rows_coerced_like_main_rows() {
        use vdm_types::Decimal;
        let e = StorageEngine::new();
        let def = TableBuilder::new("t")
            .column("k", SqlType::Int, false)
            .column("amt", SqlType::Decimal { scale: 2 }, false)
            .primary_key(&["k"])
            .build()
            .unwrap();
        e.create_table(Arc::new(def)).unwrap();
        let dec = |units: i128| Value::Dec(Decimal::from_units(units, 2));
        e.insert("t", vec![vec![Value::Int(1), Value::Int(5)]]).unwrap();
        e.merge_delta("t").unwrap();
        e.insert("t", vec![vec![Value::Int(2), Value::Int(7)]]).unwrap();
        let double = |r: &mut Vec<Value>| {
            if let Value::Dec(d) = &r[1] {
                r[1] = Value::Dec(Decimal::from_units(2 * d.units(), 2));
            }
        };
        assert_eq!(e.update_where("t", &|_| true, &double).unwrap(), 2);
        let mut rows = e.scan("t", e.snapshot()).unwrap().to_rows();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows, vec![vec![Value::Int(1), dec(1000)], vec![Value::Int(2), dec(1400)]]);
    }

    /// An update whose rewritten rows are rejected — a NOT NULL violation,
    /// a key held by a row it does not touch, a key two rewritten rows
    /// share — leaves the scan, both feeds, the key index and the table
    /// version as they were.
    #[test]
    fn a_failed_update_changes_nothing() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10), row(2, 20)]).unwrap();
        e.merge_delta("t").unwrap();
        e.insert("t", vec![row(3, 30)]).unwrap();
        let (before, version) = (e.snapshot(), e.table_version("t").unwrap());
        let sorted = |snap| {
            let mut rows = e.scan("t", snap).unwrap().to_rows();
            rows.sort_by(|a: &Vec<Value>, b| a[0].total_cmp(&b[0]));
            rows
        };
        let unchanged = |update: Result<usize>| {
            assert!(update.is_err());
            let now = e.snapshot();
            assert_eq!(sorted(now), sorted(before));
            assert_eq!(e.inserted_between("t", before, now, None).unwrap().num_rows(), 0);
            assert_eq!(e.deleted_between("t", before, now, None).unwrap().num_rows(), 0);
            assert_eq!(e.table_version("t").unwrap(), version);
        };
        unchanged(e.update_where("t", &|_| true, &|r| r[1] = Value::Null));
        unchanged(e.update_where("t", &|r| r[0] != Value::Int(1), &|r| r[0] = Value::Int(1)));
        unchanged(e.update_where("t", &|_| true, &|r| r[0] = Value::Int(9)));
        for k in 1..=3 {
            assert!(e.insert("t", vec![row(k, 0)]).is_err(), "key {k} is still held");
        }
        e.insert("t", vec![row(9, 90)]).unwrap();
    }

    #[test]
    fn merge_keeps_visibility() {
        let e = engine_with_table();
        e.insert("t", vec![row(1, 10)]).unwrap();
        let old = e.snapshot();
        e.insert("t", vec![row(2, 20)]).unwrap();
        e.merge_delta("t").unwrap();
        let (main, delta) = e.fragment_sizes("t").unwrap();
        assert_eq!((main, delta), (2, 0));
        assert_eq!(e.scan("t", old).unwrap().num_rows(), 1, "merge preserves stamps");
        assert_eq!(e.scan("t", e.snapshot()).unwrap().num_rows(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let e = StorageEngine::new();
        assert!(e.scan("nope", e.snapshot()).is_err());
        assert!(e.insert("nope", vec![]).is_err());
        assert!(e.drop_table("nope").is_err());
    }

    #[test]
    fn concurrent_inserts_from_threads() {
        let e = Arc::new(engine_with_table());
        let mut handles = Vec::new();
        for t in 0..4 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    e.insert("t", vec![row(t * 1000 + i, i)]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.row_count("t", e.snapshot()).unwrap(), 200);
    }
}
