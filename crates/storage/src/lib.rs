//! In-memory columnar storage engine.
//!
//! A deliberately HANA-shaped substrate (§2.2 of the paper):
//!
//! * every table has a **write-optimized delta** that inserts append to, a
//!   **read-optimized main** (zone-mapped) and a tombstone log — all three
//!   typed columns (dictionary-encoded strings) with per-row stamps;
//! * a **delta merge** folds the delta into the main fragment;
//! * a **scan** is a selection + gather: the visible rows of main and the
//!   delta are picked once, a caller-supplied [`ScanFilter`] drops the ones
//!   it rejects, and every column is gathered at payload level — rows
//!   (`Vec<Vec<Value>>`) exist only at the API edge;
//! * rows carry `(insert_ts, delete_ts)` stamps; readers operate against a
//!   [`Snapshot`] so analytical scans see a consistent state while
//!   transactional writes continue (MVCC-lite — single-statement
//!   auto-commit transactions, which is all the workloads here need);
//! * primary-key and unique constraints are enforced on insert, because the
//!   optimizer's uniqueness derivations must be *true* of the data the
//!   benchmarks run on.

pub mod column;
pub mod engine;
pub mod hash;
pub mod nse;
pub mod store;
pub mod zonemap;

pub use column::{Batch, Column, ColumnData};
pub use engine::{Snapshot, StorageEngine};
pub use nse::{LoadMode, PageStats};
pub use store::{MaskFn, ScanFilter, TableStore};
pub use zonemap::ScanRange;
