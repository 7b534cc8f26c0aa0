//! Block zone maps: per-block min/max statistics over the main fragment.
//!
//! S/4HANA relies on range partitioning so "partition pruning can be
//! applied effectively" (§2.2). At this engine's scale the same effect
//! comes from zone maps: the main fragment is divided into fixed-size row
//! blocks, each carrying the min/max of every orderable column; a scan
//! with a range predicate skips blocks that provably contain no match.
//! Zone maps change only at delta merge — exactly when HANA's read-
//! optimized structures do, so freshly merged "hot" data is immediately
//! prunable while unmerged delta rows are always scanned. A merge that
//! appends to the main fragment extends them from the first changed block;
//! they are rebuilt only when a merge compacts.

use crate::column::{Column, ColumnData};
use vdm_types::{Decimal, Value};

/// Rows per zone-map block.
pub const ZONE_BLOCK_ROWS: usize = 1024;

/// A half-open-ended range over one column: `min ≤ v ≤ max`, either side
/// optional. Built from filter atoms (`v = k`, `v > k`, `v BETWEEN …`).
#[derive(Debug, Clone, Default)]
pub struct ScanRange {
    pub min: Option<Value>,
    pub max: Option<Value>,
}

impl ScanRange {
    /// The point range `v = k`.
    pub fn point(v: Value) -> ScanRange {
        ScanRange { min: Some(v.clone()), max: Some(v) }
    }

    /// `v >= lo`.
    pub fn at_least(lo: Value) -> ScanRange {
        ScanRange { min: Some(lo), max: None }
    }

    /// `v <= hi`.
    pub fn at_most(hi: Value) -> ScanRange {
        ScanRange { min: None, max: Some(hi) }
    }

    /// Could a value within `[block_min, block_max]` fall in this range?
    fn overlaps(&self, block_min: &Value, block_max: &Value) -> bool {
        if let Some(min) = &self.min {
            if block_max.total_cmp(min) == std::cmp::Ordering::Less {
                return false;
            }
        }
        if let Some(max) = &self.max {
            if block_min.total_cmp(max) == std::cmp::Ordering::Greater {
                return false;
            }
        }
        true
    }
}

/// One block's statistics for one column.
#[derive(Debug, Clone, PartialEq)]
struct BlockStats {
    min: Value,
    max: Value,
    /// Blocks containing NULLs can never be skipped by a range (NULL rows
    /// are invisible to comparisons but other predicates may keep them).
    has_null: bool,
}

impl BlockStats {
    /// The statistics of `col`'s block `block`, compared at payload level. A
    /// dictionary column reads as all NULL: its blocks are never skipped.
    fn of(col: &Column, block: usize) -> BlockStats {
        let rows = block * ZONE_BLOCK_ROWS..((block + 1) * ZONE_BLOCK_ROWS).min(col.len());
        let valid = col.validity();
        let has_null = valid.is_some_and(|v| v[rows.clone()].contains(&false));
        let live = rows.filter(|&i| valid.is_none_or(|v| v[i]));
        let (min, max) = match col.data() {
            ColumnData::Int(v) => min_max(live.map(|i| v[i]), Value::Int),
            ColumnData::Dec { units, scale } => {
                min_max(live.map(|i| units[i]), |u| Value::Dec(Decimal::from_units(u, *scale)))
            }
            ColumnData::Bool(v) => min_max(live.map(|i| v[i]), Value::Bool),
            ColumnData::Date(v) => min_max(live.map(|i| v[i]), Value::Date),
            ColumnData::Str(_) => (Value::Null, Value::Null),
        };
        BlockStats { min, max, has_null }
    }
}

/// The least and the greatest of `xs` as values; NULL and NULL when empty.
fn min_max<T: Ord + Copy>(
    mut xs: impl Iterator<Item = T>,
    value: impl Fn(T) -> Value,
) -> (Value, Value) {
    let Some(first) = xs.next() else { return (Value::Null, Value::Null) };
    let (lo, hi) = xs.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
    (value(lo), value(hi))
}

/// Zone maps for a whole main fragment: `maps[column][block]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZoneMaps {
    maps: Vec<Option<Vec<BlockStats>>>,
}

impl ZoneMaps {
    /// Brings the maps up to date with `columns` after their rows from
    /// `first_changed` on changed (a merge appended them): the blocks
    /// before the one holding that row are kept, every later one is
    /// re-derived. `first_changed = 0` is a full build.
    pub(crate) fn extend(&mut self, columns: &[Column], first_changed: usize) {
        let kept = first_changed / ZONE_BLOCK_ROWS;
        self.maps.resize(columns.len(), None);
        for (col, map) in columns.iter().zip(&mut self.maps) {
            // Strings are orderable too, but pruning value lies with
            // numeric/date keys; skip dictionary columns to keep maps
            // small.
            if matches!(col.data(), ColumnData::Str(_)) {
                continue;
            }
            let stats = map.get_or_insert_with(Vec::new);
            stats.truncate(kept);
            let blocks = kept..col.len().div_ceil(ZONE_BLOCK_ROWS);
            stats.extend(blocks.map(|b| BlockStats::of(col, b)));
        }
    }

    /// May block `block` of `column` contain a row matching `range`?
    /// Conservative: unknown columns/blocks always "may match".
    pub fn block_may_match(&self, column: usize, block: usize, range: &ScanRange) -> bool {
        let Some(Some(stats)) = self.maps.get(column) else {
            return true;
        };
        let Some(s) = stats.get(block) else {
            return true;
        };
        if s.has_null || s.min.is_null() {
            // All-NULL or mixed blocks cannot be excluded by a range.
            return true;
        }
        range.overlaps(&s.min, &s.max)
    }

    /// Whole-fragment `(min, max)` over non-NULL values of `column`, folded
    /// across all blocks. `None` when the column has no zone maps (strings)
    /// or holds no non-NULL values.
    pub fn column_range(&self, column: usize) -> Option<(Value, Value)> {
        let stats = self.maps.get(column)?.as_ref()?;
        let known = || stats.iter().filter(|s| !s.min.is_null());
        let min = known().map(|s| &s.min).min_by(|a, b| a.total_cmp_non_null(b))?;
        let max = known().map(|s| &s.max).max_by(|a, b| a.total_cmp_non_null(b))?;
        Some((min.clone(), max.clone()))
    }
}

#[cfg(test)]
impl ZoneMaps {
    /// Maps built from scratch over `columns` — [`ZoneMaps::extend`] from
    /// row 0, the reference the tests hold a merge's maps to.
    pub(crate) fn build(columns: &[Column]) -> ZoneMaps {
        let mut maps = ZoneMaps::default();
        maps.extend(columns, 0);
        maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_types::SqlType;

    fn int_column(values: Vec<i64>) -> Column {
        let vals: Vec<Value> = values.into_iter().map(Value::Int).collect();
        Column::from_values(SqlType::Int, &vals).unwrap()
    }

    #[test]
    fn builds_per_block_min_max() {
        // Two blocks: [0..1024) ascending, [1024..2048) offset by 10_000.
        let mut v: Vec<i64> = (0..1024).collect();
        v.extend(10_000..11_024);
        let maps = ZoneMaps::build(&[int_column(v)]);
        assert!(maps.block_may_match(0, 0, &ScanRange::point(Value::Int(500))));
        assert!(!maps.block_may_match(0, 1, &ScanRange::point(Value::Int(500))));
        assert!(maps.block_may_match(0, 1, &ScanRange::at_least(Value::Int(10_500))));
        assert!(!maps.block_may_match(0, 0, &ScanRange::at_least(Value::Int(2_000))));
        assert!(maps.block_may_match(0, 0, &ScanRange::at_most(Value::Int(0))));
        assert_eq!(maps.column_range(0), Some((Value::Int(0), Value::Int(11_023))));
    }

    /// Block statistics compare payloads; a reference over values ordered
    /// by `Value::total_cmp` must agree, NULLs and an all-NULL block included.
    #[test]
    fn block_stats_order_payloads_as_values_do() {
        use vdm_types::Decimal;
        let n = 2 * ZONE_BLOCK_ROWS + 300;
        let cell = |ty: SqlType, i: usize| match ty {
            _ if i % 7 == 3 || i >= 2 * ZONE_BLOCK_ROWS => Value::Null,
            SqlType::Int => Value::Int((i * 7919 % 1000) as i64 - 500),
            SqlType::Bool => Value::Bool(i.is_multiple_of(5)),
            SqlType::Date => Value::Date(19_000 + (i * 31 % 400) as i32),
            _ => Value::Dec(Decimal::from_units((i * 104_729 % 2000) as i128 - 1000, 2)),
        };
        for ty in [SqlType::Int, SqlType::Decimal { scale: 2 }, SqlType::Bool, SqlType::Date] {
            let vals: Vec<Value> = (0..n).map(|i| cell(ty, i)).collect();
            let maps = ZoneMaps::build(&[Column::from_values(ty, &vals).unwrap()]);
            let stats = maps.maps[0].as_ref().unwrap();
            assert_eq!(stats.len(), 3);
            for (b, got) in stats.iter().enumerate() {
                let block = &vals[b * ZONE_BLOCK_ROWS..((b + 1) * ZONE_BLOCK_ROWS).min(n)];
                let live = || block.iter().filter(|v| !v.is_null()).cloned();
                let want = BlockStats {
                    min: live().min_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null),
                    max: live().max_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null),
                    has_null: block.iter().any(Value::is_null),
                };
                assert_eq!(got, &want, "{ty} block {b}");
            }
        }
    }

    #[test]
    fn null_blocks_never_skipped() {
        let vals = vec![Value::Null, Value::Int(5)];
        let col = Column::from_values(SqlType::Int, &vals).unwrap();
        let maps = ZoneMaps::build(&[col]);
        assert!(maps.block_may_match(0, 0, &ScanRange::point(Value::Int(999))));
        assert_eq!(maps.column_range(0), Some((Value::Int(5), Value::Int(5))));
        let all_null = Column::from_values(SqlType::Int, &[Value::Null]).unwrap();
        assert_eq!(ZoneMaps::build(&[all_null]).column_range(0), None);
    }

    #[test]
    fn string_columns_and_unknown_blocks_are_conservative() {
        let col = Column::from_values(SqlType::Text, &[Value::str("x")]).unwrap();
        let maps = ZoneMaps::build(&[col]);
        assert!(maps.block_may_match(0, 0, &ScanRange::point(Value::Int(1))));
        assert!(maps.block_may_match(5, 0, &ScanRange::point(Value::Int(1))), "unknown column");
        assert!(maps.block_may_match(0, 99, &ScanRange::point(Value::Int(1))), "unknown block");
        assert_eq!(maps.column_range(0), None, "no zone map on a dictionary column");
    }
}
