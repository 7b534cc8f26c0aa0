//! A simulation of SAP HANA's *native storage extension* (NSE, §2.2 of the
//! paper): tables can be **page loadable** instead of fully
//! column loadable — "only accessed pages are loaded into an in-memory
//! page buffer and evicted as needed", and "switching between page-based
//! vs. column-based organization … is easy by changing the metadata of the
//! table and reloading".
//!
//! Everything here stays in memory; what the simulation models is the
//! *I/O accounting*: which scans would have touched disk, and how the
//! page buffer's hit rate responds to table layout and access patterns.
//! S/4HANA uses NSE for write-mostly data like change-document journals —
//! the integration tests mirror that scenario.

use std::collections::VecDeque;

/// How a table's columns are kept in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Whole columns resident (the default for hot data).
    ColumnLoadable,
    /// Page-wise residency through a bounded buffer.
    PageLoadable {
        /// Rows per page.
        page_rows: usize,
    },
}

/// Page-access counters of one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Pages faulted into the buffer (simulated disk reads).
    pub loads: u64,
    /// Pages served from the buffer.
    pub hits: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl PageStats {
    /// Buffer hit rate in `[0, 1]`; 1.0 when nothing was accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.loads + self.hits;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A FIFO page buffer (clock-like approximation of HANA's buffer cache).
#[derive(Debug)]
pub struct PageBuffer {
    capacity: usize,
    resident: VecDeque<usize>,
    stats: PageStats,
}

impl PageBuffer {
    /// Buffer holding at most `capacity` pages.
    pub fn new(capacity: usize) -> PageBuffer {
        PageBuffer {
            capacity: capacity.max(1),
            resident: VecDeque::new(),
            stats: PageStats::default(),
        }
    }

    /// Records an access to `page`, faulting and evicting as needed.
    pub fn touch(&mut self, page: usize) {
        if self.resident.contains(&page) {
            self.stats.hits += 1;
            return;
        }
        self.stats.loads += 1;
        if self.resident.len() >= self.capacity {
            self.resident.pop_front();
            self.stats.evictions += 1;
        }
        self.resident.push_back(page);
    }

    /// Records a scan touching the physical row range `rows` at
    /// `page_rows` granularity.
    pub fn touch_range(&mut self, rows: std::ops::Range<usize>, page_rows: usize) {
        if rows.is_empty() {
            return;
        }
        let page_rows = page_rows.max(1);
        for p in rows.start / page_rows..rows.end.div_ceil(page_rows) {
            self.touch(p);
        }
    }

    /// Drops all resident pages (the "reload" after a metadata switch).
    pub fn clear(&mut self) {
        self.resident.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageStats {
        self.stats
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_then_hits() {
        let mut b = PageBuffer::new(4);
        b.touch_range(0..100, 50); // pages 0, 1
        assert_eq!(b.stats(), PageStats { loads: 2, hits: 0, evictions: 0 });
        b.touch_range(0..100, 50); // both resident
        assert_eq!(b.stats(), PageStats { loads: 2, hits: 2, evictions: 0 });
        assert!(b.stats().hit_rate() > 0.49);
    }

    #[test]
    fn eviction_under_pressure() {
        let mut b = PageBuffer::new(2);
        for p in 0..4 {
            b.touch(p);
        }
        assert_eq!(b.stats().loads, 4);
        assert_eq!(b.stats().evictions, 2);
        assert_eq!(b.resident_pages(), 2);
        // Page 0 was evicted: touching it faults again.
        b.touch(0);
        assert_eq!(b.stats().loads, 5);
    }

    #[test]
    fn clear_models_reload() {
        let mut b = PageBuffer::new(8);
        b.touch_range(0..80, 10);
        b.clear();
        assert_eq!(b.resident_pages(), 0);
        b.touch(0);
        assert_eq!(b.stats().loads, 9, "post-reload access faults");
    }

    #[test]
    fn hit_rate_of_untouched_buffer_is_one() {
        assert_eq!(PageBuffer::new(4).stats().hit_rate(), 1.0);
    }
}
