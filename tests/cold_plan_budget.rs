//! Cold planning pays for what it rewrites, as a count that repeats
//! exactly: heap allocations made by one statistics-fed optimize of each
//! `e2e_sweep` statement shape over the Fig. 3 browser view. A `list_page`
//! join spine rebuilt through the validating constructors costs ≈80 joins ×
//! ≈80 field-name `String`s on its own, so the budgets below cannot be met
//! unless a rebuild that keeps its children's schemas keeps its own
//! (`vdm_plan::map_children`) and the rewrite trace counts only what a rule
//! changed.
//!
//! Budgets are ≈1.25 × this change's own count; the counts of the parent
//! commit (`41d6c4f`, this file run there first) are quoted beside them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vdm_core::{Database, EngineStats};
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_optimizer::Profile;

mod shapes;
use shapes::{BROWSER, SHAPES};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(shape, allocations at 41d6c4f, budget)`.
const BUDGETS: [(&str, u64, u64); 7] = [
    ("list_page", 23_184, 7_100),               // 5 660 at this change
    ("drill_down", 23_297, 7_200),              // 5 747
    ("year_count", 23_036, 6_900),              // 5 513
    ("company_year_rollup", 18_048, 6_050),     // 4 843
    ("supplier_country_rollup", 18_663, 6_500), // 5 219
    ("top_customers", 23_172, 7_000),           // 5 578
    ("star_page", 36_079, 24_300),              // 19 428
];

#[test]
fn a_cold_optimize_allocates_within_its_budget() {
    let mut db = Database::new(Profile::hana());
    let (catalog, engine) = db.catalog_and_engine();
    let schema = Erp { journal_rows: 1_000, seed: 4711 }.build(catalog, engine).unwrap();
    db.register_view(BROWSER, journal_entry_item_browser(&schema).unwrap().protected).unwrap();
    let mut over = Vec::new();
    for ((name, sql), (budget_of, parent, budget)) in SHAPES.iter().zip(BUDGETS) {
        assert_eq!(*name, budget_of);
        let bound = db.plan(sql).unwrap();
        let stats = EngineStats::new(db.engine());
        let before = ALLOCS.with(Cell::get);
        let optimized = db.optimizer().optimize_traced_with(&bound, Some(&stats), None);
        let allocs = ALLOCS.with(Cell::get) - before;
        let (_, trace) = optimized.unwrap();
        assert!(!trace.events.is_empty(), "{name}: the rules fire on every shape");
        println!("{name}: {allocs} allocations (41d6c4f: {parent}, budget {budget})");
        if allocs > budget {
            over.push(format!("{name}: {allocs} > {budget}"));
        }
    }
    // Debug builds re-run the validating constructor inside `map_children`
    // (the differential check of its fast path), so the budget gates
    // release builds — `scripts/ci.sh`'s release-test step.
    assert!(cfg!(debug_assertions) || over.is_empty(), "over budget: {over:?}");
}
