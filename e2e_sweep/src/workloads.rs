//! The four workloads: statement shapes, parameter grids, seeded op
//! sequences, and the `htap_mixed` script.
//!
//! Every seed runs (nearly) the same *multiset* of operations in a
//! different order: the parameter grid is fixed and the seed only shuffles
//! it. That keeps the latency distribution — and so p50/p90 — comparable
//! across seeds, while still letting a second seed catch anything tuned to
//! one order.

use crate::data::{COMPANIES, FIRST_YEAR, YEARS};
use vdm_types::{SplitMix64, Value};

/// Journal rows of the two read workloads whose cost is execution. The
/// issue asked for 200,000; the driver's time cap (92 runs in 57 minutes,
/// each with three set-ups) leaves room for this many.
pub const JOURNAL_ROWS: usize = 32_000;
/// Journal rows `htap_mixed` starts from; its postings double them.
pub const HTAP_JOURNAL_ROWS: usize = 24_000;
/// Journal rows of `browser_cold_plan`: small on purpose, so planning —
/// not scanning — is what an operation pays for.
pub const COLD_JOURNAL_ROWS: usize = 1_000;
/// Journal lines per `htap_mixed` posting batch.
pub const POST_LINES: usize = 100;
/// Every workload must time at least this many primary operations: p90
/// needs ten samples beyond it.
pub const MIN_PRIMARY_OPS: usize = 110;

/// One statement shape; `sql` takes its parameters as `?`.
pub struct Shape {
    pub name: &'static str,
    pub sql: &'static str,
}

pub const LIST_PAGE: usize = 0;
pub const DRILL_DOWN: usize = 1;
pub const YEAR_COUNT: usize = 2;
pub const COMPANY_YEAR_ROLLUP: usize = 3;
pub const SUPPLIER_COUNTRY_ROLLUP: usize = 4;
pub const TOP_CUSTOMERS: usize = 5;
pub const STAR_PAGE: usize = 6;

/// The statement shapes. Every ORDER BY … LIMIT names a total order
/// (the journal key is ledger × company × year × document × line), so a
/// result is one multiset whatever plan or thread count produced it — the
/// condition for comparing digests across optimizer profiles.
pub const SHAPES: [Shape; 7] = [
    // §4.4 paging: the page a user sees first.
    Shape {
        name: "list_page",
        sql: "select AccountingDocument, LineItem, Ledger, PostingDate, \
              AmountInCompanyCodeCurrency, SupplierName, CustomerName \
              from journal_entry_item_browser where CompanyCode = ? and FiscalYear = ? \
              order by AccountingDocument, LineItem, Ledger limit 50",
    },
    Shape {
        name: "drill_down",
        sql: "select Ledger, LineItem, AmountInCompanyCodeCurrency, DebitCreditCode, CompanyName \
              from journal_entry_item_browser \
              where CompanyCode = ? and FiscalYear = ? and AccountingDocument = ? \
              order by Ledger, LineItem",
    },
    Shape {
        name: "year_count",
        sql: "select FiscalYear, count(*) as n from journal_entry_item_browser \
              where CompanyCode = ? group by FiscalYear order by FiscalYear",
    },
    // Every augmentation join is pruned; the two DAC joins stay.
    Shape {
        name: "company_year_rollup",
        sql: "select CompanyCode, FiscalYear, count(*) as n, \
              sum(AmountInCompanyCodeCurrency) as amount \
              from journal_entry_item_browser group by CompanyCode, FiscalYear",
    },
    // Keeps `lfa1 ⟕ G` (the shared country view) alive.
    Shape {
        name: "supplier_country_rollup",
        sql: "select SupplierCountryName, count(*) as n, sum(AmountInGlobalCurrency) as amount \
              from journal_entry_item_browser group by SupplierCountryName",
    },
    Shape {
        name: "top_customers",
        sql: "select CustomerName, sum(AmountInCompanyCodeCurrency) as amount \
              from journal_entry_item_browser where FiscalYear = ? \
              group by CustomerName order by amount desc, CustomerName limit 10",
    },
    // `select *` keeps every augmentation join that exposes a column.
    Shape {
        name: "star_page",
        sql: "select * from journal_entry_item_browser where CompanyCode = ? and FiscalYear = ? \
              order by AccountingDocument, LineItem, Ledger limit 50",
    },
];

/// `htap_mixed`'s cached views: (name, defining SQL, dynamic?).
pub const CACHED_VIEWS: [(&str, &str, bool); 4] = [
    (
        "dcv_count_sum",
        "select CompanyCode, FiscalYear, count(*) as n, sum(AmountInCompanyCodeCurrency) as amount \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
        true,
    ),
    // MAX is what a reversal can retract: the group is then recomputed.
    (
        "dcv_last_posting",
        "select CompanyCode, FiscalYear, count(*) as n, max(PostingDate) as last_posting \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
        true,
    ),
    // No aggregate: maintained by patching rows in and out.
    (
        "dcv_open_year",
        "select AccountingDocument, LineItem, Ledger, AmountInCompanyCodeCurrency, CompanyName \
         from journal_entry_item_browser where FiscalYear = 2025",
        true,
    ),
    (
        "scv_supplier_country",
        "select SupplierCountryName, count(*) as n, sum(AmountInGlobalCurrency) as amount \
         from journal_entry_item_browser group by SupplierCountryName",
        false,
    ),
];

/// The dynamic views, read in every cycle.
pub fn dynamic_views() -> impl Iterator<Item = &'static str> {
    CACHED_VIEWS.iter().filter(|v| v.2).map(|v| v.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowserPaging,
    OlapRollup,
    BrowserColdPlan,
    HtapMixed,
}

pub const ALL: [Workload; 4] =
    [Workload::BrowserPaging, Workload::OlapRollup, Workload::BrowserColdPlan, Workload::HtapMixed];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowserPaging => "browser_paging",
            Workload::OlapRollup => "olap_rollup",
            Workload::BrowserColdPlan => "browser_cold_plan",
            Workload::HtapMixed => "htap_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Primary operations per second of `--seconds`: a constant of the
    /// benchmark, the same on every commit, sized so that the timed
    /// window lasts about `--seconds` on the 2-core reference host. A
    /// fixed count (not a deadline) keeps `htap_mixed`'s table growth,
    /// every count metric and peak memory independent of how fast the
    /// host is.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::BrowserPaging => 36,
            Workload::OlapRollup => 15,
            Workload::BrowserColdPlan => 140,
            Workload::HtapMixed => 16,
        }
    }

    /// Plan-cache capacity: the program default, except where the point
    /// is that every operation plans.
    pub fn plan_cache_capacity(self) -> usize {
        match self {
            Workload::BrowserColdPlan => 0,
            _ => vdm_core::DEFAULT_PLAN_CACHE_CAPACITY,
        }
    }

    /// Operations in one *mix*: each read shape once, or — on
    /// `htap_mixed` — one period of the script. Rounds are whole mixes,
    /// so that every round does the same work.
    pub fn mix_len(self) -> usize {
        match self {
            Workload::BrowserPaging | Workload::OlapRollup => 3,
            Workload::BrowserColdPlan => 7,
            Workload::HtapMixed => SCRIPT_PERIOD,
        }
    }

    /// Statements go through `Session::prepare` (plan cache) or, on
    /// `browser_cold_plan`, through `Session::query` with literals inlined.
    pub fn prepared(self) -> bool {
        self != Workload::BrowserColdPlan
    }
}

/// Rounds a contract window is split into. Host interference on the
/// reference VM is one-sided (it only ever slows a round) and comes in
/// bursts of seconds, so the end-to-end latency and throughput are taken
/// from the fastest half of the rounds; every round runs the same mix.
pub const ROUNDS: usize = 12;

/// Data size and op count of one run: `rounds` rounds of `round_ops`
/// primary operations each.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub journal_rows: usize,
    pub rounds: usize,
    pub round_ops: usize,
}

impl Scale {
    /// The contract scale: [`ROUNDS`] rounds whose op count comes from
    /// `--seconds`, is a whole number of [`Workload::mix_len`] mixes, and
    /// never totals fewer than [`MIN_PRIMARY_OPS`].
    pub fn contract(workload: Workload, seconds: usize, journal_rows: Option<usize>) -> Scale {
        let default_rows = match workload {
            Workload::BrowserColdPlan => COLD_JOURNAL_ROWS,
            Workload::HtapMixed => HTAP_JOURNAL_ROWS,
            _ => JOURNAL_ROWS,
        };
        let mix = workload.mix_len();
        let wanted = workload.ops_per_second() * seconds / ROUNDS / mix * mix;
        let least = MIN_PRIMARY_OPS.div_ceil(ROUNDS).div_ceil(mix) * mix;
        Scale {
            journal_rows: journal_rows.unwrap_or(default_rows),
            rounds: ROUNDS,
            round_ops: wanted.max(least),
        }
    }

    /// `--smoke` and the tests: seconds, not minutes, in a debug build.
    /// One round is one `htap_mixed` script period plus one, so every
    /// scripted operation happens, and a multiple of the read mixes.
    pub fn smoke() -> Scale {
        Scale { journal_rows: 2_000, rounds: 2, round_ops: 21 }
    }

    pub fn primary_ops(&self) -> usize {
        self.rounds * self.round_ops
    }

    /// The traced pass replays a quarter of the sequence.
    pub fn quarter(self) -> Scale {
        Scale { rounds: self.rounds.div_ceil(4), ..self }
    }
}

/// One read operation: a shape and its parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub shape: usize,
    pub params: Vec<Value>,
}

impl Op {
    /// Stable identity of the (shape, params) pair, the key into
    /// `golden_digests.json`.
    pub fn key(&self) -> String {
        let params: Vec<String> = self.params.iter().map(literal).collect();
        format!("{}({})", SHAPES[self.shape].name, params.join(","))
    }

    /// The statement with its parameters inlined as literals.
    pub fn inlined_sql(&self) -> String {
        let mut params = self.params.iter();
        let mut out = String::new();
        for ch in SHAPES[self.shape].sql.chars() {
            match ch {
                '?' => out.push_str(&literal(params.next().expect("one value per placeholder"))),
                _ => out.push(ch),
            }
        }
        out
    }
}

fn literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        other => panic!("the workloads only bind integers, got {other:?}"),
    }
}

/// The read operations of `workload` for `seed`: one *mix* (each shape
/// once) per cell of the parameter grid, cells and the shapes within a
/// cell in seeded-shuffled order. A run cycles through it, so any
/// [`Workload::mix_len`] consecutive operations hold every shape once.
/// `doc_of` names an existing document of a (company, year) — the one a
/// user would drill into.
pub fn read_grid(workload: Workload, seed: u64, doc_of: &dyn Fn(i64, i64) -> i64) -> Vec<Op> {
    let int = Value::Int;
    let op = |shape, params| Op { shape, params };
    let mut cells: Vec<Vec<Op>> = Vec::new();
    for y in FIRST_YEAR..FIRST_YEAR + YEARS {
        let olap = [
            op(COMPANY_YEAR_ROLLUP, vec![]),
            op(SUPPLIER_COUNTRY_ROLLUP, vec![]),
            op(TOP_CUSTOMERS, vec![int(y)]),
        ];
        if workload == Workload::OlapRollup {
            cells.push(olap.to_vec());
            continue;
        }
        for c in 1..=COMPANIES {
            let mut cell = vec![op(LIST_PAGE, vec![int(c), int(y)])];
            // `htap_mixed` only reads list pages, over the unmerged delta.
            if workload != Workload::HtapMixed {
                cell.push(op(DRILL_DOWN, vec![int(c), int(y), int(doc_of(c, y))]));
                cell.push(op(YEAR_COUNT, vec![int(c)]));
            }
            if workload == Workload::BrowserColdPlan {
                cell.extend(olap.iter().cloned());
                cell.push(op(STAR_PAGE, vec![int(c), int(y)]));
            }
            cells.push(cell);
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    shuffle(&mut rng, &mut cells);
    for cell in &mut cells {
        shuffle(&mut rng, cell);
    }
    cells.concat()
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// What `htap_mixed` does after the posting cycle with index `cycle`
/// (scripted at fixed indices, so every run of a seed does the same).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scripted {
    /// A list-page read while the posted lines are still in the delta.
    DeltaPageRead,
    /// `Server::refresh_cached_views()`: the static view's periodic tick.
    Refresh,
    /// `merge_delta("acdoca")`.
    Merge,
    /// Reversal of the batch just posted (`delete_where`), then a read of
    /// every dynamic view: retracts the group's `MAX(PostingDate)`.
    Reversal,
}

/// Cycles after which `htap_mixed`'s script repeats.
pub const SCRIPT_PERIOD: usize = 20;

/// The scripted operations after cycle `cycle`, in execution order: per
/// period of 20 cycles one reversal, two delta reads, one merge and one
/// refresh.
pub fn scripted_after(cycle: usize) -> Vec<Scripted> {
    let mut out = Vec::new();
    let at = cycle % SCRIPT_PERIOD;
    if at == 14 {
        out.push(Scripted::Reversal);
    }
    if at % 10 == 9 {
        out.push(Scripted::DeltaPageRead);
    }
    if at == 17 {
        out.push(Scripted::Merge);
    }
    if at == 19 {
        out.push(Scripted::Refresh);
    }
    out
}

/// Company and fiscal year a posting batch belongs to (round-robin).
pub fn batch_company_year(batch: usize) -> (i64, i64) {
    let b = batch as i64;
    (1 + b % COMPANIES, FIRST_YEAR + (b / COMPANIES) % YEARS)
}
