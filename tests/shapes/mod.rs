//! Shared by the suites that plan `e2e_sweep`'s statements.

/// `e2e_sweep`'s seven statement shapes, parameters spelled as literals.
pub const SHAPES: [(&str, &str); 7] = [
    (
        "list_page",
        "select AccountingDocument, LineItem, Ledger, PostingDate, \
         AmountInCompanyCodeCurrency, SupplierName, CustomerName \
         from journal_entry_item_browser where CompanyCode = 3 and FiscalYear = 2024 \
         order by AccountingDocument, LineItem, Ledger limit 50",
    ),
    (
        "drill_down",
        "select Ledger, LineItem, AmountInCompanyCodeCurrency, DebitCreditCode, CompanyName \
         from journal_entry_item_browser \
         where CompanyCode = 3 and FiscalYear = 2024 and AccountingDocument = 7 \
         order by Ledger, LineItem",
    ),
    (
        "year_count",
        "select FiscalYear, count(*) as n from journal_entry_item_browser \
         where CompanyCode = 3 group by FiscalYear order by FiscalYear",
    ),
    (
        "company_year_rollup",
        "select CompanyCode, FiscalYear, count(*) as n, \
         sum(AmountInCompanyCodeCurrency) as amount \
         from journal_entry_item_browser group by CompanyCode, FiscalYear",
    ),
    (
        "supplier_country_rollup",
        "select SupplierCountryName, count(*) as n, sum(AmountInGlobalCurrency) as amount \
         from journal_entry_item_browser group by SupplierCountryName",
    ),
    (
        "top_customers",
        "select CustomerName, sum(AmountInCompanyCodeCurrency) as amount \
         from journal_entry_item_browser where FiscalYear = 2024 \
         group by CustomerName order by amount desc, CustomerName limit 10",
    ),
    (
        "star_page",
        "select * from journal_entry_item_browser where CompanyCode = 3 and FiscalYear = 2024 \
         order by AccountingDocument, LineItem, Ledger limit 50",
    ),
];

/// The name the browser view is registered under.
pub const BROWSER: &str = "journal_entry_item_browser";
