//! §7.3: the join-cardinality verification tool.
//!
//! Declared cardinalities (`LEFT OUTER MANY TO ONE JOIN`) are *not*
//! enforced by the engine — the paper's rationale is that uniqueness
//! constraints cost storage/CPU and restrict application design. To
//! mitigate the risk, SAP HANA "offers a tool that verifies whether the
//! specified join cardinality in a query aligns with the actual data";
//! this module is that tool.

use vdm_plan::DeclaredCardinality;
use vdm_storage::hash::{hash_side, KeyEq, KeyTable};
use vdm_storage::{Batch, Column, Snapshot, StorageEngine};
use vdm_types::{Result, Value};

/// Outcome of verifying one declared cardinality against data.
#[derive(Debug, Clone, PartialEq)]
pub struct CardinalityReport {
    pub declared: DeclaredCardinality,
    /// Whether the declaration holds on the current data.
    pub holds: bool,
    /// Largest number of right-side matches observed for one key value.
    pub max_matches: usize,
    /// Left key values with no right match (breaks `MANY TO EXACT ONE`).
    pub unmatched_left_keys: usize,
    /// A witness key violating the declaration, if any.
    pub violating_key: Option<Vec<Value>>,
}

/// Verifies `declared` for a join `left.on_left = right.on_right` between
/// two stored tables at `snapshot`.
pub fn verify_join_cardinality(
    engine: &StorageEngine,
    snapshot: Snapshot,
    left_table: &str,
    on_left: &[&str],
    right_table: &str,
    on_right: &[&str],
    declared: DeclaredCardinality,
) -> Result<CardinalityReport> {
    let (left, right) = (engine.scan(left_table, snapshot)?, engine.scan(right_table, snapshot)?);
    fn key_cols<'b>(b: &'b Batch, names: &[&str]) -> Result<Vec<&'b Column>> {
        names.iter().map(|c| Ok(&b.columns[b.schema.index_of_or_err(c)?])).collect()
    }
    let (l_keys, r_keys) = (key_cols(&left, on_left)?, key_cols(&right, on_right)?);
    let typed = l_keys.iter().zip(&r_keys).all(|(l, r)| l.sql_type() == r.sql_type());
    // Each row's key hash; NULL keys never match.
    let keyed = |keys: &[&Column], n: usize| {
        let hashes = hash_side(keys, 0..n, typed).into_iter().enumerate();
        hashes.filter(|&(i, _)| keys.iter().all(|c| !c.is_null(i))).collect::<Vec<_>>()
    };
    let key_at = |keys: &[&Column], i: usize| keys.iter().map(|c| c.get(i)).collect::<Vec<_>>();

    // Per right key value, in order of first occurrence: its first row and
    // how many rows hold it.
    let (mut table, mut counts) = (KeyTable::with_capacity(right.num_rows()), Vec::new());
    let (rr, rl) = (KeyEq::new(&r_keys, &r_keys), KeyEq::new(&r_keys, &l_keys));
    for (i, h) in keyed(&r_keys, right.num_rows()) {
        let (id, new) = table.find_or_insert(h, i, |j| rr.eq(j, i));
        counts.extend(new.then_some((i, 0)));
        counts[id].1 += 1;
    }
    let max_matches = counts.iter().map(|&(_, n)| n).max().unwrap_or(0);
    // The witness: the first key to occur among those with the most matches.
    let witness = counts.iter().find(|&&(_, n)| max_matches > 1 && n == max_matches);
    let mut violating_key = witness.map(|&(first, _)| key_at(&r_keys, first));
    // For MANY TO EXACT ONE, every (non-null) left key must have a match.
    let matched = |&(i, h): &(usize, u64)| table.find(h, |j| rl.eq(j, i));
    let unmatched: Vec<_> =
        keyed(&l_keys, left.num_rows()).into_iter().filter(|k| matched(k).is_none()).collect();
    let holds = match declared {
        DeclaredCardinality::ManyToOne => max_matches <= 1,
        DeclaredCardinality::ManyToExactOne => max_matches <= 1 && unmatched.is_empty(),
    };
    if violating_key.is_none() && declared == DeclaredCardinality::ManyToExactOne {
        violating_key = unmatched.first().map(|&(i, _)| key_at(&l_keys, i));
    }
    let unmatched_left_keys = unmatched.len();
    Ok(CardinalityReport { declared, holds, max_matches, unmatched_left_keys, violating_key })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdm_catalog::TableBuilder;
    use vdm_types::SqlType;

    fn setup(currency_rows: Vec<Vec<Value>>) -> StorageEngine {
        let e = StorageEngine::new();
        e.create_table(Arc::new(
            TableBuilder::new("orders")
                .column("id", SqlType::Int, false)
                .column("curr", SqlType::Text, true)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        ))
        .unwrap();
        // Deliberately constraint-free, like real SAP dimension tables.
        e.create_table(Arc::new(
            TableBuilder::new("currency")
                .column("code", SqlType::Text, false)
                .column("rate", SqlType::Decimal { scale: 4 }, false)
                .build()
                .unwrap(),
        ))
        .unwrap();
        e.insert(
            "orders",
            vec![
                vec![Value::Int(1), Value::str("EUR")],
                vec![Value::Int(2), Value::str("USD")],
                vec![Value::Int(3), Value::Null],
            ],
        )
        .unwrap();
        e.insert("currency", currency_rows).unwrap();
        e
    }

    fn dec(s: &str) -> Value {
        Value::Dec(s.parse().unwrap())
    }

    #[test]
    fn many_to_one_holds_on_clean_data() {
        let e = setup(vec![
            vec![Value::str("EUR"), dec("1.0000")],
            vec![Value::str("USD"), dec("0.9200")],
        ]);
        let r = verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["curr"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToOne,
        )
        .unwrap();
        assert!(r.holds);
        assert_eq!(r.max_matches, 1);
    }

    #[test]
    fn duplicate_right_keys_violate_many_to_one() {
        let e = setup(vec![
            vec![Value::str("EUR"), dec("1.0000")],
            vec![Value::str("EUR"), dec("1.0500")],
        ]);
        let r = verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["curr"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToOne,
        )
        .unwrap();
        assert!(!r.holds);
        assert_eq!(r.max_matches, 2);
        assert_eq!(r.violating_key, Some(vec![Value::str("EUR")]));
    }

    /// Two keys tie at the most matches: the witness is the first of them
    /// to occur among the right rows, on every run.
    #[test]
    fn a_tied_violation_names_the_first_key() {
        let (eur, usd) = (Value::str("EUR"), Value::str("USD"));
        let rows = [&eur, &usd, &usd, &eur].map(|k| vec![k.clone(), dec("1.0000")]);
        let e = setup(rows.to_vec());
        for _ in 0..8 {
            let r = verify_join_cardinality(
                &e,
                e.snapshot(),
                "orders",
                &["curr"],
                "currency",
                &["code"],
                DeclaredCardinality::ManyToOne,
            )
            .unwrap();
            assert_eq!((r.max_matches, r.violating_key), (2, Some(vec![eur.clone()])));
        }
    }

    /// An INT key against a DECIMAL key holding the same values: the two
    /// sides hash through `Value`, so `1` finds `1.00`.
    #[test]
    fn int_keys_match_equal_decimal_keys() {
        let e = StorageEngine::new();
        for (name, ty) in [("l", SqlType::Int), ("r", SqlType::Decimal { scale: 2 })] {
            let def = TableBuilder::new(name).column("k", ty, false).build().unwrap();
            e.create_table(Arc::new(def)).unwrap();
        }
        e.insert("l", vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(2)]]).unwrap();
        e.insert("r", vec![vec![dec("1.00")], vec![dec("2.00")]]).unwrap();
        let r = verify_join_cardinality(
            &e,
            e.snapshot(),
            "l",
            &["k"],
            "r",
            &["k"],
            DeclaredCardinality::ManyToExactOne,
        )
        .unwrap();
        assert!(r.holds, "{r:?}");
        assert_eq!((r.max_matches, r.unmatched_left_keys), (1, 0));
    }

    #[test]
    fn exact_one_requires_full_coverage() {
        // USD missing: MANY TO ONE holds, MANY TO EXACT ONE does not.
        let e = setup(vec![vec![Value::str("EUR"), dec("1.0000")]]);
        let m2o = verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["curr"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToOne,
        )
        .unwrap();
        assert!(m2o.holds);
        let exact = verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["curr"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToExactOne,
        )
        .unwrap();
        assert!(!exact.holds);
        assert_eq!(exact.unmatched_left_keys, 1);
        assert_eq!(exact.violating_key, Some(vec![Value::str("USD")]));
    }

    #[test]
    fn null_keys_are_ignored() {
        // The NULL `curr` on order 3 counts neither as matched nor unmatched.
        let e =
            setup(vec![vec![Value::str("EUR"), dec("1.0")], vec![Value::str("USD"), dec("0.9")]]);
        let r = verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["curr"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToExactOne,
        )
        .unwrap();
        assert!(r.holds);
        assert_eq!(r.unmatched_left_keys, 0);
    }

    #[test]
    fn unknown_columns_error() {
        let e = setup(vec![]);
        assert!(verify_join_cardinality(
            &e,
            e.snapshot(),
            "orders",
            &["nope"],
            "currency",
            &["code"],
            DeclaredCardinality::ManyToOne,
        )
        .is_err());
    }
}
