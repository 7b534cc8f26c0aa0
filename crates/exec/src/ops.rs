//! Whole-batch operators: the small-input hash join (inputs under two
//! morsels), DISTINCT, sort and LIMIT/OFFSET. Filters, projections and
//! aggregation run on the kernels in [`crate::kernels`] and
//! [`crate::parallel`].

use std::collections::HashMap;
use std::sync::Arc;
use vdm_expr::Expr;
use vdm_plan::{JoinKind, SortKey};
use vdm_storage::Batch;
use vdm_types::{Result, Schema, Value};

/// Hash join: builds on the right input, probes with the left.
///
/// NULL join keys never match (SQL equi-join semantics). For left-outer
/// joins, a left row whose matches all fail the residual filter is still
/// emitted once, NULL-padded.
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    schema: Arc<Schema>,
) -> Result<Batch> {
    // Adaptive build side: an inner equi-join commutes, so build the hash
    // table on the smaller input (the economics the paper points at when
    // discussing limit pushdown, §4.4).
    if kind == JoinKind::Inner && residual.is_none() && left.num_rows() < right.num_rows() {
        return hash_join_build_left(left, right, on, schema);
    }
    // Build phase.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.num_rows());
    'build: for i in 0..right.num_rows() {
        let mut key = Vec::with_capacity(on.len());
        for &(_, rc) in on {
            let v = right.columns[rc].get(i);
            if v.is_null() {
                continue 'build;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }
    // Probe phase.
    let right_width = right.schema.len();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..left.num_rows() {
        let left_row = left.row(i);
        let mut key = Vec::with_capacity(on.len());
        let mut null_key = false;
        for &(lc, _) in on {
            let v = left_row[lc].clone();
            if v.is_null() {
                null_key = true;
                break;
            }
            key.push(v);
        }
        let matches = if null_key { None } else { table.get(&key) };
        let mut emitted = false;
        if let Some(matches) = matches {
            for &ri in matches {
                let mut combined = left_row.clone();
                combined.extend(right.row(ri));
                let pass = match residual {
                    Some(f) => f.eval_row(&combined)?.as_bool()? == Some(true),
                    None => true,
                };
                if pass {
                    rows.push(combined);
                    emitted = true;
                }
            }
        }
        if !emitted && kind == JoinKind::LeftOuter {
            let mut combined = left_row;
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            rows.push(combined);
        }
    }
    Batch::from_rows(schema, &rows)
}

/// Inner join building on the (smaller) left input, probing with the
/// right; output column order stays `left ++ right`.
fn hash_join_build_left(
    left: &Batch,
    right: &Batch,
    on: &[(usize, usize)],
    schema: Arc<Schema>,
) -> Result<Batch> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(left.num_rows());
    'build: for i in 0..left.num_rows() {
        let mut key = Vec::with_capacity(on.len());
        for &(lc, _) in on {
            let v = left.columns[lc].get(i);
            if v.is_null() {
                continue 'build;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }
    let mut rows: Vec<Vec<Value>> = Vec::new();
    'probe: for j in 0..right.num_rows() {
        let right_row = right.row(j);
        let mut key = Vec::with_capacity(on.len());
        for &(_, rc) in on {
            let v = right_row[rc].clone();
            if v.is_null() {
                continue 'probe;
            }
            key.push(v);
        }
        if let Some(matches) = table.get(&key) {
            for &li in matches {
                let mut combined = left.row(li);
                combined.extend(right_row.iter().cloned());
                rows.push(combined);
            }
        }
    }
    Batch::from_rows(schema, &rows)
}

/// Duplicate elimination over all columns (first occurrence wins).
pub fn distinct(input: &Batch) -> Result<Batch> {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    let mut keep = Vec::new();
    for i in 0..input.num_rows() {
        if seen.insert(input.row(i)) {
            keep.push(i);
        }
    }
    Ok(input.take(&keep))
}

/// Stable sort by `keys` (NULL placement per key spec).
pub fn sort(input: &Batch, keys: &[SortKey]) -> Result<Batch> {
    // Precompute key values per row.
    let mut key_vals: Vec<Vec<Value>> = Vec::with_capacity(input.num_rows());
    for i in 0..input.num_rows() {
        let row = input.row(i);
        let mut ks = Vec::with_capacity(keys.len());
        for k in keys {
            ks.push(k.expr.eval_row(&row)?);
        }
        key_vals.push(ks);
    }
    let mut indices: Vec<usize> = (0..input.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for (ki, k) in keys.iter().enumerate() {
            let va = &key_vals[a][ki];
            let vb = &key_vals[b][ki];
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => {
                    if k.nulls_first {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                }
                (false, true) => {
                    if k.nulls_first {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Less
                    }
                }
                (false, false) => {
                    let c = va.total_cmp_non_null(vb);
                    if k.asc {
                        c
                    } else {
                        c.reverse()
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(input.take(&indices))
}

/// LIMIT/OFFSET.
pub fn limit(input: &Batch, skip: u64, fetch: Option<u64>) -> Batch {
    let start = (skip as usize).min(input.num_rows());
    let end = match fetch {
        Some(f) => (start + f as usize).min(input.num_rows()),
        None => input.num_rows(),
    };
    let indices: Vec<usize> = (start..end).collect();
    input.take(&indices)
}
