//! The whole-batch sort: picks row indices and assembles its output with one
//! payload-level [`Batch::gather`]. Everything else runs on the kernels in
//! [`crate::kernels`] and [`crate::executor`].

use crate::kernels::RowScratch;
use vdm_plan::SortKey;
use vdm_storage::Batch;
use vdm_types::{Result, Value};

/// Stable sort by `keys` (NULL placement per key spec).
pub fn sort(input: &Batch, keys: &[SortKey]) -> Result<Batch> {
    // Precompute key values per row.
    let mut scratch = RowScratch::new(keys.iter().map(|k| &k.expr), input.schema.len());
    let mut key_vals: Vec<Vec<Value>> = Vec::with_capacity(input.num_rows());
    for i in 0..input.num_rows() {
        let row = scratch.load(|c| input.columns[c].get(i));
        key_vals.push(keys.iter().map(|k| k.expr.eval_row(row)).collect::<Result<_>>()?);
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
    Ok(input.gather(&indices))
}
