//! Validators for the sparse storage formats.
//!
//! The typed constructors in `commorder-sparse` already enforce these
//! invariants at build time; the validators here re-derive them from the
//! raw arrays where a matrix crosses a boundary: fixtures ingested from
//! disk are audited *before* construction ([`check_csr_parts`],
//! [`check_coo_parts`]), and generated matrices are audited once built
//! ([`check_csr`]). CSC, ELL and SELL storage is only ever built from a
//! checked CSR through `CscMatrix::from` / `from_csr`, so it has no
//! validator of its own.

use commorder_sparse::CsrMatrix;

use crate::codes;
use crate::diag::{Diagnostic, Location};

/// Audits raw CSR arrays: offsets length/start/monotonicity/last entry,
/// index bounds, per-row strict ordering, values length, and value
/// finiteness.
///
/// `object` prefixes every location, e.g. `"csr"` yields findings at
/// `csr.row_offsets[i]`, `csr.col_indices[i]`, `csr.values[i]`.
#[must_use]
pub fn check_csr_parts(
    object: &str,
    n_rows: u64,
    n_cols: u64,
    row_offsets: &[u32],
    col_indices: &[u32],
    values: Option<&[f32]>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let offsets_obj = format!("{object}.row_offsets");
    let indices_obj = format!("{object}.col_indices");

    // Widened so that no declared row count can wrap the `+ 1`.
    let want_offsets = u128::from(n_rows) + 1;
    if row_offsets.len() as u128 != want_offsets {
        out.push(Diagnostic::error(
            codes::OFFSETS_LENGTH,
            Location::whole(&offsets_obj),
            format!(
                "offsets length {} but n_rows + 1 = {want_offsets}",
                row_offsets.len()
            ),
        ));
        // The remaining offset checks assume the documented shape.
        return out;
    }
    if let Some(&first) = row_offsets.first() {
        if first != 0 {
            out.push(Diagnostic::error(
                codes::OFFSETS_START,
                Location::at(&offsets_obj, 0),
                format!("first offset is {first}, must be 0"),
            ));
        }
    }
    let mut monotone = true;
    for (i, w) in row_offsets.windows(2).enumerate() {
        if w[1] < w[0] {
            monotone = false;
            out.push(Diagnostic::error(
                codes::OFFSETS_MONOTONE,
                Location::at(&offsets_obj, (i + 1) as u64),
                format!("offset {} follows larger offset {}", w[1], w[0]),
            ));
        }
    }
    if let Some(&last) = row_offsets.last() {
        if last as usize != col_indices.len() {
            out.push(Diagnostic::error(
                codes::OFFSETS_LAST,
                Location::at(&offsets_obj, (row_offsets.len() - 1) as u64),
                format!(
                    "last offset {last} but index array holds {} entries",
                    col_indices.len()
                ),
            ));
        }
    }
    if let Some(values) = values {
        if values.len() != col_indices.len() {
            out.push(Diagnostic::error(
                codes::VALUES_LENGTH,
                Location::whole(&format!("{object}.values")),
                format!(
                    "values length {} but index array holds {} entries",
                    values.len(),
                    col_indices.len()
                ),
            ));
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                out.push(Diagnostic::error(
                    codes::VALUE_NONFINITE,
                    Location::at(&format!("{object}.values"), i as u64),
                    format!("stored value is {v}"),
                ));
            }
        }
    }
    for (i, &c) in col_indices.iter().enumerate() {
        if u64::from(c) >= n_cols {
            out.push(Diagnostic::error(
                codes::INDEX_BOUNDS,
                Location::at(&indices_obj, i as u64),
                format!("index {c} exceeds dimension {n_cols}"),
            ));
        }
    }
    // Per-row ordering is only meaningful when offsets describe valid
    // slices of the index array.
    if monotone && row_offsets.last().copied().unwrap_or(0) as usize == col_indices.len() {
        for (r, w) in row_offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            for k in lo + 1..hi {
                if col_indices[k - 1] >= col_indices[k] {
                    out.push(Diagnostic::error(
                        codes::INDEX_SORTED,
                        Location::at(&indices_obj, k as u64),
                        format!(
                            "row {r}: index {} does not strictly increase after {}",
                            col_indices[k],
                            col_indices[k - 1]
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Audits a constructed [`CsrMatrix`] (clean unless memory was corrupted
/// or an invariant-breaking code path slipped past construction).
#[must_use]
pub fn check_csr(m: &CsrMatrix) -> Vec<Diagnostic> {
    check_csr_parts(
        "csr",
        u64::from(m.n_rows()),
        u64::from(m.n_cols()),
        m.row_offsets(),
        m.col_indices(),
        Some(m.values()),
    )
}

/// Audits raw COO triples against declared dimensions: coordinate
/// bounds, value finiteness, and (warning) duplicate coordinates.
#[must_use]
pub fn check_coo_parts(
    object: &str,
    n_rows: u64,
    n_cols: u64,
    entries: &[(u32, u32, f32)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, &(r, c, v)) in entries.iter().enumerate() {
        if u64::from(r) >= n_rows {
            out.push(Diagnostic::error(
                codes::COO_ROW_BOUNDS,
                Location::at(object, i as u64),
                format!("row {r} exceeds dimension {n_rows}"),
            ));
        }
        if u64::from(c) >= n_cols {
            out.push(Diagnostic::error(
                codes::COO_COL_BOUNDS,
                Location::at(object, i as u64),
                format!("column {c} exceeds dimension {n_cols}"),
            ));
        }
        if !v.is_finite() {
            out.push(Diagnostic::error(
                codes::COO_VALUE_NONFINITE,
                Location::at(object, i as u64),
                format!("value at ({r}, {c}) is {v}"),
            ));
        }
    }
    let mut coords: Vec<(u32, u32, usize)> = entries
        .iter()
        .enumerate()
        .map(|(i, &(r, c, _))| (r, c, i))
        .collect();
    coords.sort_unstable();
    for w in coords.windows(2) {
        if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
            out.push(Diagnostic::warning(
                codes::COO_DUPLICATE,
                Location::at(object, w[1].2 as u64),
                format!(
                    "coordinate ({}, {}) already stored at entry {} (CSR conversion sums duplicates)",
                    w[1].0, w[1].1, w[0].2
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_csr_is_clean() {
        let m =
            CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).expect("valid");
        assert!(check_csr(&m).is_empty());
    }

    #[test]
    fn wrong_offsets_length_is_chk0101() {
        let d = check_csr_parts("csr", 3, 3, &[0, 1], &[0], Some(&[1.0]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::OFFSETS_LENGTH);
    }

    #[test]
    fn row_count_at_u64_max_is_chk0101_not_a_panic() {
        let d = check_csr_parts("csr", u64::MAX, 1, &[], &[], None);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::OFFSETS_LENGTH);
    }

    #[test]
    fn nonzero_start_is_chk0102() {
        let d = check_csr_parts("csr", 1, 3, &[1, 1], &[0], None);
        assert!(d.iter().any(|d| d.code == codes::OFFSETS_START), "{d:?}");
    }

    #[test]
    fn non_monotone_offsets_is_chk0103_with_position() {
        let d = check_csr_parts("csr", 2, 3, &[0, 2, 1], &[0, 1], None);
        let hit = d
            .iter()
            .find(|d| d.code == codes::OFFSETS_MONOTONE)
            .expect("finding");
        assert_eq!(hit.location.index, Some(2));
    }

    #[test]
    fn wrong_last_offset_is_chk0104() {
        let d = check_csr_parts("csr", 1, 3, &[0, 2], &[0], None);
        assert!(d.iter().any(|d| d.code == codes::OFFSETS_LAST), "{d:?}");
    }

    #[test]
    fn index_out_of_bounds_is_chk0105() {
        let d = check_csr_parts("csr", 1, 2, &[0, 1], &[5], None);
        assert!(d.iter().any(|d| d.code == codes::INDEX_BOUNDS), "{d:?}");
    }

    #[test]
    fn unsorted_row_is_chk0106() {
        let d = check_csr_parts("csr", 1, 3, &[0, 2], &[2, 0], None);
        assert!(d.iter().any(|d| d.code == codes::INDEX_SORTED), "{d:?}");
        let dup = check_csr_parts("csr", 1, 3, &[0, 2], &[1, 1], None);
        assert!(dup.iter().any(|d| d.code == codes::INDEX_SORTED), "{dup:?}");
    }

    #[test]
    fn values_length_mismatch_is_chk0107() {
        let d = check_csr_parts("csr", 1, 3, &[0, 1], &[0], Some(&[]));
        assert!(d.iter().any(|d| d.code == codes::VALUES_LENGTH), "{d:?}");
    }

    #[test]
    fn nan_value_is_chk0108() {
        let d = check_csr_parts("csr", 1, 3, &[0, 1], &[0], Some(&[f32::NAN]));
        assert!(d.iter().any(|d| d.code == codes::VALUE_NONFINITE), "{d:?}");
    }

    #[test]
    fn coo_out_of_bounds_and_duplicates() {
        let d = check_coo_parts(
            "coo.entries",
            2,
            2,
            &[(0, 1, 1.0), (5, 0, 1.0), (0, 9, f32::INFINITY), (0, 1, 2.0)],
        );
        let codes_found = {
            let mut v: Vec<_> = d.iter().map(|d| d.code).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(
            codes_found,
            vec![
                codes::COO_ROW_BOUNDS,
                codes::COO_COL_BOUNDS,
                codes::COO_VALUE_NONFINITE,
                codes::COO_DUPLICATE
            ]
        );
    }
}
