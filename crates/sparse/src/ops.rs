//! Structural operations on sparse matrices: symmetrization, self-loop
//! removal, sub-matrix masking, and connectivity helpers.
//!
//! Reordering techniques treat the matrix as an (undirected) graph, so
//! directed inputs are symmetrized first ([`symmetrize`], or
//! [`undirected`] where self-loops are dropped too), exactly as the
//! Rabbit Order and GOrder implementations do. [`mask_incident`] /
//! [`mask_rows`] implement the paper's insular-sub-matrix experiment
//! (Fig. 6: "evaluated by masking all non-zeros that do not connect to
//! insular nodes").

use crate::{CsrMatrix, SparseError};

/// Returns the structural symmetrization `A ∪ Aᵀ` with values summed on
/// coincident entries (value of `(r, c)` becomes `a_rc + a_cr` where both
/// exist).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn symmetrize(a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    union_with_transpose(a, true)
}

/// Returns the undirected simple graph of `a`: `A ∪ Aᵀ` with values summed
/// on coincident entries and the diagonal dropped. Equal to
/// `remove_self_loops(&symmetrize(a)?)`, built in one exact-size pass
/// instead of two copies.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn undirected(a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    union_with_transpose(a, false)
}

/// `A ∪ Aᵀ`, optionally without the diagonal. Rows are linear merges of
/// the sorted rows of `a` and its transpose: one pass counts each output
/// row, a second fills arrays allocated at their exact size.
fn union_with_transpose(a: &CsrMatrix, keep_diagonal: bool) -> Result<CsrMatrix, SparseError> {
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{} x {}", a.n_rows(), a.n_cols()),
        });
    }
    let t = a.transpose();
    let n = a.n_rows();
    let mut row_offsets = Vec::with_capacity(n as usize + 1);
    row_offsets.push(0u32);
    let too_large =
        || SparseError::TooLarge(format!("A ∪ Aᵀ of a {n} x {n} matrix exceeds u32 entries"));
    let mut nnz = 0u32;
    for r in 0..n {
        let mut len = 0u32;
        merge_row(a.row(r), t.row(r), |c, _| {
            if keep_diagonal || c != r {
                len += 1;
            }
        });
        nnz = nnz.checked_add(len).ok_or_else(too_large)?;
        row_offsets.push(nnz);
    }
    let mut col_indices = Vec::with_capacity(nnz as usize);
    let mut values = Vec::with_capacity(nnz as usize);
    for r in 0..n {
        merge_row(a.row(r), t.row(r), |c, v| {
            if keep_diagonal || c != r {
                col_indices.push(c);
                values.push(v);
            }
        });
    }
    CsrMatrix::new(n, n, row_offsets, col_indices, values)
}

/// Calls `on_entry(col, value)` for every column of the sorted union of two
/// sorted rows, in ascending column order, summing values that share a
/// column.
fn merge_row(
    (ac, av): (&[u32], &[f32]),
    (bc, bv): (&[u32], &[f32]),
    mut on_entry: impl FnMut(u32, f32),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < ac.len() || j < bc.len() {
        let take_a = j >= bc.len() || (i < ac.len() && ac[i] <= bc[j]);
        let take_b = i >= ac.len() || (j < bc.len() && bc[j] <= ac[i]);
        if take_a && take_b && ac[i] == bc[j] {
            on_entry(ac[i], av[i] + bv[j]);
            i += 1;
            j += 1;
        } else if take_a {
            on_entry(ac[i], av[i]);
            i += 1;
        } else {
            on_entry(bc[j], bv[j]);
            j += 1;
        }
    }
}

/// Returns a copy of `a` with all diagonal entries removed.
///
/// Community detection treats self-loops specially (they inflate a vertex's
/// internal weight); the reordering techniques drop them up front, like the
/// reference Rabbit Order implementation.
#[must_use]
pub fn remove_self_loops(a: &CsrMatrix) -> CsrMatrix {
    let mut row_offsets = Vec::with_capacity(a.n_rows() as usize + 1);
    row_offsets.push(0u32);
    let mut col_indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for r in 0..a.n_rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if c != r {
                col_indices.push(c);
                values.push(v);
            }
        }
        row_offsets.push(col_indices.len() as u32);
    }
    CsrMatrix::new(a.n_rows(), a.n_cols(), row_offsets, col_indices, values)
        .expect("filtering preserves CSR invariants")
}

/// Keeps only the entries whose **row** is marked in `keep`; other rows
/// become empty (dimensions unchanged).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `keep.len() != n_rows`.
pub fn mask_rows(a: &CsrMatrix, keep: &[bool]) -> Result<CsrMatrix, SparseError> {
    if keep.len() != a.n_rows() as usize {
        return Err(SparseError::DimensionMismatch {
            expected: format!("keep.len() == n_rows == {}", a.n_rows()),
            found: format!("keep.len() == {}", keep.len()),
        });
    }
    let mut row_offsets = Vec::with_capacity(a.n_rows() as usize + 1);
    row_offsets.push(0u32);
    let mut col_indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for r in 0..a.n_rows() {
        if keep[r as usize] {
            let (cols, vals) = a.row(r);
            col_indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
        }
        row_offsets.push(col_indices.len() as u32);
    }
    CsrMatrix::new(a.n_rows(), a.n_cols(), row_offsets, col_indices, values)
}

/// Keeps only entries `(r, c)` where `r` **or** `c` is marked in `keep`
/// (the paper's "non-zeros that connect to insular nodes", Fig. 6).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `keep.len()` does not
/// match the (square) dimension.
pub fn mask_incident(a: &CsrMatrix, keep: &[bool]) -> Result<CsrMatrix, SparseError> {
    if !a.is_square() || keep.len() != a.n_rows() as usize {
        return Err(SparseError::DimensionMismatch {
            expected: format!("square matrix with keep.len() == {}", a.n_rows()),
            found: format!(
                "{} x {}, keep.len() == {}",
                a.n_rows(),
                a.n_cols(),
                keep.len()
            ),
        });
    }
    let mut row_offsets = Vec::with_capacity(a.n_rows() as usize + 1);
    row_offsets.push(0u32);
    let mut col_indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for r in 0..a.n_rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if keep[r as usize] || keep[c as usize] {
                col_indices.push(c);
                values.push(v);
            }
        }
        row_offsets.push(col_indices.len() as u32);
    }
    CsrMatrix::new(a.n_rows(), a.n_cols(), row_offsets, col_indices, values)
}

/// Connected components of the undirected graph underlying `a`
/// (edges taken as `A ∪ Aᵀ`). Returns `(component_id_per_vertex,
/// component_count)`.
///
/// Used by RCM (one BFS per component) and by generator sanity tests.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn connected_components(a: &CsrMatrix) -> Result<(Vec<u32>, u32), SparseError> {
    let sym = symmetrize(a)?;
    let n = sym.n_rows();
    let mut comp = vec![u32::MAX; n as usize];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let (cols, _) = sym.row(v);
            for &c in cols {
                if comp[c as usize] == u32::MAX {
                    comp[c as usize] = next;
                    queue.push_back(c);
                }
            }
        }
        next += 1;
    }
    Ok((comp, next))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directed_sample() -> CsrMatrix {
        // 0 -> 1, 2 -> 1 (directed), self loop at 2.
        CsrMatrix::new(3, 3, vec![0, 1, 1, 3], vec![1, 1, 2], vec![1.0, 1.0, 9.0]).unwrap()
    }

    #[test]
    fn symmetrize_unions_pattern() {
        let s = symmetrize(&directed_sample()).unwrap();
        assert!(s.is_symmetric());
        let coords: Vec<_> = s.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]);
        // Self loop value doubles under A + Aᵀ.
        let (_, vals) = s.row(2);
        assert_eq!(vals, &[1.0, 18.0]);
    }

    #[test]
    fn symmetrize_is_idempotent_on_pattern() {
        let s = symmetrize(&directed_sample()).unwrap();
        let s2 = symmetrize(&s).unwrap();
        assert_eq!(
            s.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>(),
            s2.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn symmetrize_rejects_rectangular() {
        let m = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(symmetrize(&m).is_err());
    }

    #[test]
    fn undirected_is_symmetrize_without_self_loops() {
        let a = directed_sample();
        let u = undirected(&a).unwrap();
        assert_eq!(u, remove_self_loops(&symmetrize(&a).unwrap()));
        assert_eq!(u.nnz(), 4);
        assert!(undirected(&CsrMatrix::new(1, 2, vec![0, 0], vec![], vec![]).unwrap()).is_err());
    }

    #[test]
    fn remove_self_loops_drops_diagonal() {
        let clean = remove_self_loops(&directed_sample());
        assert_eq!(clean.nnz(), 2);
        assert!(clean.iter().all(|(r, c, _)| r != c));
    }

    #[test]
    fn mask_rows_keeps_only_marked() {
        let a = directed_sample();
        let m = mask_rows(&a, &[true, false, false]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.iter().next(), Some((0, 1, 1.0)));
        assert!(mask_rows(&a, &[true]).is_err());
    }

    #[test]
    fn mask_incident_keeps_touching_entries() {
        let a = symmetrize(&remove_self_loops(&directed_sample())).unwrap();
        // Keep node 0: edges (0,1) and (1,0) touch it.
        let m = mask_incident(&a, &[true, false, false]).unwrap();
        let coords: Vec<_> = m.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn connected_components_counts() {
        // Two components: {0,1} and {2}.
        let a = CsrMatrix::new(3, 3, vec![0, 1, 2, 2], vec![1, 0], vec![1.0, 1.0]).unwrap();
        let (comp, count) = connected_components(&a).unwrap();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn connected_components_uses_undirected_edges() {
        // Directed 0 -> 1 only still connects them.
        let a = CsrMatrix::new(2, 2, vec![0, 1, 1], vec![1], vec![1.0]).unwrap();
        let (comp, count) = connected_components(&a).unwrap();
        assert_eq!(count, 1);
        assert_eq!(comp, vec![0, 0]);
    }
}
