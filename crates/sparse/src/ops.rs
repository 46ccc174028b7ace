//! Structural operations on sparse matrices: symmetrization, self-loop
//! removal, sub-matrix masking, and connectivity helpers.
//!
//! Reordering techniques treat the matrix as an (undirected) graph, so
//! directed inputs are symmetrized first ([`symmetrize`], or
//! [`undirected`] where self-loops are dropped too), exactly as the
//! Rabbit Order and GOrder implementations do. Both materialize a
//! [`UnionRows`] view, which merges row `r` of `A ∪ Aᵀ` on demand and
//! builds no transpose when `a` is its own mirror ([`is_mirrored`]);
//! community detection reads the view without materializing it, and the
//! pattern-only reorderers read a mirrored `a` in place
//! ([`symmetric_pattern`]). [`mask_incident`] implements the paper's
//! insular-sub-matrix experiment (Fig. 6: "evaluated by masking all
//! non-zeros that do not connect to insular nodes").

use std::borrow::Cow;

use crate::{CsrMatrix, SparseError};

/// Returns the structural symmetrization `A ∪ Aᵀ` with values summed on
/// coincident entries (value of `(r, c)` becomes `a_rc + a_cr` where both
/// exist).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::TooLarge`] if the union exceeds `u32` entries.
pub fn symmetrize(a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    UnionRows::symmetrize(a)?.to_csr()
}

/// Returns the undirected simple graph of `a`: `A ∪ Aᵀ` with values summed
/// on coincident entries and the diagonal dropped. Equal to
/// `remove_self_loops(&symmetrize(a)?)`, built in one exact-size pass
/// instead of two copies.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::TooLarge`] if the union exceeds `u32` entries.
pub fn undirected(a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    UnionRows::undirected(a)?.to_csr()
}

/// The pattern of [`symmetrize`]`(a)` for readers of columns and
/// degrees only: `a` itself, borrowed, when it is its own mirror (see
/// [`is_mirrored`]), and the materialized union otherwise. The mirror
/// check is the one `symmetrize` runs anyway, so the borrowed path costs
/// one read-only pass and no copy. Values on the borrowed path are `a`'s
/// own, not the doubled sums `symmetrize` stores, so callers must not
/// read them.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::TooLarge`] if the union exceeds `u32` entries.
pub fn symmetric_pattern(a: &CsrMatrix) -> Result<Cow<'_, CsrMatrix>, SparseError> {
    let union = UnionRows::symmetrize(a)?;
    Ok(if union.is_mirrored() {
        Cow::Borrowed(a)
    } else {
        Cow::Owned(union.to_csr()?)
    })
}

/// `true` when the square matrix `a` equals its own transpose bit for
/// bit, diagonal aside: every off-diagonal `(r, c)` has a stored `(c, r)`
/// whose value has the same bits (so `0.0` does not mirror `-0.0`).
///
/// One read-only pass over the upper triangle. Rows are scanned in
/// ascending order, so the upper entries of column `c` arrive in the
/// order row `c` stores their mirrors below its diagonal; one cursor per
/// row walks that lower triangle once, and must have reached its end by
/// the time the scan gets to the row.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn is_mirrored(a: &CsrMatrix) -> Result<bool, SparseError> {
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{} x {}", a.n_rows(), a.n_cols()),
        });
    }
    let (offsets, cols, vals) = (a.row_offsets(), a.col_indices(), a.values());
    // `[next, end]` per row: its next unmatched entry, and its end.
    let mut cursor: Vec<[u32; 2]> = offsets.windows(2).map(|w| [w[0], w[1]]).collect();
    for r in 0..a.n_rows() {
        let (lo, hi) = (
            offsets[r as usize] as usize,
            offsets[r as usize + 1] as usize,
        );
        let diagonal = lo + cols[lo..hi].partition_point(|&c| c < r);
        if cursor[r as usize][0] as usize != diagonal {
            return Ok(false); // an entry below the diagonal has no mirror
        }
        let upper = diagonal + usize::from(diagonal < hi && cols[diagonal] == r);
        for k in upper..hi {
            let [p, end] = &mut cursor[cols[k] as usize];
            let q = *p as usize;
            if *p == *end || cols[q] != r || vals[q].to_bits() != vals[k].to_bits() {
                return Ok(false);
            }
            *p += 1;
        }
    }
    Ok(true)
}

/// `A ∪ Aᵀ` read one row at a time, optionally without the diagonal:
/// row `r` is the merge of the sorted `a.row(r)` with row `r` of `Aᵀ`,
/// values summed where both hold an entry. A mirrored `a` (see
/// [`is_mirrored`]) is its own transpose, so the view then builds
/// nothing and reads `a` alone; otherwise it holds `Aᵀ`.
#[derive(Debug)]
pub struct UnionRows<'a> {
    a: &'a CsrMatrix,
    /// `None` when `a` is mirrored.
    transpose: Option<CsrMatrix>,
    keep_diagonal: bool,
}

impl<'a> UnionRows<'a> {
    /// The rows of [`symmetrize`]`(a)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
    pub fn symmetrize(a: &'a CsrMatrix) -> Result<Self, SparseError> {
        Self::new(a, true)
    }

    /// The rows of [`undirected`]`(a)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
    pub fn undirected(a: &'a CsrMatrix) -> Result<Self, SparseError> {
        Self::new(a, false)
    }

    fn new(a: &'a CsrMatrix, keep_diagonal: bool) -> Result<Self, SparseError> {
        let transpose = (!is_mirrored(a)?).then(|| a.transpose());
        Ok(UnionRows {
            a,
            transpose,
            keep_diagonal,
        })
    }

    /// Number of rows (and columns).
    #[must_use]
    pub fn n(&self) -> u32 {
        self.a.n_rows()
    }

    /// `true` when the view reads `a` alone, building no transpose.
    #[must_use]
    pub fn is_mirrored(&self) -> bool {
        self.transpose.is_none()
    }

    /// Calls `on_entry(col, value)` for every entry of row `r`, in
    /// ascending column order.
    #[inline]
    pub fn for_each_in_row(&self, r: u32, mut on_entry: impl FnMut(u32, f32)) {
        let keep_diagonal = self.keep_diagonal;
        let mut on_kept = |c: u32, v: f32| {
            if keep_diagonal || c != r {
                on_entry(c, v);
            }
        };
        let row = self.a.row(r);
        match &self.transpose {
            // Merging a row with itself pairs every entry with its own
            // bits, so the merge is the row with each value added to
            // itself. Skipping the general merge here cut detection's
            // first sweep by 10-20% on `mega-soc-rmat-1m` (2-vCPU Xeon).
            None => row
                .0
                .iter()
                .zip(row.1)
                .for_each(|(&c, &v)| on_kept(c, v + v)),
            Some(t) => merge_row(row, t.row(r), on_kept),
        }
    }

    /// The view as a CSR matrix: one pass counts each row, a second fills
    /// arrays allocated at their exact size. Fails with
    /// [`SparseError::TooLarge`] if the union exceeds `u32` entries.
    fn to_csr(&self) -> Result<CsrMatrix, SparseError> {
        let n = self.n();
        let mut row_offsets = Vec::with_capacity(n as usize + 1);
        row_offsets.push(0u32);
        let too_large =
            || SparseError::TooLarge(format!("A ∪ Aᵀ of a {n} x {n} matrix exceeds u32 entries"));
        let mut nnz = 0u32;
        for r in 0..n {
            let mut len = 0u32;
            self.for_each_in_row(r, |_, _| len += 1);
            nnz = nnz.checked_add(len).ok_or_else(too_large)?;
            row_offsets.push(nnz);
        }
        let mut col_indices = Vec::with_capacity(nnz as usize);
        let mut values = Vec::with_capacity(nnz as usize);
        for r in 0..n {
            self.for_each_in_row(r, |c, v| {
                col_indices.push(c);
                values.push(v);
            });
        }
        CsrMatrix::new(n, n, row_offsets, col_indices, values)
    }
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
#[expect(
    clippy::expect_used,
    reason = "dropping entries from a valid CSR keeps its offsets monotone and its columns in bounds"
)]
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
    fn symmetric_pattern_borrows_a_mirror_and_copies_otherwise() {
        let pattern = |m: &CsrMatrix| m.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>();
        // A mirrored input, diagonal included, comes back as itself.
        let mirror = symmetrize(&directed_sample()).unwrap();
        match symmetric_pattern(&mirror).unwrap() {
            Cow::Borrowed(m) => assert!(std::ptr::eq(m, &mirror)),
            Cow::Owned(_) => panic!("a mirrored input must not be copied"),
        }
        // Otherwise it is `symmetrize`'s pattern.
        let directed = directed_sample();
        let copied = symmetric_pattern(&directed).unwrap();
        assert!(matches!(copied, Cow::Owned(_)));
        assert_eq!(pattern(&copied), pattern(&symmetrize(&directed).unwrap()));
        // Equal values with different bits are not a mirror.
        let signed = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.0, -0.0]).unwrap();
        assert!(matches!(symmetric_pattern(&signed).unwrap(), Cow::Owned(_)));
        assert!(
            symmetric_pattern(&CsrMatrix::new(1, 2, vec![0, 0], vec![], vec![]).unwrap()).is_err()
        );
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

    /// 0 - 1 - 2 as a mirrored matrix with a diagonal entry at 1.
    fn mirrored_path() -> CsrMatrix {
        CsrMatrix::new(
            3,
            3,
            vec![0, 1, 4, 5],
            vec![1, 0, 1, 2, 1],
            vec![0.5, 0.5, 7.0, 0.25, 0.25],
        )
        .unwrap()
    }

    /// `mirrored_path` with entry `k` given `value`, or dropped for `None`.
    fn edit(k: usize, value: Option<f32>) -> CsrMatrix {
        let m = mirrored_path();
        let mut cols = m.col_indices().to_vec();
        let mut vals = m.values().to_vec();
        let mut offsets = m.row_offsets().to_vec();
        match value {
            Some(v) => vals[k] = v,
            None => {
                cols.remove(k);
                vals.remove(k);
                for o in offsets.iter_mut().filter(|o| **o as usize > k) {
                    *o -= 1;
                }
            }
        }
        CsrMatrix::new(3, 3, offsets, cols, vals).unwrap()
    }

    #[test]
    fn mirrored_matrix_is_read_without_a_transpose() {
        let m = mirrored_path();
        assert_eq!(is_mirrored(&m), Ok(true));
        let view = UnionRows::undirected(&m).unwrap();
        assert!(
            view.is_mirrored(),
            "the view must read `a` alone, without a transpose"
        );
        let mut row = Vec::new();
        view.for_each_in_row(1, |c, v| row.push((c, v)));
        assert_eq!(row, vec![(0, 1.0), (2, 0.5)]);
        let s = symmetrize(&m).unwrap();
        assert_eq!(s.row(1).1, &[1.0, 14.0, 0.5]);
    }

    #[test]
    fn mirror_check_rejects_a_missing_reverse_entry_in_the_last_row() {
        let m = edit(4, None);
        assert_eq!(is_mirrored(&m), Ok(false));
        assert!(!UnionRows::symmetrize(&m).unwrap().is_mirrored());
        let s = symmetrize(&m).unwrap();
        assert_eq!(s.row(2), (&[1u32][..], &[0.25f32][..]));
    }

    #[test]
    fn mirror_check_compares_bits_across_the_diagonal() {
        assert_eq!(is_mirrored(&edit(3, Some(0.5))), Ok(false));
        let zeros = {
            let m = edit(3, Some(0.0));
            let mut vals = m.values().to_vec();
            vals[4] = -0.0;
            CsrMatrix::new(
                3,
                3,
                m.row_offsets().to_vec(),
                m.col_indices().to_vec(),
                vals,
            )
            .unwrap()
        };
        assert_eq!(is_mirrored(&zeros), Ok(false));
        // 0.0 + -0.0 is 0.0 in both rows, where a mirror read would give -0.0.
        let s = symmetrize(&zeros).unwrap();
        assert_eq!(s.row(2).1[0].to_bits(), 0.0f32.to_bits());
        // The diagonal is its own mirror, whatever its value.
        assert_eq!(is_mirrored(&edit(2, Some(-3.0))), Ok(true));
    }

    #[test]
    fn diagonal_only_and_empty_matrices_are_mirrored() {
        let diag = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert_eq!(is_mirrored(&diag), Ok(true));
        assert_eq!(undirected(&diag).unwrap(), CsrMatrix::empty(2));
        assert_eq!(is_mirrored(&CsrMatrix::empty(0)), Ok(true));
        assert_eq!(is_mirrored(&CsrMatrix::empty(3)), Ok(true));
    }

    #[test]
    fn mirror_check_rejects_rectangular() {
        let m = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(matches!(
            is_mirrored(&m),
            Err(SparseError::DimensionMismatch { .. })
        ));
        assert!(UnionRows::undirected(&m).is_err());
    }

    #[test]
    fn remove_self_loops_drops_diagonal() {
        let clean = remove_self_loops(&directed_sample());
        assert_eq!(clean.nnz(), 2);
        assert!(clean.iter().all(|(r, c, _)| r != c));
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
