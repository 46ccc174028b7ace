use crate::assemble::assemble;
use crate::{CooMatrix, Permutation, SparseError};

/// A sparse matrix in Compressed Sparse Row format.
///
/// The CSR format stores, per Algorithm 1 of the paper, three arrays:
/// `row_offsets` (length `n_rows + 1`), `col_indices` (the paper's
/// `A.coords`, length `nnz`), and `values` (length `nnz`). Column indices
/// within each row are kept **sorted and unique**; construction enforces
/// this (deduplicating by summing values when converting from COO).
///
/// # Example
///
/// ```
/// use commorder_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), commorder_sparse::SparseError> {
/// let m = CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: u32,
    n_cols: u32,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Constructs a CSR matrix after validating every structural invariant.
    ///
    /// # Errors
    ///
    /// * [`SparseError::InvalidOffsets`] — `row_offsets` has the wrong
    ///   length, is not monotonically non-decreasing, does not start at 0,
    ///   or its last entry differs from `col_indices.len()`.
    /// * [`SparseError::DimensionMismatch`] — `values.len() != col_indices.len()`.
    /// * [`SparseError::IndexOutOfBounds`] — a column index is `>= n_cols`.
    /// * [`SparseError::InvalidOffsets`] — a row's column indices are not
    ///   strictly increasing (unsorted or duplicate entries).
    pub fn new(
        n_rows: u32,
        n_cols: u32,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if row_offsets.len() != n_rows as usize + 1 {
            return Err(SparseError::InvalidOffsets {
                index: row_offsets.len(),
                value: row_offsets.len() as u64,
                message: format!(
                    "row_offsets.len() must be n_rows + 1 = {}",
                    n_rows as usize + 1
                ),
            });
        }
        if row_offsets[0] != 0 {
            return Err(SparseError::InvalidOffsets {
                index: 0,
                value: u64::from(row_offsets[0]),
                message: "row_offsets must start at 0".to_string(),
            });
        }
        if values.len() != col_indices.len() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("values.len() == col_indices.len() == {}", col_indices.len()),
                found: format!("values.len() == {}", values.len()),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "the length check above leaves row_offsets with n_rows + 1 >= 1 entries"
        )]
        let last = *row_offsets.last().expect("non-empty by construction");
        if last as usize != col_indices.len() {
            return Err(SparseError::InvalidOffsets {
                index: row_offsets.len() - 1,
                value: u64::from(last),
                message: format!("last offset must equal nnz = {}", col_indices.len()),
            });
        }
        for (i, w) in row_offsets.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(SparseError::InvalidOffsets {
                    index: i + 1,
                    value: u64::from(w[1]),
                    message: format!("offsets must be non-decreasing (previous was {})", w[0]),
                });
            }
        }
        for r in 0..n_rows as usize {
            let (lo, hi) = (row_offsets[r] as usize, row_offsets[r + 1] as usize);
            let row = &col_indices[lo..hi];
            for (k, &c) in row.iter().enumerate() {
                if c >= n_cols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c,
                        bound: n_cols,
                    });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidOffsets {
                        index: lo + k,
                        value: u64::from(c),
                        message: format!(
                            "row {r} columns must be strictly increasing (previous was {})",
                            row[k - 1]
                        ),
                    });
                }
            }
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_offsets,
            col_indices,
            values,
        })
    }

    /// An `n x n` matrix with no stored entries.
    #[must_use]
    pub fn empty(n: u32) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_offsets: vec![0; n as usize + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The symmetric pattern matrix of an undirected graph on `n`
    /// vertices: each edge `{u, v}` is stored in both triangles with value
    /// 1.0, self-loops are dropped and duplicate edges collapse. `replay`
    /// is called twice and must visit the same edges both times, so a
    /// generator can re-derive its edges instead of storing them.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] if a non-loop edge has an
    /// endpoint `>= n`; [`SparseError::TooLarge`] if the mirrored entries
    /// exceed `u32` offsets or cannot be allocated.
    pub fn from_undirected_edges(
        n: u32,
        replay: impl Fn(&mut dyn FnMut(u32, u32)),
    ) -> Result<Self, SparseError> {
        let undirected = |emit: &mut dyn FnMut(u32, u32, ())| {
            replay(&mut |u, v| {
                if u != v {
                    emit(u, v, ());
                    emit(v, u, ());
                }
            });
        };
        let (row_offsets, entries) = assemble(n, n, undirected, |(), ()| {})?;
        let col_indices: Vec<u32> = entries.into_iter().map(|(c, ())| c).collect();
        let values = vec![1.0; col_indices.len()];
        CsrMatrix::new(n, n, row_offsets, col_indices, values)
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The `row_offsets` array (length `n_rows + 1`).
    #[must_use]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// The column-index array (the paper's `A.coords`).
    #[must_use]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// The stored values.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[must_use]
    pub fn row(&self, r: u32) -> (&[u32], &[f32]) {
        let lo = self.row_offsets[r as usize] as usize;
        let hi = self.row_offsets[r as usize + 1] as usize;
        (&self.col_indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r` (the row's out-degree).
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[must_use]
    pub fn row_degree(&self, r: u32) -> u32 {
        self.row_offsets[r as usize + 1] - self.row_offsets[r as usize]
    }

    /// Out-degree of every row.
    #[must_use]
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.n_rows).map(|r| self.row_degree(r)).collect()
    }

    /// In-degree of every column (number of stored entries per column).
    ///
    /// The paper's degree-based techniques (DEGSORT, DBG, hub detection) use
    /// in-degrees: in SpMV the input vector `X` is indexed by column, so a
    /// column's in-degree is exactly how many times `X[col]` is read.
    #[must_use]
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_cols as usize];
        for &c in &self.col_indices {
            deg[c as usize] += 1;
        }
        deg
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// The transpose `Aᵀ` (CSR of the transpose, built by counting sort;
    /// `O(nnz + n)`).
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let n = self.n_cols as usize;
        let mut counts = vec![0u32; n + 1];
        for &c in &self.col_indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_offsets = counts.clone();
        let mut cursor = counts;
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize] as usize;
                col_indices[slot] = r;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows of the transpose come out sorted because we scan source rows
        // in increasing order.
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// `true` when the matrix is structurally and numerically symmetric.
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        self.col_indices == t.col_indices
            && self.row_offsets == t.row_offsets
            && self
                .values
                .iter()
                .zip(&t.values)
                .all(|(a, b)| (a - b).abs() <= f32::EPSILON * a.abs().max(b.abs()).max(1.0))
    }

    /// Checks that `perm` can relabel this matrix's rows and columns
    /// together: the matrix is square and `perm` has one entry per row.
    /// [`CsrMatrix::permute_symmetric`] and every reader that relabels
    /// on the fly instead share this check.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the matrix is not
    /// square or `perm.len() != n_rows`.
    pub fn check_symmetric_permutation(&self, perm: &Permutation) -> Result<(), SparseError> {
        if !self.is_square() {
            return Err(SparseError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{} x {}", self.n_rows, self.n_cols),
            });
        }
        if perm.len() != self.n_rows as usize {
            return Err(SparseError::DimensionMismatch {
                expected: format!("permutation of length {}", self.n_rows),
                found: format!("permutation of length {}", perm.len()),
            });
        }
        Ok(())
    }

    /// Relabels rows and columns with `perm` (vertex `v` becomes
    /// `perm.new_of(v)`), preserving the stored values.
    ///
    /// This is how every reordering technique in the paper is applied to a
    /// matrix before running a kernel on it.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the matrix is not
    /// square or `perm.len() != n_rows`.
    pub fn permute_symmetric(&self, perm: &Permutation) -> Result<CsrMatrix, SparseError> {
        self.check_symmetric_permutation(perm)?;
        let inv = perm.inverse();
        let n = self.n_rows as usize;
        let mut row_offsets = Vec::with_capacity(n + 1);
        row_offsets.push(0u32);
        let mut col_indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for new_r in 0..self.n_rows {
            let old_r = inv.new_of(new_r);
            let (cols, vals) = self.row(old_r);
            scratch.clear();
            scratch.extend(cols.iter().zip(vals).map(|(&c, &v)| (perm.new_of(c), v)));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_indices.push(c);
                values.push(v);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        Ok(CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_offsets,
            col_indices,
            values,
        })
    }

    /// Total footprint in bytes of the CSR arrays plus the SpMV input and
    /// output vectors — the paper's worst-case cache footprint discussion
    /// (§II) for an `n x n` matrix.
    #[must_use]
    pub fn spmv_footprint_bytes(&self) -> u64 {
        let n = self.n_rows as u64;
        let nnz = self.nnz() as u64;
        // X + Y + rowOffsets + coords + values
        (2 * n + (n + 1) + 2 * nnz) * crate::ELEM_BYTES
    }
}

impl TryFrom<CooMatrix> for CsrMatrix {
    type Error = SparseError;

    /// Converts from COO, sorting each row by column and **summing
    /// duplicates in input order**: the entries at one coordinate are
    /// added left to right as they appear in the COO, so an `f32` sum
    /// that depends on order (`1e8 + 1.0 - 1e8`) is reproducible.
    ///
    /// # Errors
    ///
    /// [`SparseError::TooLarge`] when the row offsets or entry buffer
    /// cannot be allocated (a hostile `u32::MAX`-row header returns this
    /// instead of aborting).
    fn try_from(coo: CooMatrix) -> Result<Self, SparseError> {
        let (n_rows, n_cols) = (coo.n_rows(), coo.n_cols());
        let entries = coo.into_entries();
        let replay = |emit: &mut dyn FnMut(u32, u32, f32)| {
            for &(r, c, v) in &entries {
                emit(r, c, v);
            }
        };
        let (row_offsets, merged) = assemble(n_rows, n_cols, replay, |sum, v| *sum += v)?;
        // Free the triples before splitting the merged pairs into two arrays.
        drop(entries);
        let (col_indices, values) = merged.into_iter().unzip();
        CsrMatrix::new(n_rows, n_cols, row_offsets, col_indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrMatrix {
        // 0-1, 1-0, 1-2, 2-1
        CsrMatrix::new(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1.0, 1.0, 1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_offsets_length() {
        let err = CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_validates_first_offset_zero() {
        let err = CsrMatrix::new(1, 2, vec![1, 1], vec![], vec![]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_validates_monotone_offsets() {
        let err = CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_validates_last_offset() {
        let err = CsrMatrix::new(1, 2, vec![0, 2], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_validates_column_bounds() {
        let err = CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(
            err,
            SparseError::IndexOutOfBounds { index: 5, bound: 2 }
        ));
    }

    #[test]
    fn new_rejects_unsorted_rows() {
        let err = CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_rejects_duplicate_columns() {
        let err = CsrMatrix::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidOffsets { .. }));
    }

    #[test]
    fn new_rejects_value_length_mismatch() {
        let err = CsrMatrix::new(1, 3, vec![0, 1], vec![1], vec![]).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(4);
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(3), (&[][..], &[][..]));
    }

    #[test]
    fn degrees() {
        let m = path3();
        assert_eq!(m.out_degrees(), vec![1, 2, 1]);
        assert_eq!(m.in_degrees(), vec![1, 2, 1]);
        assert_eq!(m.row_degree(1), 2);
    }

    #[test]
    fn iter_yields_row_major_triples() {
        let m = path3();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        );
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let m = path3();
        assert_eq!(m.transpose(), m);
        assert!(m.is_symmetric());
    }

    #[test]
    fn transpose_rectangular() {
        let m = CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        let triples: Vec<_> = t.iter().collect();
        assert_eq!(triples, vec![(0, 0, 1.0), (1, 1, 3.0), (2, 0, 2.0)]);
        assert!(!t.is_symmetric());
    }

    #[test]
    fn double_transpose_round_trips() {
        let m = path3();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn permute_symmetric_relabels_vertices() {
        let m = path3();
        // Swap vertices 0 and 2; path stays a path.
        let p = Permutation::from_new_ids(vec![2, 1, 0]).unwrap();
        let pm = m.permute_symmetric(&p).unwrap();
        assert_eq!(pm, m); // path 0-1-2 relabelled as 2-1-0 is the same CSR
                           // A non-trivial relabelling: rotate.
        let p = Permutation::from_new_ids(vec![1, 2, 0]).unwrap();
        let pm = m.permute_symmetric(&p).unwrap();
        // old edges (0,1),(1,2) -> new edges (1,2),(2,0)
        let triples: Vec<_> = pm.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(triples, vec![(0, 2), (1, 2), (2, 0), (2, 1)]);
        assert!(pm.is_symmetric());
    }

    #[test]
    fn permute_rejects_wrong_length() {
        let m = path3();
        let p = Permutation::identity(2);
        assert!(m.permute_symmetric(&p).is_err());
    }

    #[test]
    fn permute_rejects_rectangular() {
        let m = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(m.permute_symmetric(&Permutation::identity(1)).is_err());
    }

    #[test]
    fn permute_identity_is_noop() {
        let m = path3();
        let pm = m.permute_symmetric(&Permutation::identity(3)).unwrap();
        assert_eq!(pm, m);
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let coo = CooMatrix::from_entries(
            2,
            2,
            vec![(1, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (0, 0, 1.0)],
        )
        .unwrap();
        let csr = CsrMatrix::try_from(coo).unwrap();
        assert_eq!(csr.nnz(), 3);
        let triples: Vec<_> = csr.iter().collect();
        assert_eq!(triples, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0)]);
    }

    #[test]
    fn from_coo_sums_duplicates_in_input_order() {
        // In f32, 1e8 + 1.0 rounds back to 1e8, so the sum at (0, 0)
        // depends on the order its three entries are added in. Row 0 also
        // holds columns 1..1000 shuffled: long enough that an unstable row
        // sort would reorder the duplicates.
        let sum_at_origin = |dups: [f32; 3]| {
            let mut entries: Vec<_> = (1..1000).map(|c| (0, c * 37 % 1000, 2.0)).collect();
            for (i, v) in dups.into_iter().enumerate() {
                entries.insert(i * 333, (0, 0, v));
            }
            let coo = CooMatrix::from_entries(1, 1000, entries).unwrap();
            CsrMatrix::try_from(coo).unwrap().values()[0]
        };
        assert_eq!(sum_at_origin([1e8, 1.0, -1e8]), 0.0);
        assert_eq!(sum_at_origin([1e8, -1e8, 1.0]), 1.0);
    }

    #[test]
    fn from_coo_handles_empty_rows() {
        let coo = CooMatrix::from_entries(4, 4, vec![(3, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::try_from(coo).unwrap();
        assert_eq!(csr.row_offsets(), &[0, 0, 0, 0, 1]);
        assert_eq!(csr.row_degree(0), 0);
        assert_eq!(csr.row_degree(3), 1);
    }

    #[test]
    fn spmv_footprint_matches_formula() {
        let m = path3(); // n = 3, nnz = 4
        assert_eq!(m.spmv_footprint_bytes(), (2 * 3 + 4 + 2 * 4) * 4);
    }
}
