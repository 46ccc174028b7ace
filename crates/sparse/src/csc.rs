use crate::{CsrMatrix, SparseError};

/// A sparse matrix in Compressed Sparse Column format.
///
/// CSC is the column-major dual of [`CsrMatrix`]: `col_offsets` has length
/// `n_cols + 1` and `row_indices`/`values` hold the entries of each column
/// with row indices strictly increasing. It is used where column-wise
/// traversal is natural (in-neighbour scans in GORDER, pull-style kernels).
///
/// # Example
///
/// ```
/// use commorder_sparse::{CscMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), commorder_sparse::SparseError> {
/// let csr = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![5.0, 7.0])?;
/// let csc = CscMatrix::from(&csr);
/// assert_eq!(csc.col(0), (&[1u32][..], &[7.0f32][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: u32,
    n_cols: u32,
    col_offsets: Vec<u32>,
    row_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Constructs a CSC matrix after validating structural invariants
    /// (mirror of [`CsrMatrix::new`]).
    ///
    /// # Errors
    ///
    /// See [`CsrMatrix::new`]; identical checks with rows and columns
    /// exchanged.
    pub fn new(
        n_rows: u32,
        n_cols: u32,
        col_offsets: Vec<u32>,
        row_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        // Validate by constructing the transposed CSR with the same arrays.
        let as_csr = CsrMatrix::new(n_cols, n_rows, col_offsets, row_indices, values)?;
        let (n_rows_chk, n_cols_chk) = (as_csr.n_cols(), as_csr.n_rows());
        debug_assert_eq!((n_rows_chk, n_cols_chk), (n_rows, n_cols));
        Ok(CscMatrix {
            n_rows,
            n_cols,
            col_offsets: as_csr.row_offsets().to_vec(),
            row_indices: as_csr.col_indices().to_vec(),
            values: as_csr.values().to_vec(),
        })
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

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_indices.len()
    }

    /// The `col_offsets` array (length `n_cols + 1`).
    #[must_use]
    pub fn col_offsets(&self) -> &[u32] {
        &self.col_offsets
    }

    /// The row-index array.
    #[must_use]
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// The stored values.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row indices and values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= n_cols`.
    #[must_use]
    pub fn col(&self, c: u32) -> (&[u32], &[f32]) {
        let lo = self.col_offsets[c as usize] as usize;
        let hi = self.col_offsets[c as usize + 1] as usize;
        (&self.row_indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `c` (the column's in-degree).
    ///
    /// # Panics
    ///
    /// Panics if `c >= n_cols`.
    #[must_use]
    pub fn col_degree(&self, c: u32) -> u32 {
        self.col_offsets[c as usize + 1] - self.col_offsets[c as usize]
    }

    /// Converts back to CSR (`O(nnz + n)`).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "CSC arrays are the CSR arrays of the transpose, and both constructors take them from a validated CSR"
    )]
    pub fn to_csr(&self) -> CsrMatrix {
        // CSC of A has the same arrays as CSR of Aᵀ; transposing that CSR
        // yields CSR of A.
        CsrMatrix::new(
            self.n_cols,
            self.n_rows,
            self.col_offsets.clone(),
            self.row_indices.clone(),
            self.values.clone(),
        )
        .expect("internal arrays are valid by construction")
        .transpose()
    }
}

impl From<&CsrMatrix> for CscMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let t = csr.transpose();
        CscMatrix {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            col_offsets: t.row_offsets().to_vec(),
            row_indices: t.col_indices().to_vec(),
            values: t.values().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 2, 0],
        //  [0, 0, 3]]
        CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 1, 2], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn from_csr_builds_column_view() {
        let csc = CscMatrix::from(&sample());
        assert_eq!(csc.n_rows(), 2);
        assert_eq!(csc.n_cols(), 3);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.col(0), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(csc.col(1), (&[0u32][..], &[2.0f32][..]));
        assert_eq!(csc.col(2), (&[1u32][..], &[3.0f32][..]));
        assert_eq!(csc.col_degree(2), 1);
    }

    #[test]
    fn csc_round_trips_to_csr() {
        let csr = sample();
        let csc = CscMatrix::from(&csr);
        assert_eq!(csc.to_csr(), csr);
    }

    #[test]
    fn new_validates() {
        // Offsets wrong length for 2 columns.
        assert!(CscMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Row index out of bounds.
        assert!(CscMatrix::new(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Good.
        assert!(CscMatrix::new(2, 1, vec![0, 1], vec![1], vec![1.0]).is_ok());
    }
}
