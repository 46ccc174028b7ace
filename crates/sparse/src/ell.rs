use crate::{CsrMatrix, SparseError};

/// Padding marker for absent entries in ELL storage.
pub const ELL_PAD: u32 = u32::MAX;

/// A sparse matrix in ELLPACK (ELL) format.
///
/// Every row is padded to the length of the longest row (`width`), and
/// entries are stored **column-major** (`slot * n_rows + row`) so that
/// consecutive GPU threads processing consecutive rows access
/// consecutive memory — the classic GPU sparse format. The cost is
/// padding: for skewed matrices `width` can dwarf the average degree and
/// the padded footprint explodes, which is exactly why the format study
/// pairs it with reordering experiments.
///
/// # Example
///
/// ```
/// use commorder_sparse::{CsrMatrix, EllMatrix};
///
/// # fn main() -> Result<(), commorder_sparse::SparseError> {
/// let csr = CsrMatrix::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0])?;
/// let ell = EllMatrix::from_csr(&csr)?;
/// assert_eq!(ell.width(), 2);
/// assert_eq!(ell.padded_len(), 4); // 2 rows x width 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    n_rows: u32,
    n_cols: u32,
    width: u32,
    /// Column indices, column-major, `ELL_PAD` marks padding.
    cols: Vec<u32>,
    /// Values, column-major, 0.0 in padded slots.
    values: Vec<f32>,
}

impl EllMatrix {
    /// Converts from CSR, padding every row to the maximum row length.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::TooLarge`] if the padded size
    /// (`n_rows * width`) exceeds `u32` indexing — the ELL failure mode
    /// for skewed matrices.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self, SparseError> {
        let width = (0..csr.n_rows())
            .map(|r| csr.row_degree(r))
            .max()
            .unwrap_or(0);
        let padded = u64::from(csr.n_rows()) * u64::from(width);
        if padded > u64::from(u32::MAX) {
            return Err(SparseError::TooLarge(format!(
                "ELL padding {} x {} exceeds u32 indexing",
                csr.n_rows(),
                width
            )));
        }
        let n = csr.n_rows() as usize;
        let mut cols = vec![ELL_PAD; padded as usize];
        let mut values = vec![0f32; padded as usize];
        for r in 0..csr.n_rows() {
            let (row_cols, row_vals) = csr.row(r);
            for (k, (&c, &v)) in row_cols.iter().zip(row_vals).enumerate() {
                cols[k * n + r as usize] = c;
                values[k * n + r as usize] = v;
            }
        }
        Ok(EllMatrix {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            width,
            cols,
            values,
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

    /// Padded row width (maximum row length).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total padded slots (`n_rows * width`), the storage actually moved.
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.cols.len()
    }

    /// Padding overhead: padded slots / stored non-zeros (1.0 = no
    /// waste). Returns 1.0 for an empty matrix.
    #[must_use]
    pub fn padding_factor(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            1.0
        } else {
            self.padded_len() as f64 / nnz as f64
        }
    }

    /// Column index at `(slot, row)` (`ELL_PAD` for padding).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= width` or `row >= n_rows`.
    #[must_use]
    pub fn col_at(&self, slot: u32, row: u32) -> u32 {
        assert!(slot < self.width && row < self.n_rows);
        self.cols[slot as usize * self.n_rows as usize + row as usize]
    }

    /// SpMV on the ELL storage: `y = A * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != n_cols`.
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>, SparseError> {
        if x.len() != self.n_cols as usize {
            return Err(SparseError::DimensionMismatch {
                expected: format!("x.len() == n_cols == {}", self.n_cols),
                found: format!("x.len() == {}", x.len()),
            });
        }
        let n = self.n_rows as usize;
        let mut y = vec![0f32; n];
        for slot in 0..self.width as usize {
            let cols = &self.cols[slot * n..(slot + 1) * n];
            let vals = &self.values[slot * n..(slot + 1) * n];
            for ((acc, &c), &v) in y.iter_mut().zip(cols).zip(vals) {
                if c != ELL_PAD {
                    *acc += v * x[c as usize];
                }
            }
        }
        Ok(y)
    }
}

impl TryFrom<&CsrMatrix> for EllMatrix {
    type Error = SparseError;

    fn try_from(csr: &CsrMatrix) -> Result<Self, SparseError> {
        EllMatrix::from_csr(csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::spmv_csr;

    fn sample() -> CsrMatrix {
        // Rows of length 2, 1, 3, 0.
        CsrMatrix::new(
            4,
            4,
            vec![0, 2, 3, 6, 6],
            vec![0, 2, 1, 0, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn from_csr_pads_to_max_row() {
        let ell = EllMatrix::from_csr(&sample()).unwrap();
        assert_eq!(ell.width(), 3);
        assert_eq!(ell.padded_len(), 12);
        assert!((ell.padding_factor(6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn column_major_layout() {
        let ell = EllMatrix::from_csr(&sample()).unwrap();
        // Slot 0 holds each row's first entry.
        assert_eq!(ell.col_at(0, 0), 0);
        assert_eq!(ell.col_at(0, 1), 1);
        assert_eq!(ell.col_at(0, 2), 0);
        assert_eq!(ell.col_at(0, 3), ELL_PAD);
        // Slot 2 only row 2 has a third entry.
        assert_eq!(ell.col_at(2, 2), 3);
        assert_eq!(ell.col_at(2, 0), ELL_PAD);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = sample();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(ell.spmv(&x).unwrap(), spmv_csr(&csr, &x).unwrap());
    }

    #[test]
    fn spmv_rejects_bad_x() {
        let ell = EllMatrix::from_csr(&sample()).unwrap();
        assert!(ell.spmv(&[1.0]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let ell = EllMatrix::from_csr(&CsrMatrix::empty(3)).unwrap();
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.padded_len(), 0);
        assert_eq!(ell.spmv(&[0.0; 3]).unwrap(), vec![0.0; 3]);
        assert_eq!(ell.padding_factor(0), 1.0);
    }

    #[test]
    fn skewed_matrix_pads_badly() {
        // Star: hub row of degree 99, leaves of degree 1.
        let csr = CsrMatrix::from_undirected_edges(100, |visit| (1..100).for_each(|v| visit(0, v)))
            .unwrap();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 99);
        // 100 rows x width 99 vs 198 nnz: ~50x padding waste.
        assert!(ell.padding_factor(csr.nnz()) > 40.0);
    }
}
