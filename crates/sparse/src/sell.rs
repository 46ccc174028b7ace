use crate::ell::ELL_PAD;
use crate::{CsrMatrix, SparseError};

/// A sparse matrix in SELL-C-σ (Sliced ELLPACK) format.
///
/// Rows are grouped into *slices* of `c` rows; within every window of
/// `sigma` rows, rows are sorted by decreasing length before slicing, so
/// each slice is padded only to its **own** longest row. Storage inside
/// a slice is column-major (like ELL), giving GPU-friendly coalescing
/// with far less padding than plain ELL on irregular matrices.
///
/// The σ-sort is itself a *local row reordering* — SELL-C-σ and the
/// paper's reordering techniques are therefore complementary: global
/// techniques (RABBIT++) fix the X-vector locality, σ-sorting fixes the
/// intra-slice padding. The format study experiment quantifies both.
///
/// Row order is tracked internally; [`SellMatrix::spmv`] returns `y` in
/// the *original* row order.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    n_rows: u32,
    n_cols: u32,
    c: u32,
    sigma: u32,
    /// Per-slice starting offset into `cols`/`values` (length
    /// `n_slices + 1`).
    slice_offsets: Vec<u32>,
    /// Per-slice width (longest row in the slice).
    slice_widths: Vec<u32>,
    /// `sorted_rows[k]` = original row stored at sorted position `k`.
    sorted_rows: Vec<u32>,
    /// Column indices, column-major within each slice; `ELL_PAD` pads.
    cols: Vec<u32>,
    values: Vec<f32>,
}

impl SellMatrix {
    /// Builds SELL-C-σ storage from CSR.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `c == 0` or
    /// `sigma < c`, and [`SparseError::TooLarge`] if the padded storage
    /// exceeds `u32` indexing.
    pub fn from_csr(csr: &CsrMatrix, c: u32, sigma: u32) -> Result<Self, SparseError> {
        if c == 0 || sigma < c {
            return Err(SparseError::DimensionMismatch {
                expected: "c >= 1 and sigma >= c".to_string(),
                found: format!("c = {c}, sigma = {sigma}"),
            });
        }
        let n = csr.n_rows();
        // Sort rows by decreasing length within each sigma window.
        let mut sorted_rows: Vec<u32> = (0..n).collect();
        for window in sorted_rows.chunks_mut(sigma as usize) {
            window.sort_by_key(|&r| std::cmp::Reverse(csr.row_degree(r)));
        }
        // Slice the sorted row list into chunks of c.
        let n_slices = (n as usize).div_ceil(c as usize);
        let mut slice_offsets = Vec::with_capacity(n_slices + 1);
        let mut slice_widths = Vec::with_capacity(n_slices);
        slice_offsets.push(0u32);
        let mut total: u64 = 0;
        for slice in sorted_rows.chunks(c as usize) {
            let width = slice.iter().map(|&r| csr.row_degree(r)).max().unwrap_or(0);
            slice_widths.push(width);
            total += u64::from(width) * c as u64;
            if total > u64::from(u32::MAX) {
                return Err(SparseError::TooLarge(format!(
                    "SELL-{c}-{sigma} padded storage exceeds u32 indexing"
                )));
            }
            slice_offsets.push(total as u32);
        }
        let mut cols = vec![ELL_PAD; total as usize];
        let mut values = vec![0f32; total as usize];
        for (s, slice) in sorted_rows.chunks(c as usize).enumerate() {
            let base = slice_offsets[s] as usize;
            for (lane, &r) in slice.iter().enumerate() {
                let (row_cols, row_vals) = csr.row(r);
                for (k, (&col, &v)) in row_cols.iter().zip(row_vals).enumerate() {
                    // Column-major within the slice: slot k, lane `lane`.
                    let idx = base + k * c as usize + lane;
                    cols[idx] = col;
                    values[idx] = v;
                }
            }
        }
        Ok(SellMatrix {
            n_rows: n,
            n_cols: csr.n_cols(),
            c,
            sigma,
            slice_offsets,
            slice_widths,
            sorted_rows,
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

    /// Slice height `C`.
    #[must_use]
    pub fn c(&self) -> u32 {
        self.c
    }

    /// Sorting window `σ`.
    #[must_use]
    pub fn sigma(&self) -> u32 {
        self.sigma
    }

    /// Number of slices.
    #[must_use]
    pub fn n_slices(&self) -> usize {
        self.slice_widths.len()
    }

    /// Width of slice `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_slices()`.
    #[must_use]
    pub fn slice_width(&self, s: usize) -> u32 {
        self.slice_widths[s]
    }

    /// The original row stored at sorted position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k as usize >= n_rows`.
    #[must_use]
    pub fn original_row(&self, k: u32) -> u32 {
        self.sorted_rows[k as usize]
    }

    /// Column stored at `(slice, slot, lane)`; `None` for padding.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the slice geometry.
    #[must_use]
    pub fn col_at(&self, slice: usize, slot: u32, lane: u32) -> Option<u32> {
        assert!(slice < self.n_slices(), "slice out of range");
        assert!(slot < self.slice_widths[slice], "slot out of range");
        assert!(lane < self.c, "lane out of range");
        let base = self.slice_offsets[slice] as usize;
        let idx = base + slot as usize * self.c as usize + lane as usize;
        let col = self.cols[idx];
        (col != ELL_PAD).then_some(col)
    }

    /// Total padded slots (the storage actually moved).
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.cols.len()
    }

    /// Padding overhead relative to `nnz` (1.0 = none).
    #[must_use]
    pub fn padding_factor(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            1.0
        } else {
            self.padded_len() as f64 / nnz as f64
        }
    }

    /// SpMV on the SELL storage: `y = A * x`, `y` in original row order.
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
        let mut y = vec![0f32; self.n_rows as usize];
        let c = self.c as usize;
        for s in 0..self.n_slices() {
            let base = self.slice_offsets[s] as usize;
            let width = self.slice_widths[s] as usize;
            let lanes = (self.n_rows as usize - s * c).min(c);
            for slot in 0..width {
                for lane in 0..lanes {
                    let idx = base + slot * c + lane;
                    let col = self.cols[idx];
                    if col != ELL_PAD {
                        let row = self.sorted_rows[s * c + lane] as usize;
                        y[row] += self.values[idx] * x[col as usize];
                    }
                }
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::spmv_csr;
    use crate::EllMatrix;

    fn skewed() -> CsrMatrix {
        // Hub row 0 (degree 15) + a tail of degree-1 rows.
        CsrMatrix::from_undirected_edges(16, |visit| (1..16).for_each(|v| visit(0, v))).unwrap()
    }

    #[test]
    fn spmv_matches_csr_for_various_geometries() {
        let csr = skewed();
        let x: Vec<f32> = (0..16).map(|i| i as f32 - 8.0).collect();
        let reference = spmv_csr(&csr, &x).unwrap();
        for (c, sigma) in [(1, 1), (2, 4), (4, 8), (4, 16), (8, 16), (32, 32)] {
            let sell = SellMatrix::from_csr(&csr, c, sigma).unwrap();
            assert_eq!(sell.spmv(&x).unwrap(), reference, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn sigma_sorting_cuts_padding_on_skewed_matrices() {
        let csr = skewed();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        // sigma covering the whole matrix isolates the hub in its own
        // slice; padding collapses versus ELL.
        let sell = SellMatrix::from_csr(&csr, 4, 16).unwrap();
        assert!(
            sell.padded_len() * 3 < ell.padded_len(),
            "SELL {} vs ELL {}",
            sell.padded_len(),
            ell.padded_len()
        );
        // And sigma = c (no sorting beyond the slice) pads worse than
        // the full-window sort.
        let unsorted = SellMatrix::from_csr(&csr, 4, 4).unwrap();
        assert!(sell.padded_len() <= unsorted.padded_len());
    }

    #[test]
    fn slice_geometry_is_consistent() {
        let csr = skewed();
        let sell = SellMatrix::from_csr(&csr, 4, 16).unwrap();
        assert_eq!(sell.n_slices(), 4);
        let total: u32 = (0..sell.n_slices())
            .map(|s| sell.slice_width(s) * sell.c())
            .sum();
        assert_eq!(total as usize, sell.padded_len());
        // sorted_rows is a permutation.
        let mut rows: Vec<u32> = (0..16).map(|k| sell.original_row(k)).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_bad_geometry() {
        let csr = skewed();
        assert!(SellMatrix::from_csr(&csr, 0, 4).is_err());
        assert!(SellMatrix::from_csr(&csr, 8, 4).is_err());
    }

    #[test]
    fn ragged_tail_slice_works() {
        // 10 rows with C = 4: last slice has 2 lanes.
        let csr =
            CsrMatrix::from_undirected_edges(10, |visit| (0..9).for_each(|v| visit(v, v + 1)))
                .unwrap();
        let sell = SellMatrix::from_csr(&csr, 4, 8).unwrap();
        let x = vec![1.0f32; 10];
        assert_eq!(sell.spmv(&x).unwrap(), spmv_csr(&csr, &x).unwrap());
    }

    #[test]
    fn empty_matrix() {
        let sell = SellMatrix::from_csr(&CsrMatrix::empty(5), 4, 8).unwrap();
        assert_eq!(sell.padded_len(), 0);
        assert_eq!(sell.spmv(&[0.0; 5]).unwrap(), vec![0.0; 5]);
    }
}
