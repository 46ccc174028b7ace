//! Address-space layout of the kernel operands.
//!
//! The trace generator places each array (CSR components, vectors, dense
//! matrices) in its own line-aligned region of a flat address space, so
//! distinct arrays never alias a cache line — matching a real allocator's
//! behaviour for multi-megabyte buffers.

use commorder_sparse::kernels::SpGemmProfile;
use commorder_sparse::{traffic::Kernel, CsrMatrix, ELEM_BYTES};

/// Base addresses (bytes) of every operand region.
///
/// The SpGEMM regions (`b_row_offsets` … `c_values`) are zero-sized for
/// every other kernel and appended *after* `bins`, so the addresses the
/// dense-operand kernels emit — and therefore their cache fingerprints —
/// are unchanged by the two-operand extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    /// CSR `rowOffsets` (length `n_rows + 1`, once per column tile; for
    /// the blocked kernel the CSC column offsets, length `n_cols + 1`).
    pub row_offsets: u64,
    /// CSR/COO column indices (`A.coords`, length `nnz`).
    pub coords: u64,
    /// Non-zero values (length `nnz`).
    pub values: u64,
    /// COO row indices (length `nnz`).
    pub coo_rows: u64,
    /// Dense input vector `X` (length `n_cols`).
    pub x: u64,
    /// Dense output vector `Y` (length `n_rows`).
    pub y: u64,
    /// Dense input matrix `B` (row-major `n_cols x k`).
    pub b: u64,
    /// Dense output matrix `C` (row-major `n_rows x k`).
    pub c: u64,
    /// Propagation-blocking bin storage (`2·nnz` elements: destination
    /// row + partial value per non-zero).
    pub bins: u64,
    /// SpGEMM second-operand CSR `rowOffsets` (length `n_rows(B) + 1`).
    /// The operands are modeled as distinct allocations even for
    /// self-multiply — the corpus default is `Aᵀ·A`-style, where the
    /// transposed left operand is materialized separately.
    pub b_row_offsets: u64,
    /// SpGEMM second-operand column indices (length `nnz(B)`).
    pub b_coords: u64,
    /// SpGEMM second-operand values (length `nnz(B)`).
    pub b_values: u64,
    /// SpGEMM dense accumulator (length `n_cols(B)` elements, reused
    /// across rows — Gustavson's scratch array).
    pub acc: u64,
    /// SpGEMM output column indices (length `nnz(C)`, streamed cursor).
    pub c_coords: u64,
    /// SpGEMM output values (length `nnz(C)`).
    pub c_values: u64,
    /// Exclusive end (bytes) of the operand address space: every valid
    /// access satisfies `addr + ELEM_BYTES <= end`.
    pub end: u64,
    /// Line size the layout was aligned to.
    pub line_bytes: u32,
}

impl ArrayLayout {
    /// Lays out the operands of the one-operand `kernel` on an `a`-shaped
    /// problem. The SpGEMM regions stay zero-sized: a two-operand layout
    /// needs the product's size, which only [`ArrayLayout::for_pair`]
    /// gets.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is an SpGEMM kernel: its layout comes from
    /// [`ArrayLayout::for_pair`].
    #[must_use]
    pub fn new(a: &CsrMatrix, kernel: Kernel, line_bytes: u32) -> Self {
        assert!(
            !kernel.is_spgemm(),
            "{} needs its product's size; lay it out with ArrayLayout::for_pair",
            kernel.name()
        );
        Self::lay_out(a, kernel, None, line_bytes)
    }

    /// Lays out the SpGEMM operands of `a · b`, with the output regions
    /// sized by `profile`, the symbolic Gustavson pass
    /// ([`commorder_sparse::kernels::spgemm_profile`]) the caller already
    /// ran on the pair. Both SpGEMM kernels share this map.
    #[must_use]
    pub fn for_pair(
        a: &CsrMatrix,
        b: &CsrMatrix,
        profile: &SpGemmProfile,
        line_bytes: u32,
    ) -> Self {
        Self::lay_out(a, Kernel::SpGemmGustavson, Some((b, profile)), line_bytes)
    }

    /// The one layout body: every region in a fixed order, the SpGEMM
    /// regions last and sized only when `spgemm` holds the second operand
    /// and the product's profile.
    fn lay_out(
        a: &CsrMatrix,
        kernel: Kernel,
        spgemm: Option<(&CsrMatrix, &SpGemmProfile)>,
        line_bytes: u32,
    ) -> Self {
        let n = u64::from(a.n_rows());
        let n_cols = u64::from(a.n_cols());
        let nnz = a.nnz() as u64;
        let k = match kernel {
            Kernel::SpmmCsr { k } => u64::from(k),
            _ => 1,
        };
        let line = u64::from(line_bytes);
        let align = |addr: u64| addr.div_ceil(line) * line;
        let mut cursor = 0u64;
        let mut region = |elems: u64| {
            let base = cursor;
            cursor = align(cursor + elems * ELEM_BYTES);
            base
        };
        // Tiled kernels carry one offsets array per column tile; the
        // blocked kernel stores the matrix column-major, so its offsets
        // are the `n_cols + 1` CSC column offsets.
        let row_offsets = region(match kernel {
            Kernel::SpmvBlocked { .. } => n_cols + 1,
            _ => kernel.tiles(n_cols) * (n + 1),
        });
        let coords = region(nnz);
        let values = region(nnz);
        let coo_rows = region(nnz);
        // Gathered operands are indexed by column, outputs by row.
        let x = region(n_cols);
        let y = region(n);
        let b_dense = region(n_cols * k);
        let c_dense = region(n * k);
        let bins = region(2 * nnz);
        // Two-operand SpGEMM regions (zero-sized for other kernels; a
        // zero-sized region does not advance the cursor, so `end` and
        // every address above are byte-identical to the one-operand
        // layout).
        let (b_n, b_nnz, acc_elems, c_nnz) = match spgemm {
            Some((b, p)) => (
                u64::from(b.n_rows()) + 1,
                b.nnz() as u64,
                u64::from(b.n_cols()),
                p.result_nnz,
            ),
            None => (0, 0, 0, 0),
        };
        let b_row_offsets = region(b_n);
        let b_coords = region(b_nnz);
        let b_values = region(b_nnz);
        let acc = region(acc_elems);
        let c_coords = region(c_nnz);
        let c_values = region(c_nnz);
        ArrayLayout {
            row_offsets,
            coords,
            values,
            coo_rows,
            x,
            y,
            b: b_dense,
            c: c_dense,
            bins,
            b_row_offsets,
            b_coords,
            b_values,
            acc,
            c_coords,
            c_values,
            end: cursor,
            line_bytes,
        }
    }

    /// Byte address of element `i` of a region starting at `base`.
    #[must_use]
    pub fn elem(base: u64, i: u64) -> u64 {
        base + i * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::kernels::spgemm_profile;

    fn sample() -> CsrMatrix {
        CsrMatrix::new(3, 3, vec![0, 1, 2, 2], vec![1, 0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn regions_are_disjoint_and_line_aligned() {
        let l = ArrayLayout::new(&sample(), Kernel::SpmvCsr, 32);
        let bases = [
            l.row_offsets,
            l.coords,
            l.values,
            l.coo_rows,
            l.x,
            l.y,
            l.b,
            l.c,
            l.bins,
        ];
        for w in bases.windows(2) {
            assert!(w[0] < w[1], "regions must ascend: {bases:?}");
            assert_eq!(w[1] % 32, 0, "regions must be line aligned");
        }
    }

    #[test]
    fn spmm_reserves_k_columns() {
        let small = ArrayLayout::new(&sample(), Kernel::SpmmCsr { k: 4 }, 32);
        let big = ArrayLayout::new(&sample(), Kernel::SpmmCsr { k: 256 }, 32);
        assert!(big.c - big.b > small.c - small.b);
    }

    #[test]
    fn elem_addressing_is_4_bytes() {
        assert_eq!(ArrayLayout::elem(64, 3), 64 + 12);
    }

    #[test]
    fn wide_matrix_gathers_stay_below_the_output_regions() {
        // 2 x 40: `X` holds 40 elements and `B` 40 rows of `k`, not 2.
        let a = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0, 1.0]).unwrap();
        let n_cols = u64::from(a.n_cols());
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr, 32);
        assert!(ArrayLayout::elem(l.x, n_cols - 1) + ELEM_BYTES <= l.y);
        let l = ArrayLayout::new(&a, Kernel::SpmmCsr { k: 4 }, 32);
        assert!(ArrayLayout::elem(l.b, n_cols * 4 - 1) + ELEM_BYTES <= l.c);
        // Five 8-column tiles, each with its own 3-entry offsets array.
        let l = ArrayLayout::new(&a, Kernel::SpmvCsrTiled { tile_cols: 8 }, 32);
        assert!(ArrayLayout::elem(l.row_offsets, 5 * 3 - 1) + ELEM_BYTES <= l.coords);
    }

    #[test]
    fn end_bounds_every_region() {
        let a = sample();
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr, 32);
        let nnz = a.nnz() as u64;
        assert_eq!(l.end % 32, 0, "end must be line aligned");
        assert!(ArrayLayout::elem(l.bins, 2 * nnz - 1) + ELEM_BYTES <= l.end);
        assert!(l.bins + 2 * nnz * ELEM_BYTES <= l.end);
    }

    #[test]
    fn spgemm_regions_are_zero_sized_for_dense_operand_kernels() {
        // Appending the two-operand regions must not move any existing
        // address: the dense-operand layouts (and hence their bench
        // fingerprints) stay byte-identical.
        let a = sample();
        for kernel in [
            Kernel::SpmvCsr,
            Kernel::SpmvCoo,
            Kernel::SpmmCsr { k: 4 },
            Kernel::SpmvBlocked { bins: 2 },
        ] {
            let l = ArrayLayout::new(&a, kernel, 32);
            assert_eq!(l.b_row_offsets, l.end, "{kernel:?}");
            assert_eq!(l.c_values, l.end, "{kernel:?}");
        }
    }

    #[test]
    fn spgemm_layout_reserves_operand_and_output_regions() {
        let a = sample();
        let profile = spgemm_profile(&a, &a).unwrap();
        let l = ArrayLayout::for_pair(&a, &a, &profile, 32);
        let bases = [
            l.row_offsets,
            l.coords,
            l.values,
            l.b_row_offsets,
            l.b_coords,
            l.b_values,
            l.acc,
            l.c_coords,
            l.c_values,
        ];
        for w in bases.windows(2) {
            assert!(w[0] < w[1], "spgemm regions must ascend: {bases:?}");
        }
        assert!(l.c_values < l.end);
        // The output regions hold `nnz(C)` elements each.
        assert_eq!(l.c_values - l.c_coords, 32);
        assert_eq!(l.end - l.c_values, 32);
        // Cluster-wise traces share the exact same operand map.
        let cw = crate::SpGemmTrace::self_multiply(&a, Kernel::SpGemmClusterWise).unwrap();
        assert_eq!(&l, cw.layout());
    }

    #[test]
    #[should_panic(expected = "ArrayLayout::for_pair")]
    fn one_operand_layout_refuses_spgemm_kernels() {
        let _ = ArrayLayout::new(&sample(), Kernel::SpGemmGustavson, 32);
    }

    #[test]
    fn blocked_offsets_region_holds_the_csc_column_offsets() {
        // 2 x 40: the blocked kernel reads 41 column offsets, not 3.
        let a = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0, 1.0]).unwrap();
        let l = ArrayLayout::new(&a, Kernel::SpmvBlocked { bins: 2 }, 32);
        assert!(ArrayLayout::elem(l.row_offsets, 40) + ELEM_BYTES <= l.coords);
        // A square matrix keeps its `n + 1` offsets, byte for byte.
        let sq = sample();
        assert_eq!(
            ArrayLayout::new(&sq, Kernel::SpmvBlocked { bins: 2 }, 32),
            ArrayLayout::new(&sq, Kernel::SpmvCsr, 32)
        );
    }
}
