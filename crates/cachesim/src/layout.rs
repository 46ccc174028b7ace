//! Address-space layout of the kernel operands.
//!
//! The trace generator places each array (CSR components, vectors, dense
//! matrices) in its own line-aligned region of a flat address space, so
//! distinct arrays never alias a cache line — matching a real allocator's
//! behaviour for multi-megabyte buffers.

use commorder_sparse::kernels::spgemm_profile;
use commorder_sparse::{traffic::Kernel, CsrMatrix, ELEM_BYTES};

/// Base addresses (bytes) of every operand region.
///
/// The SpGEMM regions (`b_row_offsets` … `c_values`) are zero-sized for
/// every other kernel and appended *after* `bins`, so the addresses the
/// dense-operand kernels emit — and therefore their cache fingerprints —
/// are unchanged by the two-operand extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    /// CSR `rowOffsets` (length `n_rows + 1`, once per column tile).
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
    /// Lays out the operands of `kernel` on an `a`-shaped problem (for
    /// the two-operand SpGEMM kernels, the self-multiply `B = A`).
    #[must_use]
    pub fn new(a: &CsrMatrix, kernel: Kernel, line_bytes: u32) -> Self {
        Self::for_pair(a, a, kernel, line_bytes)
    }

    /// Lays out the operands of `kernel` on an `(a, b)` operand pair.
    /// Non-SpGEMM kernels ignore `b`. For SpGEMM the output regions are
    /// sized by a symbolic Gustavson pass
    /// ([`commorder_sparse::kernels::spgemm_profile`]); a shape-mismatched
    /// pair gets zero-sized output regions (trace construction rejects
    /// the pair before any access is generated).
    #[must_use]
    pub fn for_pair(a: &CsrMatrix, b: &CsrMatrix, kernel: Kernel, line_bytes: u32) -> Self {
        let n = u64::from(a.n_rows());
        let n_cols = u64::from(a.n_cols());
        let nnz = a.nnz() as u64;
        let k = match kernel {
            Kernel::SpmmCsr { k } => u64::from(k),
            _ => 1,
        };
        let spgemm = if kernel.is_spgemm() {
            spgemm_profile(a, b).ok()
        } else {
            None
        };
        let line = u64::from(line_bytes);
        let align = |addr: u64| addr.div_ceil(line) * line;
        let mut cursor = 0u64;
        let mut region = |elems: u64| {
            let base = cursor;
            cursor = align(cursor + elems * ELEM_BYTES);
            base
        };
        // Tiled kernels carry one offsets array per column tile.
        let row_offsets = region(kernel.tiles(n_cols) * (n + 1));
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
            Some(p) => (
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
        let l = ArrayLayout::new(&a, Kernel::SpGemmGustavson, 32);
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
        // Cluster-wise shares the exact same operand map.
        assert_eq!(l, ArrayLayout::new(&a, Kernel::SpGemmClusterWise, 32));
    }
}
