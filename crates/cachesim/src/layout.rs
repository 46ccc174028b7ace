//! The address map every kernel trace emits into.
//!
//! Each trace places its arrays (CSR components, vectors, dense
//! matrices, bins) in a flat address space through one allocator,
//! `place`: every array gets its own `LAYOUT_LINE_BYTES`-aligned
//! region, so distinct arrays never share a cache line — as a real
//! allocator places multi-megabyte buffers. Every access a trace emits
//! passes the one strict-checks audit, `audited`, against the spans of
//! that space the trace touches; the last span's end is the extent the
//! trace states ([`TraceSource::extent_hint`]). The `Kernel` traces take
//! their array lengths, and which arrays they touch, from
//! [`Kernel::regions`], the table the compulsory bound sums too.
//!
//! [`TraceSource::extent_hint`]: crate::source::TraceSource::extent_hint

use std::ops::Range;

use commorder_sparse::kernels::SpGemmProfile;
use commorder_sparse::traffic::{Kernel, Region, Shape, REGIONS};
use commorder_sparse::{CsrMatrix, ELEM_BYTES};

use crate::trace::Access;

/// Line size every trace's address map is aligned to: a `k`-wide dense
/// row costs one access per line it touches.
pub(crate) const LAYOUT_LINE_BYTES: u32 = 32;

/// Places arrays of `elems[i]` elements one after another from address
/// 0, each on a fresh [`LAYOUT_LINE_BYTES`] boundary. Returns every
/// array's base address and the space's exclusive, line-aligned end. An
/// empty array takes no space.
pub(crate) fn place<const N: usize>(elems: [u64; N]) -> ([u64; N], u64) {
    let line = u64::from(LAYOUT_LINE_BYTES);
    let mut end = 0u64;
    let bases = elems.map(|n| {
        let base = end;
        end = (end + n * ELEM_BYTES).div_ceil(line) * line;
        base
    });
    (bases, end)
}

/// The spans of a [`place`]d space covered by the arrays `touched`
/// marks, ascending; adjacent arrays share one span. Each array's span
/// runs to the next base (or `end`), so it ends line-aligned, and the
/// last span's end is the space's touched extent.
pub(crate) fn spans<const N: usize>(
    bases: &[u64; N],
    end: u64,
    touched: [bool; N],
) -> Vec<Range<u64>> {
    let mut spans: Vec<Range<u64>> = Vec::new();
    for (i, &base) in bases.iter().enumerate() {
        let span = base..bases.get(i + 1).copied().unwrap_or(end);
        if !touched[i] || span.is_empty() {
            continue;
        }
        match spans.last_mut() {
            Some(last) if last.end == span.start => last.end = span.end,
            _ => spans.push(span),
        }
    }
    spans
}

/// The spans of the address map of `kernel` on an `a`-shaped problem
/// that the kernel streams at least once ([`Kernel::regions`]).
pub(crate) fn kernel_spans(a: &CsrMatrix, kernel: Kernel) -> Vec<Range<u64>> {
    let regions = kernel.regions(Shape::of(a), None);
    let (bases, end) = place(regions.map(|r| r.elems));
    spans(&bases, end, regions.map(|r| r.streams > 0))
}

/// Exclusive end of the last of `spans`: one past every address in them.
pub(crate) fn extent(spans: &[Range<u64>]) -> u64 {
    spans.last().map_or(0, |span| span.end)
}

/// Wraps `sink` so that, under `strict-checks`, every access is audited
/// against the spans of the address space [`place`] returned that the
/// trace touches: element-aligned and inside one span.
pub(crate) fn audited<S: AsRef<[Range<u64>]>, F: FnMut(Access)>(
    spans: S,
    mut sink: F,
) -> impl FnMut(Access) {
    move |acc: Access| {
        let addr = acc.addr();
        let spans = spans.as_ref();
        commorder_sparse::debug_validate!(
            addr.is_multiple_of(ELEM_BYTES)
                && spans
                    .iter()
                    .any(|s| s.start <= addr && addr + ELEM_BYTES <= s.end),
            "trace access {addr:#x} misaligned or outside the touched operand spans {spans:x?}"
        );
        sink(acc);
    }
}

/// Base addresses (bytes) of every region of a [`Kernel`] trace, in
/// the order of [`Kernel::regions`].
///
/// The SpGEMM regions (`b_row_offsets` … `c_values`) are empty for
/// every other kernel and come *after* `bins`, so the addresses the
/// dense-operand kernels emit — and therefore their cache fingerprints —
/// do not depend on them.
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
}

impl ArrayLayout {
    /// Lays out the operands of the one-operand `kernel` on an `a`-shaped
    /// problem. The SpGEMM regions stay empty: a two-operand layout
    /// needs the product's size, which only [`ArrayLayout::for_pair`]
    /// gets.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is an SpGEMM kernel: its layout comes from
    /// [`ArrayLayout::for_pair`].
    #[must_use]
    pub fn new(a: &CsrMatrix, kernel: Kernel) -> Self {
        assert!(
            !kernel.is_spgemm(),
            "{} needs its product's size; lay it out with ArrayLayout::for_pair",
            kernel.name()
        );
        Self::from_regions(kernel.regions(Shape::of(a), None))
    }

    /// Lays out the SpGEMM operands of `a · b`, with the output regions
    /// sized by `profile`, the symbolic Gustavson pass
    /// ([`commorder_sparse::kernels::spgemm_profile`]) the caller already
    /// ran on the pair. Both SpGEMM kernels share this map.
    #[must_use]
    pub fn for_pair(a: &CsrMatrix, b: &CsrMatrix, profile: &SpGemmProfile) -> Self {
        let product = (Shape::of(b), profile.result_nnz);
        Self::from_regions(Kernel::SpGemmGustavson.regions(Shape::of(a), Some(product)))
    }

    /// Places `regions` in order.
    fn from_regions(regions: [Region; REGIONS]) -> Self {
        let (
            [row_offsets, coords, values, coo_rows, x, y, b, c, bins, b_row_offsets, b_coords, b_values, acc, c_coords, c_values],
            end,
        ) = place(regions.map(|r| r.elems));
        ArrayLayout {
            row_offsets,
            coords,
            values,
            coo_rows,
            x,
            y,
            b,
            c,
            bins,
            b_row_offsets,
            b_coords,
            b_values,
            acc,
            c_coords,
            c_values,
            end,
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
        let l = ArrayLayout::new(&sample(), Kernel::SpmvCsr);
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
        let small = ArrayLayout::new(&sample(), Kernel::SpmmCsr { k: 4 });
        let big = ArrayLayout::new(&sample(), Kernel::SpmmCsr { k: 256 });
        assert!(big.c - big.b > small.c - small.b);
    }

    #[test]
    fn place_aligns_every_region_and_skips_empty_ones() {
        // 3 elements fill 12 of 32 bytes; 9 fill 36 of 64; an empty
        // region takes no space.
        assert_eq!(place([3, 0, 9, 0]), ([0, 32, 32, 96], 96));
    }

    #[test]
    #[cfg(feature = "strict-checks")]
    #[should_panic(expected = "outside the touched operand spans")]
    fn audit_rejects_an_access_past_the_end() {
        let mut sink = audited(spans(&[0], 64, [true]), |_| {});
        sink(Access::read(60));
        sink(Access::read(64));
    }

    #[test]
    #[cfg(feature = "strict-checks")]
    #[should_panic(expected = "outside the touched operand spans")]
    fn audit_rejects_an_access_in_an_untouched_array() {
        // SpMV-CSR never reads the COO rows, which lie below `X` and `Y`.
        let a = sample();
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr);
        let mut sink = audited(kernel_spans(&a, Kernel::SpmvCsr), |_| {});
        sink(Access::read(l.values));
        sink(Access::write(l.y));
        sink(Access::read(l.coo_rows));
    }

    #[test]
    fn spans_merge_touched_neighbours_and_end_at_the_last_touched_array() {
        let a = sample();
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr);
        // Offsets, coords and values; then `X` and `Y`. COO rows, `B`,
        // `C` and bins stay out, so the extent ends below the layout's.
        let csr = kernel_spans(&a, Kernel::SpmvCsr);
        assert_eq!(csr, vec![0..l.coo_rows, l.x..l.b]);
        assert!(extent(&csr) < l.end);
        let blocked = kernel_spans(&a, Kernel::SpmvBlocked { bins: 2 });
        assert_eq!(extent(&blocked), l.end, "bins are the last region");
        let bases = [0, 32, 64, 64, 96];
        let touched = spans(&bases, 128, [true, false, true, true, true]);
        assert_eq!(touched, vec![0..32, 64..128], "the empty array is skipped");
        assert_eq!(extent(&[]), 0);
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
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr);
        assert!(ArrayLayout::elem(l.x, n_cols - 1) + ELEM_BYTES <= l.y);
        let l = ArrayLayout::new(&a, Kernel::SpmmCsr { k: 4 });
        assert!(ArrayLayout::elem(l.b, n_cols * 4 - 1) + ELEM_BYTES <= l.c);
        // Five 8-column tiles, each with its own 3-entry offsets array.
        let l = ArrayLayout::new(&a, Kernel::SpmvCsrTiled { tile_cols: 8 });
        assert!(ArrayLayout::elem(l.row_offsets, 5 * 3 - 1) + ELEM_BYTES <= l.coords);
    }

    #[test]
    fn end_bounds_every_region() {
        let a = sample();
        let l = ArrayLayout::new(&a, Kernel::SpmvCsr);
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
            let l = ArrayLayout::new(&a, kernel);
            assert_eq!(l.b_row_offsets, l.end, "{kernel:?}");
            assert_eq!(l.c_values, l.end, "{kernel:?}");
        }
    }

    #[test]
    fn spgemm_layout_reserves_operand_and_output_regions() {
        let a = sample();
        let profile = spgemm_profile(&a, &a).unwrap();
        let l = ArrayLayout::for_pair(&a, &a, &profile);
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
        let _ = ArrayLayout::new(&sample(), Kernel::SpGemmGustavson);
    }

    #[test]
    fn blocked_offsets_region_holds_the_csc_column_offsets() {
        // 2 x 40: the blocked kernel reads 41 column offsets, not 3.
        let a = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0, 1.0]).unwrap();
        let l = ArrayLayout::new(&a, Kernel::SpmvBlocked { bins: 2 });
        assert!(ArrayLayout::elem(l.row_offsets, 40) + ELEM_BYTES <= l.coords);
        // A square matrix keeps its `n + 1` offsets, byte for byte.
        let sq = sample();
        assert_eq!(
            ArrayLayout::new(&sq, Kernel::SpmvBlocked { bins: 2 }),
            ArrayLayout::new(&sq, Kernel::SpmvCsr)
        );
    }
}
