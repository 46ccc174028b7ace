//! Address-trace generation for the evaluated kernels.
//!
//! Each generator replays the array-level access pattern of its kernel on
//! the [`ArrayLayout`] address space:
//!
//! * **SpMV-CSR** (Algorithm 1): per row — `rowOffsets[r]`,
//!   `rowOffsets[r+1]`, then per non-zero `coords[i]`, `values[i]`,
//!   `X[coords[i]]`, finally a store to `Y[r]`.
//! * **SpMV-COO**: per (row-major sorted) triple — `cooRows[i]`,
//!   `coords[i]`, `values[i]`, `X[col]`, accumulate into `Y[row]`.
//! * **SpMM-CSR-k**: per row — offsets, then per non-zero `coords[i]`,
//!   `values[i]` and the `k`-wide dense row `B[col·k ..]` (one access per
//!   touched cache line); finally the `k`-wide store of `C[row·k ..]`.
//!
//! [`ExecutionModel::Sequential`] replays rows in order — the cuSPARSE
//! CSR kernels assign row blocks to CTAs in row order, so this models the
//! reuse-distance structure the L2 sees. [`ExecutionModel::Interleaved`]
//! round-robins a window of concurrent row streams to check conclusions
//! against GPU-style warp interleaving.

use std::fmt;

use commorder_sparse::{traffic::Kernel, CsrMatrix, ELEM_BYTES};

use crate::layout::ArrayLayout;

/// Tag bit marking a store; the remaining 63 bits hold the byte address.
const WRITE_BIT: u64 = 1 << 63;

/// Line size of the [`ArrayLayout`] kernel traces are generated on: a
/// `k`-wide dense row costs one access per line it touches.
const LAYOUT_LINE_BYTES: u32 = 32;

/// One memory access of a kernel trace, packed into 8 bytes.
///
/// Bit 63 is the read/write tag, bits 0..63 the byte address — traces at
/// paper scale are billions of accesses, so the streaming consumers and
/// the Belady next-use array depend on this staying one word. Addresses
/// with bit 63 set are rejected (`debug_validate!` under
/// `strict-checks`); all workspace layouts start at 0, so real operand
/// spaces never come near the tag bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access(u64);

impl Access {
    /// Packs an access; `write` marks a store.
    #[must_use]
    pub fn new(addr: u64, write: bool) -> Self {
        commorder_sparse::debug_validate!(
            addr & WRITE_BIT == 0,
            "address {addr:#x} collides with the packed write-tag bit"
        );
        Access(addr | if write { WRITE_BIT } else { 0 })
    }

    /// A load of the element at byte address `addr`.
    #[must_use]
    pub fn read(addr: u64) -> Self {
        Access::new(addr, false)
    }

    /// A store to the element at byte address `addr`.
    #[must_use]
    pub fn write(addr: u64) -> Self {
        Access::new(addr, true)
    }

    /// Byte address.
    #[must_use]
    pub fn addr(self) -> u64 {
        self.0 & !WRITE_BIT
    }

    /// `true` for a store.
    #[must_use]
    pub fn is_write(self) -> bool {
        self.0 & WRITE_BIT != 0
    }
}

impl fmt::Debug for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Access")
            .field("addr", &self.addr())
            .field("write", &self.is_write())
            .finish()
    }
}

/// How concurrent GPU execution is modelled when linearizing the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionModel {
    /// Rows processed one after another (default for all experiments).
    Sequential,
    /// A window of `streams` row-processors served round-robin, one
    /// non-zero per turn — a proxy for concurrent warps.
    Interleaved {
        /// Number of concurrently active row streams.
        streams: u32,
    },
}

/// Emits every access of `kernel` on matrix `a` to `sink`.
///
/// The matrix is interpreted per the kernel's storage format (COO traces
/// use row-major entry order, CSR order). Consumers that need to replay
/// the trace more than once (e.g. two-pass Belady) should wrap the same
/// generation in a [`crate::source::KernelTrace`] instead of collecting.
///
/// # Panics
///
/// Panics if an interleaved model requests zero streams.
pub fn for_each_access<F: FnMut(Access)>(
    a: &CsrMatrix,
    kernel: Kernel,
    model: ExecutionModel,
    mut raw_sink: F,
) {
    if kernel.is_spgemm() {
        // Two-operand kernels trace the self-multiply (`B = A`, the
        // corpus default) via the dedicated Gustavson generator. Both
        // execution models replay the row schedule — as with the
        // tiled/blocked kernels, the accumulator carries a per-row
        // serialization the interleaved proxy cannot break. A
        // non-square matrix cannot self-multiply and yields an empty
        // trace here; `Pipeline` validates shapes before tracing, and
        // explicit `(A, B)` pairs go through `SpGemmTrace::new`.
        use crate::source::TraceSource;
        if let Ok(trace) = crate::spgemm::SpGemmTrace::self_multiply(a, kernel) {
            trace.replay(&mut raw_sink);
        }
        return;
    }
    let layout = ArrayLayout::new(a, kernel, LAYOUT_LINE_BYTES);
    // Under `strict-checks` every emitted access is audited against the
    // operand address space: element-aligned and below `layout.end`.
    let end = layout.end;
    let mut sink = |acc: Access| {
        commorder_sparse::debug_validate!(
            acc.addr().is_multiple_of(ELEM_BYTES) && acc.addr() + ELEM_BYTES <= end,
            "trace access {:#x} misaligned or beyond operand end {end:#x}",
            acc.addr()
        );
        raw_sink(acc);
    };
    match model {
        ExecutionModel::Sequential => match kernel {
            Kernel::SpmvCoo => {
                for i in 0..a.nnz() as u64 {
                    coo_entry_accesses(a, &layout, i, &mut sink);
                }
            }
            Kernel::SpmvCsrTiled { tile_cols } => {
                tiled_accesses(a, &layout, tile_cols, &mut sink);
            }
            Kernel::SpmvBlocked { bins } => {
                blocked_accesses(a, &layout, bins, &mut sink);
            }
            _ => {
                for r in 0..a.n_rows() {
                    row_accesses(a, kernel, &layout, r, &mut sink);
                }
            }
        },
        ExecutionModel::Interleaved { streams } => {
            assert!(streams > 0, "interleaved model needs at least one stream");
            match kernel {
                Kernel::SpmvCsrTiled { tile_cols } => {
                    // Tiles are a serialization barrier (partial sums must
                    // land before the next tile); interleaving happens
                    // within a tile, which the sequential tile walk
                    // already bounds.
                    tiled_accesses(a, &layout, tile_cols, &mut sink);
                }
                Kernel::SpmvBlocked { bins } => {
                    // Both blocking phases are pure streams; interleaving
                    // streams does not change their reuse structure.
                    blocked_accesses(a, &layout, bins, &mut sink);
                }
                _ => interleave(a, kernel, &layout, streams as usize, &mut sink),
            }
        }
    }
}

/// Number of accesses [`for_each_access`] emits for `kernel` on `a`
/// under either execution model, where the matrix shape fixes it:
/// SpMV-CSR and SpMM-CSR emit a fixed set per row and per entry, SpMV-COO
/// per entry, and interleaving only reorders them. `None` for the tiled
/// kernel (a row's accesses in a tile depend on which of its columns
/// fall there), the blocked kernel (an empty column skips its `X` read)
/// and SpGEMM (the count follows the product's structure, which
/// [`SpGemmTrace`](crate::spgemm::SpGemmTrace) hints itself).
pub(crate) fn shape_access_count(a: &CsrMatrix, kernel: Kernel) -> Option<u64> {
    let (rows, nnz) = (u64::from(a.n_rows()), a.nnz() as u64);
    match kernel {
        // Per row two offsets and the `Y` store; per entry coords,
        // values and `X`.
        Kernel::SpmvCsr => Some(3 * (rows + nnz)),
        // Per entry row, coords, values, `X` and the `Y` accumulate.
        Kernel::SpmvCoo => Some(5 * nnz),
        // Per row two offsets and the lines of `C`'s row; per entry
        // coords, values and the lines of `B`'s row.
        Kernel::SpmmCsr { k } => {
            let lines = u64::from(k).div_ceil(u64::from(LAYOUT_LINE_BYTES) / ELEM_BYTES);
            Some((2 + lines) * (rows + nnz))
        }
        _ => None,
    }
}

/// Materializes the full trace — a thin [`TraceSource`]-backed test
/// convenience.
///
/// Production consumers stream via [`crate::source::TraceSource::replay`]
/// (the `xtask lint` rule XT0007 rejects `collect_trace` and full-trace
/// `Vec<Access>` buffers outside tests and this documented shim); keep
/// collection to unit tests and small fixtures.
///
/// [`TraceSource`]: crate::source::TraceSource
#[must_use]
pub fn collect_trace(a: &CsrMatrix, kernel: Kernel, model: ExecutionModel) -> Vec<Access> {
    use crate::source::TraceSource;
    crate::source::KernelTrace::new(a, kernel, model).collect_trace()
}

/// All accesses performed while processing CSR row `r` (SpMV or SpMM).
fn row_accesses<F: FnMut(Access)>(
    a: &CsrMatrix,
    kernel: Kernel,
    layout: &ArrayLayout,
    r: u32,
    sink: &mut F,
) {
    sink(Access::read(ArrayLayout::elem(
        layout.row_offsets,
        u64::from(r),
    )));
    sink(Access::read(ArrayLayout::elem(
        layout.row_offsets,
        u64::from(r) + 1,
    )));
    let (cols, _) = a.row(r);
    let lo = a.row_offsets()[r as usize] as u64;
    for (j, &col) in cols.iter().enumerate() {
        let i = lo + j as u64;
        nz_accesses(kernel, layout, i, col, sink);
    }
    row_epilogue(kernel, layout, r, sink);
}

/// Accesses for one stored entry at CSR position `i` with column `col`.
fn nz_accesses<F: FnMut(Access)>(
    kernel: Kernel,
    layout: &ArrayLayout,
    i: u64,
    col: u32,
    sink: &mut F,
) {
    sink(Access::read(ArrayLayout::elem(layout.coords, i)));
    sink(Access::read(ArrayLayout::elem(layout.values, i)));
    match kernel {
        Kernel::SpmvCsr
        | Kernel::SpmvCoo
        | Kernel::SpmvCsrTiled { .. }
        | Kernel::SpmvBlocked { .. } => {
            sink(Access::read(ArrayLayout::elem(layout.x, u64::from(col))))
        }
        Kernel::SpmmCsr { k } => {
            // Touch each cache line of the k-wide dense row of B.
            let start = u64::from(col) * u64::from(k);
            let step = u64::from(layout.line_bytes) / ELEM_BYTES;
            let mut j = 0u64;
            while j < u64::from(k) {
                sink(Access::read(ArrayLayout::elem(layout.b, start + j)));
                j += step;
            }
        }
        Kernel::SpGemmGustavson | Kernel::SpGemmClusterWise => {
            unreachable!("SpGEMM traces come from crate::spgemm, not the dense-operand row walk")
        }
    }
}

/// Store(s) that complete a row.
fn row_epilogue<F: FnMut(Access)>(kernel: Kernel, layout: &ArrayLayout, r: u32, sink: &mut F) {
    match kernel {
        Kernel::SpmvCsr
        | Kernel::SpmvCoo
        | Kernel::SpmvCsrTiled { .. }
        | Kernel::SpmvBlocked { .. } => {
            sink(Access::write(ArrayLayout::elem(layout.y, u64::from(r))))
        }
        Kernel::SpmmCsr { k } => {
            let start = u64::from(r) * u64::from(k);
            let step = u64::from(layout.line_bytes) / ELEM_BYTES;
            let mut j = 0u64;
            while j < u64::from(k) {
                sink(Access::write(ArrayLayout::elem(layout.c, start + j)));
                j += step;
            }
        }
        Kernel::SpGemmGustavson | Kernel::SpGemmClusterWise => {
            unreachable!("SpGEMM traces come from crate::spgemm, not the dense-operand row walk")
        }
    }
}

/// Propagation-blocking SpMV (see `Kernel::SpmvBlocked`): phase 1
/// streams the matrix in CSC order (column offsets, row indices, values,
/// sequential `X`) and appends `(row, partial)` element pairs to the
/// destination bin's cursor; phase 2 streams each bin back and
/// accumulates into the bin's bounded `Y` range.
fn blocked_accesses<F: FnMut(Access)>(
    a: &CsrMatrix,
    layout: &ArrayLayout,
    bins: u32,
    sink: &mut F,
) {
    let bins = bins.max(1);
    let n = a.n_rows();
    if n == 0 {
        return;
    }
    let rows_per_bin = n.div_ceil(bins).max(1);
    // CSC view: the blocked kernel stores the matrix column-major, so the
    // offsets/indices/values regions hold the CSC arrays.
    let csc = a.transpose();
    // Per-bin element bases within the bins region (2 elements per entry).
    let mut bin_counts = vec![0u64; bins as usize];
    for &r in csc.col_indices() {
        bin_counts[(r / rows_per_bin) as usize] += 1;
    }
    let mut bin_base = vec![0u64; bins as usize + 1];
    for b in 0..bins as usize {
        bin_base[b + 1] = bin_base[b] + 2 * bin_counts[b];
    }
    let mut cursor = bin_base.clone();

    // Phase 1: CSC stream + bin scatter (bin writes are streaming within
    // each bin's segment).
    for c in 0..csc.n_rows() {
        sink(Access::read(ArrayLayout::elem(
            layout.row_offsets,
            u64::from(c),
        )));
        sink(Access::read(ArrayLayout::elem(
            layout.row_offsets,
            u64::from(c) + 1,
        )));
        let (rows, _) = csc.row(c); // column c of A
        if rows.is_empty() {
            continue;
        }
        sink(Access::read(ArrayLayout::elem(layout.x, u64::from(c))));
        let lo = csc.row_offsets()[c as usize] as u64;
        for (j, &r) in rows.iter().enumerate() {
            let i = lo + j as u64;
            sink(Access::read(ArrayLayout::elem(layout.coords, i)));
            sink(Access::read(ArrayLayout::elem(layout.values, i)));
            let b = (r / rows_per_bin) as usize;
            sink(Access::write(ArrayLayout::elem(layout.bins, cursor[b])));
            sink(Access::write(ArrayLayout::elem(layout.bins, cursor[b] + 1)));
            cursor[b] += 2;
        }
    }

    // Phase 2: drain bins, accumulate into bounded Y ranges. Re-walk the
    // CSC in bin-major order to recover each bin's destination rows.
    let mut bin_rows: Vec<Vec<u32>> = vec![Vec::new(); bins as usize];
    for c in 0..csc.n_rows() {
        let (rows, _) = csc.row(c);
        for &r in rows {
            bin_rows[(r / rows_per_bin) as usize].push(r);
        }
    }
    for (b, rows) in bin_rows.iter().enumerate() {
        let mut pos = bin_base[b];
        for &r in rows {
            sink(Access::read(ArrayLayout::elem(layout.bins, pos)));
            sink(Access::read(ArrayLayout::elem(layout.bins, pos + 1)));
            pos += 2;
            sink(Access::write(ArrayLayout::elem(layout.y, u64::from(r))));
        }
    }
}

/// Column-tiled SpMV (see `Kernel::SpmvCsrTiled`): tiles are processed
/// in order; within a tile every row reads its per-tile offsets, the
/// entries whose columns fall in the tile, and accumulates into `Y`.
fn tiled_accesses<F: FnMut(Access)>(
    a: &CsrMatrix,
    layout: &ArrayLayout,
    tile_cols: u32,
    sink: &mut F,
) {
    let tile_cols = tile_cols.max(1);
    let n = u64::from(a.n_rows());
    let mut tile_start = 0u32;
    let mut tile_idx = 0u64;
    while tile_start < a.n_cols() {
        let tile_end = tile_start.saturating_add(tile_cols).min(a.n_cols());
        for r in 0..a.n_rows() {
            let off_base = tile_idx * (n + 1) + u64::from(r);
            sink(Access::read(ArrayLayout::elem(
                layout.row_offsets,
                off_base,
            )));
            sink(Access::read(ArrayLayout::elem(
                layout.row_offsets,
                off_base + 1,
            )));
            let (cols, _) = a.row(r);
            let lo = cols.partition_point(|&c| c < tile_start);
            let hi = cols.partition_point(|&c| c < tile_end);
            let row_base = u64::from(a.row_offsets()[r as usize]);
            for (j, &col) in cols[lo..hi].iter().enumerate() {
                let i = row_base + (lo + j) as u64;
                sink(Access::read(ArrayLayout::elem(layout.coords, i)));
                sink(Access::read(ArrayLayout::elem(layout.values, i)));
                sink(Access::read(ArrayLayout::elem(layout.x, u64::from(col))));
            }
            if hi > lo {
                sink(Access::write(ArrayLayout::elem(layout.y, u64::from(r))));
            }
        }
        tile_start = tile_end;
        tile_idx += 1;
    }
}

/// All accesses for COO entry `i` (row-major order over the CSR's
/// entries, which *is* row-major COO order).
fn coo_entry_accesses<F: FnMut(Access)>(a: &CsrMatrix, layout: &ArrayLayout, i: u64, sink: &mut F) {
    sink(Access::read(ArrayLayout::elem(layout.coo_rows, i)));
    sink(Access::read(ArrayLayout::elem(layout.coords, i)));
    sink(Access::read(ArrayLayout::elem(layout.values, i)));
    let col = a.col_indices()[i as usize];
    sink(Access::read(ArrayLayout::elem(layout.x, u64::from(col))));
    // Row owning entry i: accumulate into Y.
    let row = row_of_entry(a, i);
    sink(Access::write(ArrayLayout::elem(layout.y, u64::from(row))));
}

/// The row that owns CSR entry index `i`: the unique `r` with
/// `offsets[r] <= i < offsets[r+1]` (empty rows skipped by construction).
fn row_of_entry(a: &CsrMatrix, i: u64) -> u32 {
    let offsets = a.row_offsets();
    offsets.partition_point(|&o| u64::from(o) <= i) as u32 - 1
}

/// Round-robin interleaving of `streams` concurrent row (or COO-chunk)
/// processors, one non-zero per turn.
fn interleave<F: FnMut(Access)>(
    a: &CsrMatrix,
    kernel: Kernel,
    layout: &ArrayLayout,
    streams: usize,
    sink: &mut F,
) {
    if a.n_rows() == 0 {
        return;
    }
    if kernel == Kernel::SpmvCoo {
        interleave_coo(a, layout, streams, sink);
        return;
    }
    // Each slot works one row; finished slots pull the next unclaimed row.
    struct Slot {
        row: u32,
        next_nz: u64,
        end_nz: u64,
        prologue_done: bool,
    }
    let mut next_row = 0u32;
    let n = a.n_rows();
    let mut slots: Vec<Option<Slot>> = (0..streams).map(|_| None).collect();
    let mut active = 0usize;
    loop {
        let mut progressed = false;
        for slot in slots.iter_mut() {
            if slot.is_none() {
                if next_row < n {
                    let r = next_row;
                    next_row += 1;
                    let lo = u64::from(a.row_offsets()[r as usize]);
                    let hi = u64::from(a.row_offsets()[r as usize + 1]);
                    *slot = Some(Slot {
                        row: r,
                        next_nz: lo,
                        end_nz: hi,
                        prologue_done: false,
                    });
                    active += 1;
                } else {
                    continue;
                }
            }
            let s = slot.as_mut().expect("filled above");
            progressed = true;
            if !s.prologue_done {
                sink(Access::read(ArrayLayout::elem(
                    layout.row_offsets,
                    u64::from(s.row),
                )));
                sink(Access::read(ArrayLayout::elem(
                    layout.row_offsets,
                    u64::from(s.row) + 1,
                )));
                s.prologue_done = true;
            }
            if s.next_nz < s.end_nz {
                let i = s.next_nz;
                let col = a.col_indices()[i as usize];
                nz_accesses(kernel, layout, i, col, sink);
                s.next_nz += 1;
            }
            if s.next_nz >= s.end_nz {
                row_epilogue(kernel, layout, s.row, sink);
                *slot = None;
                active -= 1;
            }
        }
        if !progressed && active == 0 && next_row >= n {
            break;
        }
        if !progressed {
            break;
        }
    }
}

/// Interleaved COO: `streams` contiguous entry chunks advanced round-robin.
fn interleave_coo<F: FnMut(Access)>(
    a: &CsrMatrix,
    layout: &ArrayLayout,
    streams: usize,
    sink: &mut F,
) {
    let nnz = a.nnz() as u64;
    let chunk = nnz.div_ceil(streams as u64).max(1);
    let mut cursors: Vec<(u64, u64)> = (0..streams as u64)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(nnz)))
        .collect();
    let mut any = true;
    while any {
        any = false;
        for (cur, end) in cursors.iter_mut() {
            if *cur < *end {
                coo_entry_accesses(a, layout, *cur, sink);
                *cur += 1;
                any = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[. 1 .], [1 . 1], [. 1 .]] with an empty 4th row.
        CsrMatrix::new(4, 4, vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap()
    }

    #[test]
    fn spmv_csr_access_count() {
        let t = collect_trace(&sample(), Kernel::SpmvCsr, ExecutionModel::Sequential);
        // Per row: 2 offset reads + 1 Y write; per nz: coords + values + X.
        assert_eq!(t.len(), 4 * 3 + 4 * 3);
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 4);
    }

    #[test]
    fn spmv_coo_access_count() {
        let t = collect_trace(&sample(), Kernel::SpmvCoo, ExecutionModel::Sequential);
        // Per nz: rows + coords + values + X + Y.
        assert_eq!(t.len(), 4 * 5);
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 4);
    }

    #[test]
    fn spmm_touches_k_wide_rows_per_line() {
        let t = collect_trace(
            &sample(),
            Kernel::SpmmCsr { k: 16 },
            ExecutionModel::Sequential,
        );
        // k=16 floats = 64 bytes = 2 lines; per nz: 2 + B(2); per row: 2
        // offsets + C(2 writes).
        assert_eq!(t.len(), 4 * (2 + 2) + 4 * (2 + 2));
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 8);
    }

    #[test]
    fn row_of_entry_handles_empty_rows() {
        let a = sample();
        assert_eq!(row_of_entry(&a, 0), 0);
        assert_eq!(row_of_entry(&a, 1), 1);
        assert_eq!(row_of_entry(&a, 2), 1);
        assert_eq!(row_of_entry(&a, 3), 2);
    }

    #[test]
    fn interleaved_is_a_permutation_of_sequential_multiset() {
        let seq = collect_trace(&sample(), Kernel::SpmvCsr, ExecutionModel::Sequential);
        let inter = collect_trace(
            &sample(),
            Kernel::SpmvCsr,
            ExecutionModel::Interleaved { streams: 3 },
        );
        let norm = |mut t: Vec<Access>| {
            t.sort_by_key(|a| (a.addr(), a.is_write()));
            t
        };
        assert_eq!(norm(seq), norm(inter));
    }

    #[test]
    fn interleaved_coo_covers_all_entries() {
        let seq = collect_trace(&sample(), Kernel::SpmvCoo, ExecutionModel::Sequential);
        let inter = collect_trace(
            &sample(),
            Kernel::SpmvCoo,
            ExecutionModel::Interleaved { streams: 2 },
        );
        assert_eq!(seq.len(), inter.len());
    }

    #[test]
    fn single_stream_interleaved_equals_sequential() {
        let seq = collect_trace(&sample(), Kernel::SpmvCsr, ExecutionModel::Sequential);
        let one = collect_trace(
            &sample(),
            Kernel::SpmvCsr,
            ExecutionModel::Interleaved { streams: 1 },
        );
        assert_eq!(seq, one);
    }

    #[test]
    fn x_reads_follow_column_indices() {
        let a = sample();
        let layout = ArrayLayout::new(&a, Kernel::SpmvCsr, 32);
        let t = collect_trace(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        let x_reads: Vec<u64> = t
            .iter()
            .filter(|acc| !acc.is_write() && acc.addr() >= layout.x && acc.addr() < layout.y)
            .map(|acc| (acc.addr() - layout.x) / 4)
            .collect();
        assert_eq!(x_reads, vec![1, 0, 2, 1]);
    }

    #[test]
    fn tiled_trace_covers_every_entry_once() {
        let a = sample();
        let layout = ArrayLayout::new(&a, Kernel::SpmvCsrTiled { tile_cols: 2 }, 32);
        let t = collect_trace(
            &a,
            Kernel::SpmvCsrTiled { tile_cols: 2 },
            ExecutionModel::Sequential,
        );
        // Every coords element appears exactly once across all tiles.
        let coord_reads = t
            .iter()
            .filter(|acc| acc.addr() >= layout.coords && acc.addr() < layout.values)
            .count();
        assert_eq!(coord_reads, a.nnz());
        // 2 tiles x 4 rows x 2 offset reads.
        let offset_reads = t.iter().filter(|acc| acc.addr() < layout.coords).count();
        assert_eq!(offset_reads, 2 * 4 * 2);
    }

    #[test]
    fn tiled_trace_with_huge_tile_matches_untiled_x_pattern() {
        let a = sample();
        let big = collect_trace(
            &a,
            Kernel::SpmvCsrTiled { tile_cols: 1000 },
            ExecutionModel::Sequential,
        );
        let plain = collect_trace(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        // The tiled kernel skips the Y store for rows with no entries in
        // the tile (row 3 is empty), otherwise the traces line up.
        let count = |t: &[Access], write: bool| t.iter().filter(|a| a.is_write() == write).count();
        assert_eq!(count(&big, true), count(&plain, true) - 1);
        assert_eq!(big.len(), plain.len() - 1);
    }

    #[test]
    fn tiled_y_writes_only_for_rows_with_entries_in_tile() {
        let a = sample(); // row 3 is empty
        let t = collect_trace(
            &a,
            Kernel::SpmvCsrTiled { tile_cols: 2 },
            ExecutionModel::Sequential,
        );
        // Rows 0 (col 1), 1 (cols 0,2), 2 (col 1): tile 0 (cols 0-1)
        // touches rows 0,1,2; tile 1 (cols 2-3) touches row 1 only.
        assert_eq!(t.iter().filter(|acc| acc.is_write()).count(), 4);
    }

    #[test]
    fn empty_matrix_produces_no_trace() {
        let a = CsrMatrix::empty(0);
        assert!(collect_trace(&a, Kernel::SpmvCsr, ExecutionModel::Sequential).is_empty());
        assert!(collect_trace(
            &a,
            Kernel::SpmvCsr,
            ExecutionModel::Interleaved { streams: 4 }
        )
        .is_empty());
    }
}

#[cfg(test)]
mod blocked_tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::new(4, 4, vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap()
    }

    #[test]
    fn blocked_trace_access_count() {
        let a = sample();
        let t = collect_trace(
            &a,
            Kernel::SpmvBlocked { bins: 2 },
            ExecutionModel::Sequential,
        );
        // Phase 1: 2 offset reads per column (8) + 1 X read per non-empty
        // column (3) + per nz: rows + values reads (8) + 2 bin writes (8).
        // Phase 2: per nz: 2 bin reads (8) + 1 Y write (4).
        assert_eq!(t.len(), 8 + 3 + 8 + 8 + 8 + 4);
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 8 + 4);
    }

    #[test]
    fn blocked_bin_storage_written_once_and_read_once() {
        let a = sample();
        let layout = ArrayLayout::new(&a, Kernel::SpmvBlocked { bins: 2 }, 32);
        let t = collect_trace(
            &a,
            Kernel::SpmvBlocked { bins: 2 },
            ExecutionModel::Sequential,
        );
        let expected: Vec<u64> = (0..2 * a.nnz() as u64)
            .map(|i| ArrayLayout::elem(layout.bins, i))
            .collect();
        let mut writes: Vec<u64> = t
            .iter()
            .filter(|acc| acc.is_write() && acc.addr() >= layout.bins)
            .map(|acc| acc.addr())
            .collect();
        writes.sort_unstable();
        assert_eq!(writes, expected, "each bin slot written exactly once");
        let mut reads: Vec<u64> = t
            .iter()
            .filter(|acc| !acc.is_write() && acc.addr() >= layout.bins)
            .map(|acc| acc.addr())
            .collect();
        reads.sort_unstable();
        assert_eq!(reads, expected, "each bin slot read back exactly once");
    }

    #[test]
    fn blocked_trace_is_model_independent() {
        let a = sample();
        let seq = collect_trace(
            &a,
            Kernel::SpmvBlocked { bins: 3 },
            ExecutionModel::Sequential,
        );
        let inter = collect_trace(
            &a,
            Kernel::SpmvBlocked { bins: 3 },
            ExecutionModel::Interleaved { streams: 4 },
        );
        assert_eq!(seq, inter);
    }

    #[test]
    fn blocked_empty_matrix() {
        let a = CsrMatrix::empty(0);
        assert!(collect_trace(
            &a,
            Kernel::SpmvBlocked { bins: 4 },
            ExecutionModel::Sequential
        )
        .is_empty());
    }
}
