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

use commorder_sparse::{traffic::Kernel, CsrMatrix, Permutation, ELEM_BYTES};

use crate::layout::{audited, kernel_spans, ArrayLayout, LAYOUT_LINE_BYTES};

/// Tag bit marking a store; the remaining 63 bits hold the byte address.
const WRITE_BIT: u64 = 1 << 63;

/// Elements per layout line: a `k`-wide dense row of SpMM's `B` or `C`
/// costs one access per line it touches.
const LINE_ELEMS: u64 = LAYOUT_LINE_BYTES as u64 / ELEM_BYTES;

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
    let layout = ArrayLayout::new(a, kernel);
    let mut sink = audited(kernel_spans(a, kernel), raw_sink);
    match kernel {
        // Tiles are a serialization barrier (partial sums must land
        // before the next tile); interleaving happens within a tile,
        // which the sequential tile walk already bounds.
        Kernel::SpmvCsrTiled { tile_cols } => tiled_accesses(a, &layout, tile_cols, &mut sink),
        // Both blocking phases are pure streams; interleaving streams
        // does not change their reuse structure.
        Kernel::SpmvBlocked { bins } => blocked_accesses(a, &layout, bins, &mut sink),
        _ => walk_rows(a, kernel, model, &layout, &mut sink),
    }
}

/// The kernels whose accesses follow the matrix row by row: SpMV-CSR,
/// SpMV-COO and SpMM-CSR. Only these can be traced over `(A, P)` without
/// building `P·A·Pᵀ` (see
/// [`KernelTrace::relabelled`](crate::source::KernelTrace::relabelled)).
#[must_use]
pub fn walks_rows(kernel: Kernel) -> bool {
    matches!(
        kernel,
        Kernel::SpmvCsr | Kernel::SpmvCoo | Kernel::SpmmCsr { .. }
    )
}

/// Where the row walk of the SpMV-CSR, SpMV-COO and SpMM-CSR traces
/// reads each row's columns, in ascending order.
///
/// A row is staged into a per-walker buffer before its columns are read:
/// a stored matrix needs no buffer, a [`Relabelled`] one sorts the
/// relabelled row into it. Entry positions are a running sum of row
/// lengths, so a source needs no offsets array. The walks are generic
/// over the source, so each source gets its own monomorphic copy.
pub(crate) trait RowSource {
    /// One walker's staging buffer.
    type Buf: Default;

    /// Number of rows.
    fn row_count(&self) -> u32;

    /// Number of stored entries in row `r`.
    fn row_len(&self, r: u32) -> u32;

    /// Prepares row `r` for [`RowSource::cols`].
    fn stage(&self, r: u32, buf: &mut Self::Buf);

    /// The columns of row `r`, ascending, as staged in `buf`.
    fn cols<'s>(&'s self, r: u32, buf: &'s Self::Buf) -> &'s [u32];
}

impl RowSource for CsrMatrix {
    type Buf = ();

    fn row_count(&self) -> u32 {
        self.n_rows()
    }

    fn row_len(&self, r: u32) -> u32 {
        self.row_degree(r)
    }

    #[inline]
    fn stage(&self, _: u32, (): &mut ()) {}

    #[inline]
    fn cols<'s>(&'s self, r: u32, (): &'s ()) -> &'s [u32] {
        self.row(r).0
    }
}

/// `P·A·Pᵀ` read row by row from `A` and `P`, without building it: new
/// row `r` is old row `P⁻¹(r)` with every column `c` renamed to `P(c)`
/// and the row sorted. The sort runs on every replay, so a stream saves
/// the `nnz`-sized copy, not the work of relabelling.
#[derive(Debug, Clone)]
pub(crate) struct Relabelled<'a> {
    a: &'a CsrMatrix,
    p: &'a Permutation,
    /// `P⁻¹`: the old row behind each new row.
    inverse: Permutation,
}

impl<'a> Relabelled<'a> {
    /// The rows of `a.permute_symmetric(p)`.
    ///
    /// # Errors
    ///
    /// As [`CsrMatrix::permute_symmetric`]: `a` must be square and `p`
    /// one entry per row.
    pub(crate) fn new(
        a: &'a CsrMatrix,
        p: &'a Permutation,
    ) -> Result<Self, commorder_sparse::SparseError> {
        a.check_symmetric_permutation(p)?;
        Ok(Relabelled {
            a,
            p,
            inverse: p.inverse(),
        })
    }

    /// `A`, whose shape and entry count `P·A·Pᵀ` shares.
    pub(crate) fn matrix(&self) -> &'a CsrMatrix {
        self.a
    }
}

impl RowSource for Relabelled<'_> {
    type Buf = Vec<u32>;

    fn row_count(&self) -> u32 {
        self.a.n_rows()
    }

    fn row_len(&self, r: u32) -> u32 {
        self.a.row_degree(self.inverse.new_of(r))
    }

    fn stage(&self, r: u32, buf: &mut Vec<u32>) {
        let (cols, _) = self.a.row(self.inverse.new_of(r));
        buf.clear();
        buf.extend(cols.iter().map(|&c| self.p.new_of(c)));
        buf.sort_unstable();
    }

    fn cols<'s>(&'s self, _: u32, buf: &'s Vec<u32>) -> &'s [u32] {
        buf
    }
}

/// Emits every access of `kernel` on `P·A·Pᵀ`, the rows of `rows`, to
/// `sink` — the same addresses in the same order as [`for_each_access`]
/// on `a.permute_symmetric(p)`. `kernel` must be one that
/// [`walks_rows`].
pub(crate) fn for_each_relabelled_access(
    rows: &Relabelled<'_>,
    kernel: Kernel,
    model: ExecutionModel,
    sink: &mut dyn FnMut(Access),
) {
    // `P·A·Pᵀ` has `a`'s shape and entry count, so it has `a`'s layout.
    let layout = ArrayLayout::new(rows.matrix(), kernel);
    let spans = kernel_spans(rows.matrix(), kernel);
    walk_rows(rows, kernel, model, &layout, &mut audited(spans, sink));
}

/// The row walk shared by SpMV-CSR, SpMV-COO and SpMM-CSR under either
/// execution model.
///
/// # Panics
///
/// Panics if an interleaved model requests zero streams.
fn walk_rows<R: RowSource + ?Sized, F: FnMut(Access)>(
    rows: &R,
    kernel: Kernel,
    model: ExecutionModel,
    layout: &ArrayLayout,
    sink: &mut F,
) {
    match model {
        ExecutionModel::Sequential if kernel == Kernel::SpmvCoo => {
            let mut buf = R::Buf::default();
            let mut i = 0u64;
            for r in 0..rows.row_count() {
                rows.stage(r, &mut buf);
                for &col in rows.cols(r, &buf) {
                    coo_entry_accesses(layout, i, r, col, sink);
                    i += 1;
                }
            }
        }
        ExecutionModel::Sequential => {
            let mut buf = R::Buf::default();
            let mut lo = 0u64;
            for r in 0..rows.row_count() {
                rows.stage(r, &mut buf);
                let cols = rows.cols(r, &buf);
                row_accesses(kernel, layout, r, lo, cols, sink);
                lo += cols.len() as u64;
            }
        }
        ExecutionModel::Interleaved { streams } => {
            assert!(streams > 0, "interleaved model needs at least one stream");
            if kernel == Kernel::SpmvCoo {
                interleave_coo(rows, layout, streams as usize, sink);
            } else {
                interleave(rows, kernel, layout, streams as usize, sink);
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
        Kernel::SpmmCsr { k } => Some((2 + u64::from(k).div_ceil(LINE_ELEMS)) * (rows + nnz)),
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

/// All accesses performed while processing CSR row `r` (SpMV or SpMM),
/// whose entries `cols` start at CSR position `lo`.
fn row_accesses<F: FnMut(Access)>(
    kernel: Kernel,
    layout: &ArrayLayout,
    r: u32,
    lo: u64,
    cols: &[u32],
    sink: &mut F,
) {
    read_bounds(layout.row_offsets, u64::from(r), sink);
    for (j, &col) in cols.iter().enumerate() {
        nz_accesses(kernel, layout, lo + j as u64, col, sink);
    }
    row_epilogue(kernel, layout, r, sink);
}

/// Reads the two offsets `i` and `i + 1` of the offsets array at `base`
/// that bound row (or column) `i`'s entries.
pub(crate) fn read_bounds<F: FnMut(Access) + ?Sized>(base: u64, i: u64, sink: &mut F) {
    sink(Access::read(ArrayLayout::elem(base, i)));
    sink(Access::read(ArrayLayout::elem(base, i + 1)));
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
        // Touch each cache line of the k-wide dense row of B.
        Kernel::SpmmCsr { k } => dense_row(layout.b, col, k, false, sink),
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
        Kernel::SpmmCsr { k } => dense_row(layout.c, r, k, true, sink),
        Kernel::SpGemmGustavson | Kernel::SpGemmClusterWise => {
            unreachable!("SpGEMM traces come from crate::spgemm, not the dense-operand row walk")
        }
    }
}

/// One access per line of row `row` of the row-major, `k`-wide dense
/// matrix at `base`.
fn dense_row<F: FnMut(Access)>(base: u64, row: u32, k: u32, write: bool, sink: &mut F) {
    let start = u64::from(row) * u64::from(k);
    for j in (0..u64::from(k)).step_by(LINE_ELEMS as usize) {
        sink(Access::new(ArrayLayout::elem(base, start + j), write));
    }
}

/// Propagation-blocking SpMV (see `Kernel::SpmvBlocked`): phase 1
/// streams the matrix in CSC order (column offsets, row indices, values,
/// sequential `X`) and appends `(row, partial)` element pairs to the
/// destination bin's cursor; phase 2 streams each bin back and
/// accumulates into the bin's bounded `Y` range.
///
/// Phase 1 records each entry's row at its bin slot (`cursor / 2`), so
/// phase 2 reads the rows back in bin order from one nnz-sized array.
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
    // Per-bin write cursors within the bins region (2 elements per
    // entry), each starting at its bin's base.
    let mut cursor = vec![0u64; bins as usize];
    for &r in csc.col_indices() {
        cursor[(r / rows_per_bin) as usize] += 2;
    }
    let mut base = 0u64;
    for c in &mut cursor {
        (*c, base) = (base, base + *c);
    }
    // The destination row of every bin slot, filled in phase 1.
    let mut slot_rows = vec![0u32; csc.nnz()];

    // Phase 1: CSC stream + bin scatter (bin writes are streaming within
    // each bin's segment).
    for c in 0..csc.n_rows() {
        read_bounds(layout.row_offsets, u64::from(c), sink);
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
            slot_rows[(cursor[b] / 2) as usize] = r;
            cursor[b] += 2;
        }
    }

    // Phase 2: drain bins in slot order, accumulating into bounded Y
    // ranges.
    for (slot, &r) in slot_rows.iter().enumerate() {
        let pos = 2 * slot as u64;
        sink(Access::read(ArrayLayout::elem(layout.bins, pos)));
        sink(Access::read(ArrayLayout::elem(layout.bins, pos + 1)));
        sink(Access::write(ArrayLayout::elem(layout.y, u64::from(r))));
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
            read_bounds(layout.row_offsets, tile_idx * (n + 1) + u64::from(r), sink);
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
/// entries, which *is* row-major COO order) at `(row, col)`.
fn coo_entry_accesses<F: FnMut(Access)>(
    layout: &ArrayLayout,
    i: u64,
    row: u32,
    col: u32,
    sink: &mut F,
) {
    sink(Access::read(ArrayLayout::elem(layout.coo_rows, i)));
    sink(Access::read(ArrayLayout::elem(layout.coords, i)));
    sink(Access::read(ArrayLayout::elem(layout.values, i)));
    sink(Access::read(ArrayLayout::elem(layout.x, u64::from(col))));
    // Accumulate into the owning row of Y.
    sink(Access::write(ArrayLayout::elem(layout.y, u64::from(row))));
}

/// Round-robin interleaving of `streams` concurrent row processors, one
/// non-zero per turn. Each slot works one row; a slot that finishes its
/// row pulls the next unclaimed row on its next turn.
fn interleave<R: RowSource + ?Sized, F: FnMut(Access)>(
    rows: &R,
    kernel: Kernel,
    layout: &ArrayLayout,
    streams: usize,
    sink: &mut F,
) {
    struct Slot<B> {
        busy: bool,
        row: u32,
        /// CSR position of the row's first entry.
        lo: u64,
        /// Entries of the row emitted so far.
        done: usize,
        buf: B,
    }
    let n = rows.row_count();
    let mut slots: Vec<Slot<R::Buf>> = (0..streams)
        .map(|_| Slot {
            busy: false,
            row: 0,
            lo: 0,
            done: 0,
            buf: R::Buf::default(),
        })
        .collect();
    let (mut next_row, mut next_lo) = (0u32, 0u64);
    loop {
        let mut progressed = false;
        for s in slots.iter_mut() {
            if !s.busy {
                if next_row >= n {
                    continue;
                }
                s.busy = true;
                s.row = next_row;
                s.lo = next_lo;
                s.done = 0;
                rows.stage(next_row, &mut s.buf);
                next_lo += u64::from(rows.row_len(next_row));
                next_row += 1;
                read_bounds(layout.row_offsets, u64::from(s.row), sink);
            }
            progressed = true;
            let cols = rows.cols(s.row, &s.buf);
            if let Some(&col) = cols.get(s.done) {
                nz_accesses(kernel, layout, s.lo + s.done as u64, col, sink);
                s.done += 1;
            }
            if s.done >= cols.len() {
                row_epilogue(kernel, layout, s.row, sink);
                s.busy = false;
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Interleaved COO: `streams` contiguous entry chunks advanced
/// round-robin, one entry per turn. Each chunk walks the rows from the
/// one holding its first entry, found by one pass over the row lengths.
fn interleave_coo<R: RowSource + ?Sized, F: FnMut(Access)>(
    rows: &R,
    layout: &ArrayLayout,
    streams: usize,
    sink: &mut F,
) {
    struct Cursor<B> {
        /// Next entry, and the chunk's exclusive end.
        pos: u64,
        end: u64,
        /// The row holding `pos`, and `pos`'s index within it.
        row: u32,
        at: u32,
        buf: B,
    }
    let n = rows.row_count();
    let mut nnz = 0u64;
    for r in 0..n {
        nnz += u64::from(rows.row_len(r));
    }
    let chunk = nnz.div_ceil(streams as u64).max(1);
    let mut cursors: Vec<Cursor<R::Buf>> = (0..streams as u64)
        .map(|s| Cursor {
            pos: (s * chunk).min(nnz),
            end: ((s + 1) * chunk).min(nnz),
            row: 0,
            at: 0,
            buf: R::Buf::default(),
        })
        .collect();
    // Chunk starts ascend, so one pass over the rows places them all.
    let (mut row, mut row_lo) = (0u32, 0u64);
    for c in cursors.iter_mut().filter(|c| c.pos < c.end) {
        while row_lo + u64::from(rows.row_len(row)) <= c.pos {
            row_lo += u64::from(rows.row_len(row));
            row += 1;
        }
        c.row = row;
        c.at = (c.pos - row_lo) as u32;
        rows.stage(row, &mut c.buf);
    }
    let mut any = true;
    while any {
        any = false;
        for c in cursors.iter_mut() {
            if c.pos >= c.end {
                continue;
            }
            // Skip to the next non-empty row once this one is spent.
            while c.at as usize >= rows.cols(c.row, &c.buf).len() {
                c.row += 1;
                c.at = 0;
                rows.stage(c.row, &mut c.buf);
            }
            let col = rows.cols(c.row, &c.buf)[c.at as usize];
            coo_entry_accesses(layout, c.pos, c.row, col, sink);
            c.pos += 1;
            c.at += 1;
            any = true;
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
    fn interleaved_coo_advances_contiguous_entry_chunks_round_robin() {
        // Rows 1 and 3 are empty; 3 streams over 6 entries take chunks
        // {0, 1}, {2, 3} and {4, 5}, the last two starting past an
        // empty row.
        let a = CsrMatrix::new(
            5,
            5,
            vec![0, 2, 2, 4, 4, 6],
            vec![0, 3, 1, 2, 0, 4],
            vec![1.0; 6],
        )
        .unwrap();
        let layout = ArrayLayout::new(&a, Kernel::SpmvCoo);
        let entry = |i: u64, row: u64| {
            let col = u64::from(a.col_indices()[i as usize]);
            [
                Access::read(ArrayLayout::elem(layout.coo_rows, i)),
                Access::read(ArrayLayout::elem(layout.coords, i)),
                Access::read(ArrayLayout::elem(layout.values, i)),
                Access::read(ArrayLayout::elem(layout.x, col)),
                Access::write(ArrayLayout::elem(layout.y, row)),
            ]
        };
        let rows = [0, 0, 2, 2, 4, 4];
        let expect: Vec<Access> = [0u64, 2, 4, 1, 3, 5]
            .into_iter()
            .flat_map(|i| entry(i, rows[i as usize]))
            .collect();
        let got = collect_trace(
            &a,
            Kernel::SpmvCoo,
            ExecutionModel::Interleaved { streams: 3 },
        );
        assert_eq!(got, expect);
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
        let layout = ArrayLayout::new(&a, Kernel::SpmvCsr);
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
        let layout = ArrayLayout::new(&a, Kernel::SpmvCsrTiled { tile_cols: 2 });
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
        let layout = ArrayLayout::new(&a, Kernel::SpmvBlocked { bins: 2 });
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
    fn blocked_offset_reads_stay_inside_the_offsets_region_of_a_wide_matrix() {
        // 2 x 40: phase 1 reads two CSC offsets for each of 40 columns,
        // up to offset 40, which the region must hold.
        let a = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0, 1.0]).unwrap();
        let kernel = Kernel::SpmvBlocked { bins: 2 };
        let layout = ArrayLayout::new(&a, kernel);
        let offsets: Vec<u64> = collect_trace(&a, kernel, ExecutionModel::Sequential)
            .iter()
            .filter(|acc| acc.addr() < layout.coords)
            .map(|acc| (acc.addr() - layout.row_offsets) / ELEM_BYTES)
            .collect();
        assert_eq!(offsets.len(), 80);
        assert_eq!(offsets.iter().max(), Some(&40));
        assert!(ArrayLayout::elem(layout.row_offsets, 40) + ELEM_BYTES <= layout.coords);
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
