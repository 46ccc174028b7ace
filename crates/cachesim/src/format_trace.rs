//! Address traces for the GPU formats beyond CSR/COO: ELL and SELL-C-σ.
//!
//! These formats have structure-dependent storage (padding), so they sit
//! outside the [`Kernel`](commorder_sparse::traffic::Kernel) enum; the
//! format-study experiment normalizes their traffic to the *CSR*
//! compulsory baseline instead.
//!
//! Layout: SELL's slice metadata (empty for ELL), then `cols` and
//! `values` regions sized by the padded length, then `X` (one element
//! per column) and `Y` (one per row) — padding slots are *stored and
//! streamed* (that is the point of measuring them), but padded entries
//! read neither `X` nor `values` (the classic guarded ELL kernel reads
//! the column index, tests it, and skips the rest).
//!
//! Both traces are replayable [`TraceSource`]s ([`EllTrace`],
//! [`SellTrace`]); the stream is regenerated per replay, never
//! materialized.

use commorder_sparse::{EllMatrix, SellMatrix, ELEM_BYTES, ELL_PAD};

use crate::layout::{audited, place, spans};
use crate::source::TraceSource;
use crate::trace::Access;

/// Replayable trace of a guarded ELL SpMV (slot-major, coalesced
/// `cols`/`values` streams, irregular `X` gathers, one `Y` store per
/// row).
pub struct EllTrace<'a> {
    a: &'a EllMatrix,
}

impl<'a> EllTrace<'a> {
    /// A source replaying the ELL kernel on `a`.
    #[must_use]
    pub fn new(a: &'a EllMatrix) -> Self {
        EllTrace { a }
    }
}

/// Region lengths of the ELL address map: `cols`, `values`, `X`, `Y`.
fn ell_regions(a: &EllMatrix) -> [u64; 4] {
    let padded = a.padded_len() as u64;
    [padded, padded, u64::from(a.n_cols()), u64::from(a.n_rows())]
}

impl TraceSource for EllTrace<'_> {
    /// The end of the address map: `Y`, the last array, is written.
    fn extent_hint(&self) -> Option<u64> {
        Some(place(ell_regions(self.a)).1)
    }

    fn replay(&self, raw_sink: &mut dyn FnMut(Access)) {
        let a = self.a;
        let n = u64::from(a.n_rows());
        let (bases, end) = place(ell_regions(a));
        let mut sink = audited(spans(&bases, end, [true; 4]), raw_sink);
        let [cols, values, x, y] = bases;
        for slot in 0..a.width() {
            for r in 0..a.n_rows() {
                let idx = u64::from(slot) * n + u64::from(r);
                sink(Access::read(cols + idx * ELEM_BYTES));
                let col = a.col_at(slot, r);
                if col != ELL_PAD {
                    sink(Access::read(values + idx * ELEM_BYTES));
                    sink(Access::read(x + u64::from(col) * ELEM_BYTES));
                }
            }
        }
        for r in 0..n {
            sink(Access::write(y + r * ELEM_BYTES));
        }
    }
}

/// Replayable trace of a SELL-C-σ SpMV: per slice, slot-major coalesced
/// streams plus irregular `X` gathers; `Y` stores scatter back to the
/// original row IDs at the end of each slice.
pub struct SellTrace<'a> {
    a: &'a SellMatrix,
}

impl<'a> SellTrace<'a> {
    /// A source replaying the SELL-C-σ kernel on `a`.
    #[must_use]
    pub fn new(a: &'a SellMatrix) -> Self {
        SellTrace { a }
    }
}

/// Region lengths of the SELL address map: slice metadata (offset and
/// width, streamed once: 2 words per slice), `cols`, `values`, `X`, `Y`.
fn sell_regions(a: &SellMatrix) -> [u64; 5] {
    let padded = a.padded_len() as u64;
    let meta = 2 * a.n_slices() as u64;
    [
        meta,
        padded,
        padded,
        u64::from(a.n_cols()),
        u64::from(a.n_rows()),
    ]
}

impl TraceSource for SellTrace<'_> {
    /// The end of the address map: `Y`, the last array, is written.
    fn extent_hint(&self) -> Option<u64> {
        Some(place(sell_regions(self.a)).1)
    }

    fn replay(&self, raw_sink: &mut dyn FnMut(Access)) {
        let a = self.a;
        let n = u64::from(a.n_rows());
        let (bases, end) = place(sell_regions(a));
        let mut sink = audited(spans(&bases, end, [true; 5]), raw_sink);
        let [meta, cols, values, x, y] = bases;
        let c = u64::from(a.c());
        let mut base = 0u64;
        for s in 0..a.n_slices() {
            sink(Access::read(meta + 2 * s as u64 * ELEM_BYTES));
            sink(Access::read(meta + (2 * s as u64 + 1) * ELEM_BYTES));
            let width = u64::from(a.slice_width(s));
            let lanes = (n - s as u64 * c).min(c);
            for slot in 0..width {
                for lane in 0..lanes {
                    let idx = base + slot * c + lane;
                    sink(Access::read(cols + idx * ELEM_BYTES));
                    if let Some(col) = a.col_at(s, slot as u32, lane as u32) {
                        sink(Access::read(values + idx * ELEM_BYTES));
                        sink(Access::read(x + u64::from(col) * ELEM_BYTES));
                    }
                }
            }
            // Y scatter for the slice's rows.
            for lane in 0..lanes {
                let row = a.original_row((s as u64 * c + lane) as u32);
                sink(Access::write(y + u64::from(row) * ELEM_BYTES));
            }
            base += width * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::{CooMatrix, CsrMatrix};

    fn skewed() -> CsrMatrix {
        let mut entries = Vec::new();
        for v in 1..8u32 {
            entries.push((0, v, 1.0));
            entries.push((v, 0, 1.0));
        }
        CsrMatrix::try_from(CooMatrix::from_entries(8, 8, entries).unwrap()).unwrap()
    }

    fn ell_trace(a: &EllMatrix) -> Vec<Access> {
        EllTrace::new(a).collect_trace()
    }

    fn sell_trace(a: &SellMatrix) -> Vec<Access> {
        SellTrace::new(a).collect_trace()
    }

    #[test]
    fn ell_trace_streams_all_padded_cols() {
        let ell = EllMatrix::from_csr(&skewed()).unwrap();
        let t = ell_trace(&ell);
        // Every padded col slot read once; values+X only for real entries;
        // one Y write per row.
        let nnz = skewed().nnz();
        assert_eq!(t.len(), ell.padded_len() + 2 * nnz + 8);
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 8);
    }

    #[test]
    fn sell_trace_covers_every_entry_once() {
        let csr = skewed();
        let sell = SellMatrix::from_csr(&csr, 2, 8).unwrap();
        let t = sell_trace(&sell);
        assert_eq!(t.iter().filter(|a| a.is_write()).count(), 8);
        // cols reads = padded_len; per-entry values+X = 2*nnz; plus 2
        // metadata reads per slice and 8 Y writes.
        assert_eq!(
            t.len(),
            sell.padded_len() + 2 * csr.nnz() + 2 * sell.n_slices() + 8
        );
    }

    #[test]
    fn sell_trace_far_smaller_than_ell_on_skew() {
        let csr = skewed();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        let sell = SellMatrix::from_csr(&csr, 2, 8).unwrap();
        assert!(sell_trace(&sell).len() < ell_trace(&ell).len());
    }

    #[test]
    fn format_replays_are_deterministic() {
        let csr = skewed();
        let ell = EllMatrix::from_csr(&csr).unwrap();
        let source = EllTrace::new(&ell);
        assert_eq!(source.collect_trace(), source.collect_trace());
        let sell = SellMatrix::from_csr(&csr, 2, 8).unwrap();
        let source = SellTrace::new(&sell);
        assert_eq!(source.collect_trace(), source.collect_trace());
    }

    /// Checks that the ELL and SELL traces of `a` place `Y`, one element
    /// per row, after metadata, `cols`, `values` and an `X` of one
    /// element per column, and load nothing at or above `Y`.
    fn assert_x_holds_one_element_per_column(a: &CsrMatrix) {
        let lines = |elems: u64| (elems * ELEM_BYTES).div_ceil(32) * 32;
        let ell = EllMatrix::from_csr(a).unwrap();
        let sell = SellMatrix::from_csr(a, 2, 8).unwrap();
        let (n_rows, n_cols) = (u64::from(a.n_rows()), u64::from(a.n_cols()));
        for (t, meta, padded) in [
            (ell_trace(&ell), 0, ell.padded_len() as u64),
            (
                sell_trace(&sell),
                2 * sell.n_slices() as u64,
                sell.padded_len() as u64,
            ),
        ] {
            let y = lines(meta) + 2 * lines(padded) + lines(n_cols);
            let mut stores: Vec<u64> = t
                .iter()
                .filter(|a| a.is_write())
                .map(|a| a.addr())
                .collect();
            stores.sort_unstable();
            let expect: Vec<u64> = (0..n_rows).map(|r| y + r * ELEM_BYTES).collect();
            assert_eq!(stores, expect, "{n_rows} x {n_cols}");
            assert!(t.iter().all(|a| a.is_write() || a.addr() + ELEM_BYTES <= y));
        }
    }

    #[test]
    fn wide_matrix_gathers_stay_below_y() {
        // 2 x 40: the column-39 gather needs a 40-element `X`.
        let wide = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0; 2]).unwrap();
        assert_x_holds_one_element_per_column(&wide);
    }

    #[test]
    fn tall_matrix_x_holds_its_two_columns() {
        // 40 x 2: `X` holds 2 elements, `Y` 40.
        let tall = CsrMatrix::new(2, 40, vec![0, 1, 2], vec![39, 0], vec![1.0; 2])
            .unwrap()
            .transpose();
        assert_x_holds_one_element_per_column(&tall);
    }
}
