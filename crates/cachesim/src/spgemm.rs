//! Streaming SpGEMM (Gustavson) address-trace generation — the
//! two-operand workload layer.
//!
//! `C = A · B` is traced row by row (Gustavson's algorithm): for each
//! row `r` of `A`, every stored entry `(r, k)` streams row `k` of `B`
//! and scatters partial products into a dense accumulator of
//! `n_cols(B)` elements; the row epilogue reads each distinct result
//! column back out of the accumulator and appends it to the `C` output
//! cursor. Nothing is materialized: the trace is regenerated on every
//! [`TraceSource::replay`], and the only scratch state is the
//! `n_cols(B)`-element stamp array the symbolic kernel itself needs —
//! the same streaming discipline the CI `ulimit -v` tripwire enforces
//! for the one-operand traces.
//!
//! [`Kernel::SpGemmClusterWise`] replays the identical per-row access
//! pattern but processes rows **grouped by community** (communities in
//! ascending id order, rows ascending within each) — the cluster-wise
//! execution of arXiv 2507.21253. When consecutive rows of one
//! community share column structure, their `B`-row and accumulator
//! lines are still resident, which is exactly the locality win the
//! cache simulator measures.

use commorder_sparse::kernels::{spgemm_profile, SpGemmProfile};
use commorder_sparse::{traffic::Kernel, CsrMatrix, SparseError};

use crate::layout::{audited, spans, ArrayLayout};
use crate::source::TraceSource;
use crate::trace::{read_bounds, Access};

/// A replayable SpGEMM trace over an `(A, B)` operand pair.
///
/// Construction runs one symbolic Gustavson pass to pin the operand
/// layout, the exact trace length, and the accumulator footprint;
/// replays then stream the access sequence without ever holding it.
#[derive(Debug, Clone)]
pub struct SpGemmTrace<'a> {
    a: &'a CsrMatrix,
    b: &'a CsrMatrix,
    /// Cluster-wise execution order (`None` = natural row order).
    row_order: Option<Vec<u32>>,
    profile: SpGemmProfile,
    layout: ArrayLayout,
    accumulator_peak: u64,
}

impl<'a> SpGemmTrace<'a> {
    /// A source replaying `kernel` over `a · b`. For
    /// [`Kernel::SpGemmClusterWise`], `assignment` maps each row of `a`
    /// to its community; rows of one community execute as a block.
    /// Without an assignment the cluster-wise kernel degenerates to
    /// plain Gustavson. [`Kernel::SpGemmGustavson`] ignores the
    /// assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when `kernel` is not
    /// an SpGEMM kernel, `a.n_cols() != b.n_rows()`, or the assignment
    /// length is not `a.n_rows()`.
    pub fn new(
        a: &'a CsrMatrix,
        b: &'a CsrMatrix,
        kernel: Kernel,
        assignment: Option<&[u32]>,
    ) -> Result<Self, SparseError> {
        if !kernel.is_spgemm() {
            return Err(SparseError::DimensionMismatch {
                expected: "an SpGEMM kernel".to_string(),
                found: kernel.name(),
            });
        }
        let profile = spgemm_profile(a, b)?;
        let clustered = match (kernel, assignment) {
            (Kernel::SpGemmClusterWise, Some(assignment)) => {
                if assignment.len() != a.n_rows() as usize {
                    return Err(SparseError::DimensionMismatch {
                        expected: format!("assignment of length {}", a.n_rows()),
                        found: format!("assignment of length {}", assignment.len()),
                    });
                }
                Some(assignment)
            }
            _ => None,
        };
        let row_order = clustered.map(cluster_row_order);
        let accumulator_peak = match clustered {
            Some(assignment) => cluster_accumulator_peak(a, b, assignment),
            None => u64::from(profile.peak_row_nnz),
        };
        Ok(SpGemmTrace {
            a,
            b,
            row_order,
            profile,
            layout: ArrayLayout::for_pair(a, b, &profile),
            accumulator_peak,
        })
    }

    /// The self-multiply source (`B = A`, the corpus default) in
    /// natural row order.
    ///
    /// # Errors
    ///
    /// See [`SpGemmTrace::new`]; self-multiply requires a square matrix.
    pub fn self_multiply(a: &'a CsrMatrix, kernel: Kernel) -> Result<Self, SparseError> {
        SpGemmTrace::new(a, a, kernel, None)
    }

    /// The symbolic profile (multiply-adds, `nnz(C)`, per-row peak)
    /// computed at construction.
    #[must_use]
    pub fn profile(&self) -> SpGemmProfile {
        self.profile
    }

    /// Peak accumulator footprint in elements: the largest number of
    /// distinct result columns produced by one execution block — a
    /// single row for Gustavson, one community for cluster-wise
    /// execution (the quantity cluster-wise computation shrinks).
    #[must_use]
    pub fn accumulator_peak(&self) -> u64 {
        self.accumulator_peak
    }

    /// The operand layout replays emit against.
    #[must_use]
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// Emits every access of one row: offsets prologue, per-`A`-entry
    /// `B`-row stream with accumulator scatter, then the sorted
    /// accumulator extraction into the `C` cursor.
    fn row_accesses(
        &self,
        r: u32,
        stamp: &mut [u32],
        row_cols: &mut Vec<u32>,
        out_cursor: &mut u64,
        sink: &mut dyn FnMut(Access),
    ) {
        let layout = &self.layout;
        read_bounds(layout.row_offsets, u64::from(r), sink);
        let (a_cols, _) = self.a.row(r);
        let a_lo = u64::from(self.a.row_offsets()[r as usize]);
        row_cols.clear();
        for (i, &k) in a_cols.iter().enumerate() {
            let pos = a_lo + i as u64;
            sink(Access::read(ArrayLayout::elem(layout.coords, pos)));
            sink(Access::read(ArrayLayout::elem(layout.values, pos)));
            read_bounds(layout.b_row_offsets, u64::from(k), sink);
            let (b_cols, _) = self.b.row(k);
            let b_lo = u64::from(self.b.row_offsets()[k as usize]);
            for (p, &j) in b_cols.iter().enumerate() {
                let b_pos = b_lo + p as u64;
                sink(Access::read(ArrayLayout::elem(layout.b_coords, b_pos)));
                sink(Access::read(ArrayLayout::elem(layout.b_values, b_pos)));
                // The scatter accumulates in place; the modeled cost is
                // one store per product (the read side is covered by
                // the epilogue extraction below).
                sink(Access::write(ArrayLayout::elem(layout.acc, u64::from(j))));
                if stamp[j as usize] != r + 1 {
                    stamp[j as usize] = r + 1;
                    row_cols.push(j);
                }
            }
        }
        // Epilogue: extract the row in sorted column order (the CSR
        // output convention of the numeric kernel).
        row_cols.sort_unstable();
        for &j in row_cols.iter() {
            sink(Access::read(ArrayLayout::elem(layout.acc, u64::from(j))));
            sink(Access::write(ArrayLayout::elem(
                layout.c_coords,
                *out_cursor,
            )));
            sink(Access::write(ArrayLayout::elem(
                layout.c_values,
                *out_cursor,
            )));
            *out_cursor += 1;
        }
    }
}

impl TraceSource for SpGemmTrace<'_> {
    fn len_hint(&self) -> Option<u64> {
        // Per row: 2 offset reads; per A entry: coords + values + 2 B
        // offsets; per multiply-add: B coords + B values + acc store;
        // per result entry: acc read + 2 C stores. Exact by
        // construction — CHK1002 and the determinism tests pin it.
        Some(
            2 * u64::from(self.a.n_rows())
                + 4 * self.a.nnz() as u64
                + 3 * self.profile.flops
                + 3 * self.profile.result_nnz,
        )
    }

    /// The layout's end: `C`'s values, the last region, are written.
    /// The accumulator, which `Kernel::regions` streams zero times, is
    /// written too, so the audit takes the whole space below the end.
    fn extent_hint(&self) -> Option<u64> {
        Some(self.layout.end)
    }

    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        let mut audited = audited(spans(&[0], self.layout.end, [true]), sink);
        let mut stamp = vec![0u32; self.b.n_cols() as usize];
        let mut row_cols: Vec<u32> = Vec::new();
        let mut out_cursor = 0u64;
        match &self.row_order {
            Some(order) => {
                for &r in order {
                    self.row_accesses(r, &mut stamp, &mut row_cols, &mut out_cursor, &mut audited);
                }
            }
            None => {
                for r in 0..self.a.n_rows() {
                    self.row_accesses(r, &mut stamp, &mut row_cols, &mut out_cursor, &mut audited);
                }
            }
        }
    }
}

/// Cluster-wise execution order: rows grouped by community id
/// (communities ascending, rows ascending within each), via a stable
/// counting sort.
fn cluster_row_order(assignment: &[u32]) -> Vec<u32> {
    let clusters = assignment
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut offsets = vec![0u32; clusters + 1];
    for &c in assignment {
        offsets[c as usize + 1] += 1;
    }
    for i in 0..clusters {
        offsets[i + 1] += offsets[i];
    }
    let mut order = vec![0u32; assignment.len()];
    for (r, &c) in assignment.iter().enumerate() {
        order[offsets[c as usize] as usize] = r as u32;
        offsets[c as usize] += 1;
    }
    order
}

/// Peak accumulator footprint of cluster-wise execution: the largest
/// number of distinct result columns produced by the rows of any one
/// community (the footprint of a per-cluster accumulator).
fn cluster_accumulator_peak(a: &CsrMatrix, b: &CsrMatrix, assignment: &[u32]) -> u64 {
    let mut stamp = vec![0u32; b.n_cols() as usize];
    let mut epoch = 0u32;
    let mut peak = 0u64;
    let mut current = u32::MAX;
    let mut footprint = 0u64;
    for &r in &cluster_row_order(assignment) {
        let cluster = assignment[r as usize];
        if cluster != current {
            current = cluster;
            epoch += 1;
            peak = peak.max(footprint);
            footprint = 0;
        }
        let (a_cols, _) = a.row(r);
        for &k in a_cols {
            let (b_cols, _) = b.row(k);
            for &j in b_cols {
                if stamp[j as usize] != epoch {
                    stamp[j as usize] = epoch;
                    footprint += 1;
                }
            }
        }
    }
    peak.max(footprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[. 1 .], [1 . 1], [. 1 .]] plus an isolated 4th row.
        CsrMatrix::new(4, 4, vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap()
    }

    #[test]
    fn len_hint_is_exact_for_both_kernels() {
        let a = sample();
        for kernel in [Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise] {
            let t = SpGemmTrace::self_multiply(&a, kernel).unwrap();
            let collected = t.collect_trace();
            assert_eq!(t.len_hint(), Some(collected.len() as u64), "{kernel:?}");
        }
        let clustered =
            SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[1, 0, 1, 0])).unwrap();
        let collected = clustered.collect_trace();
        assert_eq!(clustered.len_hint(), Some(collected.len() as u64));
    }

    #[test]
    fn replay_is_deterministic() {
        let a = sample();
        let t = SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[1, 0, 1, 0])).unwrap();
        assert_eq!(t.collect_trace(), t.collect_trace());
    }

    #[test]
    fn cluster_wise_is_a_permutation_of_gustavson_rows() {
        // Grouping rows by community reorders whole row segments but
        // every access multiset (up to the streamed C cursor positions)
        // covers the same operand elements.
        let a = sample();
        let plain = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson)
            .unwrap()
            .collect_trace();
        let clustered =
            SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[1, 0, 1, 0])).unwrap();
        let cw = clustered.collect_trace();
        assert_eq!(plain.len(), cw.len());
        assert_ne!(plain, cw, "cluster order {{1,3}},{{0,2}} must differ");
        let norm = |t: &[Access]| {
            let mut v: Vec<(u64, bool)> = t.iter().map(|a| (a.addr(), a.is_write())).collect();
            v.sort_unstable();
            v
        };
        // C-cursor stores aside (same region, same count), the operand
        // access multisets agree.
        let layout = *clustered.layout();
        let operand = |t: &[Access]| {
            norm(
                &t.iter()
                    .copied()
                    .filter(|a| a.addr() < layout.c_coords)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(operand(&plain), operand(&cw));
    }

    #[test]
    fn cluster_wise_without_assignment_degenerates_to_gustavson() {
        let a = sample();
        let plain = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson).unwrap();
        let cw = SpGemmTrace::self_multiply(&a, Kernel::SpGemmClusterWise).unwrap();
        assert_eq!(plain.collect_trace(), cw.collect_trace());
        assert_eq!(plain.accumulator_peak(), cw.accumulator_peak());
    }

    #[test]
    fn accumulator_peaks_match_hand_count() {
        let a = sample();
        // Rows of A·A: row 0 -> B_1 = {0,2}; row 1 -> B_0 ∪ B_2 = {1};
        // row 2 -> {0,2}; row 3 -> {}. Per-row peak = 2.
        let plain = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson).unwrap();
        assert_eq!(plain.accumulator_peak(), 2);
        // Clusters {0,2} and {1,3}: cluster 0 produces {0,2} ∪ {0,2} =
        // {0,2} (footprint 2); cluster 1 produces {1} (footprint 1).
        let cw = SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[0, 1, 0, 1])).unwrap();
        assert_eq!(cw.accumulator_peak(), 2);
        // One blob cluster: union of all rows = {0, 1, 2} (footprint 3).
        let blob =
            SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[0, 0, 0, 0])).unwrap();
        assert_eq!(blob.accumulator_peak(), 3);
    }

    #[test]
    fn construction_rejects_bad_inputs() {
        let a = sample();
        let rect = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(SpGemmTrace::self_multiply(&rect, Kernel::SpGemmGustavson).is_err());
        assert!(SpGemmTrace::new(&a, &a, Kernel::SpmvCsr, None).is_err());
        assert!(
            SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&[0, 1])).is_err(),
            "wrong-length assignment must be rejected"
        );
    }

    #[test]
    fn accesses_stay_inside_the_operand_space() {
        let a = sample();
        let t = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson).unwrap();
        let end = t.layout().end;
        t.replay(&mut |acc| {
            assert!(acc.addr() + commorder_sparse::ELEM_BYTES <= end);
        });
    }

    #[test]
    fn output_cursor_streams_sequentially() {
        let a = sample();
        let t = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson).unwrap();
        let layout = *t.layout();
        let mut coord_writes = Vec::new();
        t.replay(&mut |acc| {
            if acc.is_write() && acc.addr() >= layout.c_coords && acc.addr() < layout.c_values {
                coord_writes.push((acc.addr() - layout.c_coords) / commorder_sparse::ELEM_BYTES);
            }
        });
        let expect: Vec<u64> = (0..t.profile().result_nnz).collect();
        assert_eq!(coord_writes, expect);
    }
}
