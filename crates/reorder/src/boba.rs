//! BOBA — parallel lightweight graph reordering (Drescher & Porumbescu,
//! arXiv 2306.10410).
//!
//! BOBA assigns new IDs by *first touch over the edge stream*: scanning
//! the edge list in storage order, every vertex gets the next free ID
//! the first time it appears as a destination; vertices that never
//! appear are appended in original order. The entire pass is linear in
//! the number of edges, needs no community detection or sorting, and
//! parallelizes by splitting the stream into chunks — which is exactly
//! why the paper positions it as the lightweight baseline against
//! heavyweight community-based orders like RABBIT.
//!
//! Here the edge stream is the CSR column array in row-major order, and
//! the pass is one loop over it. This crate keeps it serial: a chunked
//! scan must replay its chunk-local touch lists through a global
//! seen-set, and that merge cost as much as the scan it split (DESIGN
//! §14).

use commorder_obs as obs;
use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::degree::require_square;
use crate::Reordering;

/// The BOBA reordering technique (first-touch edge-order relabeling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Boba;

impl Reordering for Boba {
    fn name(&self) -> &str {
        "BOBA"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        let _span = obs::span!("reorder.boba");
        let n = a.n_rows() as usize;
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for &c in a.col_indices() {
            if !seen[c as usize] {
                seen[c as usize] = true;
                order.push(c);
            }
        }
        // Untouched vertices keep their original order at the tail.
        order.extend((0..n as u32).filter(|&v| !seen[v as usize]));
        Permutation::from_order(&order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;
    use commorder_synth::generators::Rmat;

    #[test]
    fn first_touch_order_matches_the_stream() {
        // Rows: 0 -> [2, 3], 1 -> [0], 2 -> [], 3 -> [1].
        let m = CsrMatrix::try_from(
            CooMatrix::from_entries(
                4,
                4,
                vec![(0, 2, 1.0), (0, 3, 1.0), (1, 0, 1.0), (3, 1, 1.0)],
            )
            .unwrap(),
        )
        .unwrap();
        let p = Boba.reorder(&m).unwrap();
        // Stream order: 2, 3, 0, 1 — all vertices touched.
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(3), 1);
        assert_eq!(p.new_of(0), 2);
        assert_eq!(p.new_of(1), 3);
    }

    #[test]
    fn untouched_vertices_append_in_original_order() {
        // Only vertex 3 appears as a destination.
        let m = CsrMatrix::try_from(
            CooMatrix::from_entries(4, 4, vec![(0, 3, 1.0), (1, 3, 1.0)]).unwrap(),
        )
        .unwrap();
        let p = Boba.reorder(&m).unwrap();
        assert_eq!(p.new_of(3), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
        assert_eq!(p.new_of(2), 3);
    }

    #[test]
    fn improves_locality_on_a_scrambled_graph() {
        use commorder_sparse::stats::mean_index_distance;
        let g = Rmat::graph500(11, 8.0).generate(23).unwrap();
        let p = Boba.reorder(&g).unwrap();
        let r = g.permute_symmetric(&p).unwrap();
        assert_eq!(r.nnz(), g.nnz());
        // First-touch ordering clusters co-referenced columns; on a
        // scrambled power-law graph that must shrink index distance.
        assert!(mean_index_distance(&r) < mean_index_distance(&g));
    }
}
