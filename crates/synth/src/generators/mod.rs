//! Synthetic graph/matrix generators.
//!
//! Each generator family targets one of the structural regimes spanned by
//! the paper's 50-matrix corpus (§III: social networks, hyperlink graphs,
//! circuit simulation, optimization, CFD, road networks, protein k-mers,
//! knowledge bases, ...):
//!
//! | Generator | Stands in for | Key structural property |
//! |---|---|---|
//! | [`ErdosRenyi`] | random baseline | no structure at all |
//! | [`Rmat`] | social networks (com-LiveJournal, twitter) | power-law skew, weak communities |
//! | [`PlantedPartition`] | optimization / k-way structured problems | strong, clean communities |
//! | [`CommunityHub`] | web crawls (sk-2005, pld-arc) | communities **plus** global hubs |
//! | [`WattsStrogatz`] | small-world networks | high clustering, short paths |
//! | [`BarabasiAlbert`] | citation/knowledge graphs | preferential attachment skew |
//! | [`Grid2d`] / [`Grid3d`] | road networks / CFD meshes | bounded degree, huge diameter |
//! | [`Banded`] | circuit simulation / electromagnetics | diagonal concentration |
//! | [`HubAndSpoke`] | network traces (mawi) | a few mega-hubs, degenerate communities |
//! | [`KmerChain`] | protein k-mer / DNA graphs | near-degree-2 chains |
//!
//! All generators are deterministic in `(config, seed)` and produce
//! symmetric pattern matrices (value 1.0) with no self-loops, via
//! [`undirected_csr`]. The directed-input path is exercised separately in
//! tests using `commorder_sparse::ops::symmetrize`.

mod banded;
mod chain;
mod hub;
mod hybrid;
mod mesh;
mod preferential;
mod random;
mod rmat;
mod sbm;
mod small_world;

pub use banded::Banded;
pub use chain::KmerChain;
pub use hub::HubAndSpoke;
pub use hybrid::CommunityHub;
pub use mesh::{Grid2d, Grid3d};
pub use preferential::BarabasiAlbert;
pub use random::ErdosRenyi;
pub use rmat::Rmat;
pub(crate) use rmat::RmatDescent;
pub use sbm::PlantedPartition;
pub use small_world::WattsStrogatz;

use commorder_sparse::{CsrMatrix, SparseError};

/// Builds a symmetric pattern CSR matrix from an undirected edge set:
/// self-loops are dropped, duplicate edges collapse to a single entry with
/// value 1.0, and each edge `{u, v}` is stored in both triangles.
///
/// # Errors
///
/// Returns [`SparseError::IndexOutOfBounds`] if an endpoint is `>= n`.
pub fn undirected_csr(n: u32, edges: &[(u32, u32)]) -> Result<CsrMatrix, SparseError> {
    CsrMatrix::from_undirected_edges(n, |visit| {
        for &(u, v) in edges {
            visit(u, v);
        }
    })
}

#[cfg(test)]
pub(crate) fn assert_well_formed(m: &CsrMatrix) {
    assert!(m.is_square());
    assert!(m.is_symmetric(), "generator output must be symmetric");
    assert!(m.iter().all(|(r, c, _)| r != c), "no self loops");
    assert!(m.values().iter().all(|&v| v == 1.0), "pattern matrix");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_csr_dedups_and_mirrors() {
        let m = undirected_csr(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(m.nnz(), 2); // (0,1) and (1,0); self loop dropped
        assert_well_formed(&m);
    }

    #[test]
    fn undirected_csr_rejects_out_of_range() {
        assert!(matches!(
            undirected_csr(2, &[(1, 1), (0, 5)]),
            Err(SparseError::IndexOutOfBounds { index: 5, bound: 2 })
        ));
    }
}
