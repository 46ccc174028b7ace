use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// Near-degree-2 chain graph with occasional branches and cross links.
///
/// Stands in for protein k-mer / DNA assembly graphs (SuiteSparse's
/// `kmer_*` family): the paper's corpus includes matrices with average
/// degree as low as 2. Long unbranched paths dominate, with sparse
/// branch points (repeats) and rare cross-chain links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmerChain {
    /// Number of vertices.
    pub n: u32,
    /// Number of independent chains the vertices are divided into.
    pub chains: u32,
    /// Probability per vertex of an extra branch edge to a nearby vertex.
    pub branch_p: f64,
    /// Probability per vertex of a random cross-chain link.
    pub cross_p: f64,
    /// Shuffle vertex IDs after generation.
    pub scramble_ids: bool,
}

impl KmerChain {
    /// Generates the graph.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if `chains == 0` or `chains > n`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(self.chains > 0, "need at least one chain");
        assert!(self.chains <= self.n, "more chains than vertices");
        let mut rng = Rng::new(seed);
        let chain_len = self.n / self.chains;
        let mut edges = Vec::with_capacity(self.n as usize + 16);
        for u in 0..self.n {
            let chain = u / chain_len.max(1);
            let pos = u % chain_len.max(1);
            // Path edge to successor within the chain.
            if pos + 1 < chain_len && u + 1 < self.n {
                edges.push((u, u + 1));
            }
            if self.branch_p > 0.0 && rng.gen_bool(self.branch_p) {
                // Branch: connect to a vertex a short hop ahead in the chain.
                let hop = 2 + rng.gen_u32(8);
                let v = u.saturating_add(hop).min(self.n - 1);
                let same_chain = v / chain_len.max(1) == chain;
                if v != u && same_chain {
                    edges.push((u, v));
                }
            }
            if self.cross_p > 0.0 && rng.gen_bool(self.cross_p) {
                let v = rng.gen_u32(self.n);
                edges.push((u, v));
            }
        }
        if self.scramble_ids {
            let mut relabel: Vec<u32> = (0..self.n).collect();
            rng.shuffle(&mut relabel);
            for e in &mut edges {
                e.0 = relabel[e.0 as usize];
                e.1 = relabel[e.1 as usize];
            }
        }
        undirected_csr(self.n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_well_formed;
    use commorder_sparse::stats::DegreeStats;

    #[test]
    fn average_degree_is_near_two() {
        let g = KmerChain {
            n: 5000,
            chains: 10,
            branch_p: 0.05,
            cross_p: 0.01,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        assert_well_formed(&g);
        let s = DegreeStats::from_degrees(&g.out_degrees());
        assert!((1.8..=2.6).contains(&s.mean), "mean degree = {}", s.mean);
        assert!(s.max <= 10);
    }

    #[test]
    fn pure_chains_have_degree_at_most_two() {
        let g = KmerChain {
            n: 1000,
            chains: 4,
            branch_p: 0.0,
            cross_p: 0.0,
            scramble_ids: false,
        }
        .generate(2)
        .unwrap();
        let s = DegreeStats::from_degrees(&g.out_degrees());
        assert_eq!(s.max, 2);
        // Chain breaks leave 2 endpoints per chain at degree 1.
        let (comp, count) = commorder_sparse::ops::connected_components(&g).unwrap();
        assert_eq!(count, 4);
        assert_eq!(comp.len(), 1000);
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = KmerChain {
            n: 600,
            chains: 3,
            branch_p: 0.1,
            cross_p: 0.05,
            scramble_ids: true,
        };
        assert_eq!(cfg.generate(7).unwrap(), cfg.generate(7).unwrap());
        assert_ne!(cfg.generate(7).unwrap(), cfg.generate(8).unwrap());
    }
}
