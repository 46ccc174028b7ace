use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// Community-plus-hubs hybrid: a planted-partition base overlaid with a
/// power-law set of global hub vertices.
///
/// Stands in for web crawls (sk-2005, pld-arc, sx-stackoverflow): most
/// nodes live in tight communities (sites / tags), while a minority of
/// hubs (portals, popular posts) link across the whole graph. This is the
/// key regime for RABBIT++ — the insular majority orders perfectly while
/// the hubs generate the inter-community traffic the paper's modifications
/// target (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityHub {
    /// Number of vertices.
    pub n: u32,
    /// Number of planted communities.
    pub communities: u32,
    /// Average intra-community degree per vertex.
    pub intra_degree: f64,
    /// Fraction of vertices promoted to global hubs.
    pub hub_fraction: f64,
    /// Average number of global (uniform random) edges per hub.
    pub hub_degree: f64,
    /// Baseline cross-community mixing among non-hubs.
    pub mixing: f64,
    /// Shuffle vertex IDs after generation.
    pub scramble_ids: bool,
}

impl CommunityHub {
    /// Generates the graph.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if `communities == 0` or `communities > n`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(self.communities > 0, "need at least one community");
        assert!(self.communities <= self.n, "more communities than vertices");
        let mut rng = Rng::new(seed);
        let size = (self.n / self.communities).max(2);
        let mut edges = Vec::new();
        // Community base.
        for ci in 0..self.communities {
            let lo = ci * size;
            let hi = if ci == self.communities - 1 {
                self.n
            } else {
                ((ci + 1) * size).min(self.n)
            };
            if hi - lo < 2 {
                continue;
            }
            let span = hi - lo;
            let intra = (f64::from(span) * self.intra_degree / 2.0).round() as usize;
            for _ in 0..intra {
                edges.push((lo + rng.gen_u32(span), lo + rng.gen_u32(span)));
            }
            let inter = (intra as f64 * self.mixing).round() as usize;
            for _ in 0..inter {
                edges.push((lo + rng.gen_u32(span), rng.gen_u32(self.n)));
            }
        }
        // Hub overlay: promote a sample of vertices; hub degrees follow a
        // power law around `hub_degree`.
        let hub_count = ((f64::from(self.n) * self.hub_fraction).round() as u32).max(1);
        for _ in 0..hub_count {
            let h = rng.gen_u32(self.n);
            let extra = (self.hub_degree * rng.power_law(2.0, 16) as f64).round() as usize;
            for _ in 0..extra {
                let v = rng.gen_u32(self.n);
                edges.push((h, v));
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
    use commorder_sparse::stats::skew_top10;

    fn sample(scramble: bool) -> CommunityHub {
        CommunityHub {
            n: 4000,
            communities: 40,
            intra_degree: 8.0,
            hub_fraction: 0.02,
            hub_degree: 30.0,
            mixing: 0.05,
            scramble_ids: scramble,
        }
    }

    #[test]
    fn well_formed_and_moderately_skewed() {
        let g = sample(true).generate(1).unwrap();
        assert_well_formed(&g);
        let skew = skew_top10(&g);
        // Between pure SBM (~0.15) and pure hub graphs (~0.6+).
        assert!((0.2..0.9).contains(&skew), "skew = {skew}");
    }

    #[test]
    fn majority_of_edges_stay_in_planted_blocks_when_unscrambled() {
        let g = sample(false).generate(2).unwrap();
        let size = 100; // 4000 / 40
        let intra = g.iter().filter(|&(r, c, _)| r / size == c / size).count();
        let frac = intra as f64 / g.nnz() as f64;
        assert!(frac > 0.5, "intra fraction = {frac}");
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            sample(true).generate(9).unwrap(),
            sample(true).generate(9).unwrap()
        );
        assert_ne!(
            sample(true).generate(9).unwrap(),
            sample(true).generate(10).unwrap()
        );
    }
}
