use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// Hub-and-spoke graph: a handful of mega-hubs attached to nearly every
/// vertex, plus a sparse random background.
///
/// Models the paper's **mawi** anomaly (§V-B): network-traffic traces
/// where a few monitoring points touch almost all flows. Modularity-based
/// community detection on such graphs tends to terminate early with one
/// community covering almost the whole matrix — insularity is high (~0.99)
/// yet reordering cannot help, the corner case the paper calls out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HubAndSpoke {
    /// Number of vertices (including hubs).
    pub n: u32,
    /// Number of mega-hubs.
    pub hubs: u32,
    /// Fraction of all vertices each hub attaches to.
    pub hub_coverage: f64,
    /// Average degree of the random background graph.
    pub background_degree: f64,
}

impl HubAndSpoke {
    /// Generates the graph.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if `hubs == 0` or `hubs >= n`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(self.hubs > 0, "need at least one hub");
        assert!(self.hubs < self.n, "hubs must be < n");
        let mut rng = Rng::new(seed);
        let mut edges = Vec::new();
        // Spread hub IDs uniformly through the ID space so neither
        // ORIGINAL nor naive grouping accidentally co-locates them.
        let stride = self.n / self.hubs;
        let hub_ids: Vec<u32> = (0..self.hubs).map(|h| h * stride).collect();
        for &h in &hub_ids {
            for v in 0..self.n {
                if v != h && rng.gen_bool(self.hub_coverage) {
                    edges.push((h, v));
                }
            }
        }
        let background_edges = (f64::from(self.n) * self.background_degree / 2.0).round() as usize;
        for _ in 0..background_edges {
            let u = rng.gen_u32(self.n);
            let v = rng.gen_u32(self.n);
            edges.push((u, v));
        }
        undirected_csr(self.n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_well_formed;
    use commorder_sparse::stats::skew_top10;

    #[test]
    fn hubs_dominate_the_nnz() {
        let g = HubAndSpoke {
            n: 5000,
            hubs: 3,
            hub_coverage: 0.6,
            background_degree: 2.0,
        }
        .generate(1)
        .unwrap();
        assert_well_formed(&g);
        // Three hubs alone own most edges.
        let mut degrees = g.out_degrees();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let hub_nnz: u64 = degrees.iter().take(3).map(|&d| u64::from(d)).sum();
        // 3 hubs x 5000 x 0.6 coverage ~ 9000 hub-row entries out of
        // ~28000 total (hub rows + mirrored spokes + background).
        assert!(hub_nnz as f64 / g.nnz() as f64 > 0.25);
        assert!(skew_top10(&g) > 0.4);
    }

    #[test]
    fn background_keeps_everyone_connected_ish() {
        let g = HubAndSpoke {
            n: 2000,
            hubs: 2,
            hub_coverage: 0.8,
            background_degree: 2.0,
        }
        .generate(2)
        .unwrap();
        let isolated = g.out_degrees().iter().filter(|&&d| d == 0).count();
        assert!(isolated < 200, "isolated = {isolated}");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = HubAndSpoke {
            n: 800,
            hubs: 2,
            hub_coverage: 0.3,
            background_degree: 1.5,
        };
        assert_eq!(cfg.generate(5).unwrap(), cfg.generate(5).unwrap());
        assert_ne!(cfg.generate(5).unwrap(), cfg.generate(6).unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one hub")]
    fn rejects_zero_hubs() {
        let _ = HubAndSpoke {
            n: 10,
            hubs: 0,
            hub_coverage: 0.5,
            background_degree: 1.0,
        }
        .generate(0);
    }
}
