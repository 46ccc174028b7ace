use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// Banded matrix with random fill inside the band plus occasional
/// long-range couplings.
///
/// Stands in for circuit-simulation and DNA-electrophoresis matrices:
/// non-zeros concentrated near the diagonal in the natural order (so
/// ORIGINAL is already good), with a sparse scattering of off-band entries
/// (global nets / boundary conditions) that keep it from being trivially
/// cache-resident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Banded {
    /// Number of vertices.
    pub n: u32,
    /// Half-bandwidth: neighbours are drawn from `[-band, +band]` around
    /// the diagonal.
    pub band: u32,
    /// Average number of in-band neighbours per vertex.
    pub fill_degree: f64,
    /// Probability per vertex of one uniformly random long-range edge.
    pub long_range_p: f64,
    /// Shuffle vertex IDs after generation (publish-order scrambling).
    pub scramble_ids: bool,
}

impl Banded {
    /// Generates the matrix.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if `band == 0` or `n < 2`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(self.band > 0, "band must be positive");
        assert!(self.n >= 2, "need at least two vertices");
        let mut rng = Rng::new(seed);
        let mut edges = Vec::new();
        let per_vertex = self.fill_degree / 2.0;
        for u in 0..self.n {
            // Expected `per_vertex` in-band edges via a whole + fractional draw.
            let mut count = per_vertex.floor() as u32;
            if rng.gen_bool(per_vertex.fract()) {
                count += 1;
            }
            for _ in 0..count {
                let offset = 1 + rng.gen_u32(self.band);
                let v = if rng.gen_bool(0.5) {
                    u.saturating_sub(offset)
                } else {
                    (u + offset).min(self.n - 1)
                };
                edges.push((u, v));
            }
            if self.long_range_p > 0.0 && rng.gen_bool(self.long_range_p) {
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
    use commorder_sparse::stats::{bandwidth, mean_index_distance};

    #[test]
    fn stays_in_band_without_long_range() {
        let g = Banded {
            n: 2000,
            band: 16,
            fill_degree: 6.0,
            long_range_p: 0.0,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        assert_well_formed(&g);
        assert!(bandwidth(&g) <= 16);
    }

    #[test]
    fn long_range_escapes_band() {
        let g = Banded {
            n: 2000,
            band: 16,
            fill_degree: 6.0,
            long_range_p: 0.2,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        assert!(bandwidth(&g) > 16);
        // But the bulk stays near the diagonal.
        assert!(mean_index_distance(&g) < 100.0);
    }

    #[test]
    fn density_close_to_requested() {
        let g = Banded {
            n: 4000,
            band: 32,
            fill_degree: 8.0,
            long_range_p: 0.0,
            scramble_ids: false,
        }
        .generate(2)
        .unwrap();
        let avg = g.nnz() as f64 / 4000.0;
        // Dedup and edge clamping at the boundary eat a little density.
        assert!((5.5..=8.5).contains(&avg), "avg degree = {avg}");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = Banded {
            n: 300,
            band: 8,
            fill_degree: 4.0,
            long_range_p: 0.1,
            scramble_ids: true,
        };
        assert_eq!(cfg.generate(3).unwrap(), cfg.generate(3).unwrap());
        assert_ne!(cfg.generate(3).unwrap(), cfg.generate(4).unwrap());
    }
}
