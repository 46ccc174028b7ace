use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// 2D grid/mesh graph with optional diagonal links and random perturbation.
///
/// Stands in for road networks and 2D CFD meshes: bounded degree (≤ 8),
/// enormous diameter, and — when `scramble_ids` is false — a generated
/// order that is already strongly diagonal (row-major scan order), like
/// mesh matrices published by solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid2d {
    /// Grid width (number of columns of vertices).
    pub width: u32,
    /// Grid height (number of rows of vertices).
    pub height: u32,
    /// Also connect diagonal neighbours (8-point stencil).
    pub diagonals: bool,
    /// Probability per vertex of one extra random long-range edge
    /// (models bridges/tunnels in road networks).
    pub shortcut_p: f64,
    /// Shuffle vertex IDs after generation.
    pub scramble_ids: bool,
}

impl Grid2d {
    /// Generates the mesh.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the vertex count overflows
    /// `u32`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(
            self.width > 0 && self.height > 0,
            "dimensions must be positive"
        );
        let n_u64 = u64::from(self.width) * u64::from(self.height);
        assert!(n_u64 <= u64::from(u32::MAX), "grid too large for u32 ids");
        let n = n_u64 as u32;
        let mut rng = Rng::new(seed);
        let at = |x: u32, y: u32| y * self.width + x;
        let mut edges = Vec::with_capacity(n as usize * 2);
        for y in 0..self.height {
            for x in 0..self.width {
                let u = at(x, y);
                if x + 1 < self.width {
                    edges.push((u, at(x + 1, y)));
                }
                if y + 1 < self.height {
                    edges.push((u, at(x, y + 1)));
                }
                if self.diagonals && x + 1 < self.width && y + 1 < self.height {
                    edges.push((u, at(x + 1, y + 1)));
                    edges.push((at(x + 1, y), at(x, y + 1)));
                }
                if self.shortcut_p > 0.0 && rng.gen_bool(self.shortcut_p) {
                    let v = rng.gen_u32(n);
                    edges.push((u, v));
                }
            }
        }
        if self.scramble_ids {
            let mut relabel: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut relabel);
            for e in &mut edges {
                e.0 = relabel[e.0 as usize];
                e.1 = relabel[e.1 as usize];
            }
        }
        undirected_csr(n, &edges)
    }
}

/// 3D grid graph (7-point stencil), standing in for 3D CFD /
/// electromagnetic solver matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid3d {
    /// Extent along x.
    pub nx: u32,
    /// Extent along y.
    pub ny: u32,
    /// Extent along z.
    pub nz: u32,
    /// Shuffle vertex IDs after generation.
    pub scramble_ids: bool,
}

impl Grid3d {
    /// Generates the mesh.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or the vertex count overflows `u32`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(
            self.nx > 0 && self.ny > 0 && self.nz > 0,
            "dimensions must be positive"
        );
        let n_u64 = u64::from(self.nx) * u64::from(self.ny) * u64::from(self.nz);
        assert!(n_u64 <= u64::from(u32::MAX), "grid too large for u32 ids");
        let n = n_u64 as u32;
        let at = |x: u32, y: u32, z: u32| (z * self.ny + y) * self.nx + x;
        let mut edges = Vec::with_capacity(n as usize * 3);
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    let u = at(x, y, z);
                    if x + 1 < self.nx {
                        edges.push((u, at(x + 1, y, z)));
                    }
                    if y + 1 < self.ny {
                        edges.push((u, at(x, y + 1, z)));
                    }
                    if z + 1 < self.nz {
                        edges.push((u, at(x, y, z + 1)));
                    }
                }
            }
        }
        if self.scramble_ids {
            let mut rng = Rng::new(seed);
            let mut relabel: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut relabel);
            for e in &mut edges {
                e.0 = relabel[e.0 as usize];
                e.1 = relabel[e.1 as usize];
            }
        }
        undirected_csr(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_well_formed;
    use commorder_sparse::stats::{bandwidth, DegreeStats};

    #[test]
    fn grid2d_has_bounded_degree_and_small_bandwidth() {
        let g = Grid2d {
            width: 30,
            height: 20,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        assert_well_formed(&g);
        assert_eq!(g.n_rows(), 600);
        let s = DegreeStats::from_degrees(&g.out_degrees());
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 2);
        // Row-major order keeps bandwidth == width.
        assert_eq!(bandwidth(&g), 30);
    }

    #[test]
    fn diagonals_raise_degree_to_eight() {
        let g = Grid2d {
            width: 10,
            height: 10,
            diagonals: true,
            shortcut_p: 0.0,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        let s = DegreeStats::from_degrees(&g.out_degrees());
        assert_eq!(s.max, 8);
    }

    #[test]
    fn scrambling_destroys_bandwidth() {
        let tidy = Grid2d {
            width: 50,
            height: 50,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: false,
        }
        .generate(2)
        .unwrap();
        let messy = Grid2d {
            width: 50,
            height: 50,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: true,
        }
        .generate(2)
        .unwrap();
        assert!(bandwidth(&messy) > bandwidth(&tidy) * 10);
        assert_eq!(messy.nnz(), tidy.nnz());
    }

    #[test]
    fn shortcuts_add_edges() {
        let base = Grid2d {
            width: 40,
            height: 40,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: false,
        }
        .generate(3)
        .unwrap();
        let with = Grid2d {
            width: 40,
            height: 40,
            diagonals: false,
            shortcut_p: 0.5,
            scramble_ids: false,
        }
        .generate(3)
        .unwrap();
        assert!(with.nnz() > base.nnz());
    }

    #[test]
    fn grid3d_seven_point_stencil() {
        let g = Grid3d {
            nx: 8,
            ny: 8,
            nz: 8,
            scramble_ids: false,
        }
        .generate(1)
        .unwrap();
        assert_well_formed(&g);
        assert_eq!(g.n_rows(), 512);
        let s = DegreeStats::from_degrees(&g.out_degrees());
        assert_eq!(s.max, 6);
        assert_eq!(s.min, 3);
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = Grid2d {
            width: 12,
            height: 12,
            diagonals: false,
            shortcut_p: 0.3,
            scramble_ids: true,
        };
        assert_eq!(cfg.generate(6).unwrap(), cfg.generate(6).unwrap());
    }
}
