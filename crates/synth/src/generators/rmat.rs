use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::undirected_csr;
use crate::rng::Rng;

/// Recursive-MATrix (R-MAT / stochastic Kronecker) generator.
///
/// Each edge recursively descends into one of the four adjacency-matrix
/// quadrants with probabilities `(a, b, c, 1-a-b-c)`. The Graph500 default
/// `(0.57, 0.19, 0.19, 0.05)` yields the heavy power-law skew of social
/// networks — the regime where the paper shows RABBIT's community
/// detection degrades (§V-B: skew vs. insularity correlation −0.721).
///
/// Vertex IDs are scrambled before emission so that the generated order
/// carries no locality (R-MAT's raw IDs leak quadrant structure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rmat {
    /// log2 of the vertex count (`n = 2^scale`).
    pub scale: u32,
    /// Target average degree.
    pub avg_degree: f64,
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// When `true`, vertex IDs are randomly relabelled (recommended; see
    /// struct docs).
    pub scramble_ids: bool,
}

impl Rmat {
    /// Graph500-style defaults at a given scale and degree.
    #[must_use]
    pub fn graph500(scale: u32, avg_degree: f64) -> Self {
        Rmat {
            scale,
            avg_degree,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            scramble_ids: true,
        }
    }

    /// A milder parameterization (less skew, more symmetric quadrants).
    #[must_use]
    pub fn mild(scale: u32, avg_degree: f64) -> Self {
        Rmat {
            scale,
            avg_degree,
            a: 0.45,
            b: 0.22,
            c: 0.22,
            scramble_ids: true,
        }
    }

    /// Generates the graph.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the sparse layer.
    ///
    /// # Panics
    ///
    /// Panics if the quadrant probabilities are not a sub-distribution
    /// (`a + b + c >= 1` or any negative) or `scale >= 31`.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        assert!(self.scale < 31, "scale must keep n within u32");
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.a + self.b + self.c < 1.0,
            "quadrant probabilities must form a sub-distribution"
        );
        let n = 1u32 << self.scale;
        let m = (f64::from(n) * self.avg_degree / 2.0).round() as usize;
        let descent = RmatDescent::new(self.scale, self.a, self.b, self.c);
        let mut rng = Rng::new(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push(descent.edge(&mut rng));
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

/// The quadrant descent shared by [`Rmat`] and
/// [`crate::stream::StreamedRmat`]: `scale` levels per edge, one
/// `next_f64` draw per level, most significant bit first.
///
/// A draw `x` picks top-left below `a`, top-right below `a + b`,
/// bottom-left below `a + b + c` and bottom-right otherwise. The
/// outcome is a coin flip no branch predictor can learn, so each level
/// sets its bits from comparisons instead of branching. The thresholds
/// are summed once, `a + b` and then `(a + b) + c`: the `f64`
/// association the corpus was drawn with, so every draw lands in the
/// quadrant the tests' reference `if` chain picks and every corpus
/// matrix keeps its bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RmatDescent {
    scale: u32,
    a: f64,
    ab: f64,
    abc: f64,
}

impl RmatDescent {
    pub(crate) fn new(scale: u32, a: f64, b: f64, c: f64) -> Self {
        let ab = a + b;
        RmatDescent {
            scale,
            a,
            ab,
            abc: ab + c,
        }
    }

    /// The `(u, v)` bits of one level for the draw `x`.
    #[inline]
    fn step(&self, x: f64) -> (u32, u32) {
        let u = x >= self.ab;
        let v = ((self.a <= x) & (x < self.ab)) | (x >= self.abc);
        (u32::from(u), u32::from(v))
    }

    /// One edge `(u, v)`, drawing `scale` numbers from `rng`.
    #[inline]
    pub(crate) fn edge(&self, rng: &mut Rng) -> (u32, u32) {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..self.scale {
            let (du, dv) = self.step(rng.next_f64());
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_well_formed;
    use commorder_sparse::stats::skew_top10;

    /// The `if` chain both generators ran before [`RmatDescent`]: the
    /// reference the branch-free step must match.
    fn chain_step(a: f64, b: f64, c: f64, x: f64) -> (u32, u32) {
        if x < a {
            (0, 0)
        } else if x < a + b {
            (0, 1)
        } else if x < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn step_matches_the_if_chain_at_every_threshold() {
        let params = [
            (0.57, 0.19, 0.19), // graph500
            (0.45, 0.22, 0.22), // mild
            (0.6, 0.0, 0.3),    // b = 0
            (0.5, 0.3, 0.0),    // c = 0
        ];
        for (a, b, c) in params {
            let descent = RmatDescent::new(1, a, b, c);
            let mut draws = vec![0.5, 1.0f64.next_down()];
            for t in [0.0, a, a + b, a + b + c] {
                draws.extend([t, t.next_down(), t.next_up()]);
            }
            for x in draws {
                assert_eq!(
                    descent.step(x),
                    chain_step(a, b, c, x),
                    "a={a} b={b} c={c} x={x:e}"
                );
            }
        }
    }

    #[test]
    fn graph500_is_heavily_skewed() {
        let g = Rmat::graph500(12, 16.0).generate(1).unwrap();
        assert_well_formed(&g);
        let skew = skew_top10(&g);
        assert!(skew > 0.35, "graph500 skew should be heavy, got {skew}");
    }

    #[test]
    fn mild_is_less_skewed_than_graph500() {
        let heavy = skew_top10(&Rmat::graph500(11, 8.0).generate(2).unwrap());
        let mild = skew_top10(&Rmat::mild(11, 8.0).generate(2).unwrap());
        assert!(mild < heavy, "mild {mild} vs heavy {heavy}");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = Rmat::graph500(8, 4.0);
        assert_eq!(cfg.generate(5).unwrap(), cfg.generate(5).unwrap());
        assert_ne!(cfg.generate(5).unwrap(), cfg.generate(6).unwrap());
    }

    #[test]
    #[should_panic(expected = "sub-distribution")]
    fn rejects_bad_probabilities() {
        let _ = Rmat {
            scale: 4,
            avg_degree: 2.0,
            a: 0.6,
            b: 0.3,
            c: 0.2,
            scramble_ids: false,
        }
        .generate(0);
    }

    #[test]
    fn scrambling_changes_layout_not_shape() {
        let mut cfg = Rmat::graph500(9, 6.0);
        cfg.scramble_ids = false;
        let raw = cfg.generate(3).unwrap();
        cfg.scramble_ids = true;
        let scr = cfg.generate(3).unwrap();
        assert_eq!(raw.n_rows(), scr.n_rows());
        // Same edge-generation stream, so nnz matches up to dedup noise.
        let ratio = raw.nnz() as f64 / scr.nnz() as f64;
        assert!((0.95..=1.05).contains(&ratio));
        // Scrambled layout should be much less diagonal-concentrated.
        assert!(
            commorder_sparse::stats::mean_index_distance(&scr)
                > commorder_sparse::stats::mean_index_distance(&raw) * 0.5
        );
    }
}
