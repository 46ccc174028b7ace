//! Graph-analytics kernels: PageRank and level-synchronous BFS.
//!
//! The paper frames matrix reordering as an optimization for "irregular
//! memory access workloads such as graph analytics and sparse linear
//! algebra kernels" — and RABBIT itself comes from the graph-processing
//! literature. These reference kernels (plus their traces in
//! `commorder-cachesim`) let the workspace demonstrate the graph side of
//! that claim.

use crate::{CsrMatrix, SparseError};

/// Distance marker for unreachable vertices in [`bfs_levels`].
pub const UNREACHED: u32 = u32::MAX;

/// Checks that `a` is a graph the kernels here can walk: a square
/// adjacency matrix. [`pagerank`] and the PageRank trace share it.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn check_graph(a: &CsrMatrix) -> Result<(), SparseError> {
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{} x {}", a.n_rows(), a.n_cols()),
        });
    }
    Ok(())
}

/// Checks that a BFS on `a` can start at `source`: `a` is a graph and
/// `source` one of its vertices. [`bfs_levels`] and the BFS trace share
/// it.
///
/// # Errors
///
/// As [`check_graph`], and [`SparseError::IndexOutOfBounds`] if
/// `source >= n`.
pub fn check_source(a: &CsrMatrix, source: u32) -> Result<(), SparseError> {
    check_graph(a)?;
    if source >= a.n_rows() {
        return Err(SparseError::IndexOutOfBounds {
            index: source,
            bound: a.n_rows(),
        });
    }
    Ok(())
}

/// Pull-based PageRank power iteration:
/// `pr'[v] = (1-d)/n + d · Σ_{u ∈ in(v)} pr[u] / outdeg(u)`.
///
/// `a` is interpreted as an adjacency matrix with `a[u][v] != 0` meaning
/// an edge `u -> v`; the pull traversal therefore walks `aᵀ`'s rows,
/// which for the (symmetric) evaluation corpus equals `a`'s rows.
/// Dangling vertices (out-degree 0) redistribute uniformly.
///
/// Returns the rank vector after `iterations` rounds (sums to 1).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
pub fn pagerank(a: &CsrMatrix, damping: f32, iterations: u32) -> Result<Vec<f32>, SparseError> {
    check_graph(a)?;
    let n = a.n_rows() as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let transpose = a.transpose();
    let out_degrees = a.out_degrees();
    let mut pr = vec![1.0 / n as f32; n];
    let mut next = vec![0f32; n];
    for _ in 0..iterations {
        // Dangling mass redistributes uniformly.
        let dangling: f32 = (0..n).filter(|&v| out_degrees[v] == 0).map(|v| pr[v]).sum();
        let base = (1.0 - damping) / n as f32 + damping * dangling / n as f32;
        for v in 0..a.n_rows() {
            let (in_neighbours, _) = transpose.row(v);
            let mut acc = 0f32;
            for &u in in_neighbours {
                acc += pr[u as usize] / out_degrees[u as usize] as f32;
            }
            next[v as usize] = base + damping * acc;
        }
        std::mem::swap(&mut pr, &mut next);
    }
    Ok(pr)
}

/// Level-synchronous BFS from `source`; returns the hop distance per
/// vertex ([`UNREACHED`] for vertices in other components).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square, and
/// [`SparseError::IndexOutOfBounds`] if `source >= n`.
pub fn bfs_levels(a: &CsrMatrix, source: u32) -> Result<Vec<u32>, SparseError> {
    check_source(a, source)?;
    let mut level = vec![UNREACHED; a.n_rows() as usize];
    level[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            let (neighbours, _) = a.row(u);
            for &v in neighbours {
                if level[v as usize] == UNREACHED {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    Ok(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn ring(n: u32) -> CsrMatrix {
        CsrMatrix::from_undirected_edges(n, |visit| (0..n).for_each(|v| visit(v, (v + 1) % n)))
            .unwrap()
    }

    #[test]
    fn pagerank_sums_to_one_and_is_uniform_on_regular_graphs() {
        let g = ring(16);
        let pr = pagerank(&g, 0.85, 20).unwrap();
        let sum: f32 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum = {sum}");
        for &p in &pr {
            assert!((p - 1.0 / 16.0).abs() < 1e-5, "non-uniform rank {p}");
        }
    }

    #[test]
    fn pagerank_ranks_hub_highest() {
        // Star: hub 0 receives from every leaf.
        let g = CsrMatrix::from_undirected_edges(10, |visit| (1..10).for_each(|v| visit(0, v)))
            .unwrap();
        let pr = pagerank(&g, 0.85, 30).unwrap();
        for v in 1..10 {
            assert!(pr[0] > pr[v], "hub must outrank leaf {v}");
        }
    }

    #[test]
    fn pagerank_handles_dangling_vertices() {
        // 0 -> 1, 1 has no out edges.
        let g = CsrMatrix::new(2, 2, vec![0, 1, 1], vec![1], vec![1.0]).unwrap();
        let pr = pagerank(&g, 0.85, 50).unwrap();
        let sum: f32 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(pr[1] > pr[0], "sink should accumulate rank");
    }

    #[test]
    fn bfs_distances_on_a_ring() {
        let g = ring(8);
        let level = bfs_levels(&g, 0).unwrap();
        assert_eq!(level, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        // Edge 0-1 plus isolated 2.
        let g = CsrMatrix::try_from(
            CooMatrix::from_entries(3, 3, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap(),
        )
        .unwrap();
        let level = bfs_levels(&g, 0).unwrap();
        assert_eq!(level, vec![0, 1, UNREACHED]);
    }

    #[test]
    fn bfs_rejects_bad_source() {
        assert!(bfs_levels(&ring(4), 9).is_err());
    }

    #[test]
    fn empty_graph() {
        assert!(pagerank(&CsrMatrix::empty(0), 0.85, 5).unwrap().is_empty());
    }
}
