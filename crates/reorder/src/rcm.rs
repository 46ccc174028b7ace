//! Reverse Cuthill–McKee ordering, plus the RCM++ bi-criteria variant.
//!
//! RCM is the classic bandwidth/profile-minimizing ordering the paper
//! cites among RABBIT's outperformed baselines (\[23\], Karantasis et al.).
//! Included as a reference point for the analysis extensions: BFS levels
//! from a pseudo-peripheral start vertex, neighbours visited in increasing
//! degree order, final order reversed.
//!
//! [`RcmPlusPlus`] swaps the George–Liu starting-node heuristic for the
//! bi-criteria node finder of RCM++ (Hou et al., arXiv 2409.04171):
//! instead of chasing BFS height alone, each round profiles a small set
//! of last-level candidates and keeps the one with the lexicographically
//! best *(height max, width min)* level structure — a narrow, deep BFS
//! tree is what actually minimizes the reordered bandwidth.

use std::collections::VecDeque;

use commorder_sparse::{ops, CsrMatrix, Permutation, SparseError};

use crate::Reordering;

/// Reverse Cuthill–McKee reordering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rcm;

/// Level structure of one BFS: its height (eccentricity), maximum level
/// width, and the minimum-degree vertices of the last level (the next
/// round's candidates).
struct BfsProfile {
    height: u32,
    width: u32,
    last_level: Vec<u32>,
}

/// BFS from `start` over unvisited vertices, recording the level
/// structure.
fn bfs_profile(sym: &CsrMatrix, start: u32, visited: &[bool]) -> BfsProfile {
    let n = sym.n_rows() as usize;
    let mut dist = vec![u32::MAX; n];
    dist[start as usize] = 0;
    let mut queue = VecDeque::from([start]);
    let mut last_level: Vec<u32> = vec![start];
    let mut height = 0u32;
    let mut width = 1u32;
    let mut level_count = 0u32;
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d > height {
            height = d;
            width = width.max(level_count);
            level_count = 0;
            last_level.clear();
        }
        level_count += 1;
        if d == height {
            last_level.push(v);
        }
        let (cols, _) = sym.row(v);
        for &c in cols {
            if dist[c as usize] == u32::MAX && !visited[c as usize] {
                dist[c as usize] = d + 1;
                queue.push_back(c);
            }
        }
    }
    width = width.max(level_count);
    BfsProfile {
        height,
        width,
        last_level,
    }
}

impl Rcm {
    /// Finds a pseudo-peripheral vertex of `start`'s component: repeat BFS
    /// from the farthest minimum-degree vertex until eccentricity stops
    /// growing (George–Liu heuristic, capped at a few rounds).
    fn pseudo_peripheral(sym: &CsrMatrix, start: u32, visited: &[bool]) -> u32 {
        let mut current = start;
        let mut best_ecc = 0u32;
        for _ in 0..4 {
            let (far, ecc) = Self::bfs_farthest(sym, current, visited);
            if ecc <= best_ecc {
                break;
            }
            best_ecc = ecc;
            current = far;
        }
        current
    }

    /// BFS from `start` over unvisited vertices; returns the farthest
    /// minimum-degree vertex in the last level and the eccentricity.
    fn bfs_farthest(sym: &CsrMatrix, start: u32, visited: &[bool]) -> (u32, u32) {
        let profile = bfs_profile(sym, start, visited);
        let far = profile
            .last_level
            .into_iter()
            .min_by_key(|&v| sym.row_degree(v))
            .unwrap_or(start);
        (far, profile.height)
    }
}

/// The shared Cuthill–McKee body: BFS each component from
/// `pick_start(component seed)`, neighbours in increasing degree order,
/// final order reversed.
fn rcm_order(
    a: &CsrMatrix,
    pick_start: impl Fn(&CsrMatrix, u32, &[bool]) -> u32,
) -> Result<Permutation, SparseError> {
    let sym = ops::symmetric_pattern(a)?;
    let n = sym.n_rows();
    let degrees: Vec<u32> = (0..n).map(|v| sym.row_degree(v)).collect();
    let mut visited = vec![false; n as usize];
    let mut order: Vec<u32> = Vec::with_capacity(n as usize);
    let mut scratch: Vec<u32> = Vec::new();
    // Iterate components in order of their minimum-degree member.
    let mut by_degree: Vec<u32> = (0..n).collect();
    by_degree.sort_by_key(|&v| degrees[v as usize]);
    for &seed in &by_degree {
        if visited[seed as usize] {
            continue;
        }
        let start = pick_start(&sym, seed, &visited);
        visited[start as usize] = true;
        let mut queue = VecDeque::from([start]);
        order.push(start);
        while let Some(v) = queue.pop_front() {
            let (cols, _) = sym.row(v);
            scratch.clear();
            scratch.extend(cols.iter().copied().filter(|&c| !visited[c as usize]));
            scratch.sort_by_key(|&c| degrees[c as usize]);
            for &c in &scratch {
                if !visited[c as usize] {
                    visited[c as usize] = true;
                    order.push(c);
                    queue.push_back(c);
                }
            }
        }
    }
    order.reverse();
    Permutation::from_order(&order)
}

impl Reordering for Rcm {
    fn name(&self) -> &str {
        "RCM"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        rcm_order(a, Rcm::pseudo_peripheral)
    }
}

/// RCM with the bi-criteria starting-node finder of RCM++ (Hou et al.,
/// arXiv 2409.04171).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcmPlusPlus {
    /// Last-level candidates profiled per refinement round (the paper's
    /// bounded candidate set; each costs one BFS).
    pub candidates: u32,
    /// Refinement rounds before settling on a start vertex.
    pub rounds: u32,
}

impl Default for RcmPlusPlus {
    fn default() -> Self {
        RcmPlusPlus {
            candidates: 8,
            rounds: 4,
        }
    }
}

impl RcmPlusPlus {
    /// Bi-criteria starting-node finder: from `seed`'s level structure,
    /// repeatedly profile up to `candidates` minimum-degree last-level
    /// vertices and move to the one with the lexicographically best
    /// *(height desc, width asc, id asc)* BFS profile, stopping when no
    /// candidate improves on the incumbent.
    fn bi_criteria_start(&self, sym: &CsrMatrix, seed: u32, visited: &[bool]) -> u32 {
        let mut current = seed;
        let profile = bfs_profile(sym, current, visited);
        let mut best_key = (profile.height, profile.width);
        let mut frontier = profile.last_level;
        for _ in 0..self.rounds {
            frontier.sort_by_key(|&v| (sym.row_degree(v), v));
            frontier.truncate(self.candidates as usize);
            let mut improved: Option<(u32, (u32, u32), Vec<u32>)> = None;
            for &cand in &frontier {
                if cand == current {
                    continue;
                }
                let p = bfs_profile(sym, cand, visited);
                let key = (p.height, p.width);
                // Better: strictly taller, or equally tall and narrower.
                let beats_incumbent =
                    key.0 > best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1);
                let beats_round = improved.as_ref().is_none_or(|(bc, bk, _)| {
                    key.0 > bk.0
                        || (key.0 == bk.0 && (key.1 < bk.1 || (key.1 == bk.1 && cand < *bc)))
                });
                if beats_incumbent && beats_round {
                    improved = Some((cand, key, p.last_level));
                }
            }
            match improved {
                Some((cand, key, last_level)) => {
                    current = cand;
                    best_key = key;
                    frontier = last_level;
                }
                None => break,
            }
        }
        current
    }
}

impl Reordering for RcmPlusPlus {
    fn name(&self) -> &str {
        "RCM++"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        rcm_order(a, |sym, seed, visited| {
            self.bi_criteria_start(sym, seed, visited)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::stats::bandwidth;
    use commorder_sparse::CooMatrix;

    fn path(n: u32) -> CsrMatrix {
        let entries: Vec<_> = (0..n - 1)
            .flat_map(|v| [(v, v + 1, 1.0), (v + 1, v, 1.0)])
            .collect();
        CsrMatrix::try_from(CooMatrix::from_entries(n, n, entries).unwrap()).unwrap()
    }

    #[test]
    fn rcm_recovers_path_bandwidth_after_scrambling() {
        let tidy = path(64);
        // Scramble with a fixed permutation.
        let scramble = crate::RandomOrder::new(9).reorder(&tidy).unwrap();
        let messy = tidy.permute_symmetric(&scramble).unwrap();
        assert!(bandwidth(&messy) > 10);
        let p = Rcm.reorder(&messy).unwrap();
        let fixed = messy.permute_symmetric(&p).unwrap();
        assert_eq!(bandwidth(&fixed), 1, "path must reorder to bandwidth 1");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two separate edges + an isolated vertex.
        let m = CsrMatrix::try_from(
            CooMatrix::from_entries(
                5,
                5,
                vec![(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
            )
            .unwrap(),
        )
        .unwrap();
        let p = Rcm.reorder(&m).unwrap();
        assert_eq!(p.len(), 5);
        let r = m.permute_symmetric(&p).unwrap();
        assert_eq!(r.nnz(), 4);
    }

    #[test]
    fn rcm_reduces_grid_bandwidth_versus_random() {
        use commorder_synth::generators::Grid2d;
        let g = Grid2d {
            width: 20,
            height: 20,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: true,
        }
        .generate(4)
        .unwrap();
        let before = bandwidth(&g);
        let p = Rcm.reorder(&g).unwrap();
        let after = bandwidth(&g.permute_symmetric(&p).unwrap());
        assert!(
            after * 3 < before,
            "bandwidth should drop sharply: {before} -> {after}"
        );
    }

    #[test]
    fn rcm_works_on_directed_input() {
        // Directed cycle — symmetrized internally.
        let m = CsrMatrix::try_from(
            CooMatrix::from_entries(
                4,
                4,
                vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
            )
            .unwrap(),
        )
        .unwrap();
        let p = Rcm.reorder(&m).unwrap();
        assert_eq!(p.len(), 4);
    }
}
