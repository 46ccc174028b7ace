//! Recursive graph-bisection ordering — the graph-partitioning family
//! (METIS \[24\] / GraphGrind \[39\]) the paper expects its insights to
//! extend to (§VII).
//!
//! Each vertex set is split into two halves by BFS level sets grown from
//! a pseudo-peripheral seed (a classic geometric bisection heuristic);
//! halves are ordered recursively and concatenated, so every recursion
//! level yields contiguous, roughly edge-separated blocks — a
//! partitioning analogue of RABBIT's hierarchical community ranges.

use std::collections::VecDeque;

use commorder_sparse::{ops, CsrMatrix, Permutation, SparseError};

use crate::Reordering;

/// Recursive-bisection reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bisection {
    /// Stop recursing below this block size (vertices); the block keeps
    /// BFS discovery order, which is already local.
    pub leaf_size: u32,
}

impl Default for Bisection {
    fn default() -> Self {
        Bisection { leaf_size: 64 }
    }
}

impl Bisection {
    /// BFS over `members` (restricted to the member set), one component
    /// at a time in member order; returns members in visit order. Flags
    /// in `in_set` are set on entry and cleared again by the walks.
    fn bfs_order(sym: &CsrMatrix, members: &[u32], in_set: &mut [bool]) -> Vec<u32> {
        for &v in members {
            in_set[v as usize] = true;
        }
        let mut order = Vec::with_capacity(members.len());
        for &seed in members {
            if in_set[seed as usize] {
                let _ = Self::bfs_collect(sym, seed, in_set, &mut order);
            }
        }
        debug_assert_eq!(order.len(), members.len());
        order
    }

    /// BFS from `start` over vertices flagged in `in_set`; visited
    /// vertices are *cleared* from `in_set` and pushed to `out`.
    /// Returns the last-visited (farthest) vertex.
    fn bfs_collect(sym: &CsrMatrix, start: u32, in_set: &mut [bool], out: &mut Vec<u32>) -> u32 {
        if !in_set[start as usize] {
            return start;
        }
        let mut queue = VecDeque::from([start]);
        in_set[start as usize] = false;
        out.push(start);
        let mut last = start;
        while let Some(v) = queue.pop_front() {
            last = v;
            let (cols, _) = sym.row(v);
            for &c in cols {
                if in_set[c as usize] {
                    in_set[c as usize] = false;
                    out.push(c);
                    queue.push_back(c);
                }
            }
        }
        last
    }
}

impl Reordering for Bisection {
    fn name(&self) -> &str {
        "BISECTION"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        if self.leaf_size == 0 {
            return Err(SparseError::DimensionMismatch {
                expected: "leaf_size >= 1".to_string(),
                found: "leaf_size == 0".to_string(),
            });
        }
        let sym = ops::symmetric_pattern(a)?;
        let n = sym.n_rows();
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        let mut in_set = vec![false; n as usize];
        // Explicit work stack of blocks to avoid recursion depth issues.
        let mut stack: Vec<Vec<u32>> = vec![(0..n).collect()];
        while let Some(block) = stack.pop() {
            if block.len() <= self.leaf_size as usize {
                // Leaf: BFS discovery order within the block.
                let ordered = Self::bfs_order(&sym, &block, &mut in_set);
                order.extend(ordered);
                continue;
            }
            // Bisect by BFS level sets: first half of the discovery order
            // vs. the rest (geometric split along the BFS frontier).
            let discovery = Self::bfs_order(&sym, &block, &mut in_set);
            let mid = discovery.len() / 2;
            let (first, second) = discovery.split_at(mid);
            // Process `first` before `second`: push in reverse.
            stack.push(second.to_vec());
            stack.push(first.to_vec());
        }
        debug_assert_eq!(order.len(), n as usize);
        Permutation::from_order(&order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::stats::mean_index_distance;
    use commorder_synth::generators::{Grid2d, PlantedPartition};

    #[test]
    fn recovers_mesh_locality() {
        let g = Grid2d {
            width: 40,
            height: 40,
            diagonals: false,
            shortcut_p: 0.0,
            scramble_ids: true,
        }
        .generate(81)
        .unwrap();
        let p = Bisection::default().reorder(&g).unwrap();
        let r = g.permute_symmetric(&p).unwrap();
        assert!(
            mean_index_distance(&r) < mean_index_distance(&g) * 0.25,
            "bisection should strongly localize a scrambled mesh: {} -> {}",
            mean_index_distance(&g),
            mean_index_distance(&r)
        );
    }

    #[test]
    fn groups_planted_communities_reasonably() {
        let g = PlantedPartition::uniform(512, 8, 8.0, 0.02)
            .generate(82)
            .unwrap();
        let scramble = crate::RandomOrder::new(4).reorder(&g).unwrap();
        let messy = g.permute_symmetric(&scramble).unwrap();
        let p = Bisection::default().reorder(&messy).unwrap();
        let r = messy.permute_symmetric(&p).unwrap();
        assert!(mean_index_distance(&r) < mean_index_distance(&messy) * 0.6);
    }

    #[test]
    fn valid_on_disconnected_graphs() {
        let g = CsrMatrix::empty(100);
        let p = Bisection::default().reorder(&g).unwrap();
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn rejects_zero_leaf() {
        assert!(Bisection { leaf_size: 0 }
            .reorder(&CsrMatrix::empty(2))
            .is_err());
    }

    #[test]
    fn deterministic() {
        let g = PlantedPartition::uniform(256, 8, 6.0, 0.1)
            .generate(83)
            .unwrap();
        assert_eq!(
            Bisection::default().reorder(&g).unwrap(),
            Bisection::default().reorder(&g).unwrap()
        );
    }
}
