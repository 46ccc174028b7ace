//! Label-propagation ordering — a lightweight cousin of Boldi et al.'s
//! Layered Label Propagation (\[10\] in the paper, the algorithm behind
//! sk-2005's publisher ordering).
//!
//! Each vertex starts with its own label; for a fixed number of rounds
//! (or until quiescent) every vertex adopts the most frequent label among
//! its neighbours (ties broken toward the smallest label, updates applied
//! in-place in vertex order — fully deterministic). Vertices are then
//! ordered by `(label, original id)`, making each label class contiguous.
//!
//! Compared to RABBIT this finds flat communities without a modularity
//! objective or a hierarchy — a useful mid-point between degree-based
//! and modularity-based reordering in the experiment suite.

use std::collections::HashMap;

use commorder_sparse::{ops, CsrMatrix, Permutation, SparseError};

use crate::Reordering;

/// Label-propagation reordering configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelPropagation {
    /// Maximum propagation rounds (converges much earlier on most
    /// graphs; the reference uses tens of rounds).
    pub max_rounds: u32,
}

impl Default for LabelPropagation {
    fn default() -> Self {
        LabelPropagation { max_rounds: 16 }
    }
}

impl Reordering for LabelPropagation {
    fn name(&self) -> &str {
        "LABELPROP"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        // The pattern of `A ∪ Aᵀ`, read in place when `a` is its own
        // mirror; the diagonal is skipped below, as `ops::undirected`
        // would drop it.
        let sym = ops::symmetric_pattern(a)?;
        let n = sym.n_rows();
        let mut label: Vec<u32> = (0..n).collect();
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..self.max_rounds {
            let mut changed = false;
            for v in 0..n {
                let (neigh, _) = sym.row(v);
                counts.clear();
                for &u in neigh.iter().filter(|&&u| u != v) {
                    *counts.entry(label[u as usize]).or_insert(0) += 1;
                }
                // Most frequent label; ties toward the smallest label so
                // the result is independent of HashMap iteration order.
                // A vertex without neighbours keeps its label.
                let Some(best) = counts
                    .iter()
                    .map(|(&l, &c)| (c, std::cmp::Reverse(l)))
                    .max()
                    .map(|(_, std::cmp::Reverse(l))| l)
                else {
                    continue;
                };
                if best != label[v as usize] {
                    label[v as usize] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&v| (label[v as usize], v));
        Permutation::from_order(&order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::stats::mean_index_distance;
    use commorder_sparse::CooMatrix;
    use commorder_synth::generators::PlantedPartition;

    #[test]
    fn groups_two_cliques() {
        // Two 4-cliques joined by one edge.
        let mut entries = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    entries.push((base + i, base + j, 1.0));
                    entries.push((base + j, base + i, 1.0));
                }
            }
        }
        entries.push((3, 4, 1.0));
        entries.push((4, 3, 1.0));
        let g = CsrMatrix::try_from(CooMatrix::from_entries(8, 8, entries).unwrap()).unwrap();
        let p = LabelPropagation::default().reorder(&g).unwrap();
        // Each clique must occupy a contiguous ID block.
        let block = |v: u32| p.new_of(v) / 4;
        assert_eq!(block(0), block(1));
        assert_eq!(block(1), block(2));
        assert_eq!(block(5), block(6));
        assert_eq!(block(6), block(7));
    }

    #[test]
    fn self_loops_do_not_vote() {
        // A mirrored path 0-1-2-3 with a self-loop on every vertex orders
        // exactly as the loop-free path does.
        let path = |loops: bool| {
            let mut entries = vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)];
            entries.extend([(2, 3, 1.0), (3, 2, 1.0)]);
            if loops {
                entries.extend((0..4).map(|v| (v, v, 5.0)));
            }
            CsrMatrix::try_from(CooMatrix::from_entries(4, 4, entries).unwrap()).unwrap()
        };
        let lp = LabelPropagation::default();
        assert_eq!(
            lp.reorder(&path(true)).unwrap(),
            lp.reorder(&path(false)).unwrap()
        );
        // A vertex whose only entry is its own loop keeps its label.
        let lonely = CsrMatrix::new(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).unwrap();
        assert!(lp.reorder(&lonely).unwrap().is_identity());
    }

    #[test]
    fn restores_locality_on_scrambled_sbm() {
        let tidy = PlantedPartition::uniform(768, 12, 10.0, 0.02)
            .generate(15)
            .unwrap();
        let messy = tidy
            .permute_symmetric(&crate::RandomOrder::new(6).reorder(&tidy).unwrap())
            .unwrap();
        let p = LabelPropagation::default().reorder(&messy).unwrap();
        let fixed = messy.permute_symmetric(&p).unwrap();
        assert!(
            mean_index_distance(&fixed) < mean_index_distance(&messy) * 0.5,
            "label propagation should substantially localize: {} -> {}",
            mean_index_distance(&messy),
            mean_index_distance(&fixed)
        );
    }

    #[test]
    fn deterministic_and_total() {
        let g = PlantedPartition::uniform(256, 8, 6.0, 0.2)
            .generate(16)
            .unwrap();
        let a = LabelPropagation::default().reorder(&g).unwrap();
        let b = LabelPropagation::default().reorder(&g).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn handles_isolated_vertices_and_empty() {
        let p = LabelPropagation::default()
            .reorder(&CsrMatrix::empty(5))
            .unwrap();
        assert_eq!(p.len(), 5);
        assert!(LabelPropagation::default()
            .reorder(&CsrMatrix::empty(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_rounds_is_identity() {
        let g = PlantedPartition::uniform(64, 4, 4.0, 0.1)
            .generate(17)
            .unwrap();
        let p = LabelPropagation { max_rounds: 0 }.reorder(&g).unwrap();
        assert!(p.is_identity());
    }
}
