//! GORDER (Wei, Yu, Lu, Lin — SIGMOD'16): greedy ordering that maximizes
//! a sliding-window locality score.
//!
//! The score between two vertices is `S(u,v) = Sₙ(u,v) + Sₛ(u,v)`:
//! `Sₙ` is 1 when they are adjacent, `Sₛ` counts common in-neighbours.
//! Vertices are emitted greedily, each time picking the vertex with the
//! highest total score against the last `w` emitted vertices. A *unit
//! heap* (bucketed priority queue with O(1) unit increments/decrements)
//! makes each update constant time, exactly as in the reference
//! implementation.
//!
//! GORDER is the paper's "effective but impractically slow" baseline: its
//! pre-processing cost scales with `Σ_u d(u)²` and dominates Fig. 9. The
//! `hub_threshold` knob bounds that quadratic blow-up by skipping score
//! propagation *through* ultra-high-degree intermediate vertices (a
//! standard practical concession; set it to `u32::MAX` for the exact
//! algorithm).

use commorder_sparse::{ops, CsrMatrix, Permutation, SparseError};

use crate::Reordering;

/// GORDER configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gorder {
    /// Sliding-window size (the paper and reference implementation use 5).
    pub window: u32,
    /// Skip score propagation through intermediate vertices with degree
    /// above this bound (see module docs).
    pub hub_threshold: u32,
}

impl Default for Gorder {
    fn default() -> Self {
        Gorder {
            window: 5,
            hub_threshold: 256,
        }
    }
}

/// Bucketed max-priority queue over vertices with unit-step key changes.
struct UnitHeap {
    key: Vec<u32>,
    /// Doubly-linked list threading: `prev[v]` / `next[v]`, `u32::MAX` = none.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// `head[k]` = first vertex in bucket `k`.
    head: Vec<u32>,
    max_key: u32,
    placed: Vec<bool>,
    remaining: usize,
}

const NONE: u32 = u32::MAX;

impl UnitHeap {
    fn new(n: usize) -> Self {
        let mut heap = UnitHeap {
            key: vec![0; n],
            prev: vec![NONE; n],
            next: vec![NONE; n],
            head: vec![NONE; 1],
            max_key: 0,
            placed: vec![false; n],
            remaining: n,
        };
        // Link everything into bucket 0 (insertion order preserved).
        for v in (0..n as u32).rev() {
            heap.link(v, 0);
        }
        heap
    }

    fn link(&mut self, v: u32, k: u32) {
        if self.head.len() <= k as usize {
            self.head.resize(k as usize + 1, NONE);
        }
        let old_head = self.head[k as usize];
        self.next[v as usize] = old_head;
        self.prev[v as usize] = NONE;
        if old_head != NONE {
            self.prev[old_head as usize] = v;
        }
        self.head[k as usize] = v;
        self.key[v as usize] = k;
        self.max_key = self.max_key.max(k);
    }

    fn unlink(&mut self, v: u32) {
        let (p, nx) = (self.prev[v as usize], self.next[v as usize]);
        if p != NONE {
            self.next[p as usize] = nx;
        } else {
            self.head[self.key[v as usize] as usize] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
        self.prev[v as usize] = NONE;
        self.next[v as usize] = NONE;
    }

    fn increment(&mut self, v: u32) {
        if self.placed[v as usize] {
            return;
        }
        let k = self.key[v as usize];
        self.unlink(v);
        self.link(v, k + 1);
    }

    fn decrement(&mut self, v: u32) {
        if self.placed[v as usize] {
            return;
        }
        let k = self.key[v as usize];
        debug_assert!(k > 0, "decrement below zero");
        self.unlink(v);
        self.link(v, k.saturating_sub(1));
    }

    /// Removes and returns the vertex with the largest key.
    fn extract_max(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let h = self.head[self.max_key as usize];
            if h != NONE {
                self.unlink(h);
                self.placed[h as usize] = true;
                self.remaining -= 1;
                return Some(h);
            }
            if self.max_key == 0 {
                return None;
            }
            self.max_key -= 1;
        }
    }

    /// Removes a specific vertex (used to seed the sequence).
    fn extract(&mut self, v: u32) {
        debug_assert!(!self.placed[v as usize]);
        self.unlink(v);
        self.placed[v as usize] = true;
        self.remaining -= 1;
    }
}

impl Gorder {
    /// Applies the score delta of vertex `v` entering (+1) or leaving (-1)
    /// the window.
    fn apply_window_delta(&self, sym: &CsrMatrix, heap: &mut UnitHeap, v: u32, enter: bool) {
        let bump = |heap: &mut UnitHeap, w: u32| {
            if enter {
                heap.increment(w);
            } else {
                heap.decrement(w);
            }
        };
        let (neigh, _) = sym.row(v);
        for &u in neigh {
            // Sₙ: u adjacent to v.
            bump(heap, u);
            // Sₛ: any w adjacent to u shares in-neighbour u with v.
            if sym.row_degree(u) <= self.hub_threshold {
                let (two_hop, _) = sym.row(u);
                for &w in two_hop {
                    if w != v {
                        bump(heap, w);
                    }
                }
            }
        }
    }
}

impl Reordering for Gorder {
    fn name(&self) -> &str {
        "GORDER"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        if self.window == 0 {
            return Err(SparseError::DimensionMismatch {
                expected: "window >= 1".to_string(),
                found: "window == 0".to_string(),
            });
        }
        let sym = ops::symmetric_pattern(a)?;
        let n = sym.n_rows();
        if n == 0 {
            return Ok(Permutation::identity(0));
        }
        let mut heap = UnitHeap::new(n as usize);
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);

        // Seed with the maximum-degree vertex (reference implementation).
        #[expect(
            clippy::expect_used,
            reason = "n == 0 returned above, so 0..n is non-empty"
        )]
        let start = (0..n).max_by_key(|&v| sym.row_degree(v)).expect("n > 0");
        heap.extract(start);
        order.push(start);
        self.apply_window_delta(&sym, &mut heap, start, true);

        while let Some(v) = heap.extract_max() {
            order.push(v);
            // Slide the window: the vertex `window` positions back leaves.
            if order.len() > self.window as usize {
                let leaving = order[order.len() - 1 - self.window as usize];
                self.apply_window_delta(&sym, &mut heap, leaving, false);
            }
            self.apply_window_delta(&sym, &mut heap, v, true);
        }
        debug_assert_eq!(order.len(), n as usize);
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
    fn unit_heap_extracts_in_key_order() {
        let mut h = UnitHeap::new(4);
        h.increment(2);
        h.increment(2);
        h.increment(1);
        assert_eq!(h.extract_max(), Some(2));
        assert_eq!(h.extract_max(), Some(1));
        // Remaining two have key 0; insertion-order head wins.
        let rest = [h.extract_max().unwrap(), h.extract_max().unwrap()];
        assert!(rest.contains(&0) && rest.contains(&3));
        assert_eq!(h.extract_max(), None);
    }

    #[test]
    fn unit_heap_decrement_reorders() {
        let mut h = UnitHeap::new(3);
        h.increment(0);
        h.increment(0);
        h.increment(1);
        h.decrement(0);
        h.decrement(0); // 0 back to key 0
        assert_eq!(h.extract_max(), Some(1));
    }

    #[test]
    fn unit_heap_ignores_placed_vertices() {
        let mut h = UnitHeap::new(2);
        h.extract(1);
        h.increment(1); // no-op
        assert_eq!(h.extract_max(), Some(0));
        assert_eq!(h.extract_max(), None);
    }

    #[test]
    fn gorder_emits_adjacent_vertices_consecutively_on_a_clique_pair() {
        // Two disjoint triangles; each triangle should be emitted as a
        // contiguous block.
        let entries: Vec<_> = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
            .iter()
            .flat_map(|&(u, v)| [(u, v, 1.0), (v, u, 1.0)])
            .collect();
        let g = CsrMatrix::try_from(CooMatrix::from_entries(6, 6, entries).unwrap()).unwrap();
        let p = Gorder::default().reorder(&g).unwrap();
        let group_of = |v: u32| if p.new_of(v) < 3 { 0 } else { 1 };
        assert_eq!(group_of(0), group_of(1));
        assert_eq!(group_of(1), group_of(2));
        assert_eq!(group_of(3), group_of(4));
        assert_eq!(group_of(4), group_of(5));
        assert_ne!(group_of(0), group_of(3));
    }

    #[test]
    fn gorder_improves_locality_on_scrambled_communities() {
        let g = PlantedPartition::uniform(600, 20, 8.0, 0.05)
            .generate(11)
            .unwrap();
        let scramble = crate::RandomOrder::new(3).reorder(&g).unwrap();
        let messy = g.permute_symmetric(&scramble).unwrap();
        let p = Gorder::default().reorder(&messy).unwrap();
        let fixed = messy.permute_symmetric(&p).unwrap();
        assert!(
            mean_index_distance(&fixed) < mean_index_distance(&messy) * 0.5,
            "gorder should halve mean index distance"
        );
    }

    #[test]
    fn gorder_rejects_zero_window() {
        let g = CsrMatrix::empty(2);
        assert!(Gorder {
            window: 0,
            hub_threshold: 256
        }
        .reorder(&g)
        .is_err());
    }

    #[test]
    fn gorder_handles_empty_and_disconnected() {
        assert!(Gorder::default()
            .reorder(&CsrMatrix::empty(0))
            .unwrap()
            .is_empty());
        let p = Gorder::default().reorder(&CsrMatrix::empty(5)).unwrap();
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn hub_threshold_changes_cost_not_validity() {
        let g = PlantedPartition::uniform(300, 10, 6.0, 0.2)
            .generate(12)
            .unwrap();
        let exact = Gorder {
            window: 5,
            hub_threshold: u32::MAX,
        }
        .reorder(&g)
        .unwrap();
        let capped = Gorder {
            window: 5,
            hub_threshold: 4,
        }
        .reorder(&g)
        .unwrap();
        assert_eq!(exact.len(), 300);
        assert_eq!(capped.len(), 300);
    }
}
