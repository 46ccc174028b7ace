//! Address traces for the graph-analytics kernels (PageRank, BFS) —
//! the "graph analytics" half of the paper's framing.
//!
//! * **PageRank** (pull): per iteration, per vertex — transpose offsets,
//!   in-neighbour coords, the irregular `pr[u]` and `outdeg[u]` gathers,
//!   and the streaming `pr'[v]` store. Rank buffers ping-pong between
//!   iterations, so cross-iteration reuse is visible to the cache.
//! * **BFS** (push, level-synchronous): follows the *actual* frontier —
//!   per frontier vertex, its offsets and neighbour list, the irregular
//!   `level[v]` probe per edge, and a store for each newly discovered
//!   vertex. Data-dependent and sparse per level, unlike SpMV's full
//!   sweeps.
//!
//! Both kernels are exposed as replayable [`TraceSource`]s
//! ([`PagerankTrace`], [`BfsTrace`]): the trace is regenerated per
//! replay, never materialized. [`PagerankTrace::new`] precomputes the
//! transpose once so repeated replays (two-pass Belady) don't redo the
//! O(nnz) transposition; BFS recomputes its frontier per replay, which is
//! deterministic by construction.

use std::ops::Range;

use commorder_sparse::graph::{check_graph, check_source};
use commorder_sparse::{CsrMatrix, SparseError, ELEM_BYTES};

use crate::layout::{audited, extent, place, spans};
use crate::source::TraceSource;
use crate::trace::{read_bounds, Access};

/// Region lengths of the address map both graph kernels share: offsets,
/// coords, two rank buffers, out-degrees, levels and the frontier. Each
/// kernel reserves the other's arrays too: dropping them would move the
/// later arrays and every pinned trace hash with them.
fn graph_regions(a: &CsrMatrix) -> [u64; 7] {
    let n = u64::from(a.n_rows());
    [n + 1, a.nnz() as u64, n, n, n, n, n]
}

/// The arrays of [`graph_regions`] PageRank touches: offsets, coords,
/// both rank buffers and the out-degrees.
const PAGERANK_TOUCHES: [bool; 7] = [true, true, true, true, true, false, false];

/// The arrays of [`graph_regions`] BFS touches: offsets, coords, levels
/// and the frontier.
const BFS_TOUCHES: [bool; 7] = [true, true, false, false, false, true, true];

/// The spans of `a`'s graph address map that cover the arrays `touched`
/// marks.
fn graph_spans(a: &CsrMatrix, touched: [bool; 7]) -> Vec<Range<u64>> {
    let (bases, end) = place(graph_regions(a));
    spans(&bases, end, touched)
}

/// Replayable trace of pull-PageRank rounds over the transpose of the
/// matrix (for the symmetric corpus, `aᵀ = a`). The transpose is built
/// once at construction and shared by every replay.
pub struct PagerankTrace<'a> {
    a: &'a CsrMatrix,
    transpose: CsrMatrix,
    iterations: u32,
}

impl<'a> PagerankTrace<'a> {
    /// A source replaying `iterations` PageRank rounds on `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square.
    pub fn new(a: &'a CsrMatrix, iterations: u32) -> Result<Self, SparseError> {
        check_graph(a)?;
        Ok(PagerankTrace {
            a,
            transpose: a.transpose(),
            iterations,
        })
    }
}

impl TraceSource for PagerankTrace<'_> {
    fn len_hint(&self) -> Option<u64> {
        // Per iteration: 2 offset reads + 1 store per vertex, 3 reads per
        // edge entry.
        let n = u64::from(self.a.n_rows());
        let per_iter = 3 * n + 3 * self.a.nnz() as u64;
        Some(u64::from(self.iterations) * per_iter)
    }

    fn extent_hint(&self) -> Option<u64> {
        Some(extent(&graph_spans(self.a, PAGERANK_TOUCHES)))
    }

    fn replay(&self, raw_sink: &mut dyn FnMut(Access)) {
        let a = self.a;
        let ([offsets, coords, rank_a, rank_b, outdeg, _, _], _) = place(graph_regions(a));
        let mut sink = audited(graph_spans(a, PAGERANK_TOUCHES), raw_sink);
        for iter in 0..self.iterations {
            // Ping-pong: even iterations read rank_a / write rank_b.
            let (src, dst) = if iter % 2 == 0 {
                (rank_a, rank_b)
            } else {
                (rank_b, rank_a)
            };
            for v in 0..a.n_rows() {
                read_bounds(offsets, u64::from(v), &mut sink);
                let (in_neighbours, _) = self.transpose.row(v);
                let base = self.transpose.row_offsets()[v as usize] as u64;
                for (k, &u) in in_neighbours.iter().enumerate() {
                    sink(Access::read(coords + (base + k as u64) * ELEM_BYTES));
                    // Irregular gathers: pr[u] and outdeg[u].
                    sink(Access::read(src + u64::from(u) * ELEM_BYTES));
                    sink(Access::read(outdeg + u64::from(u) * ELEM_BYTES));
                }
                sink(Access::write(dst + u64::from(v) * ELEM_BYTES));
            }
        }
    }
}

/// Replayable trace of a push BFS from a source vertex, following the
/// real frontier. Each replay re-runs the traversal (deterministic, so
/// every replay emits the identical stream).
pub struct BfsTrace<'a> {
    a: &'a CsrMatrix,
    source: u32,
}

impl<'a> BfsTrace<'a> {
    /// A source replaying a BFS on `a` from `source`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square,
    /// and [`SparseError::IndexOutOfBounds`] if `source >= n`.
    pub fn new(a: &'a CsrMatrix, source: u32) -> Result<Self, SparseError> {
        check_source(a, source)?;
        Ok(BfsTrace { a, source })
    }
}

impl TraceSource for BfsTrace<'_> {
    fn extent_hint(&self) -> Option<u64> {
        Some(extent(&graph_spans(self.a, BFS_TOUCHES)))
    }

    fn replay(&self, raw_sink: &mut dyn FnMut(Access)) {
        let a = self.a;
        let ([offsets, coords, _, _, _, level, frontier_base], _) = place(graph_regions(a));
        let mut sink = audited(graph_spans(a, BFS_TOUCHES), raw_sink);
        let mut visited = vec![false; a.n_rows() as usize];
        visited[self.source as usize] = true;
        let mut frontier = vec![self.source];
        let mut frontier_cursor = 0u64; // streaming frontier array writes
        sink(Access::write(frontier_base));
        frontier_cursor += 1;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                read_bounds(offsets, u64::from(u), &mut sink);
                let (neighbours, _) = a.row(u);
                let base = a.row_offsets()[u as usize] as u64;
                for (k, &v) in neighbours.iter().enumerate() {
                    sink(Access::read(coords + (base + k as u64) * ELEM_BYTES));
                    // Irregular probe of level[v]; write on first discovery.
                    sink(Access::read(level + u64::from(v) * ELEM_BYTES));
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        sink(Access::write(level + u64::from(v) * ELEM_BYTES));
                        sink(Access::write(frontier_base + frontier_cursor * ELEM_BYTES));
                        frontier_cursor += 1;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;

    fn path4() -> CsrMatrix {
        let entries: Vec<_> = (0..3u32)
            .flat_map(|v| [(v, v + 1, 1.0), (v + 1, v, 1.0)])
            .collect();
        CsrMatrix::try_from(CooMatrix::from_entries(4, 4, entries).unwrap()).unwrap()
    }

    fn pagerank_trace(a: &CsrMatrix, iterations: u32) -> Vec<Access> {
        PagerankTrace::new(a, iterations).unwrap().collect_trace()
    }

    fn bfs_trace(a: &CsrMatrix, source: u32) -> Vec<Access> {
        BfsTrace::new(a, source).unwrap().collect_trace()
    }

    #[test]
    fn pagerank_trace_per_iteration_shape() {
        let a = path4();
        let one = pagerank_trace(&a, 1);
        let two = pagerank_trace(&a, 2);
        // Per iteration: 2 offset reads + 1 store per vertex, 3 reads per
        // edge entry.
        let per_iter = 4 * 3 + a.nnz() * 3;
        assert_eq!(one.len(), per_iter);
        assert_eq!(two.len(), 2 * per_iter);
        assert_eq!(one.iter().filter(|x| x.is_write()).count(), 4);
        // The hint is exact for PageRank.
        assert_eq!(
            PagerankTrace::new(&a, 2).unwrap().len_hint(),
            Some(two.len() as u64)
        );
    }

    #[test]
    fn pagerank_iterations_ping_pong_buffers() {
        let a = path4();
        let t = pagerank_trace(&a, 2);
        let writes: Vec<u64> = t
            .iter()
            .filter(|x| x.is_write())
            .map(|x| x.addr())
            .collect();
        // First iteration's 4 writes target one buffer, second's another.
        assert_eq!(writes.len(), 8);
        assert!(writes[..4]
            .iter()
            .all(|&w| w >= writes[0] && w < writes[0] + 16));
        assert!(writes[4] != writes[0]);
    }

    #[test]
    fn replays_are_deterministic() {
        let a = path4();
        let source = BfsTrace::new(&a, 0).unwrap();
        assert_eq!(source.collect_trace(), source.collect_trace());
        let pr = PagerankTrace::new(&a, 3).unwrap();
        assert_eq!(pr.collect_trace(), pr.collect_trace());
    }

    #[test]
    fn bfs_trace_discovers_every_vertex_once() {
        let a = path4();
        let t = bfs_trace(&a, 0);
        // Frontier writes = n (every vertex enters the frontier once on a
        // connected graph).
        let layout_frontier_writes = t.iter().filter(|x| x.is_write()).count();
        // level writes (3 discoveries) + frontier writes (4 including src).
        assert_eq!(layout_frontier_writes, 3 + 4);
    }

    #[test]
    fn bfs_trace_on_disconnected_graph_stays_in_component() {
        let a = CsrMatrix::try_from(
            CooMatrix::from_entries(4, 4, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap(),
        )
        .unwrap();
        let t = bfs_trace(&a, 0);
        // Only vertex 1 is discovered: 1 level write + 2 frontier writes.
        assert_eq!(t.iter().filter(|x| x.is_write()).count(), 3);
    }

    #[test]
    fn constructors_reject_what_the_kernels_reject() {
        // 3 x 2: no square adjacency matrix, so no PageRank or BFS.
        let rect = CsrMatrix::new(3, 2, vec![0, 1, 2, 2], vec![1, 0], vec![1.0; 2]).unwrap();
        assert!(matches!(
            PagerankTrace::new(&rect, 2),
            Err(SparseError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            BfsTrace::new(&rect, 0),
            Err(SparseError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            BfsTrace::new(&path4(), 4),
            Err(SparseError::IndexOutOfBounds { index: 4, bound: 4 })
        ));
    }
}
