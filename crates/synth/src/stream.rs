//! Streamed CSR construction for the million-row corpus tier.
//!
//! At the mega tier (1M–10M rows) a materialized `Vec<(u32, u32)>` edge
//! list alone is hundreds of megabytes: the difference between fitting
//! under the CI `ulimit -v` tripwire or not. An [`EdgeStream`] never
//! stores its edges. It re-derives them from its seed on each of the two
//! passes of [`CsrMatrix::from_undirected_edges`], so peak memory is the
//! mirrored column array plus one `u32` per row.

use commorder_sparse::{CsrMatrix, SparseError};

use crate::generators::RmatDescent;
use crate::rng::Rng;

/// Domain-separation constant for the relabel shuffle stream, so the
/// scramble table and the edge stream draw from independent sequences
/// and each pass can rebuild either without replaying the other.
const RELABEL_STREAM: u64 = 0x5EED_0FCA_B1E5_0FF5;

/// A replayable source of undirected edges.
///
/// Implementations must be deterministic in `(self, seed)`: two calls
/// to [`EdgeStream::for_each_edge`] with the same seed must visit the
/// exact same edge sequence. This is what lets the builder run two
/// passes without ever materializing the list.
pub trait EdgeStream {
    /// Number of vertices in the generated graph.
    fn n_vertices(&self) -> u32;

    /// Visits every undirected edge `{u, v}` exactly once per call.
    /// Self-loops and duplicates are permitted; the builder drops the
    /// former and collapses the latter.
    fn for_each_edge(&self, seed: u64, visit: &mut dyn FnMut(u32, u32));
}

/// Builds a symmetric pattern CSR matrix from a replayable edge stream
/// without materializing the edge list (see module docs).
///
/// # Errors
///
/// Returns [`SparseError::IndexOutOfBounds`] if the stream emits an
/// endpoint `>= n_vertices`, and [`SparseError::TooLarge`] if the
/// mirrored entry count would overflow `u32` offsets.
pub fn stream_undirected_csr(stream: &dyn EdgeStream, seed: u64) -> Result<CsrMatrix, SparseError> {
    CsrMatrix::from_undirected_edges(stream.n_vertices(), |visit| {
        stream.for_each_edge(seed, visit);
    })
}

/// Builds the seed-keyed relabel table shared by both passes: an
/// identity permutation shuffled by a domain-separated RNG stream.
fn relabel_table(n: u32, seed: u64) -> Vec<u32> {
    let mut table: Vec<u32> = (0..n).collect();
    Rng::new(seed ^ RELABEL_STREAM).shuffle(&mut table);
    table
}

/// R-MAT edge stream: the same per-edge quadrant descent as
/// [`crate::generators::Rmat`] (one shared step), replayable because
/// each pass re-seeds the generator instead of storing edges. IDs are
/// always scrambled (through a table drawn from an independent RNG
/// stream) so the published order carries no quadrant locality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedRmat {
    /// log2 of the vertex count (`n = 2^scale`).
    pub scale: u32,
    /// Target average degree (each vertex gets `avg_degree / 2` emitted
    /// edges before mirroring and dedup).
    pub avg_degree: f64,
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl StreamedRmat {
    /// Graph500-style defaults at a given scale and degree.
    #[must_use]
    pub fn graph500(scale: u32, avg_degree: f64) -> Self {
        StreamedRmat {
            scale,
            avg_degree,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

impl EdgeStream for StreamedRmat {
    fn n_vertices(&self) -> u32 {
        1u32 << self.scale
    }

    fn for_each_edge(&self, seed: u64, visit: &mut dyn FnMut(u32, u32)) {
        let n = self.n_vertices();
        let m = (f64::from(n) * self.avg_degree / 2.0).round() as u64;
        let relabel = relabel_table(n, seed);
        let descent = RmatDescent::new(self.scale, self.a, self.b, self.c);
        let mut rng = Rng::new(seed);
        for _ in 0..m {
            let (u, v) = descent.edge(&mut rng);
            visit(relabel[u as usize], relabel[v as usize]);
        }
    }
}

/// Planted-community edge stream: `n` vertices split into equal-width
/// communities; each vertex draws `intra_degree / 2` partners from its
/// own community plus a cross-community partner with probability
/// `mixing`. Per-vertex RNG streams keep the sequence replayable and
/// independent of visit order. IDs are scrambled like [`StreamedRmat`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedCommunity {
    /// Vertex count.
    pub n: u32,
    /// Community count (must divide into `n` reasonably evenly).
    pub communities: u32,
    /// Target intra-community degree per vertex.
    pub intra_degree: f64,
    /// Probability a vertex also draws one cross-community edge.
    pub mixing: f64,
}

impl EdgeStream for StreamedCommunity {
    fn n_vertices(&self) -> u32 {
        self.n
    }

    fn for_each_edge(&self, seed: u64, visit: &mut dyn FnMut(u32, u32)) {
        let width = (self.n / self.communities).max(1);
        let per_vertex = (self.intra_degree / 2.0).round() as u32;
        let relabel = relabel_table(self.n, seed);
        for v in 0..self.n {
            let mut rng = Rng::new(seed ^ (u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let base = (v / width) * width;
            let span = width.min(self.n - base);
            for _ in 0..per_vertex {
                let u = base + rng.gen_u32(span);
                visit(relabel[v as usize], relabel[u as usize]);
            }
            if rng.next_f64() < self.mixing {
                let u = rng.gen_u32(self.n);
                visit(relabel[v as usize], relabel[u as usize]);
            }
        }
    }
}

/// K-mer chain edge stream: `n` vertices in chains, each chain a path
/// with occasional short-range branch edges. Chains never connect to
/// each other, so the graph decomposes into islands.
///
/// Chain lengths can be heterogeneous, mirroring real assembly graphs
/// (a few long contigs among many short fragments): the first
/// `long_vertices` ids are laid out as chains of `chain_len`, the rest
/// as chains of `short_len`. A short island quiesces in few detection
/// sweeps, while the global sweep keeps visiting the surviving
/// aggregates of every island until the longest chain converges. With
/// `short_len == 0` all chains are `chain_len` long (uniform layout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedKmerChain {
    /// Vertex count.
    pub n: u32,
    /// Path length of chains in the long region (the last chain of a
    /// region may be shorter).
    pub chain_len: u32,
    /// Path length of chains in the short region; `0` disables the
    /// split and lays the whole range out in `chain_len` chains.
    pub short_len: u32,
    /// Vertices occupied by long chains (ignored when `short_len == 0`).
    pub long_vertices: u32,
    /// Probability a vertex also branches to another vertex in its own
    /// chain.
    pub branch_p: f64,
}

impl StreamedKmerChain {
    /// Island base and span for vertex `v` — O(1), so the edge stream
    /// stays one pass with no per-chain state.
    fn island_of(&self, v: u32) -> (u32, u32) {
        let long = self.chain_len.max(2);
        if self.short_len == 0 || v < self.long_vertices.min(self.n) {
            let bound = if self.short_len == 0 {
                self.n
            } else {
                self.long_vertices.min(self.n)
            };
            let base = (v / long) * long;
            (base, long.min(bound - base))
        } else {
            let short = self.short_len.max(2);
            let start = self.long_vertices.min(self.n);
            let base = start + ((v - start) / short) * short;
            (base, short.min(self.n - base))
        }
    }
}

impl EdgeStream for StreamedKmerChain {
    fn n_vertices(&self) -> u32 {
        self.n
    }

    fn for_each_edge(&self, seed: u64, visit: &mut dyn FnMut(u32, u32)) {
        for v in 0..self.n {
            let (base, span) = self.island_of(v);
            if v + 1 < base + span {
                visit(v, v + 1);
            }
            let mut rng = Rng::new(seed ^ (u64::from(v).wrapping_mul(0xD134_2543_DE82_EF95)));
            if span > 2 && rng.next_f64() < self.branch_p {
                visit(v, base + rng.gen_u32(span));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_well_formed;

    #[test]
    fn streamed_rmat_is_well_formed_and_deterministic() {
        let cfg = StreamedRmat::graph500(10, 6.0);
        let a = stream_undirected_csr(&cfg, 7).unwrap();
        let b = stream_undirected_csr(&cfg, 7).unwrap();
        assert_well_formed(&a);
        assert_eq!(a, b);
        assert_ne!(a, stream_undirected_csr(&cfg, 8).unwrap());
        assert_eq!(a.n_rows(), 1024);
        assert!(a.is_symmetric());
    }

    #[test]
    fn streamed_community_has_block_structure() {
        let cfg = StreamedCommunity {
            n: 2048,
            communities: 16,
            intra_degree: 8.0,
            mixing: 0.05,
        };
        let g = stream_undirected_csr(&cfg, 11).unwrap();
        assert_well_formed(&g);
        assert!(g.is_symmetric());
        // Mean degree should be near intra_degree (mirrored halves).
        let mean = g.nnz() as f64 / f64::from(g.n_rows());
        assert!((4.0..=12.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn streamed_kmer_decomposes_into_chain_islands() {
        let cfg = StreamedKmerChain {
            n: 4096,
            chain_len: 64,
            short_len: 0,
            long_vertices: 0,
            branch_p: 0.1,
        };
        let g = stream_undirected_csr(&cfg, 5).unwrap();
        assert_well_formed(&g);
        let (_, islands) = commorder_sparse::ops::connected_components(&g).unwrap();
        assert_eq!(islands, 4096 / 64);
    }

    #[test]
    fn streamed_kmer_chain_splits_long_and_short_regions() {
        let cfg = StreamedKmerChain {
            n: 4096,
            chain_len: 256,
            short_len: 32,
            long_vertices: 1024,
            branch_p: 0.1,
        };
        let g = stream_undirected_csr(&cfg, 5).unwrap();
        assert_well_formed(&g);
        let (_, islands) = commorder_sparse::ops::connected_components(&g).unwrap();
        // 4 long chains of 256 plus 96 short chains of 32.
        assert_eq!(islands, 1024 / 256 + (4096 - 1024) / 32);
    }
}
