//! Community detection by incremental modularity-maximizing aggregation —
//! the algorithmic core of RABBIT (Arai et al., IPDPS'16; Newman–Girvan
//! modularity \[34\]).
//!
//! Vertices are visited in increasing-degree order; each vertex merges
//! into the neighbouring aggregate with the largest positive modularity
//! gain. Merges are recorded in a [`Dendrogram`], so the hierarchy of
//! communities ("people organized into cliques ... and, within each
//! group, sub-groups", §V-A) is preserved: a DFS of the dendrogram yields
//! an ordering in which every community *and every sub-community* is a
//! contiguous ID range. Additional sweeps over the surviving aggregates
//! (Louvain-style) continue until no merge improves modularity.
//!
//! The aggregation works on flat arrays: each aggregate's neighbours are
//! its row of the symmetrized CSR plus an appended run of
//! `(neighbour, weight)` entries inherited from merged aggregates, and a
//! visit consolidates them through one reused slot table. Weights are
//! therefore summed in a fixed order (CSR order, then merge order), so a
//! permutation depends only on the input matrix, real-valued or not.

use std::cmp::Ordering;

use commorder_exec::Engine;
use commorder_obs as obs;
use commorder_sparse::{ops, CsrMatrix, SparseError};

const NONE: u32 = u32::MAX;

/// Merge forest produced by community detection.
///
/// Every original vertex is a node; a merge of `v` into `u` makes `v` a
/// child of `u`. The roots that survive are the detected top-level
/// communities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dendrogram {
    /// The children of `u`, in merge order, are
    /// `child_ids[child_offsets[u]..child_offsets[u + 1]]`.
    child_offsets: Vec<u32>,
    child_ids: Vec<u32>,
    roots: Vec<u32>,
}

impl Dendrogram {
    /// The forest on `n` vertices built by `merges`, `(child, parent)`
    /// pairs in chronological order, each vertex a child at most once.
    fn from_merges(n: usize, merges: &[(u32, u32)]) -> Dendrogram {
        let mut child_offsets = vec![0u32; n + 1];
        let mut is_root = vec![true; n];
        for &(v, u) in merges {
            child_offsets[u as usize + 1] += 1;
            is_root[v as usize] = false;
        }
        for u in 0..n {
            child_offsets[u + 1] += child_offsets[u];
        }
        let mut cursor = child_offsets.clone();
        let mut child_ids = vec![0u32; merges.len()];
        for &(v, u) in merges {
            child_ids[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        let roots = (0..n as u32).filter(|&v| is_root[v as usize]).collect();
        Dendrogram {
            child_offsets,
            child_ids,
            roots,
        }
    }

    /// The children of `u`, earliest merge first.
    fn children(&self, u: u32) -> &[u32] {
        let lo = self.child_offsets[u as usize] as usize;
        let hi = self.child_offsets[u as usize + 1] as usize;
        &self.child_ids[lo..hi]
    }

    /// Number of original vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.child_offsets.len() - 1
    }

    /// `true` when there are no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving top-level aggregates (one per detected community),
    /// in ascending vertex-ID order.
    #[must_use]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Number of detected communities.
    #[must_use]
    pub fn community_count(&self) -> usize {
        self.roots.len()
    }

    /// Community ID per vertex, compacted to `0..community_count()` in
    /// root order.
    #[must_use]
    pub fn assignment(&self) -> Vec<u32> {
        let mut comm = vec![NONE; self.len()];
        for (cid, &root) in self.roots.iter().enumerate() {
            // Iterative subtree walk.
            let mut stack = vec![root];
            while let Some(v) = stack.pop() {
                comm[v as usize] = cid as u32;
                stack.extend_from_slice(self.children(v));
            }
        }
        debug_assert!(comm.iter().all(|&c| c != NONE));
        comm
    }

    /// Depth-first traversal: `order[k]` is the original vertex that
    /// receives new ID `k`. Each community — and, recursively, each
    /// sub-community absorbed during the hierarchy — occupies a
    /// contiguous range of new IDs.
    #[must_use]
    pub fn dfs_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.len());
        for &root in &self.roots {
            self.dfs_into(root, &mut order);
        }
        debug_assert_eq!(order.len(), self.len());
        order
    }

    /// [`Dendrogram::dfs_order`] with the per-root traversals fanned out
    /// over `engine`. Each root's subtree is independent, so chunking
    /// roots and concatenating the chunk orders in root order reproduces
    /// the serial traversal byte-for-byte at any thread count.
    #[must_use]
    pub fn dfs_order_with(&self, engine: &Engine) -> Vec<u32> {
        let chunks = crate::par::fixed_chunks(self.roots.len(), ROOTS_PER_CHUNK);
        if chunks.len() <= 1 {
            return self.dfs_order();
        }
        let segments: Vec<Vec<u32>> = engine.map(&chunks, |_, &(start, end)| {
            let mut order = Vec::new();
            for &root in &self.roots[start..end] {
                self.dfs_into(root, &mut order);
            }
            order
        });
        let mut order = Vec::with_capacity(self.len());
        for segment in segments {
            order.extend_from_slice(&segment);
        }
        debug_assert_eq!(order.len(), self.len());
        order
    }

    /// Appends the DFS of `root`'s subtree to `order`.
    fn dfs_into(&self, root: u32, order: &mut Vec<u32>) {
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            order.push(v);
            // Push children reversed so the earliest merge is visited
            // first (closest community member, deepest hierarchy).
            stack.extend(self.children(v).iter().rev().copied());
        }
    }

    /// Depth of every vertex in the merge forest (roots are depth 0) —
    /// the paper's "hierarchical community" nesting level per vertex.
    #[must_use]
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for &root in &self.roots {
            let mut stack = vec![(root, 0u32)];
            while let Some((v, d)) = stack.pop() {
                depth[v as usize] = d;
                stack.extend(self.children(v).iter().map(|&child| (child, d + 1)));
            }
        }
        depth
    }

    /// Maximum nesting depth of the hierarchy (0 for singleton forests).
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Sizes of the detected communities (vertex counts), in root order.
    #[must_use]
    pub fn community_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.roots.len()];
        for &c in &self.assignment() {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// Configuration for [`detect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Resolution parameter γ of the modularity gain (1.0 = classic
    /// Newman–Girvan; larger values favour smaller communities).
    pub resolution: f64,
    /// Maximum number of aggregation sweeps (the first sweep is the
    /// RABBIT incremental pass; further sweeps merge surviving
    /// aggregates Louvain-style until quiescent).
    pub max_passes: u32,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            resolution: 1.0,
            max_passes: 16,
        }
    }
}

/// Runs community detection on the undirected view of `a`.
///
/// Self-loops are ignored; directed inputs are symmetrized. Edge values
/// are used as weights (pattern matrices weigh every edge 1.0).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::NonFiniteValue`] if a weight is NaN or infinite.
pub fn detect(a: &CsrMatrix, config: DetectionConfig) -> Result<Dendrogram, SparseError> {
    detect_with(a, config, &Engine::serial())
}

/// [`detect`] for callers that carry an engine.
///
/// Detection is one serial aggregation sweep over global vertex ids;
/// `engine` is unused. It stays in the signature so every reorderer
/// phase takes the same arguments, and the result is a pure function of
/// `(a, config)`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::NonFiniteValue`] if a weight of `a`, or of `a + aᵀ`
/// (whose `f32` sums can overflow), is NaN or infinite.
pub fn detect_with(
    a: &CsrMatrix,
    config: DetectionConfig,
    _engine: &Engine,
) -> Result<Dendrogram, SparseError> {
    let _span = obs::span!("community.detect");
    check_finite(a)?;
    let sym = {
        let _sym_span = obs::span!("community.symmetrize");
        ops::undirected(a)?
    };
    check_finite(&sym)?;
    let n = sym.n_rows() as usize;

    // `strength[v]` is the summed weight of edges incident to v, in CSR
    // row order; `total_m` the summed weight of all edges (each
    // undirected edge once), in ascending vertex order.
    let strength: Vec<f64> = (0..sym.n_rows())
        .map(|v| {
            let (_, vals) = sym.row(v);
            vals.iter().map(|&w| f64::from(w)).sum::<f64>()
        })
        .collect();
    let total_m: f64 = strength.iter().sum::<f64>() / 2.0;
    if total_m == 0.0 {
        // Edgeless (or empty) graph: every vertex is its own community.
        return Ok(Dendrogram::from_merges(n, &[]));
    }

    let merges = aggregate(&sym, strength, total_m, &config);
    Ok(Dendrogram::from_merges(n, &merges))
}

/// Rejects the first NaN or infinite value of `m`, in row-major order.
fn check_finite(m: &CsrMatrix) -> Result<(), SparseError> {
    match m.values().iter().position(|w| !w.is_finite()) {
        None => Ok(()),
        Some(k) => {
            // Rows before the one holding entry `k` end at or before `k`.
            let row = m.row_offsets().partition_point(|&end| end as usize <= k) - 1;
            Err(SparseError::NonFiniteValue {
                row: row as u32,
                col: m.col_indices()[k],
            })
        }
    }
}

/// The RABBIT modularity aggregation: increasing-strength visit order,
/// best-positive-gain merge, smallest-ID tie-break, Louvain-style
/// re-sweeps until quiescent or `config.max_passes`. Returns the merges
/// `(child, parent)` in chronological order.
///
/// Adjacency lives in flat arrays. A live aggregate `v`'s neighbours are
/// its own row of `sym`, read at its first visit (every vertex with an
/// edge is visited on the first sweep, so later sweeps never read it),
/// followed by `runs[v]`: `(neighbour, weight)` entries appended by the
/// aggregates merged into `v`, uncombined, their neighbour ids possibly
/// stale. A visit consolidates them through the union-find into
/// `scratch`, with `slot[r]` holding the scratch index of live
/// neighbour `r` (`NONE` between visits). Each consolidated weight is
/// therefore summed in CSR order and then merge order, independent of
/// any hash seed.
fn aggregate(
    sym: &CsrMatrix,
    mut strength: Vec<f64>,
    total_m: f64,
    config: &DetectionConfig,
) -> Vec<(u32, u32)> {
    let n = sym.n_rows();
    let mut merges: Vec<(u32, u32)> = Vec::new();
    let mut runs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n as usize];
    let mut slot: Vec<u32> = vec![NONE; n as usize];
    let mut scratch: Vec<(u32, f64)> = Vec::new();

    // Union-find "top" pointers: maps any vertex to its live aggregate.
    let mut top: Vec<u32> = (0..n).collect();
    fn find(top: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while top[root as usize] != root {
            root = top[root as usize];
        }
        // Path compression.
        let mut cur = v;
        while top[cur as usize] != root {
            let next = top[cur as usize];
            top[cur as usize] = root;
            cur = next;
        }
        root
    }

    // Isolated vertices can neither merge nor be merged into, so they
    // never enter the sweep.
    let mut alive: Vec<u32> = (0..n).filter(|&v| sym.row_degree(v) > 0).collect();
    let mut next_alive: Vec<u32> = Vec::with_capacity(alive.len());
    let two_m_sq = 2.0 * total_m * total_m;
    for pass in 0..config.max_passes {
        let _pass_span = obs::span!("community.pass", "pass={pass}");
        let mut pass_merges = 0u64;
        // Sweep live aggregates in increasing-strength order (degree order
        // on the first pass — the RABBIT visit order). Strengths are
        // finite (`check_finite`), so the comparison never fails.
        alive.sort_by(|&x, &y| {
            strength[x as usize]
                .partial_cmp(&strength[y as usize])
                .unwrap_or(Ordering::Equal)
                .then(x.cmp(&y))
        });
        let mut merged_any = false;
        next_alive.clear();
        for &v in &alive {
            if top[v as usize] != v {
                continue; // absorbed earlier this pass
            }
            // Consolidate v's own row (first sweep only) and run.
            let own = if pass == 0 {
                sym.row(v)
            } else {
                (&[][..], &[][..])
            };
            let run = std::mem::take(&mut runs[v as usize]);
            let entries = own.0.iter().zip(own.1).map(|(&c, &w)| (c, f64::from(w)));
            for (nbr, w) in entries.chain(run.iter().copied()) {
                let r = find(&mut top, nbr);
                if r == v {
                    continue;
                }
                match slot[r as usize] {
                    NONE => {
                        slot[r as usize] = scratch.len() as u32;
                        scratch.push((r, w));
                    }
                    s => scratch[s as usize].1 += w,
                }
            }
            // Best-gain neighbour; ties break to the smallest vertex ID.
            let mut best: Option<(u32, f64)> = None;
            for &(u, w_vu) in &scratch {
                slot[u as usize] = NONE;
                let gain = w_vu / total_m
                    - config.resolution * strength[v as usize] * strength[u as usize] / two_m_sq;
                let better = match best {
                    None => gain > 0.0,
                    Some((bu, bg)) => gain > bg || (gain == bg && u < bu),
                };
                if gain > 0.0 && better {
                    best = Some((u, gain));
                }
            }
            match best {
                Some((u, _)) => {
                    // Merge v into u: v's consolidated neighbours, minus
                    // u itself, join u's run.
                    runs[u as usize].extend(scratch.iter().filter(|&&(r, _)| r != u));
                    strength[u as usize] += strength[v as usize];
                    top[v as usize] = u;
                    merges.push((v, u));
                    merged_any = true;
                    pass_merges += 1;
                }
                None => {
                    // v stays live, keeping its consolidated neighbours
                    // in the run's buffer.
                    let mut run = run;
                    run.clear();
                    run.extend_from_slice(&scratch);
                    runs[v as usize] = run;
                    next_alive.push(v);
                }
            }
            scratch.clear();
        }
        std::mem::swap(&mut alive, &mut next_alive);
        obs::counter!("reorder.community.passes", 1);
        obs::counter!("reorder.community.merges", pass_merges);
        if !merged_any {
            break;
        }
    }
    merges
}

/// Minimum dendrogram roots per DFS-flattening chunk.
const ROOTS_PER_CHUNK: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;
    use commorder_synth::generators::PlantedPartition;

    /// Three 5-cliques linked in a chain by single inter-community edges —
    /// a scaled-up Fig.-1-style example with unambiguous communities.
    pub(crate) fn three_cliques() -> CsrMatrix {
        let mut entries = Vec::new();
        for block in 0..3u32 {
            let base = block * 5;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    entries.push((base + i, base + j, 1.0));
                    entries.push((base + j, base + i, 1.0));
                }
            }
        }
        for &(u, v) in &[(4u32, 5u32), (9, 10)] {
            entries.push((u, v, 1.0));
            entries.push((v, u, 1.0));
        }
        CsrMatrix::try_from(CooMatrix::from_entries(15, 15, entries).unwrap()).unwrap()
    }

    #[test]
    fn detects_the_three_cliques() {
        let g = three_cliques();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let comm = d.assignment();
        for block in 0..3u32 {
            let base = (block * 5) as usize;
            for i in 1..5 {
                assert_eq!(comm[base], comm[base + i], "clique {block} split apart");
            }
        }
        assert_eq!(d.community_count(), 3, "cliques collapsed or fragmented");
    }

    #[test]
    fn dfs_order_makes_communities_contiguous() {
        let g = three_cliques();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let comm = d.assignment();
        let order = d.dfs_order();
        // Scanning the order, each community id must appear as one run.
        let mut seen = std::collections::HashSet::new();
        let mut prev = NONE;
        for &v in &order {
            let c = comm[v as usize];
            if c != prev {
                assert!(seen.insert(c), "community {c} split into multiple runs");
                prev = c;
            }
        }
    }

    #[test]
    fn dfs_order_is_a_permutation() {
        let g = three_cliques();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let mut order = d.dfs_order();
        order.sort_unstable();
        assert_eq!(order, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn planted_partition_recovers_most_blocks() {
        let g = PlantedPartition::uniform(800, 16, 10.0, 0.02)
            .generate(21)
            .unwrap();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let comm = d.assignment();
        // Measure agreement: fraction of planted-block pairs of adjacent
        // vertices that land in the same detected community.
        let block = |v: u32| v / 50;
        let mut same = 0usize;
        let mut total = 0usize;
        for (r, c, _) in g.iter() {
            if block(r) == block(c) {
                total += 1;
                if comm[r as usize] == comm[c as usize] {
                    same += 1;
                }
            }
        }
        let agree = same as f64 / total as f64;
        assert!(agree > 0.8, "intra-block agreement = {agree}");
    }

    #[test]
    fn edgeless_graph_yields_singletons() {
        let g = CsrMatrix::empty(5);
        let d = detect(&g, DetectionConfig::default()).unwrap();
        assert_eq!(d.community_count(), 5);
        assert_eq!(d.assignment(), vec![0, 1, 2, 3, 4]);
        assert_eq!(d.community_sizes(), vec![1; 5]);
    }

    #[test]
    fn empty_graph() {
        let d = detect(&CsrMatrix::empty(0), DetectionConfig::default()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.community_count(), 0);
        assert!(d.dfs_order().is_empty());
    }

    #[test]
    fn higher_resolution_yields_more_communities() {
        let g = PlantedPartition::uniform(600, 12, 8.0, 0.1)
            .generate(22)
            .unwrap();
        let coarse = detect(
            &g,
            DetectionConfig {
                resolution: 0.5,
                ..DetectionConfig::default()
            },
        )
        .unwrap();
        let fine = detect(
            &g,
            DetectionConfig {
                resolution: 4.0,
                ..DetectionConfig::default()
            },
        )
        .unwrap();
        assert!(
            fine.community_count() >= coarse.community_count(),
            "fine {} vs coarse {}",
            fine.community_count(),
            coarse.community_count()
        );
    }

    #[test]
    fn depths_reflect_merge_nesting() {
        let g = three_cliques();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let depths = d.depths();
        // Roots are depth 0; every clique has at least one nested merge.
        for &root in d.roots() {
            assert_eq!(depths[root as usize], 0);
        }
        assert!(d.max_depth() >= 1, "cliques must nest at least one level");
        assert!(d.max_depth() < 15, "depth bounded by n");
        // Exactly one depth-0 vertex per community.
        let zero_count = depths.iter().filter(|&&x| x == 0).count();
        assert_eq!(zero_count, d.community_count());
    }

    #[test]
    fn community_sizes_sum_to_n() {
        let g = three_cliques();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let total: u32 = d.community_sizes().iter().sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn non_finite_weights_are_rejected_by_every_entry_point() {
        use crate::{Rabbit, RabbitPlusPlus};
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let entries = vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, bad)];
            let g = CsrMatrix::try_from(CooMatrix::from_entries(3, 3, entries).unwrap()).unwrap();
            let want = SparseError::NonFiniteValue { row: 2, col: 1 };
            assert_eq!(detect(&g, DetectionConfig::default()), Err(want.clone()));
            assert_eq!(
                Rabbit::new().run(&g).map(|r| r.permutation),
                Err(want.clone())
            );
            assert_eq!(
                RabbitPlusPlus::new().run(&g).map(|r| r.permutation),
                Err(want)
            );
        }
    }

    #[test]
    fn overflowing_symmetrized_weight_is_rejected() {
        // Each direction is finite; their f32 sum in A + Aᵀ is not.
        let g = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![3e38, 3e38]).unwrap();
        assert_eq!(
            detect(&g, DetectionConfig::default()),
            Err(SparseError::NonFiniteValue { row: 0, col: 1 })
        );
    }

    #[test]
    fn directed_input_is_symmetrized() {
        // Directed triangle: 0->1->2->0.
        let g = CsrMatrix::try_from(
            CooMatrix::from_entries(3, 3, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap(),
        )
        .unwrap();
        let d = detect(&g, DetectionConfig::default()).unwrap();
        let comm = d.assignment();
        assert_eq!(comm[0], comm[1]);
        assert_eq!(comm[1], comm[2]);
    }
}
