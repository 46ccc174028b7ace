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
//! its row of `A ∪ Aᵀ`, merged on demand from `a` (and `Aᵀ` unless `a`
//! is its own mirror), then exact-size segments of 12-byte
//! `(neighbour, weight)` entries left by its own last visit and by the
//! aggregates merged into it. A visit consolidates them through one
//! reused slot table, so weights are summed in a fixed order (CSR order,
//! then merge order) and a permutation depends only on the input matrix,
//! real-valued or not.

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
        let mut stack = Vec::new();
        for &root in &self.roots {
            stack.push(root);
            while let Some(v) = stack.pop() {
                order.push(v);
                // Push children reversed so the earliest merge is visited
                // first (closest community member, deepest hierarchy).
                stack.extend(self.children(v).iter().rev().copied());
            }
        }
        debug_assert_eq!(order.len(), self.len());
        order
    }

    /// [`Dendrogram::dfs_order`] for callers that carry an engine.
    ///
    /// The traversal is one serial loop over the roots; `engine` is
    /// unused. It stays in the signature so every reorderer phase takes
    /// the same arguments.
    #[must_use]
    pub fn dfs_order_with(&self, _engine: &Engine) -> Vec<u32> {
        self.dfs_order()
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
/// Detection is one serial aggregation sweep over global vertex ids, so
/// the result is a pure function of `(a, config)`. The rows of `A ∪ Aᵀ`
/// are merged on demand ([`ops::UnionRows`]), never stored, so no union
/// of more than `u32::MAX` entries can fail with
/// [`SparseError::TooLarge`] here.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
/// [`SparseError::NonFiniteValue`] if a weight of `a`, or of `a + aᵀ`
/// (whose `f32` sums can overflow), is NaN or infinite: the first such
/// entry of `a` in row-major order, else the first of `a + aᵀ`.
pub fn detect(a: &CsrMatrix, config: DetectionConfig) -> Result<Dendrogram, SparseError> {
    let _span = obs::span!("community.detect");
    let non_finite = |row: u32, col: u32| SparseError::NonFiniteValue { row, col };
    if let Some((row, col, _)) = a.iter().find(|(_, _, w)| !w.is_finite()) {
        return Err(non_finite(row, col));
    }
    let sym = {
        let _sym_span = obs::span!("community.symmetrize");
        ops::UnionRows::undirected(a)?
    };
    let n = sym.n();

    // `strength[v]` is the summed weight of edges incident to v, in CSR
    // row order; `total_m` the summed weight of all edges (each
    // undirected edge once), in ascending vertex order. Isolated
    // vertices can neither merge nor be merged into, so they never
    // become `alive`.
    let mut strength = Vec::with_capacity(n as usize);
    let mut alive = Vec::new();
    for v in 0..n {
        let (mut sum, mut degree, mut bad) = (0.0f64, 0u32, None);
        sym.for_each_in_row(v, |c, w| {
            sum += f64::from(w);
            degree += 1;
            bad = bad.or((!w.is_finite()).then_some(c));
        });
        if let Some(c) = bad {
            return Err(non_finite(v, c));
        }
        strength.push(sum);
        alive.extend((degree > 0).then_some(v));
    }
    let total_m: f64 = strength.iter().sum::<f64>() / 2.0;
    if total_m == 0.0 {
        // Edgeless (or empty) graph: every vertex is its own community.
        return Ok(Dendrogram::from_merges(n as usize, &[]));
    }

    let merges = aggregate(&sym, alive, strength, total_m, &config);
    Ok(Dendrogram::from_merges(n as usize, &merges))
}

/// [`detect`] for callers that carry an engine.
///
/// `engine` is unused. It stays in the signature so every reorderer
/// phase takes the same arguments.
///
/// # Errors
///
/// See [`detect`].
pub fn detect_with(
    a: &CsrMatrix,
    config: DetectionConfig,
    _engine: &Engine,
) -> Result<Dendrogram, SparseError> {
    detect(a, config)
}

/// The RABBIT modularity aggregation: increasing-strength visit order,
/// best-positive-gain merge, smallest-ID tie-break, Louvain-style
/// re-sweeps until quiescent or `config.max_passes`. Returns the merges
/// `(child, parent)` in chronological order.
///
/// A live aggregate `v`'s neighbours are its row of `sym`, read at its
/// first visit (every vertex in `alive` is visited on the first sweep,
/// so later sweeps never read it), then a chain of segments: `seg[w]`
/// holds the consolidated entries of `w`'s last visit in an allocation
/// of exactly their count, and `link[w]` chains `v`'s own segment to
/// those of the aggregates merged into it since, in merge order, up to
/// `tail[v]`. Neighbour ids may be stale. A visit frees its chain as it
/// consolidates it through the union-find into `scratch`, with `slot[r]`
/// holding the scratch index of live neighbour `r` (`NONE` between
/// visits), then stores its own segment and link. Each consolidated
/// weight is therefore summed in CSR order and then merge order,
/// independent of any hash seed.
///
/// A segment entry is a [`Packed`] neighbour and weight: 12 bytes, not
/// the 16 an aligned `(u32, f64)` takes, with the weight's bits intact.
fn aggregate(
    sym: &ops::UnionRows<'_>,
    mut alive: Vec<u32>,
    mut strength: Vec<f64>,
    total_m: f64,
    config: &DetectionConfig,
) -> Vec<(u32, u32)> {
    let n = sym.n();
    let mut merges: Vec<(u32, u32)> = Vec::new();
    let mut seg: Vec<Box<[Packed]>> = vec![Box::default(); n as usize];
    let mut link: Vec<u32> = vec![NONE; n as usize];
    let mut tail: Vec<u32> = (0..n).collect();
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

    let mut next_alive: Vec<u32> = Vec::with_capacity(alive.len());
    let two_m_sq = 2.0 * total_m * total_m;
    for pass in 0..config.max_passes {
        let _pass_span = obs::span!("community.pass", "pass={pass}");
        let mut pass_merges = 0u64;
        // Sweep live aggregates in increasing-strength order (degree order
        // on the first pass — the RABBIT visit order). Strengths are
        // finite (checked by `detect`), so the comparison never fails.
        alive.sort_by(|&x, &y| {
            strength[x as usize]
                .partial_cmp(&strength[y as usize])
                .unwrap_or(Ordering::Equal)
                .then(x.cmp(&y))
        });
        next_alive.clear();
        for &v in &alive {
            if top[v as usize] != v {
                continue; // absorbed earlier this pass
            }
            // Consolidate v's own row (first sweep only), then its chain.
            let mut add = |nbr: u32, w: f64| {
                let r = find(&mut top, nbr);
                match slot[r as usize] {
                    _ if r == v => {}
                    NONE => {
                        slot[r as usize] = scratch.len() as u32;
                        scratch.push((r, w));
                    }
                    s => scratch[s as usize].1 += w,
                }
            };
            if pass == 0 {
                sym.for_each_in_row(v, |c, w| add(c, f64::from(w)));
            }
            let mut w = v;
            while w != NONE {
                for &entry in std::mem::take(&mut seg[w as usize]).iter() {
                    add(entry.0, unpack_weight(entry));
                }
                w = std::mem::replace(&mut link[w as usize], NONE);
            }
            tail[v as usize] = v;
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
            if let Some((u, _)) = best {
                // Merge v into u: v's segment, minus u, ends u's chain.
                scratch.retain(|&(r, _)| r != u);
                link[tail[u as usize] as usize] = v;
                tail[u as usize] = v;
                strength[u as usize] += strength[v as usize];
                top[v as usize] = u;
                merges.push((v, u));
                pass_merges += 1;
            } else {
                // v stays live; its segment heads its own chain.
                next_alive.push(v);
            }
            seg[v as usize] = scratch.iter().map(|&(r, w)| pack(r, w)).collect();
            scratch.clear();
        }
        std::mem::swap(&mut alive, &mut next_alive);
        obs::counter!("reorder.community.passes", 1);
        obs::counter!("reorder.community.merges", pass_merges);
        if pass_merges == 0 {
            break;
        }
    }
    merges
}

/// A segment entry: a neighbour id and the bits of its `f64` weight as
/// two `u32` halves, so the entry is 4-byte aligned and 12 bytes long.
type Packed = (u32, [u32; 2]);

fn pack(nbr: u32, weight: f64) -> Packed {
    let bits = weight.to_bits();
    (nbr, [bits as u32, (bits >> 32) as u32])
}

fn unpack_weight((_, [lo, hi]): Packed) -> f64 {
    f64::from_bits(u64::from(lo) | u64::from(hi) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;

    #[test]
    fn packed_entries_are_12_bytes_and_keep_every_weight_bit() {
        assert_eq!(std::mem::size_of::<Packed>(), 12);
        for w in [0.0, -0.0, 0.1, 1e-310, f64::MAX, -3.5, f64::MIN_POSITIVE] {
            let back = unpack_weight(pack(7, w));
            assert_eq!(back.to_bits(), w.to_bits(), "{w}");
        }
    }
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
