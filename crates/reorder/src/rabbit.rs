//! RABBIT: community-based matrix reordering (Arai et al., IPDPS'16).
//!
//! Community detection by incremental modularity-maximizing aggregation
//! (see [`crate::community`]) followed by a depth-first traversal of the
//! merge dendrogram, so that every community — and every nested
//! sub-community — receives a contiguous ID range. The paper maps this
//! hierarchy onto the cache hierarchy: innermost communities to the
//! closest cache, outer levels to larger caches (§V-A).

use commorder_obs as obs;
use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::community::{self, Dendrogram, DetectionConfig};
use crate::degree::Shuffler;
use crate::Reordering;

/// The RABBIT reordering technique.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rabbit {
    /// Community-detection configuration (resolution, pass limit).
    pub detection: DetectionConfig,
}

/// Full output of a RABBIT run: the permutation plus everything §V's
/// analysis needs (dendrogram, community assignment).
#[derive(Debug, Clone, PartialEq)]
pub struct RabbitResult {
    /// Old-ID → new-ID permutation.
    pub permutation: Permutation,
    /// Merge dendrogram from community detection.
    pub dendrogram: Dendrogram,
    /// Community ID per (old) vertex.
    pub assignment: Vec<u32>,
}

impl Rabbit {
    /// RABBIT with default detection parameters.
    #[must_use]
    pub fn new() -> Self {
        Rabbit::default()
    }

    /// Runs detection and ordering, exposing the intermediate community
    /// structure (C-INTERMEDIATE: Fig. 3–7 all need the assignment, not
    /// just the permutation).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
    /// [`SparseError::NonFiniteValue`] if a weight is NaN or infinite.
    pub fn run(&self, a: &CsrMatrix) -> Result<RabbitResult, SparseError> {
        let _span = obs::span!("reorder.rabbit");
        let dendrogram = community::detect(a, self.detection)?;
        let (permutation, assignment) = {
            let _order_span = obs::span!("rabbit.order");
            let order = dendrogram.dfs_order();
            (Permutation::from_order(&order)?, dendrogram.assignment())
        };
        Ok(RabbitResult {
            permutation,
            dendrogram,
            assignment,
        })
    }
}

impl Reordering for Rabbit {
    fn name(&self) -> &str {
        "RABBIT"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        self.derive(a, &self.run(a)?)
    }

    fn detection(&self) -> Option<DetectionConfig> {
        Some(self.detection)
    }

    /// RABBIT's order is the detection's own dendrogram DFS order.
    fn derive(&self, _a: &CsrMatrix, detection: &RabbitResult) -> Result<Permutation, SparseError> {
        Ok(detection.permutation.clone())
    }
}

/// RABBIT-FLAT: RABBIT's community detection with the *hierarchy thrown
/// away* — communities are still contiguous ID ranges, but members are
/// shuffled within each range.
///
/// This ablation isolates the value of the dendrogram DFS: the paper's
/// §V-A claims the nested sub-community order maps onto the cache
/// hierarchy, so RABBIT should beat RABBIT-FLAT wherever hierarchy
/// matters (see the `ablation_hierarchy` experiment binary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatCommunity {
    /// Shuffle seed (deterministic).
    pub seed: u64,
}

impl FlatCommunity {
    /// RABBIT-FLAT with default detection and a fixed seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FlatCommunity { seed }
    }

    /// Shuffles members within each community run of `result`'s order.
    fn shuffled_order(&self, result: &RabbitResult) -> Result<Permutation, SparseError> {
        // The inverse of RABBIT's permutation is its dendrogram DFS order.
        let mut order = result.permutation.inverse().into_inner();
        let mut shuffler = Shuffler::new(self.seed);
        let mut start = 0usize;
        while start < order.len() {
            let community = result.assignment[order[start] as usize];
            let mut end = start + 1;
            while end < order.len() && result.assignment[order[end] as usize] == community {
                end += 1;
            }
            shuffler.shuffle(&mut order[start..end]);
            start = end;
        }
        Permutation::from_order(&order)
    }
}

impl Reordering for FlatCommunity {
    fn name(&self) -> &str {
        "RABBIT-FLAT"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        self.derive(a, &Rabbit::new().run(a)?)
    }

    fn detection(&self) -> Option<DetectionConfig> {
        Some(Rabbit::new().detection)
    }

    fn derive(&self, _a: &CsrMatrix, detection: &RabbitResult) -> Result<Permutation, SparseError> {
        self.shuffled_order(detection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality;
    use commorder_sparse::stats::mean_index_distance;
    use commorder_synth::generators::{HubAndSpoke, PlantedPartition};

    fn scrambled_sbm() -> CsrMatrix {
        let g = PlantedPartition::uniform(1024, 16, 10.0, 0.03)
            .generate(31)
            .unwrap();
        let scramble = crate::RandomOrder::new(17).reorder(&g).unwrap();
        g.permute_symmetric(&scramble).unwrap()
    }

    #[test]
    fn rabbit_restores_locality_on_scrambled_communities() {
        let messy = scrambled_sbm();
        let p = Rabbit::new().reorder(&messy).unwrap();
        let fixed = messy.permute_symmetric(&p).unwrap();
        assert!(
            mean_index_distance(&fixed) < mean_index_distance(&messy) * 0.3,
            "rabbit should strongly reduce index distance: {} -> {}",
            mean_index_distance(&messy),
            mean_index_distance(&fixed)
        );
    }

    #[test]
    fn run_exposes_consistent_intermediates() {
        let messy = scrambled_sbm();
        let r = Rabbit::new().run(&messy).unwrap();
        assert_eq!(r.permutation.len(), 1024);
        assert_eq!(r.assignment.len(), 1024);
        assert_eq!(r.dendrogram.len(), 1024);
        // Assignment matches the dendrogram's own.
        assert_eq!(r.assignment, r.dendrogram.assignment());
        // Detected insularity should be high on a strong-community graph.
        let ins = quality::insularity(&messy, &r.assignment).unwrap();
        assert!(ins > 0.85, "insularity = {ins}");
    }

    #[test]
    fn communities_are_contiguous_in_the_new_order() {
        let messy = scrambled_sbm();
        let r = Rabbit::new().run(&messy).unwrap();
        // Map each new ID back to its community; every community must be
        // one contiguous run.
        let inv = r.permutation.inverse();
        let mut prev = u32::MAX;
        let mut seen = std::collections::HashSet::new();
        for new_id in 0..1024u32 {
            let old = inv.new_of(new_id);
            let c = r.assignment[old as usize];
            if c != prev {
                assert!(seen.insert(c), "community {c} fragmented");
                prev = c;
            }
        }
    }

    #[test]
    fn hub_dominated_graph_degenerates_to_giant_community() {
        // The mawi corner case (§V-B): a mega-hub touching most of the
        // graph forces aggregation to terminate with one community
        // spanning most of the matrix — while insularity stays high, the
        // paper's "misleading metric" anomaly.
        let g = HubAndSpoke {
            n: 2048,
            hubs: 1,
            hub_coverage: 0.85,
            background_degree: 0.3,
        }
        .generate(33)
        .unwrap();
        let r = Rabbit::new().run(&g).unwrap();
        let stats = quality::CommunityStats::from_sizes(&r.dendrogram.community_sizes());
        assert!(
            stats.max_size_fraction > 0.5,
            "expected a giant community, got max fraction {}",
            stats.max_size_fraction
        );
        let ins = quality::insularity(&g, &r.assignment).unwrap();
        assert!(ins > 0.7, "insularity = {ins}");
    }

    #[test]
    fn flat_community_keeps_communities_contiguous_but_shuffles_inside() {
        let messy = scrambled_sbm();
        let rabbit = Rabbit::new().run(&messy).unwrap();
        let flat = FlatCommunity::new(3).reorder(&messy).unwrap();
        assert_ne!(flat, rabbit.permutation, "shuffle must change the order");
        // Communities still form contiguous runs.
        let inv = flat.inverse();
        let mut seen = std::collections::HashSet::new();
        let mut prev = u32::MAX;
        for new_id in 0..1024u32 {
            let c = rabbit.assignment[inv.new_of(new_id) as usize];
            if c != prev {
                assert!(seen.insert(c), "community {c} fragmented by FLAT");
                prev = c;
            }
        }
        // Deterministic per seed.
        assert_eq!(flat, FlatCommunity::new(3).reorder(&messy).unwrap());
        assert_ne!(flat, FlatCommunity::new(4).reorder(&messy).unwrap());
    }

    // The telemetry test lives alone in tests/rabbit_telemetry.rs: the
    // obs dispatcher is process-global, so any test here running
    // detection concurrently would bump its counters.

    #[test]
    fn rabbit_name_and_determinism() {
        let messy = scrambled_sbm();
        let r1 = Rabbit::new().reorder(&messy).unwrap();
        let r2 = Rabbit::new().reorder(&messy).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(Rabbit::new().name(), "RABBIT");
    }
}
