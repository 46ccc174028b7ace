//! RABBIT++ — the paper's contribution (§VI): RABBIT enhanced with
//! insular-node grouping and hub grouping.
//!
//! Starting from the RABBIT order and its community assignment:
//!
//! 1. **Insular grouping** (first modification, Fig. 5): nodes whose
//!    entire neighbourhood is intra-community are grouped ahead of
//!    non-insular nodes, each side keeping RABBIT's relative order.
//!    The insular region then enjoys perfect community locality (Fig. 6).
//! 2. **Hub grouping** (second modification): hub nodes (in-degree above
//!    the mean) are pulled to the very front of the ID space —
//!    [`HubPolicy::Group`] preserves RABBIT's relative order among hubs
//!    (RABBIT+HUBGROUP, which the paper finds best because "there is some
//!    community structure even among the hub nodes"), while
//!    [`HubPolicy::Sort`] orders them by decreasing degree
//!    (RABBIT+HUBSORT, which the paper finds counter-productive).
//!
//! The full Table II design space is expressible through
//! [`RabbitPlusPlusConfig`]; the default is the paper's RABBIT++
//! (insular grouping **and** hub grouping). Every configuration is a
//! pure derivation from a RABBIT run ([`Reordering::derive`]), so the
//! experiment grid detects once per matrix and derives all of them.

use commorder_exec::Engine;
use commorder_obs as obs;
use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::community::DetectionConfig;
use crate::degree::hub_mask;
use crate::quality;
use crate::rabbit::{Rabbit, RabbitResult};
use crate::Reordering;

/// How hub nodes are laid out (the second modification of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HubPolicy {
    /// Leave hubs wherever RABBIT put them (no second modification).
    #[default]
    None,
    /// Group hubs at the front, keeping RABBIT's relative order
    /// (RABBIT+HUBGROUP).
    Group,
    /// Sort hubs at the front by decreasing in-degree (RABBIT+HUBSORT).
    Sort,
}

impl HubPolicy {
    /// Label fragment used in Table II row names.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            HubPolicy::None => "RABBIT",
            HubPolicy::Group => "RABBIT+HUBGROUP",
            HubPolicy::Sort => "RABBIT+HUBSORT",
        }
    }
}

/// Design-space configuration for the RABBIT modifications (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RabbitPlusPlusConfig {
    /// Apply the first modification (group insular nodes).
    pub group_insular: bool,
    /// Hub layout (second modification).
    pub hub_policy: HubPolicy,
}

impl Default for RabbitPlusPlusConfig {
    /// The paper's RABBIT++: insular grouping + hub grouping.
    fn default() -> Self {
        RabbitPlusPlusConfig {
            group_insular: true,
            hub_policy: HubPolicy::Group,
        }
    }
}

impl RabbitPlusPlusConfig {
    /// Table II row/column label for this combination.
    #[must_use]
    pub fn label(&self) -> String {
        let base = self.hub_policy.label();
        if self.group_insular {
            format!("{base} (insular grouped)")
        } else {
            base.to_string()
        }
    }

    /// All six Table II combinations, in the table's reading order.
    #[must_use]
    pub fn design_space() -> Vec<RabbitPlusPlusConfig> {
        let mut v = Vec::with_capacity(6);
        for group_insular in [false, true] {
            for hub_policy in [HubPolicy::None, HubPolicy::Sort, HubPolicy::Group] {
                v.push(RabbitPlusPlusConfig {
                    group_insular,
                    hub_policy,
                });
            }
        }
        v
    }
}

/// The RABBIT++ reordering technique.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RabbitPlusPlus {
    /// Modification configuration; defaults to the paper's RABBIT++.
    pub config: RabbitPlusPlusConfig,
}

/// Everything a RABBIT++ run produces, for the §VI analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct RabbitPlusPlusResult {
    /// Final old-ID → new-ID permutation.
    pub permutation: Permutation,
    /// The underlying RABBIT run (its permutation, dendrogram, assignment).
    pub rabbit: RabbitResult,
    /// Insular mask per old vertex (all-neighbours-intra-community).
    pub insular: Vec<bool>,
    /// Hub mask per old vertex (in-degree above mean).
    pub hubs: Vec<bool>,
}

impl RabbitPlusPlus {
    /// RABBIT++ with the paper's default modifications.
    #[must_use]
    pub fn new() -> Self {
        RabbitPlusPlus::default()
    }

    /// A specific point in the Table II design space.
    #[must_use]
    pub fn with_config(config: RabbitPlusPlusConfig) -> Self {
        RabbitPlusPlus { config }
    }

    /// Runs RABBIT and applies the configured modifications, returning all
    /// intermediates.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square and
    /// [`SparseError::NonFiniteValue`] if a weight is NaN or infinite.
    pub fn run(&self, a: &CsrMatrix) -> Result<RabbitPlusPlusResult, SparseError> {
        let _span = obs::span!("reorder.rabbitpp");
        let rabbit = Rabbit::new().run(a)?;
        let (permutation, insular, hubs) = self.regroup(a, &rabbit)?;
        Ok(RabbitPlusPlusResult {
            permutation,
            rabbit,
            insular,
            hubs,
        })
    }

    /// Applies the configured modifications to the RABBIT run `rabbit`
    /// on `a`: the final permutation plus the insular and hub masks.
    fn regroup(
        &self,
        a: &CsrMatrix,
        rabbit: &RabbitResult,
    ) -> Result<(Permutation, Vec<bool>, Vec<bool>), SparseError> {
        let insular = {
            let _insular_span = obs::span!("rabbitpp.insular");
            quality::insular_nodes(a, &rabbit.assignment)?
        };
        let _group_span = obs::span!("rabbitpp.group");
        let hubs = hub_mask(a);
        let n = a.n_rows();

        // Segment of each vertex. The second modification orders "the
        // non-insular nodes" (§VI-A): with insular grouping on, the hub
        // segment holds only *non-insular* hubs, so insular communities
        // stay contiguous. Layout: [hubs][insular][rest]; disabled
        // modifications collapse their segment into `rest`.
        let segment = |v: u32| -> u8 {
            let (h, i) = (hubs[v as usize], insular[v as usize]);
            let hub_eligible = h && !(self.config.group_insular && i);
            match self.config.hub_policy {
                HubPolicy::None if self.config.group_insular && i => 1,
                HubPolicy::None => 2,
                _ if hub_eligible => 0,
                _ if self.config.group_insular && i => 1,
                _ => 2,
            }
        };

        // Vertices in RABBIT order, stably partitioned into segments.
        let rabbit_order = rabbit.permutation.inverse(); // new -> old
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        for seg in 0..3u8 {
            let mut seg_vertices: Vec<u32> = (0..n)
                .map(|new_id| rabbit_order.new_of(new_id))
                .filter(|&old| segment(old) == seg)
                .collect();
            if seg == 0 && self.config.hub_policy == HubPolicy::Sort {
                let degrees = a.in_degrees();
                seg_vertices.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
            }
            order.extend(seg_vertices);
        }
        Ok((Permutation::from_order(&order)?, insular, hubs))
    }

    /// [`RabbitPlusPlus::run`] for callers that carry an engine.
    ///
    /// Every phase is one serial loop; `engine` is unused. It stays in
    /// the signature so every reorderer phase takes the same arguments.
    ///
    /// # Errors
    ///
    /// See [`RabbitPlusPlus::run`].
    pub fn run_with(
        &self,
        a: &CsrMatrix,
        _engine: &Engine,
    ) -> Result<RabbitPlusPlusResult, SparseError> {
        self.run(a)
    }
}

impl Reordering for RabbitPlusPlus {
    fn name(&self) -> &str {
        match (self.config.group_insular, self.config.hub_policy) {
            (true, HubPolicy::Group) => "RABBIT++",
            (false, HubPolicy::None) => "RABBIT",
            (true, HubPolicy::Sort) => "RABBIT+INSULAR+HUBSORT",
            (false, HubPolicy::Sort) => "RABBIT+HUBSORT",
            (true, HubPolicy::None) => "RABBIT+INSULAR",
            (false, HubPolicy::Group) => "RABBIT+HUBGROUP",
        }
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        let _span = obs::span!("reorder.rabbitpp");
        self.derive(a, &Rabbit::new().run(a)?)
    }

    fn detection(&self) -> Option<DetectionConfig> {
        Some(Rabbit::new().detection)
    }

    fn derive(&self, a: &CsrMatrix, detection: &RabbitResult) -> Result<Permutation, SparseError> {
        Ok(self.regroup(a, detection)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_synth::generators::CommunityHub;

    fn webby() -> CsrMatrix {
        CommunityHub {
            n: 1536,
            communities: 24,
            intra_degree: 8.0,
            hub_fraction: 0.04,
            hub_degree: 24.0,
            mixing: 0.1,
            scramble_ids: true,
        }
        .generate(41)
        .unwrap()
    }

    #[test]
    fn design_space_has_six_unique_combinations() {
        let space = RabbitPlusPlusConfig::design_space();
        assert_eq!(space.len(), 6);
        let labels: std::collections::HashSet<_> =
            space.iter().map(RabbitPlusPlusConfig::label).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn design_space_has_six_distinct_technique_names() {
        let names: std::collections::HashSet<_> = RabbitPlusPlusConfig::design_space()
            .into_iter()
            .map(|c| RabbitPlusPlus::with_config(c).name().to_string())
            .collect();
        assert_eq!(names.len(), 6, "two Table II cells share a name");
    }

    #[test]
    fn default_config_is_the_paper_rabbitpp() {
        let c = RabbitPlusPlusConfig::default();
        assert!(c.group_insular);
        assert_eq!(c.hub_policy, HubPolicy::Group);
        assert_eq!(RabbitPlusPlus::new().name(), "RABBIT++");
    }

    #[test]
    fn segments_are_laid_out_hubs_insular_rest() {
        let g = webby();
        let r = RabbitPlusPlus::new().run(&g).unwrap();
        let inv = r.permutation.inverse();
        // Segment id per new position must be non-decreasing.
        let seg_of = |old: u32| -> u8 {
            if r.hubs[old as usize] && !r.insular[old as usize] {
                0
            } else if r.insular[old as usize] {
                1
            } else {
                2
            }
        };
        let mut prev = 0u8;
        for new_id in 0..g.n_rows() {
            let s = seg_of(inv.new_of(new_id));
            assert!(s >= prev, "segment order violated at new id {new_id}");
            prev = s;
        }
    }

    #[test]
    fn insular_only_config_keeps_hubs_in_place() {
        let g = webby();
        let cfg = RabbitPlusPlusConfig {
            group_insular: true,
            hub_policy: HubPolicy::None,
        };
        let r = RabbitPlusPlus::with_config(cfg).run(&g).unwrap();
        let inv = r.permutation.inverse();
        // All insular vertices precede all non-insular ones.
        let mut seen_non_insular = false;
        for new_id in 0..g.n_rows() {
            let old = inv.new_of(new_id);
            if r.insular[old as usize] {
                assert!(!seen_non_insular, "insular vertex after non-insular");
            } else {
                seen_non_insular = true;
            }
        }
    }

    #[test]
    fn hubsort_sorts_the_hub_segment_by_degree() {
        let g = webby();
        let cfg = RabbitPlusPlusConfig {
            group_insular: false,
            hub_policy: HubPolicy::Sort,
        };
        let r = RabbitPlusPlus::with_config(cfg).run(&g).unwrap();
        let inv = r.permutation.inverse();
        let degrees = g.in_degrees();
        let hub_count = r.hubs.iter().filter(|&&h| h).count() as u32;
        let mut prev = u32::MAX;
        for new_id in 0..hub_count {
            let d = degrees[inv.new_of(new_id) as usize];
            assert!(d <= prev, "hub degrees must be non-increasing");
            prev = d;
        }
    }

    #[test]
    fn no_modifications_reproduces_rabbit_exactly() {
        let g = webby();
        let cfg = RabbitPlusPlusConfig {
            group_insular: false,
            hub_policy: HubPolicy::None,
        };
        let plain = RabbitPlusPlus::with_config(cfg).run(&g).unwrap();
        assert_eq!(plain.permutation, plain.rabbit.permutation);
    }

    #[test]
    fn relative_rabbit_order_is_preserved_within_segments() {
        let g = webby();
        let r = RabbitPlusPlus::new().run(&g).unwrap();
        let rabbit_rank = &r.rabbit.permutation;
        let inv = r.permutation.inverse();
        // Within the insular (non-hub) segment, rabbit ranks must ascend.
        let mut prev_rank = 0u32;
        let mut started = false;
        for new_id in 0..g.n_rows() {
            let old = inv.new_of(new_id);
            if !r.hubs[old as usize] && r.insular[old as usize] {
                let rank = rabbit_rank.new_of(old);
                if started {
                    assert!(rank > prev_rank, "rabbit order not preserved");
                }
                prev_rank = rank;
                started = true;
            }
        }
    }

    #[test]
    fn run_exposes_masks_of_correct_length() {
        let g = webby();
        let r = RabbitPlusPlus::new().run(&g).unwrap();
        assert_eq!(r.insular.len(), g.n_rows() as usize);
        assert_eq!(r.hubs.len(), g.n_rows() as usize);
        assert!(r.hubs.iter().any(|&h| h), "web graph must have hubs");
        assert!(
            r.insular.iter().any(|&i| i),
            "web graph must have insular nodes"
        );
    }
}
