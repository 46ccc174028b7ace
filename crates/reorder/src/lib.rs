//! Matrix reordering techniques and community-quality metrics — the
//! algorithmic heart of the ISPASS'23 reproduction.
//!
//! Implements every ordering the paper evaluates (§IV-A):
//!
//! * [`Original`] — the publisher's ordering (identity permutation),
//! * [`RandomOrder`] — uniformly random IDs,
//! * [`DegSort`] — decreasing in-degree sort,
//! * [`Dbg`] — degree-based grouping (Faldu et al.),
//! * [`Gorder`] — greedy sliding-window locality maximization (Wei et al.),
//! * [`Rabbit`] — community-based ordering via incremental
//!   modularity-maximizing aggregation (Arai et al.),
//! * [`RabbitPlusPlus`] — the paper's contribution: RABBIT + insular-node
//!   grouping + hub grouping (§VI), with the full Table II design space,
//!
//! plus the referenced baselines [`HubSort`], [`HubGroup`], [`Rcm`]
//! (Reverse Cuthill–McKee), [`SlashBurn`] (the paper's \[31\]) and
//! [`Bisection`] (the partitioning family of \[24\]/\[39\]), and the
//! analysis metrics of §V
//! ([`quality::insularity`], [`quality::insular_nodes`],
//! [`quality::modularity`]).
//!
//! # Example
//!
//! ```
//! use commorder_reorder::{Rabbit, Reordering};
//! use commorder_synth::generators::PlantedPartition;
//!
//! # fn main() -> Result<(), commorder_sparse::SparseError> {
//! let g = PlantedPartition::uniform(512, 16, 8.0, 0.05).generate(7)?;
//! let perm = Rabbit::new().reorder(&g)?;
//! let reordered = g.permute_symmetric(&perm)?;
//! assert_eq!(reordered.nnz(), g.nnz());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod bisect;
mod boba;
mod context;
mod degree;
mod gorder;
mod labelprop;
mod rabbit;
mod rabbitpp;
mod rcm;
mod registry;
mod slashburn;

pub mod advisor;
pub mod community;
pub mod locality;
pub mod quality;

pub use bisect::Bisection;
pub use boba::Boba;
pub use context::ReorderContext;
pub use degree::{Dbg, DegSort, HubGroup, HubSort, Original, RandomOrder};
pub use gorder::Gorder;
pub use labelprop::LabelPropagation;
pub use rabbit::{FlatCommunity, Rabbit, RabbitResult};
pub use rabbitpp::{HubPolicy, RabbitPlusPlus, RabbitPlusPlusConfig};
pub use rcm::{Rcm, RcmPlusPlus};
pub use registry::{parse_technique_list, technique_by_name, TECHNIQUE_NAMES};
pub use slashburn::SlashBurn;

use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::community::DetectionConfig;

/// A vertex/row reordering technique.
///
/// Implementations produce a [`Permutation`] mapping old IDs to new IDs;
/// apply it with [`CsrMatrix::permute_symmetric`] to obtain the reordered
/// matrix. Implementations must accept any square matrix (directed inputs
/// are symmetrized internally where the algorithm needs an undirected
/// view).
pub trait Reordering: Send + Sync {
    /// Short display name matching the paper's figures (e.g. `"RABBIT"`).
    fn name(&self) -> &str;

    /// Computes the permutation for `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `a` is not square;
    /// implementations may surface further sparse-layer errors.
    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError>;

    /// Computes the permutation for `a` with an execution context.
    ///
    /// The result must be byte-identical to [`Reordering::reorder`] at
    /// any thread count. The default ignores the context and delegates to
    /// [`Reordering::reorder`]; no built-in technique overrides it, since
    /// every reorder phase is one serial loop and parallelism lives at
    /// the grid level (one engine job per matrix and technique, or per
    /// matrix and detection for the RABBIT family).
    ///
    /// # Errors
    ///
    /// Same contract as [`Reordering::reorder`].
    fn reorder_with(
        &self,
        a: &CsrMatrix,
        cx: &ReorderContext<'_>,
    ) -> Result<Permutation, SparseError> {
        let _ = cx;
        self.reorder(a)
    }

    /// The community detection this technique's order derives from:
    /// `Some` for the RABBIT family ([`Rabbit`], every
    /// [`RabbitPlusPlus`] configuration, [`FlatCommunity`]), `None`
    /// (the default) for a technique that orders from the matrix alone.
    ///
    /// Techniques that report equal configurations share one detection:
    /// the experiment grid runs `Rabbit { detection }.run(a)` once per
    /// matrix and hands the result to each one's [`Reordering::derive`].
    fn detection(&self) -> Option<DetectionConfig> {
        None
    }

    /// Computes the permutation for `a` from a finished detection on it.
    ///
    /// When [`Reordering::detection`] is `Some(config)`, `detection`
    /// must be `Rabbit { detection: config }.run(a)`; the result is then
    /// byte-identical to [`Reordering::reorder`], which the RABBIT
    /// family implements as exactly this call on a fresh detection. The
    /// default ignores `detection` and delegates to
    /// [`Reordering::reorder`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Reordering::reorder`].
    fn derive(&self, a: &CsrMatrix, detection: &RabbitResult) -> Result<Permutation, SparseError> {
        let _ = detection;
        self.reorder(a)
    }
}

/// The six orderings of Fig. 2, in the paper's presentation order,
/// followed by RABBIT++ (Fig. 7 onward). `seed` feeds the RANDOM ordering.
///
/// A thin view over the technique [registry](technique_by_name): each
/// member is the registry's binding for that name.
#[must_use]
pub fn paper_suite(seed: u64) -> Vec<Box<dyn Reordering>> {
    [
        "random", "original", "degsort", "dbg", "gorder", "rabbit", "rabbit++",
    ]
    .iter()
    .map(|name| {
        technique_by_name(name, seed)
            .unwrap_or_else(|| unreachable!("paper suite names are registered"))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_synth::generators::PlantedPartition;

    #[test]
    fn paper_suite_names_match_figure2_plus_rabbitpp() {
        let suite = paper_suite(1);
        let names: Vec<_> = suite.iter().map(|t| t.name().to_string()).collect();
        assert_eq!(
            names,
            vec!["RANDOM", "ORIGINAL", "DEGSORT", "DBG", "GORDER", "RABBIT", "RABBIT++"]
        );
    }

    #[test]
    fn every_suite_member_yields_a_valid_permutation() {
        let g = PlantedPartition::uniform(256, 8, 6.0, 0.1)
            .generate(3)
            .unwrap();
        for t in paper_suite(2) {
            let p = t.reorder(&g).unwrap();
            assert_eq!(p.len(), 256, "{} wrong length", t.name());
            // Permutation validity is enforced by construction; applying it
            // must preserve the non-zero count.
            let r = g.permute_symmetric(&p).unwrap();
            assert_eq!(r.nnz(), g.nnz(), "{} lost entries", t.name());
        }
    }

    #[test]
    fn reordering_is_object_safe() {
        fn takes_dyn(_: &dyn Reordering) {}
        takes_dyn(&Original);
    }
}
