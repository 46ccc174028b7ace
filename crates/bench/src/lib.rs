//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the paper.
//!
//! Each binary (`fig2` … `fig9`, `table2` … `table4`, `all`) loads the
//! evaluation corpus, declares an [`ExperimentSpec`] grid (or maps a
//! bespoke analysis over the corpus with the [`Engine`]), and prints a
//! table shaped like the paper's. Environment variables control scale:
//!
//! * `COMMORDER_CORPUS` — `standard` (default, the 50-matrix corpus with
//!   the 128 KiB scaled A6000 L2) or `mini` (8 small matrices with an
//!   8 KiB L2; seconds instead of minutes, same qualitative shapes).
//! * `COMMORDER_MAX_MATRICES` — truncate the corpus for smoke runs.
//! * `COMMORDER_THREADS` — engine worker count (default: available
//!   parallelism). Results are identical for any value.
//! * `COMMORDER_CSV` — directory to additionally save the main data
//!   tables as CSV (for external plotting).

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]

use commorder::prelude::*;
use commorder::synth::corpus::{self, CorpusEntry};

/// A generated corpus matrix with its corpus metadata, for the bespoke
/// analyses (insularity splits, dendrogram statistics) that need more
/// than the grid API exposes.
pub struct MatrixCase {
    /// Corpus entry metadata.
    pub entry: CorpusEntry,
    /// The matrix in its published (ORIGINAL) order.
    pub matrix: CsrMatrix,
}

/// Experiment-wide configuration resolved from the environment.
pub struct Harness {
    /// Platform (GPU + L2 geometry) for all simulations.
    pub gpu: GpuSpec,
    /// Corpus entries to evaluate.
    pub entries: Vec<CorpusEntry>,
    /// Seed for the RANDOM ordering.
    pub random_seed: u64,
}

impl Harness {
    /// Builds the harness from `COMMORDER_CORPUS` / `COMMORDER_MAX_MATRICES`.
    #[must_use]
    pub fn from_env() -> Self {
        let corpus_kind =
            std::env::var("COMMORDER_CORPUS").unwrap_or_else(|_| "standard".to_string());
        let (entries, gpu) = match corpus_kind.as_str() {
            "mini" => (corpus::mini(), GpuSpec::test_scale()),
            _ => (corpus::standard(), GpuSpec::a6000_scaled()),
        };
        let limit = std::env::var("COMMORDER_MAX_MATRICES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(usize::MAX);
        Harness {
            gpu,
            entries: entries.into_iter().take(limit).collect(),
            random_seed: 0xC0DE,
        }
    }

    /// The execution engine every binary shares: `COMMORDER_THREADS`
    /// workers, defaulting to the machine's available parallelism.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::from_env()
    }

    /// An [`ExperimentSpec`] over the whole corpus with the given
    /// technique axis — the one-liner most figure binaries start from.
    /// Kernel/model/policy axes keep their Fig. 2 defaults; extend with
    /// `.kernels(..)` / `.models(..)` / `.policies(..)` as needed.
    #[must_use]
    pub fn spec(&self, techniques: Vec<Box<dyn Reordering>>) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.gpu).techniques(techniques);
        for case in self.load() {
            spec = spec.matrix_in_group(case.entry.name, case.entry.domain.label(), case.matrix);
        }
        spec
    }

    /// Like [`Harness::spec`], but restricted to the named corpus subset
    /// (for the per-matrix ablation studies).
    #[must_use]
    pub fn spec_for(
        &self,
        subset: &[&str],
        techniques: Vec<Box<dyn Reordering>>,
    ) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.gpu).techniques(techniques);
        for case in self.load_subset(subset) {
            spec = spec.matrix_in_group(case.entry.name, case.entry.domain.label(), case.matrix);
        }
        spec
    }

    /// Generates every corpus matrix (reporting progress on stderr).
    ///
    /// # Panics
    ///
    /// Panics if a built-in corpus entry fails to generate (a bug — the
    /// corpus is covered by tests).
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "a built-in corpus entry that fails to generate is a bug, and the figure binaries have no caller to return the error to"
    )]
    pub fn load(&self) -> Vec<MatrixCase> {
        self.entries
            .iter()
            .map(|entry| {
                eprintln!("[gen] {}", entry.name);
                let matrix = entry
                    .generate()
                    .unwrap_or_else(|e| panic!("corpus entry {} failed: {e}", entry.name));
                MatrixCase {
                    entry: entry.clone(),
                    matrix,
                }
            })
            .collect()
    }

    /// Generates only the named corpus entries, in corpus order.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "a built-in corpus entry that fails to generate is a bug, and the figure binaries have no caller to return the error to"
    )]
    pub fn load_subset(&self, subset: &[&str]) -> Vec<MatrixCase> {
        self.entries
            .iter()
            .filter(|e| subset.contains(&e.name))
            .map(|entry| {
                eprintln!("[gen] {}", entry.name);
                let matrix = entry
                    .generate()
                    .unwrap_or_else(|e| panic!("corpus entry {} failed: {e}", entry.name));
                MatrixCase {
                    entry: entry.clone(),
                    matrix,
                }
            })
            .collect()
    }

    /// Prints the platform header (Table I) every binary leads with.
    pub fn print_platform(&self) {
        let g = &self.gpu;
        println!("platform: {}", g.name);
        println!(
            "  peak bw {:.0} GB/s | measured bw {:.0} GB/s | L2 {} KiB ({}B lines, {}-way) | mem {} GB",
            g.peak_bandwidth / 1e9,
            g.measured_bandwidth / 1e9,
            g.l2.capacity_bytes / 1024,
            g.l2.line_bytes,
            g.l2.associativity,
            g.memory_capacity >> 30,
        );
        println!(
            "  corpus: {} matrices | kernel model: sequential trace, LRU L2 | engine: {} threads\n",
            self.entries.len(),
            self.engine().threads(),
        );
    }
}

/// The Fig. 2 technique list (without RABBIT++), in paper order.
#[must_use]
pub fn figure2_techniques(seed: u64) -> Vec<Box<dyn Reordering>> {
    vec![
        Box::new(RandomOrder::new(seed)),
        Box::new(Original),
        Box::new(DegSort),
        Box::new(Dbg::default()),
        Box::new(Gorder::default()),
        Box::new(Rabbit::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_mini_resolves() {
        std::env::set_var("COMMORDER_CORPUS", "mini");
        std::env::set_var("COMMORDER_MAX_MATRICES", "3");
        let h = Harness::from_env();
        assert_eq!(h.entries.len(), 3);
        assert_eq!(h.gpu.l2.capacity_bytes, 8 * 1024);
        std::env::remove_var("COMMORDER_CORPUS");
        std::env::remove_var("COMMORDER_MAX_MATRICES");
    }

    #[test]
    fn figure2_suite_is_the_paper_order() {
        let names: Vec<String> = figure2_techniques(1)
            .iter()
            .map(|t| t.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["RANDOM", "ORIGINAL", "DEGSORT", "DBG", "GORDER", "RABBIT"]
        );
    }
}
