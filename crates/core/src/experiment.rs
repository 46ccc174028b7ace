//! The experiment grid API: declare *what* to measure
//! ([`ExperimentSpec`]) and let the engine decide *how* to schedule it.
//!
//! Every figure and table of the paper is a grid of
//! (matrix × technique × kernel × model × policy) evaluations. An
//! [`ExperimentSpec`] names that grid once; [`ExperimentSpec::run`] fans
//! it across a [`commorder_exec::Engine`]'s workers — one job per
//! (matrix, technique) pair, except that a matrix's RABBIT-family
//! techniques share one job that detects communities once and derives
//! each of them from the result. Each permutation is computed exactly
//! once and reused by every kernel/model/policy cell. Jobs are
//! submitted largest matrix first, and the returned [`ExperimentResult`]
//! keeps the deterministic nested grid order regardless of thread count
//! or submission order.
//!
//! Determinism guarantee: all simulated quantities (traffic, counters,
//! ratios, permutations) are pure functions of the spec, so
//! [`ExperimentResult::render_json`] is byte-identical for any worker
//! count. Only the scheduling observability (per-job `reorder_seconds` /
//! `sim_seconds`, worker IDs, [`EngineStats`]) varies between machines
//! and runs, and it is deliberately excluded from the JSON report.
//!
//! # Example
//!
//! ```
//! use commorder::prelude::*;
//!
//! # fn main() -> Result<(), commorder::sparse::SparseError> {
//! let matrix = commorder::synth::generators::PlantedPartition::uniform(512, 8, 6.0, 0.05)
//!     .generate(7)?;
//! let spec = ExperimentSpec::new(GpuSpec::test_scale())
//!     .matrix("planted", matrix)
//!     .technique(Box::new(Original))
//!     .technique(Box::new(Rabbit::new()));
//! let result = spec.run(&Engine::serial())?;
//! assert_eq!(result.records.len(), 2); // 1 matrix x 2 techniques x 1 kernel
//! let rabbit = result.run_for(0, 1);
//! assert!(rabbit.run.traffic_ratio >= 0.99);
//! # Ok(())
//! # }
//! ```

use std::cmp::Reverse;
use std::time::Instant;

use commorder_cachesim::trace::ExecutionModel;
use commorder_exec::{Engine, EngineStats, JobTiming};
use commorder_gpumodel::GpuSpec;
use commorder_obs as obs;
use commorder_obs::event::{json_f64, json_string};
use commorder_reorder::community::DetectionConfig;
use commorder_reorder::{Rabbit, ReorderContext, Reordering};
use commorder_sparse::traffic::Kernel;
use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::pipeline::{KernelRun, Pipeline, ReplacementPolicy};

/// A matrix with the labels the report layer prints.
#[derive(Debug, Clone)]
pub struct NamedMatrix {
    /// Display name (corpus entry name, file stem, …).
    pub name: String,
    /// Group label (corpus domain, dataset family); free-form.
    pub group: String,
    /// The matrix in its published (ORIGINAL) order.
    pub matrix: CsrMatrix,
}

/// Declarative description of one experiment grid.
///
/// Defaults: kernels = `[SpMV-CSR]`, models = `[Sequential]`, policies =
/// `[LRU]` — the configuration behind Figs. 2–7. Matrices and techniques
/// start empty and must be supplied.
pub struct ExperimentSpec {
    /// Simulated platform for every cell.
    pub gpu: GpuSpec,
    /// The matrices (rows of the grid).
    pub matrices: Vec<NamedMatrix>,
    /// Reordering techniques to evaluate on every matrix.
    pub techniques: Vec<Box<dyn Reordering>>,
    /// Kernels to simulate on every reordered matrix.
    pub kernels: Vec<Kernel>,
    /// Trace linearization models.
    pub models: Vec<ExecutionModel>,
    /// Replacement policies.
    pub policies: Vec<ReplacementPolicy>,
    /// Seed handed to techniques through [`ReorderContext`] (default
    /// `0xC0DE`). Built-in techniques ignore it: the seeded ones (RANDOM,
    /// RABBIT-FLAT) take their seed at construction.
    pub reorder_seed: u64,
}

impl ExperimentSpec {
    /// An empty spec on `gpu` with the Fig. 2–7 kernel/model/policy
    /// defaults.
    #[must_use]
    pub fn new(gpu: GpuSpec) -> Self {
        ExperimentSpec {
            gpu,
            matrices: Vec::new(),
            techniques: Vec::new(),
            kernels: vec![Kernel::SpmvCsr],
            models: vec![ExecutionModel::Sequential],
            policies: vec![ReplacementPolicy::Lru],
            reorder_seed: 0xC0DE,
        }
    }

    /// Adds a matrix under `name` (empty group label).
    #[must_use]
    pub fn matrix(self, name: impl Into<String>, matrix: CsrMatrix) -> Self {
        self.matrix_in_group(name, "", matrix)
    }

    /// Adds a matrix with a group/domain label.
    #[must_use]
    pub fn matrix_in_group(
        mut self,
        name: impl Into<String>,
        group: impl Into<String>,
        matrix: CsrMatrix,
    ) -> Self {
        self.matrices.push(NamedMatrix {
            name: name.into(),
            group: group.into(),
            matrix,
        });
        self
    }

    /// Adds one reordering technique.
    #[must_use]
    pub fn technique(mut self, technique: Box<dyn Reordering>) -> Self {
        self.techniques.push(technique);
        self
    }

    /// Adds a batch of techniques (e.g. `paper_suite(seed)`).
    #[must_use]
    pub fn techniques(mut self, techniques: Vec<Box<dyn Reordering>>) -> Self {
        self.techniques.extend(techniques);
        self
    }

    /// Replaces the kernel axis (default `[SpMV-CSR]`).
    #[must_use]
    pub fn kernels(mut self, kernels: Vec<Kernel>) -> Self {
        self.kernels = kernels;
        self
    }

    /// Replaces the execution-model axis (default `[Sequential]`).
    #[must_use]
    pub fn models(mut self, models: Vec<ExecutionModel>) -> Self {
        self.models = models;
        self
    }

    /// Replaces the replacement-policy axis (default `[LRU]`).
    #[must_use]
    pub fn policies(mut self, policies: Vec<ReplacementPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Total number of grid cells (`records.len()` after a run).
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.matrices.len()
            * self.techniques.len()
            * self.kernels.len()
            * self.models.len()
            * self.policies.len()
    }

    /// Checks the grid is well-formed without running it.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidConfig`] when an axis is empty or any
    /// (kernel, model, policy) cell fails [`Pipeline::builder`]
    /// validation.
    pub fn validate(&self) -> Result<(), SparseError> {
        let empty = |what: &str| SparseError::InvalidConfig {
            what: what.to_string(),
            message: "axis must not be empty".to_string(),
        };
        if self.matrices.is_empty() {
            return Err(empty("matrices"));
        }
        if self.techniques.is_empty() {
            return Err(empty("techniques"));
        }
        if self.kernels.is_empty() {
            return Err(empty("kernels"));
        }
        if self.models.is_empty() {
            return Err(empty("models"));
        }
        if self.policies.is_empty() {
            return Err(empty("policies"));
        }
        for pipeline in self.pipelines()? {
            // Building every cell validates every (kernel, model, policy)
            // combination against the platform.
            let _ = pipeline;
        }
        Ok(())
    }

    /// One validated pipeline per (kernel, model, policy) cell, in
    /// deterministic nested order.
    fn pipelines(&self) -> Result<Vec<Pipeline>, SparseError> {
        let mut pipelines =
            Vec::with_capacity(self.kernels.len() * self.models.len() * self.policies.len());
        for &kernel in &self.kernels {
            for &model in &self.models {
                for &policy in &self.policies {
                    pipelines.push(
                        Pipeline::builder(self.gpu)
                            .kernel(kernel)
                            .model(model)
                            .policy(policy)
                            .build()?,
                    );
                }
            }
        }
        Ok(pipelines)
    }

    /// Runs the whole grid on `engine`: one job per (matrix, technique),
    /// except that a matrix's techniques with equal
    /// [`Reordering::detection`] share one job, which detects once and
    /// derives each of them. Every job computes each permutation once and
    /// simulates every kernel/model/policy cell on the reordered matrix.
    /// Jobs are submitted largest matrix first.
    ///
    /// # Errors
    ///
    /// Validation errors ([`ExperimentSpec::validate`]) and any
    /// reordering/permutation error from a grid cell (e.g. a non-square
    /// matrix).
    pub fn run(&self, engine: &Engine) -> Result<ExperimentResult, SparseError> {
        self.validate()?;
        let pipelines = self.pipelines()?;
        let jobs = self.jobs();
        let (outputs, stats) = engine.run_with_stats(jobs.iter().collect(), |_, job| {
            self.run_job(engine, &pipelines, job)
        });

        // Results come back in submission order; sort each technique's
        // value to its grid index. Every grid cell belongs to exactly one
        // job, so the indices are unique and complete.
        let n_techniques = self.techniques.len();
        let mut placed: Vec<(usize, TechniqueValue, JobTiming)> =
            Vec::with_capacity(self.matrices.len() * n_techniques);
        for (job, output) in jobs.iter().zip(outputs) {
            for (&ti, value) in job.techniques.iter().zip(output.value?) {
                placed.push((job.matrix * n_techniques + ti, value, output.timing));
            }
        }
        placed.sort_unstable_by_key(|&(index, ..)| index);

        let (n_models, n_policies) = (self.models.len(), self.policies.len());
        let mut records = Vec::with_capacity(self.grid_len());
        let mut permutations: Vec<Vec<Permutation>> = (0..self.matrices.len())
            .map(|_| Vec::with_capacity(n_techniques))
            .collect();
        for (index, value, timing) in placed {
            let (mi, ti) = (index / n_techniques, index % n_techniques);
            // Cells follow the pipelines: kernel, then model, then policy.
            for (cell, (run, sim_seconds)) in value.cells.into_iter().enumerate() {
                records.push(RunRecord {
                    matrix: mi,
                    technique: ti,
                    kernel: cell / (n_models * n_policies),
                    model: cell / n_policies % n_models,
                    policy: cell % n_policies,
                    run,
                    reorder_seconds: value.reorder_seconds,
                    sim_seconds,
                    queue_seconds: timing.queue_seconds,
                    worker: timing.worker,
                });
            }
            permutations[mi].push(value.permutation);
        }

        Ok(ExperimentResult {
            gpu_name: self.gpu.name.to_string(),
            matrices: self
                .matrices
                .iter()
                .map(|m| (m.name.clone(), m.group.clone()))
                .collect(),
            techniques: self
                .techniques
                .iter()
                .map(|t| t.name().to_string())
                .collect(),
            kernels: self.kernels.clone(),
            models: self.models.clone(),
            policies: self.policies.clone(),
            records,
            permutations,
            stats,
        })
    }

    /// The grid cut into engine jobs, in submission order.
    ///
    /// Each matrix gets one job per technique, except that its
    /// RABBIT-family techniques with equal [`Reordering::detection`]
    /// share one job: that job detects once and derives each of them
    /// from the result. Jobs are submitted largest matrix (by `nnz`)
    /// first, so the longest jobs start while other work is left to
    /// balance them; the sort is stable, so a matrix's jobs keep spec
    /// order.
    fn jobs(&self) -> Vec<GridJob> {
        let mut jobs: Vec<GridJob> = Vec::new();
        for matrix in 0..self.matrices.len() {
            let first = jobs.len();
            for (technique, t) in self.techniques.iter().enumerate() {
                let detection = t.detection();
                let family = jobs[first..]
                    .iter_mut()
                    .find(|job| detection.is_some() && job.detection == detection);
                match family {
                    Some(job) => job.techniques.push(technique),
                    None => jobs.push(GridJob {
                        matrix,
                        techniques: vec![technique],
                        detection,
                    }),
                }
            }
        }
        jobs.sort_by_key(|job| Reverse(self.matrices[job.matrix].matrix.nnz()));
        jobs
    }

    /// One job's body: the shared detection, if any, then for each of
    /// its techniques in spec order: reorder (or derive), permute and
    /// simulate every cell. Each permuted copy is dropped before the
    /// next technique starts.
    fn run_job(
        &self,
        engine: &Engine,
        pipelines: &[Pipeline],
        job: &GridJob,
    ) -> Result<Vec<TechniqueValue>, SparseError> {
        let named = &self.matrices[job.matrix];
        let matrix = &named.matrix;
        let _job_span = obs::span!("grid.job", "{}/{}", named.name, self.job_label(job));
        // Timed on the worker, after dequeue: queue wait is in
        // JobTiming.queue_seconds, never in reorder_seconds.
        let started = Instant::now();
        let detection = match job.detection {
            Some(detection) => {
                let _span = obs::span!("grid.detect", "{}", named.name);
                Some(Rabbit { detection }.run(matrix)?)
            }
            None => None,
        };
        let detect_seconds = started.elapsed().as_secs_f64();
        // The technique gets the grid's engine through the context; the
        // permutation is thread-count-invariant.
        let cx = ReorderContext::new(engine, self.reorder_seed);
        job.techniques
            .iter()
            .map(|&ti| {
                let technique = self.techniques[ti].as_ref();
                let started = Instant::now();
                let permutation = {
                    let _span = obs::span!("grid.reorder", "{}", technique.name());
                    match &detection {
                        Some(detection) => technique.derive(matrix, detection)?,
                        None => technique.reorder_with(matrix, &cx)?,
                    }
                };
                let reorder_seconds = detect_seconds + started.elapsed().as_secs_f64();
                let reordered = {
                    let _span = obs::span!("grid.permute");
                    matrix.permute_symmetric(&permutation)?
                };
                let cells = pipelines
                    .iter()
                    .map(|pipeline| {
                        let sim_started = Instant::now();
                        let run = {
                            let _span =
                                obs::span!("grid.cell", "{}/{}", named.name, technique.name());
                            pipeline.simulate(&reordered)
                        };
                        obs::counter!("grid.cells", 1);
                        (run, sim_started.elapsed().as_secs_f64())
                    })
                    .collect();
                Ok(TechniqueValue {
                    permutation,
                    reorder_seconds,
                    cells,
                })
            })
            .collect()
    }

    /// `grid.job` span label: the job's technique names joined by `+`.
    fn job_label(&self, job: &GridJob) -> String {
        job.techniques
            .iter()
            .map(|&ti| self.techniques[ti].name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One engine job: a matrix and the techniques it runs, in spec order.
/// With a detection, every technique derives from one shared run of it.
struct GridJob {
    matrix: usize,
    techniques: Vec<usize>,
    detection: Option<DetectionConfig>,
}

/// What one technique of a job produced.
struct TechniqueValue {
    permutation: Permutation,
    reorder_seconds: f64,
    /// `(run, sim_seconds)` per pipeline, in pipeline order.
    cells: Vec<(KernelRun, f64)>,
}

/// One grid cell's measurements. Axis fields are indices into the
/// corresponding [`ExperimentResult`] axis vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Matrix axis index.
    pub matrix: usize,
    /// Technique axis index.
    pub technique: usize,
    /// Kernel axis index.
    pub kernel: usize,
    /// Execution-model axis index.
    pub model: usize,
    /// Replacement-policy axis index.
    pub policy: usize,
    /// Simulated traffic/time metrics.
    pub run: KernelRun,
    /// Wall-clock seconds the reordering took on its worker (§VI-C),
    /// measured inside the job after dequeue — queue wait excluded.
    /// Shared by every cell of the same (matrix, technique). A technique
    /// derived from a shared detection carries that detection's seconds
    /// plus its own derivation seconds, so every record still prices
    /// its technique as a standalone run would (§VI-C, Fig. 9).
    pub reorder_seconds: f64,
    /// Wall-clock seconds this cell's simulation took on its worker.
    pub sim_seconds: f64,
    /// Seconds the producing job waited in the engine queue.
    pub queue_seconds: f64,
    /// Engine worker that produced this record.
    pub worker: usize,
}

/// The result table of one grid run, in deterministic nested order
/// (matrix → technique → kernel → model → policy).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Platform name the grid ran on.
    pub gpu_name: String,
    /// Matrix axis: `(name, group)` per matrix.
    pub matrices: Vec<(String, String)>,
    /// Technique axis: display names.
    pub techniques: Vec<String>,
    /// Kernel axis.
    pub kernels: Vec<Kernel>,
    /// Execution-model axis.
    pub models: Vec<ExecutionModel>,
    /// Replacement-policy axis.
    pub policies: Vec<ReplacementPolicy>,
    /// All grid cells (length = product of the axis lengths).
    pub records: Vec<RunRecord>,
    /// `permutations[matrix][technique]` — each technique's output,
    /// available for follow-up analyses (locality scores, spy plots).
    pub permutations: Vec<Vec<Permutation>>,
    /// Engine counters for the run (threads, busy seconds, utilization).
    pub stats: EngineStats,
}

impl ExperimentResult {
    /// The record at the given axis indices.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range for its axis.
    #[must_use]
    pub fn record(
        &self,
        matrix: usize,
        technique: usize,
        kernel: usize,
        model: usize,
        policy: usize,
    ) -> &RunRecord {
        let (nt, nk, nm, np) = (
            self.techniques.len(),
            self.kernels.len(),
            self.models.len(),
            self.policies.len(),
        );
        assert!(
            matrix < self.matrices.len()
                && technique < nt
                && kernel < nk
                && model < nm
                && policy < np,
            "axis index out of range"
        );
        &self.records[(((matrix * nt + technique) * nk + kernel) * nm + model) * np + policy]
    }

    /// The record for (matrix, technique) at the first kernel, model and
    /// policy — the whole grid for single-kernel experiments.
    #[must_use]
    pub fn run_for(&self, matrix: usize, technique: usize) -> &RunRecord {
        self.record(matrix, technique, 0, 0, 0)
    }

    /// Per-matrix traffic ratios for one technique (kernel/model/policy
    /// 0), in matrix order — a figure column.
    #[must_use]
    pub fn traffic_ratios(&self, technique: usize) -> Vec<f64> {
        (0..self.matrices.len())
            .map(|mi| self.run_for(mi, technique).run.traffic_ratio)
            .collect()
    }

    /// Per-matrix normalized run times for one technique
    /// (kernel/model/policy 0), in matrix order.
    #[must_use]
    pub fn time_ratios(&self, technique: usize) -> Vec<f64> {
        (0..self.matrices.len())
            .map(|mi| self.run_for(mi, technique).run.time_ratio)
            .collect()
    }

    /// Stable display name for an execution model.
    #[must_use]
    pub fn model_name(model: ExecutionModel) -> String {
        match model {
            ExecutionModel::Sequential => "sequential".to_string(),
            ExecutionModel::Interleaved { streams } => format!("interleaved-{streams}"),
        }
    }

    /// Renders the machine-independent portion of the result as JSON.
    ///
    /// The output is byte-identical for any engine thread count: it
    /// contains only deterministic simulation quantities, never
    /// wall-clock timings, worker IDs or engine counters. Keys are
    /// emitted in a fixed order.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.records.len() * 200);
        out.push_str("{\n");
        out.push_str(&format!("  \"gpu\": {},\n", json_string(&self.gpu_name)));
        out.push_str(&format!(
            "  \"matrices\": [{}],\n",
            self.matrices
                .iter()
                .map(|(name, _)| json_string(name))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"techniques\": [{}],\n",
            self.techniques
                .iter()
                .map(|t| json_string(t))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"kernels\": [{}],\n",
            self.kernels
                .iter()
                .map(|k| json_string(&k.name()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"models\": [{}],\n",
            self.models
                .iter()
                .map(|&m| json_string(&Self::model_name(m)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"policies\": [{}],\n",
            self.policies
                .iter()
                .map(|p| json_string(p.name()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"matrix\": {}, \"technique\": {}, \"kernel\": {}, \"model\": {}, \
                 \"policy\": {}, \"dram_bytes\": {}, \"compulsory_bytes\": {}, \
                 \"traffic_ratio\": {}, \"time_ratio\": {}, \"hits\": {}, \"misses\": {}, \
                 \"dead_lines\": {}, \"writebacks\": {}}}{}\n",
                json_string(&self.matrices[r.matrix].0),
                json_string(&self.techniques[r.technique]),
                json_string(&self.kernels[r.kernel].name()),
                json_string(&Self::model_name(self.models[r.model])),
                json_string(self.policies[r.policy].name()),
                r.run.dram_bytes,
                r.run.compulsory_bytes,
                json_f64(r.run.traffic_ratio),
                json_f64(r.run.time_ratio),
                r.run.stats.hits,
                r.run.stats.misses(),
                r.run.stats.dead_lines,
                r.run.stats.writebacks,
                if i + 1 < self.records.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_reorder::{Original, Rabbit, RandomOrder};
    use commorder_synth::generators::PlantedPartition;

    fn small_matrix(seed: u64) -> CsrMatrix {
        PlantedPartition::uniform(512, 8, 6.0, 0.05)
            .generate(seed)
            .expect("valid generator")
    }

    fn two_by_two_spec() -> ExperimentSpec {
        ExperimentSpec::new(GpuSpec::test_scale())
            .matrix("a", small_matrix(1))
            .matrix_in_group("b", "synthetic", small_matrix(2))
            .technique(Box::new(Original))
            .technique(Box::new(Rabbit::new()))
    }

    #[test]
    fn grid_shape_and_order() {
        let spec = two_by_two_spec().kernels(vec![Kernel::SpmvCsr, Kernel::SpmvCoo]);
        assert_eq!(spec.grid_len(), 8);
        let result = spec.run(&Engine::serial()).unwrap();
        assert_eq!(result.records.len(), 8);
        // Nested order: matrix-major, then technique, then kernel.
        let r = result.record(1, 0, 1, 0, 0);
        assert_eq!(r.matrix, 1);
        assert_eq!(r.technique, 0);
        assert_eq!(r.kernel, 1);
        assert_eq!(result.matrices[1].1, "synthetic");
        assert_eq!(result.permutations.len(), 2);
        assert_eq!(result.permutations[0].len(), 2);
    }

    #[test]
    fn records_carry_their_axis_indices() {
        let spec = ExperimentSpec::new(GpuSpec::test_scale())
            .matrix("a", small_matrix(1))
            .matrix("b", small_matrix(2))
            .technique(Box::new(Original))
            .technique(Box::new(Rabbit::new()))
            .kernels(vec![Kernel::SpmvCsr, Kernel::SpmvCoo])
            .models(vec![
                ExecutionModel::Sequential,
                ExecutionModel::Interleaved { streams: 4 },
            ])
            .policies(vec![ReplacementPolicy::Lru, ReplacementPolicy::Belady]);
        let result = spec.run(&Engine::new(2)).unwrap();
        assert_eq!(result.records.len(), 32);
        for r in &result.records {
            let at = result.record(r.matrix, r.technique, r.kernel, r.model, r.policy);
            assert_eq!(at, r);
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let no_matrices = ExperimentSpec::new(GpuSpec::test_scale()).technique(Box::new(Original));
        assert!(matches!(
            no_matrices.validate().unwrap_err(),
            SparseError::InvalidConfig { ref what, .. } if what == "matrices"
        ));
        let no_techniques = ExperimentSpec::new(GpuSpec::test_scale()).matrix("m", small_matrix(3));
        assert!(no_techniques.validate().is_err());
        let bad_kernel = two_by_two_spec().kernels(vec![Kernel::SpmmCsr { k: 0 }]);
        assert!(bad_kernel.validate().is_err());
    }

    #[test]
    fn timing_is_recorded_per_job() {
        let result = two_by_two_spec().run(&Engine::new(2)).unwrap();
        for r in &result.records {
            assert!(r.reorder_seconds >= 0.0);
            assert!(r.sim_seconds >= 0.0);
            assert!(r.queue_seconds >= 0.0);
        }
        assert_eq!(result.stats.jobs, 4);
    }

    #[test]
    fn json_is_identical_across_thread_counts() {
        let reference = two_by_two_spec()
            .run(&Engine::serial())
            .unwrap()
            .render_json();
        for threads in [2, 4] {
            let json = two_by_two_spec()
                .run(&Engine::new(threads))
                .unwrap()
                .render_json();
            assert_eq!(json, reference, "threads = {threads}");
        }
        assert!(reference.contains("\"traffic_ratio\""));
        assert!(reference.contains("RABBIT"));
        // Machine-dependent data must not leak into the report.
        assert!(!reference.contains("seconds"));
        assert!(!reference.contains("worker"));
    }

    #[test]
    fn column_accessors_match_records() {
        let result = two_by_two_spec().run(&Engine::serial()).unwrap();
        let ratios = result.traffic_ratios(1);
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0], result.run_for(0, 1).run.traffic_ratio);
        let times = result.time_ratios(0);
        assert_eq!(times[1], result.run_for(1, 0).run.time_ratio);
    }

    #[test]
    fn random_orders_differ_per_seed_but_grid_is_stable() {
        let spec = ExperimentSpec::new(GpuSpec::test_scale())
            .matrix("m", small_matrix(4))
            .technique(Box::new(RandomOrder::new(1)))
            .technique(Box::new(RandomOrder::new(2)));
        let result = spec.run(&Engine::new(2)).unwrap();
        assert_ne!(result.permutations[0][0], result.permutations[0][1]);
    }

    #[test]
    fn spgemm_kernels_thread_through_the_grid() {
        let spec =
            two_by_two_spec().kernels(vec![Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise]);
        assert_eq!(spec.grid_len(), 8);
        let result = spec.run(&Engine::serial()).unwrap();
        assert_eq!(result.records.len(), 8);
        let json = result.render_json();
        assert!(json.contains("\"SpGEMM\""), "kernel axis rendered");
        assert!(json.contains("\"SpGEMM-CW\""), "cluster-wise rendered");
        // The grid re-runs identically under a parallel engine (the
        // cluster-wise community detection is a serial pass per job).
        let parallel = two_by_two_spec()
            .kernels(vec![Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise])
            .run(&Engine::new(4))
            .unwrap()
            .render_json();
        assert_eq!(json, parallel);
    }
}
