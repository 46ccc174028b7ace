//! The evaluation pipeline: matrix → reordering → kernel trace → cache
//! simulation → traffic and run-time metrics.
//!
//! This is the measurement loop behind every figure and table of the
//! paper, with the real GPU and Nsight Compute replaced by the validated
//! cache simulator (§VI-B) and the analytic A6000 model.
//!
//! A [`Pipeline`] is built through [`Pipeline::builder`], which validates
//! the whole configuration (cache geometry, kernel parameters, execution
//! model) up front, so a misconfigured experiment fails with a
//! [`SparseError::InvalidConfig`] at construction instead of panicking
//! thousands of accesses into a simulation. Wall-clock timing of the
//! reordering pre-processing lives in the execution engine's job wrapper
//! (see `commorder::experiment`), not here, so measured times never
//! include scheduler queue wait.

use commorder_cachesim::belady::simulate_belady;
use commorder_cachesim::source::KernelTrace;
use commorder_cachesim::spgemm::SpGemmTrace;
use commorder_cachesim::trace::{walks_rows, ExecutionModel};
use commorder_cachesim::{CacheStats, LruCache, TraceSource};
use commorder_gpumodel::GpuSpec;
use commorder_obs as obs;
use commorder_reorder::{Rabbit, Reordering};
use commorder_sparse::traffic::Kernel;
use commorder_sparse::{CsrMatrix, Permutation, SparseError};

/// Cache replacement policy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// True LRU ("closely models A6000's L2 cache").
    #[default]
    Lru,
    /// Belady's optimal policy (Fig. 8's idealized headroom analysis).
    Belady,
}

impl ReplacementPolicy {
    /// Lower-case stable name (report JSON, CLI parsing).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Belady => "belady",
        }
    }
}

/// Result of simulating one kernel execution on one (reordered) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Raw cache counters.
    pub stats: CacheStats,
    /// Simulated DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Compulsory traffic for this kernel/matrix (§IV-B).
    pub compulsory_bytes: u64,
    /// `dram_bytes / compulsory_bytes` — the y-axis of Figs. 2/6/7/8.
    pub traffic_ratio: f64,
    /// Estimated execution time in seconds.
    pub time_seconds: f64,
    /// Time normalized to ideal — the y-axis of Fig. 3, Tables II/IV.
    pub time_ratio: f64,
}

/// A [`KernelRun`] together with the reordering that produced it.
///
/// Pre-processing wall-clock time is *not* measured here: per-job
/// `reorder_seconds` is recorded by the experiment engine's job wrapper
/// (`commorder::experiment::RunRecord`), where it provably excludes
/// queue wait.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Display name of the technique.
    pub technique: String,
    /// The permutation the technique produced.
    pub permutation: Permutation,
    /// Simulation results on the reordered matrix.
    pub run: KernelRun,
}

/// Experiment configuration: platform, kernel, execution model and
/// replacement policy — validated at construction.
///
/// Build with [`Pipeline::builder`]; [`Pipeline::new`] is shorthand for
/// the all-defaults configuration (SpMV-CSR, sequential trace, LRU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipeline {
    gpu: GpuSpec,
    kernel: Kernel,
    model: ExecutionModel,
    policy: ReplacementPolicy,
}

/// One degenerate-kernel-parameter rule: the parameter extracted by
/// `value` must be positive when present.
struct ParamRule {
    /// `InvalidConfig::what` field name (e.g. `kernel.k`).
    field: &'static str,
    /// Human requirement, shared by every violation's error text.
    requirement: &'static str,
    /// Extracts the checked parameter (`None` when the kernel does not
    /// carry it).
    value: fn(Kernel) -> Option<u32>,
}

/// Every parameterized kernel's positivity requirement in one table —
/// the single validation path for all kernel variants. Parameterless
/// kernels (SpMV-CSR/COO and both SpGEMM variants) return `None` from
/// every extractor and pass through.
const KERNEL_PARAM_RULES: &[ParamRule] = &[
    ParamRule {
        field: "kernel.k",
        requirement: "SpMM needs at least one dense column",
        value: |kernel| match kernel {
            Kernel::SpmmCsr { k } => Some(k),
            _ => None,
        },
    },
    ParamRule {
        field: "kernel.tile_cols",
        requirement: "tile width must be positive",
        value: |kernel| match kernel {
            Kernel::SpmvCsrTiled { tile_cols } => Some(tile_cols),
            _ => None,
        },
    },
    ParamRule {
        field: "kernel.bins",
        requirement: "blocking needs at least one bin",
        value: |kernel| match kernel {
            Kernel::SpmvBlocked { bins } => Some(bins),
            _ => None,
        },
    },
];

/// Validating builder for [`Pipeline`]. Obtained from
/// [`Pipeline::builder`].
///
/// # Example
///
/// ```
/// use commorder::prelude::*;
///
/// let pipeline = Pipeline::builder(GpuSpec::test_scale())
///     .kernel(Kernel::SpmmCsr { k: 4 })
///     .policy(ReplacementPolicy::Belady)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(pipeline.kernel(), Kernel::SpmmCsr { k: 4 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "call .build() to obtain the validated Pipeline"]
pub struct PipelineBuilder {
    gpu: GpuSpec,
    kernel: Kernel,
    model: ExecutionModel,
    policy: ReplacementPolicy,
}

impl PipelineBuilder {
    /// Selects the kernel whose trace is simulated.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the trace linearization model.
    pub fn model(mut self, model: ExecutionModel) -> Self {
        self.model = model;
        self
    }

    /// Selects the cache replacement policy.
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates the configuration and produces the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidConfig`] when the cache geometry is
    /// degenerate (zero capacity/line/associativity, capacity not a whole
    /// number of sets), a bandwidth constant is non-positive, or a
    /// parameterized kernel/model has a zero parameter.
    pub fn build(self) -> Result<Pipeline, SparseError> {
        let invalid = |what: &str, message: String| {
            Err(SparseError::InvalidConfig {
                what: what.to_string(),
                message,
            })
        };
        let l2 = self.gpu.l2;
        if l2.capacity_bytes == 0 {
            return invalid(
                "l2.capacity_bytes",
                "cache capacity must be positive".into(),
            );
        }
        if l2.line_bytes == 0 {
            return invalid("l2.line_bytes", "cache line size must be positive".into());
        }
        if l2.associativity == 0 {
            return invalid("l2.associativity", "associativity must be positive".into());
        }
        let set_bytes = u64::from(l2.line_bytes) * u64::from(l2.associativity);
        if !l2.capacity_bytes.is_multiple_of(set_bytes) {
            return invalid(
                "l2.capacity_bytes",
                format!(
                    "capacity {} is not a whole number of {}-byte sets",
                    l2.capacity_bytes, set_bytes
                ),
            );
        }
        if !self.gpu.measured_bandwidth.is_finite() || self.gpu.measured_bandwidth <= 0.0 {
            return invalid(
                "gpu.measured_bandwidth",
                "measured bandwidth must be positive".into(),
            );
        }
        if !self.gpu.peak_bandwidth.is_finite() || self.gpu.peak_bandwidth <= 0.0 {
            return invalid(
                "gpu.peak_bandwidth",
                "peak bandwidth must be positive".into(),
            );
        }
        for rule in KERNEL_PARAM_RULES {
            if (rule.value)(self.kernel) == Some(0) {
                return invalid(rule.field, format!("{} (got 0)", rule.requirement));
            }
        }
        if let ExecutionModel::Interleaved { streams: 0 } = self.model {
            return invalid(
                "model.streams",
                "interleaved execution needs at least one stream".into(),
            );
        }
        Ok(Pipeline {
            gpu: self.gpu,
            kernel: self.kernel,
            model: self.model,
            policy: self.policy,
        })
    }
}

impl Pipeline {
    /// Starts a builder with the given platform and the Fig. 2–7
    /// defaults: SpMV-CSR, sequential trace, LRU.
    pub fn builder(gpu: GpuSpec) -> PipelineBuilder {
        PipelineBuilder {
            gpu,
            kernel: Kernel::SpmvCsr,
            model: ExecutionModel::Sequential,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// SpMV-CSR, sequential trace, LRU — the default for Figs. 2–7.
    ///
    /// # Panics
    ///
    /// Panics when `gpu` fails builder validation (the built-in
    /// [`GpuSpec`] constructors never do); use [`Pipeline::builder`] for
    /// fallible construction of custom platforms.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic: every built-in GpuSpec passes builder validation, and Pipeline::builder is the fallible path"
    )]
    pub fn new(gpu: GpuSpec) -> Self {
        Pipeline::builder(gpu)
            .build()
            .expect("built-in GpuSpec configurations are valid")
    }

    /// Simulated platform (L2 geometry + bandwidth model).
    #[must_use]
    pub fn gpu(&self) -> GpuSpec {
        self.gpu
    }

    /// Kernel whose trace is simulated.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Trace linearization model.
    #[must_use]
    pub fn model(&self) -> ExecutionModel {
        self.model
    }

    /// Replacement policy.
    #[must_use]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Simulates the configured kernel on `matrix` as-is (no reordering).
    ///
    /// Both policies consume the kernel trace as a replayable stream
    /// ([`KernelTrace`] / [`SpGemmTrace`]); no full `Vec<Access>` is ever
    /// materialized. With telemetry enabled an extra counting replay is
    /// timed under `pipeline.trace_gen` so trace generation and cache
    /// simulation still profile as separate phases — the replay feeds
    /// the simulator the identical access sequence either way, so
    /// `CacheStats` (and therefore the deterministic JSON report) is
    /// unchanged by telemetry (the workspace golden test enforces this).
    ///
    /// The SpGEMM kernels simulate the corpus-default self-multiply
    /// `A·A`; [`Kernel::SpGemmClusterWise`] detects the RABBIT community
    /// assignment of `matrix` (a serial, thread-count-independent pass)
    /// and executes the rows of each community as a block. An explicit
    /// `(A, B)` pair is traced with [`SpGemmTrace::new`].
    #[must_use]
    pub fn simulate(&self, matrix: &CsrMatrix) -> KernelRun {
        if self.kernel.is_spgemm() {
            return self.simulate_self_multiply(matrix);
        }
        self.run_source(matrix, &KernelTrace::new(matrix, self.kernel, self.model))
    }

    /// The SpGEMM arm of [`Pipeline::simulate`]: self-multiply with the
    /// community assignment resolved on the fly for cluster-wise
    /// execution.
    fn simulate_self_multiply(&self, matrix: &CsrMatrix) -> KernelRun {
        let _span = obs::span!("pipeline.spgemm");
        let assignment = if self.kernel == Kernel::SpGemmClusterWise && matrix.is_square() {
            Rabbit::new().run(matrix).ok().map(|r| r.assignment)
        } else {
            None
        };
        match SpGemmTrace::new(matrix, matrix, self.kernel, assignment.as_deref()) {
            Ok(source) => {
                obs::gauge!("pipeline.spgemm_acc_peak", source.accumulator_peak() as f64);
                self.run_source(matrix, &source)
            }
            Err(_) => {
                // A non-square matrix cannot self-multiply: the trace is
                // empty (matching `for_each_access`) and the metrics
                // fall back to the shape-only compulsory bound.
                // `SpGemmTrace::new` on an explicit pair surfaces the
                // error instead.
                self.run_from_stats(matrix, LruCache::new(self.gpu.l2).finish())
            }
        }
    }

    /// Simulates `source` ([`Pipeline::consume_source`]) and wraps the
    /// counters into the metrics of `matrix`, whose shape sets the
    /// compulsory bound.
    fn run_source<S: TraceSource>(&self, matrix: &CsrMatrix, source: &S) -> KernelRun {
        let stats = self.consume_source(source);
        let _span = obs::span!("pipeline.model");
        self.run_from_stats(matrix, stats)
    }

    /// Streams `source` through the configured replacement policy (with
    /// the telemetry phases of [`Pipeline::simulate`]) and returns the
    /// cache counters.
    fn consume_source<S: TraceSource>(&self, source: &S) -> CacheStats {
        if obs::enabled() {
            let _span = obs::span!("pipeline.trace_gen");
            let mut generated = 0u64;
            source.replay(&mut |_| generated += 1);
            std::hint::black_box(generated);
        }
        let stats = {
            let _span = obs::span!("pipeline.simulate");
            match self.policy {
                ReplacementPolicy::Lru => {
                    let mut cache = LruCache::new(self.gpu.l2);
                    cache.consume(source);
                    cache.finish()
                }
                ReplacementPolicy::Belady => simulate_belady(self.gpu.l2, source),
            }
        };
        commorder_cachesim::telemetry::record_cache_stats(&stats);
        stats
    }

    /// Wraps raw cache counters into traffic/time metrics for `matrix`
    /// (for SpGEMM kernels, the exact self-multiply compulsory figure).
    #[must_use]
    pub fn run_from_stats(&self, matrix: &CsrMatrix, stats: CacheStats) -> KernelRun {
        let compulsory_bytes = self.kernel.compulsory_bytes_for(matrix);
        commorder_sparse::debug_validate!(
            matrix.n_rows() == 0 || compulsory_bytes > 0,
            "compulsory traffic must be positive for a non-empty matrix (n = {}, nnz = {})",
            matrix.n_rows(),
            matrix.nnz()
        );
        let dram_bytes = stats.dram_traffic_bytes();
        KernelRun {
            stats,
            dram_bytes,
            compulsory_bytes,
            traffic_ratio: dram_bytes as f64 / compulsory_bytes as f64,
            time_seconds: self
                .gpu
                .estimate_time_from_compulsory(compulsory_bytes, dram_bytes),
            time_ratio: self
                .gpu
                .normalized_time_from_compulsory(compulsory_bytes, dram_bytes),
        }
    }

    /// Simulates the configured kernel on `P·A·Pᵀ`, the matrix `a`
    /// reordered by `p`: the same [`KernelRun`] as
    /// [`Pipeline::simulate`]`(&a.permute_symmetric(p)?)`.
    ///
    /// Under LRU, SpMV-CSR, SpMV-COO and SpMM-CSR stream their trace
    /// over `(a, p)` ([`KernelTrace::relabelled`]), so no permuted copy
    /// is built. Everything else builds `P·A·Pᵀ` once here. The tiled
    /// trace walks every row once per column tile, the blocked trace
    /// reads the matrix column by column through its transpose, and
    /// SpGEMM reads the rows of its second operand in the order the
    /// first operand's columns name them, so a row-order stream cannot
    /// feed any of them. Belady replays the trace twice, and a stream
    /// redoes the relabel, the sort and the scattered row reads on every
    /// replay, which costs more than one copy.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] when `a` is not square or `p`
    /// does not have one entry per row.
    pub fn simulate_reordered(
        &self,
        a: &CsrMatrix,
        p: &Permutation,
    ) -> Result<KernelRun, SparseError> {
        if !walks_rows(self.kernel) || self.policy != ReplacementPolicy::Lru {
            return Ok(self.simulate(&a.permute_symmetric(p)?));
        }
        let source = KernelTrace::relabelled(a, p, self.kernel, self.model)?;
        // `P·A·Pᵀ` has `a`'s shape and entry count, which is all the
        // compulsory bound of these kernels reads.
        Ok(self.run_source(a, &source))
    }

    /// Reorders `matrix` with `technique`, then simulates the kernel on
    /// the reordered matrix ([`Pipeline::simulate_reordered`]).
    ///
    /// # Errors
    ///
    /// Propagates reordering/permutation errors (non-square input).
    pub fn evaluate(
        &self,
        matrix: &CsrMatrix,
        technique: &dyn Reordering,
    ) -> Result<Evaluation, SparseError> {
        let permutation = technique.reorder(matrix)?;
        commorder_sparse::debug_validate!(
            permutation.len() == matrix.n_rows() as usize,
            "{}: permutation length {} does not match n = {}",
            technique.name(),
            permutation.len(),
            matrix.n_rows()
        );
        let run = self.simulate_reordered(matrix, &permutation)?;
        Ok(Evaluation {
            technique: technique.name().to_string(),
            permutation,
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_cachesim::CacheConfig;
    use commorder_reorder::{Original, Rabbit, RandomOrder};
    use commorder_synth::generators::PlantedPartition;

    fn strong_community_matrix() -> CsrMatrix {
        // Generated community-sorted, then scrambled: ORIGINAL is bad,
        // RABBIT should recover it.
        let g = PlantedPartition::uniform(2048, 32, 10.0, 0.03)
            .generate(51)
            .unwrap();
        let p = RandomOrder::new(9).reorder(&g).unwrap();
        g.permute_symmetric(&p).unwrap()
    }

    #[test]
    fn traffic_ratio_is_at_least_one_for_lru() {
        let m = strong_community_matrix();
        let run = Pipeline::new(GpuSpec::test_scale()).simulate(&m);
        assert!(run.traffic_ratio >= 0.99, "ratio = {}", run.traffic_ratio);
        assert!(run.time_ratio >= run.traffic_ratio * 0.99);
    }

    #[test]
    fn rabbit_beats_scrambled_original() {
        let m = strong_community_matrix();
        let pipeline = Pipeline::new(GpuSpec::test_scale());
        let original = pipeline.evaluate(&m, &Original).unwrap();
        let rabbit = pipeline.evaluate(&m, &Rabbit::new()).unwrap();
        assert!(
            rabbit.run.traffic_ratio < original.run.traffic_ratio,
            "rabbit {} vs original {}",
            rabbit.run.traffic_ratio,
            original.run.traffic_ratio
        );
        assert_eq!(rabbit.technique, "RABBIT");
    }

    #[test]
    fn belady_never_exceeds_lru_traffic() {
        let m = strong_community_matrix();
        let lru = Pipeline::new(GpuSpec::test_scale()).simulate(&m);
        let opt = Pipeline::builder(GpuSpec::test_scale())
            .policy(ReplacementPolicy::Belady)
            .build()
            .unwrap()
            .simulate(&m);
        assert!(opt.dram_bytes <= lru.dram_bytes);
    }

    #[test]
    fn simulate_reordered_matches_the_permuted_copy() {
        let m = PlantedPartition::uniform(512, 8, 6.0, 0.05)
            .generate(3)
            .unwrap();
        let p = RandomOrder::new(4).reorder(&m).unwrap();
        let permuted = m.permute_symmetric(&p).unwrap();
        for kernel in [
            Kernel::SpmvCsr,
            Kernel::SpmvCoo,
            Kernel::SpmmCsr { k: 8 },
            Kernel::SpmvCsrTiled { tile_cols: 128 },
            Kernel::SpmvBlocked { bins: 4 },
            Kernel::SpGemmGustavson,
        ] {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Belady] {
                let pipeline = Pipeline::builder(GpuSpec::test_scale())
                    .kernel(kernel)
                    .policy(policy)
                    .build()
                    .unwrap();
                assert_eq!(
                    pipeline.simulate_reordered(&m, &p).unwrap(),
                    pipeline.simulate(&permuted),
                    "{kernel:?} under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_builder_changes_compulsory() {
        let m = strong_community_matrix();
        let csr = Pipeline::new(GpuSpec::test_scale()).simulate(&m);
        let coo = Pipeline::builder(GpuSpec::test_scale())
            .kernel(Kernel::SpmvCoo)
            .build()
            .unwrap()
            .simulate(&m);
        assert!(coo.compulsory_bytes > csr.compulsory_bytes);
    }

    #[test]
    fn interleaved_model_runs() {
        let m = strong_community_matrix();
        let run = Pipeline::builder(GpuSpec::test_scale())
            .model(ExecutionModel::Interleaved { streams: 8 })
            .build()
            .unwrap()
            .simulate(&m);
        assert!(run.traffic_ratio >= 0.99);
    }

    #[test]
    fn builder_rejects_zero_capacity_cache() {
        let gpu = GpuSpec {
            l2: CacheConfig {
                capacity_bytes: 0,
                line_bytes: 32,
                associativity: 16,
            },
            ..GpuSpec::test_scale()
        };
        let err = Pipeline::builder(gpu).build().unwrap_err();
        assert!(
            matches!(err, SparseError::InvalidConfig { ref what, .. } if what == "l2.capacity_bytes")
        );
    }

    #[test]
    fn builder_rejects_ragged_capacity_and_zero_params() {
        let ragged = GpuSpec {
            l2: CacheConfig {
                capacity_bytes: 1000,
                line_bytes: 32,
                associativity: 16,
            },
            ..GpuSpec::test_scale()
        };
        assert!(Pipeline::builder(ragged).build().is_err());
        assert!(Pipeline::builder(GpuSpec::test_scale())
            .kernel(Kernel::SpmmCsr { k: 0 })
            .build()
            .is_err());
        assert!(Pipeline::builder(GpuSpec::test_scale())
            .kernel(Kernel::SpmvCsrTiled { tile_cols: 0 })
            .build()
            .is_err());
        assert!(Pipeline::builder(GpuSpec::test_scale())
            .model(ExecutionModel::Interleaved { streams: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn builder_accepts_all_builtin_specs() {
        for gpu in [
            GpuSpec::a6000(),
            GpuSpec::a6000_scaled(),
            GpuSpec::test_scale(),
        ] {
            let p = Pipeline::builder(gpu).build().unwrap();
            assert_eq!(p.kernel(), Kernel::SpmvCsr);
            assert_eq!(p.policy(), ReplacementPolicy::Lru);
            assert_eq!(p.model(), ExecutionModel::Sequential);
            assert_eq!(p.gpu().l2, gpu.l2);
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(ReplacementPolicy::Lru.name(), "lru");
        assert_eq!(ReplacementPolicy::Belady.name(), "belady");
    }

    fn spgemm_pipeline(kernel: Kernel) -> Pipeline {
        Pipeline::builder(GpuSpec::test_scale())
            .kernel(kernel)
            .build()
            .unwrap()
    }

    #[test]
    fn spgemm_simulation_runs_and_is_deterministic() {
        let m = strong_community_matrix();
        let p = spgemm_pipeline(Kernel::SpGemmGustavson);
        let run = p.simulate(&m);
        assert_eq!(
            run.compulsory_bytes,
            Kernel::SpGemmGustavson.compulsory_bytes_for(&m)
        );
        assert!(run.dram_bytes > 0);
        assert!(run.time_ratio > 0.0);
        assert_eq!(p.simulate(&m), run, "repeat simulation must be identical");
    }

    #[test]
    fn cluster_wise_spgemm_shares_the_access_multiset() {
        // Cluster-wise execution permutes whole row blocks; the work
        // (and hence the trace length and compulsory traffic) is
        // unchanged — only the reuse structure moves.
        let m = strong_community_matrix();
        let gus = spgemm_pipeline(Kernel::SpGemmGustavson).simulate(&m);
        let cw = spgemm_pipeline(Kernel::SpGemmClusterWise).simulate(&m);
        assert_eq!(gus.compulsory_bytes, cw.compulsory_bytes);
        assert_eq!(gus.stats.accesses, cw.stats.accesses);
        assert_eq!(gus.stats.compulsory_misses, cw.stats.compulsory_misses);
    }

    #[test]
    fn spgemm_evaluates_through_reordering_techniques() {
        let m = strong_community_matrix();
        let p = spgemm_pipeline(Kernel::SpGemmClusterWise);
        let eval = p.evaluate(&m, &Rabbit::new()).unwrap();
        assert_eq!(eval.technique, "RABBIT");
        assert!(eval.run.dram_bytes > 0);
    }

    #[test]
    fn spgemm_kernels_pass_the_param_table() {
        for kernel in [Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise] {
            let p = Pipeline::builder(GpuSpec::test_scale())
                .kernel(kernel)
                .build()
                .unwrap();
            assert_eq!(p.kernel(), kernel);
        }
    }

    #[test]
    fn param_table_errors_name_the_field() {
        let err = Pipeline::builder(GpuSpec::test_scale())
            .kernel(Kernel::SpmvBlocked { bins: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SparseError::InvalidConfig { ref what, .. } if what == "kernel.bins")
        );
    }
}
