//! `commorder` — community-based matrix reordering for sparse linear
//! algebra optimization.
//!
//! A complete reproduction of *"Community-based Matrix Reordering for
//! Sparse Linear Algebra Optimization"* (Balaji, Crago, Jaleel, Keckler —
//! ISPASS 2023) as a reusable Rust library. The facade ties the
//! subsystem crates together:
//!
//! * [`sparse`] — formats, kernels, permutations, compulsory traffic,
//! * [`synth`] — the deterministic 50-matrix evaluation corpus,
//! * [`reorder`] — DEGSORT / DBG / GORDER / RCM / RABBIT / RABBIT++ and
//!   the community-quality metrics,
//! * [`cachesim`] — the A6000 L2 simulator (LRU + Belady, dead lines),
//! * [`gpumodel`] — ideal/estimated run times on the A6000,
//! * [`obs`] — zero-dependency structured telemetry (span timers,
//!   counters, JSONL/registry sinks) threaded through the pipeline,
//!   engine and cache simulator,
//!
//! and adds the experiment plumbing: [`Pipeline`] (matrix → reorder →
//! simulate → metrics), [`analysis`] helpers (insularity splits, means)
//! and [`report`] (plain-text tables shaped like the paper's).
//!
//! # Quickstart
//!
//! ```
//! use commorder::prelude::*;
//!
//! # fn main() -> Result<(), commorder::sparse::SparseError> {
//! // A small community-structured matrix, published in scrambled order.
//! let matrix = commorder::synth::generators::PlantedPartition::uniform(2048, 32, 10.0, 0.05)
//!     .generate(7)?;
//!
//! let pipeline = Pipeline::new(GpuSpec::test_scale());
//! let original = pipeline.evaluate(&matrix, &Original)?;
//! let rabbit = pipeline.evaluate(&matrix, &Rabbit::new())?;
//! assert!(rabbit.run.traffic_ratio <= original.run.traffic_ratio * 1.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]

pub use commorder_cachesim as cachesim;
pub use commorder_check as check;
pub use commorder_exec as exec;
pub use commorder_gpumodel as gpumodel;
pub use commorder_obs as obs;
pub use commorder_reorder as reorder;
pub use commorder_sparse as sparse;
pub use commorder_synth as synth;

pub mod analysis;
pub mod cli;
pub mod experiment;
pub mod pipeline;
pub mod report;
pub mod viz;

pub use experiment::{ExperimentResult, ExperimentSpec, NamedMatrix, RunRecord};
pub use pipeline::{Evaluation, KernelRun, Pipeline, PipelineBuilder, ReplacementPolicy};

/// One-stop imports for examples and experiment binaries.
pub mod prelude {
    pub use crate::analysis::{arith_mean_ratio, geo_mean_ratio, InsularitySplit};
    pub use crate::cachesim::{
        trace::ExecutionModel, CacheConfig, CacheStats, LruCache, TraceSource,
    };
    pub use crate::exec::{Engine, EngineStats, JobTiming};
    pub use crate::experiment::{ExperimentResult, ExperimentSpec, NamedMatrix, RunRecord};
    pub use crate::gpumodel::GpuSpec;
    pub use crate::obs::{JsonlSink, MemorySink, Registry, Sink};
    pub use crate::pipeline::{
        Evaluation, KernelRun, Pipeline, PipelineBuilder, ReplacementPolicy,
    };
    pub use crate::reorder::{
        paper_suite, parse_technique_list, technique_by_name, Boba, Dbg, DegSort, Gorder, HubGroup,
        HubPolicy, HubSort, Original, Rabbit, RabbitPlusPlus, RabbitPlusPlusConfig, RandomOrder,
        Rcm, RcmPlusPlus, ReorderContext, Reordering,
    };
    pub use crate::report::Table;
    pub use crate::sparse::{traffic::Kernel, CooMatrix, CsrMatrix, Permutation};
    pub use crate::synth::corpus;
}
