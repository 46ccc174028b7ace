//! GPU last-level-cache simulator and kernel address-trace generators.
//!
//! The paper validates RABBIT++ with "a cache simulator modelling the L2
//! cache of the A6000 ... within 4% of the real-GPU numbers" (§VI-B).
//! This crate is that simulator:
//!
//! * [`CacheConfig`] — capacity / line size / associativity, with presets
//!   for the A6000's 6 MB L2 and the scaled-down variant the synthetic
//!   corpus is calibrated against,
//! * [`LruCache`] — set-associative LRU cache (the paper: "LRU
//!   replacement policy (which closely models A6000's L2 cache)"),
//! * [`belady`] — the same cache under Belady's optimal replacement \[8\],
//!   used for the headroom analysis of Fig. 8,
//! * dead-line accounting ([`CacheStats::dead_line_fraction`]) for
//!   Table III,
//! * [`trace`] — address-trace generators replaying the exact array-level
//!   access patterns of the SpMV-CSR (Algorithm 1), SpMV-COO and
//!   SpMM-CSR kernels, with sequential or GPU-style interleaved
//!   execution ([`trace::ExecutionModel`]).
//!
//! DRAM traffic is `fill misses x line + write-backs x line`. Write
//! misses allocate without fetching (streaming stores fully overwrite
//! their sectors on these kernels), which makes the simulator's minimum
//! traffic coincide exactly with the paper's §IV-B compulsory-traffic
//! formula.
//!
//! # Example
//!
//! ```
//! use commorder_cachesim::{CacheConfig, LruCache, trace};
//! use commorder_sparse::{traffic::Kernel, CsrMatrix};
//!
//! # fn main() -> Result<(), commorder_sparse::SparseError> {
//! let a = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0])?;
//! let mut cache = LruCache::new(CacheConfig::test_scale());
//! trace::for_each_access(&a, Kernel::SpmvCsr, trace::ExecutionModel::Sequential, |acc| {
//!     cache.access(acc);
//! });
//! let stats = cache.finish();
//! assert!(stats.dram_traffic_bytes() >= Kernel::SpmvCsr.compulsory_bytes_for(&a));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod lines;

pub mod belady;
pub mod classify;
pub mod format_trace;
pub mod graph_trace;
pub mod hierarchy;
pub mod layout;
pub mod plru;
pub mod source;
pub mod spgemm;
pub mod telemetry;
pub mod trace;

pub use cache::{AccessOutcome, CacheStats, LruCache};
pub use config::CacheConfig;
pub use layout::ArrayLayout;
pub use source::TraceSource;
pub use spgemm::SpGemmTrace;
pub use trace::Access;
