//! Sparse-matrix substrate for the `commorder` workspace.
//!
//! This crate provides the data-structure and kernel layer that the ISPASS'23
//! paper *"Community-based Matrix Reordering for Sparse Linear Algebra
//! Optimization"* builds on:
//!
//! * compressed sparse formats — [`CsrMatrix`], [`CooMatrix`],
//!   [`CscMatrix`], [`EllMatrix`], [`SellMatrix`] (SELL-C-σ) — with
//!   validated construction and conversions,
//! * a validated [`Permutation`] newtype and symmetric/asymmetric matrix
//!   permutation (the output of every reordering technique),
//! * reference implementations of the kernels the paper evaluates
//!   ([`kernels::spmv_csr`], [`kernels::spmv_coo`], [`kernels::spmm_csr`]),
//! * structural statistics used throughout the paper's analysis
//!   ([`stats::DegreeStats`], [`stats::skew_top10`], bandwidth/profile),
//! * the *compulsory DRAM traffic* formulas of §IV-B ([`traffic`]),
//! * Matrix Market I/O ([`io`]) so external matrices can be dropped in.
//!
//! Index type is `u32` and value type is `f32` (4-byte elements), matching the
//! paper's traffic accounting ("assuming 4 bytes for matrix values and the CSR
//! coordinates").
//!
//! # Example
//!
//! ```
//! use commorder_sparse::{CooMatrix, CsrMatrix, kernels};
//!
//! # fn main() -> Result<(), commorder_sparse::SparseError> {
//! // 3-node path graph: 0-1, 1-2 (symmetric).
//! let coo = CooMatrix::from_entries(
//!     3,
//!     3,
//!     vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
//! )?;
//! let csr = CsrMatrix::try_from(coo)?;
//! let x = vec![1.0f32, 2.0, 3.0];
//! let y = kernels::spmv_csr(&csr, &x)?;
//! assert_eq!(y, vec![2.0, 4.0, 2.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod assemble;
mod coo;
mod csc;
mod csr;
mod ell;
mod error;
mod perm;
mod sell;

pub mod graph;
pub mod io;
pub mod kernels;
pub mod ops;
pub mod stats;
pub mod traffic;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use ell::{EllMatrix, ELL_PAD};
pub use error::SparseError;
pub use perm::Permutation;
pub use sell::SellMatrix;

/// Bytes per stored element (matrix value, index, or vector element).
///
/// The paper's traffic model (§IV-B) assumes 4-byte values and coordinates;
/// every byte-accounting helper in this workspace uses this constant.
pub const ELEM_BYTES: u64 = 4;

/// Strict-mode invariant assertion, compiled out unless the *calling*
/// crate enables its `strict-checks` feature.
///
/// Hot paths (kernels, trace generators, the pipeline) thread their
/// structural invariants through this macro so that
/// `cargo test --features strict-checks` audits every stage while release
/// builds pay nothing: `cfg!(feature = "strict-checks")` is a compile-time
/// constant, so the whole check folds away when the feature is off.
///
/// Each crate that uses the macro must declare its own `strict-checks`
/// feature (macro expansion evaluates `cfg!` against the caller), and
/// downstream crates forward it (`commorder-cachesim/strict-checks`
/// enables `commorder-sparse/strict-checks`, and so on up to
/// `commorder/strict-checks`).
///
/// # Example
///
/// ```
/// use commorder_sparse::debug_validate;
///
/// let offsets = [0u32, 2, 5];
/// debug_validate!(
///     offsets.windows(2).all(|w| w[0] <= w[1]),
///     "offsets must be monotone: {offsets:?}"
/// );
/// ```
#[macro_export]
macro_rules! debug_validate {
    ($cond:expr, $($arg:tt)+) => {
        if cfg!(feature = "strict-checks") {
            assert!($cond, $($arg)+);
        }
    };
    ($cond:expr) => {
        if cfg!(feature = "strict-checks") {
            assert!($cond);
        }
    };
}
