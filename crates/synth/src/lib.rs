//! Deterministic synthetic sparse-matrix generators and the 50-matrix
//! evaluation corpus for the `commorder` workspace.
//!
//! The ISPASS'23 paper evaluates on 50 matrices curated from SuiteSparse,
//! Konect and Web Data Commons. Those repositories cannot be bundled, so
//! this crate provides generator families covering the same structural
//! axes — community strength, degree skew, diameter, density — and a
//! fixed, seeded [`corpus`] whose entries each name the paper-corpus
//! family they stand in for. See `DESIGN.md` §1 for the substitution
//! argument.
//!
//! Everything is deterministic: the same crate version always produces
//! bit-identical matrices (own PRNG in [`rng`], no external randomness).
//!
//! # Example
//!
//! ```
//! use commorder_synth::generators::PlantedPartition;
//!
//! # fn main() -> Result<(), commorder_sparse::SparseError> {
//! let g = PlantedPartition::uniform(1024, 16, 8.0, 0.05).generate(42)?;
//! assert_eq!(g.n_rows(), 1024);
//! assert!(g.is_symmetric());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod corpus;
pub mod generators;
pub mod rng;
pub mod stream;

pub use corpus::{CorpusEntry, Domain, GeneratorSpec, PublishOrder};
