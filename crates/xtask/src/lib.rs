//! Library surface of the workspace-automation crate.
//!
//! The binary (`cargo run -p xtask -- <task>`) drives the offline lint
//! and the unified bench harness; this library holds the parts worth
//! testing in isolation: the [`bench`](mod@bench) report model (schema
//! `commorder-bench.v2`), its renderer, the [`artifact`] reader, and
//! the tolerance-banded regression comparator behind
//! `xtask bench --compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bench;
