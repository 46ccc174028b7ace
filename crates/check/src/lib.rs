//! Invariant auditing for the `commorder` workspace.
//!
//! Every data object the reproduction pipeline moves between stages —
//! sparse matrices, permutations, community assignments, address traces,
//! cache and GPU configurations — has structural invariants that the
//! typed constructors enforce at build time. This crate re-derives those
//! invariants as *composable validators* that never panic: each check
//! walks the object and emits [`Diagnostic`] records with stable `CHK`
//! codes (see [`codes`]), collected into a [`CheckReport`] that renders
//! as human-readable text or stable-key JSON.
//!
//! The crate has three consumers:
//!
//! 1. **`commorder-cli check <file>`** audits on-disk fixtures through
//!    the lenient parsers in [`ingest`] — a corrupted file produces the
//!    full finding list, not a single parse abort.
//! 2. **Golden and unit tests** assert that pipelines keep objects well
//!    formed and that each corruption is flagged with the expected code.
//! 3. **Property tests** use [`propcheck`], the vendored deterministic
//!    harness (no registry dependencies), to drive validators and
//!    library invariants over random inputs.
//!
//! # Example
//!
//! ```
//! use commorder_check::{check_csr_parts, CheckReport};
//!
//! let mut report = CheckReport::new();
//! // Offsets decrease at index 2: CHK0103.
//! report.extend(check_csr_parts("csr", 2, 3, &[0, 2, 1], &[0, 1], None));
//! assert!(!report.is_clean());
//! assert_eq!(report.codes(), vec!["CHK0103", "CHK0104"]);
//! println!("{}", report.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod codes;
pub mod diag;
pub mod ingest;
pub mod matrix;
pub mod perm;
pub mod propcheck;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use bench::{check_bench_artifact, check_histogram_shape};
pub use diag::{CheckReport, Diagnostic, Location, Severity};
pub use ingest::check_file_contents;
pub use matrix::{
    check_coo, check_coo_parts, check_csc, check_csr, check_csr_parts, check_ell, check_sell,
};
pub use perm::{check_assignment, check_permutation, check_permutation_parts};
pub use stream::{check_next_use, check_stream_equivalence};
pub use telemetry::{check_self_time, check_telemetry, parse_flat_object, Json};
pub use trace::{check_cache_config, check_gpu_spec, check_trace};
