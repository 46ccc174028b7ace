//! Invariant auditing for the `commorder` workspace.
//!
//! The typed constructors enforce every structural invariant at build
//! time. This crate re-derives the invariants of the objects that cross
//! a boundary — sparse matrices, permutations, community assignments,
//! address traces, telemetry streams and bench artifacts — as
//! *composable validators* that never panic: each check walks the
//! object and emits [`Diagnostic`] records with stable `CHK` codes (see
//! [`codes`]), collected into a [`CheckReport`] that renders as
//! human-readable text or stable-key JSON. Objects that are only ever
//! built by a constructor from an already-audited object (CSC, ELL and
//! SELL storage) or are constants (`CacheConfig`, `GpuSpec`) get no
//! validator: their constructors and unit tests carry the invariants.
//!
//! The crate has four consumers:
//!
//! 1. **`commorder-cli check <file>`** audits on-disk fixtures through
//!    the lenient parsers in [`ingest`] — a corrupted file produces the
//!    full finding list, not a single parse abort.
//! 2. **perfbench** audits every generated matrix, permutation and
//!    community assignment in set-up ([`check_csr`],
//!    [`check_permutation`], [`check_assignment`]).
//! 3. **Golden and unit tests** assert that pipelines keep objects well
//!    formed and that each corruption is flagged with the expected code;
//!    [`check_stream_equivalence`] and [`check_next_use`] are the
//!    oracles of the streamed trace sources.
//! 4. **Property tests** use [`propcheck`], the vendored deterministic
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
#![deny(clippy::expect_used, clippy::panic)]

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

pub use bench::check_bench_artifact;
pub use diag::{CheckReport, Diagnostic, Location, Severity};
pub use ingest::check_file_contents;
pub use matrix::{check_coo_parts, check_csr, check_csr_parts};
pub use perm::{check_assignment, check_permutation, check_permutation_parts};
pub use stream::{check_next_use, check_stream_equivalence};
pub use telemetry::{check_self_time, check_telemetry, parse_flat_object, Json};
pub use trace::check_trace;
