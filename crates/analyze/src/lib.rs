//! `commorder-analyze`: token-stream semantic source analysis for the
//! commorder workspace.
//!
//! The crate replaces the old line-regex lint with a real (if small)
//! program analysis. A zero-dependency lossless [`lexer`] turns each
//! source file into a spanned token stream; [`items`] extracts the
//! structural facts the passes share (`#[cfg(test)]` regions,
//! `macro_rules!` bodies, `use` trees, path chains, loop bodies, and
//! the token predicates every pass matches with); and seven passes
//! produce findings with stable `XT` codes from [`codes`]:
//!
//! 1. [`source_rules`] — the call-site rules (`XT0001` `unsafe`,
//!    `XT0007` trace buffers), immune to string/comment false
//!    positives; what clippy, rustc or cargo already enforce
//!    (`unwrap`, `expect`, `panic!`, printing, `todo!`, missing docs,
//!    `forbid(unsafe_code)`, `[workspace.lints]`) has no rule here;
//! 2. [`layering`] — inter-crate and intra-crate dependency graphs
//!    from `use`/path tokens, checked against a declared layer table
//!    (`XT0402`/`XT0404`, which together rule out crate cycles) with
//!    Tarjan SCC module-cycle reports (`XT0403`);
//! 3. [`determinism`] — nondeterminism hazards in modules reachable
//!    from `render_json`/`Pipeline` (`XT0501`–`XT0504`);
//! 4. [`telemetry_names`] — `span!`/`counter!`/`gauge!`/`observe!`
//!    string literals diffed against the `names.rs` registry
//!    (`XT0601`–`XT0604`);
//! 5. [`concurrency`] — the engine-file audit: nested lock guards and
//!    `Ordering::Relaxed` (`XT0902`–`XT0903`);
//! 6. [`callgraph`] — a workspace-wide symbol table and
//!    intra-workspace call graph with seeded reachability, feeding
//! 7. [`effects`] — interprocedural effect inference: one token scan
//!    per file records every effect source, a fixed-point bottom-up
//!    effect lattice (allocates/locks/panics/does_io/
//!    nondeterministic/unsafe) closes them over the call-graph SCC
//!    condensation with shortest-witness provenance, and every
//!    call-graph rule is a filter over the sources or masks: hot-path
//!    allocation in loops (`XT0801`–`XT0804`), worker-path
//!    `unwrap`/`expect` and indexing (`XT0904`/`XT0905`), and the
//!    inferred-effect rules (`XT1001`–`XT1005`).
//!
//! Audited exceptions live in an allowlist file (one justified
//! `(code, file)` pair per line); allowlist hygiene is itself checked
//! (`XT0701`/`XT0702`). Entry point: [`analyze_workspace`] with an
//! [`AnalyzerConfig`] (the [`Default`] config describes the commorder
//! workspace). The analyzer self-hosts: `cargo run -p xtask -- lint`
//! runs it over this very crate.

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod callgraph;
pub mod codes;
pub mod concurrency;
pub mod determinism;
pub mod effects;
pub mod findings;
pub mod items;
pub mod layering;
pub mod lexer;
pub mod model;
pub mod source_rules;
pub mod telemetry_names;
pub mod workspace;

pub use findings::{AnalysisReport, Finding, Severity};
pub use lexer::{lex, Token, TokenKind};
pub use workspace::{analyze_workspace, AnalyzerConfig};
