//! The stable `XT` diagnostic-code table.
//!
//! `XT` codes mirror the runtime checker's `CHK` codes: grouped by
//! hundreds per analysis pass and **append only** — a published code
//! never changes meaning, so golden fixtures and downstream tooling can
//! match on them forever. A retired code is deleted from the table and
//! never reused: `XT0002` (`unwrap`) and `XT0005` (`todo!`/
//! `unimplemented!`) are clippy denies, `XT0101` (`forbid(unsafe_code)`)
//! and `XT0202` (`[workspace.lints]`) are enforced by the workspace lint
//! table and cargo, `XT0401` (crate cycle) is implied by `XT0402`
//! plus `XT0404`, and `XT0901` (`unsafe` in an engine crate without a
//! `// SAFETY:` comment) only ever repeated an `XT0001` finding.
//! Five more repeated a rustc or clippy lint the workspace enables:
//! `XT0003` (`expect`) is `clippy::expect_used`, `XT0004` (`panic!`) is
//! `clippy::panic`, `XT0006` (printing in a quiet crate) is
//! `clippy::print_stdout`/`print_stderr`, and `XT0102` (the
//! `missing_docs` pragma) and `XT0301` (undocumented `pub` item) are
//! `missing_docs` plus `unreachable_pub`.
//!
//! | Range  | Pass                                              |
//! |--------|---------------------------------------------------|
//! | XT00xx | Token-stream call-site rules                      |
//! | XT02xx | Manifest opt-ins                                  |
//! | XT04xx | Layering and dependency-cycle analysis            |
//! | XT05xx | Determinism lint (report-affecting modules)       |
//! | XT06xx | Static telemetry-name cross-check                 |
//! | XT07xx | Allowlist hygiene                                 |
//! | XT08xx | Hot-path allocation (effect sources in hot loops) |
//! | XT09xx | Concurrency: engine files, worker-path sources    |
//! | XT10xx | Interprocedural effect inference                  |

/// `unsafe` token in source (defence in depth on top of
/// `forbid(unsafe_code)`).
pub const UNSAFE_TOKEN: &str = "XT0001";
/// `collect_trace(` / `Vec<Access>` outside the documented shims.
pub const TRACE_BUFFER: &str = "XT0007";

/// Crate manifest missing the `[lints] workspace = true` opt-in.
pub const MANIFEST_LINTS: &str = "XT0201";

/// Layering back-edge: a crate uses a crate at the same or a higher
/// declared layer.
pub const LAYER_VIOLATION: &str = "XT0402";
/// Module dependency cycle within one crate.
pub const MODULE_CYCLE: &str = "XT0403";
/// Workspace crate missing from the declared layering table.
pub const UNDECLARED_CRATE: &str = "XT0404";

/// `HashMap` / `HashSet` in a report-affecting module (iteration order
/// is nondeterministic).
pub const HASH_CONTAINER: &str = "XT0501";
/// `Instant` / `SystemTime` in a report-affecting module.
pub const CLOCK_READ: &str = "XT0502";
/// Environment or thread-count read in a report-affecting module.
pub const ENV_READ: &str = "XT0503";
/// Float accumulation-order hazard in a report-affecting module.
pub const FLOAT_ACCUMULATION: &str = "XT0504";

/// Telemetry name at a call site is not declared in the registry.
pub const TELEM_UNDECLARED: &str = "XT0601";
/// Registry name never emitted at any call site (orphaned).
pub const TELEM_ORPHANED: &str = "XT0602";
/// Telemetry macro name argument is not a string literal, so the name
/// cannot be statically verified.
pub const TELEM_NONLITERAL: &str = "XT0603";
/// Telemetry macro kind disagrees with the declared metric kind.
pub const TELEM_KIND: &str = "XT0604";
/// Histogram registry row declares no measurement unit, so its
/// percentile exports would be meaningless numbers.
pub const TELEM_UNITLESS: &str = "XT0605";

/// Allowlist entry is malformed or missing its justification.
pub const ALLOWLIST_MALFORMED: &str = "XT0701";
/// Allowlist entry suppressed nothing (stale exception).
pub const ALLOWLIST_UNUSED: &str = "XT0702";

/// Container construction (`Vec::new`, `with_capacity`, `Box::new`,
/// `vec!`, …) inside a loop body of a function reachable from a
/// hot-path seed.
pub const HOT_ALLOC: &str = "XT0801";
/// Iterator materialization (`.collect()`, `.to_vec()`) inside a loop
/// body of a hot-path-reachable function.
pub const HOT_COLLECT: &str = "XT0802";
/// Duplication (`.clone()`, `.to_owned()`, `.to_string()`) inside a
/// loop body of a hot-path-reachable function.
pub const HOT_CLONE: &str = "XT0803";
/// `format!` inside a loop body of a hot-path-reachable function.
pub const HOT_FORMAT: &str = "XT0804";

/// Lock acquired while a let-bound guard from an earlier acquisition
/// is still in scope (lexical lock-order hazard).
pub const NESTED_LOCK: &str = "XT0902";
/// `Ordering::Relaxed` in non-test engine-crate code (must be audited
/// via the allowlist).
pub const RELAXED_ORDERING: &str = "XT0903";
/// `.unwrap()` / `.expect()` in a function reachable from a worker
/// closure (a panicking worker breaks the engine contract).
pub const WORKER_PANIC_CALL: &str = "XT0904";
/// Slice/array indexing in a function reachable from a worker closure
/// (out-of-bounds panics propagate into the engine).
pub const WORKER_INDEXING: &str = "XT0905";

/// Inferred nondeterministic effect (hash iteration / thread identity)
/// in a function whose effects reach a report renderer or `Pipeline`
/// method.
pub const NONDET_EFFECT: &str = "XT1001";
/// Call inside a loop of a per-access function whose callee carries an
/// inferred allocation effect.
pub const HOT_ALLOC_EFFECT: &str = "XT1002";
/// Inferred panic effect (explicit panic-family macro) in a function
/// reachable from a worker closure.
pub const WORKER_PANIC_EFFECT: &str = "XT1003";
/// Inferred lock effect outside the engine crates in a function
/// reachable from a worker closure.
pub const WORKER_LOCK_EFFECT: &str = "XT1004";
/// I/O effect entering a declared-pure crate (local I/O source or a
/// cross-crate call to an I/O-effectful function).
pub const PURE_CRATE_IO_EFFECT: &str = "XT1005";

/// Every live code, in code order.
pub const CODE_TABLE: &[&str] = &[
    UNSAFE_TOKEN,
    TRACE_BUFFER,
    MANIFEST_LINTS,
    LAYER_VIOLATION,
    MODULE_CYCLE,
    UNDECLARED_CRATE,
    HASH_CONTAINER,
    CLOCK_READ,
    ENV_READ,
    FLOAT_ACCUMULATION,
    TELEM_UNDECLARED,
    TELEM_ORPHANED,
    TELEM_NONLITERAL,
    TELEM_KIND,
    TELEM_UNITLESS,
    ALLOWLIST_MALFORMED,
    ALLOWLIST_UNUSED,
    HOT_ALLOC,
    HOT_COLLECT,
    HOT_CLONE,
    HOT_FORMAT,
    NESTED_LOCK,
    RELAXED_ORDERING,
    WORKER_PANIC_CALL,
    WORKER_INDEXING,
    NONDET_EFFECT,
    HOT_ALLOC_EFFECT,
    WORKER_PANIC_EFFECT,
    WORKER_LOCK_EFFECT,
    PURE_CRATE_IO_EFFECT,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for w in CODE_TABLE.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        for code in CODE_TABLE {
            assert_eq!(code.len(), 6, "{code}");
            assert!(code.starts_with("XT"), "{code}");
            assert!(code[2..].chars().all(|c| c.is_ascii_digit()));
        }
    }
}
