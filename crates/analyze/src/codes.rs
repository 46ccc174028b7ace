//! The stable `XT` diagnostic-code table.
//!
//! `XT` codes mirror the runtime checker's `CHK` codes: grouped by
//! hundreds per analysis pass and **append only** — a published code
//! never changes meaning, so golden fixtures and downstream tooling can
//! match on them forever.
//!
//! | Range  | Pass                                              |
//! |--------|---------------------------------------------------|
//! | XT00xx | Token-stream call-site rules                      |
//! | XT01xx | Crate-header pragmas                              |
//! | XT02xx | Manifest opt-ins                                  |
//! | XT03xx | API documentation                                 |
//! | XT04xx | Layering and dependency-cycle analysis            |
//! | XT05xx | Determinism lint (report-affecting modules)       |
//! | XT06xx | Static telemetry-name cross-check                 |
//! | XT07xx | Allowlist hygiene                                 |
//! | XT08xx | Hot-path allocation (effect sources in hot loops) |
//! | XT09xx | Concurrency: engine files, worker-path sources    |
//! | XT10xx | Interprocedural effect inference                  |

/// One row of the code table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `XT0002`.
    pub code: &'static str,
    /// One-line description of what the code means.
    pub title: &'static str,
}

/// `unsafe` token in source (defence in depth on top of
/// `forbid(unsafe_code)`).
pub const UNSAFE_TOKEN: &str = "XT0001";
/// `.unwrap()` in non-test library code.
pub const UNWRAP_CALL: &str = "XT0002";
/// `.expect(` in non-test library code (allowed when the proof is in
/// the message and the file carries an allowlist justification).
pub const EXPECT_CALL: &str = "XT0003";
/// `panic!` in non-test library code.
pub const PANIC_CALL: &str = "XT0004";
/// `todo!` / `unimplemented!` anywhere.
pub const TODO_CALL: &str = "XT0005";
/// `println!` / `eprintln!` in quiet library crates.
pub const PRINT_CALL: &str = "XT0006";
/// `collect_trace(` / `Vec<Access>` outside the documented shims.
pub const TRACE_BUFFER: &str = "XT0007";

/// Library `lib.rs` missing `#![forbid(unsafe_code)]`.
pub const MISSING_FORBID_UNSAFE: &str = "XT0101";
/// Library `lib.rs` missing the `missing_docs` lint.
pub const MISSING_DOCS_LINT: &str = "XT0102";

/// Crate manifest missing the `[lints] workspace = true` opt-in.
pub const MANIFEST_LINTS: &str = "XT0201";
/// Workspace manifest missing the `[workspace.lints]` deny-list.
pub const WORKSPACE_LINTS: &str = "XT0202";

/// `pub` item without a doc comment.
pub const UNDOCUMENTED_PUB: &str = "XT0301";

/// Crate dependency cycle (Tarjan strongly connected component).
pub const CRATE_CYCLE: &str = "XT0401";
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

/// `unsafe` token in an engine crate without an adjacent `// SAFETY:`
/// comment.
pub const UNSAFE_NO_SAFETY_COMMENT: &str = "XT0901";
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

/// Every published code with its meaning, in code order.
pub const CODE_TABLE: &[CodeInfo] = &[
    CodeInfo {
        code: UNSAFE_TOKEN,
        title: "unsafe code is forbidden across the workspace",
    },
    CodeInfo {
        code: UNWRAP_CALL,
        title: "unwrap() in non-test library code",
    },
    CodeInfo {
        code: EXPECT_CALL,
        title: "expect() in non-test library code",
    },
    CodeInfo {
        code: PANIC_CALL,
        title: "panic! in non-test library code",
    },
    CodeInfo {
        code: TODO_CALL,
        title: "todo!/unimplemented! must not ship",
    },
    CodeInfo {
        code: PRINT_CALL,
        title: "println!/eprintln! in a quiet library crate",
    },
    CodeInfo {
        code: TRACE_BUFFER,
        title: "materialized access trace outside the documented shims",
    },
    CodeInfo {
        code: MISSING_FORBID_UNSAFE,
        title: "library crate missing #![forbid(unsafe_code)]",
    },
    CodeInfo {
        code: MISSING_DOCS_LINT,
        title: "library crate missing the missing_docs lint",
    },
    CodeInfo {
        code: MANIFEST_LINTS,
        title: "crate manifest missing [lints] workspace = true",
    },
    CodeInfo {
        code: WORKSPACE_LINTS,
        title: "workspace manifest missing [workspace.lints]",
    },
    CodeInfo {
        code: UNDOCUMENTED_PUB,
        title: "public item without a doc comment",
    },
    CodeInfo {
        code: CRATE_CYCLE,
        title: "crate dependency cycle",
    },
    CodeInfo {
        code: LAYER_VIOLATION,
        title: "crate layering back-edge",
    },
    CodeInfo {
        code: MODULE_CYCLE,
        title: "module dependency cycle within a crate",
    },
    CodeInfo {
        code: UNDECLARED_CRATE,
        title: "workspace crate missing from the layering table",
    },
    CodeInfo {
        code: HASH_CONTAINER,
        title: "hash container in a report-affecting module",
    },
    CodeInfo {
        code: CLOCK_READ,
        title: "clock read in a report-affecting module",
    },
    CodeInfo {
        code: ENV_READ,
        title: "environment/thread-count read in a report-affecting module",
    },
    CodeInfo {
        code: FLOAT_ACCUMULATION,
        title: "float accumulation-order hazard in a report-affecting module",
    },
    CodeInfo {
        code: TELEM_UNDECLARED,
        title: "telemetry name not declared in the registry",
    },
    CodeInfo {
        code: TELEM_ORPHANED,
        title: "registry telemetry name never emitted",
    },
    CodeInfo {
        code: TELEM_NONLITERAL,
        title: "telemetry name is not a string literal",
    },
    CodeInfo {
        code: TELEM_KIND,
        title: "telemetry macro kind disagrees with the registry",
    },
    CodeInfo {
        code: TELEM_UNITLESS,
        title: "histogram registry row declares no unit",
    },
    CodeInfo {
        code: ALLOWLIST_MALFORMED,
        title: "allowlist entry malformed or missing justification",
    },
    CodeInfo {
        code: ALLOWLIST_UNUSED,
        title: "allowlist entry suppressed nothing",
    },
    CodeInfo {
        code: HOT_ALLOC,
        title: "container construction in a hot-path loop",
    },
    CodeInfo {
        code: HOT_COLLECT,
        title: "iterator materialization in a hot-path loop",
    },
    CodeInfo {
        code: HOT_CLONE,
        title: "clone/to_owned/to_string in a hot-path loop",
    },
    CodeInfo {
        code: HOT_FORMAT,
        title: "format! in a hot-path loop",
    },
    CodeInfo {
        code: UNSAFE_NO_SAFETY_COMMENT,
        title: "unsafe without an adjacent SAFETY comment",
    },
    CodeInfo {
        code: NESTED_LOCK,
        title: "lock acquired while another guard is in scope",
    },
    CodeInfo {
        code: RELAXED_ORDERING,
        title: "unaudited Ordering::Relaxed in an engine crate",
    },
    CodeInfo {
        code: WORKER_PANIC_CALL,
        title: "unwrap/expect reachable from a worker closure",
    },
    CodeInfo {
        code: WORKER_INDEXING,
        title: "slice indexing reachable from a worker closure",
    },
    CodeInfo {
        code: NONDET_EFFECT,
        title: "inferred nondeterministic effect on a report path",
    },
    CodeInfo {
        code: HOT_ALLOC_EFFECT,
        title: "allocating callee inside a per-access loop",
    },
    CodeInfo {
        code: WORKER_PANIC_EFFECT,
        title: "inferred panic effect reachable from a worker closure",
    },
    CodeInfo {
        code: WORKER_LOCK_EFFECT,
        title: "inferred lock effect outside the engine reachable from a worker closure",
    },
    CodeInfo {
        code: PURE_CRATE_IO_EFFECT,
        title: "I/O effect entering a declared-pure crate",
    },
];

/// Looks up the description of a code; `None` for unknown codes.
#[must_use]
pub fn describe(code: &str) -> Option<&'static str> {
    CODE_TABLE
        .iter()
        .find(|info| info.code == code)
        .map(|info| info.title)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for w in CODE_TABLE.windows(2) {
            assert!(w[0].code < w[1].code, "{} !< {}", w[0].code, w[1].code);
        }
        for info in CODE_TABLE {
            assert_eq!(info.code.len(), 6, "{}", info.code);
            assert!(info.code.starts_with("XT"), "{}", info.code);
            assert!(info.code[2..].chars().all(|c| c.is_ascii_digit()));
            assert!(!info.title.is_empty());
        }
    }

    #[test]
    fn describe_known_and_unknown() {
        assert_eq!(describe(CRATE_CYCLE), Some("crate dependency cycle"));
        assert_eq!(describe("XT9999"), None);
    }
}
