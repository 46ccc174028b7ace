//! The engine-file concurrency audit (`XT0902`–`XT0903`).
//!
//! A panicking or deadlocking worker breaks the engine's determinism
//! contract, so the engine crates (see `AnalyzerConfig::engine_crates`)
//! get two lexical checks on top of the workspace-wide rules (an
//! `unsafe` token anywhere is already `XT0001`):
//!
//! * `XT0902` — a lock acquired (`.lock()`, `.read()`, `.write()`)
//!   while a *let-bound* guard from an earlier acquisition is still in
//!   scope (temporaries consumed within their own statement do not
//!   count);
//! * `XT0903` — `Ordering::Relaxed` outside tests: every relaxed
//!   atomic must be audited through the allowlist.
//!
//! The worker-path rules of the same family — `XT0904`
//! (`.unwrap()`/`.expect()`) and `XT0905` (slice indexing) in functions
//! reachable from a worker seed — are filters over the effect sources
//! in [`crate::effects`].

use std::collections::BTreeSet;

use crate::codes;
use crate::findings::{Finding, Severity};
use crate::items::{code_indices, ident_in, ident_is, in_ranges, is_punct};
use crate::lexer::Token;
use crate::model::CrateData;

/// Token-anchored finding constructor shared by every rule here.
fn at(code: &'static str, f: &crate::model::FileData, t: &Token, message: String) -> Finding {
    Finding {
        code,
        severity: Severity::Error,
        file: f.rel.clone(),
        line: t.line,
        col_start: t.col,
        col_end: t.col + u32::try_from(t.end - t.start).unwrap_or(0),
        message,
    }
}

/// Runs the audit over every file of the engine crates.
#[must_use]
pub fn check(crates: &[CrateData], engine_crates: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in crates {
        if !engine_crates.contains(&c.dir_name) {
            continue;
        }
        for f in &c.files {
            scan_engine_file(f, &mut findings);
        }
    }
    findings
}

/// `XT0902`–`XT0903` over one engine-crate file.
fn scan_engine_file(f: &crate::model::FileData, findings: &mut Vec<Finding>) {
    let src = &f.src;
    let tokens = &f.tokens;
    let code = code_indices(tokens);

    // Live let-bound lock guards seen so far: (acquisition byte
    // position, scope-end byte, line of the acquisition).
    let mut guards: Vec<(usize, usize, u32)> = Vec::new();

    for (ci, &idx) in code.iter().enumerate() {
        let t = &tokens[idx];
        if in_ranges(t.start, &f.test_ranges) || in_ranges(t.start, &f.macro_ranges) {
            continue;
        }
        if ident_is(t, src, "Relaxed")
            && ci >= 3
            && is_punct(&tokens[code[ci - 1]], src, ':')
            && is_punct(&tokens[code[ci - 2]], src, ':')
            && ident_is(&tokens[code[ci - 3]], src, "Ordering")
        {
            findings.push(at(
                codes::RELAXED_ORDERING,
                f,
                t,
                "`Ordering::Relaxed` must be audited: justify via the allowlist or strengthen"
                    .to_string(),
            ));
        }
        // Lock acquisitions: `.lock()`, `.read()`, `.write()`.
        let after_dot = ci >= 1 && is_punct(&tokens[code[ci - 1]], src, '.');
        let opens_call = code
            .get(ci + 1)
            .is_some_and(|&k| is_punct(&tokens[k], src, '('));
        if after_dot && opens_call && ident_in(t, src, &["lock", "read", "write"]) {
            if let Some(&(_, _, line)) = guards
                .iter()
                .find(|&&(acq, end, _)| t.start > acq && t.start < end)
            {
                findings.push(at(
                    codes::NESTED_LOCK,
                    f,
                    t,
                    format!(
                        "lock acquired while the guard bound at line {line} is still in scope \
                         (lock-order hazard)"
                    ),
                ));
            }
            if is_live_guard_binding(src, tokens, &code, ci) {
                let scope_end = enclosing_block_end(src, tokens, &code, ci);
                guards.push((t.start, scope_end, t.line));
            }
        }
    }
}

/// `true` when the acquisition at code index `ci` produces a guard
/// that outlives its statement: the statement starts with `let` (or
/// `if let`/`while let`) and the only methods chained after the
/// acquisition are `unwrap`/`expect` (anything else consumes the
/// guard as a temporary).
fn is_live_guard_binding(src: &str, tokens: &[Token], code: &[usize], ci: usize) -> bool {
    // Statement start: scan back to `;`, `{`, or `}`.
    let mut first = None;
    for p in (0..ci).rev() {
        let t = &tokens[code[p]];
        if is_punct(t, src, ';') || is_punct(t, src, '{') || is_punct(t, src, '}') {
            break;
        }
        first = Some(p);
    }
    let Some(first) = first else { return false };
    let head = &tokens[code[first]];
    let is_let = ident_is(head, src, "let")
        || (ident_in(head, src, &["if", "while"])
            && code
                .get(first + 1)
                .is_some_and(|&k| ident_is(&tokens[k], src, "let")));
    if !is_let {
        return false;
    }
    // Walk the chain after the acquisition's argument list.
    let Some(mut j) = skip_call(src, tokens, code, ci + 1) else {
        return false;
    };
    loop {
        let Some(&dot) = code.get(j) else { return true };
        if !is_punct(&tokens[dot], src, '.') {
            return true; // `;`, `)` … — the binding holds the guard
        }
        let Some(&m) = code.get(j + 1) else {
            return true;
        };
        if !ident_in(&tokens[m], src, &["expect", "unwrap"]) {
            return false; // chained into something else: temporary
        }
        match skip_call(src, tokens, code, j + 2) {
            Some(next) => j = next,
            None => return true,
        }
    }
}

/// If code index `at` opens a `(`, returns the index after its
/// matching `)`.
fn skip_call(src: &str, tokens: &[Token], code: &[usize], at: usize) -> Option<usize> {
    let &k = code.get(at)?;
    if !is_punct(&tokens[k], src, '(') {
        return None;
    }
    let mut depth = 0i64;
    let mut j = at;
    while j < code.len() {
        let t = &tokens[code[j]];
        if is_punct(t, src, '(') {
            depth += 1;
        } else if is_punct(t, src, ')') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Byte offset where the block enclosing code index `ci` closes.
fn enclosing_block_end(src: &str, tokens: &[Token], code: &[usize], ci: usize) -> usize {
    let mut depth = 0i64;
    for &idx in &code[ci..] {
        let t = &tokens[idx];
        if is_punct(t, src, '{') {
            depth += 1;
        } else if is_punct(t, src, '}') {
            depth -= 1;
            if depth < 0 {
                return t.start;
            }
        }
    }
    src.len()
}
