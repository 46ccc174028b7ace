//! Token-stream call-site rules (`XT0001`, `XT0007`). `unwrap`,
//! `expect`, `panic!`, printing, `todo!`/`unimplemented!`, missing
//! docs and `forbid(unsafe_code)` are left to the workspace lint table
//! and each library's `lib.rs` denies, which clippy and rustc enforce.
//!
//! Matching on identifier tokens instead of raw lines eliminates both
//! false-positive classes of the old line-regex lint: occurrences
//! inside string literals and comments never match (they are `StrLit`
//! or comment tokens), and a rule's own description can no longer trip
//! the rule.

use crate::codes;
use crate::findings::{Finding, Severity};
use crate::items::{code_indices, in_ranges};
use crate::lexer::{Token, TokenKind};

/// Per-file context for the source-rule scan.
pub struct SourceContext<'a> {
    /// The file's text.
    pub src: &'a str,
    /// Its token stream.
    pub tokens: &'a [Token],
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// `#[cfg(test)]` byte ranges (exempt from call-site rules).
    pub test_ranges: &'a [(usize, usize)],
}

impl SourceContext<'_> {
    fn ident_at(&self, code: &[usize], at: usize, word: &str) -> bool {
        code.get(at)
            .map(|&i| &self.tokens[i])
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.src) == word)
    }

    fn punct_at(&self, code: &[usize], at: usize, c: char) -> bool {
        code.get(at)
            .map(|&i| &self.tokens[i])
            .is_some_and(|t| t.kind == TokenKind::Punct && self.src[t.start..t.end].starts_with(c))
    }

    fn anchor(&self, code: &[usize], at: usize) -> &Token {
        &self.tokens[code[at]]
    }

    fn finding(
        &self,
        code: &'static str,
        severity: Severity,
        tok: &Token,
        message: &str,
    ) -> Finding {
        Finding {
            code,
            severity,
            file: self.rel.to_string(),
            line: tok.line,
            col_start: tok.col,
            col_end: tok.col + u32::try_from(tok.len()).unwrap_or(0),
            message: message.to_string(),
        }
    }
}

/// Runs the call-site rules over one file. The caller applies the
/// allowlist, so unused-entry tracking stays in one place.
#[must_use]
pub fn scan(ctx: &SourceContext<'_>) -> Vec<Finding> {
    let code = code_indices(ctx.tokens);
    let mut out = Vec::new();
    for ci in 0..code.len() {
        let tok = ctx.anchor(&code, ci);
        if tok.kind != TokenKind::Ident || in_ranges(tok.start, ctx.test_ranges) {
            continue;
        }
        let word = tok.text(ctx.src);
        if word == "unsafe" {
            out.push(ctx.finding(
                codes::UNSAFE_TOKEN,
                Severity::Error,
                tok,
                "unsafe code is forbidden across the workspace",
            ));
        }
        if word == "collect_trace" && ctx.punct_at(&code, ci + 1, '(') {
            out.push(ctx.finding(
                codes::TRACE_BUFFER,
                Severity::Error,
                tok,
                "non-test code must stream traces through TraceSource, never materialize them",
            ));
        }
        if word == "Vec"
            && ctx.punct_at(&code, ci + 1, '<')
            && ctx.ident_at(&code, ci + 2, "Access")
            && ctx.punct_at(&code, ci + 3, '>')
        {
            out.push(ctx.finding(
                codes::TRACE_BUFFER,
                Severity::Error,
                tok,
                "non-test code must stream traces through TraceSource, never materialize them",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::test_regions;
    use crate::lexer::lex;

    fn scan_src(src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let test_ranges = test_regions(src, &tokens);
        scan(&SourceContext {
            src,
            tokens: &tokens,
            rel: "crates/x/src/f.rs",
            test_ranges: &test_ranges,
        })
    }

    fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn collect_trace_in_code_fires_with_span() {
        let f = scan_src("fn f() { src.collect_trace(); }\n");
        assert_eq!(codes_of(&f), vec![codes::TRACE_BUFFER]);
        assert_eq!((f[0].line, f[0].col_start, f[0].col_end), (1, 14, 27));
    }

    #[test]
    fn collect_trace_in_string_comment_and_tests_is_silent() {
        let src = "\
// describing collect_trace( here is fine\n\
fn f() { log(\"never collect_trace() in prod\"); }\n\
#[cfg(test)]\nmod tests {\n    fn g() { v.collect_trace(); }\n}\n";
        assert!(scan_src(src).is_empty());
    }

    #[test]
    fn trace_buffer_patterns() {
        let f = scan_src("fn f(v: Vec<Access>) { src.collect_trace(); }\n");
        assert_eq!(codes_of(&f), vec![codes::TRACE_BUFFER, codes::TRACE_BUFFER]);
    }
}
