//! Token-stream call-site, crate-header and doc rules (`XT0001`,
//! `XT0003`, `XT0004`, `XT0006`, `XT0007`, `XT0102`, `XT0301`).
//! `unwrap`, `todo!`/`unimplemented!` and `forbid(unsafe_code)` are
//! left to the workspace lint table, which clippy and rustc enforce.
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
    /// Binary targets may abort on a broken environment, so the
    /// `expect`/`panic!` rules do not apply.
    pub is_bin: bool,
    /// Library crates whose code must stay silent on stdout/stderr.
    pub is_quiet: bool,
    /// `#[cfg(test)]` byte ranges (exempt from call-site rules).
    pub test_ranges: &'a [(usize, usize)],
    /// `macro_rules!` body ranges (exempt from the doc rule).
    pub macro_ranges: &'a [(usize, usize)],
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

/// Runs the call-site rules over one file. `allow_trace_buffer` is set
/// for files carrying an `XT0007` allowlist entry (checked by the
/// caller so unused-entry tracking stays in one place).
#[must_use]
pub fn scan(ctx: &SourceContext<'_>) -> Vec<Finding> {
    let code = code_indices(ctx.tokens);
    let mut out = Vec::new();
    let mut doc_ready = false;
    let mut ci = 0;
    while ci < code.len() {
        let tok = ctx.anchor(&code, ci);
        // Doc comments in the trivia since the previous code token arm
        // the readiness flag consumed by the `pub` rule below.
        let prev_end = if ci == 0 { 0 } else { code[ci - 1] + 1 };
        if ctx.tokens[prev_end..code[ci]]
            .iter()
            .any(|t| t.kind.is_doc_comment())
        {
            doc_ready = true;
        }
        let in_test = in_ranges(tok.start, ctx.test_ranges);
        let word = if tok.kind == TokenKind::Ident {
            tok.text(ctx.src)
        } else {
            ""
        };

        if !in_test {
            if word == "unsafe" {
                out.push(ctx.finding(
                    codes::UNSAFE_TOKEN,
                    Severity::Error,
                    tok,
                    "unsafe code is forbidden across the workspace",
                ));
            }
            if !ctx.is_bin
                && word == "expect"
                && ci >= 1
                && ctx.punct_at(&code, ci - 1, '.')
                && ctx.punct_at(&code, ci + 1, '(')
            {
                out.push(ctx.finding(
                    codes::EXPECT_CALL,
                    Severity::Warning,
                    tok,
                    "expect() in library code: the message must state why it cannot fail",
                ));
            }
            if !ctx.is_bin && word == "panic" && ctx.punct_at(&code, ci + 1, '!') {
                out.push(ctx.finding(
                    codes::PANIC_CALL,
                    Severity::Warning,
                    tok,
                    "panic! in library code: prefer a structured error",
                ));
            }
            if ctx.is_quiet
                && (word == "println" || word == "eprintln")
                && ctx.punct_at(&code, ci + 1, '!')
            {
                out.push(ctx.finding(
                    codes::PRINT_CALL,
                    Severity::Error,
                    tok,
                    "quiet library crates must not print; emit through commorder-obs or return the text",
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
            if word == "pub"
                && !doc_ready
                && !in_ranges(tok.start, ctx.macro_ranges)
                && documented_pub_item(ctx, &code, ci)
            {
                out.push(ctx.finding(
                    codes::UNDOCUMENTED_PUB,
                    Severity::Warning,
                    tok,
                    "public item without a doc comment",
                ));
            }
        }

        // Whitespace and plain comments preserve readiness (they never
        // reach this loop); attribute tokens preserve it; any other
        // code token disarms it.
        if !attribute_token(ctx, &code, ci) {
            doc_ready = false;
        }
        ci += 1;
    }
    out
}

/// `true` when code token `ci` is part of an attribute (`#`, `[`, the
/// bracket contents, or `]`). Detected cheaply: a `#` directly followed
/// by `[` (or `![`) starts one; we remember bracket depth in a thread
/// of calls by re-deriving it — instead, approximate: any token between
/// a `#`-`[` pair and its matching `]` in the code stream.
fn attribute_token(ctx: &SourceContext<'_>, code: &[usize], ci: usize) -> bool {
    // Walk back to find an unmatched `[` whose opener is `#[`/`#![`.
    let mut depth = 0i64;
    let mut k = ci;
    loop {
        let tok = &ctx.tokens[code[k]];
        if tok.kind == TokenKind::Punct {
            match tok.text(ctx.src) {
                "]" if k != ci => depth += 1,
                "[" => {
                    if depth == 0 {
                        // Opener: is it preceded by `#` or `#!`?
                        let before = k.checked_sub(1).map(|b| ctx.anchor(code, b));
                        let before2 = k.checked_sub(2).map(|b| ctx.anchor(code, b));
                        let hash = |t: Option<&Token>| {
                            t.is_some_and(|t| t.kind == TokenKind::Punct && t.text(ctx.src) == "#")
                        };
                        let bang = |t: Option<&Token>| {
                            t.is_some_and(|t| t.kind == TokenKind::Punct && t.text(ctx.src) == "!")
                        };
                        return hash(before) || (bang(before) && hash(before2));
                    }
                    depth -= 1;
                }
                "#" if k == ci => {
                    // A `#` that begins an attribute counts as one.
                    return ctx.punct_at(code, ci + 1, '[')
                        || (ctx.punct_at(code, ci + 1, '!') && ctx.punct_at(code, ci + 2, '['));
                }
                "!" if k == ci => {
                    return ci >= 1
                        && ctx.punct_at(code, ci - 1, '#')
                        && ctx.punct_at(code, ci + 1, '[');
                }
                _ => {}
            }
        }
        if k == 0 {
            return false;
        }
        // Give up after a bounded look-back: attributes are short.
        if ci - k > 256 {
            return false;
        }
        k -= 1;
    }
}

/// `true` when the `pub` at code index `ci` introduces an item that
/// policy requires to be documented. `pub(crate)`/`pub(super)` items
/// are not public API; `pub mod`/`pub use` are satisfied by the
/// target's own docs.
fn documented_pub_item(ctx: &SourceContext<'_>, code: &[usize], ci: usize) -> bool {
    let mut k = ci + 1;
    if ctx.punct_at(code, k, '(') {
        return false; // restricted visibility
    }
    if ctx.ident_at(code, k, "async") || ctx.ident_at(code, k, "unsafe") {
        k += 1;
    }
    [
        "fn", "struct", "enum", "trait", "const", "static", "type", "macro",
    ]
    .iter()
    .any(|kw| ctx.ident_at(code, k, kw))
}

/// Checks a library root (`lib.rs`) for `#![warn(missing_docs)]` or
/// `#![deny(missing_docs)]` (`XT0102`), matching attribute *tokens* so
/// a mention in a doc comment does not satisfy the rule.
#[must_use]
pub fn check_lib_header(src: &str, tokens: &[Token], rel: &str) -> Option<Finding> {
    let code = code_indices(tokens);
    let text = |at: usize| code.get(at).map(|&i| tokens[i].text(src));
    let declared = (0..code.len()).any(|i| {
        text(i) == Some("#")
            && text(i + 1) == Some("!")
            && text(i + 2) == Some("[")
            && text(i + 3).is_some_and(|w| w == "warn" || w == "deny")
            && text(i + 4) == Some("(")
            && text(i + 5) == Some("missing_docs")
            && text(i + 6) == Some(")")
            && text(i + 7) == Some("]")
    });
    (!declared).then(|| {
        Finding::file_scoped(
            codes::MISSING_DOCS_LINT,
            Severity::Error,
            rel,
            "library crate must enable the missing_docs lint".to_string(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{macro_rules_regions, test_regions};
    use crate::lexer::lex;

    fn scan_src(src: &str, is_bin: bool, is_quiet: bool) -> Vec<Finding> {
        let tokens = lex(src);
        let test_ranges = test_regions(src, &tokens);
        let macro_ranges = macro_rules_regions(src, &tokens);
        scan(&SourceContext {
            src,
            tokens: &tokens,
            rel: "crates/x/src/f.rs",
            is_bin,
            is_quiet,
            test_ranges: &test_ranges,
            macro_ranges: &macro_ranges,
        })
    }

    fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn collect_trace_in_code_fires_with_span() {
        let f = scan_src("fn f() { src.collect_trace(); }\n", false, false);
        assert_eq!(codes_of(&f), vec![codes::TRACE_BUFFER]);
        assert_eq!((f[0].line, f[0].col_start, f[0].col_end), (1, 14, 27));
    }

    #[test]
    fn collect_trace_in_string_comment_and_tests_is_silent() {
        let src = "\
// describing collect_trace( here is fine\n\
fn f() { log(\"never collect_trace() in prod\"); }\n\
#[cfg(test)]\nmod tests {\n    fn g() { v.collect_trace(); }\n}\n";
        assert!(scan_src(src, false, false).is_empty());
    }

    #[test]
    fn expect_and_panic_exempt_in_bins() {
        let src = "fn main() { x.expect(\"why\"); panic!(\"boom\"); }\n";
        assert!(scan_src(src, true, false).is_empty());
        let f = scan_src(src, false, false);
        assert_eq!(codes_of(&f), vec![codes::EXPECT_CALL, codes::PANIC_CALL]);
    }

    #[test]
    fn quiet_crate_print_rule() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert!(scan_src(src, false, false).is_empty());
        assert_eq!(
            codes_of(&scan_src(src, false, true)),
            vec![codes::PRINT_CALL]
        );
    }

    #[test]
    fn trace_buffer_patterns() {
        let f = scan_src(
            "fn f(v: Vec<Access>) { src.collect_trace(); }\n",
            false,
            false,
        );
        assert_eq!(codes_of(&f), vec![codes::TRACE_BUFFER, codes::TRACE_BUFFER]);
    }

    #[test]
    fn undocumented_pub_item_and_exemptions() {
        assert_eq!(
            codes_of(&scan_src("pub fn f() {}\n", false, false)),
            vec![codes::UNDOCUMENTED_PUB]
        );
        assert!(scan_src("/// Doc.\npub fn f() {}\n", false, false).is_empty());
        assert!(scan_src("/// Doc.\n#[inline]\npub fn f() {}\n", false, false).is_empty());
        assert!(scan_src("pub(crate) fn f() {}\n", false, false).is_empty());
        assert!(scan_src("pub mod x;\n", false, false).is_empty());
        assert!(scan_src("pub use crate::x::Y;\n", false, false).is_empty());
    }

    #[test]
    fn doc_does_not_leak_past_an_item() {
        let src = "/// Doc for A.\npub struct A;\npub struct B;\n";
        let f = scan_src(src, false, false);
        assert_eq!(codes_of(&f), vec![codes::UNDOCUMENTED_PUB]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn lib_header_attrs_must_be_real_tokens() {
        let good = "#![warn(missing_docs)]\n";
        let toks = lex(good);
        assert!(check_lib_header(good, &toks, "crates/x/src/lib.rs").is_none());

        let fake = "//! mentions #![warn(missing_docs)] in docs\n";
        let toks = lex(fake);
        let f = check_lib_header(fake, &toks, "crates/x/src/lib.rs");
        assert_eq!(f.map(|f| f.code), Some(codes::MISSING_DOCS_LINT));
    }

    #[test]
    fn deny_missing_docs_also_satisfies() {
        let src = "#![deny(missing_docs)]\n";
        let toks = lex(src);
        assert!(check_lib_header(src, &toks, "crates/x/src/lib.rs").is_none());
    }
}
