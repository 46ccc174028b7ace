//! Structural extraction on top of the token stream.
//!
//! No grammar, no AST: the passes only need a few shapes — where
//! `#[cfg(test)]` items begin and end, where `macro_rules!` bodies
//! live, which paths a `use` declaration imports, which `a::b`
//! chains occur in code, and where loop bodies sit. All of them fall
//! out of brace/bracket matching over the non-trivia token sequence.
//! The token predicates every pass matches with (`is_punct`,
//! `ident_is`, `ident_in`, `double_colon_at`, `call_opens`) live here
//! once.

use crate::lexer::{Token, TokenKind};

/// Indices into `tokens` of the non-trivia tokens, in order.
#[must_use]
pub fn code_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_trivia())
        .map(|(i, _)| i)
        .collect()
}

/// `true` when byte offset `pos` falls inside any of `ranges`.
#[must_use]
pub fn in_ranges(pos: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(s, e)| pos >= s && pos < e)
}

/// `true` when `tok` is the single-character punct `c`.
pub(crate) fn is_punct(tok: &Token, src: &str, c: char) -> bool {
    tok.kind == TokenKind::Punct && tok.text(src).len() == 1 && tok.text(src).starts_with(c)
}

/// `true` when `tok` is the identifier `word`.
pub(crate) fn ident_is(tok: &Token, src: &str, word: &str) -> bool {
    tok.kind == TokenKind::Ident && tok.text(src) == word
}

/// `true` when `tok` is an identifier in `words`.
pub(crate) fn ident_in(tok: &Token, src: &str, words: &[&str]) -> bool {
    tok.kind == TokenKind::Ident && words.contains(&tok.text(src))
}

/// `true` when code indices `at` and `at + 1` are two adjacent `:`
/// puncts forming `::`.
pub(crate) fn double_colon_at(src: &str, tokens: &[Token], code: &[usize], at: usize) -> bool {
    let (Some(&a), Some(&b)) = (code.get(at), code.get(at + 1)) else {
        return false;
    };
    is_punct(&tokens[a], src, ':')
        && is_punct(&tokens[b], src, ':')
        && tokens[a].end == tokens[b].start
}

/// `true` when the code tokens at `at` open a call — `(` directly or a
/// `::<…>` turbofish then `(`.
pub(crate) fn call_opens(src: &str, tokens: &[Token], code: &[usize], at: usize) -> bool {
    let Some(&k) = code.get(at) else { return false };
    if is_punct(&tokens[k], src, '(') {
        return true;
    }
    if !(double_colon_at(src, tokens, code, at)
        && code
            .get(at + 2)
            .is_some_and(|&m| is_punct(&tokens[m], src, '<')))
    {
        return false;
    }
    let mut depth = 0i64;
    let mut j = at + 2;
    while j < code.len() {
        let t = &tokens[code[j]];
        if is_punct(t, src, '<') {
            depth += 1;
        } else if is_punct(t, src, '>') {
            let arrow = j > 0 && is_punct(&tokens[code[j - 1]], src, '-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return code
                        .get(j + 1)
                        .is_some_and(|&m| is_punct(&tokens[m], src, '('));
                }
            }
        }
        j += 1;
    }
    false
}

/// Byte ranges of `for`/`while`/`loop` bodies within `(start, end)`.
/// Nested loop bodies produce overlapping ranges; membership is what
/// matters, so overlap is harmless.
#[must_use]
pub(crate) fn loop_bodies(
    src: &str,
    tokens: &[Token],
    start: usize,
    end: usize,
) -> Vec<(usize, usize)> {
    let code: Vec<usize> = code_indices(tokens)
        .into_iter()
        .filter(|&i| tokens[i].start >= start && tokens[i].start < end)
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = &tokens[code[i]];
        if !ident_in(t, src, &["for", "loop", "while"]) {
            i += 1;
            continue;
        }
        // The body is the next `{` at paren/bracket depth 0 (closure
        // braces inside iterator arguments sit behind a paren).
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut open = None;
        while j < code.len() {
            let n = &tokens[code[j]];
            if is_punct(n, src, '(') || is_punct(n, src, '[') {
                depth += 1;
            } else if is_punct(n, src, ')') || is_punct(n, src, ']') {
                depth -= 1;
            } else if depth == 0 {
                if is_punct(n, src, '{') {
                    open = Some(j);
                    break;
                }
                if is_punct(n, src, ';') {
                    break; // `for` in a doc example gone wrong; bail
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let mut brace = 0i64;
        let mut k = open;
        let mut body_end = end;
        while k < code.len() {
            let n = &tokens[code[k]];
            if is_punct(n, src, '{') {
                brace += 1;
            } else if is_punct(n, src, '}') {
                brace -= 1;
                if brace == 0 {
                    body_end = n.end;
                    break;
                }
            }
            k += 1;
        }
        out.push((tokens[code[open]].start, body_end));
        i = open + 1; // descend: nested loops get their own ranges
    }
    out
}

/// Byte ranges covered by `#[cfg(test)]`-gated items (the attribute
/// through the end of the item it applies to). Source inside these
/// ranges is exempt from the call-site rules and excluded from the
/// dependency graphs.
///
/// The trigger is a `test` *identifier token* anywhere inside the
/// attribute's brackets, so `#[cfg(test)]` and `#[cfg(all(test, …))]`
/// match while `#[cfg(feature = "test")]` (a string literal) does not.
#[must_use]
pub fn test_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code = code_indices(tokens);
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        let hash = &tokens[code[i]];
        let bracket = &tokens[code[i + 1]];
        if !(is_punct(hash, src, '#') && is_punct(bracket, src, '[')) {
            i += 1;
            continue;
        }
        // Scan the attribute to its closing bracket, noting `cfg` and
        // `test` identifier tokens.
        let mut depth = 0i64;
        let mut has_cfg = false;
        let mut has_test = false;
        let mut j = i + 1;
        while j < code.len() {
            let t = &tokens[code[j]];
            if is_punct(t, src, '[') {
                depth += 1;
            } else if is_punct(t, src, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if ident_is(t, src, "cfg") {
                has_cfg = true;
            } else if ident_is(t, src, "test") {
                has_test = true;
            }
            j += 1;
        }
        if !(has_cfg && has_test) || j >= code.len() {
            i = j.max(i + 1);
            continue;
        }
        // Skip any further attributes, then consume the gated item.
        let mut k = j + 1;
        while k + 1 < code.len()
            && is_punct(&tokens[code[k]], src, '#')
            && is_punct(&tokens[code[k + 1]], src, '[')
        {
            let mut d = 0i64;
            while k < code.len() {
                let t = &tokens[code[k]];
                if is_punct(t, src, '[') {
                    d += 1;
                } else if is_punct(t, src, ']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        let end = item_end(src, tokens, &code, k);
        ranges.push((hash.start, end));
        // Resume after the skipped item.
        while i < code.len() && tokens[code[i]].start < end {
            i += 1;
        }
    }
    ranges
}

/// Byte offset of the end of the item starting at code index `from`:
/// either a `;` at brace depth zero (before any brace opens) or the
/// brace that closes the item's block. Falls back to the end of input.
fn item_end(src: &str, tokens: &[Token], code: &[usize], from: usize) -> usize {
    let mut depth = 0i64;
    let mut inner = 0i64; // () and [] nesting, so `[u8; 3]` never ends an item
    let mut seen_brace = false;
    let mut k = from;
    while k < code.len() {
        let t = &tokens[code[k]];
        if is_punct(t, src, '{') {
            depth += 1;
            seen_brace = true;
        } else if is_punct(t, src, '}') {
            depth -= 1;
            if seen_brace && depth == 0 {
                return t.end;
            }
        } else if is_punct(t, src, '(') || is_punct(t, src, '[') {
            inner += 1;
        } else if is_punct(t, src, ')') || is_punct(t, src, ']') {
            inner -= 1;
        } else if is_punct(t, src, ';') && !seen_brace && inner == 0 {
            return t.end;
        }
        k += 1;
    }
    src.len()
}

/// Byte ranges of `macro_rules!` bodies (the outer `{ … }` block).
/// `pub`-item and path-chain scans skip these: macro bodies are
/// templates, not code, and `$crate::…` paths resolve at expansion
/// sites.
#[must_use]
pub fn macro_rules_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code = code_indices(tokens);
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 2 < code.len() {
        if ident_is(&tokens[code[i]], src, "macro_rules")
            && is_punct(&tokens[code[i + 1]], src, '!')
        {
            let end = item_end(src, tokens, &code, i + 2);
            ranges.push((tokens[code[i]].start, end));
            while i < code.len() && tokens[code[i]].start < end {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    ranges
}

/// One path imported by a `use` declaration, fully expanded from
/// grouped trees. `use a::{b::C, d};` yields `[a, b, C]` and `[a, d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// 1-based line of the `use` keyword.
    pub line: u32,
    /// 1-based column of the `use` keyword.
    pub col: u32,
    /// `true` for `pub use` (re-exports).
    pub is_pub: bool,
    /// Path segments; a trailing glob or `self` leaf is dropped, so a
    /// path may be shorter than written.
    pub segments: Vec<String>,
}

/// Extracts every path imported by `use` declarations outside the
/// given skip ranges (test regions).
#[must_use]
pub fn use_paths(src: &str, tokens: &[Token], skip: &[(usize, usize)]) -> Vec<UsePath> {
    let code = code_indices(tokens);
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = &tokens[code[i]];
        if !ident_is(t, src, "use") || in_ranges(t.start, skip) {
            i += 1;
            continue;
        }
        let is_pub = i > 0 && ident_is(&tokens[code[i - 1]], src, "pub");
        let (line, col) = (t.line, t.col);
        let mut j = i + 1;
        let mut paths = Vec::new();
        parse_use_tree(src, tokens, &code, &mut j, Vec::new(), &mut paths);
        for segments in paths {
            if !segments.is_empty() {
                out.push(UsePath {
                    line,
                    col,
                    is_pub,
                    segments,
                });
            }
        }
        i = j.max(i + 1);
    }
    out
}

/// Recursive-descent parse of one use-tree starting at code index `*j`;
/// stops at `;`, `,`, or the group's closing `}`. Appends each complete
/// path (prefix + local segments) to `paths`.
fn parse_use_tree(
    src: &str,
    tokens: &[Token],
    code: &[usize],
    j: &mut usize,
    prefix: Vec<String>,
    paths: &mut Vec<Vec<String>>,
) {
    let mut segments = prefix;
    while *j < code.len() {
        let t = &tokens[code[*j]];
        if t.kind == TokenKind::Ident {
            let word = t.text(src);
            if word == "as" {
                // Alias: skip the binding name; the path itself is done.
                *j += 2;
                continue;
            }
            if word != "self" || segments.is_empty() {
                segments.push(word.to_string());
            }
            *j += 1;
        } else if is_punct(t, src, ':') {
            *j += 1; // both colons of `::` arrive as single puncts
        } else if is_punct(t, src, '*') {
            *j += 1; // glob leaf: keep the prefix as the path
        } else if is_punct(t, src, '{') {
            *j += 1;
            loop {
                parse_use_tree(src, tokens, code, j, segments.clone(), paths);
                if *j >= code.len() {
                    return;
                }
                let t = &tokens[code[*j]];
                if is_punct(t, src, ',') {
                    *j += 1;
                } else if is_punct(t, src, '}') {
                    *j += 1;
                    break;
                } else {
                    // Malformed; bail out of the group.
                    break;
                }
            }
            return; // a group is always the last element of its branch
        } else if is_punct(t, src, ';') {
            *j += 1;
            break;
        } else if is_punct(t, src, ',') || is_punct(t, src, '}') {
            break; // end of this branch inside a group
        } else {
            *j += 1; // attributes or stray tokens: skip defensively
        }
    }
    paths.push(segments);
}

/// An `a::b` chain occurring in code (outside `use` declarations the
/// chain is a path expression or type path). Only the first two
/// segments are recorded — enough to resolve a crate and a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    /// 1-based line of the first segment.
    pub line: u32,
    /// 1-based column of the first segment.
    pub col: u32,
    /// First path segment.
    pub head: String,
    /// Second path segment, when present.
    pub second: Option<String>,
}

/// Extracts `ident::ident…` chain heads from code tokens, skipping the
/// given ranges (tests, macro bodies), chains preceded by `$` (macro
/// template variables such as `$crate`), and mid-chain segments.
#[must_use]
pub fn path_refs(src: &str, tokens: &[Token], skip: &[(usize, usize)]) -> Vec<PathRef> {
    let code = code_indices(tokens);
    let mut out = Vec::new();
    for (ci, &idx) in code.iter().enumerate() {
        let t = &tokens[idx];
        if t.kind != TokenKind::Ident || in_ranges(t.start, skip) {
            continue;
        }
        if !double_colon_at(src, tokens, &code, ci + 1) {
            continue;
        }
        // Chain start only: not preceded by `::` or `$`.
        if ci >= 2 && double_colon_at(src, tokens, &code, ci - 2) {
            continue;
        }
        if ci >= 1 && is_punct(&tokens[code[ci - 1]], src, '$') {
            continue;
        }
        let second = code
            .get(ci + 3)
            .map(|&k| &tokens[k])
            .filter(|n| n.kind == TokenKind::Ident)
            .map(|n| n.text(src).to_string());
        out.push(PathRef {
            line: t.line,
            col: t.col,
            head: t.text(src).to_string(),
            second,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn paths_of(src: &str) -> Vec<Vec<String>> {
        let tokens = lex(src);
        use_paths(src, &tokens, &[])
            .into_iter()
            .map(|u| u.segments)
            .collect()
    }

    #[test]
    fn simple_and_grouped_use() {
        assert_eq!(paths_of("use a::b::C;"), vec![vec!["a", "b", "C"]]);
        assert_eq!(
            paths_of("use a::{b::C, d};"),
            vec![vec!["a", "b", "C"], vec!["a", "d"]]
        );
        assert_eq!(paths_of("use a::b as x;"), vec![vec!["a", "b"]]);
        assert_eq!(paths_of("use a::b::*;"), vec![vec!["a", "b"]]);
        assert_eq!(
            paths_of("use a::{self, b};"),
            vec![vec!["a"], vec!["a", "b"]]
        );
    }

    #[test]
    fn pub_use_is_flagged() {
        let src = "pub use crate::csr::CsrMatrix;";
        let tokens = lex(src);
        let u = use_paths(src, &tokens, &[]);
        assert!(u[0].is_pub);
        assert_eq!(u[0].segments, vec!["crate", "csr", "CsrMatrix"]);
    }

    #[test]
    fn test_region_covers_mod_tests() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn x() { val.unwrap(); }\n}\nfn after() {}\n";
        let tokens = lex(src);
        let regions = test_regions(src, &tokens);
        assert_eq!(regions.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap_or(0);
        assert!(in_ranges(unwrap_at, &regions));
        let after_at = src.rfind("after").unwrap_or(0);
        assert!(!in_ranges(after_at, &regions));
    }

    #[test]
    fn cfg_feature_test_string_is_not_a_test_region() {
        let src = "#[cfg(feature = \"test\")]\nfn x() {}\n";
        let tokens = lex(src);
        assert!(test_regions(src, &tokens).is_empty());
    }

    #[test]
    fn cfg_all_test_matches() {
        let src = "#[cfg(all(test, feature = \"extra\"))]\nmod t { }\n";
        let tokens = lex(src);
        assert_eq!(test_regions(src, &tokens).len(), 1);
    }

    #[test]
    fn attribute_on_braceless_item() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn live() {}\n";
        let tokens = lex(src);
        let regions = test_regions(src, &tokens);
        assert_eq!(regions.len(), 1);
        let live_at = src.rfind("live").unwrap_or(0);
        assert!(!in_ranges(live_at, &regions));
    }

    #[test]
    fn macro_rules_body_is_a_region() {
        let src = "macro_rules! m { () => { $crate::x() }; }\nfn live() {}\n";
        let tokens = lex(src);
        let regions = macro_rules_regions(src, &tokens);
        assert_eq!(regions.len(), 1);
        let x_at = src.find("$crate").unwrap_or(0);
        assert!(in_ranges(x_at, &regions));
    }

    #[test]
    fn path_refs_skip_dollar_and_mid_chain() {
        let src = "let v = commorder_sparse::csr::CsrMatrix::identity(4);";
        let tokens = lex(src);
        let refs = path_refs(src, &tokens, &[]);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].head, "commorder_sparse");
        assert_eq!(refs[0].second.as_deref(), Some("csr"));

        let m = "$crate::obs::emit()";
        let mtok = lex(m);
        assert!(path_refs(m, &mtok, &[]).is_empty());
    }
}
