//! A lossless, zero-dependency Rust lexer.
//!
//! Every byte of the input belongs to exactly one token, so
//! concatenating the token texts reproduces the source byte-for-byte
//! (the propcheck round-trip test enforces this). The lexer understands
//! exactly as much Rust as the analysis passes need:
//!
//! * line and nested block comments, with doc-comment flavors;
//! * string-ish literals in all prefix forms (`"…"`, `b"…"`, `c"…"`,
//!   `r"…"`, `r#"…"#`, `br#"…"#`, `cr"…"`), char and byte-char
//!   literals, raw identifiers (`r#type`);
//! * the lifetime-versus-char-literal ambiguity after a `'`;
//! * shebang lines and numeric literals (including `1.5e-3` and
//!   `0xAE` without eating a following `+`).
//!
//! Everything else is an identifier, a one-byte punctuation token, or
//! `Unknown`. That is enough to kill the string/comment false positives
//! of a line-regex lint and to extract `use`/path graphs, without
//! needing a grammar.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of ASCII whitespace.
    Whitespace,
    /// A `#!...` line at byte offset 0 (not `#![...]`).
    Shebang,
    /// A `//` comment (not a doc comment).
    LineComment,
    /// A `///` or `//!` doc comment (`////…` is a plain comment).
    DocLineComment,
    /// A `/* … */` comment, nesting-aware.
    BlockComment,
    /// A `/** … */` or `/*! … */` doc comment.
    DocBlockComment,
    /// An identifier, keyword, or raw identifier (`r#type`).
    Ident,
    /// A lifetime such as `'a` (including the quote).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'"'`.
    CharLit,
    /// A string-ish literal in any prefix/raw form.
    StrLit,
    /// A numeric literal, integer or float, with any suffix.
    NumLit,
    /// A single punctuation byte.
    Punct,
    /// A byte the lexer cannot classify (kept for losslessness).
    Unknown,
}

impl TokenKind {
    /// `true` for comments and whitespace — tokens the analysis passes
    /// skip when matching code patterns.
    #[must_use]
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::Whitespace
                | TokenKind::Shebang
                | TokenKind::LineComment
                | TokenKind::DocLineComment
                | TokenKind::BlockComment
                | TokenKind::DocBlockComment
        )
    }
}

/// One token: a kind plus the byte span and start position it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte on its line.
    pub col: u32,
}

impl Token {
    /// The token's text, sliced from the source it was lexed from.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Byte length of the token.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the token covers zero bytes (never produced by
    /// [`lex`]; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// `true` for bytes that may begin an identifier. Non-ASCII bytes are
/// treated as identifier material so multi-byte UTF-8 text groups into
/// single tokens instead of `Unknown` runs.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// `true` for bytes that may continue an identifier.
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a complete token stream. Lossless: the spans
/// partition `0..src.len()` in order, with no gaps or overlaps.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        if self.src.starts_with(b"#!") && self.src.get(2) != Some(&b'[') {
            let end = self.line_end(0);
            self.emit(TokenKind::Shebang, end);
        }
        while self.pos < self.src.len() {
            let start = self.pos;
            let b = self.src[start];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.whitespace(),
                b'/' => self.slash(),
                b'"' => self.string(start + 1),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ if b.is_ascii_punctuation() => self.emit(TokenKind::Punct, start + 1),
                _ => self.emit(TokenKind::Unknown, start + 1),
            }
        }
        self.tokens
    }

    /// Byte offset of the end of the current line (exclusive of the
    /// newline), starting the scan at `from`.
    fn line_end(&self, from: usize) -> usize {
        let mut p = from;
        while p < self.src.len() && self.src[p] != b'\n' {
            p += 1;
        }
        p
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.get(at).copied()
    }

    /// Pushes a token covering `self.pos..end` and advances the
    /// line/column cursor across the consumed bytes.
    fn emit(&mut self, kind: TokenKind, end: usize) {
        let start = self.pos;
        self.tokens.push(Token {
            kind,
            start,
            end,
            line: self.line,
            col: self.col,
        });
        for &b in &self.src[start..end] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.pos = end;
    }

    fn whitespace(&mut self) {
        let mut p = self.pos;
        while p < self.src.len() && matches!(self.src[p], b' ' | b'\t' | b'\r' | b'\n') {
            p += 1;
        }
        self.emit(TokenKind::Whitespace, p);
    }

    fn slash(&mut self) {
        match self.byte(self.pos + 1) {
            Some(b'/') => {
                let end = self.line_end(self.pos);
                let text = &self.src[self.pos..end];
                let doc = (text.starts_with(b"///") && !text.starts_with(b"////"))
                    || text.starts_with(b"//!");
                let kind = if doc {
                    TokenKind::DocLineComment
                } else {
                    TokenKind::LineComment
                };
                self.emit(kind, end);
            }
            Some(b'*') => self.block_comment(),
            _ => self.emit(TokenKind::Punct, self.pos + 1),
        }
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        // `/**/` and `/***` open plain comments; `/*!` and `/**x` open
        // doc comments.
        let doc = match (self.byte(start + 2), self.byte(start + 3)) {
            (Some(b'!'), _) => true,
            (Some(b'*'), Some(b'*' | b'/')) | (Some(b'*'), None) => false,
            (Some(b'*'), Some(_)) => true,
            _ => false,
        };
        let mut depth = 1usize;
        let mut p = start + 2;
        while p < self.src.len() && depth > 0 {
            if self.src[p] == b'/' && self.byte(p + 1) == Some(b'*') {
                depth += 1;
                p += 2;
            } else if self.src[p] == b'*' && self.byte(p + 1) == Some(b'/') {
                depth -= 1;
                p += 2;
            } else {
                p += 1;
            }
        }
        let kind = if doc {
            TokenKind::DocBlockComment
        } else {
            TokenKind::BlockComment
        };
        self.emit(kind, p);
    }

    /// Lexes a non-raw string body starting just after the opening
    /// quote at `body`; emits a `StrLit` from `self.pos`.
    fn string(&mut self, body: usize) {
        let mut p = body;
        while p < self.src.len() {
            match self.src[p] {
                b'\\' => p += 2,
                b'"' => {
                    p += 1;
                    break;
                }
                _ => p += 1,
            }
        }
        self.emit(TokenKind::StrLit, p.min(self.src.len()));
    }

    /// Lexes a raw string body: `hashes` hash marks were counted and
    /// `body` points just past the opening quote.
    fn raw_string(&mut self, body: usize, hashes: usize) {
        let mut p = body;
        while p < self.src.len() {
            if self.src[p] == b'"' {
                let mut h = 0;
                while h < hashes && self.byte(p + 1 + h) == Some(b'#') {
                    h += 1;
                }
                if h == hashes {
                    p += 1 + hashes;
                    self.emit(TokenKind::StrLit, p);
                    return;
                }
            }
            p += 1;
        }
        self.emit(TokenKind::StrLit, self.src.len());
    }

    /// A `'`: lifetime, char literal, or a stray quote.
    fn quote(&mut self) {
        let start = self.pos;
        match self.byte(start + 1) {
            // Escape: always a char literal. The byte after the
            // backslash is consumed by the escape (`'\''`), so the
            // closing-quote scan starts beyond it.
            Some(b'\\') => {
                let mut p = start + 3;
                while p < self.src.len() {
                    match self.src[p] {
                        b'\\' => p += 2,
                        b'\'' => {
                            p += 1;
                            break;
                        }
                        _ => p += 1,
                    }
                }
                self.emit(TokenKind::CharLit, p.min(self.src.len()));
            }
            Some(b) => {
                // One codepoint then a closing quote → char literal
                // ('a', '0', '(', 'é'). Otherwise an identifier start
                // means a lifetime ('a in `&'a str`, 'static).
                let cp_len = utf8_len(b);
                if self.byte(start + 1 + cp_len) == Some(b'\'') && b != b'\'' {
                    self.emit(TokenKind::CharLit, start + 2 + cp_len);
                } else if is_ident_start(b) {
                    let mut p = start + 2;
                    while p < self.src.len() && is_ident_continue(self.src[p]) {
                        p += 1;
                    }
                    self.emit(TokenKind::Lifetime, p);
                } else {
                    self.emit(TokenKind::Unknown, start + 1);
                }
            }
            None => self.emit(TokenKind::Unknown, start + 1),
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        let radix_prefixed = self.byte(start) == Some(b'0')
            && matches!(self.byte(start + 1), Some(b'x' | b'o' | b'b'));
        let mut p = start;
        while p < self.src.len() {
            let b = self.src[p];
            if b.is_ascii_alphanumeric() || b == b'_' {
                p += 1;
            } else if b == b'.' && self.byte(p + 1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the literal; `0.unwrap()` does not.
                p += 1;
            } else if (b == b'+' || b == b'-')
                && !radix_prefixed
                && p > start
                && matches!(self.src[p - 1], b'e' | b'E')
                && self.byte(p + 1).is_some_and(|d| d.is_ascii_digit())
            {
                // Exponent sign in `1.5e-3`, but not the `+` in `0xAE+1`.
                p += 1;
            } else {
                break;
            }
        }
        self.emit(TokenKind::NumLit, p);
    }

    /// An identifier-start byte: raw identifier, prefixed string/char
    /// literal, or a plain identifier.
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.pos;
        let rest = &self.src[start..];
        // Longest literal prefix first: br"…", cr"…", then b/c/r forms.
        for prefix in [&b"br"[..], b"cr", b"b", b"c", b"r"] {
            if !rest.starts_with(prefix) {
                continue;
            }
            let after = start + prefix.len();
            let raw = prefix.ends_with(b"r");
            if raw {
                // Count hashes, then expect a quote (raw string) or, for
                // the bare `r#` prefix, an identifier (raw identifier).
                let mut hashes = 0;
                while self.byte(after + hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.byte(after + hashes) == Some(b'"') {
                    self.raw_string(after + hashes + 1, hashes);
                    return;
                }
                if prefix == b"r" && hashes == 1 && self.byte(after + 1).is_some_and(is_ident_start)
                {
                    let mut p = after + 2;
                    while p < self.src.len() && is_ident_continue(self.src[p]) {
                        p += 1;
                    }
                    self.emit(TokenKind::Ident, p);
                    return;
                }
            } else if self.byte(after) == Some(b'"') {
                self.string(after + 1);
                return;
            } else if prefix == b"b" && self.byte(after) == Some(b'\'') {
                // Byte-char literal `b'x'`, including `b'"'` and `b'\''`;
                // the span starts at the `b` prefix.
                self.byte_char(after);
                return;
            }
        }
        let mut p = start;
        while p < self.src.len() && is_ident_continue(self.src[p]) {
            p += 1;
        }
        self.emit(TokenKind::Ident, p);
    }

    /// Lexes `b'x'` where `quote` is the offset of the opening `'`.
    fn byte_char(&mut self, quote: usize) {
        let mut p = quote + 1;
        if self.byte(p) == Some(b'\\') {
            p += 2;
        } else {
            p += 1;
        }
        if self.byte(p) == Some(b'\'') {
            p += 1;
        }
        self.emit(TokenKind::CharLit, p.min(self.src.len()));
    }
}

/// Byte length of the UTF-8 codepoint beginning with `b` (1 for ASCII
/// and for malformed leading bytes).
fn utf8_len(b: u8) -> usize {
    if b >= 0xF0 {
        4
    } else if b >= 0xE0 {
        3
    } else if b >= 0xC0 {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(src: &str) -> String {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lossless_on_plain_code() {
        let src = "fn main() { let x = 1 + 2; }\n";
        assert_eq!(reassemble(src), src);
    }

    #[test]
    fn raw_strings_with_hashes() {
        for src in [
            "r\"no hashes\"",
            "r#\"one \" hash\"#",
            "r##\"nested \"# still open\"##",
            "br#\"bytes\"#",
            "cr#\"c string\"#",
        ] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, TokenKind::StrLit, "{src}");
            assert_eq!(reassemble(src), src);
        }
    }

    #[test]
    fn raw_identifier_is_ident() {
        let toks = lex("r#type");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Ident);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ x";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text(src), "/* outer /* inner */ still comment */");
        assert_eq!(reassemble(src), src);
    }

    #[test]
    fn doc_comment_flavors() {
        assert_eq!(kinds("/// doc"), vec![TokenKind::DocLineComment]);
        assert_eq!(kinds("//! inner"), vec![TokenKind::DocLineComment]);
        assert_eq!(kinds("//// rule"), vec![TokenKind::LineComment]);
        assert_eq!(kinds("/** doc */"), vec![TokenKind::DocBlockComment]);
        assert_eq!(kinds("/*! inner */"), vec![TokenKind::DocBlockComment]);
        assert_eq!(kinds("/**/"), vec![TokenKind::BlockComment]);
    }

    #[test]
    fn lifetimes_versus_char_literals() {
        assert_eq!(
            kinds("&'a str"),
            vec![TokenKind::Punct, TokenKind::Lifetime, TokenKind::Ident,]
        );
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'a'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'\\n'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'\\''"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'('"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("b'\"'"), vec![TokenKind::CharLit]);
    }

    #[test]
    fn shebang_only_at_offset_zero() {
        let src = "#!/usr/bin/env run\nfn main() {}\n";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::Shebang);
        assert_eq!(toks[0].text(src), "#!/usr/bin/env run");
        assert_eq!(reassemble(src), src);
        // `#![attr]` is not a shebang.
        let attr = "#![forbid(unsafe_code)]\n";
        assert_eq!(lex(attr)[0].kind, TokenKind::Punct);
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = "let s = \"call .unwrap() /* not a comment */\";";
        let toks = lex(src);
        let lit: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .collect();
        assert_eq!(lit.len(), 1);
        assert!(lit[0].text(src).contains(".unwrap()"));
        assert_eq!(reassemble(src), src);
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let src = "0.unwrap()";
        let toks = kinds(src);
        assert_eq!(toks[0], TokenKind::NumLit);
        assert_eq!(toks[1], TokenKind::Punct);
        assert_eq!(reassemble(src), src);
        assert_eq!(kinds("1.5e-3"), vec![TokenKind::NumLit]);
        assert_eq!(
            kinds("0xAE+1"),
            vec![TokenKind::NumLit, TokenKind::Punct, TokenKind::NumLit]
        );
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "ab\ncd ef";
        let toks: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .collect();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 1));
        assert_eq!((toks[2].line, toks[2].col), (2, 4));
    }

    #[test]
    fn unterminated_forms_stay_lossless() {
        for src in ["\"open", "r#\"open", "/* open", "'\\", "b'"] {
            assert_eq!(reassemble(src), src, "{src}");
        }
    }
}
