//! A token-level Rust lexer for the lint engine.
//!
//! This is deliberately **not** a full Rust parser: the lint passes need
//! to know *what kind of text they are looking at* — code vs. string
//! literal vs. comment — and to match small token patterns
//! (`.unwrap` `(` `)`, `Instant` `::` `now`, `unsafe` `{`). A real
//! lexer is what separates a trustworthy lint from the substring scanner
//! it replaces: `".unwrap()"` inside a string literal, a doc comment, or
//! a raw string is one `Str`/`Comment` token here, so it can never be
//! mistaken for a call again. See `docs/adr/0002-token-level-lint.md`
//! for why the engine stops at tokens + a lightweight item model.
//!
//! Coverage: line and (nested) block comments, string literals with
//! escapes, raw strings `r"…"` / `r#"…"#` (any number of hashes), byte
//! and raw-byte strings, char and byte-char literals, lifetimes
//! (disambiguated from char literals), raw identifiers `r#ident`,
//! numbers (decimal/hex/octal/binary, `_` separators, float forms,
//! suffixes), identifiers, and single-character punctuation. Multi-char
//! operators are left as adjacent punct tokens; pattern matchers simply
//! match the sequence (`:` `:` for `::`).

/// What a token is, which is all the passes need to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident,
    /// A lifetime such as `'a` or `'static` (leading `'` included).
    Lifetime,
    /// Any numeric literal, suffix included.
    Number,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"` — quotes and
    /// prefixes included in `text`.
    Str,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character.
    Punct,
    /// A line or block comment, markers included. Doc comments are
    /// comments here; the item model inspects the text when it cares.
    Comment,
}

/// One token with its 1-based source line (the line it *starts* on).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True when this is an `Ident` with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this is a `Punct` with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens, comments included, whitespace dropped.
///
/// The lexer never fails: unterminated literals are closed by end of
/// file (the lint runs on code `rustc` already accepted, so this only
/// matters for hostile fixture inputs, where "rest of file is one
/// token" is a safe answer).
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src,
        chars: src.char_indices().peekable(),
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    line: u32,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while let Some(&(i, c)) = self.chars.peek() {
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' => self.slash(i),
                '"' => self.string(i),
                '\'' => self.quote(i),
                _ if c.is_ascii_digit() => self.number(i),
                _ if is_ident_start(c) => self.ident_or_prefixed(i),
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push(TokKind::Punct, i, i + c.len_utf8(), line);
                }
            }
        }
        self.toks
    }

    /// Advance one char, tracking newlines.
    fn bump(&mut self) -> Option<char> {
        let (_, c) = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    /// Byte offset of the next unconsumed char (or end of input).
    fn pos(&mut self) -> usize {
        self.chars.peek().map_or(self.src.len(), |&(i, _)| i)
    }

    fn push(&mut self, kind: TokKind, start: usize, end: usize, line: u32) {
        self.toks.push(Tok {
            kind,
            text: self.src[start..end].to_string(),
            line,
        });
    }

    /// `/` — comment or plain punct.
    fn slash(&mut self, start: usize) {
        let line = self.line;
        self.bump(); // the '/'
        match self.peek() {
            Some('/') => {
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                let end = self.pos();
                self.push(TokKind::Comment, start, end, line);
            }
            Some('*') => {
                self.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match self.bump() {
                        Some('*') if self.peek() == Some('/') => {
                            self.bump();
                            depth -= 1;
                        }
                        Some('/') if self.peek() == Some('*') => {
                            self.bump();
                            depth += 1;
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                let end = self.pos();
                self.push(TokKind::Comment, start, end, line);
            }
            _ => self.push(TokKind::Punct, start, start + 1, line),
        }
    }

    /// A `"…"` string starting at `start` (the opening quote is the next
    /// unconsumed char).
    fn string(&mut self, start: usize) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        let end = self.pos();
        self.push(TokKind::Str, start, end, line);
    }

    /// A raw string `r"…"` / `r#"…"#`: the caller consumed the prefix;
    /// the next chars are `#… "`.
    fn raw_string(&mut self, start: usize) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // A closing quote must be followed by `hashes` hashes.
                let mut seen = 0;
                while seen < hashes {
                    if self.peek() == Some('#') {
                        self.bump();
                        seen += 1;
                    } else {
                        continue 'outer;
                    }
                }
                break;
            }
        }
        let end = self.pos();
        self.push(TokKind::Str, start, end, line);
    }

    /// `'` — char literal or lifetime.
    fn quote(&mut self, start: usize) {
        let line = self.line;
        self.bump(); // the '
        match self.peek() {
            // `'\…'` is always a char literal.
            Some('\\') => {
                self.bump();
                self.bump(); // the escaped char
                             // consume to closing quote (handles \u{…})
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                let end = self.pos();
                self.push(TokKind::Char, start, end, line);
            }
            Some(c) if is_ident_start(c) => {
                // `'a'` char vs `'a` lifetime: lex the ident, then check
                // for a closing quote.
                while let Some(c2) = self.peek() {
                    if !is_ident_continue(c2) {
                        break;
                    }
                    self.bump();
                }
                if self.peek() == Some('\'') {
                    self.bump();
                    let end = self.pos();
                    self.push(TokKind::Char, start, end, line);
                } else {
                    let end = self.pos();
                    self.push(TokKind::Lifetime, start, end, line);
                }
            }
            // `'('`, `'9'`, `' '` … — a one-char literal.
            Some(_) => {
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
                let end = self.pos();
                self.push(TokKind::Char, start, end, line);
            }
            None => {
                let end = self.pos();
                self.push(TokKind::Punct, start, end, line)
            }
        }
    }

    fn number(&mut self, start: usize) {
        let line = self.line;
        // Integer/float body: alphanumerics and `_` (covers 0x/0b/0o,
        // suffixes, exponents), plus `.` only when followed by a digit
        // (so `0..10` and `1.max(2)` do not swallow the dot).
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                let here = self.pos();
                let was_exp = matches!(c, 'e' | 'E') && !self.src[start..here].starts_with("0x");
                self.bump();
                // `1e-3` / `1E+7`: sign directly after the exponent.
                if was_exp {
                    if let Some(s @ ('+' | '-')) = self.peek() {
                        let _ = s;
                        self.bump();
                    }
                }
            } else if c == '.' {
                let mut ahead = self.chars.clone();
                ahead.next();
                match ahead.peek() {
                    Some(&(_, d)) if d.is_ascii_digit() => {
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        let end = self.pos();
        self.push(TokKind::Number, start, end, line);
    }

    /// Identifier — or a string/char prefix (`r"…"`, `b'…'`, `br#"…"#`,
    /// `r#ident`).
    fn ident_or_prefixed(&mut self, start: usize) {
        let line = self.line;
        while let Some(c) = self.peek() {
            if !is_ident_continue(c) {
                break;
            }
            self.bump();
        }
        let here = self.pos();
        let ident = &self.src[start..here];
        match (ident, self.peek()) {
            ("r" | "br" | "rb" | "cr", Some('"')) => self.raw_string(start),
            ("r" | "br" | "rb" | "cr", Some('#')) => {
                // `r#"…"#` raw string or `r#ident` raw identifier.
                let mut ahead = self.chars.clone();
                ahead.next(); // the '#'
                let is_raw_ident =
                    ident == "r" && matches!(ahead.peek(), Some(&(_, c)) if is_ident_start(c));
                if is_raw_ident {
                    self.bump(); // '#'
                    while let Some(c) = self.peek() {
                        if !is_ident_continue(c) {
                            break;
                        }
                        self.bump();
                    }
                    let end = self.pos();
                    self.push(TokKind::Ident, start, end, line);
                } else {
                    self.raw_string(start);
                }
            }
            ("b" | "c", Some('"')) => self.string(start),
            ("b", Some('\'')) => self.quote(start),
            _ => {
                let end = self.pos();
                self.push(TokKind::Ident, start, end, line)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_comments_and_code_are_distinct_tokens() {
        let toks = kinds(r#"let s = "x.unwrap()"; // .expect( in a comment"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("unwrap")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Comment && t.contains("expect")));
        // No Ident token named unwrap/expect leaked out.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "unwrap" || t == "expect")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"a "quoted" .unwrap()"#; x()"###);
        let s = toks.iter().find(|(k, _)| *k == TokKind::Str).unwrap();
        assert!(s.1.contains("quoted"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still-comment */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].1, "a");
        assert_eq!(toks[1].0, TokKind::Comment);
        assert!(toks[1].1.contains("still-comment"));
        assert_eq!(toks[2].1, "b");
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_method_calls() {
        let toks = kinds("0..10 1.5 1_000u64 0xEE 1e-3 2.max(3)");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            nums,
            ["0", "10", "1.5", "1_000u64", "0xEE", "1e-3", "2", "3"]
        );
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "max"));
    }

    #[test]
    fn line_numbers_are_tracked_through_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb \"s\ntr\"\nc";
        let toks = lex(src);
        let lines: Vec<(String, u32)> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(lines[0], ("a".into(), 1));
        assert_eq!(lines[1].1, 2); // comment starts line 2
        assert_eq!(lines[2], ("b".into(), 4));
        assert_eq!(lines[3].1, 4); // string starts line 4
        assert_eq!(lines[4], ("c".into(), 6));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }
}
