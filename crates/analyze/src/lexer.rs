//! A minimal Rust lexer — just enough structure for the analysis passes.
//!
//! The workspace is hermetic (no `syn`, no `proc-macro2`), so the
//! analyzer carries its own tokenizer. It only needs to be faithful
//! about the things the passes key on:
//!
//! * identifiers stay whole (`unsafe_code` never matches `unsafe`),
//! * comments are stripped from the token stream but retained per line
//!   (the SAFETY rule and the allowlist live in comments),
//! * string/char literals are opaque (a string containing `HashMap` is
//!   not a finding),
//! * every token knows its 1-based source line.
//!
//! It does not try to be a full lexer: numeric literals keep their raw
//! text, and multi-character operators arrive as single punctuation
//! tokens.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: usize,
    /// What the token is.
    pub kind: TokKind,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (kept verbatim, raw `r#` prefix stripped).
    Ident(String),
    /// Numeric literal, raw text (suffixes and underscores included).
    Num(String),
    /// String, byte-string or char literal (contents discarded).
    Lit,
    /// Lifetime such as `'a` (name discarded).
    Lifetime,
    /// Single punctuation character.
    Punct(char),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokKind::Punct(p) if p == c)
    }
}

/// A comment's text, attributed to every line it spans.
#[derive(Debug, Clone)]
pub struct CommentLine {
    /// 1-based source line.
    pub line: usize,
    /// The comment text of that line (delimiters kept; for a multi-line
    /// block comment each spanned line records the full comment body so
    /// `contains`-style probes work from any of its lines).
    pub text: String,
}

/// Lexer output: the token stream plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comment text per spanned line.
    pub comments: Vec<CommentLine>,
}

impl Lexed {
    /// True iff some comment on a line in `lo..=hi` contains `needle`.
    pub fn comment_in_range_contains(&self, lo: usize, hi: usize, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line <= hi && c.text.contains(needle))
    }
}

/// Tokenizes `src`. Never fails: unterminated constructs simply run to
/// end of input (the workspace compiles, so in practice they don't
/// occur; fixtures are kept well-formed too).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            out.comments.push(CommentLine {
                line,
                text: b[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let start = i;
            let first_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let text: String = b[start..i].iter().collect();
            for l in first_line..=line {
                out.comments.push(CommentLine {
                    line: l,
                    text: text.clone(),
                });
            }
            continue;
        }
        // Raw strings and raw identifiers: r"...", r#"..."#, br"...",
        // r#ident.
        if (c == 'r' || c == 'b') && i + 1 < b.len() {
            let (prefix_len, rest) = if c == 'b' && b[i + 1] == 'r' {
                (2, i + 2)
            } else if c == 'r' {
                (1, i + 1)
            } else {
                (0, i)
            };
            if prefix_len > 0 && rest < b.len() && (b[rest] == '"' || b[rest] == '#') {
                let mut j = rest;
                let mut hashes = 0usize;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    // Raw string: scan for `"` followed by `hashes` #s.
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if b[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Lit,
                    });
                    i = j;
                    continue;
                }
                if c == 'r' && hashes == 1 && j < b.len() && is_ident_start(b[j]) {
                    // Raw identifier `r#name`.
                    let start = j;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Ident(b[start..j].iter().collect()),
                    });
                    i = j;
                    continue;
                }
            }
        }
        // String literal (incl. b"...").
        if c == '"' {
            i += 1;
            while i < b.len() {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.tokens.push(Token {
                line,
                kind: TokKind::Lit,
            });
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let next_is_name = i + 1 < b.len() && is_ident_start(b[i + 1]);
            let closes_as_char = i + 2 < b.len() && b[i + 2] == '\'';
            if next_is_name && !closes_as_char {
                let mut j = i + 1;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Lifetime,
                });
                i = j;
                continue;
            }
            // Char literal, possibly escaped.
            let mut j = i + 1;
            while j < b.len() {
                match b[j] {
                    '\\' => j += 2,
                    '\'' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            out.tokens.push(Token {
                line,
                kind: TokKind::Lit,
            });
            i = j;
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() {
                let d = b[i];
                // Continuations: ident chars (digits, `_`, type
                // suffixes, the `e` of exponents), a decimal point
                // followed by a digit, or an exponent sign.
                let continues = is_ident_cont(d)
                    || (d == '.' && i + 1 < b.len() && b[i + 1].is_ascii_digit())
                    || ((d == '+' || d == '-')
                        && matches!(b[i - 1], 'e' | 'E')
                        && b[start].is_ascii_digit()
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_digit());
                if continues {
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                line,
                kind: TokKind::Num(b[start..i].iter().collect()),
            });
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_cont(b[i]) {
                i += 1;
            }
            out.tokens.push(Token {
                line,
                kind: TokKind::Ident(b[start..i].iter().collect()),
            });
            continue;
        }
        out.tokens.push(Token {
            line,
            kind: TokKind::Punct(c),
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_stay_whole() {
        let l = lex("#![forbid(unsafe_code)] unsafe fn f() {}");
        let ids: Vec<&str> = l.tokens.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(ids, ["forbid", "unsafe_code", "unsafe", "fn", "f"]);
    }

    #[test]
    fn comments_leave_the_stream_but_are_kept() {
        let l = lex("let a = 1; // SAFETY: not really\n/* HashMap */ let b = 2;");
        assert!(l.tokens.iter().all(|t| t.ident() != Some("HashMap")));
        assert!(l.comment_in_range_contains(1, 1, "SAFETY:"));
        assert!(l.comment_in_range_contains(2, 2, "HashMap"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let l = lex("/* SAFETY:\n spans \n lines */ unsafe {}");
        assert!(l.comment_in_range_contains(2, 2, "SAFETY:"));
        assert!(l.comment_in_range_contains(3, 3, "SAFETY:"));
        assert_eq!(l.tokens[0].ident(), Some("unsafe"));
        assert_eq!(l.tokens[0].line, 3);
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        let l = lex("let s = \"HashMap Instant\"; let c = 'h'; let r = r\"SystemTime\";");
        assert!(l
            .tokens
            .iter()
            .all(|t| !matches!(t.ident(), Some("HashMap" | "Instant" | "SystemTime"))));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }
}
