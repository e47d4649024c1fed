//! A minimal Rust lexer — just enough structure for the impl finder
//! ([`crate::wire::message_impls`]).
//!
//! The workspace is hermetic (no `syn`, no `proc-macro2`), so the
//! analyzer carries its own tokenizer. It only needs to be faithful
//! about the things the finder keys on:
//!
//! * identifiers stay whole (`MessageFor` never matches `Message`),
//! * comments are skipped (a doc comment quoting `impl Message for T`
//!   is not an impl),
//! * literals are opaque, and lifetimes are not char literals
//!   (`impl<'a> Message for T<'a>` keeps its `Message`),
//! * every token knows its 1-based source line.
//!
//! It does not try to be a full lexer: multi-character operators
//! arrive as single punctuation tokens.

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
    /// String, byte-string, char or numeric literal (contents
    /// discarded).
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

/// Tokenizes `src` into its significant tokens, in source order. Never
/// fails: unterminated constructs simply run to end of input (the
/// workspace compiles, so in practice they don't occur).
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
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
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
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
                    out.push(Token {
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
                    out.push(Token {
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
            out.push(Token {
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
                out.push(Token {
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
            out.push(Token {
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
            out.push(Token {
                line,
                kind: TokKind::Lit,
            });
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_cont(b[i]) {
                i += 1;
            }
            out.push(Token {
                line,
                kind: TokKind::Ident(b[start..i].iter().collect()),
            });
            continue;
        }
        out.push(Token {
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
        let ids: Vec<&str> = l.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(ids, ["forbid", "unsafe_code", "unsafe", "fn", "f"]);
    }

    #[test]
    fn comments_leave_the_stream_and_keep_line_numbers() {
        let l = lex("let a = 1; // Message\n/* Message\n /* nested */ */ impl {}");
        assert!(l.iter().all(|t| t.ident() != Some("Message")));
        let imp = l.iter().find(|t| t.ident() == Some("impl"));
        assert_eq!(imp.map(|t| t.line), Some(3));
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        let l = lex("let s = \"impl Message\"; let c = 'h'; let r = r#\"Message\"#;");
        assert!(l
            .iter()
            .all(|t| !matches!(t.ident(), Some("impl" | "Message" | "h"))));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    /// Hostile input: seeded strings over the characters the lexer
    /// branches on (raw-string hashes, quotes, escapes, comment
    /// delimiters, number continuations, multibyte chars) never panic
    /// it, and no token lands past the input's last line.
    #[test]
    fn arbitrary_input_never_panics_and_keeps_lines_in_range() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "rb#\"'\\/*\n0123456789e+-._é中🦀".chars().collect();
        let mut rng = StdRng::seed_from_u64(0x1E8E5);
        for _ in 0..200_000 {
            let len = rng.random_range(0..=24usize);
            let src: String = (0..len)
                .map(|_| alphabet[rng.random_range(0..alphabet.len())])
                .collect();
            let lines = src.matches('\n').count() + 1;
            let tokens = std::panic::catch_unwind(|| lex(&src))
                .unwrap_or_else(|_| panic!("lex panicked on {src:?}"));
            assert!(
                tokens.iter().all(|t| t.line <= lines),
                "{src:?} lexed past its {lines} lines: {tokens:?}"
            );
        }
    }
}
