//! A hand-rolled Rust tokenizer: the foundation of the schema audit.
//!
//! One pass over the source produces a token stream ([`Tok`]) with line
//! numbers, which the AST-lite ([`crate::ast`]) and the rule passes
//! ([`crate::rules`], [`crate::schema`]) consume. Comments are skipped and
//! string literals keep their contents, so a metric name in a doc comment
//! never counts as a registration.
//!
//! The lexer handles nested block comments, raw strings of any hash
//! depth (`r##"…"##`), byte and raw-byte strings, raw identifiers
//! (`r#match`), char literals vs lifetimes, and numeric literals with
//! suffixes. It is deliberately not a full Rust lexer (no float-exponent
//! pedantry, no shebang handling), but it is exact on everything the
//! rules match against.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `match`, `Subsystem`, …).
    Ident,
    /// String literal — [`Tok::text`] holds the *contents* (no quotes),
    /// which is how the schema pass reads metric names.
    Str,
    /// Char literal (contents, no quotes).
    Char,
    /// Numeric literal, suffix included (`0xff`, `1_000u64`).
    Num,
    /// Lifetime (`'a`, without the quote).
    Life,
    /// Punctuation; compound operators (`::`, `=>`, `..=`) are one token.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what each kind stores).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Compound punctuation, longest first so maximal munch wins.
const PUNCTS: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Tokenizes `src`; comments are skipped.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let push = |out: &mut Vec<Tok>, kind, text, line| out.push(Tok { kind, text, line });

    while i < n {
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
        // Line comments (incl. doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comments.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw identifiers, raw strings, byte strings: r#ident, r"…",
        // r#"…"#, b"…", br#"…"#.
        if c == 'r' || c == 'b' {
            let mut j = i;
            let is_byte = b[j] == 'b';
            if is_byte {
                j += 1;
            }
            let has_r = j < n && b[j] == 'r';
            if has_r {
                j += 1;
            }
            let mut hashes = 0usize;
            let mut k = j;
            while k < n && b[k] == '#' {
                hashes += 1;
                k += 1;
            }
            let raw_ident = !is_byte && has_r && hashes == 1 && k < n && is_ident_start(b[k]);
            let raw_str = has_r && k < n && b[k] == '"';
            let byte_str = is_byte && !has_r && hashes == 0 && j < n && b[j] == '"';
            if raw_ident {
                i += 2;
                lex_ident(&b, &mut i, &mut out, line);
                continue;
            }
            if raw_str || byte_str {
                let start_line = line;
                i = (if raw_str { k } else { j }) + 1;
                let mut text = String::new();
                while i < n {
                    if b[i] == '"' {
                        if !raw_str {
                            i += 1;
                            break;
                        }
                        let closing = b[i + 1..].iter().take_while(|&&h| h == '#').count();
                        if closing >= hashes {
                            i += 1 + hashes;
                            break;
                        }
                    }
                    if !raw_str && b[i] == '\\' && i + 1 < n {
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        i += 2;
                        continue;
                    }
                    if b[i] == '\n' {
                        line += 1;
                    }
                    text.push(b[i]);
                    i += 1;
                }
                push(&mut out, TokKind::Str, text, start_line);
                continue;
            }
            // Plain identifier starting with r/b.
            lex_ident(&b, &mut i, &mut out, line);
            continue;
        }
        // Ordinary string literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            let mut text = String::new();
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    text.push(b[i]);
                    text.push(b[i + 1]);
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    text.push(b[i]);
                    i += 1;
                }
            }
            push(&mut out, TokKind::Str, text, start_line);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal '\n', '\u{..}'.
                i += 1;
                let start = i;
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                let text = b[start..i].iter().collect();
                i = (i + 1).min(n);
                push(&mut out, TokKind::Char, text, line);
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                // Plain char literal 'x'.
                push(&mut out, TokKind::Char, b[i + 1].to_string(), line);
                i += 3;
                continue;
            }
            // Lifetime 'a.
            i += 1;
            let start = i;
            while i < n && is_ident_char(b[i]) {
                i += 1;
            }
            push(&mut out, TokKind::Life, b[start..i].iter().collect(), line);
            continue;
        }
        // Numeric literal (suffixes and `.` between digits included).
        if c.is_ascii_digit() {
            let start = i;
            while i < n {
                let d = b[i];
                let cont_dot = d == '.'
                    && i + 1 < n
                    && b[i + 1].is_ascii_digit()
                    && !(i > start && b[i - 1] == '.');
                if d.is_ascii_alphanumeric() || d == '_' || cont_dot {
                    i += 1;
                } else {
                    break;
                }
            }
            push(&mut out, TokKind::Num, b[start..i].iter().collect(), line);
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            lex_ident(&b, &mut i, &mut out, line);
            continue;
        }
        // Punctuation, compound first.
        let text = PUNCTS
            .iter()
            .find(|p| b[i..].iter().take(p.len()).copied().eq(p.chars()))
            .map_or_else(|| c.to_string(), |p| (*p).to_string());
        i += text.chars().count();
        push(&mut out, TokKind::Punct, text, line);
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn lex_ident(b: &[char], i: &mut usize, out: &mut Vec<Tok>, line: usize) {
    let start = *i;
    while *i < b.len() && is_ident_char(b[*i]) {
        *i += 1;
    }
    out.push(Tok {
        kind: TokKind::Ident,
        text: b[start..*i].iter().collect(),
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_compound_punct_and_paths() {
        let toks = kinds("a::b => c..=d");
        assert_eq!(toks[1], (TokKind::Punct, "::".to_string()));
        assert_eq!(toks[3], (TokKind::Punct, "=>".to_string()));
        assert_eq!(toks[5], (TokKind::Punct, "..=".to_string()));
    }

    #[test]
    fn string_tokens_keep_contents() {
        let toks = kinds(r#"counter(Subsystem::Net, "frames_sent")"#);
        assert!(toks.contains(&(TokKind::Str, "frames_sent".to_string())));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let toks = kinds("let s = r##\"inner \"# quote\"##; done");
        assert!(toks.contains(&(TokKind::Str, "inner \"# quote".to_string())));
        assert!(toks.iter().any(|t| t.1 == "done"));
    }

    #[test]
    fn raw_idents_are_idents() {
        let toks = kinds("r#match + r#fn");
        assert_eq!(toks[0], (TokKind::Ident, "match".to_string()));
        assert_eq!(toks[2], (TokKind::Ident, "fn".to_string()));
    }

    #[test]
    fn comments_vanish() {
        let toks = lex("a /* x /* y */ z */ b // c\n/// d\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'h'; }");
        assert!(toks.contains(&(TokKind::Life, "a".to_string())));
        assert!(toks.contains(&(TokKind::Char, "h".to_string())));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let toks = lex("let a = r#\"two\nlines\"#;\nlet b = 1;");
        let b_tok = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn string_escapes_do_not_end_the_literal() {
        let toks = kinds(r#"f("a \" b", 'x', '\n')"#);
        assert!(toks.contains(&(TokKind::Str, "a \\\" b".to_string())));
        assert!(toks.contains(&(TokKind::Char, "x".to_string())));
        assert!(toks.contains(&(TokKind::Char, "\\n".to_string())));
    }
}
