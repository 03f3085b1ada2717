//! AST-lite: an item-level parse over the [`crate::lexer`] token stream.
//!
//! This is not a grammar-complete Rust parser. It recovers exactly the
//! structure the rule passes need, by single forward scans with bracket
//! depth tracking:
//!
//! * **test scopes**: token ranges covered by `#[cfg(test)]` /
//!   `#[test]` attributes and the item they decorate (attribute lists
//!   that span lines, stacked attributes, and inline placement all
//!   work);
//! * **fns**: name and body token range, so the schema pass can read the
//!   string literals inside `FaultPlan::names`.
//!
//! Every file is parsed once into a [`ParsedFile`] that all passes share.

use crate::lexer::{self, Tok, TokKind};

/// A `fn` item (free or method; nested fns are recorded too).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token index range of the body, braces included (`lo..hi`).
    /// Empty (`lo == hi`) for bodyless trait declarations.
    pub body: (usize, usize),
    /// Whether the fn sits in test scope.
    pub in_test: bool,
}

/// One fully parsed source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Per-token test-scope flag, parallel to `toks`.
    pub tok_in_test: Vec<bool>,
    /// All `fn` items.
    pub fns: Vec<FnDef>,
}

impl ParsedFile {
    /// True when the token at `idx` is inside a test scope.
    pub fn in_test(&self, idx: usize) -> bool {
        self.tok_in_test.get(idx).copied().unwrap_or(false)
    }
}

/// Parses a whole source file.
pub fn parse(src: &str) -> ParsedFile {
    let toks = lexer::lex(src);
    let tok_in_test = mark_test_scopes(&toks);
    let mut pf = ParsedFile {
        toks,
        tok_in_test,
        fns: Vec::new(),
    };
    let mut i = 0usize;
    while i < pf.toks.len() {
        if pf.toks[i].is_ident("fn") {
            if let Some((def, next)) = parse_fn(&pf, i) {
                pf.fns.push(def);
                // Continue *inside* the body so nested fns are found;
                // only skip the signature.
                i = next;
                continue;
            }
        }
        i += 1;
    }
    pf
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` attributes and the
/// item each decorates (through any stacked attributes in between).
fn mark_test_scopes(toks: &[Tok]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let after = block_end(toks, i + 1);
        if !attr_is_test(&toks[i + 2..after.saturating_sub(1)]) {
            i = after;
            continue;
        }
        // Skip any further stacked attributes.
        let mut j = after;
        while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
            j = block_end(toks, j + 1);
        }
        // The decorated item: to the matching `}` of its first top-level
        // block, or to a `;` (e.g. `#[cfg(test)] mod tests;`).
        let mut depth = 0i64;
        let mut end = j;
        while end < toks.len() {
            let t = &toks[end];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 && t.text == "}" {
                            end += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end += 1;
                        break;
                    }
                    _ => {}
                }
            }
            end += 1;
        }
        for f in flags.iter_mut().take(end.min(toks.len())).skip(attr_start) {
            *f = true;
        }
        i = end;
    }
    flags
}

/// Decides whether attribute content marks test scope: `test`,
/// `cfg(test)`, `cfg(all(test, …))`, but not `cfg(not(test))`.
fn attr_is_test(content: &[Tok]) -> bool {
    let Some(first) = content.first() else {
        return false;
    };
    if first.is_ident("test") {
        return true;
    }
    if first.is_ident("cfg") {
        let has_not = content.iter().any(|t| t.is_ident("not"));
        let has_test = content.iter().any(|t| t.is_ident("test"));
        return has_test && !has_not;
    }
    false
}

/// Index just past the bracket that closes `toks[open]` (a `{`, `(` or
/// `[`), treating the three kinds as one depth so
/// `fn f() { g(&[1, {2}]) }` nests correctly.
pub fn block_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

/// Parses a `fn` item starting at the keyword; returns the def and the
/// index of the body's first token (so nested items are still walked).
fn parse_fn(pf: &ParsedFile, kw: usize) -> Option<(FnDef, usize)> {
    let toks = &pf.toks;
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // Scan past signature/generics/where-clause to `{` or `;` at
    // bracket depth 0 (parens and brackets of the parameter list nest).
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(kw + 2) {
        if t.kind != TokKind::Punct {
            continue;
        }
        let body = match t.text.as_str() {
            "(" | "[" => {
                depth += 1;
                continue;
            }
            ")" | "]" => {
                depth -= 1;
                continue;
            }
            "{" if depth == 0 => (k, block_end(toks, k)),
            ";" if depth == 0 => (k, k),
            _ => continue,
        };
        let def = FnDef {
            name: name.text.clone(),
            body,
            in_test: pf.in_test(kw),
        };
        return Some((def, k + 1));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_fns(src: &str) -> Vec<(String, bool)> {
        parse(src)
            .fns
            .into_iter()
            .map(|f| (f.name, f.in_test))
            .collect()
    }

    #[test]
    fn finds_fns_and_bodies() {
        let pf = parse("fn outer(a: &[u8]) -> u32 { fn inner() {} inner(); 3 }");
        let names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        let outer = &pf.fns[0];
        assert!(outer.body.1 > outer.body.0);
        assert_eq!(pf.toks[outer.body.1 - 1].text, "}");
    }

    #[test]
    fn bodyless_trait_fns_have_empty_bodies() {
        let pf = parse("trait T { fn f(&self); }");
        assert_eq!(pf.fns[0].body.0, pf.fns[0].body.1);
    }

    #[test]
    fn cfg_test_marks_scope() {
        let fns =
            test_fns("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n");
        assert_eq!(
            fns,
            [
                ("lib".to_string(), false),
                ("t".to_string(), true),
                ("lib2".to_string(), false)
            ]
        );
    }

    #[test]
    fn multiline_and_stacked_attributes_mark_test_scope() {
        let fns = test_fns("#[cfg(\n    test\n)]\nmod tests {\n    fn t() {}\n}\n");
        assert!(fns.iter().all(|(_, t)| *t));
        let fns = test_fns("#[test]\n#[allow(dead_code)]\nfn t() { x(); }\nfn lib() {}\n");
        assert_eq!(fns, [("t".to_string(), true), ("lib".to_string(), false)]);
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        assert!(test_fns("#[cfg(not(test))]\nfn lib() {}\n")
            .iter()
            .all(|(_, t)| !*t));
    }

    #[test]
    fn inline_test_attr_marks_only_its_item() {
        let fns = test_fns("#[cfg(test)] mod tests { fn t() {} }\nfn lib() {}\n");
        assert_eq!(fns, [("t".to_string(), true), ("lib".to_string(), false)]);
    }
}
