//! Token spans the pool rules work on: function bodies and worker closures.
//!
//! A worker closure is a closure handed to `WorkerPool::run` or
//! `WorkerPool::run_split`. Like the rules, the finders are token
//! heuristics without type information: any `.run(` or `.run_split(`
//! method call whose arguments hold a closure counts, which
//! over-approximates in the direction a gate wants.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Keywords never treated as function names or capture candidates.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// A function's name, return-type presence and body extent.
#[derive(Clone, Debug)]
pub(crate) struct FnSpan {
    pub name: String,
    pub has_return: bool,
    /// Inclusive token-index extent of the `{ .. }` body.
    pub body: (usize, usize),
}

/// Scans the token stream for `fn name … { … }` definitions. Trait method
/// declarations without bodies are skipped. Nested functions appear as
/// their own spans.
pub(crate) fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Signature: scan to the body `{` at paren depth 0; `->` at depth 0
        // marks a declared return type. (`Fn() -> T` bounds in where-clauses
        // can sit at depth 0 too, which only widens the relaxed-load rule.)
        let mut depth: i32 = 0;
        let mut has_return = false;
        let mut j = i + 2;
        let mut body_open = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "->" if depth == 0 => has_return = true,
                    "{" if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break, // bodyless declaration
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_close(toks, open);
        out.push(FnSpan {
            name: name_tok.text.clone(),
            has_return,
            body: (open, close),
        });
        // Continue *inside* the body so nested fns are found too.
        i = open + 1;
    }
    out
}

/// Index of the bracket closing the `{` or `(` at `open` (or the last
/// token).
fn match_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = if toks[open].is_punct("(") {
        ("(", ")")
    } else {
        ("{", "}")
    };
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// A closure handed to `WorkerPool::run` or `WorkerPool::run_split` — the
/// code whose captures and interior mutability the pool-concurrency rules
/// police.
#[derive(Clone, Debug)]
pub(crate) struct WorkerClosure {
    /// Names the closure binds itself: identifiers in its parameter list
    /// (`|w: usize|` gives both `w` and `usize`) and, in its body, in every
    /// `let` and `for` pattern and nested closure's parameter list.
    /// Over-inclusive; used only to exclude capture candidates.
    pub locals: BTreeSet<String>,
    /// Inclusive token-index extent of the closure body.
    pub body: (usize, usize),
}

/// Finds worker closures: `.run(…)` and `.run_split(…)` method calls whose
/// arguments contain an inline closure, or whose final argument is a bare
/// identifier bound earlier in the file by `let name = |…|` (the
/// `let worker = |w| …; wp.run(.., worker)` shape).
pub(crate) fn worker_closures(toks: &[Tok]) -> Vec<WorkerClosure> {
    let mut out = Vec::new();
    for i in 1..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("run") || t.is_ident("run_split")) {
            continue;
        }
        if !toks[i - 1].is_punct(".") || !toks.get(i + 1).is_some_and(|p| p.is_punct("(")) {
            continue;
        }
        let open = i + 1;
        let close = match_close(toks, open);
        if let Some(c) = inline_closure(toks, open + 1, close) {
            out.push(c);
            continue;
        }
        // Trailing bare-identifier argument: exactly one token between the
        // last `,` (or the opening paren) and the closing paren.
        if close >= 2 && toks[close - 1].kind == TokKind::Ident {
            let before = &toks[close - 2];
            if before.is_punct(",") || close - 2 == open {
                let name = &toks[close - 1].text;
                if let Some(c) = let_closure(toks, name) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Parses an inline `|params| body` closure between `from..to` (exclusive),
/// at the call's top argument level.
fn inline_closure(toks: &[Tok], from: usize, to: usize) -> Option<WorkerClosure> {
    let mut depth = 0i32;
    let mut k = from;
    while k < to {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "||" if depth == 0 => return Some(closure_at(toks, k, k)),
                "|" if depth == 0 => {
                    // Scan the parameter list to the closing `|`.
                    let mut p = k + 1;
                    while p < to && !toks[p].is_punct("|") {
                        p += 1;
                    }
                    return Some(closure_at(toks, k, p));
                }
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Builds a [`WorkerClosure`] whose parameter list spans `params_open ..=
/// params_close` (equal for `||`) and whose body starts right after.
fn closure_at(toks: &[Tok], params_open: usize, params_close: usize) -> WorkerClosure {
    let body_start = params_close + 1;
    let body_end = if toks.get(body_start).is_some_and(|t| t.is_punct("{")) {
        match_close(toks, body_start)
    } else {
        // Expression body: scan to `,` / `)` / `;` at depth 0.
        let mut depth = 0i32;
        let mut k = body_start;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    ")" | ";" if depth == 0 => break,
                    "," if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        k.saturating_sub(1)
    };
    let mut locals: BTreeSet<String> = toks[params_open..=params_close]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let mut k = body_start;
    while k <= body_end {
        let t = &toks[k];
        // Where the binding pattern starts and what ends it at depth 0.
        let end: fn(&Tok) -> bool = if t.is_ident("let") {
            |t| t.is_punct("=") || t.is_punct(";") || t.is_punct(":")
        } else if t.is_ident("for") {
            |t| t.is_ident("in")
        } else if t.is_punct("|") && opens_closure(&toks[k - 1]) {
            |t| t.is_punct("|")
        } else {
            k += 1;
            continue;
        };
        let mut depth = 0i32;
        k += 1;
        while k <= body_end && !(depth == 0 && end(&toks[k])) {
            let p = &toks[k];
            match p.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                name if p.kind == TokKind::Ident && !KEYWORDS.contains(&name) => {
                    locals.insert(p.text.clone());
                }
                _ => {}
            }
            k += 1;
        }
        k += 1;
    }
    WorkerClosure {
        locals,
        body: (body_start, body_end),
    }
}

/// True if a `|` after `prev` opens a closure's parameter list rather than
/// being a bitwise or: an operand (identifier, literal, closing bracket)
/// comes before a binary `|`, and `move` or other punctuation before a
/// closure.
fn opens_closure(prev: &Tok) -> bool {
    match prev.kind {
        TokKind::Punct => !matches!(prev.text.as_str(), ")" | "]" | "}"),
        TokKind::Ident => prev.text == "move",
        _ => false,
    }
}

/// Resolves a bare-identifier argument to a file-local `let name = |…|`
/// closure definition.
fn let_closure(toks: &[Tok], name: &str) -> Option<WorkerClosure> {
    for k in 0..toks.len() {
        if !toks[k].is_ident("let") {
            continue;
        }
        let mut n = k + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        if !toks.get(n).is_some_and(|t| t.is_ident(name)) {
            continue;
        }
        if !toks.get(n + 1).is_some_and(|t| t.is_punct("=")) {
            continue;
        }
        let bar = n + 2;
        if toks.get(bar).is_some_and(|t| t.is_punct("||")) {
            return Some(closure_at(toks, bar, bar));
        }
        if toks.get(bar).is_some_and(|t| t.is_punct("|")) {
            let mut p = bar + 1;
            while p < toks.len() && !toks[p].is_punct("|") {
                p += 1;
            }
            return Some(closure_at(toks, bar, p));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_spans_find_names_and_return_types() {
        let src = "fn a() { b(); }\nfn b() -> u32 { 7 }\nimpl X { fn c(&self) -> bool { true } }";
        let (toks, _) = lex(src);
        let spans = fn_spans(&toks);
        let names: Vec<(&str, bool)> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.has_return))
            .collect();
        assert_eq!(names, vec![("a", false), ("b", true), ("c", true)]);
    }

    #[test]
    fn worker_closures_inline_let_bound_and_run_split() {
        let src = "fn f(wp: &P) {\n\
                   let worker = |w: usize| { w + 1 };\n\
                   wp.run(\"x\", 4, worker);\n\
                   wp.run(\"y\", 8, |i| i * 2);\n\
                   wp.run_split(\"z\", &mut parts, &bounds, |t, part| {\n\
                   let (mut a, b) = (t, 0);\n\
                   for &s in part.iter().filter(|&&v| v > a | b) { a += s; }\n\
                   a | total\n\
                   });\n\
                   }";
        let (toks, _) = lex(src);
        let ws = worker_closures(&toks);
        let locals: Vec<Vec<&str>> = ws
            .iter()
            .map(|c| c.locals.iter().map(String::as_str).collect())
            .collect();
        // Parameters, `let` and `for` patterns and a nested closure's
        // parameters; `|` after an operand is a bitwise or, and `total` is
        // a capture.
        assert_eq!(
            locals,
            vec![
                vec!["usize", "w"],
                vec!["i"],
                vec!["a", "b", "part", "s", "t", "v"],
            ]
        );
    }

    #[test]
    fn non_closure_run_calls_are_not_worker_closures() {
        let src = "fn f(m: &M) { m.run(&Config::default()); server.run(); }";
        let (toks, _) = lex(src);
        assert!(worker_closures(&toks).is_empty());
    }
}
