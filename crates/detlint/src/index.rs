//! Phase A of the workspace analysis: the per-file symbol index.
//!
//! From one file's token stream the indexer extracts function definitions
//! (with body extents and return-type presence), call sites (attributed to
//! their innermost enclosing function), worker closures (closures passed to
//! `WorkerPool::run`), and per-function *taint facts* — whether
//! a function binds a hash collection, iterates one, reads the clock, or
//! reads a `Relaxed` atomic. Phase B ([`crate::dataflow`]) joins the
//! per-file indexes into a workspace call graph and propagates order taint
//! across it.
//!
//! Like the rules, the index is a token heuristic without type information:
//! call edges are matched by bare function *name* (the last path segment),
//! which over-approximates — two unrelated `fn parse` definitions share
//! their callers. That is the right direction for a gate: taint can only be
//! over-propagated, never silently dropped, and the allow annotation
//! carries the justification where the over-approximation bites.

use crate::lexer::{Tok, TokKind};
use crate::rules::{Finding, RULE_UNORDERED_COLLECTION, RULE_UNORDERED_ITER};

/// Keywords never treated as function names or capture candidates.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// `Type::now()` clock reads counted as the `reads_clock` taint fact. Kept
/// in sync with the `nondet-source` rule's clock list.
const CLOCK_TYPES: &[&str] = &["SystemTime", "Instant"];

/// One function definition with body extent and taint facts.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Whether the signature declares a return type (`->` at paren depth 0).
    pub has_return: bool,
    /// Inclusive token-index extent of the body `{ .. }`.
    pub body: (usize, usize),
    /// Taint fact: binds a `HashMap`/`HashSet` (or alias) in the body.
    pub binds_hash: bool,
    /// Taint fact: iterates a hash collection in the body (allowed or not —
    /// an allow justifies the *site*; whether order escapes is what the
    /// dataflow pass machine-checks).
    pub iterates_hash: bool,
    /// Taint fact: reads `SystemTime::now()` / `Instant::now()`.
    pub reads_clock: bool,
    /// Taint fact: performs an `Ordering::Relaxed` atomic load.
    pub reads_relaxed: bool,
}

/// One call site, attributed to its innermost enclosing function.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Enclosing function name (`None` at item scope, e.g. const exprs).
    pub caller: Option<String>,
    /// Called bare name (last path segment or method name).
    pub callee: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
    /// Trimmed source line, for report snippets.
    pub snippet: String,
}

/// Everything phase B needs from one file.
#[derive(Clone, Debug, Default)]
pub struct FileIndex {
    /// Workspace-relative file.
    pub file: String,
    /// Function definitions, in source order.
    pub fns: Vec<FnInfo>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
}

/// A function's signature + body extent, before taint facts are attached.
/// Also used directly by the file-local pool rules in [`crate::rules`].
#[derive(Clone, Debug)]
pub(crate) struct FnSpan {
    pub name: String,
    pub line: u32,
    pub col: u32,
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
        // can sit at depth 0 too — over-approximating `has_return` only
        // widens taint propagation, never narrows it.)
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
        let close = match_brace(toks, open);
        out.push(FnSpan {
            name: name_tok.text.clone(),
            line: name_tok.line,
            col: name_tok.col,
            has_return,
            body: (open, close),
        });
        // Continue *inside* the body so nested fns are indexed too.
        i = open + 1;
    }
    out
}

/// Index of the matching `}` for the `{` at `open` (or the last token).
pub(crate) fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// A closure handed to `WorkerPool::run` — the code whose captures and
/// interior mutability the pool-concurrency rules police.
#[derive(Clone, Debug)]
pub(crate) struct WorkerClosure {
    /// Identifiers appearing in the parameter list (`|w: usize|` → both
    /// `w` and `usize`; over-inclusive, used only to exclude candidates).
    pub params: Vec<String>,
    /// Inclusive token-index extent of the closure body.
    pub body: (usize, usize),
}

/// Finds worker closures: `.run(…)` method calls whose arguments contain
/// an inline closure, or whose final argument is a bare identifier bound
/// earlier in the file by `let name = |…|` (the
/// `let worker = |w| …; wp.run(.., worker)` shape).
pub(crate) fn worker_closures(toks: &[Tok]) -> Vec<WorkerClosure> {
    let mut out = Vec::new();
    for i in 1..toks.len() {
        let t = &toks[i];
        if !t.is_ident("run") {
            continue;
        }
        if !toks[i - 1].is_punct(".") || !toks.get(i + 1).is_some_and(|p| p.is_punct("(")) {
            continue;
        }
        let open = i + 1;
        let close = match_paren(toks, open);
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

/// Index of the matching `)` for the `(` at `open` (or the last token).
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
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
    let params: Vec<String> = toks[params_open..=params_close]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let body_start = params_close + 1;
    let body_end = if toks.get(body_start).is_some_and(|t| t.is_punct("{")) {
        match_brace(toks, body_start)
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
    WorkerClosure {
        params,
        body: (body_start, body_end),
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

/// Indexes one file: fn definitions with taint facts, plus call sites.
/// `findings` is the file's rule output (allowed findings included), which
/// supplies the hash-collection facts so the indexer shares the rules'
/// battle-tested detection instead of duplicating it.
pub fn index_file(rel_path: &str, source: &str, toks: &[Tok], findings: &[Finding]) -> FileIndex {
    let spans = fn_spans(toks);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let line_extent =
        |body: (usize, usize)| -> (u32, u32) { (toks[body.0].line, toks[body.1].line) };

    let fns: Vec<FnInfo> = spans
        .iter()
        .map(|s| {
            let (lo, hi) = line_extent(s.body);
            let in_body = |line: u32| line >= lo && line <= hi;
            let binds_hash = findings
                .iter()
                .any(|f| f.rule == RULE_UNORDERED_COLLECTION && in_body(f.line));
            let iterates_hash = findings
                .iter()
                .any(|f| f.rule == RULE_UNORDERED_ITER && in_body(f.line));
            let mut reads_clock = false;
            let mut reads_relaxed = false;
            for k in s.body.0..=s.body.1.min(toks.len() - 1) {
                let t = &toks[k];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if CLOCK_TYPES.contains(&t.text.as_str())
                    && toks.get(k + 1).is_some_and(|p| p.is_punct("::"))
                    && toks.get(k + 2).is_some_and(|m| m.is_ident("now"))
                {
                    reads_clock = true;
                }
                if t.is_ident("Relaxed")
                    && k >= 2
                    && toks[k - 1].is_punct("::")
                    && toks[k - 2].is_ident("Ordering")
                {
                    reads_relaxed = true;
                }
            }
            FnInfo {
                name: s.name.clone(),
                file: rel_path.to_string(),
                line: s.line,
                col: s.col,
                has_return: s.has_return,
                body: s.body,
                binds_hash,
                iterates_hash,
                reads_clock,
                reads_relaxed,
            }
        })
        .collect();

    // Call sites: `name(` that is not a definition, keyword, or type-cased
    // constructor, attributed to the innermost enclosing fn body.
    let mut calls = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|p| p.is_punct("(")) {
            continue;
        }
        if KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue; // definition, not a call
        }
        if t.text.chars().next().is_some_and(char::is_uppercase) {
            continue; // tuple-struct / enum-variant constructor
        }
        let caller = spans
            .iter()
            .filter(|s| s.body.0 < i && i < s.body.1)
            .min_by_key(|s| s.body.1 - s.body.0)
            .map(|s| s.name.clone());
        calls.push(CallSite {
            caller,
            callee: t.text.clone(),
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            snippet: snippet(t.line),
        });
    }

    FileIndex {
        file: rel_path.to_string(),
        fns,
        calls,
    }
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
    fn nested_fns_and_call_attribution() {
        let src = "fn outer() -> u32 {\n    fn inner() -> u32 { leaf() }\n    inner()\n}";
        let (toks, _) = lex(src);
        let idx = index_file("crates/demo/src/x.rs", src, &toks, &[]);
        assert_eq!(idx.fns.len(), 2);
        let by_callee: Vec<(&str, Option<&str>)> = idx
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.caller.as_deref()))
            .collect();
        assert_eq!(
            by_callee,
            vec![("leaf", Some("inner")), ("inner", Some("outer"))]
        );
    }

    #[test]
    fn worker_closures_inline_and_let_bound() {
        let src = "fn f(wp: &P) {\n\
                   let worker = |w: usize| { w + 1 };\n\
                   wp.run(\"x\", 4, worker);\n\
                   wp.run(\"y\", 8, |i| i * 2);\n\
                   }";
        let (toks, _) = lex(src);
        let ws = worker_closures(&toks);
        assert_eq!(ws.len(), 2);
        assert!(ws[0].params.contains(&"w".to_string()));
        assert!(ws[1].params.contains(&"i".to_string()));
    }

    #[test]
    fn non_closure_run_calls_are_not_worker_closures() {
        let src = "fn f(m: &M) { m.run(&Config::default()); server.run(); }";
        let (toks, _) = lex(src);
        assert!(worker_closures(&toks).is_empty());
    }
}
