//! The determinism rules and the per-file analysis driver.
//!
//! Every rule is a token-stream heuristic, deliberately file-local: detlint
//! has no type information, so it tracks names bound to floats and the
//! closures handed to the worker pool, then pattern-matches the operations
//! the determinism contract cares about. The heuristics over-approximate —
//! that is the point of a gate — and every benign site is silenced with an
//! explicit `detlint::allow` annotation (rule list, then `: reason`) on or
//! above the offending line, so the justification lives next to the code
//! it excuses.

use crate::lexer::{lex, TokKind};
use crate::spans::{fn_spans, worker_closures, KEYWORDS};
use serde::Serialize;
use std::collections::BTreeSet;

// Rule identifiers. Keep in sync with [`KNOWN_RULES`] and DESIGN.md §9.

/// Float accumulation in vote-tally / metric paths.
pub const RULE_FLOAT_ACCUM: &str = "float-accum";
/// Crate root missing `#![forbid(unsafe_code)]`.
pub const RULE_MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
/// Malformed or unknown `detlint::allow` annotation.
pub const RULE_INVALID_ALLOW: &str = "invalid-allow";
/// Closure passed to `WorkerPool::run`/`run_split` captures an identifier
/// also mutated outside the closure in the same file.
pub const RULE_POOL_SHARED_CAPTURE: &str = "pool-shared-capture";
/// A function with a return type performs an `Ordering::Relaxed` atomic
/// load — an execution-dependent value positioned to flow into output.
pub const RULE_RELAXED_ATOMIC_OUTPUT: &str = "relaxed-atomic-output";
/// `Mutex`/`RefCell`/`Cell` use inside a worker closure outside the pool
/// crate (lock/borrow order is scheduling-dependent).
pub const RULE_INTERIOR_MUT_IN_WORKER: &str = "interior-mut-in-worker";

/// All valid rule names (what `detlint::allow` may reference).
pub const KNOWN_RULES: &[&str] = &[
    RULE_FLOAT_ACCUM,
    RULE_MISSING_FORBID_UNSAFE,
    RULE_INVALID_ALLOW,
    RULE_POOL_SHARED_CAPTURE,
    RULE_RELAXED_ATOMIC_OUTPUT,
    RULE_INTERIOR_MUT_IN_WORKER,
];

/// The shared worker pool's source, exempt from the worker-closure
/// interior-mutability rule: the pool *is* the synchronization layer.
const POOL_SOURCE_SUFFIX: &str = "pool/src/lib.rs";

/// Interior-mutability type names flagged inside worker closures.
const INTERIOR_MUT_TYPES: &[&str] = &["Mutex", "RefCell", "Cell"];

/// Interior-mutability access methods flagged inside worker closures.
const INTERIOR_MUT_METHODS: &[&str] = &["lock", "borrow", "borrow_mut"];

/// Compound/simple assignment operators (mutation sites for the
/// shared-capture rule). `==`, `=>`, `<=`, `>=` lex as distinct tokens.
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
];

/// One diagnostic.
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the hazard.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// Justification from a matching `detlint::allow`, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub allowed: Option<String>,
}

/// True for files that are crate roots (where `#![forbid(unsafe_code)]`
/// must appear).
fn is_crate_root(rel_path: &str) -> bool {
    rel_path.ends_with("src/lib.rs") || rel_path.ends_with("src/main.rs")
}

/// True for paths the float-accumulation rule covers: refinement vote
/// tallies and evaluation metrics.
fn float_rule_applies(rel_path: &str) -> bool {
    rel_path.contains("/refine/") || rel_path.contains("crates/eval/")
}

/// Analyzes one file and returns every finding, allowed ones included, in
/// line, column and rule order. `rel_path` is the workspace-relative path
/// (forward slashes); it scopes the path-dependent rules, so fixture tests
/// can pass a logical path independent of where the fixture lives on disk.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let (toks, allows) = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    // Map each allow annotation to the lines it covers: its own line (for a
    // trailing comment) plus the line of the first token after it (for a
    // comment-above annotation).
    let mut allow_cover = Vec::new();
    for a in &allows {
        let mut covered = BTreeSet::new();
        covered.insert(a.line);
        if let Some(t) = toks.iter().find(|t| t.line > a.line) {
            covered.insert(t.line);
        }
        allow_cover.push((covered, a));
    }

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &str, tok_line: u32, tok_col: u32, message: String| {
        raw.push(Finding {
            rule: rule.to_string(),
            file: rel_path.to_string(),
            line: tok_line,
            col: tok_col,
            message,
            snippet: snippet(tok_line),
            allowed: None,
        });
    };

    // ---- names bound to floats --------------------------------------------
    let mut float_vars: BTreeSet<String> = BTreeSet::new();

    // (a) `name: Type` ascriptions (fields, params, lets, statics).
    for i in 1..toks.len() {
        if !toks[i].is_punct(":") {
            continue;
        }
        let name_tok = &toks[i - 1];
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let mut depth: i32 = 0;
        let mut j = i + 1;
        while j < toks.len() && j - i < 64 {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    ";" | "=" | "{" => break,
                    "," | ")" | "|" if depth <= 0 => break,
                    _ => {}
                }
            }
            if t.is_ident("f32") || t.is_ident("f64") {
                float_vars.insert(name_tok.text.clone());
                break;
            }
            j += 1;
        }
    }

    // (b) `let [mut] name = <float literal>` initializations (`let mut acc
    // = 0.0;`). Pattern bindings (`let (a, b) = ...`) are skipped.
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let k = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.is_ident("mut")));
        if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(k + 1).is_some_and(|t| t.is_punct("="))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.kind == TokKind::Number { float: true })
        {
            float_vars.insert(toks[k].text.clone());
        }
    }

    // ---- rule: float-accum -----------------------------------------------
    if float_rule_applies(rel_path) {
        for i in 0..toks.len() {
            if !(toks[i].is_punct("+=") || toks[i].is_punct("-=")) {
                continue;
            }
            let op = toks[i].text.clone();
            // LHS: the field/variable immediately left of the operator.
            let lhs_is_float = toks
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.kind == TokKind::Ident && float_vars.contains(&t.text));
            // RHS: scan to `;` for float literals or f32/f64 casts.
            let mut rhs_float = false;
            let mut j = i + 1;
            while j < toks.len() && j - i < 32 {
                let t = &toks[j];
                if t.is_punct(";") {
                    break;
                }
                match &t.kind {
                    TokKind::Number { float: true } => rhs_float = true,
                    TokKind::Ident if t.text == "f32" || t.text == "f64" => rhs_float = true,
                    TokKind::Ident if float_vars.contains(&t.text) => rhs_float = true,
                    _ => {}
                }
                j += 1;
            }
            if lhs_is_float || rhs_float {
                push(
                    RULE_FLOAT_ACCUM,
                    toks[i].line,
                    toks[i].col,
                    format!(
                        "float `{op}` accumulation: summation order changes the result; \
                         tally in integers (or fixed-point) and divide once at the end"
                    ),
                );
            }
        }
    }

    // ---- rule: missing-forbid-unsafe --------------------------------------
    if is_crate_root(rel_path) {
        let mut found = false;
        for i in 0..toks.len() {
            if toks[i].is_punct("#")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct("("))
                && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            {
                found = true;
                break;
            }
        }
        if !found {
            push(
                RULE_MISSING_FORBID_UNSAFE,
                1,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`: detlint's safe-code \
                 assumption requires it in every crate root"
                    .to_string(),
            );
        }
    }

    // ---- pool-concurrency rules -------------------------------------------
    let spans = fn_spans(&toks);
    let closures = worker_closures(&toks);
    let last = toks.len().saturating_sub(1);

    // ---- rule: relaxed-atomic-output ---------------------------------------
    // Once per returning function, at its first `load(Ordering::Relaxed)`.
    // Pure accounting reporters are exempt by name: the execution-dependent
    // counter surface is their documented contract.
    for s in &spans {
        if !s.has_return || s.name.contains("stats") || s.name.contains("account") {
            continue;
        }
        for k in s.body.0..=s.body.1.min(last) {
            let t = &toks[k];
            if t.is_ident("load")
                && toks.get(k + 1).is_some_and(|p| p.is_punct("("))
                && toks.get(k + 2).is_some_and(|o| o.is_ident("Ordering"))
                && toks.get(k + 3).is_some_and(|p| p.is_punct("::"))
                && toks.get(k + 4).is_some_and(|r| r.is_ident("Relaxed"))
            {
                push(
                    RULE_RELAXED_ATOMIC_OUTPUT,
                    t.line,
                    t.col,
                    format!(
                        "`{}` declares a return type and reads an `Ordering::Relaxed` \
                         atomic: the value is execution-dependent; keep it out of \
                         deterministic output (or route it through exec-only metrics)",
                        s.name
                    ),
                );
                break;
            }
        }
    }

    // ---- rule: interior-mut-in-worker --------------------------------------
    // Once per worker closure, at the first interior-mutability type or
    // access method. The pool crate itself is the synchronization layer and
    // is exempt.
    if !rel_path.ends_with(POOL_SOURCE_SUFFIX) {
        for c in &closures {
            for k in c.body.0..=c.body.1.min(last) {
                let t = &toks[k];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let type_hit = INTERIOR_MUT_TYPES.contains(&t.text.as_str());
                let method_hit = INTERIOR_MUT_METHODS.contains(&t.text.as_str())
                    && k >= 1
                    && toks[k - 1].is_punct(".")
                    && toks.get(k + 1).is_some_and(|p| p.is_punct("("));
                if type_hit || method_hit {
                    push(
                        RULE_INTERIOR_MUT_IN_WORKER,
                        t.line,
                        t.col,
                        format!(
                            "worker closure passed to `run`/`run_split` uses interior mutability \
                             (`{}`): lock/borrow order is scheduling-dependent; merge \
                             per-worker results after the batch instead",
                            t.text
                        ),
                    );
                    break;
                }
            }
        }
    }

    // ---- rule: pool-shared-capture -----------------------------------------
    // A worker closure capturing an identifier that is also mutated outside
    // the closure in the same file: shared mutable state across the pool
    // boundary, whose final value depends on worker scheduling.
    for c in &closures {
        let in_body = |k: usize| k >= c.body.0 && k <= c.body.1;
        // Names mutated outside the closure: `name =`/`name +=` (prev token
        // not `let`/`mut`/`.`/`:`, so declarations and field stores don't
        // count as mutating the bare name) or `&mut name`.
        let mut mutated: BTreeSet<&str> = BTreeSet::new();
        for m in 0..toks.len() {
            if in_body(m) {
                continue;
            }
            let t = &toks[m];
            if t.kind == TokKind::Ident
                && toks.get(m + 1).is_some_and(|op| {
                    op.kind == TokKind::Punct && ASSIGN_OPS.contains(&op.text.as_str())
                })
            {
                let decl_or_field = m > 0
                    && (toks[m - 1].is_ident("let")
                        || toks[m - 1].is_ident("mut")
                        || toks[m - 1].is_punct(".")
                        || toks[m - 1].is_punct(":"));
                if !decl_or_field {
                    mutated.insert(t.text.as_str());
                }
            }
            if t.is_punct("&")
                && toks.get(m + 1).is_some_and(|x| x.is_ident("mut"))
                && !in_body(m + 2)
            {
                if let Some(x) = toks.get(m + 2).filter(|x| x.kind == TokKind::Ident) {
                    mutated.insert(x.text.as_str());
                }
            }
        }
        // First occurrence of each captured candidate that is mutated
        // outside: lowercase-initial ident, not a keyword, field access,
        // path segment, struct-literal field name / type ascription
        // (followed by `:`), or a name the closure binds itself.
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for k in c.body.0..=c.body.1.min(last) {
            let t = &toks[k];
            if t.kind != TokKind::Ident
                || !t.text.chars().next().is_some_and(char::is_lowercase)
                || KEYWORDS.contains(&t.text.as_str())
                || (k > 0 && toks[k - 1].is_punct("."))
                || toks
                    .get(k + 1)
                    .is_some_and(|p| p.is_punct("::") || p.is_punct(":"))
                || c.locals.contains(&t.text)
                || reported.contains(t.text.as_str())
            {
                continue;
            }
            if mutated.contains(t.text.as_str()) {
                reported.insert(t.text.as_str());
                push(
                    RULE_POOL_SHARED_CAPTURE,
                    t.line,
                    t.col,
                    format!(
                        "worker closure passed to `run`/`run_split` captures `{}`, which is also \
                         mutated outside the closure: shared mutable state across \
                         the pool boundary makes results depend on worker scheduling",
                        t.text
                    ),
                );
            }
        }
    }

    // ---- rule: invalid-allow ----------------------------------------------
    for a in &allows {
        if !a.well_formed || a.reason.is_empty() {
            push(
                RULE_INVALID_ALLOW,
                a.line,
                1,
                "allow annotation must carry a justification: \
                 `detlint::allow(rule): reason`"
                    .to_string(),
            );
        }
        for r in &a.rules {
            if !KNOWN_RULES.contains(&r.as_str()) {
                push(
                    RULE_INVALID_ALLOW,
                    a.line,
                    1,
                    format!("allow annotation names unknown rule `{r}`"),
                );
            }
        }
    }

    // ---- apply allow annotations ------------------------------------------
    let mut findings = raw;
    for f in &mut findings {
        if f.rule == RULE_INVALID_ALLOW {
            continue; // never silenceable
        }
        for (covered, a) in &allow_cover {
            if a.well_formed
                && !a.reason.is_empty()
                && covered.contains(&f.line)
                && a.rules.iter().any(|r| r == &f.rule)
            {
                f.allowed = Some(a.reason.clone());
                break;
            }
        }
    }

    findings
        .sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    findings.dedup_by(|a, b| (a.line, a.col, &a.rule) == (b.line, b.col, &b.rule));
    findings
}
