//! Fixture tests: every rule firing (positive), staying quiet (negative),
//! and being silenced by an allow annotation — with exact diagnostic spans.
//!
//! Fixtures live under `tests/fixtures/` (excluded from workspace scans);
//! each is analyzed under a *logical* path so the path-scoped rules
//! (float-accum, the pool's interior-mutability exemption, crate-root
//! detection) can be exercised independently of where the fixture sits on
//! disk. `clippy_bans.rs` is not a detlint fixture: it is the negative
//! control for the clippy bans, built by CI as a crate of its own.

use detlint::analyze_source;
use std::fs;
use std::path::Path;

/// Loads a fixture by file name.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// `(rule, line, col, allowed)` for every finding, in report order.
fn spans(logical_path: &str, name: &str) -> Vec<(String, u32, u32, bool)> {
    analyze_source(logical_path, &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line, f.col, f.allowed.is_some()))
        .collect()
}

fn s(rule: &str, line: u32, col: u32, allowed: bool) -> (String, u32, u32, bool) {
    (rule.to_string(), line, col, allowed)
}

#[test]
fn float_accumulation_fires_in_eval_paths() {
    assert_eq!(
        spans("crates/eval/src/float_positive.rs", "float_positive.rs"),
        vec![
            s("float-accum", 8, 13, false),  // acc += r
            s("float-accum", 11, 14, false), // t.weight += 1.5
        ]
    );
}

#[test]
fn float_allows_above_and_trailing_are_silenced() {
    assert_eq!(
        spans("crates/eval/src/float_allowed.rs", "float_allowed.rs"),
        vec![
            s("float-accum", 5, 13, true), // annotated above
            s("float-accum", 7, 9, true),  // trailing annotation
        ]
    );
}

#[test]
fn float_accumulation_is_scoped_to_refine_and_eval() {
    assert_eq!(
        spans("crates/bgp/src/float_positive.rs", "float_positive.rs"),
        vec![]
    );
}

#[test]
fn crate_root_missing_forbid_fires() {
    assert_eq!(
        spans("crates/demo/src/lib.rs", "forbid_missing.rs"),
        vec![s("missing-forbid-unsafe", 1, 1, false)]
    );
    // The same file is fine when it is not a crate root.
    assert_eq!(
        spans("crates/demo/src/helper.rs", "forbid_missing.rs"),
        vec![]
    );
}

#[test]
fn crate_root_with_forbid_is_clean() {
    assert_eq!(
        spans("crates/demo/src/main.rs", "forbid_present.rs"),
        vec![]
    );
}

#[test]
fn malformed_allows_are_findings() {
    assert_eq!(
        spans("crates/demo/src/invalid_allow.rs", "invalid_allow.rs"),
        vec![
            s("invalid-allow", 2, 1, false), // missing `: reason`
            s("invalid-allow", 4, 1, false), // unknown rule name
        ]
    );
}

#[test]
fn pool_rules_positive_spans() {
    assert_eq!(
        spans("crates/demo/src/pool_rules.rs", "pool_rules.rs"),
        vec![
            s("pool-shared-capture", 10, 9, false), // total += i inside worker
            s("interior-mut-in-worker", 11, 15, false), // cache.lock()
            s("relaxed-atomic-output", 19, 7, false), // counter_value's load
            s("pool-shared-capture", 33, 9, false), // seen += inside run_split
        ]
    );
}

#[test]
fn pool_rules_negative_shapes_are_clean() {
    // stats/account-named reporters, a no-return fn, a never-mutated
    // capture, a closure-local let, and names a worker closure binds in a
    // `for` pattern and a nested closure's parameters: none fire.
    assert_eq!(
        spans("crates/demo/src/lib.rs", "pool_rules_negative.rs"),
        vec![]
    );
}

#[test]
fn pool_crate_is_exempt_from_interior_mut_only() {
    // Under the pool's own path the interior-mutability rule stands down
    // (the pool IS the synchronization layer), but shared captures and
    // relaxed loads in returning fns are still hazards there.
    assert_eq!(
        spans("crates/pool/src/lib.rs", "pool_rules.rs"),
        vec![
            s("missing-forbid-unsafe", 1, 1, false), // fixture has no header
            s("pool-shared-capture", 10, 9, false),
            s("relaxed-atomic-output", 19, 7, false),
            s("pool-shared-capture", 33, 9, false),
        ]
    );
}

#[test]
fn raw_byte_and_c_strings_never_leak_identifier_tokens() {
    // br#"…"#/cr#"…"# contents are literal text: no findings, and no
    // identifier token at all.
    assert_eq!(
        spans("crates/demo/src/rawstr.rs", "rawstr_negative.rs"),
        vec![]
    );
    let (toks, _) = detlint::lexer::lex(&fixture("rawstr_negative.rs"));
    for banned in [
        "thread_rng",
        "DefaultHasher",
        "RandomState",
        "rayon",
        "crossbeam",
    ] {
        assert!(
            !toks
                .iter()
                .any(|t| t.kind == detlint::lexer::TokKind::Ident && t.text == banned),
            "`{banned}` leaked out of a raw string as an identifier token"
        );
    }
}
