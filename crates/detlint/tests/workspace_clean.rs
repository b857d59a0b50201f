//! The acceptance gate as a test: the real workspace must scan clean.
//!
//! CI runs `cargo run -p detlint` as its own job, but keeping the same
//! check inside `cargo test` means a plain test run catches a determinism
//! hazard (or a stale allow annotation) without any extra tooling.

use detlint::lexer::lex;
use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn workspace_has_no_unannotated_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "expected workspace root at {}",
        root.display()
    );
    let report = detlint::analyze_workspace(&root);
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {report:?}"
    );
    assert!(
        report.is_clean(),
        "unannotated determinism findings:\n{}",
        report.to_table()
    );
    // Every allow annotation in the workspace carries its reason through.
    assert!(report
        .allowed
        .iter()
        .all(|f| f.allowed.as_deref().is_some_and(|r| !r.is_empty())));
}

/// The sanctioned-site inventory is a budget, not a convention: this test
/// pins the exact per-rule `detlint::allow` count and the exact per-file
/// count of clippy ban expectations, so a new sanctioned site anywhere in
/// the workspace fails CI until the count here is consciously raised in
/// the same change, where the new site and the new count are read together.
#[test]
fn allow_inventory_does_not_silently_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf();
    let report = detlint::analyze_workspace(&root);

    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &report.allowed {
        *by_rule.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    let expected: BTreeMap<&str, usize> = [
        // eval metric folds in tests.
        ("float-accum", 4),
    ]
    .into_iter()
    .collect();
    assert_eq!(
        by_rule, expected,
        "the detlint allow inventory changed; update this budget deliberately"
    );

    // Clippy's determinism bans are silenced only by `#[expect(…)]`, which
    // fails the build once its site no longer trips the lint; an `allow`
    // (outer, inner or under `cfg_attr`) would outlive the site silently.
    let mut expects: BTreeMap<String, usize> = BTreeMap::new();
    let mut clock_files = Vec::new();
    for path in detlint::collect_rs_files(&root) {
        let src = std::fs::read_to_string(&path).expect("scanned file reads");
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let (toks, _) = lex(&src);
        for k in 0..toks.len() {
            if toks[k].is_ident("Instant") || toks[k].is_ident("SystemTime") {
                let now = toks.get(k + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(k + 2).is_some_and(|t| t.is_ident("now"));
                if now && !clock_files.contains(&rel) {
                    clock_files.push(rel.clone());
                }
            }
            let ban =
                toks[k].is_ident("disallowed_types") || toks[k].is_ident("disallowed_methods");
            if !(ban && k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_ident("clippy")) {
                continue;
            }
            // The lint-level ident whose argument list holds this lint.
            let mut depth = 0;
            let mut open = k - 2;
            while open > 0 && !(depth == 0 && toks[open].is_punct("(")) {
                match toks[open].text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
                open -= 1;
            }
            let outer_expect = open >= 3
                && toks[open - 1].is_ident("expect")
                && toks[open - 2].is_punct("[")
                && toks[open - 3].is_punct("#");
            assert!(
                outer_expect,
                "{rel}:{}: clippy::{} is silenced by something other than #[expect(…)]",
                toks[k].line, toks[k].text
            );
            *expects.entry(rel.clone()).or_insert(0) += 1;
        }
    }
    let expected: BTreeMap<String, usize> = [
        // bench-serve's load clients.
        ("crates/bench/src/bin/bench-serve.rs", 1),
        // obs::MonotonicClock — the workspace's only sanctioned clock read
        // (see the sole-clock assertion below).
        ("crates/obs/src/clock.rs", 1),
        // The shared worker pool, the pipeline's one thread-creation site.
        ("crates/pool/src/lib.rs", 1),
        // serve's request-serving workers and background accept-loop host.
        ("crates/serve/src/server.rs", 2),
        // serve's concurrent-clients end-to-end test.
        ("crates/serve/tests/end_to_end.rs", 1),
    ]
    .into_iter()
    .map(|(f, n)| (f.to_string(), n))
    .collect();
    assert_eq!(
        expects, expected,
        "the clippy ban expectations changed; update this budget deliberately"
    );

    // The single sanctioned clock read is obs's Clock: every other crate
    // must get wall time through that abstraction, never read it directly.
    assert_eq!(
        clock_files,
        vec!["crates/obs/src/clock.rs"],
        "Instant::now and SystemTime::now are only permitted inside obs::MonotonicClock"
    );
}
