//! The acceptance gate as a test: the real workspace must scan clean.
//!
//! CI runs `cargo run -p detlint` as its own job, but keeping the same
//! check inside `cargo test` means a plain test run catches a determinism
//! hazard (or a stale allow annotation) without any extra tooling.

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

/// The allow inventory is a budget, not a convention: this test pins the
/// exact per-rule allowance so a new `detlint::allow` anywhere in the
/// workspace fails CI until the count here is consciously raised in the
/// same change (and the reviewer sees both).
#[test]
fn allow_inventory_does_not_silently_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf();
    let report = detlint::analyze_workspace(&root);

    let mut by_rule: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &report.allowed {
        *by_rule.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    let expected: std::collections::BTreeMap<&str, usize> = [
        // No `unordered-collection` allow remains: the snapshot's lookups
        // binary-search its sorted sections.
        // eval metric folds in tests.
        ("float-accum", 4),
        // serve's request-serving worker pool + background accept-loop
        // host, serve's concurrent-clients e2e test, and bench-serve load
        // clients. The campaign and graph-build allowances are retired:
        // both phases now dispatch on the shared pool crate, the single
        // thread-exempt file.
        ("unscoped-thread", 4),
        // obs::MonotonicClock — the workspace's only sanctioned wall-clock
        // read (see the sole-clock assertion below).
        ("nondet-source", 1),
        // No `relaxed-atomic-output` allow remains: the pool's workers hand
        // their busy time back through their join handles, so `run` reads
        // no Relaxed atomic.
    ]
    .into_iter()
    .collect();
    assert_eq!(
        by_rule, expected,
        "the detlint allow inventory changed; update this budget deliberately"
    );

    // The single nondet-source allowance is obs's Clock: every other crate
    // must get wall time through that abstraction, never read it directly.
    let clock_allows: Vec<&str> = report
        .allowed
        .iter()
        .filter(|f| f.rule == "nondet-source")
        .map(|f| f.file.as_str())
        .collect();
    assert_eq!(
        clock_allows,
        vec!["crates/obs/src/clock.rs"],
        "Instant::now is only permitted inside obs::MonotonicClock"
    );
}
