//! Workspace walking, the analysis driver, and report rendering.
//!
//! The JSON report follows schema [`SCHEMA`] (`bdrmapit.detlint-report/v3`):
//! `{schema, version, files_scanned, findings, allowed}`.

use crate::rules::{analyze_source, Finding};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// The report schema identifier embedded in every JSON report.
pub const SCHEMA: &str = "bdrmapit.detlint-report/v3";

/// Directories never scanned (build output, vendored deps, VCS metadata).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Paths containing this segment hold intentional rule violations for the
/// detlint fixture tests and are excluded from workspace scans.
const FIXTURE_SEGMENT: &str = "detlint/tests/fixtures";

/// The whole-workspace analysis result.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// Report schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Report schema version.
    pub version: u32,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings not covered by an allow annotation (CI fails on any).
    pub findings: Vec<Finding>,
    /// Findings silenced by `detlint::allow` annotations.
    pub allowed: Vec<Finding>,
}

impl Report {
    /// True when the workspace is clean (no unannotated findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The human-readable table form.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.findings.is_empty() {
            out.push_str("determinism hazards (unannotated):\n");
            render_rows(&mut out, &self.findings);
            out.push('\n');
        }
        if !self.allowed.is_empty() {
            out.push_str("allowed (annotated) findings:\n");
            for f in &self.allowed {
                out.push_str(&format!(
                    "  {}:{}:{}  {}  [{}]\n",
                    f.file,
                    f.line,
                    f.col,
                    f.rule,
                    f.allowed.as_deref().unwrap_or("")
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} files scanned; {} finding(s), {} allowed\n",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len()
        ));
        if self.is_clean() {
            out.push_str("workspace is determinism-clean\n");
        }
        out
    }
}

fn render_rows(out: &mut String, findings: &[Finding]) {
    let loc_w = findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.col).len())
        .max()
        .unwrap_or(0);
    let rule_w = findings.iter().map(|f| f.rule.len()).max().unwrap_or(0);
    for f in findings {
        let loc = format!("{}:{}:{}", f.file, f.line, f.col);
        out.push_str(&format!(
            "  {loc:<loc_w$}  {rule:<rule_w$}  {msg}\n      | {snippet}\n",
            rule = f.rule,
            msg = f.message,
            snippet = f.snippet,
        ));
    }
}

/// Recursively collects `.rs` files under `root` in sorted (deterministic)
/// order, skipping build output, vendored code, and the fixture corpus.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if SKIP_DIRS.contains(&name) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if rel.contains(FIXTURE_SEGMENT) {
                    continue;
                }
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Analyzes every `.rs` file under `root` and assembles the report, its
/// findings sorted by file, line, column and rule.
pub fn analyze_workspace(root: &Path) -> Report {
    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    let mut files_scanned = 0;
    for path in collect_rs_files(root) {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        files_scanned += 1;
        for f in analyze_source(&rel_path(root, &path), &src) {
            if f.allowed.is_some() {
                allowed.push(f);
            } else {
                findings.push(f);
            }
        }
    }
    let key = |f: &Finding| (f.file.clone(), f.line, f.col, f.rule.clone());
    findings.sort_by_key(key);
    allowed.sort_by_key(key);
    Report {
        schema: SCHEMA.to_string(),
        version: 3,
        files_scanned,
        findings,
        allowed,
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
