//! **detlint**: the workspace determinism/ordering static-analysis pass.
//!
//! The pipeline guarantees bit-identical output for every
//! `Config::threads` value, and promises run-to-run
//! reproducibility (same inputs → same annotations, same convergence hash
//! trace). That contract is easy to break silently: one float tally that
//! sums in scheduling order, one worker closure that shares a mutable
//! counter — and outputs start differing across runs, platforms, or thread
//! counts while every test still passes. The dynamic determinism suite
//! (`crates/core/tests/determinism.rs`) samples a tiny corner of the input
//! space; detlint checks the *source* of every code path at CI time.
//!
//! The hazards a type-level ban can name — hash collections and the std
//! hashers, clock reads, thread creation — are banned by clippy's
//! `disallowed_types`/`disallowed_methods` (the root `clippy.toml`), which
//! resolve aliases, re-exports and renamed imports. A sanctioned site
//! carries `#[expect(clippy::disallowed_methods, reason = "…")]`. detlint
//! keeps the rules clippy cannot express (see DESIGN.md §9 for the threat
//! model):
//!
//! | rule | hazard |
//! |------|--------|
//! | `float-accum` | `+=`/`-=` float accumulation under `refine/` and `crates/eval/` |
//! | `missing-forbid-unsafe` | crate root without `#![forbid(unsafe_code)]` |
//! | `invalid-allow` | malformed `detlint::allow` annotation |
//! | `pool-shared-capture` | worker closure (`run`/`run_split`) captures an identifier also mutated outside it |
//! | `relaxed-atomic-output` | returning fn reads an `Ordering::Relaxed` atomic |
//! | `interior-mut-in-worker` | `Mutex`/`RefCell`/`Cell` use inside a worker closure |
//!
//! A benign site is silenced with a justification that lives next to the
//! code — for example `// detlint::allow(float-accum): sequential fold in
//! index order` — on the offending line or the line above. Annotations
//! without a reason, or naming unknown rules, are themselves findings, and
//! `invalid-allow` can never be silenced.
//!
//! detlint is deliberately dependency-light (the workspace vendors its
//! dependency graph and carries no `syn`): a hand-rolled lexer strips
//! comments, strings, and lifetimes, and the rules are file-local
//! token-stream heuristics. They over-approximate; that is what the allow
//! annotation is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
mod spans;

pub use report::{analyze_workspace, collect_rs_files, find_workspace_root, Report, SCHEMA};
pub use rules::{analyze_source, Finding, KNOWN_RULES};
