//! **detlint**: the workspace determinism/ordering static-analysis pass.
//!
//! The pipeline guarantees bit-identical output for every
//! `Config::threads` value, and promises run-to-run
//! reproducibility (same inputs → same annotations, same convergence hash
//! trace). That contract is easy to break silently: one `for` loop over a
//! `HashMap`, one `DefaultHasher`, one stray `thread::spawn`, one float
//! tally that sums in scheduling order — and outputs start differing across
//! runs, platforms, or shard plans while every test still passes. The
//! dynamic determinism suite (`crates/core/tests/determinism.rs`) samples a
//! tiny corner of the input space; detlint checks the *source* of every
//! code path at CI time.
//!
//! The analysis runs in two phases (DESIGN.md §14). **Phase A** lexes and
//! analyzes every file independently — per-file rules plus a symbol index
//! of fn definitions, call sites, and taint facts — dispatched on the
//! shared [`pool::WorkerPool`] (detlint dogfoods the concurrency substrate
//! it polices). **Phase B** joins the indexes into a name-matched call
//! graph and propagates *order taint* to a fixpoint: a fn returning
//! hash-collection iteration order marks every transitive caller, and each
//! implicated call site is reported with its full propagation chain.
//!
//! Per-file rules (see DESIGN.md §9 for the threat model):
//!
//! | rule | hazard |
//! |------|--------|
//! | `unordered-collection` | binding a `HashMap`/`HashSet` (or an alias of one) |
//! | `unordered-iter` | iterating a hash collection (`for`, `.iter()`, `.keys()`, `.values()`, `.drain()`, …) |
//! | `nondet-source` | `DefaultHasher`, `RandomState`, `thread_rng`, `rand::random`, `SystemTime::now`, `Instant::now` |
//! | `unscoped-thread` | `thread::spawn` / `rayon` / `crossbeam` outside `pool/src/lib.rs` |
//! | `float-accum` | `+=`/`-=` float accumulation under `refine/` and `crates/eval/` |
//! | `missing-forbid-unsafe` | crate root without `#![forbid(unsafe_code)]` |
//! | `invalid-allow` | malformed `detlint::allow` annotation |
//! | `pool-shared-capture` | worker closure captures an identifier also mutated outside it |
//! | `relaxed-atomic-output` | returning fn reads an `Ordering::Relaxed` atomic |
//! | `interior-mut-in-worker` | `Mutex`/`RefCell`/`Cell` use inside a worker closure |
//!
//! Cross-file rule (phase B): `order-taint-flow` — a call site receives
//! hash-collection iteration order through the call graph; the finding
//! carries the seed-to-site chain.
//!
//! A benign site is silenced with a justification that lives next to the
//! code — for example `// detlint::allow(unordered-iter): membership test
//! only, order never observed` — on the offending line or the line above.
//! Annotations without a reason, or naming unknown rules, are themselves
//! findings, and `invalid-allow` can never be silenced.
//!
//! detlint is deliberately dependency-light (the workspace vendors its
//! dependency graph and carries no `syn`): a hand-rolled lexer strips
//! comments, strings, and lifetimes, and the rules are token-stream
//! heuristics with file-local name tracking. They over-approximate; that is
//! what the allow annotation is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;

pub use dataflow::TaintSummary;
pub use index::{CallSite, FileIndex, FnInfo};
pub use report::{
    analyze_sources, analyze_workspace, analyze_workspace_with, collect_rs_files,
    find_workspace_root, Report, SCHEMA,
};
pub use rules::{analyze_source, ChainStep, FileAnalysis, Finding, KNOWN_RULES};
