//! **obs**: the pipeline's observability layer.
//!
//! Every phase of the pipeline (topology generation → traceroute simulation
//! → alias resolution → graph construction → refinement) reports what it did
//! through this crate: phase-scoped wall-time [`Span`]s, typed counters and
//! histograms ([`MetricSheet`]), and a machine-readable [`RunReport`]
//! serialized to JSON at the end of a CLI run.
//!
//! The design contract — enforced by the determinism suite and by clippy's
//! clock ban — is that telemetry is **strictly write-only with respect to
//! inference**:
//!
//! * no annotation decision ever reads a metric, a span, or the clock;
//! * a disabled [`Recorder`] (the default) makes every call a no-op, so
//!   results are bit-identical with observability on, off, or partially on;
//! * parallel refinement workers record into worker-local [`MetricSheet`]s
//!   that are merged in deterministic worker order, so the *counter* values
//!   (not just the convergence hashes) are identical for every thread count;
//! * the only wall-clock read in the workspace lives in
//!   [`clock::MonotonicClock`], behind the mockable [`Clock`] trait, under a
//!   single justified `#[expect(clippy::disallowed_methods)]` — wall times
//!   feed only the report, and are excluded from report equality (see
//!   [`RunReport::deterministic_view`]).
//!
//! The same contract covers the event-tracing layer ([`trace`]): per-worker
//! ring buffers of typed timestamped events, merged in deterministic worker
//! order and exported as a Chrome trace-event document (`--trace-out`).
//!
//! See DESIGN.md §10 for the span taxonomy and counter naming scheme, and
//! §15 for the event taxonomy and trace schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod names;
mod recorder;
pub mod report;
pub mod trace;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use metrics::{Histogram, MetricSheet};
pub use recorder::{Recorder, Span};
pub use report::{DeterministicMetrics, HistogramSummary, PhaseStats, RunReport};
pub use trace::{TraceBuffer, TraceEvent, Tracer, WorkerTracer};
