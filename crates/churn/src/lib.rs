//! **churn**: streaming topology dynamics with incremental re-probing.
//!
//! The paper maps a static snapshot; real topologies move. This crate
//! models that movement and makes re-mapping cheap without ever trading
//! away the determinism contract:
//!
//! 1. a [`ChurnSchedule`] derives timed topology events — link failures
//!    and recoveries, router additions, prefix reannouncements — from a
//!    seed (see [`schedule`]);
//! 2. the [`driver`] steps the schedule epoch by epoch, re-probing only
//!    the `(vp, dst)` pairs whose measurements depend on a touched AS and
//!    annotating the spliced corpus with one
//!    [`bdrmapit_core::Bdrmapit::run`];
//! 3. every epoch is *proved* byte-identical to a from-scratch recompute —
//!    the driver runs both paths and compares their
//!    `bdrmapit.snapshot/v1` bytes — and the per-epoch cost gap lands in a
//!    `bdrmapit.bench-churn/v1` artifact ([`bench`]).
//!
//! The CLI front end is `bdrmapit pipeline --churn`; see DESIGN.md §16 for
//! the dirty-propagation rules and the determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod driver;
pub mod schedule;

pub use bench::{
    report_delta, BenchChurn, BenchEpoch, ChurnReport, EpochCost, BENCH_SCHEMA, REPORT_SCHEMA,
};
pub use driver::{run_churn, ChurnOptions, ChurnRun, EpochOutcome};
pub use schedule::{ChurnSchedule, GROWTH_EPOCH};
