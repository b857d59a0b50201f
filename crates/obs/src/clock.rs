//! The workspace's single clock abstraction.
//!
//! Determinism policy (DESIGN.md §9) bans clock reads everywhere inference
//! runs: a value derived from the clock differs between runs, so it must
//! never reach an annotation decision. Observability still needs wall times,
//! so this module concentrates the *entire* workspace's clock access into
//! one trait with one sanctioned `Instant::now` call site. Clippy's
//! `disallowed_methods` bans clock reads everywhere else, and the
//! sanctioned-site inventory (`crates/detlint/tests/workspace_clean.rs`)
//! pins this file as the only one whose `#[expect]` covers a clock read.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond source. Implementations must be cheap and
/// thread-safe; the recorder reads it on every span enter/exit.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_nanos(&self) -> u64;
}

/// The real clock: monotonic time since recorder construction.
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose epoch is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the single sanctioned wall-clock read in the workspace; span durations \
                  feed only the write-only RunReport and are excluded from report equality"
    )]
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // `elapsed` reads the clock through the stored epoch; it is not a
        // banned entry point, and `Instant::now` above is the only one.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl fmt::Debug for MonotonicClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonotonicClock").finish_non_exhaustive()
    }
}

/// A manually-advanced clock for tests: deterministic span durations without
/// touching the real clock.
#[derive(Clone, Debug, Default)]
pub struct MockClock {
    nanos: Arc<AtomicU64>,
}

impl MockClock {
    /// A mock clock starting at zero.
    pub fn new() -> MockClock {
        MockClock::default()
    }

    /// Advances the clock by `nanos` nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_advances_exactly() {
        let c = MockClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(1_500);
        assert_eq!(c.now_nanos(), 1_500);
        let shared = c.clone();
        shared.advance(500);
        assert_eq!(c.now_nanos(), 2_000, "clones share the same time source");
    }
}
