//! Live server metrics: uptime and per-verb request counts/latency.
//!
//! A [`ServeMetrics`] is owned by the [`Server`](crate::Server) and filled
//! into `stats` responses, so a running service can be interrogated over
//! its own protocol: `{"cmd":"stats"}` answers with snapshot section counts
//! *plus* `uptime_ms` and a per-verb table of request counts and latency
//! percentiles. Everything here is execution-dependent by construction
//! (traffic-driven), so nothing feeds the deterministic counter class; the
//! wall clock is read only through the [`obs::Clock`] trait, keeping the
//! workspace's single-clock-read discipline intact.

use crate::protocol::{StatsJson, VerbStatsJson};
use obs::{Clock, Histogram, MonotonicClock};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-verb accumulator: request count plus an exact-value latency
/// histogram in microseconds (latencies are small integers at µs
/// resolution, so the exact histogram stays compact).
#[derive(Default)]
struct VerbAgg {
    requests: u64,
    latency_us: Histogram,
}

/// Aggregated live-server metrics, shared across serve workers.
pub struct ServeMetrics {
    clock: Arc<dyn Clock>,
    start_nanos: u64,
    verbs: Mutex<BTreeMap<&'static str, VerbAgg>>,
}

impl ServeMetrics {
    /// Metrics on the real monotonic clock, with uptime starting now.
    pub fn new() -> ServeMetrics {
        ServeMetrics::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Metrics on an explicit clock (tests use [`obs::MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> ServeMetrics {
        let start_nanos = clock.now_nanos();
        ServeMetrics {
            clock,
            start_nanos,
            verbs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Timestamps the start of a request; pass the returned value to
    /// [`ServeMetrics::observe`] once the response has been produced.
    pub fn begin(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Records one completed request for `verb` (a canonical name from
    /// [`obs::names::serve_verb`]), started at `start_nanos`.
    pub fn observe(&self, verb: &'static str, start_nanos: u64) {
        let us = self.clock.now_nanos().saturating_sub(start_nanos) / 1_000;
        let mut verbs = self.verbs.lock().expect("serve metrics lock");
        let agg = verbs.entry(verb).or_default();
        agg.requests = agg.requests.saturating_add(1);
        agg.latency_us.record(us);
    }

    /// Milliseconds since the metrics (and, in practice, the server) came
    /// up.
    pub fn uptime_ms(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start_nanos) / 1_000_000
    }

    /// Fills the live sections of a `stats` response: uptime and the
    /// per-verb request/latency table.
    pub fn fill(&self, stats: &mut StatsJson) {
        stats.uptime_ms = Some(self.uptime_ms());
        let verbs = self.verbs.lock().expect("serve metrics lock");
        stats.verbs = Some(
            verbs
                .iter()
                .map(|(&verb, agg)| {
                    (
                        verb.to_string(),
                        VerbStatsJson {
                            requests: agg.requests,
                            p50_us: agg.latency_us.percentile(0.5).unwrap_or(0),
                            p99_us: agg.latency_us.percentile(0.99).unwrap_or(0),
                        },
                    )
                })
                .collect(),
        );
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::MockClock;

    #[test]
    fn uptime_and_latency_come_from_the_clock() {
        let clock = MockClock::new();
        let m = ServeMetrics::with_clock(Arc::new(clock.clone()));
        clock.advance(5_000_000); // 5 ms of idle uptime
        for us in [250u64, 500, 750] {
            let t0 = m.begin();
            clock.advance(us * 1_000);
            m.observe("stats", t0);
        }

        let mut stats = StatsJson::default();
        m.fill(&mut stats);
        assert_eq!(stats.uptime_ms, Some(6));
        let verbs = stats.verbs.unwrap();
        let s = &verbs["stats"];
        assert_eq!(s.requests, 3);
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p99_us, 750);
    }

    #[test]
    fn verbs_absent_until_observed() {
        let m = ServeMetrics::with_clock(Arc::new(MockClock::new()));
        let mut stats = StatsJson::default();
        m.fill(&mut stats);
        assert_eq!(stats.verbs, Some(BTreeMap::new()));
        m.observe("router", m.begin());
        m.fill(&mut stats);
        assert_eq!(stats.verbs.unwrap()["router"].requests, 1);
    }
}
