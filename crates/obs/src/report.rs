//! The machine-readable run report.
//!
//! A [`RunReport`] is the JSON artifact a CLI run leaves behind
//! (`--report <path>`): per-phase wall times, the deterministic counter and
//! histogram sets, and the execution-dependent metrics. Wall times and
//! execution-dependent metrics are *excluded* from
//! [`RunReport::deterministic_view`] — they legitimately vary between runs
//! and thread counts — so determinism tests compare exactly the part of the
//! report the contract covers (see DESIGN.md §10).

use crate::metrics::{Histogram, MetricSheet};
use crate::names;
use crate::recorder::PhaseAgg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The report schema identifier; bump on any breaking shape change.
pub const SCHEMA: &str = "bdrmapit.run-report/v1";

/// Wall-time statistics for one phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Times the phase span was entered.
    pub count: u64,
    /// Total wall time across entries, in milliseconds.
    pub wall_ms: f64,
}

/// Summary of one histogram, with the exact sample map preserved.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Exact `value → occurrences` map.
    pub values: BTreeMap<u64, u64>,
}

impl HistogramSummary {
    fn of(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            values: h.values().clone(),
        }
    }
}

/// The complete run report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Per-phase wall-time statistics, keyed by span name.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Deterministic counters: identical for every thread count.
    pub counters: BTreeMap<String, u64>,
    /// Execution-dependent counters (pool tasks, worker slots).
    pub exec: BTreeMap<String, u64>,
    /// Deterministic histograms.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// The thread-count-invariant slice of a report: what determinism tests
/// compare. Phases (wall time) and `exec` metrics are deliberately absent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterministicMetrics {
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic histograms.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl RunReport {
    /// An empty report (what a disabled recorder snapshots to).
    pub fn empty() -> RunReport {
        RunReport {
            schema: SCHEMA.to_string(),
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            exec: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    pub(crate) fn from_parts(
        sheet: &MetricSheet,
        phases: &BTreeMap<&'static str, PhaseAgg>,
    ) -> RunReport {
        RunReport {
            schema: SCHEMA.to_string(),
            phases: phases
                .iter()
                .map(|(&name, agg)| {
                    (
                        name.to_string(),
                        PhaseStats {
                            count: agg.count,
                            wall_ms: agg.wall_nanos as f64 / 1e6,
                        },
                    )
                })
                .collect(),
            counters: sheet
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            exec: sheet
                .exec
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: sheet
                .hists
                .iter()
                .map(|(&k, h)| (k.to_string(), HistogramSummary::of(h)))
                .collect(),
        }
    }

    /// The deterministic slice (counters + histograms; no wall times, no
    /// execution-dependent metrics).
    pub fn deterministic_view(&self) -> DeterministicMetrics {
        DeterministicMetrics {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Checks that the report describes a complete pipeline run: every
    /// mandatory phase present and at least one refinement iteration.
    pub fn validate(&self) -> Result<(), String> {
        let missing: Vec<&str> = names::MANDATORY_PHASES
            .iter()
            .copied()
            .filter(|p| !self.phases.contains_key(*p))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "run report is missing mandatory phase(s): {}",
                missing.join(", ")
            ));
        }
        let iterations = self
            .counters
            .get(names::REFINE_ITERATIONS)
            .copied()
            .unwrap_or(0);
        if iterations == 0 {
            return Err("run report shows zero refinement iterations".to_string());
        }
        Ok(())
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report serializes")
    }

    /// Parses a report back from JSON.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::Recorder;

    /// A histogram fixture: no pipeline phase records one.
    const HIST: &str = "h";

    fn complete_report() -> RunReport {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        for phase in names::MANDATORY_PHASES {
            let _s = rec.span(phase);
            clock.advance(1_000_000);
        }
        rec.add(names::REFINE_ITERATIONS, 3);
        rec.record(HIST, 2);
        rec.add_exec(names::EXEC_POOL_STEALS, 99);
        rec.report()
    }

    #[test]
    fn json_roundtrip_is_lossless_and_schema_stable() {
        let report = complete_report();
        assert_eq!(report.schema, SCHEMA);
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Shape the CI gate greps for.
        assert!(json.contains("\"phase3.refine\""));
        assert!(json.contains("\"refine.iterations\""));
    }

    #[test]
    fn validate_accepts_complete_runs() {
        assert_eq!(complete_report().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_phases_and_zero_iterations() {
        let rec = Recorder::with_clock(false, Box::new(MockClock::new()));
        rec.add(names::REFINE_ITERATIONS, 3);
        let err = rec.report().validate().unwrap_err();
        assert!(err.contains("missing mandatory phase"), "{err}");
        assert!(err.contains(names::PHASE_TOPO), "{err}");

        let mut report = complete_report();
        report.counters.insert(names::REFINE_ITERATIONS.into(), 0);
        let err = report.validate().unwrap_err();
        assert!(err.contains("zero refinement iterations"), "{err}");
    }

    #[test]
    fn deterministic_view_excludes_wall_times_and_exec() {
        let a = complete_report();
        // A second run with different wall times and steal counts...
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        for phase in names::MANDATORY_PHASES {
            let _s = rec.span(phase);
            clock.advance(42_000_000); // very different timings
        }
        rec.add(names::REFINE_ITERATIONS, 3);
        rec.record(HIST, 2);
        rec.add_exec(names::EXEC_POOL_STEALS, 1); // very different steal counts
        let b = rec.report();
        // ...differs as a whole report but not in the deterministic view.
        assert_ne!(a, b);
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}
