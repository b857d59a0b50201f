//! Churn artifacts: the `bdrmapit.bench-churn/v2` cost benchmark, the
//! `bdrmapit.churn-report/v1` per-epoch report bundle, and the report-delta
//! arithmetic that carves per-epoch [`RunReport`]s out of one cumulative
//! recorder.

use crate::driver::ChurnRun;
use obs::{HistogramSummary, PhaseStats, RunReport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema identifier of the churn cost benchmark artifact.
pub const BENCH_SCHEMA: &str = "bdrmapit.bench-churn/v2";
/// Schema identifier of the per-epoch report bundle.
pub const REPORT_SCHEMA: &str = "bdrmapit.churn-report/v1";

/// What one epoch cost on one path (incremental or full recompute). Both
/// paths run phases 1–3 on the same corpus, so the deterministic cost that
/// tells them apart is `probes`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochCost {
    /// Traceroute probes executed (`(vp, dst)` pairs measured).
    pub probes: u64,
    /// Wall time of the path, milliseconds (informational; varies by
    /// machine and thread count).
    pub wall_ms: f64,
}

/// One epoch's row in the benchmark artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEpoch {
    /// Epoch index (0 = baseline, no events).
    pub epoch: usize,
    /// Human-readable event descriptions (applied or skipped).
    pub events: Vec<String>,
    /// Events actually applied.
    pub applied: usize,
    /// Events refused at apply time.
    pub skipped: usize,
    /// Whether interdomain routing changed (forces a full re-probe).
    pub rib_changed: bool,
    /// `(vp, dst)` pairs re-probed.
    pub dirty_pairs: usize,
    /// Total pairs in the epoch's probe matrix.
    pub total_pairs: usize,
    /// Incremental-path cost.
    pub incremental: EpochCost,
    /// Full-recompute cost.
    pub full: EpochCost,
    /// Whether the incremental snapshot was byte-identical to the full
    /// recompute's (the driver aborts when false, so this is always true in
    /// a written artifact — kept explicit for the CI schema check).
    pub identical: bool,
}

/// The `bdrmapit.bench-churn/v2` artifact: per-epoch incremental-vs-full
/// cost for one churn run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchChurn {
    /// Schema identifier ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Topology scale label (`tiny` / `small` / ...).
    pub scale: String,
    /// Topology + schedule seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Per-epoch rows, baseline first.
    pub epochs: Vec<BenchEpoch>,
    /// Sum of incremental `probes` across epochs.
    pub incremental_probes_total: u64,
    /// Sum of full-recompute `probes` across epochs.
    pub full_probes_total: u64,
}

impl BenchChurn {
    /// Builds the artifact from a completed run.
    pub fn from_run(run: &ChurnRun, scale: &str, seed: u64, threads: usize) -> BenchChurn {
        let epochs: Vec<BenchEpoch> = run
            .epochs
            .iter()
            .map(|e| BenchEpoch {
                epoch: e.epoch,
                events: e.events.clone(),
                applied: e.applied,
                skipped: e.skipped,
                rib_changed: e.rib_changed,
                dirty_pairs: e.dirty_pairs,
                total_pairs: e.total_pairs,
                incremental: e.incremental,
                full: e.full,
                identical: true,
            })
            .collect();
        let incremental_probes_total = epochs.iter().map(|e| e.incremental.probes).sum();
        let full_probes_total = epochs.iter().map(|e| e.full.probes).sum();
        BenchChurn {
            schema: BENCH_SCHEMA.to_string(),
            scale: scale.to_string(),
            seed,
            threads,
            epochs,
            incremental_probes_total,
            full_probes_total,
        }
    }

    /// The CI cost gate: every epoch's output byte-identical, every
    /// rib-stable churn epoch probing strictly less incrementally than the
    /// full recompute, and the run total strictly less overall.
    pub fn gate(&self) -> Result<(), String> {
        for e in &self.epochs {
            if !e.identical {
                return Err(format!(
                    "epoch {}: incremental output diverged from full recompute",
                    e.epoch
                ));
            }
            if e.epoch >= 1 && !e.rib_changed && e.incremental.probes >= e.full.probes {
                return Err(format!(
                    "epoch {}: incremental probes {} are not below full probes {}",
                    e.epoch, e.incremental.probes, e.full.probes
                ));
            }
        }
        if self.incremental_probes_total >= self.full_probes_total {
            return Err(format!(
                "total incremental probes {} are not below total full probes {}",
                self.incremental_probes_total, self.full_probes_total
            ));
        }
        Ok(())
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench-churn serializes")
    }

    /// Parses the artifact back from JSON.
    pub fn from_json(text: &str) -> Result<BenchChurn, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// The `bdrmapit.churn-report/v1` bundle: one [`RunReport`] per epoch,
/// baseline first. `report diff A B --epoch X[:Y]` selects epochs out of
/// these.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Schema identifier ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Per-epoch reports, index = epoch number.
    pub epochs: Vec<RunReport>,
}

impl ChurnReport {
    /// Collects the per-epoch reports of a completed run.
    pub fn from_run(run: &ChurnRun) -> ChurnReport {
        ChurnReport {
            schema: REPORT_SCHEMA.to_string(),
            epochs: run.epochs.iter().map(|e| e.report.clone()).collect(),
        }
    }

    /// The report for epoch `i`, or a descriptive error.
    pub fn epoch(&self, i: usize) -> Result<&RunReport, String> {
        self.epochs
            .get(i)
            .ok_or_else(|| format!("epoch {i} out of range (report has {})", self.epochs.len()))
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("churn report serializes")
    }

    /// Parses the bundle back from JSON; `Err` includes schema mismatches.
    pub fn from_json(text: &str) -> Result<ChurnReport, String> {
        let report: ChurnReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if report.schema != REPORT_SCHEMA {
            return Err(format!(
                "expected schema {REPORT_SCHEMA}, found {}",
                report.schema
            ));
        }
        Ok(report)
    }
}

/// The per-epoch slice of a cumulative recorder: `after − before`,
/// field by field. Counters and exec counters subtract per key (zero deltas
/// are dropped), phases subtract entry counts and wall times, and histogram
/// deltas subtract the exact `value → occurrences` maps, recomputing
/// `count`/`sum`/`min`/`max` from what remains. Snapshotting the recorder
/// around each epoch and subtracting is what lets every epoch run under
/// *one* session recorder (so `--trace-out` sees all epochs) while still
/// producing standalone per-epoch reports.
pub fn report_delta(before: &RunReport, after: &RunReport) -> RunReport {
    let sub_counters = |a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>| {
        b.iter()
            .filter_map(|(k, &vb)| {
                let d = vb.saturating_sub(a.get(k).copied().unwrap_or(0));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect::<BTreeMap<String, u64>>()
    };
    let phases = after
        .phases
        .iter()
        .filter_map(|(k, pb)| {
            let pa = before.phases.get(k);
            let count = pb.count.saturating_sub(pa.map_or(0, |p| p.count));
            let wall_ms = pb.wall_ms - pa.map_or(0.0, |p| p.wall_ms);
            (count > 0).then(|| (k.clone(), PhaseStats { count, wall_ms }))
        })
        .collect();
    let histograms = after
        .histograms
        .iter()
        .filter_map(|(k, hb)| {
            let empty = BTreeMap::new();
            let base = before.histograms.get(k).map_or(&empty, |h| &h.values);
            let values: BTreeMap<u64, u64> = hb
                .values
                .iter()
                .filter_map(|(&v, &n)| {
                    let d = n.saturating_sub(base.get(&v).copied().unwrap_or(0));
                    (d > 0).then_some((v, d))
                })
                .collect();
            if values.is_empty() {
                return None;
            }
            let count = values.values().sum();
            let sum = values.iter().map(|(&v, &n)| v * n).sum();
            let min = *values.keys().next().expect("nonempty");
            let max = *values.keys().next_back().expect("nonempty");
            Some((
                k.clone(),
                HistogramSummary {
                    count,
                    sum,
                    min,
                    max,
                    values,
                },
            ))
        })
        .collect();
    RunReport {
        schema: after.schema.clone(),
        phases,
        counters: sub_counters(&before.counters, &after.counters),
        exec: sub_counters(&before.exec, &after.exec),
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{names, MockClock, Recorder};

    /// A histogram fixture: no pipeline phase records one.
    const HIST: &str = "h";

    #[test]
    fn report_delta_subtracts_every_section() {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        {
            let _s = rec.span(names::PHASE_REFINE);
            clock.advance(1_000_000);
        }
        rec.add(names::REFINE_ITERATIONS, 3);
        rec.add_exec(names::EXEC_POOL_STEALS, 5);
        rec.record(HIST, 2);
        rec.record(HIST, 2);
        let before = rec.report();

        {
            let _s = rec.span(names::PHASE_REFINE);
            clock.advance(2_000_000);
        }
        rec.add(names::REFINE_ITERATIONS, 4);
        rec.record(HIST, 2);
        rec.record(HIST, 7);
        let after = rec.report();

        let delta = report_delta(&before, &after);
        assert_eq!(delta.counters[names::REFINE_ITERATIONS], 4);
        assert!(
            !delta.exec.contains_key(names::EXEC_POOL_STEALS),
            "unchanged exec counter must drop out"
        );
        let p = &delta.phases[names::PHASE_REFINE];
        assert_eq!(p.count, 1);
        assert!((p.wall_ms - 2.0).abs() < 1e-9, "{}", p.wall_ms);
        let h = &delta.histograms[HIST];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 7);
        assert_eq!(h.values[&2], 1);
        assert_eq!(h.values[&7], 1);
    }

    #[test]
    fn report_delta_of_identical_reports_is_empty() {
        let rec = Recorder::with_clock(false, Box::new(MockClock::new()));
        rec.add(names::REFINE_ITERATIONS, 3);
        let r = rec.report();
        let delta = report_delta(&r, &r);
        assert!(delta.counters.is_empty());
        assert!(delta.phases.is_empty());
        assert!(delta.histograms.is_empty());
    }

    #[test]
    fn churn_report_round_trips_and_checks_schema() {
        let report = ChurnReport {
            schema: REPORT_SCHEMA.to_string(),
            epochs: vec![RunReport::empty(), RunReport::empty()],
        };
        let back = ChurnReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(back.epoch(1).is_ok());
        assert!(back.epoch(2).is_err());
        let bogus = report.to_json().replace(REPORT_SCHEMA, "bogus/v0");
        assert!(ChurnReport::from_json(&bogus).is_err());
    }

    #[test]
    fn gate_rejects_costlier_incremental_epochs() {
        let cheap = EpochCost {
            probes: 10,
            wall_ms: 1.0,
        };
        let dear = EpochCost {
            probes: 100,
            wall_ms: 2.0,
        };
        let row = |epoch: usize, inc: EpochCost, rib: bool| BenchEpoch {
            epoch,
            events: Vec::new(),
            applied: 1,
            skipped: 0,
            rib_changed: rib,
            dirty_pairs: 1,
            total_pairs: 100,
            incremental: inc,
            full: dear,
            identical: true,
        };
        let mut bench = BenchChurn {
            schema: BENCH_SCHEMA.to_string(),
            scale: "tiny".into(),
            seed: 1,
            threads: 1,
            epochs: vec![row(0, dear, false), row(1, cheap, false)],
            incremental_probes_total: dear.probes + cheap.probes,
            full_probes_total: dear.probes * 2,
        };
        assert_eq!(bench.gate(), Ok(()));

        // A rib-changed epoch at full cost is exempt from the per-epoch gate.
        bench.epochs.push(row(2, dear, true));
        bench.incremental_probes_total += dear.probes;
        bench.full_probes_total += dear.probes;
        assert_eq!(bench.gate(), Ok(()));

        // A rib-stable epoch at full cost fails it.
        bench.epochs.push(row(3, dear, false));
        bench.incremental_probes_total += dear.probes;
        bench.full_probes_total += dear.probes;
        assert!(bench.gate().unwrap_err().contains("epoch 3"));
    }
}
