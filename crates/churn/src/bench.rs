//! Churn artifacts: the `bdrmapit.bench-churn/v1` cost benchmark, the
//! `bdrmapit.churn-report/v1` per-epoch report bundle, and the report-delta
//! arithmetic that carves per-epoch [`RunReport`]s out of one cumulative
//! recorder.

use crate::driver::ChurnRun;
use obs::{HistogramSummary, PhaseStats, RunReport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema identifier of the churn cost benchmark artifact.
pub const BENCH_SCHEMA: &str = "bdrmapit.bench-churn/v1";
/// Schema identifier of the per-epoch report bundle.
pub const REPORT_SCHEMA: &str = "bdrmapit.churn-report/v1";

/// What one epoch cost on one path (incremental or full recompute). The
/// deterministic `work` unit is `probes + shards`: probes executed plus
/// refinement shards converged. Both paths converge every shard, so only
/// `probes` tells them apart.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochCost {
    /// Traceroute probes executed (`(vp, dst)` pairs measured).
    pub probes: u64,
    /// Refinement shards converged (every shard of the epoch's plan).
    pub shards: u64,
    /// Deterministic cost: `probes + shards`.
    pub work: u64,
    /// Wall time of the path, milliseconds (informational; varies by
    /// machine and thread count).
    pub wall_ms: f64,
}

impl EpochCost {
    /// Assembles a cost record; `work` is derived.
    pub fn new(probes: u64, shards: u64, wall_ms: f64) -> EpochCost {
        EpochCost {
            probes,
            shards,
            work: probes + shards,
            wall_ms,
        }
    }
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
    /// Refinement shards converged; equals `total_shards`.
    pub dirty_shards: usize,
    /// Total shards in the epoch's plan.
    pub total_shards: usize,
    /// Incremental-path cost.
    pub incremental: EpochCost,
    /// Full-recompute cost.
    pub full: EpochCost,
    /// Whether the incremental snapshot was byte-identical to the full
    /// recompute's (the driver aborts when false, so this is always true in
    /// a written artifact — kept explicit for the CI schema check).
    pub identical: bool,
}

/// The `bdrmapit.bench-churn/v1` artifact: per-epoch incremental-vs-full
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
    /// Sum of incremental `work` across epochs.
    pub incremental_work_total: u64,
    /// Sum of full-recompute `work` across epochs.
    pub full_work_total: u64,
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
                dirty_shards: e.dirty_shards,
                total_shards: e.total_shards,
                incremental: e.incremental,
                full: e.full,
                identical: true,
            })
            .collect();
        let incremental_work_total = epochs.iter().map(|e| e.incremental.work).sum();
        let full_work_total = epochs.iter().map(|e| e.full.work).sum();
        BenchChurn {
            schema: BENCH_SCHEMA.to_string(),
            scale: scale.to_string(),
            seed,
            threads,
            epochs,
            incremental_work_total,
            full_work_total,
        }
    }

    /// The CI cost gate: every epoch's output byte-identical, every
    /// rib-stable churn epoch strictly cheaper incrementally than the full
    /// recompute, and the run total strictly cheaper overall.
    pub fn gate(&self) -> Result<(), String> {
        for e in &self.epochs {
            if !e.identical {
                return Err(format!(
                    "epoch {}: incremental output diverged from full recompute",
                    e.epoch
                ));
            }
            if e.epoch >= 1 && !e.rib_changed && e.incremental.work >= e.full.work {
                return Err(format!(
                    "epoch {}: incremental work {} is not below full work {}",
                    e.epoch, e.incremental.work, e.full.work
                ));
            }
        }
        if self.incremental_work_total >= self.full_work_total {
            return Err(format!(
                "total incremental work {} is not below total full work {}",
                self.incremental_work_total, self.full_work_total
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
        rec.record(names::HIST_SHARD_ITERATIONS, 2);
        rec.record(names::HIST_SHARD_ITERATIONS, 2);
        let before = rec.report();

        {
            let _s = rec.span(names::PHASE_REFINE);
            clock.advance(2_000_000);
        }
        rec.add(names::REFINE_ITERATIONS, 4);
        rec.record(names::HIST_SHARD_ITERATIONS, 2);
        rec.record(names::HIST_SHARD_ITERATIONS, 7);
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
        let h = &delta.histograms[names::HIST_SHARD_ITERATIONS];
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
        let cheap = EpochCost::new(10, 2, 1.0);
        let dear = EpochCost::new(100, 20, 2.0);
        let row = |epoch: usize, inc: EpochCost, rib: bool| BenchEpoch {
            epoch,
            events: Vec::new(),
            applied: 1,
            skipped: 0,
            rib_changed: rib,
            dirty_pairs: 1,
            total_pairs: 100,
            dirty_shards: 20,
            total_shards: 20,
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
            incremental_work_total: dear.work + cheap.work,
            full_work_total: dear.work * 2,
        };
        assert_eq!(bench.gate(), Ok(()));

        // A rib-changed epoch at full cost is exempt from the per-epoch gate.
        bench.epochs.push(row(2, dear, true));
        bench.incremental_work_total += dear.work;
        bench.full_work_total += dear.work;
        assert_eq!(bench.gate(), Ok(()));

        // A rib-stable epoch at full cost fails it.
        bench.epochs.push(row(3, dear, false));
        bench.incremental_work_total += dear.work;
        bench.full_work_total += dear.work;
        assert!(bench.gate().unwrap_err().contains("epoch 3"));
    }
}
