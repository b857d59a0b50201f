//! `compare BASE_DIR NEW_DIR`: per (workload, metric) medians, quartiles
//! and a verdict under the bounds `BENCHMARK.json` declares.
//!
//! The rules are the ones a claimed gain or a regression is judged by,
//! applied in this order:
//!
//! * **improved** — every new run beats every base run;
//! * **regressed** — the new median is worse by more than the bound,
//!   however wide the spread; for a metric that is exact per seed
//!   ([`EXACT_PER_SEED`]), also any seed-paired run that reads worse;
//! * **unresolved** — either side's spread (IQR over median) exceeds the
//!   bound, so a change within the bound cannot be told from noise;
//! * **improved** — the new median is better, the new side wins at least 9
//!   of 10 seed-paired runs (ties count for neither), and the medians
//!   differ by more than the base side's interquartile range;
//! * **unchanged** — otherwise.
//!
//! Runs pair up by seed; sets measured on different seeds have no pairs, so
//! only the first two rules can call them improved or regressed.
//! Per-layer metrics carry no bound: they get medians and quartiles only.
//! The process fails on any regression, or when the new side's error rate
//! (failed over attempted operations) is higher.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// One metric value of a record.
#[derive(Clone, Debug, Deserialize)]
pub struct Value {
    /// Measured value.
    pub value: f64,
}

/// One run, as `--out` writes it.
#[derive(Clone, Debug, Deserialize)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Value>,
}

/// Reads every `*.json` record in `dir`, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// A verdict on one end-to-end metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the win-rate and gap rules.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile range over the median.
    pub fn spread(&self) -> f64 {
        share(self.q3 - self.q1, self.median)
    }
}

fn share(delta: f64, base: f64) -> f64 {
    if base != 0.0 {
        delta / base.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`error_rate` is computed from the records' counts).
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base side.
    pub base: Summary,
    /// New side.
    pub new: Summary,
    /// End-to-end metrics and `error_rate` only.
    pub verdict: Option<Verdict>,
}

/// End-to-end metrics that a run's seed fixes exactly: the outputs are
/// deterministic, so two runs of one seed read the same unless the program's
/// answers changed. Their declared bound is for medians across different
/// seeds; between seed-paired runs any loss is a regression.
pub const EXACT_PER_SEED: [&str; 1] = ["accuracy"];

/// Judges one end-to-end metric. `pairs` holds the `(base, new)` values of
/// the seeds both sides ran.
pub fn verdict(spec: &MetricSpec, base: &[f64], new: &[f64], pairs: &[(f64, f64)]) -> Verdict {
    let lower = spec.lower_is_better();
    let better = |a: f64, b: f64| if lower { a < b } else { a > b };
    let bound = spec.bound.unwrap_or(0.0);
    let (b, n) = (Summary::of(base), Summary::of(new));
    if new.iter().all(|&x| base.iter().all(|&y| better(x, y))) {
        return Verdict::Improved;
    }
    let worse = share(n.median - b.median, b.median) * if lower { 1.0 } else { -1.0 };
    let exact = EXACT_PER_SEED.contains(&spec.name.as_str());
    if worse > bound || (exact && pairs.iter().any(|&(x, y)| better(x, y))) {
        return Verdict::Regressed;
    }
    if b.spread() > bound || n.spread() > bound {
        return Verdict::Unresolved;
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    let gap = (n.median - b.median).abs();
    if better(n.median, b.median)
        && !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && gap > b.q3 - b.q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The value of `metric` in every record carrying it, by seed.
fn values(records: &[&Record], metric: &str) -> BTreeMap<u64, f64> {
    records
        .iter()
        .filter_map(|r| r.metrics.get(metric).map(|m| (r.seed, m.value)))
        .collect()
}

/// Compares two sets of runs, workload by workload.
pub fn compare(base: &[Record], new: &[Record], spec: &Spec) -> Vec<Row> {
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for w in workloads {
        let b: Vec<&Record> = base.iter().filter(|r| r.workload == w).collect();
        let n: Vec<&Record> = new.iter().filter(|r| r.workload == w).collect();
        if n.is_empty() {
            continue;
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (bv, nv) = (values(&b, &m.name), values(&n, &m.name));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let bvals: Vec<f64> = bv.values().copied().collect();
            let nvals: Vec<f64> = nv.values().copied().collect();
            let pairs: Vec<(f64, f64)> = bv
                .iter()
                .filter_map(|(seed, &x)| nv.get(seed).map(|&y| (x, y)))
                .collect();
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base: Summary::of(&bvals),
                new: Summary::of(&nvals),
                verdict: m.bound.map(|_| verdict(m, &bvals, &nvals, &pairs)),
            });
        }
        let rate = |rs: &[&Record]| {
            let attempted: u64 = rs.iter().map(|r| r.attempted).sum();
            let failed: u64 = rs.iter().map(|r| r.failed).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (br, nr) = (rate(&b), rate(&n));
        rows.push(Row {
            workload: w.to_string(),
            metric: "error_rate".into(),
            unit: "ratio".into(),
            base: Summary::of(&[br]),
            new: Summary::of(&[nr]),
            verdict: Some(if nr > br {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }),
        });
    }
    rows
}

/// True when any row regressed.
pub fn any_regression(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Some(Verdict::Regressed))
}

/// The comparison as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<28} {:>14} {:>25} {:>14} {:>25} {:>8}  verdict\n",
        "workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3", "change"
    );
    for r in rows {
        let q = |s: &Summary| format!("{:.6}..{:.6}", s.q1, s.q3);
        let change = share(r.new.median - r.base.median, r.base.median) * 100.0;
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:>14.6} {:>25} {:>14.6} {:>25} {:>7.1}%  {} ({})",
            r.workload,
            r.metric,
            r.base.median,
            q(&r.base),
            r.new.median,
            q(&r.new),
            change,
            r.verdict.map_or("-", Verdict::label),
            r.unit,
        );
    }
    out
}
