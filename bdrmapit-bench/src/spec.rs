//! The benchmark declaration, `BENCHMARK.json` at the repository root,
//! compiled into the binary: `run` checks that it emits exactly the metrics
//! declared there, and `compare` judges regressions by the bounds declared
//! there, so the two can never drift apart.

use serde::Deserialize;

/// The declaration's text, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parsed declaration (only the fields this program reads).
#[derive(Clone, Debug, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The named workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics an untraced run emits.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run emits.
    pub per_layer: Vec<MetricSpec>,
}

/// One declared workload.
#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
}

/// One declared metric.
#[derive(Clone, Debug, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// True when a smaller value is better.
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }
}

impl Spec {
    /// The committed declaration. It is part of the source tree, so a
    /// malformed one is a bug in this program, not bad input.
    pub fn committed() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The metrics a run in the given mode must emit, in declaration order.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
