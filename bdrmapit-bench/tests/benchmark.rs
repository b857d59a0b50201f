//! The benchmark's own checks, at tiny sizes: every declared metric is
//! emitted with its declared unit on every workload, the output checks
//! catch a corrupted annotation, and `compare` flags a regression while
//! passing identical inputs.

use bdrmapit_bench::compare::{self, Record, Value, Verdict};
use bdrmapit_bench::spec::Spec;
use bdrmapit_bench::{run, Sizes, Workload};
use bdrmapit_core::Config;
use eval::experiments::heuristics::annotation_accuracy;
use eval::experiments::run_bdrmapit;
use eval::Scenario;
use net_types::Asn;
use snapshot::SnapshotData;
use std::collections::BTreeMap;
use topo_gen::GeneratorConfig;

const SECONDS: f64 = 0.2;

fn assert_declared(w: Workload, traced: bool) {
    let spec = Spec::committed();
    let out = run(w, 11, SECONDS, traced, &Sizes::tiny()).expect("run completes");
    assert!(
        out.correct(),
        "{} traced={traced}: {:?}",
        w.name(),
        out.problems
    );
    assert!(out.attempted >= 1);
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = spec
        .metrics(traced)
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(got, want, "{} traced={traced}", w.name());
    if !traced {
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} is {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
    let line = out.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
}

#[test]
fn declaration_names_the_workloads_the_program_runs() {
    let spec = Spec::committed();
    let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn batch_emits_every_declared_metric() {
    assert_declared(Workload::BatchItdk, false);
    assert_declared(Workload::BatchItdk, true);
}

#[test]
fn infer_emits_every_declared_metric() {
    assert_declared(Workload::InferItdk, false);
    assert_declared(Workload::InferItdk, true);
}

#[test]
fn serve_emits_every_declared_metric() {
    assert_declared(Workload::ServeItdk, false);
    assert_declared(Workload::ServeItdk, true);
}

#[test]
fn churn_emits_every_declared_metric() {
    assert_declared(Workload::ChurnDefault, false);
    assert_declared(Workload::ChurnDefault, true);
}

#[test]
fn a_corrupted_annotation_fails_the_output_check() {
    let scenario = Scenario::build(GeneratorConfig::tiny(5));
    let bundle = scenario.campaign(4, true, 5);
    let mut result = run_bdrmapit(&scenario, &bundle, Config::default());
    let expected = bdrmapit_bench::annotation_hash(&result);
    assert!(bdrmapit_bench::check_annotation(&result, expected).is_ok());

    let ir = result
        .state
        .router
        .iter()
        .position(|a| a.is_some())
        .expect("some router is annotated");
    result.state.router[ir] = Asn(result.state.router[ir].0 + 1);
    assert!(bdrmapit_bench::check_annotation(&result, expected).is_err());
}

#[test]
fn snapshot_accuracy_matches_the_eval_definition() {
    let scenario = Scenario::build(GeneratorConfig::tiny(6));
    let bundle = scenario.campaign(4, true, 6);
    let result = run_bdrmapit(&scenario, &bundle, Config::default());
    let data = SnapshotData::from_annotated(&result, &scenario.rib.origin_table());
    let direct = annotation_accuracy(&scenario, &result);
    let via_snapshot = bdrmapit_bench::snapshot_accuracy(&scenario.net, &data);
    assert!(
        (direct - via_snapshot).abs() < 1e-12,
        "{direct} vs {via_snapshot}"
    );
}

/// Ten records of one workload, on seeds 0–9, whose `op_best_ms` and
/// `accuracy` wobble by a fraction of a percent around the given values.
fn records(latency: f64, accuracy: f64) -> Vec<Record> {
    records_with(latency, accuracy, 0.001)
}

/// The same, with the wobble step given: each run reads `1 + step * (seed
/// % 3)` times the values.
fn records_with(latency: f64, accuracy: f64, step: f64) -> Vec<Record> {
    (0..10u64)
        .map(|seed| {
            let wobble = 1.0 + (seed % 3) as f64 * step;
            let mut metrics = BTreeMap::new();
            metrics.insert(
                "op_best_ms".to_string(),
                Value {
                    value: latency * wobble,
                },
            );
            metrics.insert(
                "accuracy".to_string(),
                Value {
                    value: accuracy * wobble,
                },
            );
            Record {
                workload: "batch-itdk".into(),
                seed,
                attempted: 10,
                failed: 0,
                metrics,
            }
        })
        .collect()
}

fn verdict_of(rows: &[compare::Row], metric: &str) -> Option<Verdict> {
    rows.iter()
        .find(|r| r.metric == metric)
        .and_then(|r| r.verdict)
}

#[test]
fn compare_flags_a_regression_and_passes_identical_runs() {
    let spec = Spec::committed();
    let bound = |name: &str| spec.metric(name).and_then(|m| m.bound).expect("declared");
    let base = records(100.0, 0.95);

    let same = compare::compare(&base, &base, &spec);
    assert_eq!(verdict_of(&same, "op_best_ms"), Some(Verdict::Unchanged));
    assert_eq!(verdict_of(&same, "accuracy"), Some(Verdict::Unchanged));
    assert!(!compare::any_regression(&same));

    // A 20% accuracy loss, and a slowdown just past the latency bound.
    let worse = records(100.0 * (1.05 + bound("op_best_ms")), 0.95 * 0.8);
    let rows = compare::compare(&base, &worse, &spec);
    assert_eq!(verdict_of(&rows, "op_best_ms"), Some(Verdict::Regressed));
    assert_eq!(verdict_of(&rows, "accuracy"), Some(Verdict::Regressed));
    assert!(compare::any_regression(&rows));

    // A slowdown within the bound is not a regression.
    let within = records(100.0 * (1.0 + bound("op_best_ms") / 2.0), 0.95);
    let rows = compare::compare(&base, &within, &spec);
    assert_eq!(verdict_of(&rows, "op_best_ms"), Some(Verdict::Unchanged));

    let faster = compare::compare(&base, &records(80.0, 0.95), &spec);
    assert_eq!(verdict_of(&faster, "op_best_ms"), Some(Verdict::Improved));
    assert!(!compare::any_regression(&faster));

    let mut failing = records(100.0, 0.95);
    failing[0].failed = 1;
    let errors = compare::compare(&base, &failing, &spec);
    assert_eq!(verdict_of(&errors, "error_rate"), Some(Verdict::Regressed));
}

#[test]
fn compare_flags_a_regression_however_wide_the_spread() {
    let spec = Spec::committed();
    // A 30% step per seed spreads the runs far past every bound.
    let base = records_with(100.0, 0.95, 0.3);
    let same = compare::compare(&base, &base, &spec);
    assert_eq!(verdict_of(&same, "op_best_ms"), Some(Verdict::Unresolved));
    assert!(!compare::any_regression(&same));

    let slower = compare::compare(&base, &records_with(200.0, 0.95, 0.3), &spec);
    assert_eq!(verdict_of(&slower, "op_best_ms"), Some(Verdict::Regressed));
    assert!(compare::any_regression(&slower));
}

#[test]
fn compare_judges_accuracy_seed_by_seed() {
    let spec = Spec::committed();
    let base = records(100.0, 0.95);
    // One seed loses a tenth of a point: far inside the bound on medians,
    // but the seed fixes the output, so the loss is real.
    let mut one_worse = records(100.0, 0.95);
    let acc = one_worse[4].metrics.get_mut("accuracy").expect("recorded");
    acc.value -= 0.001;
    let rows = compare::compare(&base, &one_worse, &spec);
    assert_eq!(verdict_of(&rows, "accuracy"), Some(Verdict::Regressed));

    // Runs on other seeds do not pair up: only the bound on medians applies.
    let mut other_seeds = one_worse;
    for r in &mut other_seeds {
        r.seed += 100;
    }
    let rows = compare::compare(&base, &other_seeds, &spec);
    assert_eq!(verdict_of(&rows, "accuracy"), Some(Verdict::Unchanged));
    assert_eq!(verdict_of(&rows, "op_best_ms"), Some(Verdict::Unchanged));
}
