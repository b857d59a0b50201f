//! The `pipeline --churn` front end: runs the churn loop, writes one
//! snapshot per epoch plus the per-epoch report bundle and (optionally) the
//! `bdrmapit.bench-churn/v1` cost artifact, and renders a per-epoch summary.

use crate::{Cli, CliError};
use churn::{BenchChurn, ChurnOptions, ChurnReport};
use std::fmt::Write as _;
use std::path::Path;

/// Runs `pipeline --churn`. Snapshots land in `dir` as `epoch-NNN.snap`
/// alongside `churn-report.json`; `bench_out` additionally receives the cost
/// benchmark. With `gate`, the run fails unless every rib-stable churn epoch
/// is strictly cheaper incrementally than its full recompute.
pub fn churn_pipeline(
    cli: &Cli,
    epochs: usize,
    dir: &Path,
    bench_out: Option<&Path>,
    gate: bool,
    rec: &obs::Recorder,
) -> Result<String, CliError> {
    let rt = CliError::Runtime;
    std::fs::create_dir_all(dir).map_err(|e| rt(format!("creating {}: {e}", dir.display())))?;
    // Per-epoch reports come from recorder snapshot deltas, so churn needs a
    // live recorder even when the session-level one is disabled.
    let rec = if rec.is_enabled() {
        rec.clone()
    } else {
        obs::Recorder::new(false)
    };
    let opts = ChurnOptions::new(epochs, cli.vps, cli.threads, cli.seed);
    let run = churn::run_churn(cli.scale.config(cli.seed), &opts, &rec).map_err(rt)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn: {} epochs ({} events scheduled), scale {}, seed {}",
        epochs,
        run.schedule.event_count(),
        cli.scale.name(),
        cli.seed
    );
    for e in &run.epochs {
        let snap_path = dir.join(format!("epoch-{:03}.snap", e.epoch));
        std::fs::write(&snap_path, &e.snapshot)
            .map_err(|err| rt(format!("writing {}: {err}", snap_path.display())))?;
        if e.epoch == 0 {
            let _ = writeln!(
                out,
                "  epoch 0 (baseline): {} pairs probed, {} shards converged, work {}",
                e.total_pairs, e.total_shards, e.incremental.work
            );
        } else {
            let _ = writeln!(
                out,
                "  epoch {}: {} events ({} applied{}), pairs {}/{}, {} shards converged, \
                 work {} vs full {}, identical",
                e.epoch,
                e.events.len(),
                e.applied,
                if e.rib_changed { ", rib rebuilt" } else { "" },
                e.dirty_pairs,
                e.total_pairs,
                e.total_shards,
                e.incremental.work,
                e.full.work
            );
        }
    }

    let report_path = dir.join("churn-report.json");
    std::fs::write(&report_path, ChurnReport::from_run(&run).to_json())
        .map_err(|e| rt(format!("writing {}: {e}", report_path.display())))?;
    let _ = writeln!(
        out,
        "wrote {} snapshots + {}",
        run.epochs.len(),
        report_path.display()
    );

    let bench = BenchChurn::from_run(&run, cli.scale.name(), cli.seed, cli.threads);
    if let Some(path) = bench_out {
        std::fs::write(path, bench.to_json())
            .map_err(|e| rt(format!("writing {}: {e}", path.display())))?;
        let _ = writeln!(out, "wrote {}", path.display());
    }
    let _ = writeln!(
        out,
        "total work: incremental {} vs full {}",
        bench.incremental_work_total, bench.full_work_total
    );
    if gate {
        bench.gate().map_err(rt)?;
        let _ = writeln!(out, "churn gate: passed");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, run, Command, EXIT_RUNTIME};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn churn_pipeline_writes_snapshots_report_and_bench() {
        let dir = std::env::temp_dir().join(format!("bdrmapit-churn-cmd-{}", std::process::id()));
        let bench_path = dir.join("bench.json");
        let cli = parse(&args(&[
            "pipeline",
            "--churn",
            "--epochs",
            "2",
            "--scale",
            "tiny",
            "--vps",
            "4",
            "--seed",
            "42",
            "--churn-dir",
            dir.to_str().unwrap(),
            "--bench-out",
            bench_path.to_str().unwrap(),
            "--churn-gate",
        ]))
        .unwrap();
        assert!(matches!(cli.command, Command::Churn { .. }));
        let out = run(&cli).unwrap();
        assert!(out.contains("epoch 0 (baseline)"), "{out}");
        assert!(out.contains("churn gate: passed"), "{out}");

        // The three snapshots exist and epoch 0 differs from nothing —
        // `snapshot diff` sees a file as identical to itself...
        for epoch in 0..=2 {
            assert!(dir.join(format!("epoch-{epoch:03}.snap")).exists());
        }
        let snap0 = dir.join("epoch-000.snap");
        let diff_cli = parse(&args(&[
            "snapshot",
            "diff",
            snap0.to_str().unwrap(),
            snap0.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&diff_cli).unwrap();
        assert!(out.contains("\"identical\": true"), "{out}");

        // ...and the bench artifact validates and passes its own gate.
        let bench = BenchChurn::from_json(&std::fs::read_to_string(&bench_path).unwrap()).unwrap();
        assert_eq!(bench.schema, churn::BENCH_SCHEMA);
        assert_eq!(bench.epochs.len(), 3);
        assert!(bench.gate().is_ok());

        // The report bundle diffs epoch-to-epoch through the CLI: the same
        // epoch agrees with itself.
        let report_path = dir.join("churn-report.json");
        let diff_cli = parse(&args(&[
            "report",
            "diff",
            report_path.to_str().unwrap(),
            report_path.to_str().unwrap(),
            "--epoch",
            "1",
        ]))
        .unwrap();
        let out = run(&diff_cli).unwrap();
        assert!(out.contains("deterministic metrics agree"), "{out}");
        // Without --epoch the bundle is refused at runtime (not usage).
        let diff_cli = parse(&args(&[
            "report",
            "diff",
            report_path.to_str().unwrap(),
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&diff_cli).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn differing_epoch_snapshots_exit_one_with_structural_json() {
        let dir =
            std::env::temp_dir().join(format!("bdrmapit-churn-snapdiff-{}", std::process::id()));
        let cli = parse(&args(&[
            "pipeline",
            "--churn",
            "--epochs",
            "3",
            "--scale",
            "tiny",
            "--vps",
            "4",
            "--seed",
            "42",
            "--churn-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cli).unwrap();
        // Some epoch differs structurally from the baseline (the schedule
        // always applies at least one link event per epoch when it can).
        let snap0 = dir.join("epoch-000.snap");
        let mut saw_difference = false;
        for epoch in 1..=3 {
            let snap = dir.join(format!("epoch-{epoch:03}.snap"));
            let diff_cli = parse(&args(&[
                "snapshot",
                "diff",
                snap0.to_str().unwrap(),
                snap.to_str().unwrap(),
            ]))
            .unwrap();
            match run(&diff_cli) {
                Ok(_) => {}
                Err(err) => {
                    assert_eq!(err.exit_code(), EXIT_RUNTIME);
                    let text = err.to_string();
                    assert!(text.contains("bdrmapit.snapshot-diff/v1"), "{text}");
                    assert!(text.contains("\"identical\": false"), "{text}");
                    saw_difference = true;
                }
            }
        }
        assert!(saw_difference, "no epoch diverged from the baseline");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
