//! Offline inspection of run artifacts: `report diff`, `snapshot diff`, and
//! `trace check`.
//!
//! `report diff A.json B.json` compares two [`obs::RunReport`]s: counter
//! deltas, histogram changes, and phase wall-time ratios. The command exits
//! nonzero when the *deterministic* slices diverge — two runs of the same
//! corpus must agree there regardless of thread count or machine — while
//! wall times and execution-dependent counters may differ freely and are
//! reported for context only. Either side may also be a
//! `bdrmapit.churn-report/v1` bundle from `pipeline --churn`; `--epoch
//! X[:Y]` picks the per-epoch report to compare.
//!
//! `snapshot diff A.snap B.snap` structurally compares two
//! `bdrmapit.snapshot/v1` files — routers added/removed, ASN reassignments,
//! annotation agreement — and, like grep, exits 0 when identical and 1 when
//! they differ.
//!
//! `trace check FILE` validates a `--trace-out` artifact against the
//! `bdrmapit.trace/v1` schema (see DESIGN.md §15) and prints its shape.

use crate::CliError;
use net_types::Asn;
use obs::RunReport;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Loads one side of a `report diff`: a plain run report, or — when the
/// file parses as a `bdrmapit.churn-report/v1` bundle — the epoch selected
/// with `--epoch`. Asking for an epoch from a plain report (or forgetting
/// `--epoch` on a bundle) is a runtime error, not a silent guess.
fn load_selected(path: &Path, epoch: Option<usize>) -> Result<RunReport, CliError> {
    let rt = CliError::Runtime;
    let text = std::fs::read_to_string(path)
        .map_err(|e| rt(format!("reading {}: {e}", path.display())))?;
    // `ChurnReport::from_json` enforces its schema tag, so success here is
    // an unambiguous bundle detection.
    if let Ok(bundle) = churn::ChurnReport::from_json(&text) {
        let idx = epoch.ok_or_else(|| {
            rt(format!(
                "{} is a churn-report bundle; select an epoch with --epoch X[:Y]",
                path.display()
            ))
        })?;
        return bundle
            .epoch(idx)
            .cloned()
            .map_err(|e| rt(format!("{}: {e}", path.display())));
    }
    if epoch.is_some() {
        return Err(rt(format!(
            "--epoch requires a churn-report bundle, but {} is a plain run report",
            path.display()
        )));
    }
    RunReport::from_json(&text).map_err(|e| rt(format!("parsing {}: {e}", path.display())))
}

fn diff_counters(
    out: &mut String,
    title: &str,
    a: &std::collections::BTreeMap<String, u64>,
    b: &std::collections::BTreeMap<String, u64>,
) {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut unchanged = 0usize;
    let _ = writeln!(out, "{title}:");
    for k in keys {
        let (va, vb) = (
            a.get(k).copied().unwrap_or(0),
            b.get(k).copied().unwrap_or(0),
        );
        if va == vb {
            unchanged += 1;
        } else {
            let delta = vb as i128 - va as i128;
            let _ = writeln!(out, "  {k}: {va} -> {vb} ({delta:+})");
        }
    }
    let _ = writeln!(out, "  ({unchanged} unchanged)");
}

/// Renders the comparison of two run reports; `Err` (with the same text)
/// when their deterministic slices diverge, so scripts can gate on the exit
/// code.
pub fn report_diff(
    a_path: &Path,
    b_path: &Path,
    epoch: Option<(usize, usize)>,
) -> Result<String, CliError> {
    let a = load_selected(a_path, epoch.map(|(x, _)| x))?;
    let b = load_selected(b_path, epoch.map(|(_, y)| y))?;
    let mut out = String::new();
    let _ = match epoch {
        Some((x, y)) => writeln!(
            out,
            "report diff: {} [epoch {x}] vs {} [epoch {y}]",
            a_path.display(),
            b_path.display()
        ),
        None => writeln!(
            out,
            "report diff: {} vs {}",
            a_path.display(),
            b_path.display()
        ),
    };
    diff_counters(&mut out, "deterministic counters", &a.counters, &b.counters);
    diff_counters(&mut out, "exec counters (informational)", &a.exec, &b.exec);

    let hist_keys: BTreeSet<&String> = a.histograms.keys().chain(b.histograms.keys()).collect();
    let changed: Vec<&String> = hist_keys
        .into_iter()
        .filter(|k| a.histograms.get(*k) != b.histograms.get(*k))
        .collect();
    if changed.is_empty() {
        let _ = writeln!(out, "histograms: identical");
    } else {
        let _ = writeln!(out, "histograms changed:");
        for k in &changed {
            let show = |r: &RunReport| {
                r.histograms
                    .get(*k)
                    .map_or("absent".to_string(), |h| format!("{} samples", h.count))
            };
            let _ = writeln!(out, "  {k}: {} -> {}", show(&a), show(&b));
        }
    }

    let phase_keys: BTreeSet<&String> = a.phases.keys().chain(b.phases.keys()).collect();
    let _ = writeln!(out, "phase wall times (informational):");
    for k in phase_keys {
        match (a.phases.get(k), b.phases.get(k)) {
            (Some(pa), Some(pb)) if pa.wall_ms > 0.0 => {
                let _ = writeln!(
                    out,
                    "  {k}: {:.3} ms -> {:.3} ms (x{:.2})",
                    pa.wall_ms,
                    pb.wall_ms,
                    pb.wall_ms / pa.wall_ms
                );
            }
            (pa, pb) => {
                let ms = |p: Option<&obs::PhaseStats>| {
                    p.map_or("absent".to_string(), |p| format!("{:.3} ms", p.wall_ms))
                };
                let _ = writeln!(out, "  {k}: {} -> {}", ms(pa), ms(pb));
            }
        }
    }

    if a.deterministic_view() != b.deterministic_view() {
        let _ = writeln!(
            out,
            "DIVERGENCE: deterministic counters/histograms differ between the two runs"
        );
        return Err(CliError::Runtime(out));
    }
    let _ = writeln!(out, "deterministic metrics agree");
    Ok(out)
}

/// Schema tag for the JSON document `snapshot diff` prints.
pub const SNAPSHOT_DIFF_SCHEMA: &str = "bdrmapit.snapshot-diff/v1";

/// The structural comparison `snapshot diff` prints (and exits on).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SnapshotDiffDoc {
    /// Always [`SNAPSHOT_DIFF_SCHEMA`].
    pub schema: String,
    /// Baseline path, as given.
    pub a: String,
    /// Candidate path, as given.
    pub b: String,
    /// Whether the two snapshots are byte-equivalent record for record.
    pub identical: bool,
    /// Routers present in B but not A (keyed by interface-address set).
    pub routers_added: usize,
    /// Routers present in A but not B.
    pub routers_removed: usize,
    /// Routers present in both whose inferred operator changed.
    pub asn_reassigned: usize,
    /// Annotated addresses only A has.
    pub addrs_only_a: usize,
    /// Annotated addresses only B has.
    pub addrs_only_b: usize,
    /// Fraction of common addresses whose operator annotation agrees
    /// (1.0 when there are no common addresses).
    pub agreement: f64,
    /// Interdomain link records only B has.
    pub links_added: usize,
    /// Interdomain link records only A has.
    pub links_removed: usize,
    /// Prefix→origin rows present on exactly one side.
    pub prefixes_changed: usize,
}

/// Structurally compares two snapshots. Identical snapshots return `Ok`
/// (exit 0); differing snapshots return the same JSON document as
/// `Err(Runtime)` so the process exits 1, grep-style. Unreadable or
/// corrupt inputs are runtime errors too; usage errors exit 2 upstream.
pub fn snapshot_diff(a_path: &Path, b_path: &Path) -> Result<String, CliError> {
    let load = |p: &Path| -> Result<snapshot::SnapshotData, CliError> {
        let bytes = std::fs::read(p)
            .map_err(|e| CliError::Runtime(format!("reading {}: {e}", p.display())))?;
        snapshot::from_bytes(&bytes)
            .map_err(|e| CliError::Runtime(format!("parsing {}: {e}", p.display())))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;

    // Router identity is the set of interface addresses the router carries:
    // IR indices are assignment order, which churn legitimately shifts, but
    // a router keeps its addresses across epochs.
    let by_ifaces = |d: &snapshot::SnapshotData| -> BTreeMap<Vec<u32>, Asn> {
        d.routers
            .iter()
            .map(|r| {
                let mut key = r.ifaces.clone();
                key.sort_unstable();
                (key, r.asn)
            })
            .collect()
    };
    let (ra, rb) = (by_ifaces(&a), by_ifaces(&b));
    let routers_added = rb.keys().filter(|k| !ra.contains_key(*k)).count();
    let routers_removed = ra.keys().filter(|k| !rb.contains_key(*k)).count();
    let asn_reassigned = ra
        .iter()
        .filter(|(k, asn)| rb.get(*k).is_some_and(|other| other != *asn))
        .count();

    let annotations = |d: &snapshot::SnapshotData| -> BTreeMap<u32, Asn> {
        d.annotations.iter().map(|r| (r.addr, r.asn)).collect()
    };
    let (aa, ab) = (annotations(&a), annotations(&b));
    let common: Vec<bool> = aa
        .iter()
        .filter_map(|(addr, asn)| ab.get(addr).map(|other| other == asn))
        .collect();
    let agreement = if common.is_empty() {
        1.0
    } else {
        let agreeing = common.iter().filter(|same| **same).count();
        #[allow(clippy::cast_precision_loss)]
        let frac = agreeing as f64 / common.len() as f64;
        frac
    };

    let links = |d: &snapshot::SnapshotData| -> BTreeSet<snapshot::LinkRecord> {
        d.links.iter().copied().collect()
    };
    let (la, lb) = (links(&a), links(&b));
    let pa: BTreeSet<_> = a.prefixes.iter().copied().collect();
    let pb: BTreeSet<_> = b.prefixes.iter().copied().collect();

    let doc = SnapshotDiffDoc {
        schema: SNAPSHOT_DIFF_SCHEMA.to_string(),
        a: a_path.display().to_string(),
        b: b_path.display().to_string(),
        identical: a == b,
        routers_added,
        routers_removed,
        asn_reassigned,
        addrs_only_a: aa.len() - common.len(),
        addrs_only_b: ab.len() - common.len(),
        agreement,
        links_added: lb.difference(&la).count(),
        links_removed: la.difference(&lb).count(),
        prefixes_changed: pa.symmetric_difference(&pb).count(),
    };
    let mut json = serde_json::to_string_pretty(&doc)
        .map_err(|e| CliError::Runtime(format!("serializing diff: {e}")))?;
    json.push('\n');
    if doc.identical {
        Ok(json)
    } else {
        Err(CliError::Runtime(json))
    }
}

/// Validates a `--trace-out` artifact and summarizes its shape.
pub fn trace_check(path: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {}: {e}", path.display())))?;
    let check = obs::trace::validate_chrome_json(&text)
        .map_err(|e| CliError::Runtime(format!("{}: invalid trace: {e}", path.display())))?;
    Ok(format!(
        "{}: valid {} — {} events on {} tracks, {} dropped\n",
        path.display(),
        obs::trace::TRACE_SCHEMA,
        check.events,
        check.tracks,
        check.dropped
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::names;
    use obs::{MockClock, Recorder};

    fn write_report(rec: &Recorder, tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "bdrmapit-diff-test-{}-{tag}.json",
            std::process::id()
        ));
        std::fs::write(&path, rec.report().to_json()).unwrap();
        path
    }

    fn recorder_with(iterations: u64, steals: u64) -> Recorder {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        {
            let _s = rec.span(names::PHASE_REFINE);
            clock.advance(2_000_000);
        }
        rec.add(names::REFINE_ITERATIONS, iterations);
        rec.add_exec(names::EXEC_POOL_STEALS, steals);
        rec
    }

    #[test]
    fn agreeing_reports_diff_clean() {
        let a = write_report(&recorder_with(3, 10), "clean-a");
        let b = write_report(&recorder_with(3, 99), "clean-b");
        let out = report_diff(&a, &b, None).unwrap();
        assert!(out.contains("deterministic metrics agree"), "{out}");
        // Exec divergence is reported but not fatal.
        assert!(out.contains("pool.steals: 10 -> 99"), "{out}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn deterministic_divergence_is_an_error_carrying_the_diff() {
        let a = write_report(&recorder_with(3, 10), "div-a");
        let b = write_report(&recorder_with(4, 10), "div-b");
        let err = report_diff(&a, &b, None).unwrap_err();
        let CliError::Runtime(text) = err else {
            panic!("expected runtime error")
        };
        assert!(text.contains("DIVERGENCE"), "{text}");
        assert!(text.contains("refine.iterations: 3 -> 4 (+1)"), "{text}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn missing_and_malformed_inputs_are_runtime_errors() {
        let missing = Path::new("/nonexistent/report.json");
        assert!(matches!(
            report_diff(missing, missing, None),
            Err(CliError::Runtime(_))
        ));
        let bad =
            std::env::temp_dir().join(format!("bdrmapit-diff-bad-{}.json", std::process::id()));
        std::fs::write(&bad, "not json").unwrap();
        assert!(matches!(
            report_diff(&bad, &bad, None),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(trace_check(&bad), Err(CliError::Runtime(_))));
        assert!(matches!(
            snapshot_diff(&bad, &bad),
            Err(CliError::Runtime(_))
        ));
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn epoch_flag_requires_a_churn_bundle_and_vice_versa() {
        let plain = write_report(&recorder_with(3, 10), "epoch-plain");
        // --epoch against a plain run report: refused.
        let err = report_diff(&plain, &plain, Some((0, 0))).unwrap_err();
        assert!(err.to_string().contains("plain run report"), "{err}");
        // A churn bundle without --epoch: refused, with a hint.
        let bundle_path = std::env::temp_dir().join(format!(
            "bdrmapit-diff-test-{}-epoch-bundle.json",
            std::process::id()
        ));
        let bundle = churn::ChurnReport {
            schema: churn::REPORT_SCHEMA.to_string(),
            epochs: vec![recorder_with(3, 10).report(), recorder_with(4, 10).report()],
        };
        std::fs::write(&bundle_path, bundle.to_json()).unwrap();
        let err = report_diff(&bundle_path, &bundle_path, None).unwrap_err();
        assert!(err.to_string().contains("--epoch"), "{err}");
        // Same epoch on both sides agrees; different epochs diverge.
        let out = report_diff(&bundle_path, &bundle_path, Some((1, 1))).unwrap();
        assert!(out.contains("deterministic metrics agree"), "{out}");
        let err = report_diff(&bundle_path, &bundle_path, Some((0, 1))).unwrap_err();
        assert!(err.to_string().contains("DIVERGENCE"), "{err}");
        // Out-of-range epoch: runtime error naming the bound.
        let err = report_diff(&bundle_path, &bundle_path, Some((9, 9))).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "{err}");
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&bundle_path);
    }

    #[test]
    fn snapshot_diff_distinguishes_identical_from_changed() {
        use snapshot::{AnnRecord, RouterRecord, SnapshotData};
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let base = SnapshotData {
            annotations: vec![
                AnnRecord {
                    addr: 1,
                    ir: 0,
                    asn: Asn(10),
                    origin: Asn(10),
                    conn: Asn(0),
                },
                AnnRecord {
                    addr: 2,
                    ir: 1,
                    asn: Asn(20),
                    origin: Asn(20),
                    conn: Asn(0),
                },
            ],
            links: vec![],
            routers: vec![
                RouterRecord {
                    ir: 0,
                    asn: Asn(10),
                    ifaces: vec![1],
                },
                RouterRecord {
                    ir: 1,
                    asn: Asn(20),
                    ifaces: vec![2],
                },
            ],
            prefixes: vec![],
        };
        let mut changed = base.clone();
        changed.routers[1].asn = Asn(30); // reassignment
        changed.annotations[1].asn = Asn(30); // one of two common addrs flips
        changed.routers.push(RouterRecord {
            ir: 2,
            asn: Asn(40),
            ifaces: vec![9],
        });
        let write = |tag: &str, d: &SnapshotData| {
            let p = dir.join(format!("bdrmapit-snapdiff-{pid}-{tag}.snap"));
            std::fs::write(&p, snapshot::to_bytes(d)).unwrap();
            p
        };
        let pa = write("a", &base);
        let pb = write("b", &changed);
        // Identical: Ok, identical=true.
        let out = snapshot_diff(&pa, &pa).unwrap();
        let doc: SnapshotDiffDoc = serde_json::from_str(&out).unwrap();
        assert!(doc.identical);
        assert_eq!(doc.schema, SNAPSHOT_DIFF_SCHEMA);
        assert_eq!((doc.routers_added, doc.routers_removed), (0, 0));
        // Changed: Err carrying the JSON, exit code 1.
        let err = snapshot_diff(&pa, &pb).unwrap_err();
        assert_eq!(err.exit_code(), crate::EXIT_RUNTIME);
        let CliError::Runtime(text) = err else {
            panic!("expected runtime error")
        };
        let doc: SnapshotDiffDoc = serde_json::from_str(&text).unwrap();
        assert!(!doc.identical);
        assert_eq!(doc.routers_added, 1, "{text}");
        assert_eq!(doc.routers_removed, 0, "{text}");
        assert_eq!(doc.asn_reassigned, 1, "{text}");
        assert!((doc.agreement - 0.5).abs() < 1e-9, "{text}");
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
    }

    #[test]
    fn trace_check_accepts_a_real_export() {
        let clock = MockClock::new();
        let rec = Recorder::with_clock_tracing(false, Box::new(clock.clone()), 64);
        {
            let _s = rec.span(names::PHASE_GRAPH);
            clock.advance(1_000_000);
        }
        let path =
            std::env::temp_dir().join(format!("bdrmapit-trace-check-{}.json", std::process::id()));
        std::fs::write(&path, rec.tracer().finish().to_chrome_json()).unwrap();
        let out = trace_check(&path).unwrap();
        assert!(out.contains("valid bdrmapit.trace/v1"), "{out}");
        let _ = std::fs::remove_file(&path);
    }
}
