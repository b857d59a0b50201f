//! On-disk dataset bundles: the file-driven pipeline.
//!
//! `bdrmapit probe --out DIR` materializes a complete input bundle in the
//! interchange formats the ecosystem uses — traces as JSON lines, aliases
//! as an ITDK nodes file, relationships as CAIDA serial-1, origins as
//! prefix2as, RIR delegations in the extended format, IXPs as JSON — plus
//! the generator's ground truth for scoring. `bdrmapit infer --in DIR`
//! runs bdrmapIT from those files alone, writes the annotation and link
//! CSVs, and scores against the ground truth when present.
//!
//! Anyone with real data in these formats (converted CAIDA traces, a real
//! prefix2as file, real serial-1 relationships) can run the tool on it.

use alias::AliasSets;
use as_rel::AsRelationships;
use bdrmapit_core::{Bdrmapit, Config};
use bgp::ixp::IxpDirectory;
use bgp::prefix2as::{parse_prefix2as, to_prefix2as};
use bgp::rir::DelegationTable;
use bgp::IpToAs;
use eval::Scenario;
use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use topo_gen::GeneratorConfig;
use traceroute::io::{read_jsonl, write_jsonl};
use traceroute::sim::ProbeConfig;

/// File names inside a dataset bundle.
pub mod files {
    /// Traceroute corpus (JSON lines).
    pub const TRACES: &str = "traces.jsonl";
    /// Alias sets (ITDK nodes format).
    pub const NODES: &str = "nodes.txt";
    /// AS relationships (CAIDA serial-1).
    pub const RELS: &str = "as-rel.txt";
    /// Prefix→origin table (CAIDA prefix2as).
    pub const PREFIX2AS: &str = "prefix2as.txt";
    /// RIR delegations (extended format).
    pub const DELEGATIONS: &str = "delegated-extended.txt";
    /// IXP directory (JSON).
    pub const IXPS: &str = "ixps.json";
    /// Ground truth for scoring (JSON; optional).
    pub const TRUTH: &str = "truth.json";
    /// Inferred per-address annotations (CSV output).
    pub const ANNOTATIONS: &str = "annotations.csv";
    /// Inferred interdomain links (CSV output).
    pub const LINKS: &str = "links.csv";
}

/// Ground truth shipped alongside a synthetic bundle.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroundTruth {
    /// True AS adjacencies, canonical (low, high) order.
    pub pairs: Vec<(Asn, Asn)>,
    /// `(address, true router operator)` for every generated interface.
    pub owners: Vec<(u32, Asn)>,
}

/// Writes a complete synthetic dataset bundle. `threads` sizes the sharded
/// campaign's worker pool (0 = ask the OS); the bundle contents are
/// bit-identical for every value.
pub fn write_bundle(
    dir: &Path,
    gen_cfg: GeneratorConfig,
    vps: usize,
    seed: u64,
    threads: usize,
    rec: &obs::Recorder,
) -> io::Result<String> {
    fs::create_dir_all(dir)?;
    let mut s = Scenario::build_with_obs(gen_cfg, rec.clone());
    s.threads = threads;
    let probe_cfg = ProbeConfig {
        seed,
        ..ProbeConfig::default()
    };
    let vp_routers = traceroute::sim::select_vps(&s.net, vps, &[], seed);
    let traces = traceroute::sim::probe_campaign_in_pool(
        &s.net,
        &vp_routers,
        &probe_cfg,
        &s.worker_pool(),
        rec,
    );
    let aliases = alias::resolve_corpus(&s.net, &traces, 0.9, seed, rec);

    let mut f = fs::File::create(dir.join(files::TRACES))?;
    write_jsonl(&mut f, &traces)?;
    fs::write(dir.join(files::NODES), aliases.to_nodes_file())?;
    fs::write(dir.join(files::RELS), s.rels.to_serial1())?;
    fs::write(dir.join(files::PREFIX2AS), to_prefix2as(&s.rib))?;
    fs::write(
        dir.join(files::DELEGATIONS),
        s.net.addressing.delegations.to_extended_format(),
    )?;
    fs::write(
        dir.join(files::IXPS),
        serde_json::to_string_pretty(&s.net.addressing.ixps).map_err(io::Error::other)?,
    )?;

    let pairs: BTreeSet<(Asn, Asn)> = s
        .net
        .true_links()
        .iter()
        .map(|l| (l.as_a.min(l.as_b), l.as_a.max(l.as_b)))
        .collect();
    let owners: Vec<(u32, Asn)> = s
        .net
        .topology
        .ifaces
        .iter()
        .map(|i| (i.addr, s.net.topology.owner(i.router)))
        .collect();
    let truth = GroundTruth {
        pairs: pairs.into_iter().collect(),
        owners,
    };
    fs::write(
        dir.join(files::TRUTH),
        serde_json::to_string(&truth).map_err(io::Error::other)?,
    )?;

    Ok(format!(
        "wrote {} traces from {} VPs, {} alias groups, {} relationships, {} prefixes to {}\n",
        traces.len(),
        vp_routers.len(),
        aliases.len(),
        s.rels.len(),
        s.rib.prefix_count(),
        dir.display()
    ))
}

/// Runs bdrmapIT from a dataset bundle on disk; returns the report text.
/// `threads` selects the refinement worker count ([`Config::threads`]).
pub fn infer_from_bundle(dir: &Path, threads: usize, rec: &obs::Recorder) -> io::Result<String> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);

    let read_span = rec.span(obs::names::PHASE_READ_BUNDLE);
    let traces = read_jsonl(fs::File::open(dir.join(files::TRACES))?)?;
    let aliases = AliasSets::from_nodes_file(&fs::read_to_string(dir.join(files::NODES))?)
        .map_err(invalid)?;
    let rels = AsRelationships::from_serial1(&fs::read_to_string(dir.join(files::RELS))?)
        .map_err(|e| invalid(e.to_string()))?;
    let entries = parse_prefix2as(&fs::read_to_string(dir.join(files::PREFIX2AS))?)
        .map_err(|e| invalid(e.to_string()))?;
    // Delegations and IXPs are optional in a bundle.
    let delegations = match fs::read_to_string(dir.join(files::DELEGATIONS)) {
        Ok(text) => DelegationTable::parse_extended_format(&text).map_err(invalid)?,
        Err(_) => DelegationTable::new(),
    };
    let mut ixps: IxpDirectory = match fs::read_to_string(dir.join(files::IXPS)) {
        Ok(text) => serde_json::from_str(&text).map_err(io::Error::other)?,
        Err(_) => IxpDirectory::new(),
    };
    ixps.rebuild();
    drop(read_span);

    // prefix2as + delegations + IXPs → the combined oracle.
    let ip2as_span = rec.span(obs::names::PHASE_IP2AS_BUILD);
    let bgp_pairs = entries.iter().map(|e| (e.prefix, e.primary()));
    let ip2as = IpToAs::from_origins(bgp_pairs, &delegations, &ixps);
    drop(ip2as_span);

    let cfg = Config {
        threads,
        ..Config::default()
    };
    let result = Bdrmapit::new(cfg)
        .with_obs(rec.clone())
        .run(&traces, &aliases, &ip2as, &rels);

    let links = result.interdomain_links();
    let write_span = rec.span(obs::names::PHASE_WRITE_OUTPUTS);
    write_buffered(fs::File::create(dir.join(files::ANNOTATIONS))?, |w| {
        bdrmapit_core::output::write_annotations(w, &result)
    })?;
    write_buffered(fs::File::create(dir.join(files::LINKS))?, |w| {
        bdrmapit_core::output::write_links(w, &links)
    })?;
    drop(write_span);

    let mut report = format!(
        "ran bdrmapIT on {} traces: {} IRs, {} iterations, {} interdomain links\n\
         wrote {} and {}\n",
        traces.len(),
        result.graph.irs.len(),
        result.state.iterations,
        links.len(),
        dir.join(files::ANNOTATIONS).display(),
        dir.join(files::LINKS).display()
    );

    // Score against truth when available.
    if let Ok(text) = fs::read_to_string(dir.join(files::TRUTH)) {
        let _span = rec.span(obs::names::PHASE_SCORE_TRUTH);
        let truth: GroundTruth = serde_json::from_str(&text).map_err(io::Error::other)?;
        let truth_pairs: BTreeSet<(Asn, Asn)> = truth.pairs.iter().copied().collect();
        // BTreeMap rather than HashMap: the scoring path is not hot, and a
        // sorted map keeps every traversal of truth data deterministic.
        let owner_of: std::collections::BTreeMap<u32, Asn> = truth.owners.iter().copied().collect();
        let inferred: BTreeSet<(Asn, Asn)> = links
            .iter()
            .map(|l| (l.ir_as.min(l.conn_as), l.ir_as.max(l.conn_as)))
            .collect();
        let correct = inferred.intersection(&truth_pairs).count();
        let mut ann_correct = 0usize;
        let mut ann_total = 0usize;
        for (addr, asn) in result.router_annotations() {
            if asn.is_none() {
                continue;
            }
            if let Some(&owner) = owner_of.get(&addr) {
                ann_total += 1;
                if owner == asn {
                    ann_correct += 1;
                }
            }
        }
        report.push_str(&format!(
            "link precision vs truth: {:.3} ({}/{}); annotation accuracy: {:.3} ({}/{})\n",
            correct as f64 / inferred.len().max(1) as f64,
            correct,
            inferred.len(),
            ann_correct as f64 / ann_total.max(1) as f64,
            ann_correct,
            ann_total
        ));
    }

    Ok(report)
}

/// Runs `body` over `out` through one buffer, then flushes it: the CSV
/// writers emit many small fragments, and a `BufWriter` dropped unflushed
/// would discard the error of its last write.
fn write_buffered<W: Write>(
    out: W,
    body: impl FnOnce(&mut BufWriter<W>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    body(&mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts nothing: every write and flush fails.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "device full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "device full"))
        }
    }

    #[test]
    fn buffered_write_errors_reach_the_caller() {
        // Small enough to sit in the buffer until the final flush.
        let err = write_buffered(Full, |w| w.write_all(b"addr,asn\n")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Larger than the buffer: the error surfaces inside the body.
        let err = write_buffered(Full, |w| w.write_all(&[b'x'; 1 << 16])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Buffered bytes arrive whole.
        let mut out = Vec::new();
        write_buffered(&mut out, |w| w.write_all(b"a,b\n")).unwrap();
        assert_eq!(out, b"a,b\n");
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdrmapit-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn bundle_roundtrip_scores_against_truth() {
        let dir = tmpdir("roundtrip");
        let rec = obs::Recorder::disabled();
        let report = write_bundle(&dir, GeneratorConfig::tiny(404), 4, 404, 2, &rec).unwrap();
        assert!(report.contains("wrote"));
        for f in [
            files::TRACES,
            files::NODES,
            files::RELS,
            files::PREFIX2AS,
            files::DELEGATIONS,
            files::IXPS,
            files::TRUTH,
        ] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        // Exercise the parallel refinement path end to end: 2 workers here,
        // serial in `infer_without_truth_still_runs` — same code, same answers.
        let report = infer_from_bundle(&dir, 2, &rec).unwrap();
        assert!(report.contains("interdomain links"), "{report}");
        assert!(report.contains("link precision vs truth"), "{report}");
        assert!(dir.join(files::ANNOTATIONS).exists());
        assert!(dir.join(files::LINKS).exists());
        // The reported precision should be high; parse it back out.
        let prec: f64 = report
            .split("link precision vs truth: ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("precision in report");
        assert!(prec > 0.8, "precision {prec} too low: {report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn infer_without_truth_still_runs() {
        let dir = tmpdir("no-truth");
        let rec = obs::Recorder::disabled();
        write_bundle(&dir, GeneratorConfig::tiny(405), 3, 405, 1, &rec).unwrap();
        fs::remove_file(dir.join(files::TRUTH)).unwrap();
        let report = infer_from_bundle(&dir, 1, &rec).unwrap();
        assert!(report.contains("interdomain links"));
        assert!(!report.contains("precision"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn infer_missing_bundle_errors() {
        let dir = tmpdir("missing");
        fs::remove_dir_all(&dir).unwrap();
        assert!(infer_from_bundle(&dir, 1, &obs::Recorder::disabled()).is_err());
    }

    #[test]
    fn infer_records_read_and_pipeline_phases() {
        let dir = tmpdir("obs-phases");
        let rec = obs::Recorder::new(false);
        write_bundle(&dir, GeneratorConfig::tiny(406), 3, 406, 0, &rec).unwrap();
        infer_from_bundle(&dir, 1, &rec).unwrap();
        let report = rec.report();
        for phase in [
            obs::names::PHASE_TOPO,
            obs::names::PHASE_TRACEROUTE,
            obs::names::PHASE_ALIAS,
            obs::names::PHASE_READ_BUNDLE,
            obs::names::PHASE_GRAPH,
            obs::names::PHASE_REFINE,
        ] {
            assert!(report.phases.contains_key(phase), "missing {phase}");
        }
        assert!(report.counters[obs::names::REFINE_ITERATIONS] > 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
