//! **bdrmapit-bench**: the end-to-end and per-layer benchmark of the
//! bdrmapIT pipeline, its snapshot query service and its churn driver.
//!
//! One run is one process, one workload and one seed. It builds the
//! workload's inputs from the seed (timed as set-up), then calls the layers'
//! public entry points in a loop for a fixed number of seconds, checks every
//! output, and reports the metrics `BENCHMARK.json` declares:
//!
//! * an untraced run reports the end-to-end metrics with every recorder
//!   disabled;
//! * a traced run measures the same loop once untraced and once under a
//!   tracing recorder, and reports the per-layer metrics: the spans and
//!   counters the program already emits, harness-side samples of the
//!   forwarding plane, trace synthesis, snapshot codec and query dispatch,
//!   and the tracing overhead. Its Chrome trace is validated before the run
//!   counts as correct.
//!
//! Every pool runs [`THREADS`] workers and the query workload opens
//! [`THREADS`] connections, so the load never exceeds the reference box's
//! two cores. See `README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod layers;
pub mod spec;
mod stats;
mod workloads;

use bdrmapit_core::Annotated;
use snapshot::SnapshotData;
use std::fmt::Write as _;
use topo_gen::GeneratorConfig;

/// Worker threads of every pool and connections of the query workload.
pub const THREADS: usize = 2;

/// The seed whose outputs are pinned by golden hashes.
pub const GOLDEN_SEED: u64 = 2018;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Probe campaign, alias resolution and annotation on the itdk topology.
    BatchItdk,
    /// Annotation of a prebuilt itdk corpus.
    InferItdk,
    /// Closed-loop queries against a snapshot of the itdk result.
    ServeItdk,
    /// Incremental re-annotation over a seed-derived churn schedule.
    ChurnDefault,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchItdk,
        Workload::InferItdk,
        Workload::ServeItdk,
        Workload::ChurnDefault,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchItdk => "batch-itdk",
            Workload::InferItdk => "infer-itdk",
            Workload::ServeItdk => "serve-itdk",
            Workload::ChurnDefault => "churn-default",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// [`annotation_hash`] of the itdk result (20 VPs) at [`GOLDEN_SEED`]:
/// batch, infer and the served snapshot all derive from it.
const GOLDEN_ITDK: u64 = 0xb224_3b02_3cb5_49ae;
/// [`snapshot_hash`] of the final churn epoch (default topology, 40 VPs,
/// 16 epochs) at [`GOLDEN_SEED`].
const GOLDEN_CHURN: u64 = 0x15bd_b8b1_ecb5_2f5a;

/// The input sizes of a run. [`Sizes::reference`] is what the benchmark
/// measures; [`Sizes::tiny`] exercises the same code in tests.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// The topology. It is the same for every seed, as are the vantage
    /// points and the churn schedule, so runs on different seeds do about
    /// the same work: the seed draws the probes and the alias resolution.
    pub topology: GeneratorConfig,
    /// Vantage points of the probe campaign (or the churn driver).
    pub vps: usize,
    /// Churn epochs after the baseline in one schedule.
    pub churn_epochs: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Untimed requests sent before the query loop is measured.
    pub warmup_requests: usize,
    /// `(vp, dst)` pairs in the forwarding-plane sample.
    pub path_samples: usize,
    /// `(vp, dst)` pairs in the trace-synthesis sample.
    pub trace_samples: usize,
    /// The hash the workload's output has at these sizes and
    /// [`GOLDEN_SEED`], where it is pinned: [`annotation_hash`] of the
    /// pipeline result, or [`snapshot_hash`] of churn's final epoch.
    pub golden: Option<u64>,
}

impl Sizes {
    /// The measured sizes of a workload.
    pub fn reference(w: Workload) -> Sizes {
        let itdk = Sizes {
            topology: GeneratorConfig::itdk_scale(GOLDEN_SEED),
            vps: 20,
            churn_epochs: 16,
            setup_repeats: 3,
            warmup_requests: 5_000,
            path_samples: 20_000,
            trace_samples: 2_000,
            golden: Some(GOLDEN_ITDK),
        };
        match w {
            Workload::BatchItdk | Workload::InferItdk | Workload::ServeItdk => itdk,
            Workload::ChurnDefault => Sizes {
                topology: GeneratorConfig {
                    seed: GOLDEN_SEED,
                    ..GeneratorConfig::default()
                },
                vps: 40,
                golden: Some(GOLDEN_CHURN),
                ..itdk
            },
        }
    }

    /// Small sizes for tests: the tiny topology and a few of everything.
    pub fn tiny() -> Sizes {
        Sizes {
            topology: GeneratorConfig::tiny(GOLDEN_SEED),
            vps: 4,
            churn_epochs: 3,
            setup_repeats: 2,
            warmup_requests: 20,
            path_samples: 200,
            trace_samples: 50,
            golden: None,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted: pipeline runs, annotation runs, requests or
    /// churn epochs.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// The traced run's validated Chrome trace.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The result plus the run's identity, as `--out` writes it and
    /// `compare` reads it.
    pub fn record_json(&self) -> String {
        let body = self.result_json();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"threads\": {}, \
             \"available_parallelism\": {}, {}",
            self.workload.name(),
            self.seed,
            self.traced,
            THREADS,
            available_parallelism(),
            &body[1..]
        )
    }
}

/// Cores the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload for `seconds` and checks its outputs. `Err` means the
/// run could not complete (a set-up step failed); failed output checks are
/// reported in the [`Outcome`] instead.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
) -> Result<Outcome, String> {
    let ctx = workloads::Ctx {
        workload: w,
        seed,
        seconds,
        sizes: sizes.clone(),
    };
    let mut outcome = match w {
        Workload::BatchItdk => workloads::drive::<workloads::Batch>(&ctx, traced),
        Workload::InferItdk => workloads::drive::<workloads::Infer>(&ctx, traced),
        Workload::ServeItdk => workloads::drive::<workloads::Serve>(&ctx, traced),
        Workload::ChurnDefault => workloads::drive::<workloads::Churn>(&ctx, traced),
    }?;
    check_declared(&spec::Spec::committed(), &mut outcome);
    Ok(outcome)
}

/// Records a problem unless the outcome carries exactly the declared
/// metrics of its mode, each finite, in declaration order with the declared
/// unit.
fn check_declared(spec: &spec::Spec, outcome: &mut Outcome) {
    let declared = spec.metrics(outcome.traced);
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if got != want {
        outcome.problems.push(format!(
            "emitted metrics {got:?} differ from the declared {want:?}"
        ));
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
}

/// Little-endian bytes of the fields a hash covers, digested with the
/// snapshot crate's FNV-1a.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u32s(&mut self, xs: impl IntoIterator<Item = u32>) {
        for x in xs {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }

    fn finish(&self) -> u64 {
        snapshot::fnv1a64(&self.0)
    }
}

/// A structural hash of an annotation result that no recorder, pool size or
/// clock can influence: router annotations, interdomain links, interface
/// annotations and the per-shard convergence traces.
pub fn annotation_hash(result: &Annotated) -> u64 {
    let mut h = Digest::default();
    let routers = result.router_annotations();
    h.len(routers.len());
    for (addr, asn) in routers {
        h.u32s([addr, asn.0]);
    }
    let links = result.interdomain_links();
    h.len(links.len());
    for l in links {
        h.u32s([l.ir.0, l.ir_as.0, l.iface_addr, l.conn_as.0]);
        h.u8(u8::from(l.last_hop));
    }
    h.len(result.state.iface.len());
    h.u32s(result.state.iface.iter().map(|a| a.0));
    h.len(result.state.convergence_traces.len());
    for trace in &result.state.convergence_traces {
        h.len(trace.len());
        for &x in trace {
            h.u64(x);
        }
    }
    h.finish()
}

/// A hash of a snapshot's decoded records (annotations, links, routers and
/// the prefix table). It pins what a snapshot says, not how the codec lays
/// it out, so a new optional section or a header change leaves it alone.
pub fn snapshot_hash(data: &SnapshotData) -> u64 {
    let mut h = Digest::default();
    h.len(data.annotations.len());
    for a in &data.annotations {
        h.u32s([a.addr, a.ir, a.asn.0, a.origin.0, a.conn.0]);
    }
    h.len(data.links.len());
    for l in &data.links {
        h.u32s([l.ir, l.ir_as.0, l.iface_addr, l.conn_as.0]);
        h.u8(u8::from(l.last_hop));
    }
    h.len(data.routers.len());
    for r in &data.routers {
        h.u32s([r.ir, r.asn.0]);
        h.len(r.ifaces.len());
        h.u32s(r.ifaces.iter().copied());
    }
    h.len(data.prefixes.len());
    for (p, asn) in &data.prefixes {
        h.u32s([p.addr()]);
        h.u8(p.len());
        h.u32s([asn.0]);
    }
    h.finish()
}

/// Checks an annotation result against the hash it must reproduce.
pub fn check_annotation(result: &Annotated, expected: u64) -> Result<(), String> {
    let got = annotation_hash(result);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "annotation hash {got:#018x} differs from the expected {expected:#018x}"
        ))
    }
}

/// Fraction of annotated interfaces in `data` whose router annotation names
/// the router's true operator in `net`. Over a snapshot built from a result
/// this equals `eval::experiments::heuristics::annotation_accuracy` on that
/// result; the churn workload needs this form because its driver returns
/// snapshots only.
pub fn snapshot_accuracy(net: &topo_gen::Internet, data: &SnapshotData) -> f64 {
    let (mut correct, mut total) = (0usize, 0usize);
    for a in &data.annotations {
        if a.asn.is_none() {
            continue;
        }
        let Some(iface) = net.topology.iface_by_addr(a.addr) else {
            continue;
        };
        total += 1;
        if net.topology.owner(iface.router) == a.asn {
            correct += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

/// The process's peak resident set (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
