//! Command-line plumbing for the `bdrmapit` binary.
//!
//! The library half exists so argument parsing and command dispatch are unit
//! testable; `main.rs` is a thin shell around [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn_cmd;
pub mod dataset;
pub mod diff;
pub mod service;

use eval::experiments::{aliases, heuristics, snapshots, stats, vps};
use eval::Scenario;
use std::fmt::Write as _;
use std::path::PathBuf;
use topo_gen::GeneratorConfig;

/// Which synthetic Internet scale to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `GeneratorConfig::tiny` — seconds, for smoke runs.
    Tiny,
    /// `GeneratorConfig::small` — the thread-sweep benchmark scale.
    Small,
    /// `GeneratorConfig::default` — the standard experiment scale.
    Default,
    /// `GeneratorConfig::itdk_scale` — the ITDK-shaped experiment scale.
    Itdk,
    /// `GeneratorConfig::large` — ~1e5 routers; the pool speedup-contract
    /// scale (release mode only).
    Large,
}

impl Scale {
    /// The scale's CLI label (what `--scale` accepts).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Itdk => "itdk",
            Scale::Large => "large",
        }
    }

    fn config(self, seed: u64) -> GeneratorConfig {
        match self {
            Scale::Tiny => GeneratorConfig::tiny(seed),
            Scale::Small => GeneratorConfig::small(seed),
            Scale::Default => GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
            Scale::Itdk => GeneratorConfig::itdk_scale(seed),
            Scale::Large => GeneratorConfig::large(seed),
        }
    }
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// The experiment or action to run.
    pub command: Command,
    /// Topology seed.
    pub seed: u64,
    /// Scale selection.
    pub scale: Scale,
    /// Number of VPs for Internet-wide experiments.
    pub vps: usize,
    /// Worker threads for the probe campaign and the phase-1 graph build
    /// (0 = all available parallelism). Output is bit-identical for every
    /// value.
    pub threads: usize,
    /// Write the JSON [`obs::RunReport`] here after the run.
    pub report: Option<PathBuf>,
    /// Print live phase enter/exit lines on stderr.
    pub trace: bool,
    /// Write the Chrome trace-event document (`bdrmapit.trace/v1`, loadable
    /// in Perfetto) here after the run.
    pub trace_out: Option<PathBuf>,
}

/// Supported subcommands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Print the generated Internet's summary.
    Generate,
    /// Run a campaign and print corpus statistics (Table 3 / §5).
    Stats,
    /// Fig. 15.
    Fig15,
    /// Figs. 16 & 17.
    Fig16,
    /// Figs. 18 & 19.
    Fig18,
    /// Fig. 20 + §7.4.
    Fig20,
    /// Heuristic ablations.
    Ablation,
    /// Everything, in figure order.
    All,
    /// Write a dataset bundle to disk.
    Probe {
        /// Output directory.
        out: PathBuf,
    },
    /// Run bdrmapIT from a dataset bundle on disk.
    Infer {
        /// Input directory.
        input: PathBuf,
    },
    /// Run the full synthetic pipeline end to end (all five phases).
    Pipeline,
    /// Step a churn schedule epoch by epoch (`pipeline --churn`): one
    /// snapshot per epoch, incremental-vs-full cost accounting, per-epoch
    /// reports.
    Churn {
        /// Churn epochs after the baseline.
        epochs: usize,
        /// Output directory for `epoch-NNN.snap` files and
        /// `churn-report.json`.
        dir: PathBuf,
        /// Also write the `bdrmapit.bench-churn/v2` artifact here.
        bench_out: Option<PathBuf>,
        /// Enforce the incremental-cheaper-than-full cost gate.
        gate: bool,
    },
    /// Run the pipeline and freeze the result into a binary snapshot.
    SnapshotWrite {
        /// Output snapshot file.
        out: PathBuf,
    },
    /// Print a snapshot's header, section table, and record counts.
    SnapshotInspect {
        /// Snapshot file to inspect.
        file: PathBuf,
    },
    /// Structurally compare two snapshots; exits nonzero when they differ.
    SnapshotDiff {
        /// Baseline snapshot.
        a: PathBuf,
        /// Candidate snapshot.
        b: PathBuf,
    },
    /// Serve a snapshot over TCP until terminated.
    Serve {
        /// Snapshot file to load.
        snapshot: PathBuf,
        /// Listen address (`host:port`; port 0 = OS-assigned).
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Per-connection read timeout in seconds.
        timeout_secs: u64,
    },
    /// Send one query to a running server.
    Query {
        /// Server address (`host:port`).
        server: String,
        /// Protocol verb.
        verb: String,
        /// The verb's argument (address, router id, or AS number).
        arg: Option<String>,
    },
    /// Compare two run reports; exits nonzero when the deterministic
    /// metrics diverge.
    ReportDiff {
        /// Baseline report.
        a: PathBuf,
        /// Candidate report.
        b: PathBuf,
        /// For churn-report bundles: the epoch pair to compare
        /// (`--epoch X` compares epoch X of both, `--epoch X:Y` compares
        /// A's epoch X against B's epoch Y).
        epoch: Option<(usize, usize)>,
    },
    /// Validate a `--trace-out` artifact and print its shape.
    TraceCheck {
        /// Trace file to validate.
        file: PathBuf,
    },
    /// Usage text.
    Help,
}

/// Parse errors carry the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Exit code for a successful run.
pub const EXIT_SUCCESS: u8 = 0;
/// Exit code for a runtime failure (I/O, invalid bundle, failed report
/// validation) — the arguments were fine, the run was not.
pub const EXIT_RUNTIME: u8 = 1;
/// Exit code for a usage error (bad arguments); the conventional `EX_USAGE`
/// family distinguishes "you called it wrong" from "it failed".
pub const EXIT_USAGE: u8 = 2;

/// Everything that can go wrong after `main` takes over: bad arguments or a
/// failed run. Each variant maps to a distinct process exit code so scripts
/// and CI can tell the two apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The command line did not parse ([`EXIT_USAGE`]).
    Usage(ParseError),
    /// The run itself failed ([`EXIT_RUNTIME`]).
    Runtime(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Runtime(_) => EXIT_RUNTIME,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> CliError {
        CliError::Usage(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
bdrmapit — reproduce 'Pushing the Boundaries with bdrmapIT' (IMC 2018)

USAGE:
    bdrmapit <COMMAND> [--seed N] [--scale tiny|small|default|itdk|large] [--vps N] [--threads N]
                       [--report FILE] [--trace]

COMMANDS:
    probe --out DIR    write a synthetic dataset bundle (traces.jsonl, nodes.txt,
                       as-rel.txt, prefix2as.txt, delegated-extended.txt, ixps.json,
                       truth.json) to DIR
    infer --in DIR     run bdrmapIT from a bundle; writes annotations.csv/links.csv
    pipeline    run the full synthetic pipeline end to end: generate the
                topology, probe, resolve aliases, build the IR graph, refine
    pipeline --churn --churn-dir DIR [--epochs N] [--bench-out FILE] [--churn-gate]
                step a seed-derived churn schedule epoch by epoch: re-probe
                only dirtied (vp,dst) pairs, re-annotate the spliced corpus,
                prove each epoch byte-identical to a full recompute; writes
                epoch-NNN.snap + churn-report.json to DIR and (with
                --bench-out) a bdrmapit.bench-churn/v2 cost artifact.
                --churn-gate fails the run unless incremental work stays
                below full-recompute work              [default epochs: 5]
    snapshot write --out FILE
                run the pipeline and freeze the result into a binary
                bdrmapit.snapshot/v1 file (annotations, links, routers,
                prefix->origin table; checksummed sections)
    snapshot inspect --file FILE
                print a snapshot's header, section table, and record counts
                (doubles as an integrity check)
    snapshot diff A.snap B.snap
                structurally compare two snapshots: routers added/removed,
                ASN reassignments, annotation agreement; prints JSON and,
                like grep, exits 0 when identical, 1 when they differ,
                2 on usage errors
    serve --snapshot FILE [--addr HOST:PORT] [--workers N] [--timeout SECS]
                serve the snapshot over TCP (newline-delimited JSON protocol)
                until terminated                 [default addr: 127.0.0.1:8642]
    query VERB [ARG] [--server HOST:PORT]
                query a running server; verbs: lookup_addr IP, lookup_prefix IP,
                router ID, links_of_as ASN, stats. A miss exits 1 (like grep)
    report diff A.json B.json [--epoch X[:Y]]
                compare two --report artifacts: counter deltas and phase
                wall-time ratios; exits 1 when deterministic metrics diverge.
                --epoch selects epochs from churn-report bundles: X compares
                epoch X of both, X:Y compares A's epoch X to B's epoch Y
    trace check FILE
                validate a --trace-out artifact (schema, timestamp order,
                span pairing) and print its shape
    generate    print a summary of the generated synthetic Internet
    stats       campaign statistics (Table 3 link labels, §5 coverage)
    fig15       single in-network VP: bdrmapIT vs bdrmap
    fig16       Internet-wide, no in-network VPs: bdrmapIT vs MAP-IT (+ Fig. 17)
    fig18       varying the number of VPs (+ Fig. 19)
    fig20       alias resolution impact (midar vs kapar, §7.4 no-alias)
    ablation    each bdrmapIT heuristic disabled in turn
    all         every experiment, in order
    help        this text

OPTIONS:
    --seed N     topology seed                    [default: 2018]
    --scale S    tiny | small | default | itdk | large   [default: default]
                 (large is the ~1e5-router speedup-contract scale; use a
                 release build)
    --vps N      vantage points                   [default: scale-dependent]
    --threads N  worker threads for the probe campaign and the phase-1
                 graph build; 0 = all cores, 1 = serial.
                 Results are identical for every value.   [default: 0]
    --report F   write the JSON run report (phase wall times, counters,
                 histograms; schema bdrmapit.run-report/v1) to F
    --trace      print live phase enter/exit lines on stderr
    --trace-out F
                 record per-worker trace events during the run and write a
                 Chrome trace-event document (schema bdrmapit.trace/v1,
                 loadable in Perfetto / chrome://tracing) to F

EXIT CODES:
    0  success        1  runtime failure        2  usage error
";

/// The default `host:port` for `serve` and `query`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8642";

/// Parses a command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let mut command = None;
    let mut seed = 2018u64;
    let mut scale = Scale::Default;
    let mut vps: Option<usize> = None;
    let mut threads = 0usize;
    let mut report: Option<PathBuf> = None;
    let mut trace = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut churn = false;
    let mut churn_epochs: Option<usize> = None;
    let mut churn_dir: Option<PathBuf> = None;
    let mut bench_out: Option<PathBuf> = None;
    let mut churn_gate = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "probe" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                command = Some(Command::Probe {
                    out: PathBuf::new(),
                });
            }
            "infer" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                command = Some(Command::Infer {
                    input: PathBuf::new(),
                });
            }
            "snapshot" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                command = Some(match it.next().map(String::as_str) {
                    Some("write") => Command::SnapshotWrite {
                        out: PathBuf::new(),
                    },
                    Some("inspect") => Command::SnapshotInspect {
                        file: PathBuf::new(),
                    },
                    Some("diff") => {
                        let mut file = || {
                            it.next()
                                .filter(|v| !v.starts_with("--"))
                                .map(PathBuf::from)
                                .ok_or_else(|| {
                                    ParseError("snapshot diff requires two snapshot files".into())
                                })
                        };
                        let (a, b) = (file()?, file()?);
                        Command::SnapshotDiff { a, b }
                    }
                    other => {
                        return Err(ParseError(format!(
                            "snapshot requires write|inspect|diff, got {other:?}"
                        )))
                    }
                });
            }
            "serve" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                command = Some(Command::Serve {
                    snapshot: PathBuf::new(),
                    addr: DEFAULT_SERVE_ADDR.to_string(),
                    workers: 4,
                    timeout_secs: 30,
                });
            }
            "report" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                match it.next().map(String::as_str) {
                    Some("diff") => {
                        let mut file = || {
                            it.next()
                                .filter(|v| !v.starts_with("--"))
                                .map(PathBuf::from)
                                .ok_or_else(|| {
                                    ParseError("report diff requires two report files".into())
                                })
                        };
                        let (a, b) = (file()?, file()?);
                        command = Some(Command::ReportDiff { a, b, epoch: None });
                    }
                    other => {
                        return Err(ParseError(format!("report requires diff, got {other:?}")))
                    }
                }
            }
            "trace" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                match it.next().map(String::as_str) {
                    Some("check") => {
                        let file = it
                            .next()
                            .filter(|v| !v.starts_with("--"))
                            .map(PathBuf::from)
                            .ok_or_else(|| ParseError("trace check requires FILE".into()))?;
                        command = Some(Command::TraceCheck { file });
                    }
                    other => {
                        return Err(ParseError(format!("trace requires check, got {other:?}")))
                    }
                }
            }
            "query" => {
                if command.is_some() {
                    return Err(ParseError("duplicate command".into()));
                }
                let verb = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ParseError("query requires a verb".into()))?
                    .clone();
                let arg = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if arg.is_some() {
                    it.next();
                }
                command = Some(Command::Query {
                    server: DEFAULT_SERVE_ADDR.to_string(),
                    verb,
                    arg,
                });
            }
            "--out" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--out needs a value".into()))?;
                match &mut command {
                    Some(Command::Probe { out }) => *out = PathBuf::from(v),
                    Some(Command::SnapshotWrite { out }) => *out = PathBuf::from(v),
                    _ => {
                        return Err(ParseError(
                            "--out only applies to probe and snapshot write".into(),
                        ))
                    }
                }
            }
            "--in" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--in needs a value".into()))?;
                match &mut command {
                    Some(Command::Infer { input }) => *input = PathBuf::from(v),
                    _ => return Err(ParseError("--in only applies to infer".into())),
                }
            }
            "--file" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--file needs a value".into()))?;
                match &mut command {
                    Some(Command::SnapshotInspect { file }) => *file = PathBuf::from(v),
                    _ => return Err(ParseError("--file only applies to snapshot inspect".into())),
                }
            }
            "--snapshot" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--snapshot needs a value".into()))?;
                match &mut command {
                    Some(Command::Serve { snapshot, .. }) => *snapshot = PathBuf::from(v),
                    _ => return Err(ParseError("--snapshot only applies to serve".into())),
                }
            }
            "--addr" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--addr needs a value".into()))?;
                match &mut command {
                    Some(Command::Serve { addr, .. }) => *addr = v.clone(),
                    _ => return Err(ParseError("--addr only applies to serve".into())),
                }
            }
            "--server" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--server needs a value".into()))?;
                match &mut command {
                    Some(Command::Query { server, .. }) => *server = v.clone(),
                    _ => return Err(ParseError("--server only applies to query".into())),
                }
            }
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--workers needs a value".into()))?;
                let n = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad worker count {v:?}")))?;
                match &mut command {
                    Some(Command::Serve { workers, .. }) => *workers = n,
                    _ => return Err(ParseError("--workers only applies to serve".into())),
                }
            }
            "--timeout" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--timeout needs a value".into()))?;
                let n = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad timeout {v:?}")))?;
                match &mut command {
                    Some(Command::Serve { timeout_secs, .. }) => *timeout_secs = n,
                    _ => return Err(ParseError("--timeout only applies to serve".into())),
                }
            }
            "generate" | "stats" | "pipeline" | "fig15" | "fig16" | "fig17" | "fig18" | "fig19"
            | "fig20" | "ablation" | "all" | "help" | "--help" | "-h" => {
                let cmd = match arg.as_str() {
                    "generate" => Command::Generate,
                    "stats" => Command::Stats,
                    "pipeline" => Command::Pipeline,
                    "fig15" => Command::Fig15,
                    "fig16" | "fig17" => Command::Fig16,
                    "fig18" | "fig19" => Command::Fig18,
                    "fig20" => Command::Fig20,
                    "ablation" => Command::Ablation,
                    "all" => Command::All,
                    _ => Command::Help,
                };
                if command.is_some() {
                    return Err(ParseError(format!("duplicate command {arg:?}")));
                }
                command = Some(cmd);
            }
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--seed needs a value".into()))?;
                seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad seed {v:?}")))?;
            }
            "--scale" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--scale needs a value".into()))?;
                scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "default" => Scale::Default,
                    "itdk" => Scale::Itdk,
                    "large" => Scale::Large,
                    other => return Err(ParseError(format!("unknown scale {other:?}"))),
                };
            }
            "--vps" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--vps needs a value".into()))?;
                vps = Some(
                    v.parse()
                        .map_err(|_| ParseError(format!("bad vp count {v:?}")))?,
                );
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--threads needs a value".into()))?;
                threads = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad thread count {v:?}")))?;
            }
            "--report" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--report needs a value".into()))?;
                report = Some(PathBuf::from(v));
            }
            "--trace" => trace = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--trace-out needs a value".into()))?;
                trace_out = Some(PathBuf::from(v));
            }
            "--churn" => churn = true,
            "--epochs" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--epochs needs a value".into()))?;
                churn_epochs = Some(
                    v.parse()
                        .map_err(|_| ParseError(format!("bad epoch count {v:?}")))?,
                );
            }
            "--churn-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--churn-dir needs a value".into()))?;
                churn_dir = Some(PathBuf::from(v));
            }
            "--bench-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--bench-out needs a value".into()))?;
                bench_out = Some(PathBuf::from(v));
            }
            "--churn-gate" => churn_gate = true,
            "--epoch" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--epoch needs a value".into()))?;
                let bad = || ParseError(format!("bad epoch selector {v:?} (want N or X:Y)"));
                let pair = if let Some((x, y)) = v.split_once(':') {
                    (x.parse().map_err(|_| bad())?, y.parse().map_err(|_| bad())?)
                } else {
                    let n: usize = v.parse().map_err(|_| bad())?;
                    (n, n)
                };
                match &mut command {
                    Some(Command::ReportDiff { epoch, .. }) => *epoch = Some(pair),
                    _ => return Err(ParseError("--epoch only applies to report diff".into())),
                }
            }
            other => return Err(ParseError(format!("unknown argument {other:?}"))),
        }
    }
    let command = command.ok_or_else(|| ParseError("no command given".into()))?;
    let command = if churn {
        match command {
            Command::Pipeline => Command::Churn {
                epochs: churn_epochs.unwrap_or(5),
                dir: churn_dir.ok_or_else(|| {
                    ParseError("pipeline --churn requires --churn-dir DIR".into())
                })?,
                bench_out,
                gate: churn_gate,
            },
            _ => return Err(ParseError("--churn only applies to pipeline".into())),
        }
    } else if churn_epochs.is_some() || churn_dir.is_some() || bench_out.is_some() || churn_gate {
        return Err(ParseError(
            "--epochs/--churn-dir/--bench-out/--churn-gate require pipeline --churn".into(),
        ));
    } else {
        command
    };
    match &command {
        Command::Probe { out } if out.as_os_str().is_empty() => {
            return Err(ParseError("probe requires --out DIR".into()))
        }
        Command::Infer { input } if input.as_os_str().is_empty() => {
            return Err(ParseError("infer requires --in DIR".into()))
        }
        Command::SnapshotWrite { out } if out.as_os_str().is_empty() => {
            return Err(ParseError("snapshot write requires --out FILE".into()))
        }
        Command::SnapshotInspect { file } if file.as_os_str().is_empty() => {
            return Err(ParseError("snapshot inspect requires --file FILE".into()))
        }
        Command::Serve { snapshot, .. } if snapshot.as_os_str().is_empty() => {
            return Err(ParseError("serve requires --snapshot FILE".into()))
        }
        _ => {}
    }
    let default_vps = match scale {
        Scale::Tiny => 8,
        Scale::Small => 12,
        Scale::Default => 20,
        Scale::Itdk => 60,
        // Paper-scale vantage-point pool (the IMC'18 dataset has 109 VPs);
        // `large` generates 380 transit/access/R&E ASes to draw them from.
        Scale::Large => 109,
    };
    Ok(Cli {
        command,
        seed,
        scale,
        vps: vps.unwrap_or(default_vps),
        threads,
        report,
        trace,
        trace_out,
    })
}

/// Executes a parsed command line, returning the report text. Runtime
/// failures (I/O, invalid bundles, failed run-report validation) come back
/// as [`CliError::Runtime`]; `main` maps them to [`EXIT_RUNTIME`].
pub fn run(cli: &Cli) -> Result<String, CliError> {
    let rec = if cli.trace_out.is_some() {
        obs::Recorder::with_tracing(cli.trace, obs::trace::DEFAULT_TRACK_CAPACITY)
    } else if cli.trace || cli.report.is_some() {
        obs::Recorder::new(cli.trace)
    } else {
        obs::Recorder::disabled()
    };
    let out = run_with_obs(cli, &rec)?;
    if let Some(path) = &cli.report {
        let report = rec.report();
        if cli.command == Command::Pipeline {
            // Only the pipeline command traverses all five phases; validate
            // so CI can gate on the exit code alone.
            report.validate().map_err(CliError::Runtime)?;
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
    }
    if let Some(path) = &cli.trace_out {
        let json = rec.tracer().finish().to_chrome_json();
        // The exporter sanitizes ring-wrap artifacts, so a failure here is
        // a bug, not bad input — surface it rather than writing a file the
        // `trace check` command would then reject.
        obs::trace::validate_chrome_json(&json)
            .map_err(|e| CliError::Runtime(format!("internal: trace export invalid: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
    }
    Ok(out)
}

fn run_with_obs(cli: &Cli, rec: &obs::Recorder) -> Result<String, CliError> {
    let runtime = |e: std::io::Error| CliError::Runtime(e.to_string());
    if cli.command == Command::Help {
        return Ok(USAGE.to_string());
    }
    // File-driven commands handle their own I/O and reporting.
    match &cli.command {
        Command::Probe { out } => {
            return dataset::write_bundle(
                out,
                cli.scale.config(cli.seed),
                cli.vps,
                cli.seed,
                cli.threads,
                rec,
            )
            .map_err(runtime);
        }
        Command::Infer { input } => {
            return dataset::infer_from_bundle(input, cli.threads, rec).map_err(runtime);
        }
        Command::SnapshotWrite { out } => return service::snapshot_write(cli, out, rec),
        Command::SnapshotInspect { file } => return service::snapshot_inspect(file),
        Command::Serve {
            snapshot,
            addr,
            workers,
            timeout_secs,
        } => return service::serve_cmd(snapshot, addr, *workers, *timeout_secs, rec),
        Command::Query { server, verb, arg } => {
            return service::query_cmd(server, verb, arg.as_deref());
        }
        Command::ReportDiff { a, b, epoch } => return diff::report_diff(a, b, *epoch),
        Command::SnapshotDiff { a, b } => return diff::snapshot_diff(a, b),
        Command::TraceCheck { file } => return diff::trace_check(file),
        Command::Churn {
            epochs,
            dir,
            bench_out,
            gate,
        } => return churn_cmd::churn_pipeline(cli, *epochs, dir, bench_out.as_deref(), *gate, rec),
        _ => {}
    }
    let mut s = Scenario::build_with_obs(cli.scale.config(cli.seed), rec.clone());
    s.threads = cli.threads;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "synthetic Internet: {} ASes, {} routers, {} interfaces, {} BGP prefixes, seed {}",
        s.net.graph.len(),
        s.net.topology.router_count(),
        s.net.topology.iface_count(),
        s.rib.prefix_count(),
        cli.seed
    );
    let _ = writeln!(
        out,
        "validation networks: Tier 1 = {}, L Access = {}, R&E 1 = {}, R&E 2 = {}\n",
        s.validation.tier1, s.validation.large_access, s.validation.re1, s.validation.re2
    );
    match cli.command {
        Command::Generate => {
            let links = s.net.true_links();
            let _ = writeln!(
                out,
                "ground truth: {} interdomain router-level links, {} AS relationships, {} IXPs",
                links.len(),
                s.net.graph.relationships.len(),
                s.net.graph.ixps.len()
            );
        }
        Command::Stats => {
            let bundle = s.campaign(cli.vps, true, cli.seed);
            let _ = writeln!(out, "{}", stats::corpus_stats(&s, &bundle).render());
        }
        Command::Pipeline => {
            let bundle = s.campaign(cli.vps, true, cli.seed);
            let cfg = bdrmapit_core::Config {
                threads: cli.threads,
                ..bdrmapit_core::Config::default()
            };
            let result = eval::experiments::run_bdrmapit(&s, &bundle, cfg);
            let _ = writeln!(
                out,
                "pipeline: {} traces from {} VPs, {} alias groups, {} IRs, \
                 {} refinement iterations, {} interdomain links",
                bundle.traces.len(),
                bundle.vps.len(),
                bundle.aliases.len(),
                result.graph.irs.len(),
                result.state.iterations,
                result.interdomain_links().len()
            );
        }
        Command::Fig15 => {
            // The paper reports 2016 and 2018 snapshot groups; the current
            // scenario serves as the 2016 snapshot.
            let snaps = snapshots::Snapshots {
                y2016: s,
                y2018: Scenario::build(cli.scale.config(cli.seed ^ 0x2018_2018)),
            };
            let _ = writeln!(out, "{}", snapshots::fig15_dual(&snaps, cli.seed).render());
            return Ok(out);
        }
        Command::Fig16 => {
            let snaps = snapshots::Snapshots {
                y2016: s,
                y2018: Scenario::build(cli.scale.config(cli.seed ^ 0x2018_2018)),
            };
            let _ = writeln!(
                out,
                "{}",
                snapshots::fig16_dual(&snaps, cli.vps, cli.seed).render()
            );
            return Ok(out);
        }
        Command::Fig18 => {
            let groups = groups_for(cli.vps);
            let _ = writeln!(out, "{}", vps::sweep(&s, &groups, 5, cli.seed).render());
        }
        Command::Fig20 => {
            let _ = writeln!(out, "{}", aliases::fig20(&s, cli.vps, cli.seed).render());
        }
        Command::Ablation => {
            let _ = writeln!(
                out,
                "{}",
                heuristics::ablation(&s, cli.vps, cli.seed).render()
            );
        }
        Command::All => {
            let bundle = s.campaign(cli.vps, true, cli.seed);
            let _ = writeln!(out, "{}", stats::corpus_stats(&s, &bundle).render());
            let snaps = snapshots::Snapshots {
                y2016: s,
                y2018: Scenario::build(cli.scale.config(cli.seed ^ 0x2018_2018)),
            };
            let _ = writeln!(out, "{}", snapshots::fig15_dual(&snaps, cli.seed).render());
            let _ = writeln!(
                out,
                "{}",
                snapshots::fig16_dual(&snaps, cli.vps, cli.seed).render()
            );
            let s = snaps.y2016;
            let groups = groups_for(cli.vps);
            let _ = writeln!(out, "{}", vps::sweep(&s, &groups, 5, cli.seed).render());
            let _ = writeln!(out, "{}", aliases::fig20(&s, cli.vps, cli.seed).render());
            let _ = writeln!(
                out,
                "{}",
                heuristics::ablation(&s, cli.vps, cli.seed).render()
            );
        }
        Command::Help
        | Command::Probe { .. }
        | Command::Infer { .. }
        | Command::Churn { .. }
        | Command::SnapshotWrite { .. }
        | Command::SnapshotInspect { .. }
        | Command::SnapshotDiff { .. }
        | Command::Serve { .. }
        | Command::Query { .. }
        | Command::ReportDiff { .. }
        | Command::TraceCheck { .. } => {
            unreachable!("handled above")
        }
    }
    Ok(out)
}

/// The paper sweeps 20/40/60/80 VPs; scale the ladder to the configured VP
/// budget (quarters of the doubled budget).
pub fn groups_for(vps: usize) -> Vec<usize> {
    let max = (vps * 2).max(4);
    (1..=4).map(|i| (max * i / 4).max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parse_defaults() {
        let cli = parse(&args(&["fig16"])).unwrap();
        assert_eq!(cli.command, Command::Fig16);
        assert_eq!(cli.seed, 2018);
        assert_eq!(cli.scale, Scale::Default);
        assert_eq!(cli.vps, 20);
        assert_eq!(cli.threads, 0, "--threads defaults to auto");
    }

    #[test]
    fn parse_options() {
        let cli = parse(&args(&[
            "fig18",
            "--seed",
            "7",
            "--scale",
            "tiny",
            "--vps",
            "5",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(cli.command, Command::Fig18);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.scale, Scale::Tiny);
        assert_eq!(cli.vps, 5);
        assert_eq!(cli.threads, 4);
    }

    #[test]
    fn parse_aliases_fig17_fig19() {
        assert_eq!(parse(&args(&["fig17"])).unwrap().command, Command::Fig16);
        assert_eq!(parse(&args(&["fig19"])).unwrap().command, Command::Fig18);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["bogus"])).is_err());
        assert!(parse(&args(&["fig15", "--seed"])).is_err());
        assert!(parse(&args(&["fig15", "--seed", "x"])).is_err());
        assert!(parse(&args(&["fig15", "--scale", "huge"])).is_err());
        assert!(parse(&args(&["fig15", "fig16"])).is_err());
        assert!(parse(&args(&["fig15", "--threads"])).is_err());
        assert!(parse(&args(&["fig15", "--threads", "many"])).is_err());
    }

    #[test]
    fn help_runs_without_building_a_scenario() {
        let cli = parse(&args(&["help"])).unwrap();
        assert_eq!(run(&cli).unwrap(), USAGE);
    }

    #[test]
    fn parse_report_and_trace() {
        let cli = parse(&args(&["pipeline", "--report", "r.json", "--trace"])).unwrap();
        assert_eq!(cli.command, Command::Pipeline);
        assert_eq!(cli.report, Some(PathBuf::from("r.json")));
        assert!(cli.trace);
        let cli = parse(&args(&["stats"])).unwrap();
        assert_eq!(cli.report, None);
        assert!(!cli.trace);
        assert!(parse(&args(&["pipeline", "--report"])).is_err());
    }

    #[test]
    fn exit_codes_distinguish_usage_from_runtime() {
        let usage = CliError::from(ParseError("bad".into()));
        assert_eq!(usage.exit_code(), EXIT_USAGE);
        let runtime = CliError::Runtime("io failed".into());
        assert_eq!(runtime.exit_code(), EXIT_RUNTIME);
        assert_ne!(EXIT_USAGE, EXIT_RUNTIME);
        assert_ne!(EXIT_USAGE, EXIT_SUCCESS);
        assert_ne!(EXIT_RUNTIME, EXIT_SUCCESS);
        // Display carries the message without decorating it; main adds the
        // "error:" prefix and (for usage errors) the usage text.
        assert_eq!(usage.to_string(), "invalid arguments: bad");
        assert_eq!(runtime.to_string(), "io failed");
    }

    #[test]
    fn runtime_failures_are_runtime_errors_not_usage() {
        // A well-formed command line pointing at a bundle that does not
        // exist: parse succeeds, run fails with EXIT_RUNTIME.
        let cli = parse(&args(&["infer", "--in", "/nonexistent/bundle-dir"])).unwrap();
        let err = run(&cli).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);
    }

    #[test]
    fn pipeline_tiny_writes_validated_report() {
        let path =
            std::env::temp_dir().join(format!("bdrmapit-test-report-{}.json", std::process::id()));
        let cli = parse(&args(&[
            "pipeline",
            "--scale",
            "tiny",
            "--vps",
            "4",
            "--report",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("pipeline:"), "{out}");
        let report = obs::RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.validate(), Ok(()));
        for phase in obs::names::MANDATORY_PHASES {
            assert!(report.phases.contains_key(*phase), "missing {phase}");
        }
        // The campaign indexes the corpus once; alias resolution and phase
        // 1 read that index instead of building their own.
        assert_eq!(report.phases[obs::names::CORPUS_INDEX].count, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn infer_report_spans_ip2as_outputs_and_scoring() {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("bdrmapit-test-infer-spans-{pid}"));
        let path = std::env::temp_dir().join(format!("bdrmapit-test-infer-report-{pid}.json"));
        let dir_arg = dir.to_str().unwrap();
        let probe = parse(&args(&[
            "probe", "--out", dir_arg, "--scale", "tiny", "--vps", "3",
        ]));
        run(&probe.unwrap()).unwrap();
        let infer = parse(&args(&[
            "infer",
            "--in",
            dir_arg,
            "--report",
            path.to_str().unwrap(),
        ]));
        run(&infer.unwrap()).unwrap();
        let report = obs::RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for phase in [
            obs::names::PHASE_IP2AS_BUILD,
            obs::names::PHASE_WRITE_OUTPUTS,
            obs::names::PHASE_SCORE_TRUTH,
        ] {
            assert!(report.phases.contains_key(phase), "missing {phase}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_snapshot_commands() {
        let cli = parse(&args(&["snapshot", "write", "--out", "x.snap"])).unwrap();
        assert_eq!(
            cli.command,
            Command::SnapshotWrite {
                out: PathBuf::from("x.snap")
            }
        );
        let cli = parse(&args(&["snapshot", "inspect", "--file", "x.snap"])).unwrap();
        assert_eq!(
            cli.command,
            Command::SnapshotInspect {
                file: PathBuf::from("x.snap")
            }
        );
        assert!(parse(&args(&["snapshot"])).is_err());
        assert!(parse(&args(&["snapshot", "rewind"])).is_err());
        assert!(parse(&args(&["snapshot", "write"])).is_err());
        assert!(parse(&args(&["snapshot", "inspect"])).is_err());
        assert!(parse(&args(&["snapshot", "inspect", "--out", "x"])).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let cli = parse(&args(&["serve", "--snapshot", "x.snap"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                snapshot: PathBuf::from("x.snap"),
                addr: DEFAULT_SERVE_ADDR.to_string(),
                workers: 4,
                timeout_secs: 30,
            }
        );
        let cli = parse(&args(&[
            "serve",
            "--snapshot",
            "x.snap",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--timeout",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                snapshot: PathBuf::from("x.snap"),
                addr: "0.0.0.0:9000".to_string(),
                workers: 8,
                timeout_secs: 5,
            }
        );
        assert!(parse(&args(&["serve"])).is_err(), "snapshot is required");
        assert!(parse(&args(&["serve", "--snapshot", "x", "--workers", "lots"])).is_err());
        assert!(parse(&args(&["pipeline", "--addr", "x"])).is_err());
    }

    #[test]
    fn parse_query_verbs_and_args() {
        let cli = parse(&args(&["query", "lookup_addr", "10.0.0.1"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Query {
                server: DEFAULT_SERVE_ADDR.to_string(),
                verb: "lookup_addr".to_string(),
                arg: Some("10.0.0.1".to_string()),
            }
        );
        let cli = parse(&args(&["query", "stats", "--server", "127.0.0.1:9"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Query {
                server: "127.0.0.1:9".to_string(),
                verb: "stats".to_string(),
                arg: None,
            }
        );
        assert!(parse(&args(&["query"])).is_err(), "verb is required");
        assert!(parse(&args(&["query", "--server", "x"])).is_err());
        assert!(parse(&args(&["stats", "--server", "x"])).is_err());
    }

    #[test]
    fn parse_report_diff_and_trace_check() {
        let cli = parse(&args(&["report", "diff", "a.json", "b.json"])).unwrap();
        assert_eq!(
            cli.command,
            Command::ReportDiff {
                a: PathBuf::from("a.json"),
                b: PathBuf::from("b.json"),
                epoch: None,
            }
        );
        let cli = parse(&args(&["trace", "check", "t.json"])).unwrap();
        assert_eq!(
            cli.command,
            Command::TraceCheck {
                file: PathBuf::from("t.json")
            }
        );
        assert!(parse(&args(&["report"])).is_err());
        assert!(parse(&args(&["report", "diff"])).is_err());
        assert!(parse(&args(&["report", "diff", "a.json"])).is_err());
        assert!(parse(&args(&["report", "burn"])).is_err());
        assert!(parse(&args(&["trace"])).is_err());
        assert!(parse(&args(&["trace", "check"])).is_err());
        assert!(parse(&args(&["trace", "erase"])).is_err());
    }

    #[test]
    fn parse_trace_out() {
        let cli = parse(&args(&["pipeline", "--trace-out", "t.json"])).unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.json")));
        assert!(!cli.trace, "--trace-out does not imply --trace");
        assert!(parse(&args(&["pipeline", "--trace-out"])).is_err());
    }

    #[test]
    fn pipeline_tiny_writes_valid_trace() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join(format!("bdrmapit-test-trace-{}.json", std::process::id()));
        let cli = parse(&args(&[
            "pipeline",
            "--scale",
            "tiny",
            "--vps",
            "4",
            "--threads",
            "2",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cli).unwrap();
        // The CLI already validated before writing; `trace check` agrees.
        let check_cli = parse(&args(&["trace", "check", trace_path.to_str().unwrap()])).unwrap();
        let out = run(&check_cli).unwrap();
        assert!(out.contains("valid bdrmapit.trace/v1"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        for needle in ["pool.task", "pool.batch", "refine.wave", "phase3.refine"] {
            assert!(text.contains(needle), "trace lacks {needle}");
        }
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn report_diff_gates_on_determinism_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let a = dir.join(format!("bdrmapit-test-diff-a-{pid}.json"));
        let b = dir.join(format!("bdrmapit-test-diff-b-{pid}.json"));
        for (path, threads) in [(&a, "1"), (&b, "2")] {
            let cli = parse(&args(&[
                "pipeline",
                "--scale",
                "tiny",
                "--vps",
                "4",
                "--threads",
                threads,
                "--report",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            run(&cli).unwrap();
        }
        // Same corpus at different thread counts: deterministic slices
        // agree, so the diff is clean (exec counters may differ freely).
        let cli = parse(&args(&[
            "report",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("deterministic metrics agree"), "{out}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn parse_churn_pipeline() {
        let cli = parse(&args(&["pipeline", "--churn", "--churn-dir", "out"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Churn {
                epochs: 5,
                dir: PathBuf::from("out"),
                bench_out: None,
                gate: false,
            }
        );
        let cli = parse(&args(&[
            "pipeline",
            "--churn",
            "--epochs",
            "3",
            "--churn-dir",
            "out",
            "--bench-out",
            "bench.json",
            "--churn-gate",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Churn {
                epochs: 3,
                dir: PathBuf::from("out"),
                bench_out: Some(PathBuf::from("bench.json")),
                gate: true,
            }
        );
        // --churn requires pipeline and --churn-dir; churn flags without
        // --churn are rejected.
        assert!(parse(&args(&["pipeline", "--churn"])).is_err());
        assert!(parse(&args(&["generate", "--churn", "--churn-dir", "d"])).is_err());
        assert!(parse(&args(&["pipeline", "--epochs", "3"])).is_err());
        assert!(parse(&args(&["pipeline", "--churn-dir", "d"])).is_err());
        assert!(parse(&args(&["pipeline", "--churn-gate"])).is_err());
        assert!(parse(&args(&[
            "pipeline",
            "--churn",
            "--churn-dir",
            "d",
            "--epochs",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn parse_snapshot_diff() {
        let cli = parse(&args(&["snapshot", "diff", "a.snap", "b.snap"])).unwrap();
        assert_eq!(
            cli.command,
            Command::SnapshotDiff {
                a: PathBuf::from("a.snap"),
                b: PathBuf::from("b.snap"),
            }
        );
        assert!(parse(&args(&["snapshot", "diff"])).is_err());
        assert!(parse(&args(&["snapshot", "diff", "a.snap"])).is_err());
    }

    #[test]
    fn parse_report_diff_epoch() {
        let cli = parse(&args(&[
            "report", "diff", "a.json", "b.json", "--epoch", "2",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::ReportDiff {
                a: PathBuf::from("a.json"),
                b: PathBuf::from("b.json"),
                epoch: Some((2, 2)),
            }
        );
        let cli = parse(&args(&[
            "report", "diff", "a.json", "b.json", "--epoch", "1:4",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::ReportDiff {
                a: PathBuf::from("a.json"),
                b: PathBuf::from("b.json"),
                epoch: Some((1, 4)),
            }
        );
        assert!(parse(&args(&["report", "diff", "a", "b", "--epoch"])).is_err());
        assert!(parse(&args(&["report", "diff", "a", "b", "--epoch", "x"])).is_err());
        assert!(parse(&args(&["report", "diff", "a", "b", "--epoch", "1:z"])).is_err());
        assert!(parse(&args(&["pipeline", "--epoch", "1"])).is_err());
    }

    #[test]
    fn groups_ladder() {
        assert_eq!(groups_for(20), vec![10, 20, 30, 40]);
        assert_eq!(groups_for(1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn generate_tiny_runs() {
        let cli = parse(&args(&["generate", "--scale", "tiny", "--seed", "3"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("synthetic Internet"));
        assert!(out.contains("ground truth"));
    }

    #[test]
    fn stats_tiny_runs() {
        let cli = parse(&args(&["stats", "--scale", "tiny", "--vps", "4"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("Table 3"));
    }
}
