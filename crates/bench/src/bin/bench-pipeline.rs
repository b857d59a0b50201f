//! Writes `BENCH_pipeline.json` (`bdrmapit.bench-pipeline/v3`): a thread
//! sweep of the instrumented pipeline across one or more scales, with
//! per-phase wall times, `speedup` and `end_to_end` sections, a structural
//! output hash per run, and the scale at which the worker pool's
//! end-to-end speedup first crosses 1.0x.
//!
//! Unlike the Criterion benches (statistical, minutes), this is a handful
//! of instrumented runs — cheap enough for CI to produce on every push, so
//! the perf trajectory of each phase accumulates as build artifacts. The
//! output hash doubles as a determinism gate: the process exits nonzero if
//! any thread count's output diverges from the serial run, so the CI
//! `bench-sweep` / `bench-large` jobs fail loudly on a regression.
//!
//! v3 schema changes vs v2:
//! - topology/RIB/relationship generation happens ONCE per scale, outside
//!   the timed region (v2 re-generated the corpus topology inside every
//!   thread-sweep iteration, polluting wall-clock totals); its cost is
//!   reported separately as `generate_ms`
//! - every thread run dispatches campaign, graph build, and refinement on
//!   ONE shared worker pool, and reports that pool's cumulative scheduling
//!   stats (tasks, steals, batches, busy time)
//! - an `end_to_end` speedup series (sum of the top-level phases) joins the
//!   per-phase ones, and the top-level `crossover` records the first swept
//!   scale where end-to-end speedup at 2 threads exceeds 1.0
//! - scales and thread counts are selectable from the command line, and
//!   `--contract T:MIN` turns a minimum end-to-end speedup into an exit
//!   code (the CI bench-large gate)
//! - `end_to_end_ms` sums the top-level phases only (`TOP_LEVEL_PHASES`):
//!   the `phase1.*` sub-spans nested inside `phase1.graph` are reported but
//!   not counted twice
//! - the document records the host's `available_parallelism`, and a run
//!   with more threads than cores is flagged `oversubscribed`: its speedup
//!   measures scheduling overhead, not scaling
//!
//! Usage:
//!   bench-pipeline [--scales S1,S2] [--threads T1,T2] [--contract T:MIN]
//!                  [OUTPUT_PATH]
//! Defaults: `--scales tiny,small --threads 1,2,4,8 BENCH_pipeline.json`.
//! Scales: tiny | small | default | itdk | large (large is the ~1e5-router
//! speedup-contract scale; release mode strongly advised).

#![forbid(unsafe_code)]

use bdrmapit_core::{Annotated, Config};
use eval::experiments::run_bdrmapit;
use eval::Scenario;
use obs::names;
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use topo_gen::GeneratorConfig;

const SEED: u64 = 2018;
const DEFAULT_THREADS: [usize; 4] = [1, 2, 4, 8];
const DEFAULT_SCALES: [&str; 2] = ["tiny", "small"];
/// The phases whose scaling the sweep reports individually: the two
/// front-end phases, their combination, and the refinement engine.
const SWEPT_PHASES: [&str; 3] = [
    names::PHASE_TRACEROUTE,
    names::PHASE_GRAPH,
    names::PHASE_REFINE,
];
const FRONT_END_COMBINED: &str = "front_end_combined";
/// Sum of the top-level timed phases (campaign through refinement;
/// generation is outside the timed region by construction).
const END_TO_END: &str = "end_to_end";
/// The phases a run's wall time is made of. Every other span in a run
/// report (the `phase1.*` passes) nests inside one of these.
const TOP_LEVEL_PHASES: [&str; 5] = [
    names::PHASE_TRACEROUTE,
    names::PHASE_ALIAS,
    names::PHASE_GRAPH,
    names::PHASE_LASTHOP,
    names::PHASE_REFINE,
];
/// The phases every per-run report must cover. `topo.generate` is absent
/// by design (hoisted out of the sweep), so `RunReport::validate` — which
/// demands it — does not apply; this is the sweep's own mandatory list.
const RUN_PHASES: [&str; 4] = [
    names::PHASE_TRACEROUTE,
    names::PHASE_ALIAS,
    names::PHASE_GRAPH,
    names::PHASE_REFINE,
];
/// The thread count the crossover scale is judged at.
const CROSSOVER_THREADS: usize = 2;

/// The benchmark document: run parameters plus one sweep per scale.
#[derive(Serialize)]
struct BenchDoc {
    schema: &'static str,
    seed: u64,
    /// Cores the host offers this process.
    available_parallelism: usize,
    threads_swept: Vec<usize>,
    scales: Vec<ScaleDoc>,
    crossover: CrossoverDoc,
}

/// The first swept scale whose end-to-end speedup at `threads` exceeds
/// 1.0 — i.e. where the worker pool starts paying for itself. `None` when
/// no swept scale crosses (expected on single-core hosts, where the sweep
/// measures pure scheduling overhead).
#[derive(Serialize)]
struct CrossoverDoc {
    threads: usize,
    scale: Option<String>,
}

/// One scale's thread sweep.
#[derive(Serialize)]
struct ScaleDoc {
    scale: String,
    vps: usize,
    /// Wall time of the untimed-region setup (topology + RIB + IP→AS +
    /// relationship inference), run once and reused by every thread run.
    generate_ms: f64,
    iterations: u64,
    routers_annotated: u64,
    interdomain_links: usize,
    /// Structural hash of the serial (threads = 1) run's output.
    output_hash: String,
    /// True iff every swept thread count reproduced `output_hash`.
    hashes_consistent: bool,
    /// Wall(1) / wall(N) per phase, keyed phase → thread count.
    speedup: BTreeMap<&'static str, BTreeMap<String, f64>>,
    runs: Vec<RunDoc>,
    /// Full run report of the serial baseline.
    baseline_report: obs::RunReport,
}

/// One pipeline run at a fixed thread count.
#[derive(Serialize)]
struct RunDoc {
    threads: usize,
    /// More threads than `available_parallelism`: not scaling evidence.
    oversubscribed: bool,
    output_hash: String,
    /// Sum of the top-level phases' wall times.
    end_to_end_ms: f64,
    phase_wall_ms: BTreeMap<String, f64>,
    /// Cumulative scheduling stats of the run's shared worker pool.
    pool: PoolDoc,
}

/// The shared pool's counters for one run.
#[derive(Serialize)]
struct PoolDoc {
    tasks: u64,
    steals: u64,
    batches: u64,
    busy_ms: f64,
}

/// The observable output of one pipeline run, in canonical (sorted-map,
/// fixed field order) JSON form for hashing.
#[derive(Serialize)]
struct OutputDoc<'a> {
    routers: Vec<(u32, net_types::Asn)>,
    links: Vec<bdrmapit_core::InferredLink>,
    ifaces: &'a [net_types::Asn],
    convergence: &'a [Vec<u64>],
    counters: &'a BTreeMap<String, u64>,
    histograms: &'a BTreeMap<String, obs::HistogramSummary>,
}

/// FNV-1a over a canonical JSON rendering of everything downstream
/// consumers can observe: annotations, links, convergence traces, and the
/// deterministic counter/histogram slice of the run report. Wall times and
/// exec counters (worker slots, steal counts) are excluded by
/// construction — they legitimately vary with the thread count.
fn output_hash(result: &Annotated, report: &obs::RunReport) -> u64 {
    let doc = OutputDoc {
        routers: result.router_annotations(),
        links: result.interdomain_links(),
        ifaces: &result.state.iface,
        convergence: &result.state.convergence_traces,
        counters: &report.counters,
        histograms: &report.histograms,
    };
    let text = serde_json::to_string(&doc).expect("output document serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolves a scale name to its generator config and default VP count.
fn scale_config(name: &str) -> Option<(GeneratorConfig, usize)> {
    Some(match name {
        "tiny" => (GeneratorConfig::tiny(SEED), 8),
        "small" => (GeneratorConfig::small(SEED), 12),
        "default" => (
            GeneratorConfig {
                seed: SEED,
                ..GeneratorConfig::default()
            },
            20,
        ),
        "itdk" => (GeneratorConfig::itdk_scale(SEED), 60),
        "large" => (GeneratorConfig::large(SEED), 109),
        _ => return None,
    })
}

/// One instrumented pipeline run on a pre-built scenario: installs a fresh
/// recorder and a shared `threads`-sized worker pool, then runs campaign →
/// alias → graph → lasthop → refine. Topology generation happened once,
/// before any run; only pipeline phases land in this run's report.
fn run_once(
    scenario: &mut Scenario,
    vps: usize,
    threads: usize,
) -> (Annotated, obs::RunReport, PoolDoc) {
    let rec = obs::Recorder::new(false);
    let wp = Arc::new(pool::WorkerPool::with_recorder(threads, rec.clone()));
    scenario.obs = rec.clone();
    scenario.threads = threads;
    scenario.pool = Some(Arc::clone(&wp));
    let bundle = scenario.campaign(vps, true, SEED);
    let cfg = Config {
        threads,
        ..Config::default()
    };
    let result = run_bdrmapit(scenario, &bundle, cfg);
    let stats = wp.stats();
    let pool_doc = PoolDoc {
        tasks: stats.tasks,
        steals: stats.steals,
        batches: stats.batches,
        busy_ms: stats.busy_nanos as f64 / 1e6,
    };
    (result, rec.report(), pool_doc)
}

/// The sweep's own report validation (see [`RUN_PHASES`]).
fn validate_run(report: &obs::RunReport) -> Result<(), String> {
    for phase in RUN_PHASES {
        if !report.phases.contains_key(phase) {
            return Err(format!("phase {phase} missing from run report"));
        }
    }
    match report.counters.get(names::REFINE_ITERATIONS) {
        Some(&n) if n > 0 => Ok(()),
        _ => Err("refine.iterations is missing or zero".into()),
    }
}

fn sweep_scale(scale: &str, threads_swept: &[usize], cores: usize) -> Result<ScaleDoc, String> {
    let (gen_cfg, vps) = scale_config(scale).ok_or_else(|| format!("unknown scale {scale:?}"))?;

    // Generation is deliberately OUTSIDE the timed sweep: one scenario per
    // scale, reused by every thread run. Its own recorder captures the
    // setup cost for the report but never mixes into per-run phase times.
    let setup_rec = obs::Recorder::new(false);
    let mut scenario = Scenario::build_with_obs(gen_cfg, setup_rec.clone());
    let setup_report = setup_rec.report();
    let generate_ms = setup_report
        .phases
        .get(names::PHASE_TOPO)
        .map_or(0.0, |s| s.wall_ms);

    let mut runs = Vec::new();
    let mut baseline: Option<(Annotated, obs::RunReport)> = None;
    for &threads in threads_swept {
        let (result, report, pool_doc) = run_once(&mut scenario, vps, threads);
        validate_run(&report)
            .map_err(|e| format!("{scale} threads={threads}: incomplete run report: {e}"))?;
        let phase_wall_ms: BTreeMap<String, f64> = report
            .phases
            .iter()
            .map(|(name, stats)| (name.clone(), stats.wall_ms))
            .collect();
        runs.push(RunDoc {
            threads,
            oversubscribed: threads > cores,
            output_hash: format!("{:#018x}", output_hash(&result, &report)),
            end_to_end_ms: end_to_end_ms(&phase_wall_ms),
            phase_wall_ms,
            pool: pool_doc,
        });
        if baseline.is_none() {
            baseline = Some((result, report));
        }
    }
    let (result, report) = baseline.expect("sweep ran at least once");

    let serial_hash = runs[0].output_hash.clone();
    let hashes_consistent = runs.iter().all(|r| r.output_hash == serial_hash);

    // Speedup = serial wall time over parallel wall time, per swept phase
    // plus the combined front-end and the all-phases end-to-end series.
    let wall = |run: &RunDoc, phase: &str| run.phase_wall_ms.get(phase).copied().unwrap_or(0.0);
    let front_end =
        |run: &RunDoc| wall(run, names::PHASE_TRACEROUTE) + wall(run, names::PHASE_GRAPH);
    let mut speedup: BTreeMap<&'static str, BTreeMap<String, f64>> = BTreeMap::new();
    for run in &runs {
        for phase in SWEPT_PHASES {
            let base = wall(&runs[0], phase);
            let now = wall(run, phase);
            if now > 0.0 {
                speedup
                    .entry(phase)
                    .or_default()
                    .insert(run.threads.to_string(), base / now);
            }
        }
        if front_end(run) > 0.0 {
            speedup.entry(FRONT_END_COMBINED).or_default().insert(
                run.threads.to_string(),
                front_end(&runs[0]) / front_end(run),
            );
        }
        if run.end_to_end_ms > 0.0 {
            speedup.entry(END_TO_END).or_default().insert(
                run.threads.to_string(),
                runs[0].end_to_end_ms / run.end_to_end_ms,
            );
        }
    }

    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    Ok(ScaleDoc {
        scale: scale.to_string(),
        vps,
        generate_ms,
        iterations: counter(names::REFINE_ITERATIONS),
        routers_annotated: counter(names::REFINE_ROUTERS_ANNOTATED),
        interdomain_links: result.interdomain_links().len(),
        output_hash: serial_hash,
        hashes_consistent,
        speedup,
        runs,
        baseline_report: report,
    })
}

/// Sum of the top-level phases' wall times.
fn end_to_end_ms(phase_wall_ms: &BTreeMap<String, f64>) -> f64 {
    TOP_LEVEL_PHASES
        .iter()
        .filter_map(|&phase| phase_wall_ms.get(phase))
        .sum()
}

/// A `--contract T:MIN` clause: end-to-end speedup at `threads` must reach
/// `min_speedup` on every swept scale, or the process exits nonzero.
#[derive(Clone, Copy, Debug)]
struct Contract {
    threads: usize,
    min_speedup: f64,
}

/// Parsed command line; see the module docs for the grammar.
struct Args {
    scales: Vec<String>,
    threads: Vec<usize>,
    contracts: Vec<Contract>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut scales: Vec<String> = DEFAULT_SCALES.iter().map(ToString::to_string).collect();
    let mut threads = DEFAULT_THREADS.to_vec();
    let mut contracts = Vec::new();
    let mut out = "BENCH_pipeline.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scales" => {
                let v = it.next().ok_or("--scales needs a comma-separated list")?;
                scales = v.split(',').map(|s| s.trim().to_string()).collect();
                for s in &scales {
                    scale_config(s).ok_or_else(|| format!("unknown scale {s:?}"))?;
                }
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a comma-separated list")?;
                threads = v
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad thread count {t:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if threads.first() != Some(&1) {
                    return Err("--threads must start with 1 (the serial baseline)".into());
                }
            }
            "--contract" => {
                let v = it.next().ok_or("--contract needs T:MIN (e.g. 2:1.0)")?;
                let (t, m) = v
                    .split_once(':')
                    .ok_or_else(|| format!("bad contract {v:?}: expected T:MIN"))?;
                contracts.push(Contract {
                    threads: t
                        .parse()
                        .map_err(|_| format!("bad contract threads {t:?}"))?,
                    min_speedup: m
                        .parse()
                        .map_err(|_| format!("bad contract speedup {m:?}"))?,
                });
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            path => out = path.to_string(),
        }
    }
    Ok(Args {
        scales,
        threads,
        contracts,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut scales = Vec::new();
    for scale in &args.scales {
        match sweep_scale(scale, &args.threads, cores) {
            Ok(doc) => scales.push(doc),
            Err(e) => {
                eprintln!("bench-pipeline: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let end_to_end_at = |doc: &ScaleDoc, threads: usize| -> Option<f64> {
        doc.speedup
            .get(END_TO_END)?
            .get(&threads.to_string())
            .copied()
    };
    let crossover = CrossoverDoc {
        threads: CROSSOVER_THREADS,
        scale: scales
            .iter()
            .find(|s| end_to_end_at(s, CROSSOVER_THREADS).is_some_and(|x| x > 1.0))
            .map(|s| s.scale.clone()),
    };

    let doc = BenchDoc {
        schema: "bdrmapit.bench-pipeline/v3",
        seed: SEED,
        available_parallelism: cores,
        threads_swept: args.threads.clone(),
        scales,
        crossover,
    };
    let text = serde_json::to_string_pretty(&doc).expect("bench document serializes");
    if let Err(e) = std::fs::write(&args.out, text) {
        eprintln!("bench-pipeline: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    // Determinism gate: a thread count that changed the output is a bug,
    // and CI must see it even though the artifact was written above.
    for scale in &doc.scales {
        if !scale.hashes_consistent {
            eprintln!(
                "bench-pipeline: output hashes diverged across the thread sweep at scale {} \
                 (serial {}): determinism contract violated",
                scale.scale, scale.output_hash
            );
            return ExitCode::FAILURE;
        }
        println!(
            "{}: output {} identical across threads {:?}",
            scale.scale, scale.output_hash, args.threads
        );
    }

    // Speedup contract gate (the CI bench-large job's teeth).
    for c in &args.contracts {
        for scale in &doc.scales {
            match end_to_end_at(scale, c.threads) {
                Some(x) if x >= c.min_speedup => {
                    println!(
                        "{}: end-to-end speedup @{} threads = {x:.2}x (contract >= {:.2}x)",
                        scale.scale, c.threads, c.min_speedup
                    );
                }
                Some(x) => {
                    eprintln!(
                        "bench-pipeline: scale {} end-to-end speedup @{} threads = {x:.2}x, \
                         below the {:.2}x contract",
                        scale.scale, c.threads, c.min_speedup
                    );
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "bench-pipeline: contract names {} threads but the sweep did not run it",
                        c.threads
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_counts_nested_phase1_spans_once() {
        let phases: BTreeMap<String, f64> = [
            (names::PHASE_TRACEROUTE, 40.0),
            (names::PHASE_ALIAS, 2.0),
            (names::PHASE_GRAPH, 30.0),
            (names::PHASE1_LINKS, 20.0),
            (names::PHASE1_REDUCE, 9.0),
            (names::PHASE_LASTHOP, 1.0),
            (names::PHASE_REFINE, 7.0),
        ]
        .into_iter()
        .map(|(name, ms)| (name.to_string(), ms))
        .collect();
        assert_eq!(end_to_end_ms(&phases), 80.0);
    }
}
