//! The four workloads: set-up, the measured loop, output checks, and the
//! harness-side samples a traced run adds.

use crate::layers::{ChurnStats, Samples, SERVE_VERBS};
use crate::stats::{median, quantile, sorted};
use crate::{annotation_hash, check_annotation, layers, snapshot_hash, Metric, Outcome, Sizes};
use crate::{Workload, GOLDEN_SEED, THREADS};
use alias::{observed_addresses, resolve_midar_with_obs};
use bdrmapit_core::{Annotated, Config};
use churn::{run_churn, ChurnOptions, ChurnRun};
use eval::experiments::heuristics::annotation_accuracy;
use eval::experiments::run_bdrmapit;
use eval::{CorpusBundle, Scenario};
use obs::{Clock, MonotonicClock, Recorder};
use serve::protocol::VerbStatsJson;
use serve::{dispatch, Client, Request, Response, RunningServer, Server, ServerConfig};
use snapshot::{Snapshot, SnapshotData};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use topo_gen::{Internet, RouterId};
use traceroute::sim::{destinations, probe_campaign_in_pool, select_vps, trace_one, ProbeConfig};

/// Harness span around one set-up (traced runs only).
const SPAN_SETUP: &str = "bench.setup";
/// Harness span around one sequential operation (traced runs only).
const SPAN_OP: &str = "bench.op";
/// Harness track prefix of the query clients (traced runs only).
const TRACK_CLIENT: &str = "bench.client";
/// Harness span around one client request (traced runs only).
const EV_REQUEST: &str = "bench.request";

/// MIDAR-style alias-resolution confidence threshold (the scenario's).
const ALIAS_THRESHOLD: f64 = 0.9;

/// Per-call timing chunk of the forwarding-plane and dispatch samples.
const SAMPLE_CHUNK: usize = 64;
/// Per-call timing chunk of the (costlier) trace-synthesis sample.
const TRACE_CHUNK: usize = 16;
/// Repetitions of the snapshot encode and load samples.
const CODEC_REPEATS: usize = 5;
/// Per-track ring capacity of the traced run. The ring keeps the newest
/// events; a small one keeps the exported trace quick to validate (the
/// vendored JSON parser's cost grows faster than the document).
const TRACE_CAPACITY: usize = 1_024;

/// What every workload is given.
pub struct Ctx {
    /// The workload run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Ctx {
    fn topology(&self) -> topo_gen::GeneratorConfig {
        self.sizes.topology.clone()
    }

    /// The probe campaign configuration: the run's seed draws every probe.
    fn probe(&self) -> ProbeConfig {
        ProbeConfig {
            seed: self.seed,
            ..ProbeConfig::default()
        }
    }

    /// The vantage points, fixed like the topology (outside `exclude`).
    fn vantage_points(&self, net: &Internet, exclude: &[net_types::Asn]) -> Vec<RouterId> {
        select_vps(net, self.sizes.vps, exclude, GOLDEN_SEED)
    }

    /// The hash an output must reproduce before any has been seen: the
    /// sizes' golden one at [`GOLDEN_SEED`], otherwise none (the first
    /// output becomes the reference).
    fn golden(&self) -> Option<u64> {
        self.sizes.golden.filter(|_| self.seed == GOLDEN_SEED)
    }
}

/// What one measured loop produced.
#[derive(Debug, Default)]
pub struct Loop {
    /// Latency of each operation whose output passed its check, ms.
    pub op_ms: Vec<f64>,
    /// Median operation latency of each completed repeat, ms. A repeat is
    /// the unit of work the loop does again and again on the same inputs:
    /// one pipeline or annotation run, one churn schedule's RIB-stable
    /// epochs, or one client's pass over the whole query mix.
    pub repeat_ms: Vec<f64>,
    /// Busy wall time the throughput is computed over, s.
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Failed checks, described.
    pub problems: Vec<String>,
}

impl Loop {
    /// The `p`-quantile of the operation latencies (0 when none completed).
    pub fn op_quantile(&self, p: f64) -> f64 {
        if self.op_ms.is_empty() {
            0.0
        } else {
            quantile(&sorted(&self.op_ms), p)
        }
    }

    /// The median operation latency of the fastest repeat (0 when none
    /// completed). Interference from the rest of the machine only adds
    /// time, so the least disturbed repeat is the steadiest estimate of
    /// what the work itself costs.
    pub fn best_repeat_ms(&self) -> f64 {
        self.repeat_ms
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Completed operations per second of busy wall time.
    pub fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.op_ms.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// One workload.
pub trait Bench: Sized {
    /// Builds the inputs. Timed as `setup_s`.
    fn setup(ctx: &Ctx, rec: &Recorder) -> Result<Self, String>;
    /// Runs operations for `seconds`, every layer reporting into `rec`.
    fn measure(&mut self, ctx: &Ctx, rec: &Recorder, seconds: f64) -> Result<Loop, String>;
    /// Fraction of annotated interfaces whose router owner is right.
    fn accuracy(&self, ctx: &Ctx) -> f64;
    /// Harness-side per-layer samples on this workload's inputs.
    fn samples(&mut self, ctx: &Ctx) -> Result<Samples, String>;
}

fn elapsed_s(clock: &MonotonicClock, start: u64) -> f64 {
    clock.now_nanos().saturating_sub(start) as f64 / 1e9
}

fn elapsed_ms(clock: &MonotonicClock, start: u64) -> f64 {
    clock.now_nanos().saturating_sub(start) as f64 / 1e6
}

/// Runs one workload: untraced, the end-to-end metrics; traced, the
/// per-layer ones.
pub fn drive<B: Bench>(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    if traced {
        return drive_traced::<B>(ctx);
    }
    let clock = MonotonicClock::new();
    let off = Recorder::disabled();
    let mut setup_s = Vec::new();
    let mut bench: Option<B> = None;
    for _ in 0..ctx.sizes.setup_repeats.max(1) {
        drop(bench.take()); // one set-up's memory at a time
        let start = clock.now_nanos();
        bench = Some(B::setup(ctx, &off)?);
        setup_s.push(elapsed_s(&clock, start));
    }
    let mut bench = bench.expect("at least one set-up ran");
    let mut lp = bench.measure(ctx, &off, ctx.seconds)?;
    if lp.repeat_ms.is_empty() {
        lp.problems.push("no repeat completed".into());
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("op_best_ms", lp.best_repeat_ms(), "ms"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb()?, "MB"),
        Metric::new("accuracy", bench.accuracy(ctx), "fraction"),
    ];
    Ok(Outcome {
        workload: ctx.workload,
        seed: ctx.seed,
        traced: false,
        attempted: lp.attempted,
        failed: lp.failed,
        problems: lp.problems,
        metrics,
        trace_json: None,
    })
}

/// The traced run: one set-up under the tracing recorder, then the loop
/// for half the time untraced (its median, tail and throughput are
/// reported here)
/// and half traced (the ratio of their medians is the tracing overhead),
/// then the harness samples.
fn drive_traced<B: Bench>(ctx: &Ctx) -> Result<Outcome, String> {
    let rec = Recorder::with_tracing(false, TRACE_CAPACITY);
    let mut bench = {
        let _span = rec.span(SPAN_SETUP);
        B::setup(ctx, &rec)?
    };
    let half = ctx.seconds / 2.0;
    let plain = bench.measure(ctx, &Recorder::disabled(), half)?;
    let traced = bench.measure(ctx, &rec, half)?;
    let mut samples = bench.samples(ctx)?;
    samples.op_p50_ms = plain.op_quantile(0.5);
    samples.op_p99_ms = plain.op_quantile(0.99);
    samples.ops_per_s = plain.ops_per_s();
    samples.trace_overhead = traced.op_quantile(0.5) / plain.op_quantile(0.5);
    let mut problems = plain.problems;
    problems.extend(traced.problems);
    let trace_json = rec.tracer().finish().to_chrome_json();
    if let Err(e) = obs::trace::validate_chrome_json(&trace_json) {
        problems.push(format!("exported trace does not validate: {e}"));
    }
    Ok(Outcome {
        workload: ctx.workload,
        seed: ctx.seed,
        traced: true,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        problems,
        metrics: layers::metrics(&rec.report(), &samples),
        trace_json: Some(trace_json),
    })
}

/// Runs `op` until `seconds` have elapsed (at least once), timing each call
/// and checking its output; returns the loop and the last output. Each call
/// is a repeat.
fn sequential<T>(
    rec: &Recorder,
    seconds: f64,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(&T) -> Result<(), String>,
) -> (Loop, Option<T>) {
    let clock = MonotonicClock::new();
    let start = clock.now_nanos();
    let mut lp = Loop::default();
    let mut last = None;
    while lp.attempted == 0 || elapsed_s(&clock, start) < seconds {
        let t0 = clock.now_nanos();
        let out = {
            let _span = rec.span(SPAN_OP);
            op()
        };
        let ms = elapsed_ms(&clock, t0);
        lp.attempted += 1;
        lp.wall_s += ms / 1e3;
        match check(&out) {
            Ok(()) => {
                lp.op_ms.push(ms);
                lp.repeat_ms.push(ms);
            }
            Err(e) => {
                lp.failed += 1;
                lp.problems.push(e);
            }
        }
        last = Some(out);
    }
    (lp, last)
}

/// Checks each result against the reference hash; the first result seen
/// becomes the reference when there is no golden one.
fn hash_check(reference: &mut Option<u64>) -> impl FnMut(&Annotated) -> Result<(), String> + '_ {
    move |result| match *reference {
        Some(expected) => check_annotation(result, expected),
        None => {
            *reference = Some(annotation_hash(result));
            Ok(())
        }
    }
}

fn pipeline_config() -> Config {
    Config {
        threads: THREADS,
        ..Config::default()
    }
}

/// Routes the scenario's telemetry to `rec` and gives it a fresh
/// [`THREADS`]-worker pool reporting there.
fn install(scenario: &mut Scenario, rec: &Recorder) {
    scenario.obs = rec.clone();
    scenario.threads = THREADS;
    scenario.pool = Some(Arc::new(pool::WorkerPool::with_recorder(
        THREADS,
        rec.clone(),
    )));
}

/// The workload's corpus: a campaign from the vantage points (none inside
/// a validation network) on the scenario's pool, then alias resolution,
/// both reporting to the scenario's recorder.
fn corpus(ctx: &Ctx, scenario: &Scenario) -> CorpusBundle {
    let (net, rec) = (&scenario.net, &scenario.obs);
    let vps = ctx.vantage_points(net, &scenario.validation.all());
    let traces = probe_campaign_in_pool(net, &vps, &ctx.probe(), &scenario.worker_pool(), rec);
    let observed = observed_addresses(&traces);
    let aliases = resolve_midar_with_obs(net, &observed, ALIAS_THRESHOLD, ctx.seed, rec);
    CorpusBundle {
        traces,
        aliases,
        vps,
    }
}

fn build_scenario(ctx: &Ctx, rec: &Recorder) -> Scenario {
    let mut scenario = Scenario::build_with_obs(ctx.topology(), rec.clone());
    install(&mut scenario, rec);
    scenario
}

/// Every `n`-th pair of the vp-major probe matrix, up to `n` pairs.
fn matrix_sample(vps: &[RouterId], dests: &[u32], n: usize) -> Vec<(RouterId, u32)> {
    let total = vps.len() * dests.len();
    let step = (total / n.max(1)).max(1);
    (0..total)
        .step_by(step)
        .take(n)
        .map(|k| (vps[k / dests.len()], dests[k % dests.len()]))
        .collect()
}

/// Median per-item time, ns, of `f` over `items`, timed in chunks of
/// `chunk` calls so a clock read costs little next to the work.
fn per_item_ns<T>(items: &[T], chunk: usize, mut f: impl FnMut(&T)) -> f64 {
    let clock = MonotonicClock::new();
    let per: Vec<f64> = items
        .chunks(chunk)
        .map(|c| {
            let t0 = clock.now_nanos();
            for x in c {
                f(x);
            }
            clock.now_nanos().saturating_sub(t0) as f64 / c.len() as f64
        })
        .collect();
    if per.is_empty() {
        0.0
    } else {
        median(&per)
    }
}

/// Median wall time, ms, of `CODEC_REPEATS` calls of `f`.
fn repeat_ms(mut f: impl FnMut()) -> f64 {
    let clock = MonotonicClock::new();
    let times: Vec<f64> = (0..CODEC_REPEATS)
        .map(|_| {
            let t0 = clock.now_nanos();
            f();
            elapsed_ms(&clock, t0)
        })
        .collect();
    median(&times)
}

/// Forwarding-plane and trace-synthesis samples over the workload's own
/// probe matrix on `net`.
fn topology_samples(ctx: &Ctx, net: &Internet, vps: &[RouterId], s: &mut Samples) {
    let cfg = ctx.probe();
    let dests = destinations(net, &cfg);
    s.probes_per_campaign = (vps.len() * dests.len()) as f64;
    let paths = matrix_sample(vps, &dests, ctx.sizes.path_samples);
    s.forward_path_ns = per_item_ns(&paths, SAMPLE_CHUNK, |&(vp, dst)| {
        black_box(net.forward_path(vp, dst));
    });
    s.route_trees = net.routing.cached_trees() as f64;
    let traces = matrix_sample(vps, &dests, ctx.sizes.trace_samples);
    s.trace_one_ns = per_item_ns(&traces, TRACE_CHUNK, |&(vp, dst)| {
        black_box(trace_one(net, vp, dst, &cfg));
    });
}

/// Snapshot codec and in-process dispatch samples over `data`.
fn snapshot_samples(data: &SnapshotData, s: &mut Samples) {
    let bytes = snapshot::to_bytes(data);
    s.snapshot_bytes = bytes.len() as f64;
    s.encode_ms = repeat_ms(|| {
        black_box(snapshot::to_bytes(data));
    });
    s.load_ms = repeat_ms(|| {
        black_box(Snapshot::from_bytes(&bytes).expect("a freshly encoded snapshot loads"));
    });
    let snap = Snapshot::from_bytes(&bytes).expect("a freshly encoded snapshot loads");
    let lines = |indices: &mut dyn Iterator<Item = usize>| -> Vec<String> {
        indices
            .map(|i| serde_json::to_string(&request(&snap, i)).expect("requests serialize"))
            .collect()
    };
    let n = snap.data().annotations.len();
    let mix = lines(&mut (0..n));
    s.dispatch_ns = per_item_ns(&mix, SAMPLE_CHUNK, |line| {
        black_box(serve::protocol::handle_line(&snap, line));
    });
    // Requests 0, 10, 20, … of the mix are all `lookup_addr`.
    let lookups = lines(&mut (0..n).step_by(10));
    s.lookup_addr_ns = per_item_ns(&lookups, SAMPLE_CHUNK, |line| {
        black_box(serve::protocol::handle_line(&snap, line));
    });
}

/// Samples shared by the workloads that hold a scenario and a result.
fn scenario_samples(ctx: &Ctx, scenario: &Scenario, result: &Annotated) -> Samples {
    let mut s = Samples::default();
    let vps = ctx.vantage_points(&scenario.net, &scenario.validation.all());
    topology_samples(ctx, &scenario.net, &vps, &mut s);
    let data = SnapshotData::from_annotated(result, &scenario.rib.origin_table());
    snapshot_samples(&data, &mut s);
    s
}

/// Request `i` of the query mix, the one `bench-serve` sends: 60%
/// `lookup_addr`, 20% `lookup_prefix`, 10% `router`, 10% `links_of_as`, on
/// annotation row `i`. The workload sends one request per row, so the
/// working set is the whole snapshot.
pub fn request(snap: &Snapshot, i: usize) -> Request {
    let anns = &snap.data().annotations;
    let ann = anns[i % anns.len()];
    let addr = Some(net_types::format_ipv4(ann.addr));
    match i % 10 {
        0..=5 => Request {
            addr,
            ..Request::verb("lookup_addr")
        },
        6 | 7 => Request {
            addr,
            ..Request::verb("lookup_prefix")
        },
        8 => Request {
            ir: Some(ann.ir),
            ..Request::verb("router")
        },
        _ => Request {
            asn: Some(ann.asn.0),
            ..Request::verb("links_of_as")
        },
    }
}

// ---- batch-itdk ---------------------------------------------------------------

/// Probe campaign, alias resolution and annotation, end to end.
pub struct Batch {
    scenario: Scenario,
    reference: Option<u64>,
    last: Option<Annotated>,
}

impl Bench for Batch {
    fn setup(ctx: &Ctx, rec: &Recorder) -> Result<Self, String> {
        Ok(Batch {
            scenario: build_scenario(ctx, rec),
            reference: ctx.golden(),
            last: None,
        })
    }

    fn measure(&mut self, ctx: &Ctx, rec: &Recorder, seconds: f64) -> Result<Loop, String> {
        install(&mut self.scenario, rec);
        let scenario = &self.scenario;
        let (lp, last) = sequential(
            rec,
            seconds,
            || run_bdrmapit(scenario, &corpus(ctx, scenario), pipeline_config()),
            hash_check(&mut self.reference),
        );
        self.last = last;
        Ok(lp)
    }

    fn accuracy(&self, _ctx: &Ctx) -> f64 {
        self.last
            .as_ref()
            .map_or(0.0, |r| annotation_accuracy(&self.scenario, r))
    }

    fn samples(&mut self, ctx: &Ctx) -> Result<Samples, String> {
        let result = self.last.as_ref().expect("measured before sampling");
        Ok(scenario_samples(ctx, &self.scenario, result))
    }
}

// ---- infer-itdk ---------------------------------------------------------------

/// Annotation of a corpus collected during set-up.
pub struct Infer {
    scenario: Scenario,
    bundle: CorpusBundle,
    reference: Option<u64>,
    last: Option<Annotated>,
}

impl Bench for Infer {
    fn setup(ctx: &Ctx, rec: &Recorder) -> Result<Self, String> {
        let scenario = build_scenario(ctx, rec);
        let bundle = corpus(ctx, &scenario);
        Ok(Infer {
            scenario,
            bundle,
            reference: ctx.golden(),
            last: None,
        })
    }

    fn measure(&mut self, _ctx: &Ctx, rec: &Recorder, seconds: f64) -> Result<Loop, String> {
        install(&mut self.scenario, rec);
        let (scenario, bundle) = (&self.scenario, &self.bundle);
        let (lp, last) = sequential(
            rec,
            seconds,
            || run_bdrmapit(scenario, bundle, pipeline_config()),
            hash_check(&mut self.reference),
        );
        self.last = last;
        Ok(lp)
    }

    fn accuracy(&self, _ctx: &Ctx) -> f64 {
        self.last
            .as_ref()
            .map_or(0.0, |r| annotation_accuracy(&self.scenario, r))
    }

    fn samples(&mut self, ctx: &Ctx) -> Result<Samples, String> {
        let result = self.last.as_ref().expect("measured before sampling");
        Ok(scenario_samples(ctx, &self.scenario, result))
    }
}

// ---- serve-itdk ---------------------------------------------------------------

/// Closed-loop queries against a snapshot of the itdk result.
pub struct Serve {
    scenario: Scenario,
    result: Annotated,
    snap: Arc<Snapshot>,
    requests: Vec<Request>,
    expected: Vec<Response>,
    setup_problem: Option<String>,
}

/// One client connection's loop.
#[derive(Default)]
struct ClientLoop {
    op_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Walks the mix in order from the client's own offset: the warm-up, then
/// requests until `seconds` elapse, checking every response against
/// in-process dispatch. Each pass over the whole mix is a repeat.
fn client_loop(
    c: usize,
    addr: SocketAddr,
    bench: &Serve,
    warmup: usize,
    seconds: f64,
    rec: &Recorder,
) -> ClientLoop {
    let mut out = ClientLoop::default();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            out.failed += 1;
            out.attempted += 1;
            out.problems.push(format!("client {c}: connect: {e}"));
            return out;
        }
    };
    if let Err(e) = client.set_timeout(Some(Duration::from_secs(30))) {
        out.problems.push(format!("client {c}: set timeout: {e}"));
        return out;
    }
    let n = bench.requests.len();
    let offset = c * n / THREADS;
    for i in 0..warmup {
        if let Err(e) = client.call(&bench.requests[(offset + i) % n]) {
            out.problems
                .push(format!("client {c}: warm-up request: {e}"));
            return out;
        }
    }
    let tracer = rec.tracer();
    let mut wt = tracer.worker(TRACK_CLIENT, c);
    let clock = MonotonicClock::new();
    let start = clock.now_nanos();
    let mut pass_ms = Vec::with_capacity(n);
    let mut i = warmup;
    while elapsed_s(&clock, start) < seconds {
        let idx = (offset + i) % n;
        i += 1;
        out.attempted += 1;
        wt.begin(EV_REQUEST, idx as u64);
        let t0 = clock.now_nanos();
        let resp = client.call(&bench.requests[idx]);
        let ms = elapsed_ms(&clock, t0);
        wt.end(EV_REQUEST);
        match resp {
            Ok(r) if r == bench.expected[idx] => {
                out.op_ms.push(ms);
                pass_ms.push(ms);
            }
            Ok(r) => {
                out.failed += 1;
                if out.problems.len() < 3 {
                    out.problems.push(format!(
                        "client {c}: response to {:?} differs from in-process dispatch: {r:?}",
                        bench.requests[idx]
                    ));
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problems
                    .push(format!("client {c}: request failed: {e}"));
                break;
            }
        }
        if out.attempted % n as u64 == 0 {
            // A pass with a failed request is counted in `failed`, not timed.
            if pass_ms.len() == n {
                out.repeat_ms.push(median(&pass_ms));
            }
            pass_ms.clear();
        }
    }
    out.wall_s = elapsed_s(&clock, start);
    tracer.submit(wt);
    out
}

impl Bench for Serve {
    fn setup(ctx: &Ctx, rec: &Recorder) -> Result<Self, String> {
        let scenario = build_scenario(ctx, rec);
        let result = run_bdrmapit(&scenario, &corpus(ctx, &scenario), pipeline_config());
        let setup_problem = ctx
            .golden()
            .and_then(|g| check_annotation(&result, g).err());
        let data = SnapshotData::from_annotated(&result, &scenario.rib.origin_table());
        let bytes = snapshot::to_bytes(&data);
        let snap =
            Arc::new(Snapshot::from_bytes(&bytes).map_err(|e| format!("snapshot load: {e}"))?);
        let requests: Vec<Request> = (0..snap.data().annotations.len())
            .map(|i| request(&snap, i))
            .collect();
        let expected = requests.iter().map(|r| dispatch(&snap, r)).collect();
        Ok(Serve {
            scenario,
            result,
            snap,
            requests,
            expected,
            setup_problem,
        })
    }

    fn measure(&mut self, ctx: &Ctx, rec: &Recorder, seconds: f64) -> Result<Loop, String> {
        let running = self.start_server(rec)?;
        let addr = running.addr();
        let warmup = ctx.sizes.warmup_requests / THREADS;
        let bench = &*self;
        let clients: Vec<ClientLoop> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|c| s.spawn(move || client_loop(c, addr, bench, warmup, seconds, rec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query client panicked"))
                .collect()
        });
        running.shutdown();
        let mut lp = Loop::default();
        lp.problems.extend(self.setup_problem.clone());
        let mut rate = 0.0;
        for c in clients {
            lp.attempted += c.attempted;
            lp.failed += c.failed;
            lp.problems.extend(c.problems);
            if c.wall_s > 0.0 {
                rate += c.op_ms.len() as f64 / c.wall_s;
            }
            lp.op_ms.extend(c.op_ms);
            lp.repeat_ms.extend(c.repeat_ms);
        }
        // Throughput is the sum of the connections' rates; express it over
        // the wall time that yields it for the completed requests.
        lp.wall_s = if rate > 0.0 {
            lp.op_ms.len() as f64 / rate
        } else {
            0.0
        };
        Ok(lp)
    }

    fn accuracy(&self, _ctx: &Ctx) -> f64 {
        annotation_accuracy(&self.scenario, &self.result)
    }

    fn samples(&mut self, ctx: &Ctx) -> Result<Samples, String> {
        let mut s = scenario_samples(ctx, &self.scenario, &self.result);
        let running = self.start_server(&Recorder::disabled())?;
        let table = self.one_pass(running.addr());
        running.shutdown();
        let table = table?;
        for (i, verb) in SERVE_VERBS.into_iter().enumerate() {
            let v = table.get(verb).copied().unwrap_or_default();
            s.server_p50_us[i] = v.p50_us as f64;
            s.server_p99_us[i] = v.p99_us as f64;
        }
        Ok(s)
    }
}

impl Serve {
    /// A query server on a loopback port with [`THREADS`] workers.
    fn start_server(&self, rec: &Recorder) -> Result<RunningServer, String> {
        let cfg = ServerConfig {
            workers: THREADS,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&self.snap), cfg, rec.clone())
            .map_err(|e| format!("binding the query server on loopback: {e}"))?;
        Ok(server.spawn_background())
    }

    /// Sends the whole mix once over one connection, then returns the
    /// server's own per-verb latency table from its `stats` answer.
    fn one_pass(&self, addr: SocketAddr) -> Result<BTreeMap<String, VerbStatsJson>, String> {
        let failed = |e: std::io::Error| format!("server-side latency pass: {e}");
        let mut client = Client::connect(addr).map_err(failed)?;
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .map_err(failed)?;
        for r in &self.requests {
            client.call(r).map_err(failed)?;
        }
        client
            .call(&Request::verb("stats"))
            .map_err(failed)?
            .stats
            .and_then(|st| st.verbs)
            .ok_or_else(|| "the server's stats answer has no per-verb table".to_string())
    }
}

// ---- churn-default --------------------------------------------------------------

/// Incremental re-annotation over a churn schedule, repeated for the run's
/// duration. The timed operation is one epoch whose RIB did not change: the
/// others rebuild routing and re-probe everything, which is a full
/// recompute, not an incremental update. The set-up is the driver's
/// baseline alone (topology, RIB, first full annotation); `run_churn`
/// cannot start from a given baseline, so every measured schedule redoes it.
pub struct Churn {
    reference: Option<u64>,
    last: Option<ChurnRun>,
}

impl Churn {
    /// The schedule, vantage points and alias draw are fixed like the
    /// topology; the run's seed draws the probes.
    fn options(ctx: &Ctx, epochs: usize) -> ChurnOptions {
        ChurnOptions {
            probe: ctx.probe(),
            ..ChurnOptions::new(epochs, ctx.sizes.vps, THREADS, GOLDEN_SEED)
        }
    }

    fn final_data(&self) -> Option<SnapshotData> {
        let run = self.last.as_ref()?;
        snapshot::from_bytes(&run.epochs.last()?.snapshot).ok()
    }
}

impl Bench for Churn {
    fn setup(ctx: &Ctx, rec: &Recorder) -> Result<Self, String> {
        run_churn(ctx.topology(), &Churn::options(ctx, 0), rec)
            .map_err(|e| format!("baseline run_churn: {e}"))?;
        Ok(Churn {
            reference: ctx.golden(),
            last: None,
        })
    }

    fn measure(&mut self, ctx: &Ctx, rec: &Recorder, seconds: f64) -> Result<Loop, String> {
        let opts = Churn::options(ctx, ctx.sizes.churn_epochs);
        let clock = MonotonicClock::new();
        let start = clock.now_nanos();
        let mut lp = Loop::default();
        while lp.attempted == 0 || elapsed_s(&clock, start) < seconds {
            let t0 = clock.now_nanos();
            let result = {
                let _span = rec.span(SPAN_OP);
                run_churn(ctx.topology(), &opts, rec)
            };
            let wall_ms = elapsed_ms(&clock, t0);
            lp.attempted += opts.epochs as u64;
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    lp.failed += opts.epochs as u64;
                    lp.problems.push(format!("run_churn: {e}"));
                    break;
                }
            };
            let incremental_ms: f64 = run.epochs.iter().map(|e| e.incremental.wall_ms).sum();
            let mut problem = (incremental_ms >= wall_ms).then(|| {
                format!(
                    "per-epoch incremental walls sum to {incremental_ms:.1} ms, \
                     not below the measured run_churn wall of {wall_ms:.1} ms"
                )
            });
            let last = run
                .epochs
                .last()
                .expect("a churn run has its baseline epoch");
            match snapshot::from_bytes(&last.snapshot) {
                Ok(data) => {
                    let h = snapshot_hash(&data);
                    match self.reference {
                        Some(expected) if expected != h => {
                            problem.get_or_insert(format!(
                                "final snapshot hash {h:#018x} differs from the \
                                 expected {expected:#018x}"
                            ));
                        }
                        Some(_) => {}
                        None => self.reference = Some(h),
                    }
                }
                Err(e) => {
                    problem.get_or_insert(format!("final snapshot does not decode: {e}"));
                }
            }
            let epoch_ms: Vec<f64> = run.epochs[1..]
                .iter()
                .filter(|e| !e.rib_changed)
                .map(|e| e.incremental.wall_ms)
                .collect();
            match problem {
                Some(p) => {
                    lp.failed += opts.epochs as u64;
                    lp.problems.push(p);
                }
                None if epoch_ms.is_empty() => {}
                None => {
                    lp.wall_s += epoch_ms.iter().sum::<f64>() / 1e3;
                    lp.repeat_ms.push(median(&epoch_ms));
                    lp.op_ms.extend(epoch_ms);
                }
            }
            self.last = Some(run);
        }
        Ok(lp)
    }

    /// Replays the executed schedule on a freshly generated topology and
    /// scores the final epoch's snapshot against it.
    fn accuracy(&self, ctx: &Ctx) -> f64 {
        let (Some(run), Some(data)) = (self.last.as_ref(), self.final_data()) else {
            return 0.0;
        };
        let mut net = Internet::generate(ctx.topology());
        for ev in run.schedule.epochs.iter().flatten() {
            net.apply_event(ev);
        }
        crate::snapshot_accuracy(&net, &data)
    }

    fn samples(&mut self, ctx: &Ctx) -> Result<Samples, String> {
        let mut s = Samples::default();
        let net = Internet::generate(ctx.topology());
        let vps = ctx.vantage_points(&net, &[]);
        topology_samples(ctx, &net, &vps, &mut s);
        if let Some(data) = self.final_data() {
            snapshot_samples(&data, &mut s);
        }
        if let Some(run) = &self.last {
            let epochs = &run.epochs;
            s.probes_per_campaign =
                epochs.iter().map(|e| e.dirty_pairs as f64).sum::<f64>() / epochs.len() as f64;
            s.churn = ChurnStats::of(&epochs[1..]);
        }
        Ok(s)
    }
}
