//! Per-layer metrics of a traced run: the program's own spans and counters,
//! normalised per call so they do not depend on how many operations fit in
//! the run, plus the harness-side samples.
//!
//! Every span a traced run records counts, set-up included: each workload
//! reaches the campaign, alias and annotation layers either in its set-up
//! or in its loop, so every time below is measured on every workload.

use crate::{Metric, THREADS};
use churn::EpochOutcome;
use obs::{names, RunReport};

/// Churn-driver figures over the churn epochs of one schedule (zero on the
/// other workloads).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnStats {
    /// Re-probed pairs over pairs in the probe matrix.
    pub dirty_pair_ratio: f64,
    /// Re-converged shards over shards in the plan.
    pub dirty_shard_ratio: f64,
    /// Applied events over scheduled events.
    pub events_applied_ratio: f64,
    /// Mean wall time of an epoch's verification recompute, ms.
    pub full_ms: f64,
    /// Incremental wall time summed over the schedule's epochs, ms.
    pub total_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl ChurnStats {
    /// The figures over `epochs`; ratios are summed before dividing.
    pub fn of(epochs: &[EpochOutcome]) -> ChurnStats {
        let sum = |f: &dyn Fn(&EpochOutcome) -> f64| epochs.iter().map(f).sum::<f64>();
        ChurnStats {
            dirty_pair_ratio: ratio(
                sum(&|e| e.dirty_pairs as f64),
                sum(&|e| e.total_pairs as f64),
            ),
            dirty_shard_ratio: ratio(
                sum(&|e| e.dirty_shards as f64),
                sum(&|e| e.total_shards as f64),
            ),
            events_applied_ratio: ratio(
                sum(&|e| e.applied as f64),
                sum(&|e| (e.applied + e.skipped) as f64),
            ),
            full_ms: ratio(sum(&|e| e.full.wall_ms), epochs.len() as f64),
            total_ms: sum(&|e| e.incremental.wall_ms),
        }
    }
}

/// What the harness measures itself on the workload's inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Samples {
    /// Median `Internet::forward_path` time over the probe-matrix sample.
    pub forward_path_ns: f64,
    /// Route trees cached on the sampled topology after the samples.
    pub route_trees: f64,
    /// Median `trace_one` time over the probe-matrix sample.
    pub trace_one_ns: f64,
    /// Probes one campaign call issues (churn: per epoch).
    pub probes_per_campaign: f64,
    /// Median `snapshot::to_bytes` time of the workload's result.
    pub encode_ms: f64,
    /// Median `Snapshot::from_bytes` time of that encoding.
    pub load_ms: f64,
    /// Its size.
    pub snapshot_bytes: f64,
    /// Median in-process `handle_line` time over the query mix.
    pub dispatch_ns: f64,
    /// The same over `lookup_addr` requests only.
    pub lookup_addr_ns: f64,
    /// The live server's own median latency per verb of [`SERVE_VERBS`]
    /// (its `stats` answer after one pass over the mix), µs.
    pub server_p50_us: [f64; 4],
    /// The same, 99th percentile.
    pub server_p99_us: [f64; 4],
    /// Churn-driver figures.
    pub churn: ChurnStats,
    /// Median operation latency of the untraced half.
    pub op_p50_ms: f64,
    /// 99th-percentile operation latency of the untraced half.
    pub op_p99_ms: f64,
    /// Operations per second of the untraced half.
    pub ops_per_s: f64,
    /// Median operation latency traced over untraced.
    pub trace_overhead: f64,
}

/// The verbs of the query mix, in the order of [`Samples::server_p50_us`].
pub const SERVE_VERBS: [&str; 4] = ["lookup_addr", "lookup_prefix", "router", "links_of_as"];

/// Per-verb metric names: `(p50, p99)` for each of [`SERVE_VERBS`].
const SERVER_METRICS: [(&str, &str); 4] = [
    ("serve.lookup_addr.p50_us", "serve.lookup_addr.p99_us"),
    ("serve.lookup_prefix.p50_us", "serve.lookup_prefix.p99_us"),
    ("serve.router.p50_us", "serve.router.p99_us"),
    ("serve.links_of_as.p50_us", "serve.links_of_as.p99_us"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(report: &RunReport, s: &Samples) -> Vec<Metric> {
    let calls = |phase: &str| report.phases.get(phase).map_or(0.0, |p| p.count as f64);
    let per_call_ms = |phase: &str| {
        report
            .phases
            .get(phase)
            .map_or(0.0, |p| ratio(p.wall_ms, p.count as f64))
    };
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let exec = |name: &str| report.exec.get(name).copied().unwrap_or(0) as f64;

    let campaign_calls = calls(names::PHASE_TRACEROUTE);
    let campaign_ms = per_call_ms(names::PHASE_TRACEROUTE);
    let traces = ratio(counter(names::TRACEROUTE_TRACES), campaign_calls);
    let hops = ratio(counter(names::TRACEROUTE_HOPS), campaign_calls);
    let graph_calls = calls(names::PHASE_GRAPH);
    let refine_calls = calls(names::PHASE_REFINE);
    let refine_runs = counter(names::REFINE_RUNS);
    let busy = |counter_name: &str, n: f64| ratio(exec(counter_name) / 1e3, n);
    let busy_campaign = busy(names::EXEC_POOL_BUSY_CAMPAIGN, campaign_calls);
    let busy_graph = busy(names::EXEC_POOL_BUSY_GRAPH, graph_calls);
    let busy_refine = busy(names::EXEC_POOL_BUSY_REFINE, refine_calls);
    let idle = |wall_ms: f64, busy_ms: f64| (THREADS as f64 * wall_ms - busy_ms).max(0.0);
    let wavefronts = report
        .histograms
        .get(names::HIST_SHARD_WAVEFRONTS)
        .map_or(0.0, |h| h.sum as f64);
    let hits = exec(names::EXEC_CACHE_HITS);
    let misses = exec(names::EXEC_CACHE_MISSES);

    let mut metrics = vec![
        Metric::new("topo.forward_path_ns", s.forward_path_ns, "ns"),
        Metric::new("topo.route_trees", s.route_trees, "count"),
        Metric::new("topo.generate_ms", per_call_ms(names::PHASE_TOPO), "ms"),
        Metric::new("traceroute.campaign_ms", campaign_ms, "ms"),
        Metric::new(
            "traceroute.ns_per_probe",
            ratio(campaign_ms * 1e6, s.probes_per_campaign),
            "ns",
        ),
        Metric::new("traceroute.trace_one_ns", s.trace_one_ns, "ns"),
        Metric::new("traceroute.probes", s.probes_per_campaign, "count"),
        Metric::new("traceroute.traces", traces, "count"),
        Metric::new("traceroute.hops", hops, "count"),
        Metric::new(
            "traceroute.useful_ratio",
            ratio(traces, s.probes_per_campaign),
            "ratio",
        ),
        Metric::new("pool.busy_ms.campaign", busy_campaign, "ms"),
        Metric::new("pool.busy_ms.graph", busy_graph, "ms"),
        Metric::new("pool.busy_ms.refine", busy_refine, "ms"),
        Metric::new(
            "pool.idle_ms.campaign",
            idle(campaign_ms, busy_campaign),
            "ms",
        ),
        Metric::new(
            "pool.idle_ms.graph",
            idle(per_call_ms(names::PHASE_GRAPH), busy_graph),
            "ms",
        ),
        Metric::new(
            "pool.idle_ms.refine",
            idle(per_call_ms(names::PHASE_REFINE), busy_refine),
            "ms",
        ),
        Metric::new(
            "pool.steals",
            ratio(exec(names::EXEC_POOL_STEALS), graph_calls),
            "count",
        ),
        Metric::new(
            "pool.tasks",
            ratio(exec(names::EXEC_POOL_TASKS), graph_calls),
            "count",
        ),
        Metric::new("alias.resolve_ms", per_call_ms(names::PHASE_ALIAS), "ms"),
        Metric::new("phase1.graph_ms", per_call_ms(names::PHASE_GRAPH), "ms"),
        Metric::new("phase1.intern_ms", per_call_ms(names::PHASE1_INTERN), "ms"),
        Metric::new("phase1.links_ms", per_call_ms(names::PHASE1_LINKS), "ms"),
        Metric::new("phase1.reduce_ms", per_call_ms(names::PHASE1_REDUCE), "ms"),
        Metric::new(
            "phase1.metadata_ms",
            per_call_ms(names::PHASE1_METADATA),
            "ms",
        ),
        Metric::new("phase2.lasthop_ms", per_call_ms(names::PHASE_LASTHOP), "ms"),
        Metric::new("phase3.refine_ms", per_call_ms(names::PHASE_REFINE), "ms"),
        Metric::new(
            "refine.iterations",
            ratio(counter(names::REFINE_ITERATIONS), refine_runs),
            "count",
        ),
        Metric::new("refine.wavefronts", ratio(wavefronts, refine_runs), "count"),
        Metric::new(
            "refine.shards",
            ratio(counter(names::REFINE_SHARDS), refine_runs),
            "count",
        ),
        Metric::new("asrel.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        Metric::new("snapshot.encode_ms", s.encode_ms, "ms"),
        Metric::new("snapshot.load_ms", s.load_ms, "ms"),
        Metric::new("snapshot.bytes", s.snapshot_bytes, "bytes"),
        Metric::new("serve.dispatch_ns", s.dispatch_ns, "ns"),
        Metric::new("serve.lookup_addr_ns", s.lookup_addr_ns, "ns"),
    ];
    for (i, (p50, p99)) in SERVER_METRICS.into_iter().enumerate() {
        metrics.push(Metric::new(p50, s.server_p50_us[i], "us"));
        metrics.push(Metric::new(p99, s.server_p99_us[i], "us"));
    }
    metrics.extend([
        Metric::new("churn.dirty_pair_ratio", s.churn.dirty_pair_ratio, "ratio"),
        Metric::new(
            "churn.dirty_shard_ratio",
            s.churn.dirty_shard_ratio,
            "ratio",
        ),
        Metric::new(
            "churn.events_applied_ratio",
            s.churn.events_applied_ratio,
            "ratio",
        ),
        Metric::new("churn.full_ms", s.churn.full_ms, "ms"),
        Metric::new("churn.total_ms", s.churn.total_ms, "ms"),
        Metric::new("obs.trace_overhead", s.trace_overhead, "ratio"),
        Metric::new("bench.op_p50_ms", s.op_p50_ms, "ms"),
        Metric::new("bench.op_p99_ms", s.op_p99_ms, "ms"),
        Metric::new("bench.ops_per_s", s.ops_per_s, "1/s"),
    ]);
    metrics
}
