//! The span taxonomy and counter naming scheme (DESIGN.md §10).
//!
//! Names are `<subsystem>.<noun>` for counters and histograms, and phase
//! spans follow the pipeline: the three synthetic input stages carry their
//! subsystem name, the three bdrmapIT algorithm stages carry the paper's
//! phase numbers. Keeping every name a `&'static str` constant here — rather
//! than ad-hoc strings at call sites — is what makes the report
//! schema-stable: a renamed counter is a compile-time event, not a silently
//! forked time series.

// ---- phase spans -----------------------------------------------------------

/// Synthetic Internet generation (topo-gen).
pub const PHASE_TOPO: &str = "topo.generate";
/// Traceroute campaign simulation (traceroute).
pub const PHASE_TRACEROUTE: &str = "traceroute.campaign";
/// Alias resolution (alias).
pub const PHASE_ALIAS: &str = "alias.resolve";
/// bdrmapIT phase 1: IR graph construction (§4).
pub const PHASE_GRAPH: &str = "phase1.graph";
/// bdrmapIT phase 2: last-hop annotation (§5).
pub const PHASE_LASTHOP: &str = "phase2.lasthop";
/// bdrmapIT phase 3: iterative graph refinement (§6).
pub const PHASE_REFINE: &str = "phase3.refine";
/// Reading a dataset bundle from disk (`bdrmapit infer`).
pub const PHASE_READ_BUNDLE: &str = "io.read_bundle";
/// Assembling the IP→AS oracle from a bundle's prefix2as, delegations and
/// IXPs (`bdrmapit infer`).
pub const PHASE_IP2AS_BUILD: &str = "ip2as.build";
/// Writing the annotation and link CSVs (`bdrmapit infer`).
pub const PHASE_WRITE_OUTPUTS: &str = "io.write_outputs";
/// Scoring the inferred links and annotations against a bundle's ground
/// truth (`bdrmapit infer`).
pub const PHASE_SCORE_TRUTH: &str = "eval.score_truth";
/// Sealing builders into an indexed corpus (`traceroute::Corpus::concat`):
/// nested in the campaign for a probed corpus and in each churn epoch.
pub const CORPUS_INDEX: &str = "corpus.index";
/// Customer-cone computation from the AS relationships, ahead of phase 1
/// (once per `Bdrmapit::run`, so once per churn epoch).
pub const PHASE_ASREL_CONES: &str = "asrel.cones";

/// The five pipeline phases every complete synthetic run must traverse.
/// [`crate::RunReport::validate`] fails when any is missing.
pub const MANDATORY_PHASES: &[&str] = &[
    PHASE_TOPO,
    PHASE_TRACEROUTE,
    PHASE_ALIAS,
    PHASE_GRAPH,
    PHASE_REFINE,
];

// ---- deterministic counters ------------------------------------------------
// Identical for every `Config::threads` value; compared across thread counts
// by the determinism suite.

/// ASes in the generated topology.
pub const TOPO_ASES: &str = "topo.ases";
/// Routers in the generated topology.
pub const TOPO_ROUTERS: &str = "topo.routers";
/// Interfaces in the generated topology.
pub const TOPO_IFACES: &str = "topo.ifaces";
/// Traces collected by the campaign.
pub const TRACEROUTE_TRACES: &str = "traceroute.traces";
/// Total hop slots across all traces (responsive or not).
pub const TRACEROUTE_HOPS: &str = "traceroute.hops";
/// Responsive hops across all traces.
pub const TRACEROUTE_RESPONSIVE_HOPS: &str = "traceroute.responsive_hops";
/// Alias groups resolved.
pub const ALIAS_GROUPS: &str = "alias.groups";
/// Addresses placed in a (multi-address) alias group.
pub const ALIAS_ALIASED_ADDRS: &str = "alias.aliased_addrs";
/// Inferred routers in the IR graph.
pub const GRAPH_IRS: &str = "graph.irs";
/// IR→interface links in the IR graph.
pub const GRAPH_LINKS: &str = "graph.links";
/// Observed interfaces in the IR graph.
pub const GRAPH_IFACES: &str = "graph.ifaces";
/// IRs frozen by the last-hop phase.
pub const LASTHOP_FROZEN: &str = "lasthop.frozen";
/// Refinement runs executed (a report can cover several).
pub const REFINE_RUNS: &str = "refine.runs";
/// Refinement iterations (summed over runs).
pub const REFINE_ITERATIONS: &str = "refine.iterations";
/// Shards in the refinement plans processed. No longer recorded
/// (refinement converges the whole graph); kept because the benchmark's
/// per-layer report reads it.
pub const REFINE_SHARDS: &str = "refine.shards";
/// Router annotations that changed value during a sweep.
pub const REFINE_VOTES_CHANGED: &str = "refine.votes_changed";
/// Routers carrying an annotation after refinement.
pub const REFINE_ROUTERS_ANNOTATED: &str = "refine.routers_annotated";
/// Hidden-AS detections that replaced an election result (§6.1.5).
pub const REFINE_HIDDEN_FIRINGS: &str = "refine.hidden_firings";
/// Election exceptions that fired (§6.1.3).
pub const REFINE_EXCEPTION_FIRINGS: &str = "refine.exception_firings";
/// Reallocated-prefix corrections applied (§6.1.2).
pub const REFINE_REALLOC_FIRINGS: &str = "refine.realloc_firings";
/// Link votes redirected by third-party detection (§6.1.1 lines 6–8).
pub const REFINE_THIRD_PARTY_VOTES: &str = "refine.third_party_votes";

// ---- churn counters ----------------------------------------------------------
// The streaming topology-dynamics workload (crates/churn): per-run totals
// over all epochs. Deterministic: the schedule and the dirty sets are pure
// functions of the seeds.

/// Epochs stepped by a churn run.
pub const CHURN_EPOCHS: &str = "churn.epochs";
/// Topology events whose preconditions held and that mutated the topology.
pub const CHURN_EVENTS_APPLIED: &str = "churn.events_applied";
/// Topology events skipped because a precondition failed (disconnecting
/// link failure, exhausted address region, single-homed reannouncement).
pub const CHURN_EVENTS_SKIPPED: &str = "churn.events_skipped";
/// `(vp, dst)` pairs re-probed by the incremental delta campaigns.
pub const CHURN_DIRTY_PAIRS: &str = "churn.dirty_pairs";
/// `(vp, dst)` pairs served from the cached corpus.
pub const CHURN_CLEAN_PAIRS: &str = "churn.clean_pairs";
/// Epochs that forced a full RIB/IP→AS/relationship rebuild (interdomain
/// routing changed).
pub const CHURN_RIB_REBUILDS: &str = "churn.rib_rebuilds";

/// Span: one churn epoch end to end (events through snapshot).
pub const PHASE_CHURN_EPOCH: &str = "churn.epoch";
/// Churn's pair-cache work per epoch: the dirty-pair test, the cache
/// update, and the splice of fresh and cached rows into the corpus.
pub const PHASE_CHURN_SPLICE: &str = "churn.splice";

// ---- deterministic histograms ----------------------------------------------

/// Wavefront levels, one sample per shard. No longer recorded (refinement
/// sweeps serially); kept because the benchmark's per-layer report reads it.
pub const HIST_SHARD_WAVEFRONTS: &str = "refine.shard_wavefronts";

// ---- detlint static-analysis counters ----------------------------------------
// Deterministic: pure functions of the scanned source tree.

/// Source files the detlint workspace scan lexed and indexed.
pub const DETLINT_FILES: &str = "detlint.files";
/// Function definitions in the detlint symbol index.
pub const DETLINT_FNS: &str = "detlint.fns";
/// Name-matched call edges in the detlint call graph.
pub const DETLINT_CALL_EDGES: &str = "detlint.call_edges";
/// Functions seeding order taint (return hash-collection iteration order).
pub const DETLINT_TAINT_SOURCES: &str = "detlint.taint_sources";
/// Functions carrying order taint after the cross-file fixpoint.
pub const DETLINT_TAINTED_FNS: &str = "detlint.tainted_fns";

// ---- execution-dependent metrics -------------------------------------------
// Vary with thread count and scheduling (pool splits, steals, timings);
// reported for tuning but excluded from the deterministic view.

/// Relationship memo hits. No longer recorded (every phase queries the AS
/// databases directly); kept because the benchmark's per-layer report reads
/// it.
pub const EXEC_CACHE_HITS: &str = "asrel.cache_hits";
/// Relationship memo misses. No longer recorded, like
/// [`EXEC_CACHE_HITS`]; kept because the benchmark's per-layer report reads
/// it.
pub const EXEC_CACHE_MISSES: &str = "asrel.cache_misses";
/// Worker slots the probe-campaign sharder actually used.
pub const EXEC_CAMPAIGN_WORKERS: &str = "campaign.workers";
/// Worker slots the phase-1 graph build actually used.
pub const EXEC_GRAPH_WORKERS: &str = "graph.workers";
/// Tasks dispatched by the shared worker pool (all phases).
pub const EXEC_POOL_TASKS: &str = "pool.tasks";
/// Tasks a pool worker took from a sibling's dealt interval.
pub const EXEC_POOL_STEALS: &str = "pool.steals";
/// Aggregate pool worker busy time in the probe campaign, microseconds.
pub const EXEC_POOL_BUSY_CAMPAIGN: &str = "pool.busy_us.campaign";
/// Aggregate pool worker busy time in the phase-1 graph build, microseconds.
pub const EXEC_POOL_BUSY_GRAPH: &str = "pool.busy_us.graph";
/// Aggregate pool worker busy time sealing corpora (the `corpus.index`
/// span), microseconds.
pub const EXEC_POOL_BUSY_INDEX: &str = "pool.busy_us.index";
/// Aggregate pool worker busy time in phase-3 refinement, microseconds. No
/// longer recorded (refinement runs on the calling thread); kept because
/// the benchmark's per-layer report reads it.
pub const EXEC_POOL_BUSY_REFINE: &str = "pool.busy_us.refine";
/// Router elections phase 3 held. The worklist skips an election whose
/// inputs did not change, so this is the work it did, not the iterations
/// times the routers; reported beside the deterministic `refine.*`
/// counters, which count as if every election had been held.
pub const EXEC_REFINE_ELECTIONS: &str = "refine.elections";
/// Aggregate pool worker busy time in detlint's phase-A file scan,
/// microseconds.
pub const EXEC_POOL_BUSY_DETLINT: &str = "pool.busy_us.detlint";
/// Responsive hops the phase-1 extract pass walked. The same at every
/// thread count, but reported beside the two filter counters below rather
/// than among the deterministic counters that run-report hashes cover.
pub const EXEC_PHASE1_HOPS: &str = "phase1.hops";
/// Link keys the phase-1 extract pass emitted past its per-task filter of
/// recent keys. Execution-dependent: what the filter drops depends on how
/// the corpus is split into tasks.
pub const EXEC_PHASE1_LINK_OBS: &str = "phase1.link_obs";
/// Distinct link keys after the phase-1 reduction's dedup of each IR range.
/// The same at every thread count; reported beside `phase1.link_obs`, the
/// emitted keys that dedup started from.
pub const EXEC_PHASE1_LINK_KEYS: &str = "phase1.link_keys";
/// Connections accepted by the query server. Traffic-driven, so every
/// serve counter is execution-dependent by construction.
pub const EXEC_SERVE_CONNECTIONS: &str = "serve.connections";
/// Request lines the query server dispatched.
pub const EXEC_SERVE_REQUESTS: &str = "serve.requests";
/// Malformed requests, read timeouts, and socket errors at the server.
pub const EXEC_SERVE_ERRORS: &str = "serve.errors";

// ---- phase-1 sub-spans -------------------------------------------------------
// Passes of the graph build, visible as nested spans under `phase1.graph`
// in the run report and on the trace's `main` track.

/// The interface and destination tables, copied from the corpus's address
/// index.
pub const PHASE1_INTERN: &str = "phase1.intern";
/// Origin-AS resolution over the interned interface space.
pub const PHASE1_ORIGINS: &str = "phase1.origins";
/// Serial IR construction from alias groups.
pub const PHASE1_IRS: &str = "phase1.irs";
/// Pass 1: link and destination extraction over trace shards.
pub const PHASE1_LINKS: &str = "phase1.links";
/// Serial reduction of per-shard link/destination observations.
pub const PHASE1_REDUCE: &str = "phase1.reduce";
/// Per-IR metadata annotation (degree, relationships, cone membership).
pub const PHASE1_METADATA: &str = "phase1.metadata";

// ---- trace tracks and events -------------------------------------------------
// Names used by `obs::trace`: tracks become Chrome `thread_name`s, events
// appear as spans (`B`/`E`) or instants (`i`) on a track. See DESIGN.md §15.

/// The coordinator track carrying recorder phase spans.
pub const TRACK_MAIN: &str = "main";
/// Per-worker pool tracks (`pool.worker0`, `pool.worker1`, ...).
pub const TRACK_POOL_WORKER: &str = "pool.worker";
/// The pool's batch-level track (dispatch and reassembly spans).
pub const TRACK_POOL_BATCHES: &str = "pool.batches";
/// The refinement track (`refine.worker0`; refinement is serial).
pub const TRACK_REFINE_WORKER: &str = "refine.worker";
/// Per-worker serve tracks (`serve.worker0`, ...).
pub const TRACK_SERVE_WORKER: &str = "serve.worker";
/// Span: one pool batch from deal-out to join (arg: task count).
pub const EV_POOL_BATCH: &str = "pool.batch";
/// Span: one task executing on a pool worker (arg: task index).
pub const EV_POOL_TASK: &str = "pool.task";
/// Instant: a worker stole from a sibling's interval (arg: tasks taken).
pub const EV_POOL_STEAL: &str = "pool.steal";
/// Span: index-ordered reassembly of batch results on the coordinator.
pub const EV_POOL_REASSEMBLE: &str = "pool.reassemble";
/// Span: one refinement iteration (arg: iteration index).
pub const EV_REFINE_WAVE: &str = "refine.wave";
/// Instant: probe campaign destination count (arg: destinations).
pub const EV_CAMPAIGN_DESTS: &str = "traceroute.dests";
/// Span: one request handled by a serve worker.
pub const EV_SERVE_REQUEST: &str = "serve.request";

// ---- serve per-verb metrics ---------------------------------------------------
// Execution-dependent by construction (traffic-driven); the latency
// histograms live in the server's own `ServeMetrics`, surfaced through the
// `stats` verb, while the request counters also feed the recorder.

/// Requests dispatched to the `lookup_addr` verb.
pub const EXEC_SERVE_REQ_LOOKUP_ADDR: &str = "serve.requests.lookup_addr";
/// Requests dispatched to the `lookup_prefix` verb.
pub const EXEC_SERVE_REQ_LOOKUP_PREFIX: &str = "serve.requests.lookup_prefix";
/// Requests dispatched to the `router` verb.
pub const EXEC_SERVE_REQ_ROUTER: &str = "serve.requests.router";
/// Requests dispatched to the `links_of_as` verb.
pub const EXEC_SERVE_REQ_LINKS_OF_AS: &str = "serve.requests.links_of_as";
/// Requests dispatched to the `stats` verb.
pub const EXEC_SERVE_REQ_STATS: &str = "serve.requests.stats";

/// The verbs the query server dispatches, in protocol order.
pub const SERVE_VERBS: &[&str] = &[
    "lookup_addr",
    "lookup_prefix",
    "router",
    "links_of_as",
    "stats",
];

/// Canonicalizes a request verb to its `'static` form, if known.
pub fn serve_verb(verb: &str) -> Option<&'static str> {
    SERVE_VERBS.iter().find(|&&v| v == verb).copied()
}

/// The request counter for a known verb, if any.
pub fn serve_request_counter(verb: &str) -> Option<&'static str> {
    match verb {
        "lookup_addr" => Some(EXEC_SERVE_REQ_LOOKUP_ADDR),
        "lookup_prefix" => Some(EXEC_SERVE_REQ_LOOKUP_PREFIX),
        "router" => Some(EXEC_SERVE_REQ_ROUTER),
        "links_of_as" => Some(EXEC_SERVE_REQ_LINKS_OF_AS),
        "stats" => Some(EXEC_SERVE_REQ_STATS),
        _ => None,
    }
}
