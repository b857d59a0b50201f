//! Incremental re-convergence for the churn workload (DESIGN.md §16).
//!
//! A churn epoch rebuilds the IR graph from the updated trace corpus and
//! re-runs phases 2–3. Most of that work is redundant: a topology event
//! touches a handful of ASes, so most link-connected refinement shards
//! receive byte-identical inputs and would converge to byte-identical
//! annotations. This module skips them.
//!
//! The unit of reuse is the shard, and the key is a **shard fingerprint**:
//! a stable FNV-1a hash over *everything the refinement loop reads* for
//! that shard — per-IR link structure, labels, origin/destination sets,
//! third-party bits, per-interface origin resolution, addresses,
//! predecessor votes, the post-last-hop initial annotations, and the frozen
//! bits. Indices are relativized to the shard (an IR is hashed as its
//! position in `shard.irs`, an interface as its position in
//! `shard.ifaces`, and predecessor interfaces by their addresses), so a
//! shard keeps its fingerprint when unrelated graph growth shifts the
//! global index space.
//!
//! Because the per-shard convergence loop is a pure function of exactly
//! those inputs (plus the relationship table and the heuristic
//! configuration, covered by the cache-level environment fingerprint), a
//! fingerprint hit replays the cached converged annotations and
//! convergence trace *byte-identically* — there is no "approximately
//! equal" path. Shards that miss are re-converged by the very same routine
//! [`refine`](super::refine) runs. The churn driver additionally
//! byte-compares every incremental epoch against a from-scratch recompute,
//! so a fingerprint collision (2⁻⁶⁴ per pair) cannot silently ship.

use crate::graph::IrGraph;
use crate::refine::engine::{converge_shard, ShardHasher, SweepCtx, CONVERGENCE_HASH_SEED};
use crate::refine::shard::Shard;
use crate::{AnnotationState, Config};
use as_rel::{AsRelationships, CustomerCones, Relationship};
use net_types::Asn;
use std::collections::BTreeMap;

/// Domain separator folded into shard fingerprints (vs convergence hashes).
const FINGERPRINT_SEED: u64 = CONVERGENCE_HASH_SEED ^ 0x6368_7572_6e00_0001;
/// Domain separator for the environment fingerprint.
const ENV_SEED: u64 = CONVERGENCE_HASH_SEED ^ 0x6368_7572_6e00_0002;

/// A converged shard outcome in shard-relative form: final annotations for
/// `shard.irs` / `shard.ifaces` in member order, plus the convergence trace.
#[derive(Clone, Debug)]
struct ShardOutcome {
    /// Final router annotation per member IR (position-aligned with
    /// `shard.irs`).
    router: Vec<u32>,
    /// Final interface annotation per member interface (position-aligned
    /// with `shard.ifaces`).
    iface: Vec<u32>,
    /// The convergence hash trace `[h_0, ..., h_n]`; `n` is the iteration
    /// count.
    trace: Vec<u64>,
}

/// Cross-epoch cache of converged shard outcomes, keyed by shard
/// fingerprint.
///
/// The cache is rebuilt wholesale every epoch: entries for the epoch's
/// shards (hit or freshly converged) are kept, anything else is dropped, so
/// it never grows beyond one epoch's shard count. An environment change
/// (relationships or heuristic configuration) clears it entirely.
#[derive(Debug, Default)]
pub struct ShardCache {
    env: u64,
    entries: BTreeMap<u64, ShardOutcome>,
}

impl ShardCache {
    /// An empty cache; the first [`refine_incremental`] call converges
    /// every shard and populates it.
    pub fn new() -> ShardCache {
        ShardCache::default()
    }

    /// Cached shard outcomes currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no outcomes are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What one incremental refinement run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Shards re-converged because their fingerprint missed the cache.
    pub dirty_shards: usize,
    /// Shards replayed from the cache.
    pub reused_shards: usize,
    /// `state.iterations` after the run (max across all shards, cached or
    /// not — identical to what a full recompute reports).
    pub iterations: usize,
}

/// Everything outside the graph that the refinement heuristics read: the
/// relationship table and the heuristic knobs of [`Config`]. `threads` is
/// deliberately excluded — it can only change scheduling, never output.
fn env_fingerprint(rels: &AsRelationships, cfg: &Config) -> u64 {
    let mut h = ShardHasher::new(ENV_SEED);
    for (a, b, rel) in rels.iter() {
        h.write_u32(a.0);
        h.write_u32(b.0);
        h.write_u32(match rel {
            Relationship::Provider => 0,
            Relationship::Customer => 1,
            Relationship::Peer => 2,
        });
    }
    let flags = [
        cfg.enable_last_hop,
        cfg.enable_third_party,
        cfg.enable_realloc,
        cfg.enable_exceptions,
        cfg.enable_hidden_as,
        cfg.enable_ixp_heuristic,
    ]
    .iter()
    .fold(0u32, |acc, &f| (acc << 1) | u32::from(f));
    h.write_u32(flags);
    h.write_u64(cfg.realloc_cone_max as u64);
    h.write_u64(cfg.max_iterations as u64);
    h.finish()
}

/// Position of `x` in the ascending member list `members`.
#[inline]
fn rel_pos(members: &[u32], x: u32) -> u32 {
    members
        .binary_search(&x)
        .expect("member index present in its own shard") as u32
}

/// Fingerprints one shard: every graph field and every initial annotation
/// the convergence loop can read, in shard-relative form.
fn shard_fingerprint(graph: &IrGraph, state: &AnnotationState, shard: &Shard) -> u64 {
    let mut h = ShardHasher::new(FINGERPRINT_SEED);
    h.write_u64(shard.irs.len() as u64);
    h.write_u64(shard.ifaces.len() as u64);
    for &iri in &shard.irs {
        let ir = &graph.irs[iri as usize];
        h.write_u32(u32::from(state.frozen[iri as usize]));
        h.write_u32(state.router[iri as usize].0);
        h.write_u64(ir.ifaces.len() as u64);
        for &j in &ir.ifaces {
            h.write_u32(rel_pos(&shard.ifaces, j.0));
        }
        for set in [
            &graph.ir_origins[iri as usize],
            &graph.ir_dests[iri as usize],
        ] {
            h.write_u64(set.len() as u64);
            for a in set {
                h.write_u32(a.0);
            }
        }
        h.write_u64(ir.links.len() as u64);
        for link in &ir.links {
            h.write_u32(rel_pos(&shard.ifaces, link.dst.0));
            h.write_u32(link.label as u32);
            let origins = &graph.link_origins[link.row as usize];
            h.write_u64(origins.len() as u64);
            for a in origins {
                h.write_u32(a.0);
            }
            h.write_u32(u32::from(link.dst_origin_probed));
        }
    }
    for &j in &shard.ifaces {
        let ji = j as usize;
        h.write_u32(graph.iface_addrs[ji]);
        let origin = graph.iface_origin[ji];
        h.write_u32(origin.asn.0);
        h.write_u32(origin.kind as u32);
        match origin.prefix {
            Some(p) => {
                h.write_u32(p.addr());
                h.write_u32(u32::from(p.len()));
            }
            None => h.write_u32(u32::MAX),
        }
        h.write_u32(state.iface[ji].0);
        h.write_u32(rel_pos(&shard.irs, graph.iface_ir[ji].0));
        // Grouped by predecessor IR: the count of IRs, then each IR with
        // its interfaces.
        let preds = &graph.preds[ji];
        let by_ir = || preds.chunk_by(|a, b| a.0 == b.0);
        h.write_u64(by_ir().count() as u64);
        for run in by_ir() {
            h.write_u32(rel_pos(&shard.irs, run[0].0 .0));
            h.write_u64(run.len() as u64);
            for &(_, pi) in run {
                // Predecessor interfaces by address, not index: addresses
                // are what the voting heuristics compare, and they survive
                // global index shifts.
                h.write_u32(graph.iface_addrs[pi.0 as usize]);
            }
        }
    }
    h.finish()
}

/// Runs phase 3 incrementally: shards whose fingerprint hits `cache`
/// replay their cached annotations and convergence trace; the rest
/// converge exactly as [`refine`](super::refine) would converge them. On
/// return, `state` (annotations, iteration count, convergence traces) is
/// byte-identical to what a full recompute with the same inputs produces,
/// and `cache` holds exactly this epoch's shards.
///
/// `state` must be the post-phase-2 state (last hops annotated, frozen
/// bits set) for the *current* `graph`.
pub fn refine_incremental(
    graph: &IrGraph,
    rels: &AsRelationships,
    cones: &CustomerCones,
    cfg: &Config,
    state: &mut AnnotationState,
    rec: &obs::Recorder,
    cache: &mut ShardCache,
) -> IncrementalStats {
    use obs::names;

    let env = env_fingerprint(rels, cfg);
    if cache.env != env {
        cache.entries.clear();
        cache.env = env;
    }

    let plan = &graph.shards;
    let fingerprints: Vec<u64> = plan
        .shards
        .iter()
        .map(|s| shard_fingerprint(graph, state, s))
        .collect();

    // Replay hits straight into the state; collect the misses.
    let mut dirty: Vec<usize> = Vec::new();
    let mut traces: Vec<Vec<u64>> = vec![Vec::new(); plan.shards.len()];
    let mut iterations = 0usize;
    for (idx, shard) in plan.shards.iter().enumerate() {
        match cache.entries.get(&fingerprints[idx]) {
            Some(out) => {
                for (r, &iri) in shard.irs.iter().enumerate() {
                    state.router[iri as usize] = Asn(out.router[r]);
                }
                for (r, &j) in shard.ifaces.iter().enumerate() {
                    state.iface[j as usize] = Asn(out.iface[r]);
                }
                iterations = iterations.max(out.trace.len() - 1);
                traces[idx] = out.trace.clone();
            }
            None => {
                rec.tracer()
                    .instant_main(names::EV_REFINE_DIRTY_SHARD, idx as u64);
                dirty.push(idx);
            }
        }
    }

    // Converge the dirty shards with the full engine's routine.
    if !dirty.is_empty() {
        let mut ctx = SweepCtx::new(graph, cfg, rels, cones, rec);
        for &idx in &dirty {
            traces[idx] = converge_shard(idx, &plan.shards[idx], state, &mut ctx);
            iterations = iterations.max(traces[idx].len() - 1);
        }
        ctx.finish(rec);
    }

    state.iterations = iterations;
    state.convergence_traces = traces;

    // Rebuild the cache to exactly this epoch's shards: refreshed hits,
    // fresh outcomes for the dirty ones, stale entries dropped.
    let mut entries = BTreeMap::new();
    for (idx, shard) in plan.shards.iter().enumerate() {
        entries.insert(
            fingerprints[idx],
            ShardOutcome {
                router: shard
                    .irs
                    .iter()
                    .map(|&iri| state.router[iri as usize].0)
                    .collect(),
                iface: shard
                    .ifaces
                    .iter()
                    .map(|&j| state.iface[j as usize].0)
                    .collect(),
                trace: state.convergence_traces[idx].clone(),
            },
        );
    }
    cache.entries = entries;

    let stats = IncrementalStats {
        dirty_shards: dirty.len(),
        reused_shards: plan.shards.len() - dirty.len(),
        iterations,
    };
    rec.add(names::CHURN_DIRTY_SHARDS, stats.dirty_shards as u64);
    rec.add(names::CHURN_REUSED_SHARDS, stats.reused_shards as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lasthop;
    use crate::Bdrmapit;
    use alias::{observed_addresses, resolve_midar};
    use as_rel::infer::{infer_relationships, InferenceConfig};
    use bgp::IpToAs;
    use traceroute::sim::{self, ProbeConfig};

    fn corpus(
        seed: u64,
    ) -> (
        traceroute::Corpus,
        alias::AliasSets,
        IpToAs,
        AsRelationships,
    ) {
        let net = topo_gen::Internet::generate(topo_gen::GeneratorConfig::tiny(seed));
        let cfg = ProbeConfig {
            per_prefix_cap: 2,
            ..ProbeConfig::default()
        };
        let vps = sim::select_vps(&net, 4, &[], seed);
        let traces = sim::probe_campaign_in_pool(
            &net,
            &vps,
            &cfg,
            &pool::WorkerPool::new(0),
            &obs::Recorder::disabled(),
        );
        let observed = observed_addresses(&traces);
        let aliases = resolve_midar(&net, &observed, 0.9, seed);
        let rib = net.build_rib();
        let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
        let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
        (traces, aliases, ip2as, rels)
    }

    /// Fresh graph + post-lasthop state for a corpus.
    fn prepared(
        traces: &traceroute::Corpus,
        aliases: &alias::AliasSets,
        ip2as: &bgp::IpToAs,
        rels: &AsRelationships,
        cfg: &Config,
    ) -> (IrGraph, AnnotationState, CustomerCones) {
        let cones = CustomerCones::compute(rels);
        let graph = IrGraph::build(traces, aliases, ip2as, cfg, rels, &cones);
        let mut state = AnnotationState::new(&graph);
        lasthop::annotate_last_hops(&graph, rels, &cones, &mut state);
        (graph, state, cones)
    }

    fn assert_states_identical(a: &AnnotationState, b: &AnnotationState) {
        assert_eq!(a.router, b.router);
        assert_eq!(a.iface, b.iface);
        assert_eq!(a.frozen, b.frozen);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.convergence_traces, b.convergence_traces);
    }

    #[test]
    fn cold_cache_matches_full_recompute_and_warms() {
        let (traces, aliases, ip2as, rels) = corpus(21);
        let cfg = Config {
            threads: 1,
            ..Config::default()
        };
        let full = Bdrmapit::new(cfg.clone()).run(&traces, &aliases, &ip2as, &rels);

        let (graph, mut state, cones) = prepared(&traces, &aliases, &ip2as, &rels, &cfg);
        let rec = obs::Recorder::disabled();
        let mut cache = ShardCache::new();
        let stats = refine_incremental(&graph, &rels, &cones, &cfg, &mut state, &rec, &mut cache);
        assert_eq!(stats.reused_shards, 0, "cold cache reuses nothing");
        assert_eq!(stats.dirty_shards, graph.shards.shards.len());
        assert_states_identical(&state, &full.state);
        assert_eq!(cache.len(), graph.shards.shards.len());

        // Second run over the identical corpus: everything replays.
        let (graph2, mut state2, cones2) = prepared(&traces, &aliases, &ip2as, &rels, &cfg);
        let stats2 =
            refine_incremental(&graph2, &rels, &cones2, &cfg, &mut state2, &rec, &mut cache);
        assert_eq!(stats2.dirty_shards, 0, "warm cache re-converges nothing");
        assert_eq!(stats2.reused_shards, graph2.shards.shards.len());
        assert_states_identical(&state2, &full.state);
    }

    #[test]
    fn env_change_clears_the_cache() {
        let (traces, aliases, ip2as, rels) = corpus(23);
        let cfg = Config {
            threads: 1,
            ..Config::default()
        };
        let rec = obs::Recorder::disabled();
        let mut cache = ShardCache::new();
        let (graph, mut state, cones) = prepared(&traces, &aliases, &ip2as, &rels, &cfg);
        refine_incremental(&graph, &rels, &cones, &cfg, &mut state, &rec, &mut cache);

        // Toggling a heuristic must not replay outcomes computed under the
        // old configuration.
        let cfg2 = Config {
            enable_hidden_as: false,
            threads: 1,
            ..Config::default()
        };
        let (graph2, mut state2, cones2) = prepared(&traces, &aliases, &ip2as, &rels, &cfg2);
        let stats = refine_incremental(
            &graph2,
            &rels,
            &cones2,
            &cfg2,
            &mut state2,
            &rec,
            &mut cache,
        );
        assert_eq!(stats.reused_shards, 0, "config change must clear cache");
        let full = Bdrmapit::new(cfg2.clone()).run(&traces, &aliases, &ip2as, &rels);
        assert_states_identical(&state2, &full.state);
    }

    #[test]
    fn fingerprint_is_sensitive_to_initial_annotations() {
        let (traces, aliases, ip2as, rels) = corpus(24);
        let cfg = Config {
            threads: 1,
            ..Config::default()
        };
        let (graph, state, _) = prepared(&traces, &aliases, &ip2as, &rels, &cfg);
        let shard = &graph.shards.shards[0];
        let base = shard_fingerprint(&graph, &state, shard);
        assert_eq!(base, shard_fingerprint(&graph, &state, shard));
        let mut tweaked = state.clone();
        tweaked.router[shard.irs[0] as usize] = Asn(0xdead);
        assert_ne!(base, shard_fingerprint(&graph, &tweaked, shard));
        let mut tweaked = state.clone();
        tweaked.frozen[shard.irs[0] as usize] = !tweaked.frozen[shard.irs[0] as usize];
        assert_ne!(base, shard_fingerprint(&graph, &tweaked, shard));
    }
}
