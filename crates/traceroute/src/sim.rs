//! The measurement simulator: probes a synthetic Internet from vantage
//! points, the synthetic stand-in for a CAIDA Ark / ITDK campaign.
//!
//! Per probe, the simulator forwards through [`topo_gen::Internet`]'s
//! deterministic forwarding plane and applies each traversed router's
//! response behaviour:
//!
//! * silent routers and per-probe rate limiting produce `*` gaps;
//! * firewalled stub networks swallow every externally-sourced probe at
//!   their border (the paper's §5 motivation for last-hop inference);
//! * `egress_reply` routers answer with the interface facing the return
//!   route, producing off-path and third-party addresses (§6.1.1);
//! * destinations that are real router interfaces answer with Echo Replies,
//!   sometimes from a different interface of the router (§4.2's `E`-label
//!   discussion).
//!
//! Everything is seeded; the same `(campaign seed, vp, dst)` triple always
//! produces the same trace, regardless of thread scheduling.

use crate::{Corpus, CorpusBuilder, Hop, ReplyType, StopReason, Trace, TraceRef};
use net_types::{AsSets, Asn};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topo_gen::routers::Firewall;
use topo_gen::{DestPlan, ForwardBuf, ForwardHop, ForwardOutcome, Internet, RouterId, Tier};

/// Probing campaign parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Campaign seed (independent of the topology seed).
    pub seed: u64,
    /// Max /24s probed per announced prefix (Ark probes every routed /24;
    /// we cap for runtime, sampling deterministically).
    pub per_prefix_cap: usize,
    /// Probability that a host answers a probe into plain host space.
    pub dest_response_prob: f64,
    /// Consecutive unresponsive hops before the prober gives up
    /// (scamper's default gap limit is 5).
    pub gap_limit: usize,
    /// When a probed /24 contains live router interfaces, probability the
    /// prober's pseudo-random last octet lands on one of them.
    pub iface_hit_prob: f64,
    /// When a probe reaches the destination network but no host answers,
    /// probability the last router sends ICMP Destination Unreachable
    /// instead of staying silent (the N-label's second reply type, §4.2).
    pub dest_unreachable_prob: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            seed: 0x7472_6163,
            per_prefix_cap: 6,
            dest_response_prob: 0.35,
            gap_limit: 5,
            iface_hit_prob: 0.1,
            dest_unreachable_prob: 0.25,
        }
    }
}

/// Selects one vantage-point router in each of `count` distinct ASes,
/// excluding the listed ASes (the paper removes VPs inside validation
/// networks). VP ASes are drawn from transit, access, and R&E tiers, like
/// Ark monitors.
pub fn select_vps(net: &Internet, count: usize, exclude: &[Asn], seed: u64) -> Vec<RouterId> {
    use rand::seq::SliceRandom;
    let mut pool: Vec<Asn> = Vec::new();
    pool.extend(net.graph.tier_members(Tier::Transit));
    pool.extend(net.graph.tier_members(Tier::Access));
    pool.extend(net.graph.tier_members(Tier::ResearchEducation));
    pool.retain(|a| !exclude.contains(a));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5650_5650);
    let mut ases: Vec<Asn> = pool
        .choose_multiple(&mut rng, count.min(pool.len()))
        .copied()
        .collect();
    ases.sort_unstable();
    ases.iter()
        .map(|&a| {
            let routers = &net.topology.as_routers[&a];
            routers[rng.gen_range(0..routers.len())]
        })
        .collect()
}

/// Enumerates the campaign's destination addresses: for each announced
/// prefix, up to `per_prefix_cap` /24s, one pseudo-random address each —
/// biased onto live interface addresses with `iface_hit_prob` so Echo-Reply
/// last hops occur, as they do when Ark probes infrastructure /24s.
pub fn destinations(net: &Internet, cfg: &ProbeConfig) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6473_7473);
    let mut out = Vec::new();
    for &(prefix, _) in &net.addressing.announced {
        let total_24s = if prefix.len() >= 24 {
            1
        } else {
            1usize << (24 - prefix.len())
        };
        let step = (total_24s / cfg.per_prefix_cap.max(1)).max(1);
        let mut taken = 0;
        for (i, sub) in prefix.subnets(24.max(prefix.len())).enumerate() {
            if i % step != 0 || taken >= cfg.per_prefix_cap {
                continue;
            }
            taken += 1;
            // Live interfaces inside this /24?
            let live: Vec<u32> = net
                .topology
                .addr_to_iface
                .range(sub.addr()..=sub.last_addr())
                .map(|(&a, _)| a)
                .collect();
            let addr = if !live.is_empty() && rng.gen_bool(cfg.iface_hit_prob) {
                live[rng.gen_range(0..live.len())]
            } else {
                sub.addr() + rng.gen_range(1..=254.min(sub.size() as u32 - 1))
            };
            out.push(addr);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The monitor name of vantage point `vp`, e.g. `"vp-2001"`.
fn monitor_name(net: &Internet, vp: RouterId) -> String {
    format!("vp-{}", net.topology.owner(vp).0)
}

/// Probes one destination from one VP.
pub fn trace_one(net: &Internet, vp: RouterId, dst: u32, cfg: &ProbeConfig) -> Trace {
    let mut walk = ForwardBuf::default();
    let outcome = net.forward(vp, net.plan(dst).as_ref(), &mut walk);
    let mut hops = Vec::new();
    let (src, stop) = synthesize(net, vp, dst, outcome, &walk.hops, cfg, &mut hops);
    Trace {
        monitor: monitor_name(net, vp),
        src,
        dst,
        hops,
        stop,
    }
}

/// One pool task of a campaign: the rows it probed, and the walk and hop
/// buffers its probes reuse.
struct Task {
    /// Starts as a copy of the campaign's (empty) monitor table.
    rows: CorpusBuilder,
    /// Pair campaigns only: each row's traversed-AS set.
    ases: AsSets,
    walk: ForwardBuf,
    /// The hop slots of the measurement being synthesized.
    hops: Vec<Option<Hop>>,
}

impl Task {
    fn new(table: &CorpusBuilder) -> Task {
        Task {
            rows: table.clone(),
            ases: AsSets::new(),
            walk: ForwardBuf::default(),
            hops: Vec::new(),
        }
    }

    /// Walks `vp → dst` along `plan` into the task's buffers and appends
    /// the measurement as a row of `monitor`, returning the walk's
    /// outcome. With `keep_unresponsive` unset, a measurement without a
    /// responsive hop adds no row, as a campaign drops it.
    fn probe(
        &mut self,
        net: &Internet,
        (vp, monitor): (RouterId, &str),
        (dst, plan): (u32, Option<&DestPlan>),
        cfg: &ProbeConfig,
        keep_unresponsive: bool,
    ) -> ForwardOutcome {
        let outcome = net.forward(vp, plan, &mut self.walk);
        self.hops.clear();
        let (src, stop) = synthesize(net, vp, dst, outcome, &self.walk.hops, cfg, &mut self.hops);
        if keep_unresponsive || self.hops.iter().any(Option::is_some) {
            let out = &mut self.rows;
            (out.intern(monitor))
                .and_then(|monitor| out.commit(monitor, src, dst, stop, self.hops.iter().copied()))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        outcome
    }
}

/// Synthesizes the `(vp, dst)` measurement from its forward walk (`walk`,
/// ending in `outcome`): appends its hop slots to `hops` and returns the
/// probe source address and the stop reason. The one body behind
/// [`trace_one`] and every campaign.
fn synthesize(
    net: &Internet,
    vp: RouterId,
    dst: u32,
    outcome: ForwardOutcome,
    walk: &[ForwardHop],
    cfg: &ProbeConfig,
    hops: &mut Vec<Option<Hop>>,
) -> (u32, StopReason) {
    // Per-probe RNG: deterministic in (seed, vp, dst) regardless of order.
    let mut rng = ChaCha8Rng::seed_from_u64(
        cfg.seed ^ (vp.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (dst as u64),
    );
    let topo = &net.topology;
    let vp_view = topo.probe_view(vp);
    let vp_as = vp_view.owner;
    let src = vp_view.rid_addr;
    if outcome == ForwardOutcome::NoRoute {
        return (src, StopReason::NoRoute);
    }

    // This row's slots are `hops[base..]`.
    let base = hops.len();
    hops.reserve(walk.len() + cfg.gap_limit);
    let mut firewalled_from: Option<usize> = None;
    let n = walk.len();
    for (i, h) in walk.iter().enumerate() {
        let view = topo.probe_view(h.router);
        if view.owner != vp_as {
            // §5's two firewall shapes, a generated per-AS attribute:
            // either the border router is the visible last hop (it filters
            // what is behind it), or the filter drops at the border and the
            // provider's router becomes the last hop.
            match topo.owner_firewall(view) {
                Firewall::Open => {}
                Firewall::BorderResponds => {
                    firewalled_from.get_or_insert(i + 1);
                }
                Firewall::BorderDrops => {
                    firewalled_from.get_or_insert(i);
                }
            }
        }
        let is_last = i + 1 == n;
        let blocked = firewalled_from.is_some_and(|f| i >= f);
        let silent = blocked || view.silent || rng.gen_bool(net.cfg.rate_limit_prob);
        if silent {
            hops.push(None);
            continue;
        }
        if is_last {
            if let ForwardOutcome::ReachedIface(ifid) = outcome {
                // The destination is this router's own interface: Echo Reply
                // sourced from the probed address, or from the router-id
                // interface for echo-offpath routers.
                let addr = if view.echo_offpath {
                    view.rid_addr
                } else {
                    topo.iface_addr(ifid)
                };
                hops.push(Some(Hop {
                    addr,
                    reply: ReplyType::EchoReply,
                }));
                continue;
            }
        }
        let addr = net.reply_source(h.router, h.ingress, vp_as);
        hops.push(Some(Hop {
            addr,
            reply: ReplyType::TimeExceeded,
        }));
    }

    let mut completed = false;
    let mut unreachable = false;
    if let ForwardOutcome::ReachedIface(_) = outcome {
        completed = hops[base..].last().is_some_and(Option::is_some);
    } else if let ForwardOutcome::ReachedHostSpace { asn } = outcome {
        // A host past the final router may answer; failing that, the last
        // router may report the dead host with Destination Unreachable.
        let behind_firewall = net.is_firewalled(asn) || firewalled_from.is_some();
        if !behind_firewall && rng.gen_bool(cfg.dest_response_prob) {
            hops.push(Some(Hop {
                addr: dst,
                reply: ReplyType::EchoReply,
            }));
            completed = true;
        } else if !behind_firewall
            && hops[base..].last().is_some_and(Option::is_some)
            && rng.gen_bool(cfg.dest_unreachable_prob)
        {
            // Convert the final router's reply into the unreachable that a
            // subsequent probe would elicit.
            if let Some(Some(h)) = hops[base..].last_mut() {
                h.reply = ReplyType::DestUnreachable;
            }
            unreachable = true;
        }
    }

    // Gap-limit semantics: the prober abandons the measurement at the first
    // run of `gap_limit` consecutive unresponsive probes, so nothing beyond
    // that point is ever observed.
    let mut stop = if completed {
        StopReason::Completed
    } else if unreachable {
        StopReason::Unreachable
    } else {
        StopReason::GapLimit
    };
    let mut run = 0;
    for i in base..hops.len() {
        run = if hops[i].is_none() { run + 1 } else { 0 };
        if run == cfg.gap_limit {
            hops.truncate(i + 1);
            stop = StopReason::GapLimit;
            break;
        }
    }
    // An unfinished measurement shows the prober walking into silence
    // before giving up (unreachables end the measurement immediately).
    if stop == StopReason::GapLimit {
        let trailing = hops[base..]
            .iter()
            .rev()
            .take_while(|h| h.is_none())
            .count();
        for _ in trailing..cfg.gap_limit {
            hops.push(None);
        }
    }
    (src, stop)
}

/// bdrmap's reactive data-collection component (paper §2): a single VP
/// probes one address in every routed prefix, and re-probes a prefix at
/// additional addresses whenever the first measurement "might have found an
/// off-path interface within the target AS" — an off-path Echo Reply, a
/// reply address outside the target origin's space on the final hop, or an
/// incomplete measurement.
pub fn reactive_campaign(
    net: &Internet,
    vp: RouterId,
    cfg: &ProbeConfig,
    follow_ups: usize,
) -> Corpus {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6264_7270);
    let mut out = CorpusBuilder::new();
    for &(prefix, origin) in &net.addressing.announced {
        let sub24s = 1u64 << (24u8.saturating_sub(prefix.len()));
        let pick = |rng: &mut ChaCha8Rng| {
            let block = rng.gen_range(0..sub24s) as u32;
            prefix.addr() + block * 256 + rng.gen_range(1..=254.min(prefix.size() as u32 - 1))
        };
        let first = trace_one(net, vp, pick(&mut rng), cfg);
        let mut suspicious = !first.reached_dst();
        if let Some((_, last)) = first.last_hop() {
            // Off-path echo (source differs from the probed address) or a
            // final reply from outside the target network's space.
            if last.reply == ReplyType::EchoReply && last.addr != first.dst {
                suspicious = true;
            }
            if net.bgp_origin(last.addr) != Some(origin) {
                suspicious = true;
            }
        }
        let mut keep = |t: Trace| {
            if t.responsive_count() > 0 {
                out.push_trace(&t).unwrap_or_else(|e| panic!("{e}"));
            }
        };
        keep(first);
        if suspicious {
            for _ in 0..follow_ups {
                keep(trace_one(net, vp, pick(&mut rng), cfg));
            }
        }
    }
    out.finish().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the full campaign on `wp`: every VP probes every destination.
/// Destination enumeration runs *before* the `traceroute.campaign` span
/// opens: it is input preparation, identical at every thread count.
///
/// Each destination is planned once ([`Internet::plan`]), inside the span,
/// and every VP's probe toward it walks that plan. The `(vp, dst)` probe
/// matrix is flattened vp-major and split into pool-sized task chunks;
/// each task synthesizes its contiguous index range into a private
/// [`CorpusBuilder`], keeping responsive traces only and numbering their
/// addresses, and [`Corpus::concat`] seals the builders in range order on
/// `wp`, inside the span. Because every trace depends only on `(campaign
/// seed, vp, dst)` and the ranges partition the matrix in its canonical
/// order, the corpus is byte-identical for every pool size — stealing can
/// move a chunk between workers, never reorder the chunks. Monitor names
/// are formatted once per VP.
pub fn probe_campaign_in_pool(
    net: &Internet,
    vps: &[RouterId],
    cfg: &ProbeConfig,
    wp: &pool::WorkerPool,
    rec: &obs::Recorder,
) -> Corpus {
    let dests = destinations(net, cfg);
    let _span = rec.span(obs::names::PHASE_TRACEROUTE);
    rec.tracer()
        .instant_main(obs::names::EV_CAMPAIGN_DESTS, dests.len() as u64);
    let plans: Vec<Option<DestPlan>> = dests.iter().map(|&d| net.plan(d)).collect();
    let names: Vec<String> = vps.iter().map(|&vp| monitor_name(net, vp)).collect();
    let table = CorpusBuilder::with_monitors(names.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("{e}"));
    let jobs = vps.len() * dests.len();
    let tasks = probe_in_pool(jobs, wp, &table, |k, task| {
        let (v, j) = (k / dests.len(), k % dests.len());
        task.probe(
            net,
            (vps[v], &names[v]),
            (dests[j], plans[j].as_ref()),
            cfg,
            false,
        );
    });
    let traces = Corpus::concat(tasks.into_iter().map(|t| t.rows).collect(), wp)
        .unwrap_or_else(|e| panic!("{e}"));
    rec.add(obs::names::TRACEROUTE_TRACES, traces.len() as u64);
    rec.add(
        obs::names::TRACEROUTE_HOPS,
        traces.slots(0..traces.len()).len() as u64,
    );
    rec.add(
        obs::names::TRACEROUTE_RESPONSIVE_HOPS,
        traces.responsive_hops() as u64,
    );
    rec.add_exec(
        obs::names::EXEC_CAMPAIGN_WORKERS,
        wp.worker_cap(jobs) as u64,
    );
    traces
}

/// The result of [`probe_pairs_in_pool`], index-aligned with its pairs.
#[derive(Clone)]
pub struct ProbedPairs {
    /// The pool tasks' rows, in task order and unsealed: the caller copies
    /// them into its own builder, whose seal is the only one they need.
    parts: Vec<CorpusBuilder>,
    /// Per pair, its [`traversed_ases`] set.
    pub ases: AsSets,
}

impl ProbedPairs {
    /// One row per pair, unresponsive ones included, in pair order.
    pub fn rows(&self) -> impl Iterator<Item = TraceRef<'_>> {
        (self.parts.iter()).flat_map(|part| (0..part.rows.len()).map(|i| part.row(i)))
    }
}

/// Probes an explicit list of `(vp, dst)` pairs on the given pool, returning
/// one row per pair **in pair order, unfiltered** (unresponsive traces
/// included so the result stays index-aligned with `pairs`), and each
/// pair's [`traversed_ases`] set, taken from the same forward walk.
///
/// This is the churn workload's delta campaign: after a topology event, only
/// the pairs whose paths traverse a touched AS are re-probed, and the
/// caller splices the fresh rows over its cached corpus. Every pair is
/// planned against the topology as it is now: plans never outlive a
/// topology event. Determinism matches the full campaign's: every trace is
/// a pure function of `(campaign seed, vp, dst)`, and chunks append in
/// index order.
pub fn probe_pairs_in_pool(
    net: &Internet,
    pairs: &[(RouterId, u32)],
    cfg: &ProbeConfig,
    wp: &pool::WorkerPool,
) -> ProbedPairs {
    let names: BTreeMap<RouterId, String> = pairs
        .iter()
        .map(|&(vp, _)| (vp, monitor_name(net, vp)))
        .collect();
    let table = CorpusBuilder::with_monitors(names.values().map(String::as_str))
        .unwrap_or_else(|e| panic!("{e}"));
    let tasks = probe_in_pool(pairs.len(), wp, &table, |k, task| {
        let (vp, dst) = pairs[k];
        let plan = net.plan(dst);
        let outcome = task.probe(net, (vp, &names[&vp]), (dst, plan.as_ref()), cfg, true);
        traversed_ases(net, vp, dst, &task.walk.hops, outcome, &mut task.ases);
    });
    let mut ases = AsSets::new();
    ases.reserve(pairs.len());
    for t in &tasks {
        ases.append(&t.ases);
    }
    let parts = tasks.into_iter().map(|t| t.rows).collect();
    ProbedPairs { parts, ases }
}

/// Runs `probe(k, task)` for every job `k` in `0..jobs`, split into
/// pool-sized contiguous chunks, each a [`Task`] starting from `table` (an
/// empty builder holding the campaign's monitor table), and returns the
/// tasks in job order (one empty task when there are no jobs), each with
/// its hash tables freed.
fn probe_in_pool(
    jobs: usize,
    wp: &pool::WorkerPool,
    table: &CorpusBuilder,
    probe: impl Fn(usize, &mut Task) + Sync,
) -> Vec<Task> {
    if jobs == 0 {
        return vec![Task::new(table)];
    }
    let batch = wp.batch_size(jobs);
    wp.run(
        obs::names::EXEC_POOL_BUSY_CAMPAIGN,
        jobs.div_ceil(batch),
        |t| {
            let mut task = Task::new(table);
            for k in t * batch..((t + 1) * batch).min(jobs) {
                probe(k, &mut task);
            }
            // Free the hash tables now, not when every task is done.
            task.rows.addrs.freeze();
            task.rows.dsts.freeze();
            task
        },
    )
}

/// Every AS whose state can influence the `(vp, dst)` measurement, appended
/// to `out` as one set: the VP's AS, the destination's BGP
/// origin, every AS the forwarding path traverses, and the AS the path
/// terminates in. `walk` and `outcome` are the measurement's forward walk
/// ([`Internet::forward`] or [`Internet::forward_path`]).
///
/// Computed from the *ground-truth* forward path, not the observed trace —
/// silent routers hide traversed ASes from the trace, and the dirty-pair
/// test must be conservative: a pair may only be skipped after a topology
/// event when **no** AS it depends on was touched. Interdomain routing
/// changes are handled separately (they dirty every pair), so this set only
/// needs to cover intra-AS events: internal link failures/recoveries change
/// forwarding inside one traversed AS, and router additions shift the
/// host-to-router mapping of the terminal AS — both covered here.
pub fn traversed_ases(
    net: &Internet,
    vp: RouterId,
    dst: u32,
    walk: &[ForwardHop],
    outcome: ForwardOutcome,
    out: &mut AsSets,
) {
    out.push_union(|out| {
        out.push(net.topology.owner(vp));
        out.extend(net.bgp_origin(dst));
        out.extend(walk.iter().map(|h| net.topology.owner(h.router)));
        match outcome {
            ForwardOutcome::ReachedHostSpace { asn } => out.push(asn),
            ForwardOutcome::ReachedIface(i) => {
                out.push(net.topology.owner(net.topology.iface(i).router));
            }
            ForwardOutcome::NoRoute => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRef;
    use topo_gen::GeneratorConfig;

    fn fixture() -> (Internet, ProbeConfig) {
        let net = Internet::generate(GeneratorConfig::tiny(77));
        let cfg = ProbeConfig {
            per_prefix_cap: 2,
            ..ProbeConfig::default()
        };
        (net, cfg)
    }

    fn campaign(net: &Internet, vps: &[RouterId], cfg: &ProbeConfig) -> Corpus {
        let wp = pool::WorkerPool::new(0);
        probe_campaign_in_pool(net, vps, cfg, &wp, &obs::Recorder::disabled())
    }

    #[test]
    fn vps_in_distinct_ases_excluding() {
        let (net, _) = fixture();
        let excluded = net.graph.tier_members(Tier::Access)[0];
        let vps = select_vps(&net, 5, &[excluded], 1);
        assert_eq!(vps.len(), 5);
        let mut ases: Vec<Asn> = vps.iter().map(|&r| net.topology.owner(r)).collect();
        assert!(!ases.contains(&excluded));
        ases.dedup();
        assert_eq!(ases.len(), 5, "VPs must sit in distinct ASes");
    }

    #[test]
    fn destinations_capped_and_in_announced_space() {
        let (net, cfg) = fixture();
        let dests = destinations(&net, &cfg);
        assert!(!dests.is_empty());
        for &d in &dests {
            assert!(net.bgp_origin(d).is_some(), "dest outside announced space");
        }
        // Cap respected per prefix.
        for &(prefix, _) in &net.addressing.announced {
            let inside = dests.iter().filter(|&&d| prefix.contains(d)).count();
            // Nested prefixes (IXP leaks) can double-count; allow slack ×2.
            assert!(inside <= cfg.per_prefix_cap * 2, "{prefix}: {inside}");
        }
    }

    #[test]
    fn trace_determinism() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 2);
        let dests = destinations(&net, &cfg);
        let t1 = trace_one(&net, vps[0], dests[0], &cfg);
        let t2 = trace_one(&net, vps[0], dests[0], &cfg);
        assert_eq!(t1, t2);
    }

    #[test]
    fn campaign_matches_serial_execution() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 3);
        let parallel = campaign(&net, &vps, &cfg);
        let dests = destinations(&net, &cfg);
        let (net_ref, cfg_ref) = (&net, &cfg);
        let serial: Corpus = vps
            .iter()
            .flat_map(|&vp| {
                dests
                    .iter()
                    .map(move |&d| trace_one(net_ref, vp, d, cfg_ref))
            })
            .filter(|t| t.responsive_count() > 0)
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sharded_campaign_matches_for_every_thread_count() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 3);
        let rec = obs::Recorder::disabled();
        let serial = probe_campaign_in_pool(&net, &vps, &cfg, &pool::WorkerPool::new(1), &rec);
        // Sweep thread counts past the job count: shards must concatenate to
        // the same corpus whether they split mid-VP, per-VP, or per-probe.
        for threads in [2, 3, 5, 8, 64] {
            let wp = pool::WorkerPool::new(threads);
            let sharded = probe_campaign_in_pool(&net, &vps, &cfg, &wp, &rec);
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }

    #[test]
    fn campaign_jsonl_write_read_write_is_byte_identical() {
        let (net, cfg) = fixture();
        let traces = campaign(&net, &select_vps(&net, 3, &[], 3), &cfg);
        let write = |c: &Corpus| {
            let mut buf = Vec::new();
            crate::io::write_jsonl(&mut buf, c).unwrap();
            buf
        };
        let first = write(&traces);
        let read = crate::io::read_jsonl(&first[..]).unwrap();
        assert_eq!(write(&read), first);
        assert_eq!(read.slots(0..read.len()), traces.slots(0..traces.len()));
        assert_eq!(read.addrs(), traces.addrs());
    }

    #[test]
    fn campaign_records_corpus_counters_and_workers() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 9);
        let rec = obs::Recorder::new(false);
        let wp = pool::WorkerPool::with_recorder(2, rec.clone());
        let traces = probe_campaign_in_pool(&net, &vps, &cfg, &wp, &rec);
        assert_eq!(traces, campaign(&net, &vps, &cfg));
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_CAMPAIGN_WORKERS], 2);
        assert_eq!(
            report.counters[obs::names::TRACEROUTE_TRACES],
            traces.len() as u64
        );
    }

    #[test]
    fn first_hop_is_in_vp_as() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 4);
        let traces = campaign(&net, &vps, &cfg);
        assert!(!traces.is_empty());
        for t in traces.iter().take(50) {
            if let Some(Some(h)) = t.hops().next() {
                // The first responding hop belongs to (or is reachable in)
                // the VP AS — its address resolves somewhere sane.
                assert!(h.addr != 0);
            }
        }
    }

    #[test]
    fn firewalled_stubs_never_respond() {
        let cfg_gen = GeneratorConfig {
            stub_firewall_prob: 1.0,
            ..GeneratorConfig::tiny(5)
        };
        let net = Internet::generate(cfg_gen);
        let cfg = ProbeConfig::default();
        let vps = select_vps(&net, 3, &[], 5);
        let stubs = net.graph.tier_members(Tier::Stub);
        let traces = campaign(&net, &vps, &cfg);
        // Border-dropping firewalled ASes never respond; border-responding
        // ones expose at most one router (the border) per trace.
        for t in &traces {
            let mut fw_routers: std::collections::BTreeSet<topo_gen::RouterId> =
                std::collections::BTreeSet::new();
            for (_, h) in t.responsive() {
                if let Some(iface) = net.topology.iface_by_addr(h.addr) {
                    let owner = net.topology.owner(iface.router);
                    if net.is_firewalled(owner) {
                        assert!(
                            net.graph.node(owner).unwrap().firewall_border_responds,
                            "border-dropping firewalled {owner} responded in {t}"
                        );
                        fw_routers.insert(iface.router);
                    }
                }
            }
            assert!(
                fw_routers.len() <= 1,
                "more than the border router responded in {t}"
            );
        }
        // Traces into firewalled stub space never reach a *host*; the only
        // completions are echo replies for the border router's own
        // interface addresses (a border filter protects what's behind it,
        // not itself).
        for t in &traces {
            let to_stub = stubs
                .iter()
                .any(|s| net.addressing.blocks[s].contains(t.dst));
            if t.reached_dst() && to_stub {
                assert!(
                    net.topology.iface_by_addr(t.dst).is_some(),
                    "host behind a firewall answered: {t}"
                );
            }
        }
    }

    #[test]
    fn echo_replies_present() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 4, &[], 6);
        let traces = campaign(&net, &vps, &cfg);
        let hops = || traces.iter().flat_map(|t| t.hops().flatten());
        assert!(
            hops().any(|h| h.reply == ReplyType::EchoReply),
            "campaign should contain echo replies"
        );
        assert!(traces.iter().any(TraceRef::reached_dst));
        assert!(hops().count() > traces.len(), "multi-hop traces expected");
    }

    #[test]
    fn dest_unreachables_occur_and_end_measurements() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 4, &[], 11);
        let traces = campaign(&net, &vps, &cfg);
        let unreachable: Vec<TraceRef<'_>> = traces
            .iter()
            .filter(|t| t.stop == StopReason::Unreachable)
            .collect();
        assert!(!unreachable.is_empty(), "no unreachables in campaign");
        for t in unreachable {
            let (_, last) = t.last_hop().expect("unreachable ends responsive");
            assert_eq!(last.reply, ReplyType::DestUnreachable);
            // The measurement stops right there: no trailing gap probes.
            assert!(t.hops().next_back().unwrap().is_some());
        }
    }

    #[test]
    fn reactive_campaign_reprobes_suspicious_prefixes() {
        let (net, cfg) = fixture();
        let vp = select_vps(&net, 1, &[], 12)[0];
        let traces = reactive_campaign(&net, vp, &cfg, 2);
        assert!(!traces.is_empty());
        // Some prefix must have been re-probed (several distinct dests in
        // one announced prefix).
        let mut per_prefix: std::collections::BTreeMap<
            net_types::Prefix,
            std::collections::BTreeSet<u32>,
        > = std::collections::BTreeMap::new();
        for t in &traces {
            for &(prefix, _) in &net.addressing.announced {
                if prefix.contains(t.dst) {
                    per_prefix.entry(prefix).or_default().insert(t.dst);
                }
            }
        }
        assert!(
            per_prefix.values().any(|d| d.len() >= 2),
            "no prefix was re-probed"
        );
        // Deterministic.
        let again = reactive_campaign(&net, vp, &cfg, 2);
        assert_eq!(traces, again);
    }

    #[test]
    fn probe_pairs_is_pair_aligned_and_unfiltered() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 13);
        let dests = destinations(&net, &cfg);
        let pairs: Vec<(RouterId, u32)> = vps
            .iter()
            .flat_map(|&vp| dests.iter().map(move |&d| (vp, d)))
            .collect();
        let wp = pool::WorkerPool::new(2);
        let probed = probe_pairs_in_pool(&net, &pairs, &cfg, &wp);
        assert_eq!(
            probed.rows().count(),
            pairs.len(),
            "unfiltered: one trace per pair"
        );
        assert_eq!(probed.ases.len(), pairs.len());
        for (&(vp, dst), t) in pairs.iter().zip(probed.rows()) {
            assert_eq!(t.to_owned(), trace_one(&net, vp, dst, &cfg));
            assert_eq!(t.dst, dst);
        }
    }

    #[test]
    fn untouched_pairs_keep_identical_traces_after_events() {
        use topo_gen::TopologyEvent;
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 14);
        let dests = destinations(&net, &cfg);
        let pairs: Vec<(RouterId, u32)> = vps
            .iter()
            .flat_map(|&vp| dests.iter().map(move |&d| (vp, d)))
            .collect();
        // Apply one intra-AS event of each kind and check the dirty-set
        // contract after each: pairs whose pre-event traversed-AS set is
        // disjoint from the touched set must produce byte-identical traces.
        let mut net = net;
        let link = net
            .internal_links()
            .into_iter()
            .find(|&(asn, a, b)| {
                let mut probe = net.topology.clone();
                let _ = asn;
                probe.fail_internal_link(a, b)
            })
            .expect("removable link");
        let add_asn = *net.topology.as_routers.keys().last().unwrap();
        let events = [
            TopologyEvent::LinkDown {
                asn: link.0,
                a: link.1,
                b: link.2,
            },
            TopologyEvent::RouterAdd {
                asn: add_asn,
                attach: net.topology.as_routers[&add_asn][0],
            },
        ];
        let mut checked = 0usize;
        for ev in &events {
            let mut ases = AsSets::new();
            let traces: Vec<Trace> = pairs
                .iter()
                .map(|&(vp, d)| {
                    let fwd = net.forward_path(vp, d);
                    traversed_ases(&net, vp, d, &fwd.hops, fwd.outcome, &mut ases);
                    trace_one(&net, vp, d, &cfg)
                })
                .collect();
            let out = net.apply_event(ev);
            assert!(out.applied && !out.rib_changed, "{}", ev.describe());
            for (k, (&(vp, d), trace)) in pairs.iter().zip(&traces).enumerate() {
                if !ases[k].iter().any(|a| out.touched.contains(a)) {
                    assert_eq!(
                        trace_one(&net, vp, d, &cfg),
                        *trace,
                        "untouched pair ({vp:?}, {d:#010x}) changed after {}",
                        ev.describe()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no untouched pairs exercised");
    }

    /// The pool's traversed-AS sets, taken from the walks that synthesized
    /// the rows, must equal `traversed_ases` over a fresh `forward_path`,
    /// before and after random topology events.
    mod pool_sets {
        use super::*;
        use proptest::prelude::*;
        use topo_gen::TopologyEvent;

        fn check(
            net: &Internet,
            pairs: &[(RouterId, u32)],
            cfg: &ProbeConfig,
        ) -> Result<(), TestCaseError> {
            let wp = pool::WorkerPool::new(2);
            let probed = probe_pairs_in_pool(net, pairs, cfg, &wp);
            prop_assert_eq!(probed.ases.len(), pairs.len());
            for ((k, &(vp, dst)), row) in pairs.iter().enumerate().zip(probed.rows()) {
                let fwd = net.forward_path(vp, dst);
                let mut want = AsSets::new();
                traversed_ases(net, vp, dst, &fwd.hops, fwd.outcome, &mut want);
                prop_assert_eq!(probed.ases.get(k), want.get(0), "pair {}", k);
                prop_assert_eq!(row.to_owned(), trace_one(net, vp, dst, cfg));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn pool_sets_match_traversed_ases_under_events(
                seed in 0u64..500,
                picks in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..64),
                events in proptest::collection::vec((0u8..3, 0usize..10_000), 1..6),
            ) {
                let mut net = Internet::generate(GeneratorConfig::tiny(seed));
                let cfg = ProbeConfig { per_prefix_cap: 2, ..ProbeConfig::default() };
                let dests = destinations(&net, &cfg);
                let pairs = |net: &Internet| -> Vec<(RouterId, u32)> {
                    let topo = &net.topology;
                    picks
                        .iter()
                        .map(|&(v, d)| {
                            // Half campaign destinations, half interface
                            // addresses (the routers an event adds included).
                            let dst = if d % 2 == 0 {
                                dests[d % dests.len()]
                            } else {
                                topo.ifaces[d % topo.ifaces.len()].addr
                            };
                            (topo.routers[v % topo.router_count()].id, dst)
                        })
                        .collect()
                };
                check(&net, &pairs(&net), &cfg)?;
                for (kind, k) in events {
                    let links = net.internal_links();
                    let (asn, a, b) = links[k % links.len()];
                    let ev = match kind {
                        0 => TopologyEvent::LinkDown { asn, a, b },
                        1 => TopologyEvent::LinkUp { asn, a, b },
                        _ => TopologyEvent::RouterAdd { asn, attach: a },
                    };
                    net.apply_event(&ev);
                    check(&net, &pairs(&net), &cfg)?;
                }
            }
        }
    }

    #[test]
    fn gap_limit_bounds_silent_tails() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 7);
        let traces = campaign(&net, &vps, &cfg);
        for t in &traces {
            if t.stop != StopReason::Completed {
                let trailing = t.hops().rev().take_while(Option::is_none).count();
                assert!(trailing <= cfg.gap_limit, "tail too long: {t}");
            }
        }
    }
}
