//! Phase 1: constructing the annotated IR graph (§4).
//!
//! Inferred routers (IRs) come from alias sets; addresses without alias
//! information become singleton IRs. Links run from an IR to the interface
//! seen next in a traceroute, labelled with the N/E/M confidence of Table 3,
//! and carry the origin-AS set `L(IRᵢ, j)` (§4.3) and the per-link
//! destination ASes the third-party test needs (§6.1.1). Per-IR destination
//! AS sets apply the reallocated-prefix filter of §4.4.
//!
//! # Parallel two-pass build (DESIGN.md §12, pool scheduling §13)
//!
//! The build is chunked into tasks on the shared [`pool::WorkerPool`] and
//! is bit-identical to a serial walk for every thread count:
//!
//! 1. **Intern** (pass 0): workers scan disjoint trace shards for responding
//!    addresses and trace destinations; the unions become an
//!    [`AddrInterner`], whose ids are *canonical* (ascending address order)
//!    regardless of which shard saw an address first, and a sorted table of
//!    distinct destinations. `IfIdx(i)` and interner id `i` are the same
//!    number. Each destination's AS is looked up once and ranked among the
//!    distinct destination ASes.
//! 2. **Extract** (pass 1): workers re-walk their trace shards emitting
//!    packed, IR-major link keys (`u128`) and interface-major destination
//!    keys (`u64`), entirely in interned-id space, sorted and deduplicated
//!    per task.
//! 3. **Reduce**: tasks over disjoint IR ranges cut their range out of every
//!    shard by binary search, sort and deduplicate it, and derive the
//!    predecessor records it carries; a second pass over interface ranges
//!    cuts and sorts destination keys and predecessor records the same way.
//!    The calling thread then folds the sorted ranges, in range order, into
//!    links, destination sets and predecessor maps. Each range's sorted keys
//!    depend only on the set of keys in it, and every accumulator is
//!    order-insensitive — link label by `min`, origin/destination/
//!    predecessor collections are sets — so neither the shard nor the range
//!    split can reach the output.
//! 4. **Annotate** (per-IR metadata): workers process disjoint IR ranges
//!    with private [`RelQueryCache`]s (hit/miss tallies merged in worker
//!    order), and results are written back in IR order.

use crate::refine::shard::ShardPlan;
use crate::Config;
use alias::AliasSets;
use as_rel::{AsRelationships, CustomerCones, RelQueryCache};
use bgp::{IpToAs, OriginInfo, OriginKind};
use net_types::{AddrInterner, Asn};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use traceroute::{ReplyType, Trace};

/// Index of an inferred router.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IrId(pub u32);

/// Index of an observed interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IfIdx(pub u32);

/// Link confidence label (Table 3). Lower discriminant = higher confidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkLabel {
    /// Nexthop: same origin AS, or hop distance 1, and the far side did not
    /// answer with an Echo Reply.
    Nexthop,
    /// Echo: hop distance 1, far side answered with an Echo Reply.
    Echo,
    /// Multihop: separated by unresponsive hops with different origin ASes.
    Multihop,
}

/// A link from an IR to a subsequently-observed interface.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Link {
    /// The subsequent interface.
    pub dst: IfIdx,
    /// Best (highest-confidence) label observed for this link.
    pub label: LinkLabel,
    /// `L(IRᵢ, j)`: origin ASes of the IR's interfaces seen immediately
    /// prior to `dst` in a traceroute (§4.3).
    pub origins: BTreeSet<Asn>,
    /// Destination ASes of the traces whose `IR → dst` segment created this
    /// link (the third-party test consults these, §6.1.1).
    pub dests: BTreeSet<Asn>,
}

/// One inferred router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ir {
    /// Identifier (index into [`IrGraph::irs`]).
    pub id: IrId,
    /// Observed interfaces on this router.
    pub ifaces: Vec<IfIdx>,
    /// Outgoing links, ordered by destination interface.
    pub links: Vec<Link>,
    /// Union of the interfaces' origin ASes (IXP and unannounced addresses
    /// contribute nothing, §4.1).
    pub origins: BTreeSet<Asn>,
    /// Destination AS set after §4.4's reallocation filtering.
    pub dests: BTreeSet<Asn>,
}

/// The annotated IR graph.
#[derive(Clone, Debug, Default)]
pub struct IrGraph {
    /// All inferred routers; `IrId` indexes this.
    pub irs: Vec<Ir>,
    /// Interface addresses; `IfIdx` indexes this and the parallel arrays.
    pub iface_addrs: Vec<u32>,
    /// Origin resolution per interface.
    pub iface_origin: Vec<OriginInfo>,
    /// Owning IR per interface.
    pub iface_ir: Vec<IrId>,
    /// Raw (unfiltered) destination AS set per interface.
    pub iface_dests: Vec<BTreeSet<Asn>>,
    /// Per interface: predecessor IR → that IR's interfaces seen immediately
    /// prior (drives interface-annotation voting, §6.2).
    pub preds: Vec<BTreeMap<IrId, BTreeSet<IfIdx>>>,
    /// Address ↔ interface-index mapping: interface `i`'s address is the
    /// `i`-th smallest observed address, so the interner's dense ids *are*
    /// the `IfIdx` values.
    pub interner: AddrInterner,
    /// Annotation-dependency shards (link-connected components),
    /// precomputed for the refinement engine.
    pub shards: ShardPlan,
}

/// Width of the destination-AS rank field of a packed link key.
const DEST_RANK_BITS: u32 = 30;

/// One link observation from a single adjacent-hop pair, packed IR-major
/// into a `u128`: `ir:32 | dst:32 | pred:32 | dest_rank:30 | label:2`.
/// `ir` is the prior hop's IR, `dst` the next hop's interface, `pred` the
/// prior interface (its origin is `iface_origin[pred]`, so the origin needs
/// no field), `dest_rank` the rank of the trace's destination AS, and
/// `label` the Table 3 label of this one observation. Sorting keys groups
/// them by `(ir, dst)`, the grouping key of the reduction; the other fields
/// only feed order-insensitive accumulators.
fn pack_link(ir: u32, dst: u32, pred: u32, dest_rank: u32, label: LinkLabel) -> u128 {
    debug_assert!(dest_rank < 1 << DEST_RANK_BITS);
    (ir as u128) << 96
        | (dst as u128) << 64
        | (pred as u128) << 32
        | (dest_rank as u128) << 2
        | label as u128
}

/// Inverse of [`pack_link`]: `(ir, dst, pred, dest_rank, label)`.
fn unpack_link(key: u128) -> (u32, u32, u32, u32, LinkLabel) {
    let label = match key & 3 {
        0 => LinkLabel::Nexthop,
        1 => LinkLabel::Echo,
        _ => LinkLabel::Multihop,
    };
    (
        (key >> 96) as u32,
        (key >> 64) as u32,
        (key >> 32) as u32,
        (key as u32) >> 2,
        label,
    )
}

/// One destination observation, `iface:32 | dest_rank:32`: the interface
/// saw a trace toward the ranked destination AS.
fn pack_dest(iface: u32, dest_rank: u32) -> u64 {
    (iface as u64) << 32 | dest_rank as u64
}

/// One predecessor record from the link reduction, interface-major:
/// `dst:32 | ir:32 | pred:32` — interface `pred` of IR `ir` was seen
/// immediately before interface `dst`.
fn pack_pred(dst: u32, ir: u32, pred: u32) -> u128 {
    (dst as u128) << 64 | (ir as u128) << 32 | pred as u128
}

/// The keys of every sorted shard whose major field (`major`) lies in
/// `[lo, hi)`, found by binary search and gathered into one allocation,
/// sorted and deduplicated.
fn gather<K: Copy + Ord>(
    shards: &[Vec<K>],
    major: impl Fn(K) -> usize,
    lo: usize,
    hi: usize,
) -> Vec<K> {
    let parts: Vec<&[K]> = shards
        .iter()
        .map(|s| {
            let a = s.partition_point(|&k| major(k) < lo);
            let b = s.partition_point(|&k| major(k) < hi);
            &s[a..b]
        })
        .collect();
    let mut keys = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        keys.extend_from_slice(p);
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Chunks `n` items into `batch`-sized pool tasks; returns the task count.
fn task_count(n: usize, batch: usize) -> usize {
    n.div_ceil(batch)
}

/// Task `t`'s contiguous item range under `batch`-sized chunking of `n`.
fn task_range(n: usize, t: usize, batch: usize) -> (usize, usize) {
    (t * batch, ((t + 1) * batch).min(n))
}

impl IrGraph {
    /// Builds the graph from a corpus (§4) on an ad-hoc worker pool sized
    /// from `cfg.threads`, without telemetry.
    pub fn build(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> IrGraph {
        let rec = obs::Recorder::disabled();
        let wp = pool::WorkerPool::with_recorder(cfg.threads, rec.clone());
        Self::build_in_pool(traces, aliases, ip2as, cfg, rels, cones, &wp, &rec)
    }

    /// Builds the graph from a corpus (§4) on a caller-provided worker pool
    /// — the entry the pipeline uses so all phases share one pool —
    /// recording worker counts and relationship-cache telemetry on `rec`.
    /// Each parallel pass is chunked into
    /// [`pool::WorkerPool::batch_size`]-sized tasks (see the module docs for
    /// the sharding scheme); task outputs rejoin in task-index order, so
    /// stealing never reaches the output.
    #[allow(clippy::too_many_arguments)]
    pub fn build_in_pool(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
        wp: &pool::WorkerPool,
        rec: &obs::Recorder,
    ) -> IrGraph {
        rec.add_exec(
            obs::names::EXEC_GRAPH_WORKERS,
            wp.worker_cap(traces.len()) as u64,
        );
        let mut g = IrGraph::default();

        // ---- pass 0: intern every address observed as a responding hop,
        // and collect the destinations of traces with one. Shard-local
        // sort+dedup keeps the merge small; the interner and the destination
        // table re-sort the unions, so both depend only on observed *sets*.
        let span = rec.span(obs::names::PHASE1_INTERN);
        let trace_batch = wp.batch_size(traces.len());
        let addr_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut addrs: Vec<u32> = Vec::new();
                let mut dsts: Vec<u32> = Vec::new();
                for t in &traces[lo..hi] {
                    let before = addrs.len();
                    addrs.extend(t.responsive().map(|(_, h)| h.addr));
                    if addrs.len() > before {
                        dsts.push(t.dst);
                    }
                }
                addrs.sort_unstable();
                addrs.dedup();
                dsts.sort_unstable();
                dsts.dedup();
                (addrs, dsts)
            },
        );
        let mut dst_addrs: Vec<u32> = Vec::new();
        let mut addrs: Vec<u32> = Vec::new();
        for (a, d) in addr_shards {
            addrs.extend(a);
            dst_addrs.extend(d);
        }
        g.interner = AddrInterner::from_addrs(addrs);
        g.iface_addrs = g.interner.addrs().to_vec();
        let n_ifaces = g.iface_addrs.len();
        dst_addrs.sort_unstable();
        dst_addrs.dedup();
        drop(span);

        // Origin resolution per interface and per destination: independent
        // longest-prefix lookups, sharded over each id space and rejoined in
        // id order. Destination ASes are then ranked (ascending ASN, so
        // `Asn::NONE` ranks first when present): a rank fits the 30-bit
        // field of a link key, since there are no more ranks than traces.
        let span = rec.span(obs::names::PHASE1_ORIGINS);
        let iface_addrs = &g.iface_addrs;
        let iface_batch = wp.batch_size(n_ifaces);
        let origin_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_ifaces, iface_batch),
            |t| {
                let (lo, hi) = task_range(n_ifaces, t, iface_batch);
                iface_addrs[lo..hi]
                    .iter()
                    .map(|&a| ip2as.lookup(a))
                    .collect::<Vec<OriginInfo>>()
            },
        );
        g.iface_origin = origin_shards.into_iter().flatten().collect();
        let dst_batch = wp.batch_size(dst_addrs.len());
        let dst_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(dst_addrs.len(), dst_batch),
            |t| {
                let (lo, hi) = task_range(dst_addrs.len(), t, dst_batch);
                dst_addrs[lo..hi]
                    .iter()
                    .map(|&a| ip2as.lookup(a).asn)
                    .collect::<Vec<Asn>>()
            },
        );
        let dst_as: Vec<Asn> = dst_shards.into_iter().flatten().collect();
        let mut dest_asns = dst_as.clone();
        dest_asns.sort_unstable();
        dest_asns.dedup();
        assert!(
            dest_asns.len() < 1 << DEST_RANK_BITS,
            "destination AS ranks overflow the link key"
        );
        let dst_rank: Vec<u32> = dst_as
            .iter()
            .map(|a| dest_asns.binary_search(a).expect("ranked AS") as u32)
            .collect();
        g.iface_ir = vec![IrId(u32::MAX); n_ifaces];
        drop(span);

        // ---- IRs from alias groups over observed addresses (serial: IR
        // numbering is an ordering decision, and the work is linear).
        let span = rec.span(obs::names::PHASE1_IRS);
        let mut ir_members: Vec<Vec<IfIdx>> = Vec::new();
        let mut grouped = vec![false; n_ifaces];
        for group in aliases.interned_groups(&g.interner) {
            if group.len() >= 2 {
                let members: Vec<IfIdx> = group.into_iter().map(IfIdx).collect();
                for &m in &members {
                    grouped[m.0 as usize] = true;
                }
                ir_members.push(members);
            }
        }
        for (idx, seen) in grouped.iter().enumerate() {
            if !seen {
                ir_members.push(vec![IfIdx(idx as u32)]);
            }
        }
        for members in ir_members {
            let id = IrId(g.irs.len() as u32);
            for &m in &members {
                g.iface_ir[m.0 as usize] = id;
            }
            g.irs.push(Ir {
                id,
                ifaces: members,
                links: Vec::new(),
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            });
        }

        drop(span);

        // ---- pass 1: extract packed link/destination keys per trace
        // shard, entirely in interned-id space. Each hop is interned once,
        // into a buffer the task reuses across its traces.
        let span = rec.span(obs::names::PHASE1_LINKS);
        let graph = &g;
        let obs_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                // Every responsive hop yields at most one key of each kind.
                let bound: usize = traces[lo..hi].iter().map(|t| t.hops.len()).sum();
                let mut links: Vec<u128> = Vec::with_capacity(bound);
                let mut dest_keys: Vec<u64> = Vec::with_capacity(bound);
                let mut hops: Vec<(u8, u32, ReplyType)> = Vec::new();
                for t in &traces[lo..hi] {
                    hops.clear();
                    hops.extend(t.responsive().map(|(ttl, h)| {
                        let id = graph.interner.id(h.addr).expect("hop addr interned");
                        (ttl, id, h.reply)
                    }));
                    let Some(&(_, _, last_reply)) = hops.last() else {
                        continue;
                    };
                    let d = dst_addrs
                        .binary_search(&t.dst)
                        .expect("trace destination interned");
                    let rank = dst_rank[d];

                    // Destination AS sets (§4.4): every responding interface
                    // records the trace's destination AS — except an Echo Reply
                    // last hop, whose "destination" is just the probed address.
                    if dest_asns[rank as usize].is_some() {
                        let n = hops.len() - usize::from(last_reply == ReplyType::EchoReply);
                        dest_keys.extend(hops[..n].iter().map(|&(_, i, _)| pack_dest(i, rank)));
                    }

                    // Links between adjacent responsive hops.
                    for pair in hops.windows(2) {
                        let ((ttl_x, xi, _), (ttl_y, yi, reply_y)) = (pair[0], pair[1]);
                        if xi == yi {
                            continue;
                        }
                        let ir_x = graph.iface_ir[xi as usize];
                        if ir_x == graph.iface_ir[yi as usize] {
                            continue; // both sides on one IR: not a link
                        }
                        let ox = graph.iface_origin[xi as usize];
                        let oy = graph.iface_origin[yi as usize];
                        let label = link_label(ttl_y - ttl_x, ox, oy, reply_y);
                        links.push(pack_link(ir_x.0, yi, xi, rank, label));
                    }
                }
                // Sorted shards are what the reduction's binary searches
                // cut; dedup drops repeats, which only re-feed idempotent
                // accumulators. Shards live until the reduction ends, so
                // each gives back the unused tail of its bound (in place).
                links.sort_unstable();
                links.dedup();
                links.shrink_to_fit();
                dest_keys.sort_unstable();
                dest_keys.dedup();
                dest_keys.shrink_to_fit();
                (links, dest_keys)
            },
        );
        let (link_shards, dest_shards): (Vec<Vec<u128>>, Vec<Vec<u64>>) =
            obs_shards.into_iter().unzip();
        drop(span);

        // ---- reduction, by IR range: each task cuts its IRs' keys out of
        // every shard and restores their total order, and derives the
        // predecessor records they carry, interface-major. Equal key sets in
        // any shard distribution sort to the same sequence, so the ranges,
        // rejoined in range order, are one sorted key sequence whatever the
        // shard or range split.
        let span = rec.span(obs::names::PHASE1_REDUCE);
        let n_irs = g.irs.len();
        let ir_batch = wp.batch_size(n_irs);
        let reduced = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_irs, ir_batch),
            |t| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let keys = gather(&link_shards, |k| (k >> 96) as usize, lo, hi);
                let mut preds: Vec<u128> = keys
                    .iter()
                    .map(|&k| {
                        let (ir, dst, pred, ..) = unpack_link(k);
                        pack_pred(dst, ir, pred)
                    })
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                (keys, preds)
            },
        );
        drop(link_shards);
        let (link_keys, pred_parts): (Vec<Vec<u128>>, Vec<Vec<u128>>) = reduced.into_iter().unzip();

        // Per-interface destination keys and predecessor records, cut by
        // interface range from the destination shards and the reduction's
        // records the same way.
        let per_iface = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_ifaces, iface_batch),
            |t| {
                let (lo, hi) = task_range(n_ifaces, t, iface_batch);
                (
                    gather(&dest_shards, |k| (k >> 32) as usize, lo, hi),
                    gather(&pred_parts, |k| (k >> 64) as usize, lo, hi),
                )
            },
        );
        drop(dest_shards);
        drop(pred_parts);

        // The folds build the graph's sets here, on the calling thread. Sets
        // built on pool threads land in those threads' allocator arenas,
        // above the shards' freed memory, which then stays resident; that
        // measured as a 15% higher peak RSS (DESIGN.md §12).
        for keys in link_keys {
            for run in keys.chunk_by(|a, b| a >> 64 == b >> 64) {
                let (ir, dst, ..) = unpack_link(run[0]);
                let mut link = Link {
                    dst: IfIdx(dst),
                    label: LinkLabel::Multihop,
                    origins: BTreeSet::new(),
                    dests: BTreeSet::new(),
                };
                for &key in run {
                    let (_, _, pred, rank, label) = unpack_link(key);
                    link.label = link.label.min(label); // keep the highest confidence
                    let origin = g.iface_origin[pred as usize].asn;
                    if origin.is_some() {
                        link.origins.insert(origin);
                    }
                    let dest = dest_asns[rank as usize];
                    if dest.is_some() {
                        link.dests.insert(dest);
                    }
                }
                // Runs arrive in ascending (ir, dst) order, so each IR's
                // link vector comes out sorted by destination interface.
                g.irs[ir as usize].links.push(link);
            }
        }
        g.iface_dests = vec![BTreeSet::new(); n_ifaces];
        g.preds = vec![BTreeMap::new(); n_ifaces];
        for (dest_keys, pred_keys) in per_iface {
            for run in dest_keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                g.iface_dests[(run[0] >> 32) as usize] =
                    run.iter().map(|&k| dest_asns[k as u32 as usize]).collect();
            }
            // Predecessor maps for §6.2 interface voting.
            for run in pred_keys.chunk_by(|a, b| a >> 64 == b >> 64) {
                g.preds[(run[0] >> 64) as usize] = run
                    .chunk_by(|a, b| a >> 32 == b >> 32)
                    .map(|ir_run| {
                        let ir = IrId((ir_run[0] >> 32) as u32);
                        (ir, ir_run.iter().map(|&k| IfIdx(k as u32)).collect())
                    })
                    .collect();
            }
        }

        drop(span);

        // ---- per-IR metadata: origin-AS unions and §4.4-filtered
        // destination sets, chunked over the IR space. Each task owns a
        // private relationship cache; hit/miss tallies are
        // execution-dependent (the split varies with the thread count), so
        // they merge into the exec class in task order.
        let span = rec.span(obs::names::PHASE1_METADATA);
        let graph = &g;
        let meta_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_irs, ir_batch),
            |t| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let mut cache = RelQueryCache::new(rels, cones);
                let mut out: Vec<(BTreeSet<Asn>, BTreeSet<Asn>)> = Vec::with_capacity(hi - lo);
                for ir in &graph.irs[lo..hi] {
                    let mut origins: BTreeSet<Asn> = BTreeSet::new();
                    let mut dests: BTreeSet<Asn> = BTreeSet::new();
                    for &ifidx in &ir.ifaces {
                        let o = graph.iface_origin[ifidx.0 as usize];
                        if o.asn.is_some() && o.kind != OriginKind::Ixp {
                            origins.insert(o.asn);
                        }
                        let raw = &graph.iface_dests[ifidx.0 as usize];
                        dests.extend(filtered_iface_dests(raw, o.asn, cfg, &mut cache));
                    }
                    out.push((origins, dests));
                }
                let mut sheet = obs::MetricSheet::new();
                let stats = cache.stats();
                sheet.add_exec(obs::names::EXEC_CACHE_HITS, stats.hits);
                sheet.add_exec(obs::names::EXEC_CACHE_MISSES, stats.misses);
                (out, sheet)
            },
        );
        let mut merged = obs::MetricSheet::new();
        let mut meta: Vec<(BTreeSet<Asn>, BTreeSet<Asn>)> = Vec::with_capacity(n_irs);
        for (out, sheet) in meta_shards {
            meta.extend(out);
            merged.merge(&sheet);
        }
        rec.absorb(&merged);
        for (ir, (origins, dests)) in g.irs.iter_mut().zip(meta) {
            ir.origins = origins;
            ir.dests = dests;
        }
        drop(span);

        // ---- refinement shard plan (link-connected components, §6.3) ----
        let span = rec.span(obs::names::PHASE1_SHARD_PLAN);
        g.shards = ShardPlan::compute(&g.irs, &g.iface_ir);
        drop(span);

        g
    }

    /// IRs with no outgoing links (phase 2 targets).
    pub fn last_hop_irs(&self) -> impl Iterator<Item = &Ir> {
        self.irs.iter().filter(|ir| ir.links.is_empty())
    }

    /// IRs with at least one outgoing link (phase 3 targets).
    pub fn mid_path_irs(&self) -> impl Iterator<Item = &Ir> {
        self.irs.iter().filter(|ir| !ir.links.is_empty())
    }

    /// The interface for an address.
    pub fn iface_of_addr(&self, addr: u32) -> Option<IfIdx> {
        self.interner.id(addr).map(IfIdx)
    }

    /// The IR carrying an address.
    pub fn ir_of_addr(&self, addr: u32) -> Option<IrId> {
        self.iface_of_addr(addr)
            .map(|i| self.iface_ir[i.0 as usize])
    }

    /// Distribution of best link labels, for the Table 3 statistics.
    pub fn label_distribution(&self) -> BTreeMap<LinkLabel, usize> {
        let mut out = BTreeMap::new();
        for ir in &self.irs {
            for l in &ir.links {
                *out.entry(l.label).or_insert(0) += 1;
            }
        }
        out
    }

    /// Total link count.
    pub fn link_count(&self) -> usize {
        self.irs.iter().map(|ir| ir.links.len()).sum()
    }
}

/// Table 3's labelling rules.
fn link_label(dist: u8, ox: OriginInfo, oy: OriginInfo, reply: ReplyType) -> LinkLabel {
    if reply == ReplyType::EchoReply {
        // Echo replies only prove the address is on the responding router.
        if dist == 1 || (ox.asn.is_some() && ox.asn == oy.asn) {
            LinkLabel::Echo
        } else {
            LinkLabel::Multihop
        }
    } else if dist == 1 || (ox.asn.is_some() && ox.asn == oy.asn) {
        LinkLabel::Nexthop
    } else {
        LinkLabel::Multihop
    }
}

/// §4.4's per-interface destination filter: a set of exactly two ASes, one
/// matching the interface origin and the other a small-cone AS with no
/// BGP-observable relationship to it, indicates a reallocated prefix; the
/// larger-cone AS (the reallocating provider) is removed. Cone sizes and
/// relationship probes go through the worker's memoized cache.
fn filtered_iface_dests(
    raw: &BTreeSet<Asn>,
    origin: Asn,
    cfg: &Config,
    cache: &mut RelQueryCache<'_>,
) -> BTreeSet<Asn> {
    if !cfg.enable_realloc || raw.len() != 2 || origin.is_none() || !raw.contains(&origin) {
        return raw.clone();
    }
    let other = *raw.iter().find(|&&a| a != origin).expect("two elements");
    if cache.cone_size(other) > cfg.realloc_cone_max || cache.has_relationship(origin, other) {
        return raw.clone();
    }
    // Remove the AS with the larger cone (the provider).
    let drop = if cache.cone_size(origin) >= cache.cone_size(other) {
        origin
    } else {
        other
    };
    raw.iter().copied().filter(|&a| a != drop).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::Prefix;
    use traceroute::{Hop, StopReason};

    fn cfg() -> Config {
        Config::default()
    }

    fn tr(dst: u32, hops: &[(u8, u32, ReplyType)]) -> Trace {
        let max_ttl = hops.iter().map(|&(t, _, _)| t).max().unwrap_or(1);
        let mut v: Vec<Option<Hop>> = vec![None; max_ttl as usize];
        for &(ttl, addr, reply) in hops {
            v[ttl as usize - 1] = Some(Hop { addr, reply });
        }
        Trace {
            monitor: "vp".into(),
            src: 1,
            dst,
            hops: v,
            stop: StopReason::Completed,
        }
    }

    /// Address plan: 10.1.x = AS1, 10.2.x = AS2, 10.3.x = AS3.
    fn oracle() -> IpToAs {
        IpToAs::from_pairs([
            ("10.1.0.0/16".parse::<Prefix>().unwrap(), Asn(1)),
            ("10.2.0.0/16".parse::<Prefix>().unwrap(), Asn(2)),
            ("10.3.0.0/16".parse::<Prefix>().unwrap(), Asn(3)),
        ])
    }

    fn a(s: &str) -> u32 {
        net_types::parse_ipv4(s).unwrap()
    }

    const TE: ReplyType = ReplyType::TimeExceeded;
    const ER: ReplyType = ReplyType::EchoReply;

    fn build(traces: &[Trace], aliases: &AliasSets) -> IrGraph {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        IrGraph::build(traces, aliases, &oracle(), &cfg(), &rels, &cones)
    }

    #[test]
    fn singleton_irs_without_aliases() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.iface_addrs.len(), 2);
        assert_eq!(g.irs.len(), 2);
        assert_ne!(g.ir_of_addr(a("10.1.0.1")), g.ir_of_addr(a("10.2.0.1")));
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn alias_groups_become_irs() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let g = build(&traces, &aliases);
        assert_eq!(g.irs.len(), 2); // aliased pair + the 10.2 singleton
        let ir = g.ir_of_addr(a("10.1.0.1")).unwrap();
        assert_eq!(g.ir_of_addr(a("10.1.0.2")), Some(ir));
        // The merged IR has ONE link to 10.2.0.1 with both origins = {AS1}.
        let ir = &g.irs[ir.0 as usize];
        assert_eq!(ir.links.len(), 1);
        assert_eq!(ir.links[0].origins, BTreeSet::from([Asn(1)]));
        assert_eq!(ir.origins, BTreeSet::from([Asn(1)]));
    }

    #[test]
    fn nexthop_label_for_adjacent() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        let dist = g.label_distribution();
        assert_eq!(dist.get(&LinkLabel::Nexthop), Some(&1));
    }

    #[test]
    fn multihop_label_across_gap_different_origin() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (3, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Multihop), Some(&1));
    }

    #[test]
    fn nexthop_label_across_gap_same_origin() {
        let traces = [tr(
            a("10.1.0.99"),
            &[(1, a("10.1.0.1"), TE), (4, a("10.1.0.2"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Nexthop), Some(&1));
    }

    #[test]
    fn echo_label() {
        let traces = [tr(
            a("10.2.0.1"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), ER)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Echo), Some(&1));
    }

    #[test]
    fn best_label_wins_on_merge() {
        let traces = [
            // Multihop observation...
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (3, a("10.2.0.1"), TE)],
            ),
            // ...then a Nexthop observation of the same link.
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let g = build(&traces, &AliasSets::empty());
        let dist = g.label_distribution();
        assert_eq!(dist.get(&LinkLabel::Nexthop), Some(&1));
        assert_eq!(dist.get(&LinkLabel::Multihop), None);
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn origin_sets_accumulate_per_link() {
        // Fig. 5 of the paper: two different prior interfaces on one IR.
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.3.0.1")])]);
        let traces = [
            tr(
                a("10.2.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
            tr(
                a("10.2.0.99"),
                &[(1, a("10.3.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
        ];
        let g = build(&traces, &aliases);
        let ir = &g.irs[g.ir_of_addr(a("10.1.0.1")).unwrap().0 as usize];
        assert_eq!(ir.links.len(), 1);
        assert_eq!(ir.links[0].origins, BTreeSet::from([Asn(1), Asn(3)]));
    }

    #[test]
    fn dest_sets_exclude_echo_last_hop() {
        let traces = [tr(
            a("10.2.0.1"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), ER)],
        )];
        let g = build(&traces, &AliasSets::empty());
        // 10.1.0.1 records dest AS2; the echo responder records nothing.
        let i1 = g.iface_of_addr(a("10.1.0.1")).unwrap();
        let i2 = g.iface_of_addr(a("10.2.0.1")).unwrap();
        assert_eq!(g.iface_dests[i1.0 as usize], BTreeSet::from([Asn(2)]));
        assert!(g.iface_dests[i2.0 as usize].is_empty());
    }

    #[test]
    fn realloc_filter_drops_provider() {
        // Interface origin AS1 (provider, big cone); dests {AS1, AS3} where
        // AS3 is a small-cone AS with no relationship to AS1.
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(2)); // gives AS1 a cone of 2
        let cones = CustomerCones::compute(&rels);
        let mut cache = RelQueryCache::new(&rels, &cones);
        let raw = BTreeSet::from([Asn(1), Asn(3)]);
        let out = filtered_iface_dests(&raw, Asn(1), &cfg(), &mut cache);
        assert_eq!(out, BTreeSet::from([Asn(3)]));
        // With a known relationship, nothing is filtered.
        let mut rels2 = AsRelationships::new();
        rels2.add_p2c(Asn(1), Asn(3));
        let cones2 = CustomerCones::compute(&rels2);
        let mut cache2 = RelQueryCache::new(&rels2, &cones2);
        let out2 = filtered_iface_dests(&raw, Asn(1), &cfg(), &mut cache2);
        assert_eq!(out2, raw);
    }

    #[test]
    fn preds_track_prior_interfaces() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.5"), TE)],
            ),
        ];
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let g = build(&traces, &aliases);
        let yi = g.iface_of_addr(a("10.2.0.5")).unwrap();
        let ir = g.ir_of_addr(a("10.1.0.1")).unwrap();
        let preds = &g.preds[yi.0 as usize];
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[&ir].len(), 2, "both prior interfaces recorded");
    }

    #[test]
    fn last_hop_vs_mid_path_partition() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.mid_path_irs().count(), 1);
        assert_eq!(g.last_hop_irs().count(), 1);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        // A corpus exercising every accumulator: alias-grouped IRs, echo
        // last hops, the same link observed with different labels, and
        // destination sets fed by many traces.
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let mut traces = Vec::new();
        for i in 0..40u32 {
            let leaf = a("10.2.0.1") + (i % 7);
            traces.push(tr(
                a("10.3.0.99") + i,
                &[
                    (1, a("10.1.0.1") + (i % 3), TE),
                    (2, leaf, TE),
                    (4, a("10.3.0.7"), TE),
                ],
            ));
            traces.push(tr(leaf, &[(1, a("10.1.0.2"), TE), (2, leaf, ER)]));
        }
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let build_at = |threads: usize| {
            let cfg = Config {
                threads,
                ..Config::default()
            };
            IrGraph::build(&traces, &aliases, &oracle(), &cfg, &rels, &cones)
        };
        let base = build_at(1);
        for threads in [2, 3, 8] {
            let g = build_at(threads);
            assert_eq!(g.interner, base.interner, "threads={threads}");
            assert_eq!(g.iface_addrs, base.iface_addrs, "threads={threads}");
            assert_eq!(g.iface_origin, base.iface_origin, "threads={threads}");
            assert_eq!(g.iface_ir, base.iface_ir, "threads={threads}");
            assert_eq!(g.iface_dests, base.iface_dests, "threads={threads}");
            assert_eq!(g.preds, base.preds, "threads={threads}");
            assert_eq!(
                serde_json::to_string(&g.irs).unwrap(),
                serde_json::to_string(&base.irs).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_corpus_builds_at_any_thread_count() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let cfg = Config {
            threads: 8,
            ..Config::default()
        };
        let g = IrGraph::build(&[], &AliasSets::empty(), &oracle(), &cfg, &rels, &cones);
        assert!(g.irs.is_empty());
        assert!(g.iface_addrs.is_empty());
    }

    #[test]
    fn build_in_pool_records_worker_count() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let cfg = Config {
            threads: 2,
            ..Config::default()
        };
        let rec = obs::Recorder::new(false);
        let wp = pool::WorkerPool::with_recorder(cfg.threads, rec.clone());
        IrGraph::build_in_pool(
            &traces,
            &AliasSets::empty(),
            &oracle(),
            &cfg,
            &rels,
            &cones,
            &wp,
            &rec,
        );
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_GRAPH_WORKERS], 2);
        assert!(report.exec.contains_key(obs::names::EXEC_CACHE_HITS));
        assert!(report.exec.contains_key(obs::names::EXEC_CACHE_MISSES));
    }

    #[test]
    fn self_loops_and_repeats_skipped() {
        let traces = [tr(
            a("10.3.0.99"),
            &[
                (1, a("10.1.0.1"), TE),
                (2, a("10.1.0.1"), TE), // routing artifact: repeated addr
                (3, a("10.2.0.1"), TE),
            ],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn keys_pack_and_unpack_at_the_extremes() {
        let max_rank = (1u32 << DEST_RANK_BITS) - 1;
        let ids = [0, 1, u32::MAX - 1, u32::MAX];
        for label in [LinkLabel::Nexthop, LinkLabel::Echo, LinkLabel::Multihop] {
            for (ir, dst, pred) in [(0, 0, 0), (u32::MAX, u32::MAX, u32::MAX), (u32::MAX, 0, 1)] {
                for rank in [0, 1, max_rank] {
                    let key = pack_link(ir, dst, pred, rank, label);
                    assert_eq!(unpack_link(key), (ir, dst, pred, rank, label));
                }
            }
        }
        // IR-major, then destination interface; within one observation the
        // label's numeric order is its confidence order.
        let top = pack_link(0, u32::MAX, u32::MAX, max_rank, LinkLabel::Multihop);
        assert!(top < pack_link(1, 0, 0, 0, LinkLabel::Nexthop));
        assert!(pack_link(7, 7, 7, 7, LinkLabel::Nexthop) < pack_link(7, 7, 7, 7, LinkLabel::Echo));
        assert!(
            pack_link(7, 7, 7, 7, LinkLabel::Echo) < pack_link(7, 7, 7, 7, LinkLabel::Multihop)
        );
        for &i in &ids {
            for &r in &ids {
                let key = pack_dest(i, r);
                assert_eq!(((key >> 32) as u32, key as u32), (i, r));
            }
            let key = pack_pred(i, u32::MAX, i);
            assert_eq!(
                ((key >> 64) as u32, (key >> 32) as u32, key as u32),
                (i, u32::MAX, i)
            );
        }
        // The range cut reaches the largest id, whose upper bound is 2³²,
        // and a key held by two shards is gathered once.
        let last_ir = top | (u128::from(u32::MAX) << 96);
        let first = pack_link(3, 0, 0, 0, LinkLabel::Echo);
        let shards = vec![vec![first, last_ir], vec![last_ir]];
        let ir_major = |k: u128| (k >> 96) as usize;
        assert_eq!(
            gather(&shards, ir_major, u32::MAX as usize, 1 << 32),
            [last_ir]
        );
        assert_eq!(gather(&shards, ir_major, 0, 4), [first]);
    }

    /// One observation of the reduction the build used before its keys
    /// were packed: whole fields with a derived lexicographic order,
    /// `(ir, dst)` first.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct LinkObs {
        ir: u32,
        dst: u32,
        label: LinkLabel,
        origin: Asn,
        dest: Asn,
        pred: u32,
    }

    /// Serial oracle for the whole build: interner, origins and IR
    /// numbering written out directly, then every [`LinkObs`] of the corpus
    /// in one vector, sorted, and folded in runs of equal `(ir, dst)`.
    fn oracle_build(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> IrGraph {
        let interner = AddrInterner::from_addrs(
            traces
                .iter()
                .flat_map(|t| t.responsive().map(|(_, h)| h.addr)),
        );
        let n = interner.len();
        let iface_origin: Vec<OriginInfo> =
            interner.addrs().iter().map(|&a| ip2as.lookup(a)).collect();
        let mut iface_ir = vec![IrId(u32::MAX); n];
        let mut members: Vec<Vec<IfIdx>> = aliases
            .interned_groups(&interner)
            .into_iter()
            .filter(|g| g.len() >= 2)
            .map(|g| g.into_iter().map(IfIdx).collect())
            .collect();
        for m in members.iter().flatten() {
            iface_ir[m.0 as usize] = IrId(0);
        }
        members.extend(
            (0..n as u32)
                .filter(|&i| iface_ir[i as usize].0 == u32::MAX)
                .map(|i| vec![IfIdx(i)]),
        );
        let mut irs: Vec<Ir> = Vec::new();
        for ifaces in members {
            let id = IrId(irs.len() as u32);
            for m in &ifaces {
                iface_ir[m.0 as usize] = id;
            }
            irs.push(Ir {
                id,
                ifaces,
                links: Vec::new(),
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            });
        }

        let id = |addr: u32| interner.id(addr).expect("hop addr interned");
        let mut link_obs: Vec<LinkObs> = Vec::new();
        let mut dest_obs: Vec<(u32, Asn)> = Vec::new();
        for t in traces {
            let hops: Vec<(u8, Hop)> = t.responsive().collect();
            if hops.is_empty() {
                continue;
            }
            let dest_as = ip2as.lookup(t.dst).asn;
            let last = hops.len() - 1;
            if dest_as.is_some() {
                for (i, &(_, h)) in hops.iter().enumerate() {
                    if !(i == last && h.reply == ReplyType::EchoReply) {
                        dest_obs.push((id(h.addr), dest_as));
                    }
                }
            }
            for pair in hops.windows(2) {
                let ((ttl_x, x), (ttl_y, y)) = (pair[0], pair[1]);
                let (xi, yi) = (id(x.addr), id(y.addr));
                let ir_x = iface_ir[xi as usize];
                if x.addr == y.addr || ir_x == iface_ir[yi as usize] {
                    continue;
                }
                let (ox, oy) = (iface_origin[xi as usize], iface_origin[yi as usize]);
                link_obs.push(LinkObs {
                    ir: ir_x.0,
                    dst: yi,
                    label: link_label(ttl_y - ttl_x, ox, oy, y.reply),
                    origin: ox.asn,
                    dest: dest_as,
                    pred: xi,
                });
            }
        }
        let mut iface_dests = vec![BTreeSet::new(); n];
        for (ifidx, asn) in dest_obs {
            iface_dests[ifidx as usize].insert(asn);
        }
        let mut preds: Vec<BTreeMap<IrId, BTreeSet<IfIdx>>> = vec![BTreeMap::new(); n];
        link_obs.sort_unstable();
        link_obs.dedup();
        for run in link_obs.chunk_by(|a, b| (a.ir, a.dst) == (b.ir, b.dst)) {
            let (ir, dst) = (run[0].ir, run[0].dst);
            let mut link = Link {
                dst: IfIdx(dst),
                label: run[0].label,
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            };
            for o in run {
                link.label = link.label.min(o.label);
                if o.origin.is_some() {
                    link.origins.insert(o.origin);
                }
                if o.dest.is_some() {
                    link.dests.insert(o.dest);
                }
                preds[dst as usize]
                    .entry(IrId(ir))
                    .or_default()
                    .insert(IfIdx(o.pred));
            }
            irs[ir as usize].links.push(link);
        }

        let mut cache = RelQueryCache::new(rels, cones);
        for ir in &mut irs {
            for &ifidx in &ir.ifaces {
                let o = iface_origin[ifidx.0 as usize];
                if o.asn.is_some() && o.kind != OriginKind::Ixp {
                    ir.origins.insert(o.asn);
                }
                let raw = &iface_dests[ifidx.0 as usize];
                ir.dests
                    .extend(filtered_iface_dests(raw, o.asn, &cfg(), &mut cache));
            }
        }
        let shards = ShardPlan::compute(&irs, &iface_ir);
        IrGraph {
            irs,
            iface_addrs: interner.addrs().to_vec(),
            iface_origin,
            iface_ir,
            iface_dests,
            preds,
            interner,
            shards,
        }
    }

    mod oracle_props {
        use super::*;
        use bgp::ixp::{Ixp, IxpDirectory};
        use proptest::prelude::*;

        /// 10.N/16 → AS N for N in 1..=3, with an IXP LAN carved out of
        /// AS2's block; 172.16/16 is unannounced.
        fn ip2as() -> IpToAs {
            let ixp = Ixp {
                id: 1,
                name: "IX".into(),
                prefix: "10.2.200.0/24".parse().unwrap(),
                members: vec![Asn(1), Asn(2), Asn(3)],
            };
            oracle().with_ixps(&IxpDirectory::from_ixps(vec![ixp]))
        }

        fn rels() -> AsRelationships {
            let mut r = AsRelationships::new();
            r.add_p2c(Asn(1), Asn(2));
            r.add_p2p(Asn(1), Asn(3));
            r
        }

        /// Few hosts per block, so addresses repeat within and across
        /// traces.
        fn addr_strategy() -> impl Strategy<Value = u32> {
            let blocks = [
                "10.1.0.0",
                "10.2.0.0",
                "10.3.0.0",
                "10.2.200.0",
                "172.16.0.0",
            ];
            (0usize..blocks.len(), 1u32..6).prop_map(move |(b, host)| a(blocks[b]) + host)
        }

        fn reply_strategy() -> impl Strategy<Value = ReplyType> {
            prop_oneof![
                5 => Just(ReplyType::TimeExceeded),
                1 => Just(ReplyType::EchoReply),
                1 => Just(ReplyType::DestUnreachable),
            ]
        }

        prop_compose! {
            fn trace_strategy()(
                dst in addr_strategy(),
                slots in proptest::collection::vec(
                    proptest::option::weighted(0.75, (addr_strategy(), reply_strategy(), 0u32..5)),
                    1..12,
                ),
                echo_dst in 0u32..3,
            ) -> Trace {
                // A slot may repeat the previous responsive address; `None`
                // slots are TTL gaps; some traces end in an Echo Reply from
                // the destination itself.
                let mut prev = None;
                let mut hops: Vec<Option<Hop>> = slots
                    .into_iter()
                    .map(|s| {
                        s.map(|(addr, reply, repeat)| {
                            let addr = if repeat == 0 { prev.unwrap_or(addr) } else { addr };
                            prev = Some(addr);
                            Hop { addr, reply }
                        })
                    })
                    .collect();
                if echo_dst == 0 {
                    hops.push(Some(Hop { addr: dst, reply: ReplyType::EchoReply }));
                }
                Trace {
                    monitor: "vp".into(),
                    src: 1,
                    dst,
                    hops,
                    stop: StopReason::Completed,
                }
            }
        }

        fn alias_strategy() -> impl Strategy<Value = AliasSets> {
            proptest::collection::vec(proptest::collection::vec(addr_strategy(), 2..4), 0..4)
                .prop_map(|groups| {
                    AliasSets::from_groups(groups.into_iter().map(BTreeSet::from_iter))
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn build_matches_serial_oracle_at_every_thread_count(
                traces in proptest::collection::vec(trace_strategy(), 0..40),
                aliases in alias_strategy(),
            ) {
                let (ip2as, rels) = (ip2as(), rels());
                let cones = CustomerCones::compute(&rels);
                let want = oracle_build(&traces, &aliases, &ip2as, &rels, &cones);
                for threads in [1usize, 2, 8] {
                    let cfg = Config { threads, ..Config::default() };
                    let g = IrGraph::build(&traces, &aliases, &ip2as, &cfg, &rels, &cones);
                    prop_assert_eq!(&g.interner, &want.interner, "threads={}", threads);
                    prop_assert_eq!(&g.iface_origin, &want.iface_origin, "threads={}", threads);
                    prop_assert_eq!(&g.iface_ir, &want.iface_ir, "threads={}", threads);
                    prop_assert_eq!(&g.iface_dests, &want.iface_dests, "threads={}", threads);
                    prop_assert_eq!(&g.preds, &want.preds, "threads={}", threads);
                    prop_assert_eq!(
                        serde_json::to_string(&g.irs).unwrap(),
                        serde_json::to_string(&want.irs).unwrap(),
                        "threads={}", threads
                    );
                }
            }
        }
    }
}
