//! Phase 1: constructing the annotated IR graph (§4).
//!
//! Inferred routers (IRs) come from alias sets; addresses without alias
//! information become singleton IRs. Links run from an IR to the interface
//! seen next in a traceroute, labelled with the N/E/M confidence of Table 3,
//! and carry the origin-AS set `L(IRᵢ, j)` (§4.3) and the one bit the
//! third-party test needs (§6.1.1): whether any trace crossing the link was
//! destined to the far interface's origin AS. Per-IR destination AS sets
//! apply the reallocated-prefix filter of §4.4.
//!
//! # Parallel build over a corpus in rank space (DESIGN.md §12, pool scheduling §13)
//!
//! The build is chunked into tasks on the shared [`pool::WorkerPool`] and
//! is bit-identical to a serial walk for every thread count. A [`Corpus`]
//! is indexed by construction (its hop slots hold ranks into its sorted
//! address table), so the build never walks the hop column to find
//! addresses:
//!
//! 1. **Interfaces**: the corpus's sorted responding addresses become the
//!    interface table, so `IfIdx(i)` and a hop slot's rank are the same
//!    number (ranks are *canonical*: ascending address order, whatever the
//!    split that built the corpus), and an address finds its interface by
//!    binary search. The corpus's sorted destinations are the destination
//!    table; each destination's AS is looked up once.
//! 2. **Extract**: workers walk their trace shards emitting packed link
//!    keys (`ir | dst | pred | probed | label`) and destination keys
//!    (`iface | as_rank`), entirely in interned-id space: a hop's id and
//!    reply type come from its one 4-byte slot and a trace's destination
//!    has its rank too, so nothing is searched per hop. Exact repeats of a key the task just emitted are
//!    skipped at the source (`RecentKeys`). Nothing is sorted: each key is
//!    pushed into the bucket of its reduce range, link keys by IR range and
//!    destination keys by interface range.
//! 3. **Reduce**: the caller regroups the buckets by range, in task order,
//!    moving them. A task per IR range orders its keys once: a counting
//!    pass over the dense IR field, then a small sort of each IR's run,
//!    then dedup. Its runs of equal `(ir, dst)` fold into links and origin
//!    sets, and the predecessor records (`dst | ir | pred`) they carry go
//!    to interface-range buckets. A task per interface range orders those
//!    records the same way, and its destination keys by two counting
//!    passes (AS rank, then interface). Each task writes [`SetColumn`]s of
//!    its own, which the calling thread appends in range order. Each
//!    range's ordered keys depend only on the set of keys in it, and every
//!    accumulator is order-insensitive — link label by `min`, the probed
//!    bit by `or`, origin/destination/predecessor collections are sets —
//!    so neither the shard nor the range split can reach the output.
//!
//!    Link and predecessor keys are a `u64` while
//!    `2·bits(interfaces) + bits(IRs) + 3 ≤ 64` (2²⁰ of each), and a
//!    `u128` past that; one generic pass runs on either (`Layout`).
//! 4. **Annotate** (per-IR metadata): workers process disjoint IR ranges,
//!    querying the relationship database and customer cones directly for
//!    §4.4's filter, each writing its IRs' origin and filtered destination
//!    unions into a column of its own; the columns append in IR order.

use crate::Config;
use alias::AliasSets;
use as_rel::{AsRelationships, CustomerCones};
use bgp::{IpToAs, OriginInfo, OriginKind};
use net_types::{AsSets, Asn, SetColumn};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::BitOr;
use traceroute::{Corpus, ReplyType, NO_RANK};

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
    /// The link's set in [`IrGraph::link_origins`]: links are numbered in
    /// IR order, then by destination interface.
    pub row: u32,
    /// Some trace whose `IR → dst` segment created this link was destined
    /// to `dst`'s (announced) origin AS. The third-party test (§6.1.1) asks
    /// nothing else of the link's destination ASes.
    pub dst_origin_probed: bool,
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
}

/// The annotated IR graph.
#[derive(Clone, Debug, Default)]
pub struct IrGraph {
    /// All inferred routers; `IrId` indexes this.
    pub irs: Vec<Ir>,
    /// Interface addresses, ascending: `IfIdx` indexes this and the
    /// parallel arrays, and interface `i`'s address is the `i`-th smallest
    /// observed address.
    pub iface_addrs: Vec<u32>,
    /// Origin resolution per interface.
    pub iface_origin: Vec<OriginInfo>,
    /// Owning IR per interface.
    pub iface_ir: Vec<IrId>,
    /// Per IR: union of its interfaces' origin ASes (IXP and unannounced
    /// addresses contribute nothing, §4.1).
    pub ir_origins: AsSets,
    /// Per IR: destination AS set after §4.4's reallocation filtering.
    pub ir_dests: AsSets,
    /// Per link, by [`Link::row`]: `L(IRᵢ, j)`, the origin ASes of the IR's
    /// interfaces seen immediately prior to the link's destination in a
    /// traceroute (§4.3).
    pub link_origins: AsSets,
    /// Per interface: raw (unfiltered) destination AS set.
    pub iface_dests: AsSets,
    /// Per interface: `(predecessor IR, its interface seen immediately
    /// prior)` pairs, ascending (drives interface-annotation voting, §6.2).
    pub preds: SetColumn<(IrId, IfIdx)>,
}

/// A packed link or predecessor key: a `u64` when the build's [`Layout`]
/// fits 64 bits, a `u128` otherwise. One generic build runs on either.
trait Key: Copy + Ord + Default + Send + Sync + BitOr<Output = Self> {
    /// The [`RecentKeys`] empty-slot marker, which no key equals: a link
    /// key's label field is never 3.
    const EMPTY: Self;
    /// `value` shifted `shift` bits up.
    fn put(value: u32, shift: u32) -> Self;
    /// The `bits`-wide field `shift` bits up.
    fn get(self, shift: u32, bits: u32) -> u32;
    /// The key folded to 64 bits, for hashing.
    fn fold(self) -> u64;
}

impl Key for u64 {
    const EMPTY: u64 = u64::MAX;
    #[inline]
    fn put(value: u32, shift: u32) -> u64 {
        u64::from(value) << shift
    }
    #[inline]
    fn get(self, shift: u32, bits: u32) -> u32 {
        ((self >> shift) & ((1 << bits) - 1)) as u32
    }
    #[inline]
    fn fold(self) -> u64 {
        self
    }
}

impl Key for u128 {
    const EMPTY: u128 = u128::MAX;
    #[inline]
    fn put(value: u32, shift: u32) -> u128 {
        u128::from(value) << shift
    }
    #[inline]
    fn get(self, shift: u32, bits: u32) -> u32 {
        ((self >> shift) & ((1 << bits) - 1)) as u32
    }
    #[inline]
    fn fold(self) -> u64 {
        self as u64 ^ (self >> 64) as u64
    }
}

/// Bits that hold every rank below `n`.
fn rank_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Field widths of the link and predecessor keys, from the build's rank
/// counts: `if_bits` holds every interface rank, `ir_bits` every IR rank.
///
/// - A link key is `ir | dst | pred | probed:1 | label:2`, `width()` bits.
///   `ir` is the prior hop's IR, `dst` the next hop's interface, `pred`
///   the prior interface (its origin is `iface_origin[pred]`, so the
///   origin needs no field), `probed` whether the trace was destined to
///   `dst`'s announced origin AS, and `label` the Table 3 label of this
///   one observation. Keys order by `(ir, dst)`, the grouping key of the
///   reduction; the other fields only feed order-insensitive
///   accumulators. A `(ir, dst, pred)` triple has at most six keys,
///   whatever the number of destination ASes behind it.
/// - A predecessor record is `dst | ir | pred`: interface `pred` of IR
///   `ir` was seen immediately before interface `dst`. It is 3 bits
///   narrower than a link key.
///
/// Ranks are under 2³², so `width()` never exceeds 99 bits and a `u128`
/// always holds the layout; a `u64` holds it while `width()` is at most
/// 64, as for 2²⁰ interfaces and IRs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    if_bits: u32,
    ir_bits: u32,
}

impl Layout {
    fn of(n_ifaces: usize, n_irs: usize) -> Layout {
        Layout {
            if_bits: rank_bits(n_ifaces),
            ir_bits: rank_bits(n_irs),
        }
    }

    /// A link key's width in bits.
    fn width(self) -> u32 {
        2 * self.if_bits + self.ir_bits + 3
    }

    /// The link key's shift of `dst`; `(ir, dst)` lies above it.
    fn dst_shift(self) -> u32 {
        3 + self.if_bits
    }

    fn link<K: Key>(self, ir: u32, dst: u32, pred: u32, probed: bool, label: LinkLabel) -> K {
        K::put(ir, self.dst_shift() + self.if_bits)
            | K::put(dst, self.dst_shift())
            | K::put(pred, 3)
            | K::put(u32::from(probed), 2)
            | K::put(label as u32, 0)
    }

    /// Inverse of [`Layout::link`]: `(ir, dst, pred, probed, label)`.
    fn unlink<K: Key>(self, key: K) -> (u32, u32, u32, bool, LinkLabel) {
        let label = match key.get(0, 2) {
            0 => LinkLabel::Nexthop,
            1 => LinkLabel::Echo,
            _ => LinkLabel::Multihop,
        };
        let (ir, dst) = self.link_pair(key);
        (ir, dst, key.get(3, self.if_bits), key.get(2, 1) != 0, label)
    }

    /// A link key's `(ir, dst)`, the link it observes.
    fn link_pair<K: Key>(self, key: K) -> (u32, u32) {
        (self.link_ir(key), key.get(self.dst_shift(), self.if_bits))
    }

    /// A link key's IR, its major field.
    fn link_ir<K: Key>(self, key: K) -> u32 {
        key.get(self.dst_shift() + self.if_bits, self.ir_bits)
    }

    fn pred<K: Key>(self, dst: u32, ir: u32, pred: u32) -> K {
        K::put(dst, self.if_bits + self.ir_bits) | K::put(ir, self.if_bits) | K::put(pred, 0)
    }

    /// Inverse of [`Layout::pred`]: `(dst, ir, pred)`.
    fn unpred<K: Key>(self, key: K) -> (u32, u32, u32) {
        (
            key.get(self.if_bits + self.ir_bits, self.if_bits),
            key.get(self.if_bits, self.ir_bits),
            key.get(0, self.if_bits),
        )
    }
}

/// One destination observation, `iface:32 | as_rank:32`: the interface saw
/// a trace toward the AS of that rank among the destinations' ASes.
/// Interface ranks are below `u32::MAX`, so no key is `u64::MAX`, the
/// [`RecentKeys`] marker.
fn pack_dest(iface: u32, as_rank: u32) -> u64 {
    u64::from(iface) << 32 | u64::from(as_rank)
}

/// Scatters `keys` into `out` in ascending order of their `digit`, which
/// is below `n`, keeping the input order among equal digits (one counting
/// pass). Returns where each digit's run ends in `out`.
fn counting_pass<'a, K: Copy + 'a>(
    keys: impl Iterator<Item = &'a K> + Clone,
    n: usize,
    digit: impl Fn(K) -> usize,
    out: &mut [K],
) -> Vec<usize> {
    // `end[d]` counts digit `d`, then holds where its run starts, and
    // after the scatter where it ends.
    let mut end = vec![0usize; n];
    for &k in keys.clone() {
        end[digit(k)] += 1;
    }
    let mut total = 0;
    for slot in &mut end {
        (*slot, total) = (total, total + *slot);
    }
    for &k in keys {
        let slot = &mut end[digit(k)];
        out[*slot] = k;
        *slot += 1;
    }
    end
}

/// One range's keys, delivered in buckets (one per extract or reduce
/// task), in ascending order without repeats. Every key's major field
/// (`major`) lies in `[lo, hi)`, which is dense, so a counting pass places
/// each key in its major's run, and only the runs, short and independent,
/// are sorted. Buckets are freed once scattered.
fn order_range<K: Copy + Ord + Default>(
    buckets: Vec<Vec<K>>,
    lo: usize,
    hi: usize,
    major: impl Fn(K) -> usize,
) -> Vec<K> {
    let mut keys = vec![K::default(); buckets.iter().map(Vec::len).sum()];
    let end = counting_pass(
        buckets.iter().flatten(),
        hi - lo,
        |k| major(k) - lo,
        &mut keys,
    );
    drop(buckets);
    let mut start = 0;
    for stop in end {
        if stop - start > 1 {
            keys[start..stop].sort_unstable();
        }
        start = stop;
    }
    keys.dedup();
    keys
}

/// [`order_range`] for destination keys of the interfaces `[lo, hi)`,
/// whose AS ranks lie below `n_as`: both fields are dense, so two
/// counting passes, by AS rank and then by interface, order them
/// (an LSD radix sort over the packed key).
fn order_dests(buckets: Vec<Vec<u64>>, lo: usize, hi: usize, n_as: usize) -> Vec<u64> {
    let mut by_as = vec![0; buckets.iter().map(Vec::len).sum()];
    counting_pass(
        buckets.iter().flatten(),
        n_as,
        |k| k as u32 as usize,
        &mut by_as,
    );
    drop(buckets);
    let mut keys = vec![0; by_as.len()];
    counting_pass(
        by_as.iter(),
        hi - lo,
        |k| (k >> 32) as usize - lo,
        &mut keys,
    );
    keys.dedup();
    keys
}

/// Per-range buckets from every task, `[task][range]`, regrouped by range,
/// `[range][task]`: each bucket is moved, in task order.
fn by_range<K>(shards: Vec<Vec<Vec<K>>>, ranges: usize) -> Vec<Vec<Vec<K>>> {
    let mut out: Vec<Vec<Vec<K>>> = (0..ranges)
        .map(|_| Vec::with_capacity(shards.len()))
        .collect();
    for shard in shards {
        for (range, bucket) in out.iter_mut().zip(shard) {
            range.push(bucket);
        }
    }
    out
}

/// Chunks `n` items into `batch`-sized pool tasks; returns the task count.
fn task_count(n: usize, batch: usize) -> usize {
    n.div_ceil(batch)
}

/// Task `t`'s contiguous item range under `batch`-sized chunking of `n`.
fn task_range(n: usize, t: usize, batch: usize) -> (usize, usize) {
    (t * batch, ((t + 1) * batch).min(n))
}

/// Log2 of the slot count of a [`RecentKeys`] filter.
const FILTER_SLOTS_LOG2: u32 = 12;

/// A pool task's direct-mapped table of the keys it emitted last, one per
/// slot. Most hops re-observe a key seen a few traces earlier (traces from
/// one VP share their first hops, and toward one destination their last),
/// so checking the slot drops most repeats before they are pushed and
/// ordered. Only a key equal to its slot's occupant, an exact repeat of a
/// key the task already emitted, is dropped: the range dedup would drop it
/// anyway, so the filter cannot reach the output.
///
/// Keys are link keys, destination keys (and addresses, in the tests'
/// oracle of the former intern pass). None of them is [`Key::EMPTY`].
struct RecentKeys<K> {
    slots: Vec<K>,
}

impl<K: Key> RecentKeys<K> {
    fn new() -> Self {
        RecentKeys {
            slots: vec![K::EMPTY; 1 << FILTER_SLOTS_LOG2],
        }
    }

    /// Records `key` in its slot; false when the slot already held it.
    #[inline]
    fn admit(&mut self, key: K) -> bool {
        let slot =
            (key.fold().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_SLOTS_LOG2)) as usize;
        let fresh = self.slots[slot] != key;
        self.slots[slot] = key;
        fresh
    }
}

impl IrGraph {
    /// Builds the graph from a corpus (§4) on the caller's worker pool —
    /// the pipeline passes the one pool all its phases share — recording
    /// worker counts and phase timings on `rec`.
    /// Each parallel pass is chunked into
    /// [`pool::WorkerPool::batch_size`]-sized tasks (see the module docs for
    /// the sharding scheme); task outputs rejoin in task-index order, so
    /// scheduling never reaches the output.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        traces: &Corpus,
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

        // The corpus's sorted addresses are the interface table, so a hop
        // slot's rank is its interface's `IfIdx`, and its sorted
        // destinations are the destination table.
        let span = rec.span(obs::names::PHASE1_INTERN);
        g.iface_addrs = traces.addrs().to_vec();
        let n_ifaces = g.iface_addrs.len();
        let dst_addrs = traces.dsts();
        drop(span);

        // Origin resolution per interface and per destination: independent
        // longest-prefix lookups, sharded over each id space and rejoined in
        // id order.
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
        g.iface_ir = vec![IrId(u32::MAX); n_ifaces];
        drop(span);

        // ---- IRs from alias groups over observed addresses (serial: IR
        // numbering is an ordering decision, and the work is linear).
        let span = rec.span(obs::names::PHASE1_IRS);
        let mut ir_members: Vec<Vec<IfIdx>> = Vec::new();
        let mut grouped = vec![false; n_ifaces];
        for group in aliases.interned_groups(&g.iface_addrs) {
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
            });
        }

        drop(span);

        // ---- links, destination sets and predecessors, on keys as narrow
        // as the rank counts allow.
        let n_irs = g.irs.len();
        let layout = Layout::of(n_ifaces, n_irs);
        if layout.width() <= u64::BITS {
            g.observe::<u64>(traces, &dst_as, layout, wp, rec);
        } else {
            g.observe::<u128>(traces, &dst_as, layout, wp, rec);
        }

        // ---- per-IR metadata: origin-AS unions and §4.4-filtered
        // destination sets, chunked over the IR space into task-local
        // columns that append in IR order.
        let span = rec.span(obs::names::PHASE1_METADATA);
        let graph = &g;
        let ir_batch = wp.batch_size(n_irs);
        let meta_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_irs, ir_batch),
            |t| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let (mut origins, mut dests) = (AsSets::new(), AsSets::new());
                for ir in &graph.irs[lo..hi] {
                    graph.push_metadata(ir, cfg, rels, cones, &mut origins, &mut dests);
                }
                (origins, dests)
            },
        );
        for (origins, dests) in meta_shards {
            g.ir_origins.append(&origins);
            g.ir_dests.append(&dests);
        }
        drop(span);

        g
    }

    /// Steps 2 and 3 of the build (module docs): extracts every trace's
    /// link and destination keys, scattered by range, orders each range
    /// once, and folds the ranges into the graph's links, `link_origins`,
    /// `iface_dests` and `preds`. The graph holds its interface table,
    /// origins and IRs, without links; `dst_as` is the AS of each of the
    /// corpus's destinations. `K` holds `layout`'s keys.
    fn observe<K: Key>(
        &mut self,
        traces: &Corpus,
        dst_as: &[Asn],
        layout: Layout,
        wp: &pool::WorkerPool,
        rec: &obs::Recorder,
    ) {
        let (n_ifaces, n_irs) = (self.iface_addrs.len(), self.irs.len());
        let (ir_batch, iface_batch) = (wp.batch_size(n_irs), wp.batch_size(n_ifaces));
        let ir_ranges = task_count(n_irs, ir_batch);
        let iface_ranges = task_count(n_ifaces, iface_batch);

        // ---- extract, entirely in interface-id space, in one pass over
        // each trace's slots: each responsive hop's slot holds its id (its
        // address's rank) and its reply type, and each trace's destination
        // has its rank too. Keys go to
        // the bucket of their reduce range: link keys by IR, destination
        // keys by interface.
        let span = rec.span(obs::names::PHASE1_LINKS);
        // Each interface's IR and origin AS side by side, one read per hop.
        let iface_meta: Vec<(u32, Asn)> = (self.iface_ir.iter().zip(&self.iface_origin))
            .map(|(ir, o)| (ir.0, o.asn))
            .collect();
        // Destination ASes by rank among their distinct values, ascending.
        let mut as_table: Vec<Asn> = dst_as.iter().copied().filter(|a| a.is_some()).collect();
        as_table.sort_unstable();
        as_table.dedup();
        let as_rank: Vec<u32> = (dst_as.iter())
            .map(|a| as_table.binary_search(a).map_or(u32::MAX, |r| r as u32))
            .collect();
        let trace_batch = wp.batch_size(traces.len());
        let dst_ranks = traces.dst_ranks();
        let obs_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut links: Vec<Vec<K>> = vec![Vec::new(); ir_ranges];
                let mut dest_keys: Vec<Vec<u64>> = vec![Vec::new(); iface_ranges];
                let mut recent_links = RecentKeys::<K>::new();
                let mut recent_dests = RecentKeys::<u64>::new();
                let (mut walked, mut emitted) = (0, 0);
                for (row, &dst) in (lo..hi).zip(&dst_ranks[lo..hi]) {
                    if dst == NO_RANK {
                        continue; // no responsive hop
                    }
                    let dst = dst as usize;
                    let dest_as = dst_as[dst];
                    // Destination AS sets (§4.4): every responding interface
                    // records the trace's destination AS — except an Echo
                    // Reply last hop, whose "destination" is just the probed
                    // address. So a hop's key waits for the next hop.
                    let mut push_dest = |i: u32| {
                        let key = pack_dest(i, as_rank[dst]);
                        if dest_as.is_some() && recent_dests.admit(key) {
                            dest_keys[i as usize / iface_batch].push(key);
                        }
                    };
                    let mut prev: Option<(u8, u32, ReplyType)> = None;
                    for (i, &hop) in traces.slots(row..row + 1).iter().enumerate() {
                        let Some((yi, reply)) = traceroute::decode(hop) else {
                            continue;
                        };
                        walked += 1;
                        let ttl_y = (i + 1) as u8;
                        let Some((ttl_x, xi, _)) = prev.replace((ttl_y, yi, reply)) else {
                            continue;
                        };
                        push_dest(xi);

                        // A link between adjacent responsive hops.
                        if xi == yi {
                            continue;
                        }
                        let (ir_x, ox) = iface_meta[xi as usize];
                        let (ir_y, oy) = iface_meta[yi as usize];
                        if ir_x == ir_y {
                            continue; // both sides on one IR: not a link
                        }
                        let label = link_label(ttl_y - ttl_x, ox, oy, reply);
                        let probed = dest_as.is_some() && dest_as == oy;
                        let key = layout.link(ir_x, yi, xi, probed, label);
                        if recent_links.admit(key) {
                            links[ir_x as usize / ir_batch].push(key);
                            emitted += 1;
                        }
                    }
                    if let Some((_, last, reply)) = prev {
                        if reply != ReplyType::EchoReply {
                            push_dest(last);
                        }
                    }
                }
                (links, dest_keys, walked, emitted)
            },
        );
        drop(iface_meta);
        let (mut hops_walked, mut link_obs) = (0, 0);
        let mut link_shards = Vec::with_capacity(obs_shards.len());
        let mut dest_shards = Vec::with_capacity(obs_shards.len());
        for (links, dest_keys, walked, emitted) in obs_shards {
            hops_walked += walked;
            link_obs += emitted;
            link_shards.push(links);
            dest_shards.push(dest_keys);
        }
        rec.add_exec(obs::names::EXEC_PHASE1_HOPS, hops_walked as u64);
        rec.add_exec(obs::names::EXEC_PHASE1_LINK_OBS, link_obs as u64);
        drop(span);

        // ---- reduction, by IR range: each task takes its range's buckets
        // and orders their keys. Runs of equal `(ir, dst)` become links
        // (label by `min`, the probed bit by `or`) and their origin sets a
        // task column; the predecessor records they carry are scattered by
        // interface range. A range's ordered keys depend only on the set of
        // keys in it, so neither the task nor the range split can reach
        // the output.
        let span = rec.span(obs::names::PHASE1_REDUCE);
        let mut link_ranges = by_range(link_shards, ir_ranges);
        let origin = &self.iface_origin;
        let reduced = wp.run_split(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            &mut link_ranges,
            &(0..=ir_ranges).collect::<Vec<_>>(),
            |t, range| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let keys = order_range(std::mem::take(&mut range[0]), lo, hi, |k| {
                    layout.link_ir(k) as usize
                });
                let mut links: Vec<(u32, Link)> = Vec::new();
                let mut origins = AsSets::new();
                let mut preds: Vec<Vec<K>> = vec![Vec::new(); iface_ranges];
                for run in keys.chunk_by(|&a, &b| layout.link_pair(a) == layout.link_pair(b)) {
                    let (ir, dst, ..) = layout.unlink(run[0]);
                    let mut label = LinkLabel::Multihop;
                    let mut dst_origin_probed = false;
                    let mut last_pred = None;
                    origins.push_union(|out| {
                        for &key in run {
                            let (_, _, pred, probed, l) = layout.unlink(key);
                            label = label.min(l); // keep the highest confidence
                            dst_origin_probed |= probed;
                            // `pred` ascends within a run: one origin and one
                            // predecessor record per distinct interface.
                            if last_pred != Some(pred) {
                                last_pred = Some(pred);
                                preds[dst as usize / iface_batch].push(layout.pred(dst, ir, pred));
                                let o = origin[pred as usize].asn;
                                if o.is_some() {
                                    out.push(o);
                                }
                            }
                        }
                    });
                    let row = (origins.len() - 1) as u32;
                    let link = Link {
                        dst: IfIdx(dst),
                        label,
                        row,
                        dst_origin_probed,
                    };
                    links.push((ir, link));
                }
                (keys.len(), links, origins, preds)
            },
        );
        drop(link_ranges);
        // Ranges append in range order, so each IR's links come out sorted
        // by destination interface, and link rows ascend with (ir, dst).
        let (mut link_keys, mut pred_shards) = (0, Vec::with_capacity(reduced.len()));
        for (kept, links, origins, preds) in reduced {
            link_keys += kept;
            let base = self.link_origins.len() as u32;
            for group in links.chunk_by(|a, b| a.0 == b.0) {
                let rebased = group.iter().map(|(_, l)| Link {
                    row: base + l.row,
                    ..l.clone()
                });
                self.irs[group[0].0 as usize].links.extend(rebased);
            }
            self.link_origins.append(&origins);
            pred_shards.push(preds);
        }
        rec.add_exec(obs::names::EXEC_PHASE1_LINK_KEYS, link_keys as u64);

        // Per interface range, destination keys and predecessor records are
        // ordered the same way and become task columns, appended in range
        // order.
        let mut iface_work: Vec<_> = (by_range(dest_shards, iface_ranges).into_iter())
            .zip(by_range(pred_shards, iface_ranges))
            .collect();
        let per_iface = wp.run_split(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            &mut iface_work,
            &(0..=iface_ranges).collect::<Vec<_>>(),
            |t, range| {
                let (lo, hi) = task_range(n_ifaces, t, iface_batch);
                let (dest_keys, pred_keys) = std::mem::take(&mut range[0]);
                let mut dests = AsSets::new();
                for k in order_dests(dest_keys, lo, hi, as_table.len()) {
                    dests.push_to((k >> 32) as usize - lo, as_table[k as u32 as usize]);
                }
                dests.close_to(hi - lo);
                // Predecessor pairs for §6.2 interface voting.
                let mut preds = SetColumn::new();
                for k in order_range(pred_keys, lo, hi, |k| layout.unpred(k).0 as usize) {
                    let (dst, ir, pred) = layout.unpred(k);
                    preds.push_to(dst as usize - lo, (IrId(ir), IfIdx(pred)));
                }
                preds.close_to(hi - lo);
                (dests, preds)
            },
        );
        drop(iface_work);
        for (dests, preds) in per_iface {
            self.iface_dests.append(&dests);
            self.preds.append(&preds);
        }
        drop(span);
    }

    /// Appends `ir`'s origin-AS union to `origins` and the union of its
    /// interfaces' §4.4-filtered destination sets to `dests`. Only an IR
    /// with several interfaces has sets to merge; a single interface's
    /// filtered set is already sorted.
    fn push_metadata(
        &self,
        ir: &Ir,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
        origins: &mut AsSets,
        dests: &mut AsSets,
    ) {
        let announced = |j: &IfIdx| {
            let o = self.iface_origin[j.0 as usize];
            (o.asn.is_some() && o.kind != OriginKind::Ixp).then_some(o.asn)
        };
        origins.push_union(|out| out.extend(ir.ifaces.iter().filter_map(announced)));
        let filtered = |j: IfIdx, out: &mut Vec<Asn>| {
            let raw = &self.iface_dests[j.0 as usize];
            let drop = realloc_drop(raw, self.iface_origin[j.0 as usize].asn, cfg, rels, cones);
            out.extend(raw.iter().copied().filter(|&a| Some(a) != drop));
        };
        match ir.ifaces[..] {
            [j] => dests.push_with(|out| filtered(j, out)),
            _ => dests.push_union(|out| ir.ifaces.iter().for_each(|&j| filtered(j, out))),
        }
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
        let i = self.iface_addrs.binary_search(&addr).ok()?;
        Some(IfIdx(i as u32))
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
/// `ox` and `oy` are the two interfaces' origin ASes.
fn link_label(dist: u8, ox: Asn, oy: Asn, reply: ReplyType) -> LinkLabel {
    if reply == ReplyType::EchoReply {
        // Echo replies only prove the address is on the responding router.
        if dist == 1 || (ox.is_some() && ox == oy) {
            LinkLabel::Echo
        } else {
            LinkLabel::Multihop
        }
    } else if dist == 1 || (ox.is_some() && ox == oy) {
        LinkLabel::Nexthop
    } else {
        LinkLabel::Multihop
    }
}

/// §4.4's per-interface destination filter: a set of exactly two ASes, one
/// matching the interface origin and the other a small-cone AS with no
/// BGP-observable relationship to it, indicates a reallocated prefix; the
/// larger-cone AS (the reallocating provider) is removed. Returns the AS to
/// remove from the interface's raw set, if any. Cone sizes come from
/// `cones` and the relationship test from `rels`.
fn realloc_drop(
    raw: &[Asn],
    origin: Asn,
    cfg: &Config,
    rels: &AsRelationships,
    cones: &CustomerCones,
) -> Option<Asn> {
    let &[a, b] = raw else {
        return None;
    };
    if !cfg.enable_realloc || origin.is_none() || (a != origin && b != origin) {
        return None;
    }
    let other = if a == origin { b } else { a };
    if cones.size(other) > cfg.realloc_cone_max || rels.has_relationship(origin, other) {
        return None;
    }
    // Remove the AS with the larger cone (the provider).
    Some(if cones.size(origin) >= cones.size(other) {
        origin
    } else {
        other
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::Prefix;
    use std::collections::BTreeSet;
    use traceroute::{Hop, StopReason, Trace};

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
        let corpus: Corpus = traces.iter().cloned().collect();
        let (wp, rec) = (pool::WorkerPool::new(1), obs::Recorder::disabled());
        IrGraph::build(
            &corpus,
            aliases,
            &oracle(),
            &cfg(),
            &rels,
            &cones,
            &wp,
            &rec,
        )
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
        assert_eq!(ir.links[0].row, 0);
        assert_eq!(&g.link_origins[0], &[Asn(1)]);
        assert_eq!(&g.ir_origins[ir.id.0 as usize], &[Asn(1)]);
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
        assert_eq!(&g.link_origins[ir.links[0].row as usize], &[Asn(1), Asn(3)]);
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
        assert_eq!(&g.iface_dests[i1.0 as usize], &[Asn(2)]);
        assert!(g.iface_dests[i2.0 as usize].is_empty());
    }

    #[test]
    fn realloc_filter_drops_provider() {
        // Interface origin AS1 (provider, big cone); dests {AS1, AS3} where
        // AS3 is a small-cone AS with no relationship to AS1.
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(2)); // gives AS1 a cone of 2
        let cones = CustomerCones::compute(&rels);
        let raw = [Asn(1), Asn(3)];
        assert_eq!(
            realloc_drop(&raw, Asn(1), &cfg(), &rels, &cones),
            Some(Asn(1))
        );
        // Not a two-AS set holding the origin: nothing is filtered.
        for (raw, origin) in [
            (&raw[..1], Asn(1)),
            (&raw[..], Asn(2)),
            (&raw[..], Asn::NONE),
        ] {
            assert_eq!(realloc_drop(raw, origin, &cfg(), &rels, &cones), None);
        }
        // With a known relationship, nothing is filtered.
        let mut rels2 = AsRelationships::new();
        rels2.add_p2c(Asn(1), Asn(3));
        let cones2 = CustomerCones::compute(&rels2);
        assert_eq!(realloc_drop(&raw, Asn(1), &cfg(), &rels2, &cones2), None);
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
        let prior = [a("10.1.0.1"), a("10.1.0.2")].map(|p| (ir, g.iface_of_addr(p).unwrap()));
        assert_eq!(
            &g.preds[yi.0 as usize], &prior,
            "both prior interfaces recorded"
        );
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

    /// A corpus exercising every accumulator: alias-grouped IRs, echo last
    /// hops, the same link observed with different labels, and destination
    /// sets fed by many traces.
    fn mixed_corpus() -> (Vec<Trace>, AliasSets) {
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
        (traces, aliases)
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let (traces, aliases) = mixed_corpus();
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let build_at = |threads: usize, traces: &Corpus| {
            let cfg = Config {
                threads,
                ..Config::default()
            };
            let (wp, rec) = (pool::WorkerPool::new(threads), obs::Recorder::disabled());
            IrGraph::build(traces, &aliases, &oracle(), &cfg, &rels, &cones, &wp, &rec)
        };
        let corpus: Corpus = traces.iter().cloned().collect();
        let base = build_at(1, &corpus);
        let builds = [2, 3, 8].into_iter().map(|threads| {
            let sealed = sealed(&traces, &pool::WorkerPool::new(threads));
            (threads, build_at(threads, &sealed))
        });
        for (threads, g) in builds {
            assert_eq!(g.iface_addrs, base.iface_addrs, "threads={threads}");
            assert_eq!(g.iface_origin, base.iface_origin, "threads={threads}");
            assert_eq!(g.iface_ir, base.iface_ir, "threads={threads}");
            assert_eq!(g.ir_origins, base.ir_origins, "threads={threads}");
            assert_eq!(g.ir_dests, base.ir_dests, "threads={threads}");
            assert_eq!(g.link_origins, base.link_origins, "threads={threads}");
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
        let g = IrGraph::build(
            &Corpus::new(),
            &AliasSets::empty(),
            &oracle(),
            &cfg,
            &rels,
            &cones,
            &pool::WorkerPool::new(cfg.threads),
            &obs::Recorder::disabled(),
        );
        assert!(g.irs.is_empty());
        assert!(g.iface_addrs.is_empty());
    }

    #[test]
    fn build_records_worker_count() {
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
        IrGraph::build(
            &traces.into_iter().collect(),
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
        assert!(!report.exec.contains_key(obs::names::EXEC_CACHE_HITS));
        assert!(!report.exec.contains_key(obs::names::EXEC_CACHE_MISSES));
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

    /// Packs and unpacks link and predecessor keys of `layout` in `K` at
    /// the extreme ranks below `n_ifaces` and `n_irs`, and checks the
    /// orders the reduction relies on.
    fn check_layout<K: Key + std::fmt::Debug>(layout: Layout, n_ifaces: usize, n_irs: usize) {
        let (last_if, last_ir) = (n_ifaces as u32 - 1, n_irs as u32 - 1);
        let labels = [LinkLabel::Nexthop, LinkLabel::Echo, LinkLabel::Multihop];
        for ir in [0, 1, last_ir] {
            for (dst, pred) in [(0, 0), (last_if, last_if), (last_if, 0), (1, last_if)] {
                for (label, probed) in labels.into_iter().flat_map(|l| [(l, false), (l, true)]) {
                    let key: K = layout.link(ir, dst, pred, probed, label);
                    assert_eq!(layout.unlink(key), (ir, dst, pred, probed, label));
                    assert_eq!(layout.link_pair(key), (ir, dst));
                    assert_ne!(key, K::EMPTY, "the filter's empty-slot marker");
                }
                let key: K = layout.pred(dst, ir, pred);
                assert_eq!(layout.unpred(key), (dst, ir, pred));
            }
        }
        // IR-major, then destination interface; within one observation the
        // label's numeric order is its confidence order. Predecessor
        // records are interface-major.
        let link =
            |ir, dst, pred, probed, label| -> K { layout.link(ir, dst, pred, probed, label) };
        let top = link(0, last_if, last_if, true, LinkLabel::Multihop);
        assert!(top < link(1, 0, 0, false, LinkLabel::Nexthop));
        assert!(
            link(5, 0, last_if, true, LinkLabel::Multihop)
                < link(5, 1, 0, false, LinkLabel::Nexthop)
        );
        for probed in [false, true] {
            let key = |l| link(1, 1, 1, probed, l);
            assert!(key(LinkLabel::Nexthop) < key(LinkLabel::Echo));
            assert!(key(LinkLabel::Echo) < key(LinkLabel::Multihop));
        }
        let pred = |dst, ir, pred| -> K { layout.pred(dst, ir, pred) };
        assert!(pred(0, last_ir, last_if) < pred(1, 0, 0));
        assert!(pred(1, 0, last_if) < pred(1, 1, 0));
    }

    #[test]
    fn keys_pack_and_unpack_at_the_extremes() {
        // `large` (68,566 interfaces, 46,872 IRs), then the largest counts
        // a `u64` key holds: 2²⁰ of each, and 2²¹ interfaces with 2¹⁹ IRs.
        for (n_ifaces, n_irs, width) in [
            (68_566, 46_872, 53),
            (1 << 20, 1 << 20, 63),
            (1 << 21, 1 << 19, 64),
        ] {
            let layout = Layout::of(n_ifaces, n_irs);
            assert_eq!(layout.width(), width, "{n_ifaces} interfaces, {n_irs} IRs");
            check_layout::<u64>(layout, n_ifaces, n_irs);
            check_layout::<u128>(layout, n_ifaces, n_irs);
        }
        // The first counts past them, and every rank a `u32` holds, take
        // the `u128` key.
        for (n_ifaces, n_irs, width) in [
            ((1 << 20) + 1, (1 << 20) + 1, 66),
            (1 << 21, (1 << 19) + 1, 65),
            (u32::MAX as usize, u32::MAX as usize, 99),
        ] {
            let layout = Layout::of(n_ifaces, n_irs);
            assert_eq!(layout.width(), width, "{n_ifaces} interfaces, {n_irs} IRs");
            check_layout::<u128>(layout, n_ifaces, n_irs);
        }
        // Empty and single-rank spaces need no bits.
        assert_eq!(Layout::of(0, 0).width(), 3);
        assert_eq!(Layout::of(1, 1).width(), 3);
        assert_eq!(Layout::of(2, 1).width(), 5);

        for i in [0, 1, u32::MAX - 1] {
            for r in [0, 1, u32::MAX] {
                let key = pack_dest(i, r);
                assert_eq!(((key >> 32) as u32, key as u32), (i, r));
                assert_ne!(key, u64::EMPTY);
            }
        }

        // A range's keys come out ascending and once each, whichever
        // bucket held them, up to the range's last major.
        let layout = Layout::of(u32::MAX as usize, u32::MAX as usize);
        let key = |ir, dst| -> u128 { layout.link(ir, dst, 0, false, LinkLabel::Echo) };
        let last = u32::MAX - 1;
        let buckets = vec![
            vec![key(last, 4), key(last - 2, 9), key(last, 1)],
            vec![],
            vec![key(last, 4), key(last - 2, 3)],
        ];
        let lo = last as usize - 2;
        assert_eq!(
            order_range(buckets, lo, lo + 3, |k| layout.link_ir(k) as usize),
            [
                key(last - 2, 3),
                key(last - 2, 9),
                key(last, 1),
                key(last, 4)
            ]
        );
        assert!(order_range(Vec::<Vec<u64>>::new(), 0, 0, |k| k as usize).is_empty());
    }

    #[test]
    fn both_key_widths_build_the_same_columns() {
        // The corpus's ranks fit a `u64`; the `u128` key at the widest
        // layout puts every field at bits no `u64` key reaches.
        let (traces, aliases) = mixed_corpus();
        let corpus: Corpus = traces.iter().cloned().collect();
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let widest = Layout::of(u32::MAX as usize, u32::MAX as usize);
        for threads in [1, 2] {
            let cfg = Config {
                threads,
                ..Config::default()
            };
            let (wp, rec) = (pool::WorkerPool::new(threads), obs::Recorder::disabled());
            let narrow =
                IrGraph::build(&corpus, &aliases, &oracle(), &cfg, &rels, &cones, &wp, &rec);
            assert!(Layout::of(narrow.iface_addrs.len(), narrow.irs.len()).width() <= 64);
            let mut wide = IrGraph {
                irs: (narrow.irs.iter())
                    .map(|ir| Ir {
                        links: Vec::new(),
                        ..ir.clone()
                    })
                    .collect(),
                iface_addrs: narrow.iface_addrs.clone(),
                iface_origin: narrow.iface_origin.clone(),
                iface_ir: narrow.iface_ir.clone(),
                ..IrGraph::default()
            };
            let dst_as: Vec<Asn> = (corpus.dsts().iter())
                .map(|&a| oracle().lookup(a).asn)
                .collect();
            wide.observe::<u128>(&corpus, &dst_as, widest, &wp, &rec);
            assert!(narrow.link_count() > 0 && !narrow.preds.is_empty());
            assert_eq!(
                serde_json::to_string(&wide.irs).unwrap(),
                serde_json::to_string(&narrow.irs).unwrap(),
                "threads={threads}"
            );
            assert_eq!(wide.link_origins, narrow.link_origins, "threads={threads}");
            assert_eq!(wide.iface_dests, narrow.iface_dests, "threads={threads}");
            assert_eq!(wide.preds, narrow.preds, "threads={threads}");
        }
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

    /// The graph's sets in the tree form the build kept them in before its
    /// columns: one `BTreeSet` per set, one `BTreeMap` per interface's
    /// predecessors.
    #[derive(Debug, PartialEq)]
    struct Trees {
        ir_origins: Vec<BTreeSet<Asn>>,
        ir_dests: Vec<BTreeSet<Asn>>,
        link_origins: Vec<BTreeSet<Asn>>,
        iface_dests: Vec<BTreeSet<Asn>>,
        preds: Vec<BTreeMap<IrId, BTreeSet<IfIdx>>>,
    }

    /// A column's sets as trees, after checking that each set strictly
    /// ascends (a tree would hide a repeat or a misordering).
    fn trees_of<T: Copy + Ord + std::fmt::Debug>(col: &SetColumn<T>) -> Vec<BTreeSet<T>> {
        (0..col.len())
            .map(|i| {
                let set = &col[i];
                assert!(set.windows(2).all(|w| w[0] < w[1]), "{set:?}");
                set.iter().copied().collect()
            })
            .collect()
    }

    impl Trees {
        /// Reads a graph's columns back as trees.
        fn of(g: &IrGraph) -> Trees {
            let mut preds = vec![BTreeMap::new(); g.preds.len()];
            for (j, pairs) in trees_of(&g.preds).into_iter().enumerate() {
                for (ir, pred) in pairs {
                    let prior: &mut BTreeSet<IfIdx> = preds[j].entry(ir).or_default();
                    prior.insert(pred);
                }
            }
            Trees {
                ir_origins: trees_of(&g.ir_origins),
                ir_dests: trees_of(&g.ir_dests),
                link_origins: trees_of(&g.link_origins),
                iface_dests: trees_of(&g.iface_dests),
                preds,
            }
        }
    }

    /// Whether a build matches the oracle's graph and tree-form sets:
    /// interface arrays, IRs and links (rows included), and every
    /// column set for set.
    fn compare(g: &IrGraph, want: &IrGraph, trees: &Trees) -> Result<(), String> {
        let check = |what: &str, same: bool| match same {
            true => Ok(()),
            false => Err(format!("{what} differ")),
        };
        check("interface addresses", g.iface_addrs == want.iface_addrs)?;
        check("interface origins", g.iface_origin == want.iface_origin)?;
        check("interface IRs", g.iface_ir == want.iface_ir)?;
        let json = |g: &IrGraph| serde_json::to_string(&g.irs).unwrap();
        check("IRs", json(g) == json(want))?;
        let got = Trees::of(g);
        check("IR origin sets", got.ir_origins == trees.ir_origins)?;
        check("IR destination sets", got.ir_dests == trees.ir_dests)?;
        check("link origin sets", got.link_origins == trees.link_origins)?;
        check(
            "interface destination sets",
            got.iface_dests == trees.iface_dests,
        )?;
        check("predecessor maps", got.preds == trees.preds)
    }

    /// §4.4's filter in the set form the build used before its columns.
    fn filtered_iface_dests(
        raw: &BTreeSet<Asn>,
        origin: Asn,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> BTreeSet<Asn> {
        if !cfg.enable_realloc || raw.len() != 2 || origin.is_none() || !raw.contains(&origin) {
            return raw.clone();
        }
        let other = *raw.iter().find(|&&a| a != origin).expect("two elements");
        if cones.size(other) > cfg.realloc_cone_max || rels.has_relationship(origin, other) {
            return raw.clone();
        }
        let drop = if cones.size(origin) >= cones.size(other) {
            origin
        } else {
            other
        };
        raw.iter().copied().filter(|&a| a != drop).collect()
    }

    /// Serial oracle for the whole build: address table, origins and IR
    /// numbering written out directly, then every [`LinkObs`] of the corpus
    /// in one vector, sorted, and folded in runs of equal `(ir, dst)` into
    /// trees. Each link's destination-AS set is built whole, as the build
    /// kept it before the third-party bit replaced it, and the bit is
    /// derived from it. Returns the graph without its columns, and its sets
    /// as trees.
    fn oracle_build(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> (IrGraph, Trees) {
        let mut addrs: Vec<u32> = (traces.iter())
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let n = addrs.len();
        let iface_origin: Vec<OriginInfo> = addrs.iter().map(|&a| ip2as.lookup(a)).collect();
        let mut iface_ir = vec![IrId(u32::MAX); n];
        let mut members: Vec<Vec<IfIdx>> = aliases
            .interned_groups(&addrs)
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
            });
        }

        let id = |addr: u32| addrs.binary_search(&addr).expect("hop addr observed") as u32;
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
                    label: link_label(ttl_y - ttl_x, ox.asn, oy.asn, y.reply),
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
        let mut link_origins: Vec<BTreeSet<Asn>> = Vec::new();
        for run in link_obs.chunk_by(|a, b| (a.ir, a.dst) == (b.ir, b.dst)) {
            let (ir, dst) = (run[0].ir, run[0].dst);
            let mut link = Link {
                dst: IfIdx(dst),
                label: run[0].label,
                row: link_origins.len() as u32,
                dst_origin_probed: false,
            };
            let mut origins: BTreeSet<Asn> = BTreeSet::new();
            let mut dests: BTreeSet<Asn> = BTreeSet::new();
            for o in run {
                link.label = link.label.min(o.label);
                if o.origin.is_some() {
                    origins.insert(o.origin);
                }
                if o.dest.is_some() {
                    dests.insert(o.dest);
                }
                preds[dst as usize]
                    .entry(IrId(ir))
                    .or_default()
                    .insert(IfIdx(o.pred));
            }
            link.dst_origin_probed = dests.contains(&iface_origin[dst as usize].asn);
            irs[ir as usize].links.push(link);
            link_origins.push(origins);
        }

        let mut ir_origins = vec![BTreeSet::new(); irs.len()];
        let mut ir_dests = vec![BTreeSet::new(); irs.len()];
        for ir in &irs {
            let k = ir.id.0 as usize;
            for &ifidx in &ir.ifaces {
                let o = iface_origin[ifidx.0 as usize];
                if o.asn.is_some() && o.kind != OriginKind::Ixp {
                    ir_origins[k].insert(o.asn);
                }
                let raw = &iface_dests[ifidx.0 as usize];
                ir_dests[k].extend(filtered_iface_dests(raw, o.asn, &cfg(), rels, cones));
            }
        }
        let graph = IrGraph {
            irs,
            iface_addrs: addrs,
            iface_origin,
            iface_ir,
            ..IrGraph::default()
        };
        let trees = Trees {
            ir_origins,
            ir_dests,
            link_origins,
            iface_dests,
            preds,
        };
        (graph, trees)
    }

    #[test]
    fn source_filters_evict_and_refill_without_reaching_the_output() {
        // More distinct link and destination keys than a filter has slots:
        // `base` traces of distinct addresses, every trace repeated once
        // per round in a different order, so slots are overwritten and
        // re-filled between a key's repeats. At one thread each of the 8
        // extract tasks walks two whole rounds.
        let slots = 1usize << FILTER_SLOTS_LOG2;
        let ttl_span = 20u32;
        // TTL gaps make Multihop labels; the last TTL always answers.
        let ttls: Vec<u32> = (0..ttl_span).filter(|h| h % 5 != 2).collect();
        let base = (2 * slots).div_ceil(ttls.len() - 1) as u32;
        let trace_of = |t: u32| {
            let hop_list: Vec<(u8, u32, ReplyType)> = ttls
                .iter()
                .map(|&h| {
                    let addr = a("10.1.0.0") + ((h % 3) << 16) + t * ttl_span + h;
                    let last = h == ttl_span - 1;
                    let reply = if last && t.is_multiple_of(4) { ER } else { TE };
                    (h as u8 + 1, addr, reply)
                })
                .collect();
            tr(a("10.1.0.0") + ((t % 3) << 16) + 0xF000 + t % 61, &hop_list)
        };
        let rounds = 16u32;
        let mut traces = Vec::new();
        for r in 0..rounds {
            let mut order: Vec<u32> = (0..base).collect();
            order.sort_by_key(|&i| (i ^ r.wrapping_mul(0x9E37_79B9)).wrapping_mul(0x85EB_CA6B));
            traces.extend(order.into_iter().map(trace_of));
        }
        let aliases = AliasSets::from_groups((0..6).map(|t| {
            BTreeSet::from([
                a("10.1.0.0") + t * ttl_span,
                a("10.1.0.0") + (t + 1) * ttl_span + 3,
            ])
        }));
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(2));
        let cones = CustomerCones::compute(&rels);
        let (want, trees) = oracle_build(&traces, &aliases, &oracle(), &rels, &cones);
        let corpus: Corpus = traces.iter().cloned().collect();
        for threads in [1usize, 2, 8] {
            let cfg = Config {
                threads,
                ..Config::default()
            };
            let rec = obs::Recorder::new(false);
            let wp = pool::WorkerPool::with_recorder(threads, rec.clone());
            let g = IrGraph::build(&corpus, &aliases, &oracle(), &cfg, &rels, &cones, &wp, &rec);
            if let Err(e) = compare(&g, &want, &trees) {
                panic!("threads={threads}: {e}");
            }
            // `phase1.link_keys` counts the distinct link keys at every
            // thread count. At one thread the filter dropped repeats, and
            // evicted keys came back: the emitted keys lie between every
            // link observation and the distinct keys.
            let (mut unfiltered, mut distinct) = (0u64, BTreeSet::new());
            for t in &traces {
                let dest_as = oracle().lookup(t.dst).asn;
                let hops: Vec<(u8, Hop)> = t.responsive().collect();
                for w in hops.windows(2) {
                    let ((ttl_x, x), (ttl_y, y)) = (w[0], w[1]);
                    let xi = g.iface_of_addr(x.addr).unwrap().0 as usize;
                    let yi = g.iface_of_addr(y.addr).unwrap().0 as usize;
                    let ir = g.iface_ir[xi];
                    if ir != g.iface_ir[yi] {
                        let (ox, oy) = (g.iface_origin[xi], g.iface_origin[yi]);
                        let label = link_label(ttl_y - ttl_x, ox.asn, oy.asn, y.reply);
                        let probed = dest_as.is_some() && dest_as == oy.asn;
                        distinct.insert((ir, yi, xi, probed, label));
                        unfiltered += 1;
                    }
                }
            }
            let exec = rec.report().exec;
            let (obs, keys) = (
                exec[obs::names::EXEC_PHASE1_LINK_OBS],
                exec[obs::names::EXEC_PHASE1_LINK_KEYS],
            );
            assert_eq!(keys, distinct.len() as u64, "threads={threads}");
            if threads == 1 {
                assert!(keys < obs, "no evicted key was re-emitted: {keys} vs {obs}");
                assert!(
                    obs < unfiltered,
                    "no repeat was filtered: {obs} vs {unfiltered}"
                );
                assert!(
                    keys as usize > slots,
                    "fewer distinct keys than slots: {keys}"
                );
            }
        }
    }

    /// The build's pass 0 before corpora were indexed by construction: workers
    /// scan trace shards for responding addresses and for the destinations
    /// of traces with one, and the unions become the sorted address and
    /// destination tables.
    fn intern_pass(traces: &Corpus, wp: &pool::WorkerPool) -> (Vec<u32>, Vec<u32>) {
        let trace_batch = wp.batch_size(traces.len());
        let addr_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut addrs: Vec<u32> = Vec::new();
                let mut dsts: Vec<u32> = Vec::new();
                let mut recent = RecentKeys::<u64>::new();
                for t in traces.rows(lo..hi) {
                    let mut responsive = false;
                    for h in t.hops().flatten() {
                        responsive = true;
                        if recent.admit(h.addr.into()) {
                            addrs.push(h.addr);
                        }
                    }
                    if responsive {
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
        addrs.sort_unstable();
        addrs.dedup();
        dst_addrs.sort_unstable();
        dst_addrs.dedup();
        (addrs, dst_addrs)
    }

    /// Whether `traces` holds what the intern pass and the extract pass's
    /// searches found in its rows: the addresses and destinations, every
    /// slot's rank (its address's index in the address table) and reply
    /// type, every row's destination rank, and the responsive-slot count.
    fn check_index(traces: &Corpus) -> Result<(), String> {
        let (addrs, dsts) = intern_pass(traces, &pool::WorkerPool::new(1));
        if traces.addrs() != addrs || traces.dsts() != dsts {
            return Err("address or destination tables differ".into());
        }
        let mut responsive = 0;
        for (row, t) in traces.iter().enumerate() {
            let slots = traces.slots(row..row + 1).iter();
            let want = t.hops().map(|h| {
                h.map(|h| {
                    let rank = addrs.binary_search(&h.addr).expect("observed");
                    (rank as u32, h.reply)
                })
            });
            if !want.eq(slots.map(|&s| traceroute::decode(s))) {
                return Err(format!("row {row}: hop slots differ"));
            }
            let answered = t.responsive_count();
            responsive += answered;
            let dst = match answered {
                0 => traceroute::NO_RANK,
                _ => dsts.binary_search(&t.dst).expect("destination listed") as u32,
            };
            if traces.dst_ranks()[row] != dst {
                return Err(format!("row {row}: destination rank differs"));
            }
        }
        if traces.dst_ranks().len() != traces.len() || traces.responsive_hops() != responsive {
            return Err("column lengths or responsive count differ".into());
        }
        Ok(())
    }

    /// `traces` cut into `wp`-batch-sized builders and sealed on `wp`.
    fn sealed(traces: &[Trace], wp: &pool::WorkerPool) -> Corpus {
        let parts = (traces.chunks(wp.batch_size(traces.len()).max(1)))
            .map(|chunk| {
                let mut b = traceroute::CorpusBuilder::new();
                chunk.iter().for_each(|t| b.push_trace(t).unwrap());
                b
            })
            .collect();
        Corpus::concat(parts, wp).unwrap()
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
                let (want, trees) = oracle_build(&traces, &aliases, &ip2as, &rels, &cones);
                // Collected on one thread, and sealed in parts at the
                // build's thread count.
                let collected: Corpus = traces.iter().cloned().collect();
                for threads in [1usize, 2, 8] {
                    let cfg = Config { threads, ..Config::default() };
                    let (wp, rec) = (pool::WorkerPool::new(threads), obs::Recorder::disabled());
                    let sealed = sealed(&traces, &wp);
                    for (kind, corpus) in [("collected", &collected), ("sealed", &sealed)] {
                        let g = IrGraph::build(
                            corpus, &aliases, &ip2as, &cfg, &rels, &cones, &wp, &rec,
                        );
                        let same = compare(&g, &want, &trees);
                        prop_assert!(same.is_ok(), "{} threads={}: {:?}", kind, threads, same);
                    }
                }
            }

            #[test]
            fn index_matches_the_intern_pass_at_every_thread_count(
                traces in proptest::collection::vec(trace_strategy(), 0..40),
            ) {
                let collected: Corpus = traces.iter().cloned().collect();
                let mut jsonl = Vec::new();
                traceroute::io::write_jsonl(&mut jsonl, &collected).unwrap();
                let read = traceroute::io::read_jsonl(&jsonl[..]).unwrap();
                for (kind, corpus) in [("collected", &collected), ("jsonl", &read)] {
                    let same = check_index(corpus);
                    prop_assert!(same.is_ok(), "{}: {:?}", kind, same);
                }
                for threads in [1usize, 2, 3, 8] {
                    let corpus = sealed(&traces, &pool::WorkerPool::new(threads));
                    let same = check_index(&corpus);
                    prop_assert!(same.is_ok(), "sealed threads={}: {:?}", threads, same);
                    prop_assert_eq!(corpus.slots(0..corpus.len()), collected.slots(0..traces.len()));
                }
            }
        }

        proptest! {
            // Each case generates a topology and runs three campaigns.
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            fn campaign_index_matches_the_intern_pass_at_every_thread_count(
                seed in 0u64..1_000,
                vps in 1usize..4,
            ) {
                use traceroute::sim::{probe_campaign_in_pool, select_vps, ProbeConfig};
                let net = topo_gen::Internet::generate(topo_gen::GeneratorConfig::tiny(seed));
                let probe = ProbeConfig { per_prefix_cap: 2, seed, ..ProbeConfig::default() };
                let vps = select_vps(&net, vps, &[], seed);
                let rels = AsRelationships::new();
                let cones = CustomerCones::compute(&rels);
                for threads in [1usize, 2, 3, 8] {
                    let rec = obs::Recorder::new(false);
                    let wp = pool::WorkerPool::with_recorder(threads, rec.clone());
                    let traces = probe_campaign_in_pool(&net, &vps, &probe, &wp, &rec);
                    // The campaign's seal indexed its corpus, and phase 1
                    // reads its tables rather than building another index.
                    let same = check_index(&traces);
                    prop_assert!(same.is_ok(), "threads={}: {:?}", threads, same);
                    let cfg = Config { threads, ..Config::default() };
                    let g = IrGraph::build(
                        &traces, &AliasSets::empty(), &ip2as(), &cfg, &rels, &cones, &wp, &rec,
                    );
                    prop_assert_eq!(&g.iface_addrs[..], traces.addrs());
                    prop_assert_eq!(rec.report().phases[obs::names::CORPUS_INDEX].count, 1);
                }
            }
        }
    }
}
