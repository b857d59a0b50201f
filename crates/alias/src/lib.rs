//! Alias resolution: which interface addresses sit on the same router.
//!
//! bdrmapIT consumes alias sets produced by MIDAR + iffinder (precise) and,
//! in the paper's Fig. 20 ablation, by kapar (aggressive, over-merging).
//! This crate provides:
//!
//! * [`AliasSets`] — the dataset: disjoint groups of addresses, one group
//!   per inferred router, with the ITDK *nodes file* interchange format
//!   (`node N1:  1.2.3.4 5.6.7.8`).
//! * [`resolve_midar`] — the synthetic MIDAR+iffinder: samples the ground
//!   truth over *observed* addresses with configurable coverage, modeling a
//!   precise-but-incomplete prober.
//! * [`resolve_kapar`] — a real analytic resolver in kapar's family: it
//!   unions the router of a traceroute predecessor with the /31 (or /30)
//!   subnet mate of the successor address. Like kapar, it over-merges when
//!   its point-to-point assumption fails, which is exactly the failure mode
//!   Fig. 20 measures.
//! * [`pair_accuracy`] — alias-pair precision against generator truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use net_types::{format_ipv4, parse_ipv4};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use topo_gen::Internet;
use traceroute::{Corpus, ReplyType};

/// Disjoint alias groups over interface addresses.
///
/// Addresses not present in any group are implicitly singleton routers —
/// bdrmapIT "will map AS borders without \[aliases\]" (§3.1), so absence is
/// a first-class state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasSets {
    groups: Vec<BTreeSet<u32>>,
}

impl AliasSets {
    /// The empty dataset (every address its own router).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from explicit groups; groups with fewer than two addresses
    /// are dropped (they say nothing), and overlapping groups are unioned.
    pub fn from_groups<I>(groups: I) -> Self
    where
        I: IntoIterator<Item = BTreeSet<u32>>,
    {
        let mut uf = UnionFind::default();
        for g in groups {
            let mut it = g.into_iter();
            if let Some(first) = it.next() {
                for other in it {
                    uf.union(first, other);
                }
            }
        }
        uf.into_sets()
    }

    /// Number of multi-address groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no aliases are known.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group containing `addr`, if any.
    pub fn group_of(&self, addr: u32) -> Option<&BTreeSet<u32>> {
        // Linear index is rebuilt on demand by callers that need speed;
        // here a simple scan suffices for the dataset sizes involved in
        // lookups (bdrmapit-core builds its own addr→router index once).
        self.groups.iter().find(|g| g.contains(&addr))
    }

    /// Iterates over all groups.
    pub fn iter(&self) -> impl Iterator<Item = &BTreeSet<u32>> {
        self.groups.iter()
    }

    /// The groups keyed by rank in `observed`, a sorted and deduplicated
    /// address table: each group's members that were actually observed, as
    /// their indices into `observed`, ascending. Groups come back in
    /// dataset order; addresses `observed` lacks are dropped, so a group can
    /// shrink below two members (the caller decides whether such remnants
    /// still merge anything).
    pub fn interned_groups(&self, observed: &[u32]) -> Vec<Vec<u32>> {
        let rank = |a: &u32| observed.binary_search(a).ok().map(|i| i as u32);
        self.groups
            .iter()
            .map(|g| g.iter().filter_map(rank).collect())
            .collect()
    }

    /// Serializes to the ITDK nodes-file format.
    pub fn to_nodes_file(&self) -> String {
        let mut out = String::from("# ITDK-style nodes file: node <id>: <addr> <addr> ...\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!("node N{}: ", i + 1));
            let addrs: Vec<String> = g.iter().map(|&a| format_ipv4(a)).collect();
            out.push_str(&addrs.join("  "));
            out.push('\n');
        }
        out
    }

    /// Parses the ITDK nodes-file format.
    pub fn from_nodes_file(text: &str) -> Result<Self, String> {
        let mut groups = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rest = line
                .strip_prefix("node ")
                .ok_or_else(|| format!("line {}: expected 'node '", lineno + 1))?;
            let (_, addrs) = rest
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected ':'", lineno + 1))?;
            let mut set = BTreeSet::new();
            for tok in addrs.split_whitespace() {
                let a = parse_ipv4(tok)
                    .ok_or_else(|| format!("line {}: bad address {tok:?}", lineno + 1))?;
                set.insert(a);
            }
            if set.len() >= 2 {
                groups.push(set);
            }
        }
        Ok(AliasSets::from_groups(groups))
    }
}

/// Tiny union-find over addresses.
#[derive(Default)]
struct UnionFind {
    parent: BTreeMap<u32, u32>,
}

impl UnionFind {
    /// The root of `x`'s set, pointing every node on the way at it. A loop,
    /// not recursion: a nodes file can chain one union per line, and the
    /// path is then as long as the file.
    fn find(&mut self, x: u32) -> u32 {
        let mut root = *self.parent.entry(x).or_insert(x);
        loop {
            let p = self.parent[&root];
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = x;
        while cur != root {
            cur = std::mem::replace(self.parent.get_mut(&cur).expect("on the path"), root);
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller address becomes the root.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent.insert(hi, lo);
        }
    }

    fn into_sets(mut self) -> AliasSets {
        let keys: Vec<u32> = self.parent.keys().copied().collect();
        let mut by_root: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for k in keys {
            let r = self.find(k);
            by_root.entry(r).or_default().insert(k);
        }
        AliasSets {
            groups: by_root.into_values().filter(|g| g.len() >= 2).collect(),
        }
    }
}

/// Every address observed as a responding hop in the corpus, sorted and
/// deduplicated: the corpus's address table ([`Corpus::addrs`]).
pub fn observed_addresses(traces: &Corpus) -> Vec<u32> {
    traces.addrs().to_vec()
}

/// Synthetic MIDAR + iffinder: per router, with probability `coverage`,
/// publishes the set of its addresses that were observed in the corpus.
/// Groups of observed addresses on the same true router — never a false
/// alias, matching MIDAR's "highly precise" characterization (§7.4).
pub fn resolve_midar(net: &Internet, observed: &[u32], coverage: f64, seed: u64) -> AliasSets {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4D49_4441);
    let mut by_router: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &addr in observed {
        if let Some(iface) = net.topology.iface_by_addr(addr) {
            by_router.entry(iface.router.0).or_default().insert(addr);
        }
    }
    let groups = by_router
        .into_values()
        .filter(|g| g.len() >= 2)
        .filter(|_| rng.gen_bool(coverage));
    AliasSets::from_groups(groups)
}

/// [`resolve_midar`] under an observability span: records the
/// `alias.resolve` phase and dataset size counters. The alias sets are
/// bit-identical to the plain variant's.
pub fn resolve_midar_with_obs(
    net: &Internet,
    observed: &[u32],
    coverage: f64,
    seed: u64,
    rec: &obs::Recorder,
) -> AliasSets {
    let _span = rec.span(obs::names::PHASE_ALIAS);
    let sets = resolve_midar(net, observed, coverage, seed);
    rec.add(obs::names::ALIAS_GROUPS, sets.len() as u64);
    rec.add(
        obs::names::ALIAS_ALIASED_ADDRS,
        sets.iter().map(|g| g.len() as u64).sum(),
    );
    sets
}

/// The alias phase for a corpus: [`resolve_midar_with_obs`] over the
/// corpus's address table ([`Corpus::addrs`]).
pub fn resolve_corpus(
    net: &Internet,
    traces: &Corpus,
    coverage: f64,
    seed: u64,
    rec: &obs::Recorder,
) -> AliasSets {
    resolve_midar_with_obs(net, traces.addrs(), coverage, seed, rec)
}

/// Analytic kapar-style resolution from the traces alone.
///
/// For every observed adjacency `x → y` answered with Time Exceeded, assume
/// `y` is the ingress of a point-to-point /31 (or /30) link whose other end
/// sits on `x`'s router, and union `x` with `y`'s subnet mate when that mate
/// was observed. Dense subnets (more than [`LAN_DENSITY_LIMIT`] observed
/// addresses in the /24) are treated as multi-access LANs and skipped, as
/// kapar's point-to-point analysis does. The assumption still fails for
/// off-path replies, third-party addresses, and mid-size LANs — producing
/// kapar's characteristic over-merging of distinct routers (Fig. 20's
/// mechanism).
pub fn resolve_kapar(traces: &Corpus, base: &AliasSets) -> AliasSets {
    let observed = observed_addresses(traces);
    // Observed-address density per /24: point-to-point inference is only
    // plausible on sparse subnets.
    let mut density: BTreeMap<u32, usize> = BTreeMap::new();
    for &addr in &observed {
        *density.entry(addr & !0xff).or_insert(0) += 1;
    }
    let mut uf = UnionFind::default();
    // Seed with the base (midar) groups.
    for g in base.iter() {
        let mut it = g.iter();
        if let Some(&first) = it.next() {
            for &other in it {
                uf.union(first, other);
            }
        }
    }
    for t in traces {
        let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
        for w in hops.windows(2) {
            let ((ttl_x, x), (ttl_y, y)) = (w[0], w[1]);
            if ttl_y != ttl_x + 1 || y.reply != ReplyType::TimeExceeded {
                continue;
            }
            if density
                .get(&(y.addr & !0xff))
                .is_some_and(|&d| d > LAN_DENSITY_LIMIT)
            {
                continue; // multi-access LAN: no point-to-point mate
            }
            // /31 mate; fall back to the /30 host pair.
            let mate31 = x_or_mate(y.addr, 1);
            let mate30 = mate_in_slash30(y.addr);
            let mate = if observed.binary_search(&mate31).is_ok() {
                Some(mate31)
            } else {
                mate30.filter(|m| observed.binary_search(m).is_ok())
            };
            if let Some(m) = mate {
                if m != y.addr {
                    uf.union(x.addr, m);
                }
            }
        }
    }
    // Shared-successor rule (apar/kapar family): two addresses that both
    // immediately precede the same interface sit at the far end of the same
    // point-to-point link, hence on one router. Correct for clean ingress
    // replies; merges *distinct* routers whenever one predecessor answered
    // with an off-path or third-party address — kapar's over-merge.
    let mut preds_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for t in traces {
        let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
        for w in hops.windows(2) {
            let ((ttl_x, x), (ttl_y, y)) = (w[0], w[1]);
            if ttl_y != ttl_x + 1 || y.reply != ReplyType::TimeExceeded {
                continue;
            }
            if density
                .get(&(y.addr & !0xff))
                .is_some_and(|&d| d > LAN_DENSITY_LIMIT)
            {
                continue;
            }
            preds_of.entry(y.addr).or_default().insert(x.addr);
        }
    }
    for preds in preds_of.values() {
        let mut it = preds.iter();
        if let Some(&first) = it.next() {
            for &other in it {
                uf.union(first, other);
            }
        }
    }
    uf.into_sets()
}

/// Observed addresses per /24 above which the subnet is treated as a
/// multi-access LAN rather than point-to-point space.
pub const LAN_DENSITY_LIMIT: usize = 8;

/// Injects kapar's documented failure mode into an alias dataset: "kapar
/// has a tendency to mistakenly group interfaces into a single IR, when in
/// actuality they are used on different physical routers" (§7.4). With
/// probability `rate` per distinct traceroute adjacency, the two ends of
/// the link — two different routers — are merged into one group.
///
/// The analytic resolver ([`resolve_kapar`]) reproduces kapar's *method*;
/// on the simulator's clean forwarding plane its graph analysis rarely
/// misfires, whereas real kapar trips over MPLS tunnels, unnumbered links,
/// and stale topology snapshots that the simulator does not model. This
/// function substitutes those unmodeled error sources (see DESIGN.md).
pub fn degrade_with_false_merges(
    base: &AliasSets,
    traces: &Corpus,
    rate: f64,
    seed: u64,
) -> AliasSets {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B41_5041);
    let mut pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    for t in traces {
        let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
        for w in hops.windows(2) {
            let ((ttl_x, x), (ttl_y, y)) = (w[0], w[1]);
            if ttl_y == ttl_x + 1 && y.reply == ReplyType::TimeExceeded {
                pairs.insert((x.addr.min(y.addr), x.addr.max(y.addr)));
            }
        }
    }
    let mut uf = UnionFind::default();
    for g in base.iter() {
        let mut it = g.iter();
        if let Some(&first) = it.next() {
            for &other in it {
                uf.union(first, other);
            }
        }
    }
    // Limit each resulting group to a single false merge: without the cap,
    // union-find transitivity chains 10% of all backbone adjacencies into
    // one mega-router, which is not kapar's failure shape (it produces many
    // moderately-wrong groups, not one absurd one).
    let mut tainted: BTreeSet<u32> = BTreeSet::new();
    for (a, b) in pairs {
        if !rng.gen_bool(rate) {
            continue;
        }
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb || tainted.contains(&ra) || tainted.contains(&rb) {
            continue;
        }
        uf.union(a, b);
        let root = uf.find(a);
        tainted.insert(root);
        tainted.insert(ra);
        tainted.insert(rb);
    }
    uf.into_sets()
}

fn x_or_mate(addr: u32, bit: u32) -> u32 {
    addr ^ bit
}

/// The other host address inside `addr`'s /30 (x.x.x.{1,2} pairing), if
/// `addr` is one of the two usable /30 hosts.
fn mate_in_slash30(addr: u32) -> Option<u32> {
    match addr & 0b11 {
        0b01 => Some(addr + 1),
        0b10 => Some(addr - 1),
        _ => None,
    }
}

/// Alias-pair precision against generator truth: of all address pairs
/// grouped together, how many really share a router? Returns
/// `(true pairs, total pairs)`.
pub fn pair_accuracy(sets: &AliasSets, net: &Internet) -> (usize, usize) {
    let mut true_pairs = 0;
    let mut total = 0;
    for g in sets.iter() {
        let addrs: Vec<u32> = g.iter().copied().collect();
        for (i, &a) in addrs.iter().enumerate() {
            for &b in addrs.iter().skip(i + 1) {
                total += 1;
                let ra = net.topology.iface_by_addr(a).map(|i| i.router);
                let rb = net.topology.iface_by_addr(b).map(|i| i.router);
                if ra.is_some() && ra == rb {
                    true_pairs += 1;
                }
            }
        }
    }
    (true_pairs, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_gen::GeneratorConfig;
    use traceroute::sim::{probe_campaign_in_pool, select_vps, ProbeConfig};
    use traceroute::TraceRef;

    fn corpus() -> (Internet, Corpus) {
        let net = Internet::generate(GeneratorConfig::tiny(55));
        let cfg = ProbeConfig {
            per_prefix_cap: 2,
            ..ProbeConfig::default()
        };
        let vps = select_vps(&net, 5, &[], 1);
        let wp = pool::WorkerPool::new(0);
        let traces = probe_campaign_in_pool(&net, &vps, &cfg, &wp, &obs::Recorder::disabled());
        (net, traces)
    }

    #[test]
    fn groups_union_overlaps_and_drop_singletons() {
        let sets = AliasSets::from_groups([
            BTreeSet::from([1, 2]),
            BTreeSet::from([2, 3]),
            BTreeSet::from([9]),
            BTreeSet::from([10, 11]),
        ]);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets.group_of(1), sets.group_of(3));
        assert_eq!(sets.group_of(1).unwrap().len(), 3);
        assert!(sets.group_of(9).is_none());
        assert!(sets.group_of(10).is_some());
    }

    /// Each group joins the root of everything after it, so one final
    /// group walks a parent chain as long as the input.
    #[test]
    fn a_chain_as_long_as_the_input_does_not_overflow_the_stack() {
        const N: u32 = 300_000;
        let mut groups: Vec<BTreeSet<u32>> =
            (1..=N).rev().map(|i| BTreeSet::from([i, i + 1])).collect();
        groups.push(BTreeSet::from([0, N + 1]));
        let sets = AliasSets::from_groups(groups);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.group_of(0).map(BTreeSet::len), Some(N as usize + 2));
    }

    #[test]
    fn nodes_file_roundtrip() {
        let sets = AliasSets::from_groups([
            BTreeSet::from([0x0a000001, 0x0a000002]),
            BTreeSet::from([0x0b000001, 0x0b000002, 0x0b000003]),
        ]);
        let text = sets.to_nodes_file();
        assert!(text.contains("node N1: "));
        let back = AliasSets::from_nodes_file(&text).unwrap();
        assert_eq!(back, sets);
    }

    #[test]
    fn nodes_file_errors() {
        assert!(AliasSets::from_nodes_file("bogus line\n").is_err());
        assert!(AliasSets::from_nodes_file("node N1 1.2.3.4\n").is_err());
        assert!(AliasSets::from_nodes_file("node N1: 1.2.3.999\n").is_err());
        // Comments and blanks are fine.
        assert!(AliasSets::from_nodes_file("# hi\n\n").unwrap().is_empty());
    }

    #[test]
    fn midar_is_perfectly_precise() {
        let (net, traces) = corpus();
        let observed = observed_addresses(&traces);
        let sets = resolve_midar(&net, &observed, 0.9, 7);
        assert!(
            !sets.is_empty(),
            "some routers must have multiple observed addrs"
        );
        let (tp, total) = pair_accuracy(&sets, &net);
        assert_eq!(tp, total, "midar must never produce a false alias");
        // Only observed addresses appear.
        for g in sets.iter() {
            for a in g {
                assert!(observed.contains(a));
            }
        }
    }

    /// The walk `observed_addresses` made before corpora carried an
    /// address table: one pass over the hops, a direct-mapped table of
    /// recent addresses dropping most exact repeats, then a sort and dedup.
    fn observed_walk(traces: &Corpus) -> Vec<u32> {
        const SLOTS_LOG2: u32 = 16;
        let mut recent = vec![u64::MAX; 1 << SLOTS_LOG2];
        let mut addrs = Vec::new();
        for (_, h) in traces.iter().flat_map(TraceRef::responsive) {
            let slot = (h.addr.wrapping_mul(0x9E37_79B1) >> (32 - SLOTS_LOG2)) as usize;
            if recent[slot] != u64::from(h.addr) {
                recent[slot] = u64::from(h.addr);
                addrs.push(h.addr);
            }
        }
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    #[test]
    fn observed_addresses_are_the_sorted_responsive_set() {
        let (_, traces) = corpus();
        let observed = observed_addresses(&traces);
        let oracle: BTreeSet<u32> = traces
            .iter()
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        assert!(observed.iter().eq(oracle.iter()));
        assert_eq!(observed, observed_walk(&traces));
    }

    mod walk_props {
        use super::*;
        use proptest::prelude::*;
        use traceroute::{Hop, ReplyType, StopReason, Trace};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The address table is the walk's, for a collected corpus and
            /// after a JSONL round trip.
            #[test]
            fn observed_addresses_match_the_walk(
                rows in proptest::collection::vec(
                    proptest::collection::vec(proptest::option::weighted(0.7, 0u32..300), 0..12),
                    0..40,
                ),
            ) {
                let corpus = || -> Corpus {
                    rows.iter()
                        .map(|hops| Trace {
                            monitor: "vp".into(),
                            src: 1,
                            dst: 7,
                            hops: hops
                                .iter()
                                .map(|h| h.map(|addr| Hop { addr, reply: ReplyType::TimeExceeded }))
                                .collect(),
                            stop: StopReason::GapLimit,
                        })
                        .collect()
                };
                let want = observed_walk(&corpus());
                prop_assert_eq!(&observed_addresses(&corpus()), &want);
                let mut jsonl = Vec::new();
                traceroute::io::write_jsonl(&mut jsonl, &corpus()).unwrap();
                let read = traceroute::io::read_jsonl(&jsonl[..]).unwrap();
                prop_assert_eq!(&observed_addresses(&read), &want);
            }
        }
    }

    #[test]
    fn resolve_corpus_is_the_observed_then_midar_path() {
        let (net, traces) = corpus();
        let rec = obs::Recorder::new(false);
        let sets = resolve_corpus(&net, &traces, 0.9, 7, &rec);
        assert_eq!(
            sets,
            resolve_midar(&net, &observed_addresses(&traces), 0.9, 7)
        );
        let report = rec.report();
        assert_eq!(report.phases[obs::names::PHASE_ALIAS].count, 1);
        assert_eq!(report.counters[obs::names::ALIAS_GROUPS], sets.len() as u64);
    }

    #[test]
    fn midar_coverage_scales() {
        let (net, traces) = corpus();
        let observed = observed_addresses(&traces);
        let full = resolve_midar(&net, &observed, 1.0, 7);
        let half = resolve_midar(&net, &observed, 0.5, 7);
        let none = resolve_midar(&net, &observed, 0.0, 7);
        assert!(full.len() >= half.len());
        assert!(none.is_empty());
    }

    #[test]
    fn kapar_overmerges() {
        let (net, traces) = corpus();
        let observed = observed_addresses(&traces);
        let midar = resolve_midar(&net, &observed, 0.9, 7);
        let kapar = resolve_kapar(&traces, &midar);
        let (tp_m, tot_m) = pair_accuracy(&midar, &net);
        let (tp_k, tot_k) = pair_accuracy(&kapar, &net);
        assert_eq!(tp_m, tot_m);
        // kapar groups more addresses...
        let midar_addrs: usize = midar.iter().map(BTreeSet::len).sum();
        let kapar_addrs: usize = kapar.iter().map(BTreeSet::len).sum();
        assert!(kapar_addrs >= midar_addrs);
        // ...at lower precision (the Fig. 20 mechanism). With a tiny corpus
        // this can occasionally be exactly precise, so only require ≤.
        let prec_k = tp_k as f64 / tot_k.max(1) as f64;
        assert!(prec_k <= 1.0);
        assert!(tot_k >= tot_m);
    }

    #[test]
    fn mate_arithmetic() {
        assert_eq!(x_or_mate(0x0a000000, 1), 0x0a000001);
        assert_eq!(mate_in_slash30(0x0a000001), Some(0x0a000002));
        assert_eq!(mate_in_slash30(0x0a000002), Some(0x0a000001));
        assert_eq!(mate_in_slash30(0x0a000000), None);
        assert_eq!(mate_in_slash30(0x0a000003), None);
    }

    #[test]
    fn empty_inputs() {
        let sets = resolve_kapar(&Corpus::new(), &AliasSets::empty());
        assert!(sets.is_empty());
        assert!(observed_addresses(&Corpus::new()).is_empty());
        let (tp, tot) = pair_accuracy(&AliasSets::empty(), &corpus().0);
        assert_eq!((tp, tot), (0, 0));
    }
}
