//! The router and interface elections in their set-based form: vote
//! tallies in a [`Counter`], the origin-set map `M` in a `BTreeMap`, and the
//! restricted-election, reallocation, exception and hidden-AS collections
//! as `BTreeSet`s. The sweep runs the scratch-buffer form
//! ([`router::annotate_ir`], [`interface::annotate_iface_one`]); the
//! proptests below hold it to this one on random IRs, returned ASN and
//! each election's [`Firings`] alike.

use crate::graph::{IfIdx, Ir, IrId, LinkLabel};
use crate::refine::engine::{Firings, SweepCtx};
use crate::refine::votes;
use crate::AnnotationState;
use as_rel::{AsRelationships, CustomerCones, Relationship};
use bgp::OriginKind;
use net_types::{Asn, Counter, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// Algorithm 2 over a `Counter` and a `BTreeMap<Asn, BTreeSet<Asn>>`,
/// leaving what it fired in [`SweepCtx::fired`].
fn annotate_ir(ir: &Ir, state: &AnnotationState, ctx: &mut SweepCtx<'_>) -> Asn {
    ctx.fired = Firings::default();
    let graph = ctx.graph;
    let ir_origins: BTreeSet<Asn> = graph.ir_origins[ir.id.0 as usize].iter().copied().collect();
    let best_label = ir
        .links
        .iter()
        .map(|l| l.label)
        .min()
        .unwrap_or(LinkLabel::Multihop);
    let usable: Vec<bool> = ir.links.iter().map(|l| l.label == best_label).collect();
    let mut link_votes: Vec<Option<Asn>> = Vec::with_capacity(ir.links.len());
    for (i, l) in ir.links.iter().enumerate() {
        link_votes.push(if usable[i] {
            votes::link_vote(l, state, ctx)
        } else {
            None
        });
    }
    if ctx.cfg.enable_realloc {
        correct_reallocated(ir, &ir_origins, state, ctx, &mut link_votes, &usable);
    }
    let mut v: Counter<Asn> = Counter::new();
    let mut m: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
    let mut link_vote_ases: BTreeSet<Asn> = BTreeSet::new();
    for (i, vote) in link_votes.iter().enumerate() {
        if let Some(a) = vote {
            v.add(*a);
            link_vote_ases.insert(*a);
            m.entry(*a)
                .or_default()
                .extend(graph.link_origins[ir.links[i].row as usize].iter().copied());
        }
    }
    for &ifidx in &ir.ifaces {
        let o = ctx.graph.iface_origin[ifidx.0 as usize];
        if o.asn.is_some() && o.kind != OriginKind::Ixp {
            v.add(o.asn);
        }
    }
    if v.is_empty() {
        return Asn::NONE;
    }
    if ctx.cfg.enable_exceptions {
        if let Some(a) = check_exceptions(&ir_origins, &link_vote_ases, &v, ctx.rels) {
            ctx.fired.exception += 1;
            return a;
        }
    }
    let mut r: BTreeSet<Asn> = ir_origins.clone();
    for (&cand, origins) in &m {
        if origins
            .iter()
            .any(|&o| o != cand && ctx.rels.has_relationship(o, cand))
        {
            r.insert(cand);
        }
    }
    if r != ir_origins {
        return elect(&v, &r, ctx.cones);
    }
    let all: BTreeSet<Asn> = v.keys().copied().collect();
    let a = elect(&v, &all, ctx.cones);
    if ctx.cfg.enable_hidden_as {
        let vote_origins = m.get(&a).cloned().unwrap_or_default();
        let replaced = check_hidden_as(&ir_origins, a, &vote_origins, ctx.rels);
        if replaced != a {
            ctx.fired.hidden += 1;
        }
        return replaced;
    }
    a
}

/// The election over a `Counter`, candidates from an ordered set.
fn elect(v: &Counter<Asn>, allowed: &BTreeSet<Asn>, cones: &CustomerCones) -> Asn {
    let mut best: Option<(u64, Asn)> = None;
    for &cand in allowed {
        let count = v.get(&cand);
        if count == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((bc, ba)) => {
                count > bc || (count == bc && (cones.size(cand), cand) < (cones.size(ba), ba))
            }
        };
        if better {
            best = Some((count, cand));
        }
    }
    best.map_or(Asn::NONE, |(_, a)| a)
}

/// §6.2 over a `Counter`.
fn annotate_iface_one(idx: usize, state: &AnnotationState, ctx: &mut SweepCtx<'_>) -> Option<Asn> {
    let graph = ctx.graph;
    let origin = graph.iface_origin[idx];
    if origin.kind == OriginKind::Ixp {
        return None;
    }
    let ir = graph.iface_ir[idx];
    let r_ann = state.router[ir.0 as usize];
    if r_ann.is_none() {
        return None;
    }
    if origin.asn.is_some() && origin.asn != r_ann {
        return Some(origin.asn);
    }
    let mut preds: BTreeMap<IrId, BTreeSet<IfIdx>> = BTreeMap::new();
    for &(pred_ir, prior) in &graph.preds[idx] {
        preds.entry(pred_ir).or_default().insert(prior);
    }
    let mut v: Counter<Asn> = Counter::new();
    for (pred_ir, prior_ifaces) in &preds {
        let ann = state.router[pred_ir.0 as usize];
        if ann.is_some() {
            v.add_n(ann, prior_ifaces.len() as u64);
        }
    }
    if v.is_empty() {
        return origin.asn.is_some().then_some(origin.asn);
    }
    let tied = v.max_keys();
    let winner = if tied.len() == 1 {
        tied[0]
    } else {
        let related: Vec<Asn> = tied
            .iter()
            .copied()
            .filter(|&w| {
                origin.asn.is_some()
                    && (w == origin.asn || ctx.rels.has_relationship(w, origin.asn))
            })
            .collect();
        match ctx.cones.largest_cone(related) {
            Some(w) => w,
            None => origin.asn,
        }
    };
    winner.is_some().then_some(winner)
}

/// §6.1.2 with its candidate /24s and router annotations as sets.
fn correct_reallocated(
    ir: &Ir,
    ir_origins: &BTreeSet<Asn>,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
    votes: &mut [Option<Asn>],
    usable: &[bool],
) {
    let graph = ctx.graph;
    let mut cand: Vec<usize> = Vec::new();
    for (i, link) in ir.links.iter().enumerate() {
        let origin = graph.iface_origin[link.dst.0 as usize].asn;
        if usable[i] && origin.is_some() && ir_origins.contains(&origin) {
            cand.push(i);
        }
    }
    if cand.len() < 2 {
        return;
    }
    let dst = |i: usize| ir.links[i].dst.0 as usize;
    let prefixes: BTreeSet<Prefix> = (cand.iter())
        .map(|&i| Prefix::slash24_of(graph.iface_addrs[dst(i)]))
        .collect();
    if prefixes.len() != 1 {
        return;
    }
    let annotations: BTreeSet<Asn> = (cand.iter())
        .map(|&i| state.router[graph.iface_ir[dst(i)].0 as usize])
        .collect();
    let [x] = annotations.into_iter().collect::<Vec<_>>()[..] else {
        return;
    };
    if x.is_none() || !ir_origins.iter().any(|&o| ctx.rels.is_customer(x, o)) {
        return;
    }
    let mut flipped = false;
    for &i in &cand {
        if votes[i].is_some_and(|v| v != x) {
            votes[i] = Some(x);
            flipped = true;
        }
    }
    if flipped {
        ctx.fired.realloc += 1;
    }
}

/// §6.1.3 over a set of link votes and a `Counter`.
fn check_exceptions(
    ir_origins: &BTreeSet<Asn>,
    link_vote_ases: &BTreeSet<Asn>,
    all_votes: &Counter<Asn>,
    rels: &AsRelationships,
) -> Option<Asn> {
    let uphill = |s: Asn, o: Asn| {
        s != o
            && matches!(
                rels.relationship(s, o),
                Some(Relationship::Peer) | Some(Relationship::Provider)
            )
    };
    let vote_guard = |candidate: Asn| {
        let max = all_votes.max_count();
        max == 0 || all_votes.get(&candidate) * 2 >= max
    };
    if link_vote_ases.len() == 1 {
        let s = *link_vote_ases.iter().next().expect("one element");
        if ir_origins.iter().any(|&o| rels.is_customer(s, o)) {
            return Some(s);
        }
    }
    if ir_origins.len() == 1 && link_vote_ases.len() >= 2 {
        let o = *ir_origins.iter().next().expect("one origin");
        if link_vote_ases.iter().all(|&s| uphill(s, o)) && vote_guard(o) {
            return Some(o);
        }
    }
    if ir_origins.len() >= 2 && link_vote_ases.len() == 1 {
        let s = *link_vote_ases.iter().next().expect("one element");
        if ir_origins.iter().all(|&o| uphill(s, o)) && vote_guard(s) {
            return Some(s);
        }
    }
    None
}

/// §6.1.5 with the origin side and the bridges as sets.
fn check_hidden_as(
    ir_origins: &BTreeSet<Asn>,
    selected: Asn,
    vote_origins: &BTreeSet<Asn>,
    rels: &AsRelationships,
) -> Asn {
    if ir_origins
        .iter()
        .any(|&o| o == selected || rels.has_relationship(o, selected))
    {
        return selected;
    }
    let origin_side: BTreeSet<Asn> = (ir_origins.iter().chain(vote_origins.iter()))
        .copied()
        .filter(|&o| o != selected)
        .collect();
    let mut bridges: BTreeSet<Asn> = BTreeSet::new();
    for p in rels.providers_of(selected) {
        if origin_side.iter().any(|&o| rels.is_customer(p, o)) {
            bridges.insert(p);
        }
    }
    let mut it = bridges.into_iter();
    match (it.next(), it.next()) {
        (Some(bridge), None) => bridge,
        _ => selected,
    }
}

mod props {
    use super::*;
    use crate::graph::{IrGraph, Link};
    use crate::refine::{interface, router};
    use crate::Config;
    use as_rel::CustomerCones;
    use bgp::OriginInfo;
    use proptest::prelude::*;

    /// Origin code of an interface: 0 unannounced, 1–8 that AS, 9 an IXP
    /// LAN.
    const IXP: u32 = 9;

    /// One interface: origin code, which of two /24s its address is in,
    /// and its current annotation (0 for none).
    type IfaceSpec = (u32, u32, u32);
    /// One link: destination interface (taken modulo the interface count),
    /// label, origin set, third-party bit.
    type LinkSpec = (usize, u8, Vec<u32>, bool);
    /// One IR: interfaces, links, current router annotation (0 for none).
    type IrSpec = (Vec<IfaceSpec>, Vec<LinkSpec>, u32);
    /// One predecessor record: interface, predecessor IR, that IR's prior
    /// interfaces (all taken modulo their counts).
    type PredSpec = (usize, usize, Vec<usize>);

    /// Cones: AS1 5, AS2, AS4 and AS6 2, the rest 1. AS2 bridges AS1 and
    /// AS3, which have no relationship; AS4 and AS6 are providers of AS5,
    /// and AS4 peers with AS7.
    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        for (p, c) in [(1, 2), (2, 3), (1, 4), (4, 5), (6, 5)] {
            r.add_p2c(Asn(p), Asn(c));
        }
        for (a, b) in [(4, 7), (7, 8)] {
            r.add_p2p(Asn(a), Asn(b));
        }
        r
    }

    fn asn(code: u32) -> Asn {
        if code == 0 {
            Asn::NONE
        } else {
            Asn(code)
        }
    }

    fn origin_info(code: u32, addr: u32) -> OriginInfo {
        let prefix = Some(Prefix::slash24_of(addr));
        match code {
            0 => OriginInfo::UNANNOUNCED,
            IXP => OriginInfo {
                asn: Asn::NONE,
                kind: OriginKind::Ixp,
                prefix,
            },
            a => OriginInfo {
                asn: Asn(a),
                kind: OriginKind::Bgp,
                prefix,
            },
        }
    }

    /// The graph and annotation state the specs describe. IR origins are
    /// derived from the interfaces as phase 1 derives them; each IR's links
    /// are ordered and deduplicated by destination, as phase 1 leaves them.
    fn world(irs: &[IrSpec], preds: &[PredSpec]) -> (IrGraph, AnnotationState) {
        let mut g = IrGraph::default();
        let mut iface_ann = Vec::new();
        for (k, (ifaces, _, _)) in irs.iter().enumerate() {
            let mut members = Vec::new();
            let mut origins = Vec::new();
            for &(code, slash24, ann) in ifaces {
                let i = g.iface_addrs.len() as u32;
                let addr = 0x0A00_0000 | slash24 << 8 | i;
                let o = origin_info(code, addr);
                if o.asn.is_some() && o.kind != OriginKind::Ixp {
                    origins.push(o.asn);
                }
                g.iface_addrs.push(addr);
                g.iface_origin.push(o);
                g.iface_ir.push(IrId(k as u32));
                iface_ann.push(asn(ann));
                members.push(IfIdx(i));
            }
            g.irs.push(Ir {
                id: IrId(k as u32),
                ifaces: members,
                links: Vec::new(),
            });
            g.ir_origins.push_union(|out| out.extend(origins));
        }
        g.ir_dests.close_to(g.irs.len());
        let n = g.iface_addrs.len().max(1);
        for (ir, (_, links, _)) in g.irs.iter_mut().zip(irs) {
            let mut specs: Vec<_> = links.iter().map(|l| (l.0 % n, l)).collect();
            specs.sort_by_key(|&(dst, _)| dst);
            specs.dedup_by_key(|&mut (dst, _)| dst);
            for (dst, (_, label, origins, probed)) in specs {
                ir.links.push(Link {
                    dst: IfIdx(dst as u32),
                    label: [LinkLabel::Nexthop, LinkLabel::Echo, LinkLabel::Multihop]
                        [*label as usize % 3],
                    row: g.link_origins.len() as u32,
                    dst_origin_probed: *probed,
                });
                g.link_origins
                    .push_union(|out| out.extend(origins.iter().map(|&a| Asn(a))));
            }
        }
        let mut by_iface: Vec<BTreeSet<(IrId, IfIdx)>> = vec![BTreeSet::new(); g.iface_addrs.len()];
        if !g.irs.is_empty() {
            for (j, pred, prior) in preds {
                let pred = IrId((pred % g.irs.len()) as u32);
                by_iface[j % n].extend(prior.iter().map(|&p| (pred, IfIdx((p % n) as u32))));
            }
        }
        for pairs in by_iface {
            g.preds.push(&pairs.into_iter().collect::<Vec<_>>());
        }
        g.iface_dests.close_to(g.iface_addrs.len());
        let mut state = AnnotationState::new(&g);
        state.router = irs.iter().map(|&(_, _, r)| asn(r)).collect();
        state.iface = iface_ann;
        (g, state)
    }

    /// The rules every world starts with, and what each must decide.
    struct Scaffold {
        irs: Vec<IrSpec>,
        preds: Vec<PredSpec>,
        /// Rule, IR index, annotation the router election must return.
        routers: Vec<(&'static str, usize, u32)>,
        /// Interface index and what its election must return.
        iface: (usize, u32),
    }

    /// Single-interface sinks first (interface index = IR index), then one
    /// IR per router rule. Every link votes its destination's origin
    /// (Alg. 3 line 1).
    fn scaffold() -> Scaffold {
        // (origin, /24, router annotation) per sink.
        let sinks: [(u32, u32, u32); 19] = [
            (2, 0, 0),
            (2, 0, 0),
            (8, 0, 8),
            (8, 0, 0),
            (7, 0, 7),
            (7, 0, 7),
            (4, 0, 0),
            (4, 0, 0),
            (4, 0, 0),
            (6, 0, 0),
            (3, 0, 0),
            (3, 0, 0),
            (3, 0, 0),
            // One /24, routers annotated AS2, a customer of AS1.
            (1, 1, 2),
            (1, 1, 2),
            (4, 0, 0),
            // AS2's router again, in the other /24.
            (1, 0, 2),
            (1, 0, 0),
            // The interface-election target: its router is its origin.
            (4, 0, 4),
        ];
        let mut irs: Vec<IrSpec> = (sinks.iter())
            .map(|&(o, slash24, router)| (vec![(o, slash24, 0)], Vec::new(), router))
            .collect();
        // (rule, IR interface origins, link destinations, origins added to
        // every link's own, expected annotation).
        type Rule<'a> = (&'a str, &'a [u32], &'a [usize], &'a [u32], u32);
        let rules: [Rule<'_>; 9] = [
            // 2–2 tie: AS8's cone (1) beats AS2's (2), the lower ASN.
            ("tie broken by cone", &[0], &[0, 1, 2, 3], &[], 8),
            // 1–1 tie between equal cones: the lower ASN.
            ("tie broken by ASN", &[0], &[4, 2], &[], 7),
            // One subsequent AS, a customer of the origin.
            ("multihomed customer", &[1], &[0], &[], 2),
            // Every subsequent AS is uphill of the one origin, which has
            // exactly half the leading votes (2 of AS4's 4).
            (
                "single-origin exception",
                &[5, 5],
                &[6, 7, 8, 15, 9],
                &[],
                5,
            ),
            // One subsequent AS, uphill of both origins.
            ("mirror exception", &[5, 7], &[6, 7], &[], 4),
            // AS3 wins and has no relationship with AS1; AS2 bridges them.
            ("hidden-AS bridge", &[1], &[10, 11, 12], &[], 2),
            // Both votes for the origin flip to the routers' AS2.
            ("realloc flip", &[1], &[13, 14], &[], 2),
            // The same, but across two /24s: no flip.
            ("realloc needs one /24", &[1], &[13, 16], &[], 1),
            // The origin's link vote is backed by AS2, yet R is still the
            // origins: the open election, a three-way tie, picks AS7.
            ("backed origin vote", &[1], &[17, 4, 5, 2, 3], &[2], 7),
        ];
        let mut routers = Vec::new();
        for (name, origins, dsts, extra, expect) in rules {
            let ifaces = origins.iter().map(|&o| (o, 0, 0)).collect();
            let links = (dsts.iter())
                .map(|&d| {
                    let origins = std::iter::once(sinks[d].0).chain(extra.iter().copied());
                    (d, 0, origins.collect(), false)
                })
                .collect();
            routers.push((name, irs.len(), expect));
            irs.push((ifaces, links, 0));
        }
        // AS7's routers (sinks 4, 5) each saw one interface before sink 18,
        // AS8's (sink 2) two: a 2–2 tie once the AS7 pairs are merged,
        // which AS7 takes as the only one related to the origin AS4.
        let preds = vec![(18, 4, vec![4]), (18, 5, vec![5]), (18, 2, vec![2, 3])];
        Scaffold {
            irs,
            preds,
            routers,
            iface: (18, 7),
        }
    }

    /// What the router elections of [`compare`] returned and fired: per
    /// IR its annotation, per interface its election's result, and the
    /// firing counts summed over the elections, in [`Firings::NAMES`]
    /// order.
    type Decided = (Vec<Asn>, Vec<Option<Asn>>, [u64; 4]);

    /// Runs every router election in `order`, then every interface
    /// election, in both forms, each form on one context for the whole
    /// run so the scratch form reuses its buffers; returns the first
    /// disagreement, in an annotation or in an election's four firing
    /// counts.
    fn compare(
        graph: &IrGraph,
        state: &AnnotationState,
        cfg: &Config,
        order: &[usize],
    ) -> Result<Decided, String> {
        let rels = rels();
        let cones = CustomerCones::compute(&rels);
        let rec = obs::Recorder::disabled();
        let mut old = SweepCtx::new(graph, cfg, &rels, &cones, &rec);
        let mut new = SweepCtx::new(graph, cfg, &rels, &cones, &rec);
        let mut got = vec![Asn::NONE; graph.irs.len()];
        let mut fired = [0u64; 4];
        for &k in order {
            let ir = &graph.irs[k];
            let (want, have) = (
                annotate_ir(ir, state, &mut old),
                router::annotate_ir(ir, state, &mut new),
            );
            if want != have {
                return Err(format!("IR {k}: set form {want:?}, scratch form {have:?}"));
            }
            if old.fired != new.fired {
                let (want, have) = (old.fired, new.fired);
                return Err(format!("IR {k}: set form {want:?}, scratch form {have:?}"));
            }
            for (sum, n) in fired.iter_mut().zip(new.fired.counts()) {
                *sum += u64::from(n);
            }
            got[k] = have;
        }
        let mut ifaces = Vec::with_capacity(graph.iface_addrs.len());
        for j in 0..graph.iface_addrs.len() {
            let (want, have) = (
                annotate_iface_one(j, state, &mut old),
                interface::annotate_iface_one(j, state, &mut new),
            );
            if want != have {
                return Err(format!(
                    "interface {j}: set form {want:?}, scratch form {have:?}"
                ));
            }
            ifaces.push(have);
        }
        Ok((got, ifaces, fired))
    }

    /// Both forms decide every scaffold rule as the rule says.
    fn check_scaffold(
        sc: &Scaffold,
        routers: &[Asn],
        ifaces: &[Option<Asn>],
    ) -> Result<(), String> {
        for &(rule, k, expect) in &sc.routers {
            if routers[k] != Asn(expect) {
                return Err(format!("{rule}: {:?}, not AS{expect}", routers[k]));
            }
        }
        let (j, expect) = sc.iface;
        if ifaces[j] != Some(Asn(expect)) {
            return Err(format!("interface tie: {:?}, not AS{expect}", ifaces[j]));
        }
        Ok(())
    }

    #[test]
    fn scaffold_rules_fire_in_both_forms() {
        let sc = scaffold();
        let (graph, state) = world(&sc.irs, &sc.preds);
        let cfg = Config::default();
        // The largest election first, so every later one runs in buffers
        // that held a longer one.
        let mut order: Vec<usize> = (0..sc.irs.len()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(graph.irs[k].links.len()));
        let shortest = sc
            .routers
            .iter()
            .map(|&(_, k, _)| graph.irs[k].links.len())
            .min();
        assert!(graph.irs[order[0]].links.len() > shortest.unwrap());
        let (routers, ifaces, _) = compare(&graph, &state, &cfg, &order).unwrap();
        check_scaffold(&sc, &routers, &ifaces).unwrap();
        let rule_irs: Vec<usize> = sc.routers.iter().map(|&(_, k, _)| k).collect();
        let (_, _, fired) = compare(&graph, &state, &cfg, &rule_irs).unwrap();
        // Multihomed, single-origin, mirror, and the flipped realloc votes
        // (then one subsequent AS, a customer of the origin).
        let [_, exception, hidden, realloc] = fired;
        assert_eq!(exception, 4);
        assert_eq!(hidden, 1);
        assert_eq!(realloc, 1);
    }

    fn iface_spec() -> impl Strategy<Value = IfaceSpec> {
        (0u32..=IXP, 0u32..2, 0u32..=8)
    }

    fn link_spec() -> impl Strategy<Value = LinkSpec> {
        (
            any::<usize>(),
            prop_oneof![3 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)],
            proptest::collection::vec(1u32..=8, 0..3),
            any::<bool>(),
        )
    }

    fn ir_spec() -> impl Strategy<Value = IrSpec> {
        (
            proptest::collection::vec(iface_spec(), 1..4),
            proptest::collection::vec(link_spec(), 0..10),
            0u32..=4,
        )
    }

    fn pred_spec() -> impl Strategy<Value = PredSpec> {
        (
            any::<usize>(),
            any::<usize>(),
            proptest::collection::vec(any::<usize>(), 1..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random IRs after the scaffold, elected in descending then in
        /// ascending link count (each buffer reused after a longer and
        /// after a shorter election), under random heuristic switches:
        /// the scratch form returns what the set form returns, fires the
        /// same counters, and the scaffold's rules still decide.
        #[test]
        fn scratch_elections_match_the_set_form(
            random in proptest::collection::vec(ir_spec(), 0..12),
            preds in proptest::collection::vec(pred_spec(), 0..24),
            switches in proptest::collection::vec(prop_oneof![4 => Just(true), 1 => Just(false)], 5),
        ) {
            let sc = scaffold();
            // Random predecessor records target random interfaces only, so
            // the scaffold's interface tie stays as built.
            let fixed = sc.irs.iter().map(|ir| ir.0.len()).sum::<usize>();
            let n = fixed + random.iter().map(|ir| ir.0.len()).sum::<usize>();
            let mut irs = sc.irs.clone();
            irs.extend(random);
            let mut all_preds = sc.preds.clone();
            if n > fixed {
                all_preds.extend(preds.into_iter().map(|(j, ir, prior)| {
                    (fixed + j % (n - fixed), ir, prior)
                }));
            }
            let (graph, state) = world(&irs, &all_preds);
            let cfg = Config {
                enable_third_party: switches[0],
                enable_realloc: switches[1],
                enable_exceptions: switches[2],
                enable_hidden_as: switches[3],
                enable_ixp_heuristic: switches[4],
                ..Config::default()
            };
            let mut order: Vec<usize> = (0..irs.len()).collect();
            order.sort_by_key(|&k| std::cmp::Reverse(graph.irs[k].links.len()));
            let (routers, ifaces, _) =
                compare(&graph, &state, &cfg, &order).map_err(TestCaseError::fail)?;
            order.reverse();
            compare(&graph, &state, &cfg, &order).map_err(TestCaseError::fail)?;
            if switches.iter().all(|&on| on) {
                check_scaffold(&sc, &routers, &ifaces).map_err(TestCaseError::fail)?;
            }
        }
    }
}
