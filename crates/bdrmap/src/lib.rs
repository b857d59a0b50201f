//! bdrmap baseline (Luckie et al., IMC 2016) — inference component.
//!
//! bdrmap maps the interdomain borders of a *single* network hosting the
//! vantage point. Its data-collection component (reactive probing from the
//! VP) is replaced by the workspace's traceroute simulator; this crate
//! reimplements the inference component in condensed form:
//!
//! 1. Identify the VP network's **internal** routers: every router that
//!    appears *before* an interface announced by the VP network in some
//!    traceroute (§2 of the bdrmapIT paper, describing bdrmap).
//! 2. Classify the routers at and beyond the border, using bdrmap's core
//!    conventions: interdomain links are numbered from the provider's
//!    space, so a VP-addressed router past the last VP hop usually belongs
//!    to the neighbor; AS relationships constrain which neighbor; silent
//!    edge networks are attributed through the destinations probed.
//!
//! bdrmap only annotates the first AS boundary — the documented limitation
//! (bdrmapIT's Fig. 15 regression test exists to show the generalized tool
//! does not regress on this specialty).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use as_rel::{AsRelationships, CustomerCones};
use bdrmapit_core::{Config as CoreConfig, IrGraph};
use bgp::IpToAs;
use net_types::{Asn, Counter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use traceroute::Corpus;

/// One inferred border link: a router operated by `owner` attaches to the
/// VP network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BorderLink {
    /// An interface address on the far router.
    pub addr: u32,
    /// The inferred operator of the far router.
    pub owner: Asn,
}

/// bdrmap's output: ownership for routers in and around the VP network.
#[derive(Clone, Debug)]
pub struct BdrmapResult {
    /// The VP network.
    pub vp_as: Asn,
    /// Inferred owner per observed interface address (only addresses within
    /// bdrmap's first-boundary scope are present).
    pub owner: BTreeMap<u32, Asn>,
    /// The inferred interdomain links of the VP network.
    pub links: Vec<BorderLink>,
}

/// Runs bdrmap inference over a single-VP corpus.
///
/// `vp_as` may be supplied explicitly; otherwise it is inferred from the
/// majority origin of the probes' source addresses.
pub fn run(
    traces: &Corpus,
    aliases: &alias::AliasSets,
    ip2as: &IpToAs,
    rels: &AsRelationships,
    vp_as: Option<Asn>,
) -> BdrmapResult {
    let cones = CustomerCones::compute(rels);
    let vp_as = vp_as.unwrap_or_else(|| infer_vp_as(traces, ip2as));
    let graph = IrGraph::build(traces, aliases, ip2as, &CoreConfig::default(), rels, &cones);

    // ---- step 1: internal routers ----
    // A router is internal when, in some trace, it appears strictly before
    // a hop whose address the VP network announces.
    let mut internal: BTreeSet<bdrmapit_core::IrId> = BTreeSet::new();
    for t in traces {
        let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
        let last_vp = hops
            .iter()
            .rposition(|&(_, h)| ip2as.origin(h.addr) == vp_as);
        let Some(last_vp) = last_vp else { continue };
        for &(_, h) in &hops[..last_vp] {
            if let Some(ir) = graph.ir_of_addr(h.addr) {
                internal.insert(ir);
            }
        }
    }

    // ---- step 2: scope = internal ∪ their successors ----
    let mut scope: BTreeSet<bdrmapit_core::IrId> = internal.clone();
    for &ir in &internal {
        for link in &graph.irs[ir.0 as usize].links {
            scope.insert(graph.iface_ir[link.dst.0 as usize]);
        }
    }
    // Routers holding VP-announced addresses are always in scope, and so
    // are their immediate successors ("routers immediately subsequent to
    // the network boundary", §2).
    let mut vp_addressed: BTreeSet<bdrmapit_core::IrId> = BTreeSet::new();
    for (i, origin) in graph.iface_origin.iter().enumerate() {
        if origin.asn == vp_as {
            vp_addressed.insert(graph.iface_ir[i]);
        }
    }
    for &ir in &vp_addressed {
        scope.insert(ir);
        for link in &graph.irs[ir.0 as usize].links {
            scope.insert(graph.iface_ir[link.dst.0 as usize]);
        }
    }

    // ---- step 3: ownership ----
    let mut owner_by_ir: BTreeMap<bdrmapit_core::IrId, Asn> = BTreeMap::new();
    for &ir_id in &scope {
        let ir = &graph.irs[ir_id.0 as usize];
        let asn = if internal.contains(&ir_id) {
            vp_as
        } else {
            classify_boundary(ir, &graph, ip2as, rels, &cones, vp_as)
        };
        if asn.is_some() {
            owner_by_ir.insert(ir_id, asn);
        }
    }

    // ---- outputs ----
    let mut owner: BTreeMap<u32, Asn> = BTreeMap::new();
    for (&ir_id, &asn) in &owner_by_ir {
        for &ifidx in &graph.irs[ir_id.0 as usize].ifaces {
            owner.insert(graph.iface_addrs[ifidx.0 as usize], asn);
        }
    }
    let mut links: BTreeSet<BorderLink> = BTreeSet::new();
    for (&ir_id, &asn) in &owner_by_ir {
        if asn == vp_as {
            // Links from VP routers to foreign-owned successors.
            for link in &graph.irs[ir_id.0 as usize].links {
                let succ_ir = graph.iface_ir[link.dst.0 as usize];
                if let Some(&far) = owner_by_ir.get(&succ_ir) {
                    if far != vp_as {
                        links.insert(BorderLink {
                            addr: graph.iface_addrs[link.dst.0 as usize],
                            owner: far,
                        });
                    }
                }
            }
        } else {
            // A foreign-owned router holding VP-space interfaces is itself
            // the far end of a border link.
            for &ifidx in &graph.irs[ir_id.0 as usize].ifaces {
                if graph.iface_origin[ifidx.0 as usize].asn == vp_as {
                    links.insert(BorderLink {
                        addr: graph.iface_addrs[ifidx.0 as usize],
                        owner: asn,
                    });
                }
            }
        }
    }

    BdrmapResult {
        vp_as,
        owner,
        links: links.into_iter().collect(),
    }
}

/// Majority origin AS of the probe source addresses.
pub fn infer_vp_as(traces: &Corpus, ip2as: &IpToAs) -> Asn {
    let mut votes: Counter<Asn> = Counter::new();
    for t in traces {
        let o = ip2as.origin(t.src);
        if o.is_some() {
            votes.add(o);
        }
    }
    votes.max_keys().into_iter().next().unwrap_or(Asn::NONE)
}

/// Boundary ownership for a non-internal router in scope.
fn classify_boundary(
    ir: &bdrmapit_core::Ir,
    graph: &IrGraph,
    _ip2as: &IpToAs,
    rels: &AsRelationships,
    cones: &CustomerCones,
    vp_as: Asn,
) -> Asn {
    let origins = &graph.ir_origins[ir.id.0 as usize];
    let foreign_origins: BTreeSet<Asn> = origins.iter().copied().filter(|&o| o != vp_as).collect();
    let subsequent: BTreeSet<Asn> = ir
        .links
        .iter()
        .map(|l| graph.iface_origin[l.dst.0 as usize].asn)
        .filter(|a| a.is_some() && *a != vp_as)
        .collect();

    if origins.contains(&vp_as) && foreign_origins.is_empty() {
        // All interfaces in VP space. Past the border, the industry
        // convention (provider addresses the link) means a customer border
        // router; the single subsequent AS with a relationship to the VP
        // identifies it.
        let related: Vec<Asn> = subsequent
            .iter()
            .copied()
            .filter(|&s| rels.has_relationship(s, vp_as))
            .collect();
        if related.len() == 1 {
            return related[0];
        }
        if subsequent.is_empty() {
            // Silent edge: attribute through the probed destinations.
            let related_dests: Vec<Asn> = graph.ir_dests[ir.id.0 as usize]
                .iter()
                .copied()
                .filter(|&d| d != vp_as && rels.has_relationship(d, vp_as))
                .collect();
            if let Some(d) = cones.smallest_cone(related_dests) {
                return d;
            }
            // No foreign evidence at all: a VP-internal leaf.
            return vp_as;
        }
        // Several foreign neighbors behind one router: the VP's own border
        // aggregation router.
        return vp_as;
    }

    // Foreign-addressed interfaces present: vote among them, preferring
    // ASes with a relationship to the VP (bdrmap reasons with relationships
    // when IP paths disagree with BGP policy).
    let mut votes: Counter<Asn> = Counter::new();
    for &ifidx in &ir.ifaces {
        let o = graph.iface_origin[ifidx.0 as usize].asn;
        if o.is_some() && o != vp_as {
            votes.add(o);
        }
    }
    let related: Vec<Asn> = votes
        .max_keys()
        .into_iter()
        .filter(|&a| rels.has_relationship(a, vp_as))
        .collect();
    if let Some(a) = cones.smallest_cone(related) {
        return a;
    }
    cones.smallest_cone(votes.max_keys()).unwrap_or(Asn::NONE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traceroute::Trace;

    fn corpus(traces: &[Trace]) -> Corpus {
        traces.iter().cloned().collect()
    }
    use net_types::Prefix;
    use traceroute::{Hop, ReplyType, StopReason};

    fn tr(src: u32, dst: u32, hops: &[u32]) -> Trace {
        Trace {
            monitor: "vp".into(),
            src,
            dst,
            hops: hops
                .iter()
                .map(|&a| {
                    Some(Hop {
                        addr: a,
                        reply: ReplyType::TimeExceeded,
                    })
                })
                .collect(),
            stop: StopReason::GapLimit,
        }
    }

    fn a(s: &str) -> u32 {
        net_types::parse_ipv4(s).unwrap()
    }

    fn oracle() -> IpToAs {
        IpToAs::from_pairs([
            ("10.1.0.0/16".parse::<Prefix>().unwrap(), Asn(1)),
            ("10.2.0.0/16".parse::<Prefix>().unwrap(), Asn(2)),
            ("10.3.0.0/16".parse::<Prefix>().unwrap(), Asn(3)),
        ])
    }

    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(1), Asn(2));
        r.add_p2c(Asn(1), Asn(3));
        r
    }

    #[test]
    fn vp_as_inferred_from_sources() {
        let traces = [tr(a("10.1.0.1"), a("10.2.0.9"), &[a("10.1.0.2")])];
        assert_eq!(infer_vp_as(&corpus(&traces), &oracle()), Asn(1));
    }

    #[test]
    fn internal_routers_owned_by_vp() {
        // 10.1.0.2 appears before another VP-space hop → internal.
        let traces = [tr(
            a("10.1.0.1"),
            a("10.2.0.9"),
            &[a("10.1.0.2"), a("10.1.0.3"), a("10.2.0.1")],
        )];
        let res = run(
            &corpus(&traces),
            &alias::AliasSets::empty(),
            &oracle(),
            &rels(),
            None,
        );
        assert_eq!(res.vp_as, Asn(1));
        assert_eq!(res.owner.get(&a("10.1.0.2")), Some(&Asn(1)));
    }

    #[test]
    fn customer_border_router_in_vp_space() {
        // Convention: the VP (provider) numbers the link; 10.1.0.3 is on
        // AS2's border router, revealed by its AS2 successor.
        let traces = [tr(
            a("10.1.0.1"),
            a("10.2.0.9"),
            &[a("10.1.0.2"), a("10.1.0.3"), a("10.2.0.1"), a("10.2.0.2")],
        )];
        let res = run(
            &corpus(&traces),
            &alias::AliasSets::empty(),
            &oracle(),
            &rels(),
            None,
        );
        assert_eq!(res.owner.get(&a("10.1.0.3")), Some(&Asn(2)));
        assert!(res
            .links
            .iter()
            .any(|l| l.owner == Asn(2) && l.addr == a("10.1.0.3")));
    }

    #[test]
    fn silent_edge_attributed_by_destination() {
        // Trace toward AS3 dies right after a VP-space router with no
        // successors: the dest heuristic names AS3.
        let traces = [
            tr(
                a("10.1.0.1"),
                a("10.3.0.9"),
                &[a("10.1.0.2"), a("10.1.0.7")],
            ),
            // Keep 10.1.0.2 internal via another trace.
            tr(
                a("10.1.0.1"),
                a("10.2.0.9"),
                &[a("10.1.0.2"), a("10.1.0.3"), a("10.2.0.1")],
            ),
        ];
        let res = run(
            &corpus(&traces),
            &alias::AliasSets::empty(),
            &oracle(),
            &rels(),
            None,
        );
        assert_eq!(res.owner.get(&a("10.1.0.7")), Some(&Asn(3)));
    }

    #[test]
    fn foreign_addressed_router_votes() {
        let traces = [tr(
            a("10.1.0.1"),
            a("10.2.0.9"),
            &[a("10.1.0.2"), a("10.1.0.3"), a("10.2.0.1"), a("10.2.0.2")],
        )];
        let res = run(
            &corpus(&traces),
            &alias::AliasSets::empty(),
            &oracle(),
            &rels(),
            None,
        );
        // 10.2.0.1's router: foreign origin AS2 related to VP → AS2.
        assert_eq!(res.owner.get(&a("10.2.0.1")), Some(&Asn(2)));
    }

    #[test]
    fn scope_is_first_boundary_only() {
        // AS3 appears two AS hops away via AS2 — bdrmap does not annotate
        // routers beyond its first boundary unless they hold VP addresses
        // or directly follow an internal router.
        let traces = [tr(
            a("10.1.0.1"),
            a("10.3.0.9"),
            &[
                a("10.1.0.2"),
                a("10.1.0.3"),
                a("10.2.0.1"),
                a("10.2.0.2"),
                a("10.3.0.1"),
            ],
        )];
        let res = run(
            &corpus(&traces),
            &alias::AliasSets::empty(),
            &oracle(),
            &rels(),
            None,
        );
        assert!(
            !res.owner.contains_key(&a("10.3.0.1")),
            "bdrmap must not reach past the first boundary"
        );
    }
}
