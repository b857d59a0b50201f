//! The map-based forwarding plane the dense tables replace, kept as a test
//! oracle: crossings looked up in `ext_links`/`ixp_ports` behind
//! `ixp_for_pair`, a linear scan of the reallocated /24s, firewall classes
//! read from `graph.nodes`, response bits and addresses read from
//! `RouterInfo`/`InterfaceInfo`, and an owned AS path per probe. Random
//! `(vp, dst)` pairs must forward to the same hops and outcome and reply
//! from the same addresses on both, before and after random
//! `LinkDown`/`LinkUp`/`RouterAdd` sequences.

use crate::routers::{Firewall, RouterTopology};
use crate::{
    ForwardBuf, ForwardHop, ForwardOutcome, GeneratorConfig, IfaceId, Internet, RouterId,
    TopologyEvent,
};
use net_types::Asn;
use proptest::prelude::*;

/// The crossing for `here → next`: `(egress router, ingress router,
/// ingress interface)`, by the fabric test first and the private links
/// second.
fn cross(net: &Internet, here: Asn, next: Asn, dst: u32) -> (RouterId, RouterId, IfaceId) {
    let topo = &net.topology;
    if let Some(ixp) = net.graph.ixp_for_pair(here, next) {
        let &(r_e, _) = topo.ixp_ports.get(&(ixp, here)).expect("member has a port");
        let &(r_i, if_i) = topo.ixp_ports.get(&(ixp, next)).expect("member has a port");
        return (r_e, r_i, if_i);
    }
    let key = (here.min(next), here.max(next));
    let links = &topo.ext_links[&key];
    let link = &links[dst as usize % links.len()];
    if key.0 == here {
        (link.router_a, link.router_b, link.iface_b)
    } else {
        (link.router_b, link.router_a, link.iface_a)
    }
}

fn extend_internal(
    topo: &RouterTopology,
    hops: &mut Vec<ForwardHop>,
    from: RouterId,
    to: RouterId,
) {
    let mut steps: Vec<ForwardHop> = topo
        .internal_path_rev(from, to)
        .expect("connected")
        .map(|(router, ingress)| ForwardHop { router, ingress })
        .collect();
    steps.reverse();
    hops.extend(steps);
}

/// `forward_path` as it was computed before destination plans.
fn forward(net: &Internet, src: RouterId, dst: u32) -> (Vec<ForwardHop>, ForwardOutcome) {
    let topo = &net.topology;
    let no_route = (Vec::new(), ForwardOutcome::NoRoute);
    let src_as = topo.owner(src);
    let target_iface = topo.iface_by_addr(dst).map(|i| i.id);
    let realloc = net
        .addressing
        .reallocs
        .iter()
        .find(|r| r.prefix.contains(dst));
    let (as_path, target, outcome) = if let Some(r) = realloc {
        let Some(mut path) = net.routing.as_path(src_as, r.provider) else {
            return no_route;
        };
        if *path.last().expect("non-empty") != r.customer {
            path.push(r.customer);
        }
        match target_iface {
            Some(i) if topo.owner(topo.iface(i).router) == r.customer => {
                (path, topo.iface(i).router, ForwardOutcome::ReachedIface(i))
            }
            _ => (
                path,
                net.router_for_addr(r.customer, dst),
                ForwardOutcome::ReachedHostSpace { asn: r.customer },
            ),
        }
    } else if let Some(i) = target_iface {
        let router = topo.iface(i).router;
        let Some(path) = net.routing.as_path(src_as, topo.owner(router)) else {
            return no_route;
        };
        (path, router, ForwardOutcome::ReachedIface(i))
    } else {
        let Some(origin) = net.bgp_origin(dst) else {
            return no_route;
        };
        let Some(path) = net.routing.as_path(src_as, origin) else {
            return no_route;
        };
        let router = net.router_for_addr(origin, dst);
        (
            path,
            router,
            ForwardOutcome::ReachedHostSpace { asn: origin },
        )
    };
    let mut hops = vec![ForwardHop {
        router: src,
        ingress: None,
    }];
    let mut cur = src;
    for win in as_path.windows(2) {
        let (egress, ingress_router, ingress_iface) = cross(net, win[0], win[1], dst);
        extend_internal(topo, &mut hops, cur, egress);
        hops.push(ForwardHop {
            router: ingress_router,
            ingress: Some(ingress_iface),
        });
        cur = ingress_router;
    }
    extend_internal(topo, &mut hops, cur, target);
    (hops, outcome)
}

/// `reply_source` as it was computed before the probe view and the
/// crossing table.
fn reply_source(net: &Internet, router: RouterId, ingress: Option<IfaceId>, vp_as: Asn) -> u32 {
    let topo = &net.topology;
    let info = topo.router(router);
    let rid = topo.iface(info.ifaces[0]).addr;
    if info.egress_reply {
        let owner = info.owner;
        if owner == vp_as {
            return rid;
        }
        if let Some(next) = net.routing.next_hop(owner, vp_as) {
            if let Some(ixp) = net.graph.ixp_for_pair(owner, next) {
                if let Some(&(r, i)) = topo.ixp_ports.get(&(ixp, owner)) {
                    if r == router {
                        return topo.iface(i).addr;
                    }
                }
            }
            let key = (owner.min(next), owner.max(next));
            for l in topo.ext_links.get(&key).into_iter().flatten() {
                if l.router_a == router {
                    return topo.iface(l.iface_a).addr;
                }
                if l.router_b == router {
                    return topo.iface(l.iface_b).addr;
                }
            }
            return rid;
        }
    }
    ingress.map_or(rid, |i| topo.iface(i).addr)
}

/// The firewall class of `asn` from `graph.nodes`.
fn firewall(net: &Internet, asn: Asn) -> Firewall {
    match net.graph.node(asn) {
        Some(n) if n.firewalled && n.firewall_border_responds => Firewall::BorderResponds,
        Some(n) if n.firewalled => Firewall::BorderDrops,
        _ => Firewall::Open,
    }
}

/// What the compared pairs exercised.
#[derive(Debug, Default)]
struct Coverage {
    realloc_dsts: usize,
    iface_hits: usize,
    ixp_crossings: usize,
    egress_reply_hops: usize,
    border_responds_hops: usize,
    border_drops_hops: usize,
    no_route: usize,
}

/// Compares every pair on both planes, walking the dense one through one
/// reused buffer, and checks the probe view, interface column and
/// firewall classes against the maps they mirror.
fn check(
    net: &Internet,
    pairs: &[(RouterId, u32)],
    buf: &mut ForwardBuf,
    cov: &mut Coverage,
) -> Result<(), TestCaseError> {
    let topo = &net.topology;
    for r in &topo.routers {
        let view = topo.probe_view(r.id);
        prop_assert_eq!(view.owner, r.owner);
        prop_assert_eq!(view.rid_addr, topo.iface(r.ifaces[0]).addr);
        prop_assert_eq!(
            (view.silent, view.egress_reply, view.echo_offpath),
            (r.silent, r.egress_reply, r.echo_offpath)
        );
        prop_assert_eq!(topo.owner_firewall(view), firewall(net, r.owner));
    }
    for i in &topo.ifaces {
        prop_assert_eq!(topo.iface_addr(i.id), i.addr);
    }
    for &asn in net.graph.nodes.keys() {
        prop_assert_eq!(topo.firewall(asn), firewall(net, asn));
        prop_assert_eq!(net.is_firewalled(asn), firewall(net, asn) != Firewall::Open);
    }
    for &(vp, dst) in pairs {
        let (hops, outcome) = forward(net, vp, dst);
        let owned = net.forward_path(vp, dst);
        prop_assert_eq!(&owned.hops, &hops, "vp r{} → {:#010x}", vp.0, dst);
        prop_assert_eq!(owned.outcome, outcome, "vp r{} → {:#010x}", vp.0, dst);
        let planned = net.forward(vp, net.plan(dst).as_ref(), buf);
        prop_assert_eq!(
            &buf.hops,
            &hops,
            "reused buffer, vp r{} → {:#010x}",
            vp.0,
            dst
        );
        prop_assert_eq!(planned, outcome);

        let vp_as = topo.owner(vp);
        for h in &hops {
            let want = reply_source(net, h.router, h.ingress, vp_as);
            prop_assert_eq!(net.reply_source(h.router, h.ingress, vp_as), want);
            let info = topo.router(h.router);
            cov.egress_reply_hops += usize::from(info.egress_reply);
            match firewall(net, info.owner) {
                Firewall::BorderResponds => cov.border_responds_hops += 1,
                Firewall::BorderDrops => cov.border_drops_hops += 1,
                Firewall::Open => {}
            }
        }
        for w in hops.windows(2) {
            let (a, b) = (topo.owner(w[0].router), topo.owner(w[1].router));
            cov.ixp_crossings += usize::from(a != b && net.graph.ixp_for_pair(a, b).is_some());
        }
        let realloc = net
            .addressing
            .reallocs
            .iter()
            .any(|r| r.prefix.contains(dst));
        cov.realloc_dsts += usize::from(realloc);
        cov.iface_hits += usize::from(matches!(outcome, ForwardOutcome::ReachedIface(_)));
        cov.no_route += usize::from(outcome == ForwardOutcome::NoRoute);
    }
    Ok(())
}

/// A config with every pathology the forwarding plane branches on turned
/// up: reallocated /24s, firewalled stubs of both shapes, egress-replying
/// routers and IXP fabrics (generated at every scale).
fn config(seed: u64, default_scale: bool) -> GeneratorConfig {
    let base = if default_scale {
        GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        }
    } else {
        GeneratorConfig::tiny(seed)
    };
    GeneratorConfig {
        realloc_prob: 1.0,
        stub_multihome_prob: 1.0,
        stub_firewall_prob: 0.5,
        router_egress_reply_prob: 0.3,
        ..base
    }
}

/// Destinations of every kind the plan distinguishes: host space inside
/// and outside every realloc, the realloc links' interface addresses,
/// interface addresses (router-id, internal, interdomain, IXP LAN), plain
/// host space, dark space and unrouted space, each picked by `pick`.
fn destination(net: &Internet, kind: u8, pick: usize) -> u32 {
    let topo = &net.topology;
    let a = &net.addressing;
    match kind % 6 {
        0 if !a.reallocs.is_empty() => {
            let r = a.reallocs[pick % a.reallocs.len()];
            r.prefix.addr() + (pick as u32 % 256)
        }
        1 => topo.ifaces[pick % topo.ifaces.len()].addr,
        2 => {
            let asns: Vec<Asn> = net.graph.nodes.keys().copied().collect();
            a.host_region(asns[pick % asns.len()]).addr() + (pick as u32 % 200) + 1
        }
        3 if !a.dark.is_empty() => a.dark[pick % a.dark.len()].prefix.addr() + (pick as u32 % 256),
        4 => 0x0a00_0000 + pick as u32, // 10/8: never announced
        _ => topo.ifaces[(pick * 7) % topo.ifaces.len()].addr,
    }
}

/// Every router of `focus`'s AS toward every address of that AS and
/// toward its host space, plus `extra`.
fn pairs_around(
    net: &Internet,
    focus: RouterId,
    extra: &[(RouterId, u32)],
) -> Vec<(RouterId, u32)> {
    let topo = &net.topology;
    let asn = topo.owner(focus);
    let members = &topo.as_routers[&asn];
    let mut dsts: Vec<u32> = members
        .iter()
        .flat_map(|&m| topo.router(m).ifaces.iter().map(|&i| topo.iface(i).addr))
        .collect();
    dsts.extend((1..6).map(|h| net.addressing.host_region(asn).addr() + h));
    let far = topo.routers[(focus.0 as usize * 31 + 7) % topo.router_count()].id;
    let mut pairs: Vec<(RouterId, u32)> = members
        .iter()
        .chain([&far])
        .flat_map(|&vp| dsts.iter().map(move |&d| (vp, d)))
        .collect();
    pairs.extend_from_slice(extra);
    pairs
}

/// A fixed spread on tiny and default topologies reaches every branch the
/// dense plane takes.
#[test]
fn the_oracle_comparison_covers_every_forwarding_branch() {
    let mut cov = Coverage::default();
    let mut buf = ForwardBuf::default();
    for (seed, default_scale) in [(1, false), (2, false), (3, false), (4, true)] {
        let net = Internet::generate(config(seed, default_scale));
        let topo = &net.topology;
        let vps: Vec<RouterId> = topo.routers.iter().step_by(37).map(|r| r.id).collect();
        let mut pairs = Vec::new();
        for (k, &vp) in vps.iter().enumerate() {
            for kind in 0..6u8 {
                for pick in 0..12 {
                    pairs.push((vp, destination(&net, kind, k * 131 + pick * 17)));
                }
            }
        }
        check(&net, &pairs, &mut buf, &mut cov).unwrap();
    }
    assert!(cov.realloc_dsts > 0, "{cov:?}");
    assert!(cov.iface_hits > 0, "{cov:?}");
    assert!(cov.ixp_crossings > 0, "{cov:?}");
    assert!(cov.egress_reply_hops > 0, "{cov:?}");
    assert!(cov.border_responds_hops > 0, "{cov:?}");
    assert!(cov.border_drops_hops > 0, "{cov:?}");
    assert!(cov.no_route > 0, "{cov:?}");
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Down(usize),
    Up(usize),
    Add(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10_000).prop_map(Op::Down),
        (0usize..10_000).prop_map(Op::Up),
        (0usize..10_000).prop_map(Op::Add),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_forwarding_matches_the_map_oracle_under_churn(
        seed in 0u64..1_000,
        scale in 0u8..6,
        picks in proptest::collection::vec((0usize..100_000, 0u8..6, 0usize..100_000), 1..48),
        ops in proptest::collection::vec(op(), 0..8),
    ) {
        // One case in six on the default scale.
        let mut net = Internet::generate(config(seed, scale == 0));
        let mut buf = ForwardBuf::default();
        let mut cov = Coverage::default();
        let random = |net: &Internet| -> Vec<(RouterId, u32)> {
            picks
                .iter()
                .map(|&(v, kind, pick)| {
                    let vp = net.topology.routers[v % net.topology.router_count()].id;
                    (vp, destination(net, kind, pick))
                })
                .collect()
        };
        check(&net, &random(&net), &mut buf, &mut cov)?;
        let mut failed: Vec<(RouterId, RouterId)> = Vec::new();
        for op in ops {
            let links = net.internal_links();
            let ev = match op {
                Op::Up(k) if !failed.is_empty() => {
                    let (a, b) = failed.remove(k % failed.len());
                    TopologyEvent::LinkUp { asn: net.topology.owner(a), a, b }
                }
                Op::Down(k) | Op::Up(k) => {
                    let (asn, a, b) = links[k % links.len()];
                    TopologyEvent::LinkDown { asn, a, b }
                }
                Op::Add(k) => {
                    let attach = net.topology.routers[k % net.topology.router_count()].id;
                    TopologyEvent::RouterAdd { asn: net.topology.owner(attach), attach }
                }
            };
            let focus = match ev {
                TopologyEvent::LinkDown { a, .. } | TopologyEvent::LinkUp { a, .. } => a,
                TopologyEvent::RouterAdd { attach, .. } => attach,
                TopologyEvent::Reannounce { .. } => unreachable!("not generated"),
            };
            let out = net.apply_event(&ev);
            if let (true, TopologyEvent::LinkDown { a, b, .. }) = (out.applied, ev) {
                failed.push((a, b));
            }
            check(&net, &pairs_around(&net, focus, &random(&net)), &mut buf, &mut cov)?;
        }
    }
}
