//! Stale-cache guard for the forwarding plane.
//!
//! `RouterTopology` caches one internal BFS tree per source router and
//! resets the trees of an AS whenever a churn event edits that AS. The
//! churn driver's per-epoch proof cannot catch a missed reset: its "full
//! recompute" probes the same mutated `Internet`, caches included. So here,
//! after every event of a random `LinkDown`/`LinkUp`/`RouterAdd` sequence,
//! `forward_path` must equal the same path re-expanded with a fresh,
//! uncached BFS.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use topo_gen::{ForwardHop, GeneratorConfig, IfaceId, Internet, RouterId, TopologyEvent};

/// Shortest internal path `from → to` by a BFS that visits neighbours in
/// ascending id order, recomputed on every call.
fn bfs_path(net: &Internet, from: RouterId, to: RouterId) -> Vec<RouterId> {
    let mut parent: BTreeMap<RouterId, RouterId> = BTreeMap::from([(from, from)]);
    let mut queue = VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        let mut neighbours = net.topology.internal_adj[cur.0 as usize].clone();
        neighbours.sort_unstable();
        for n in neighbours {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(n) {
                e.insert(cur);
                queue.push_back(n);
            }
        }
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = *parent.get(&cur).expect("internal topology is connected");
        path.push(cur);
    }
    path.reverse();
    path
}

/// The interface on `router` linked to `prev`, by linear scan.
fn ingress(net: &Internet, router: RouterId, prev: RouterId) -> Option<IfaceId> {
    let topo = &net.topology;
    topo.router(router).ifaces.iter().copied().find(|&i| {
        topo.iface(i)
            .neighbor
            .is_some_and(|n| topo.iface(n).router == prev)
    })
}

/// `hops` with every maximal same-AS run re-expanded between its endpoints
/// by [`bfs_path`]. A run's endpoints come from AS-level routing and the
/// boundary crossing, never from the internal-path cache, so any stale
/// cached row shows up as a difference.
fn oracle_hops(net: &Internet, hops: &[ForwardHop]) -> Vec<ForwardHop> {
    let owner = |h: &ForwardHop| net.topology.owner(h.router);
    let mut out = Vec::with_capacity(hops.len());
    let mut i = 0;
    while i < hops.len() {
        let mut j = i;
        while j + 1 < hops.len() && owner(&hops[j + 1]) == owner(&hops[i]) {
            j += 1;
        }
        out.push(hops[i]);
        let path = bfs_path(net, hops[i].router, hops[j].router);
        for w in path.windows(2) {
            out.push(ForwardHop {
                router: w[1],
                ingress: ingress(net, w[1], w[0]),
            });
        }
        i = j + 1;
    }
    out
}

/// The probed pairs: a fixed spread of VPs and destinations, plus every
/// router of `focus`'s AS as a VP toward every address of that AS, so every
/// cached row of the AS is in use.
fn sample(net: &Internet, focus: Option<RouterId>) -> Vec<(RouterId, u32)> {
    let topo = &net.topology;
    let mut vps: Vec<RouterId> = topo.routers.iter().step_by(23).map(|r| r.id).collect();
    let mut dsts: Vec<u32> = topo.ifaces.iter().step_by(29).map(|i| i.addr).collect();
    dsts.extend(
        net.graph
            .nodes
            .keys()
            .step_by(6)
            .map(|&a| net.addressing.host_region(a).addr() + 17),
    );
    if let Some(r) = focus {
        let asn = topo.owner(r);
        for &m in &topo.as_routers[&asn] {
            vps.push(m);
            dsts.extend(topo.router(m).ifaces.iter().map(|&i| topo.iface(i).addr));
        }
        dsts.extend((1..12).map(|h| net.addressing.host_region(asn).addr() + h));
    }
    vps.iter()
        .flat_map(|&vp| dsts.iter().map(move |&d| (vp, d)))
        .collect()
}

/// Forwards every sampled pair and compares it with the uncached oracle.
fn check(net: &Internet, focus: Option<RouterId>) -> Result<(), TestCaseError> {
    for (vp, dst) in sample(net, focus) {
        let fwd = net.forward_path(vp, dst);
        prop_assert_eq!(
            &fwd.hops,
            &oracle_hops(net, &fwd.hops),
            "vp r{} → {:#010x}",
            vp.0,
            dst
        );
    }
    Ok(())
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_path_matches_uncached_bfs_under_churn(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op(), 1..12),
    ) {
        let mut net = Internet::generate(GeneratorConfig::tiny(seed));
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
            // Fill every cached row of the AS, mutate it, then probe again.
            check(&net, Some(focus))?;
            let out = net.apply_event(&ev);
            if let (true, TopologyEvent::LinkDown { a, b, .. }) = (out.applied, ev) {
                failed.push((a, b));
            }
            check(&net, Some(focus))?;
        }
    }
}
