//! The assembled synthetic Internet.

use crate::addressing::Addressing;
use crate::asgraph::AsGraph;
use crate::routers::{Firewall, RouterProbe, RouterTopology};
use crate::routing::Routing;
use crate::{GeneratorConfig, IfaceId, RouterId, Tier, TrueLink};
use bgp::{Announcement, Rib};
use net_types::{Asn, PrefixTrie};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One hop of a forwarded probe: the router it traversed and the interface
/// it arrived on (`None` for the first hop, where the probe originates
/// inside the AS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardHop {
    /// Traversed router.
    pub router: RouterId,
    /// Ingress interface.
    pub ingress: Option<IfaceId>,
}

/// Why a forwarded probe stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The destination address is a real interface; the final hop's router
    /// carries it.
    ReachedIface(IfaceId),
    /// The probe reached the destination AS; whether a host answers at the
    /// probed address is the simulator's call.
    ReachedHostSpace {
        /// The AS whose space the address belongs to.
        asn: Asn,
    },
    /// No BGP route toward the address.
    NoRoute,
}

/// The destination-only facts of a probe, shared by every source: made
/// only by [`Internet::plan`], read only by [`Internet::forward`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DestPlan {
    /// The probed address.
    dst: u32,
    /// The AS whose route the probe follows.
    route_to: Asn,
    /// A reallocated /24's customer, which the provider `route_to` hands
    /// the probe off to.
    hand_off: Option<Asn>,
    /// The router the probe terminates at.
    target: RouterId,
    /// Why the probe stops there (never [`ForwardOutcome::NoRoute`]).
    outcome: ForwardOutcome,
}

/// Caller-owned buffers of a forward walk, reused from probe to probe.
#[derive(Clone, Debug, Default)]
pub struct ForwardBuf {
    /// The last walk's routers, in order, starting at the source router.
    pub hops: Vec<ForwardHop>,
    /// The last walk's AS path.
    as_path: Vec<Asn>,
}

/// A fully forwarded probe path.
#[derive(Clone, Debug)]
pub struct ForwardPath {
    /// Routers traversed, in order, starting at the source router.
    pub hops: Vec<ForwardHop>,
    /// Terminal condition.
    pub outcome: ForwardOutcome,
}

/// The assembled synthetic Internet: AS graph, addressing, router topology,
/// and routing, with forwarding-plane expansion and collector-RIB synthesis.
#[derive(Debug)]
pub struct Internet {
    /// Generator parameters.
    pub cfg: GeneratorConfig,
    /// The AS-level graph.
    pub graph: AsGraph,
    /// The addressing plan.
    pub addressing: Addressing,
    /// The router-level topology.
    pub topology: RouterTopology,
    /// The routing oracle.
    pub routing: Routing,
    announced: PrefixTrie<Asn>,
}

impl Internet {
    /// Generates the whole Internet from a config. Deterministic.
    pub fn generate(cfg: GeneratorConfig) -> Internet {
        Internet::generate_with_obs(cfg, &obs::Recorder::disabled())
    }

    /// [`Internet::generate`] under an observability span: records the
    /// `topo.generate` phase and the topology size counters. The generated
    /// Internet is bit-identical to the plain variant's.
    pub fn generate_with_obs(cfg: GeneratorConfig, rec: &obs::Recorder) -> Internet {
        let _span = rec.span(obs::names::PHASE_TOPO);
        let net = Internet::generate_inner(cfg);
        rec.add(obs::names::TOPO_ASES, net.graph.nodes.len() as u64);
        rec.add(obs::names::TOPO_ROUTERS, net.topology.routers.len() as u64);
        rec.add(obs::names::TOPO_IFACES, net.topology.ifaces.len() as u64);
        net
    }

    fn generate_inner(cfg: GeneratorConfig) -> Internet {
        let graph = AsGraph::generate(&cfg);
        let addressing = Addressing::generate(&cfg, &graph);
        let topology = RouterTopology::generate(&cfg, &graph, &addressing);
        let routing = Routing::new(graph.relationships.clone(), addressing.announce_via.clone());
        let announced = addressing.announced.iter().map(|&(p, a)| (p, a)).collect();
        Internet {
            cfg,
            graph,
            addressing,
            topology,
            routing,
            announced,
        }
    }

    /// The BGP origin for an address under the synthetic announcements
    /// (longest prefix match), if any.
    pub fn bgp_origin(&self, addr: u32) -> Option<Asn> {
        self.announced.longest_match(addr).map(|(_, &a)| a)
    }

    /// The destination-only facts of a probe toward `dst_addr`: the AS to
    /// route to, the target router and the outcome. `None` when no BGP
    /// route covers the address. A plan reads the router topology, so it
    /// holds only until the next topology event.
    pub fn plan(&self, dst_addr: u32) -> Option<DestPlan> {
        let topo = &self.topology;
        let target_iface = topo.iface_by_addr(dst_addr);
        let (route_to, hand_off, target, outcome) =
            if let Some(r) = self.addressing.realloc_covering(dst_addr) {
                // Reallocated /24: global routing follows the provider's
                // covering prefix; the provider hands off to the customer.
                let (target, outcome) = match target_iface {
                    Some(i) if topo.owner(i.router) == r.customer => {
                        (i.router, ForwardOutcome::ReachedIface(i.id))
                    }
                    _ => (
                        self.router_for_addr(r.customer, dst_addr),
                        ForwardOutcome::ReachedHostSpace { asn: r.customer },
                    ),
                };
                (r.provider, Some(r.customer), target, outcome)
            } else if let Some(i) = target_iface {
                // A real interface address: terminate at its router.
                let owner = topo.owner(i.router);
                (owner, None, i.router, ForwardOutcome::ReachedIface(i.id))
            } else {
                let origin = self.bgp_origin(dst_addr)?;
                let target = self.router_for_addr(origin, dst_addr);
                (
                    origin,
                    None,
                    target,
                    ForwardOutcome::ReachedHostSpace { asn: origin },
                )
            };
        Some(DestPlan {
            dst: dst_addr,
            route_to,
            hand_off,
            target,
            outcome,
        })
    }

    /// Forwards a probe from `src_router` toward `dst_addr`, expanding the
    /// AS-level route into the router-level path with per-hop ingress
    /// interfaces. An owned wrapper over [`Internet::forward`].
    pub fn forward_path(&self, src_router: RouterId, dst_addr: u32) -> ForwardPath {
        let mut buf = ForwardBuf::default();
        let outcome = self.forward(src_router, self.plan(dst_addr).as_ref(), &mut buf);
        ForwardPath {
            hops: buf.hops,
            outcome,
        }
    }

    /// Forwards a probe from `src_router` along `plan` (`None`: no route),
    /// filling `buf.hops` with the router-level path, and returns the
    /// outcome. `buf.hops` is empty when the outcome is
    /// [`ForwardOutcome::NoRoute`].
    pub fn forward(
        &self,
        src_router: RouterId,
        plan: Option<&DestPlan>,
        buf: &mut ForwardBuf,
    ) -> ForwardOutcome {
        let ForwardBuf { hops, as_path } = buf;
        hops.clear();
        let Some(plan) = plan else {
            return ForwardOutcome::NoRoute;
        };
        let src_as = self.topology.owner(src_router);
        if !self.routing.as_path_into(src_as, plan.route_to, as_path) {
            return ForwardOutcome::NoRoute;
        }
        if let Some(customer) = plan.hand_off {
            if as_path.last() != Some(&customer) {
                as_path.push(customer);
            }
        }

        // Expand the AS path to routers.
        hops.push(ForwardHop {
            router: src_router,
            ingress: None,
        });
        let mut cur = src_router;
        for win in as_path.windows(2) {
            let (egress_router, ingress_router, ingress_iface) =
                self.cross_boundary(win[0], win[1], plan.dst);
            // Internal walk to the egress border router.
            self.extend_internal(hops, cur, egress_router);
            hops.push(ForwardHop {
                router: ingress_router,
                ingress: Some(ingress_iface),
            });
            cur = ingress_router;
        }
        // Internal walk to the target router inside the final AS.
        self.extend_internal(hops, cur, plan.target);
        plan.outcome
    }

    /// Chooses the router-level crossing for an AS adjacency, load-balanced
    /// deterministically by destination address. Returns
    /// `(egress router in here, ingress router in next, ingress interface)`.
    fn cross_boundary(&self, here: Asn, next: Asn, dst_addr: u32) -> (RouterId, RouterId, IfaceId) {
        let links = self
            .topology
            .crossing(here, next)
            .unwrap_or_else(|| panic!("no link between {here} and {next}"));
        let link = &links[dst_addr as usize % links.len()];
        if here < next {
            (link.router_a, link.router_b, link.iface_b)
        } else {
            (link.router_b, link.router_a, link.iface_a)
        }
    }

    /// Appends the internal path `from → to` (excluding `from`) to `hops`,
    /// with per-hop ingress interfaces.
    fn extend_internal(&self, hops: &mut Vec<ForwardHop>, from: RouterId, to: RouterId) {
        let start = hops.len();
        let steps = self
            .topology
            .internal_path_rev(from, to)
            .expect("AS internal topology is connected");
        hops.extend(steps.map(|(router, ingress)| ForwardHop { router, ingress }));
        hops[start..].reverse();
    }

    /// Deterministic "host location": which router inside `asn` serves
    /// `addr`.
    pub fn router_for_addr(&self, asn: Asn, addr: u32) -> RouterId {
        let routers = &self.topology.as_routers[&asn];
        routers[addr as usize % routers.len()]
    }

    /// The source address a router uses when replying to a probe that
    /// arrived on `ingress`, given the prober's AS. Implements the response
    /// behaviours: normal routers reply with the ingress interface;
    /// `egress_reply` routers reply with the interface facing the return
    /// route (which can expose a third-party address).
    pub fn reply_source(&self, router: RouterId, ingress: Option<IfaceId>, vp_as: Asn) -> u32 {
        let view = self.topology.probe_view(router);
        if view.egress_reply {
            if let Some(addr) = self.egress_iface_addr(router, view, vp_as) {
                return addr;
            }
        }
        ingress.map_or(view.rid_addr, |i| self.topology.iface_addr(i))
    }

    /// The address of the interface `router` would use toward `vp_as`
    /// (reply direction), if one is identifiable.
    fn egress_iface_addr(&self, router: RouterId, view: RouterProbe, vp_as: Asn) -> Option<u32> {
        let owner = view.owner;
        if owner == vp_as {
            // Replying within the same AS: use the router-id interface.
            return Some(view.rid_addr);
        }
        let next = self.routing.next_hop(owner, vp_as)?;
        // A direct link (or fabric port) from this router to the next AS?
        let port = self.topology.crossing(owner, next).and_then(|links| {
            links.iter().find_map(|l| {
                if l.router_a == router {
                    Some(l.iface_a)
                } else {
                    (l.router_b == router).then_some(l.iface_b)
                }
            })
        });
        // Not a border router for the return direction: fall back to the
        // router-id interface ("some other interface", §1).
        Some(port.map_or(view.rid_addr, |i| self.topology.iface_addr(i)))
    }

    /// Synthesizes the route-collector RIB: every announced prefix as seen
    /// from each collector peer.
    pub fn build_rib(&self) -> Rib {
        let peers = self.collector_peers();
        let mut rib = Rib::new();
        for &(prefix, origin) in &self.addressing.announced {
            for &peer in &peers {
                if let Some(path) = self.routing.as_path(peer, origin) {
                    if let Ok(ann) = Announcement::new(prefix, path) {
                        rib.add(ann);
                    }
                }
            }
        }
        rib
    }

    /// The ASes peering with the synthetic collectors (deterministic
    /// sample of transit/access/R&E networks).
    pub fn collector_peers(&self) -> Vec<Asn> {
        let mut pool: Vec<Asn> = Vec::new();
        pool.extend(self.graph.tier_members(Tier::Transit));
        pool.extend(self.graph.tier_members(Tier::Access));
        pool.extend(self.graph.tier_members(Tier::ResearchEducation));
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0xA5A5_0004);
        let mut peers: Vec<Asn> = pool
            .choose_multiple(&mut rng, self.cfg.collector_peers.min(pool.len()))
            .copied()
            .collect();
        peers.sort_unstable();
        peers
    }

    /// Ground truth: the operator of a router.
    pub fn true_owner(&self, router: RouterId) -> Asn {
        self.topology.owner(router)
    }

    /// Ground truth: all interdomain links at router granularity.
    pub fn true_links(&self) -> Vec<TrueLink> {
        self.topology.true_links(&self.graph)
    }

    /// Ground truth: is this AS firewalled (drops external probes)?
    pub fn is_firewalled(&self, asn: Asn) -> bool {
        self.topology.firewall(asn) != Firewall::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(seed: u64) -> Internet {
        Internet::generate(GeneratorConfig::tiny(seed))
    }

    #[test]
    fn rib_covers_all_blocks() {
        let net = net(1);
        let rib = net.build_rib();
        for node in net.graph.nodes.values() {
            let block = net.addressing.blocks[&node.asn];
            assert_eq!(rib.origin(block), Some(node.asn), "{} missing", node.asn);
        }
    }

    #[test]
    fn rib_paths_are_loop_free() {
        let net = net(2);
        let rib = net.build_rib();
        for ann in rib.iter() {
            Announcement::validate_path(&ann.as_path).expect("loop-free, AS0-free");
        }
    }

    #[test]
    fn forward_reaches_interface_addresses() {
        let net = net(3);
        // Probe an actual interface address from a VP router elsewhere.
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Access)[0]][0];
        let target = net
            .topology
            .ifaces
            .iter()
            .find(|i| {
                // Pick an announced-space interface far from the VP.
                net.bgp_origin(i.addr).is_some()
                    && net.topology.owner(i.router) != net.topology.owner(vp)
            })
            .expect("some interface");
        let fwd = net.forward_path(vp, target.addr);
        assert_eq!(fwd.outcome, ForwardOutcome::ReachedIface(target.id));
        let last = fwd.hops.last().unwrap();
        assert_eq!(last.router, target.router);
        assert_eq!(fwd.hops[0].router, vp);
    }

    #[test]
    fn forward_hops_are_contiguous() {
        let net = net(4);
        let stub = net.graph.tier_members(Tier::Stub)[5];
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Transit)[0]][0];
        let dst = net.addressing.host_region(stub).addr() + 77;
        let fwd = net.forward_path(vp, dst);
        assert!(matches!(
            fwd.outcome,
            ForwardOutcome::ReachedHostSpace { .. }
        ));
        // Every hop after the first must have an ingress interface on the
        // hop's router, connected to the previous hop's router (or cross an
        // IXP LAN, where ingress is the LAN port).
        for win in fwd.hops.windows(2) {
            let (prev, cur) = (win[0], win[1]);
            let ingress = cur.ingress.expect("non-first hops have ingress");
            let info = net.topology.iface(ingress);
            assert_eq!(info.router, cur.router);
            if let Some(n) = info.neighbor {
                assert_eq!(net.topology.iface(n).router, prev.router);
            }
        }
    }

    #[test]
    fn forward_as_sequence_is_valley_free() {
        let net = net(5);
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Access)[1]][0];
        let stub = net.graph.tier_members(Tier::Stub)[9];
        let dst = net.addressing.host_region(stub).addr() + 5;
        let fwd = net.forward_path(vp, dst);
        let mut as_seq: Vec<Asn> = Vec::new();
        for h in &fwd.hops {
            let owner = net.topology.owner(h.router);
            if as_seq.last() != Some(&owner) {
                as_seq.push(owner);
            }
        }
        assert!(
            as_rel::valley_free(&net.graph.relationships, &as_seq),
            "{as_seq:?} not valley-free"
        );
        assert_eq!(*as_seq.last().unwrap(), stub);
    }

    #[test]
    fn realloc_traffic_crosses_the_reallocating_provider() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(6)
        };
        let net = Internet::generate(cfg);
        let r = net.addressing.reallocs[0];
        // A VP outside both provider and customer.
        let vp_as = net
            .graph
            .tier_members(Tier::Transit)
            .into_iter()
            .find(|&a| a != r.provider)
            .unwrap();
        let vp = net.topology.as_routers[&vp_as][0];
        let dst = r.prefix.addr() + 200; // host space inside the realloc /24
        let fwd = net.forward_path(vp, dst);
        assert_eq!(
            fwd.outcome,
            ForwardOutcome::ReachedHostSpace { asn: r.customer }
        );
        let owners: Vec<Asn> = fwd
            .hops
            .iter()
            .map(|h| net.topology.owner(h.router))
            .collect();
        assert!(
            owners.contains(&r.provider),
            "realloc traffic must transit the reallocating provider"
        );
        assert_eq!(*owners.last().unwrap(), r.customer);
    }

    #[test]
    fn realloc_customer_own_block_avoids_realloc_provider() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(7)
        };
        let net = Internet::generate(cfg);
        let r = net.addressing.reallocs[0];
        let rib = net.build_rib();
        // In the collector RIB, the customer's own block must never show the
        // reallocating provider as the last-hop transit.
        let block = net.addressing.blocks[&r.customer];
        for ann in rib.announcements(block) {
            let path = ann.collapsed_path();
            let pos = path.iter().position(|&a| a == r.customer).unwrap();
            if pos > 0 {
                assert_ne!(
                    path[pos - 1],
                    r.provider,
                    "aggregating provider must be invisible in BGP"
                );
            }
        }
    }

    #[test]
    fn no_route_for_dark_space_host_addrs() {
        let cfg = GeneratorConfig {
            unannounced_space_prob: 1.0,
            ..GeneratorConfig::tiny(8)
        };
        let net = Internet::generate(cfg);
        // A dark address that is NOT an interface: no route.
        let dark = net
            .addressing
            .dark
            .iter()
            .find(|d| {
                let probe = d.prefix.last_addr() - 1;
                net.topology.iface_by_addr(probe).is_none()
            })
            .expect("some dark block with spare space");
        let vp = net.topology.routers[0].id;
        let fwd = net.forward_path(vp, dark.prefix.last_addr() - 1);
        assert_eq!(fwd.outcome, ForwardOutcome::NoRoute);
    }

    #[test]
    fn reply_source_defaults_to_ingress() {
        let net = net(9);
        // Find a well-behaved router with an ingress hop.
        let vp_as = net.graph.tier_members(Tier::Access)[0];
        let vp = net.topology.as_routers[&vp_as][0];
        let stub = net.graph.tier_members(Tier::Stub)[3];
        let dst = net.addressing.host_region(stub).addr() + 9;
        let fwd = net.forward_path(vp, dst);
        for h in fwd.hops.iter().skip(1) {
            if !net.topology.router(h.router).egress_reply {
                let src = net.reply_source(h.router, h.ingress, vp_as);
                assert_eq!(src, net.topology.iface(h.ingress.unwrap()).addr);
            }
        }
    }

    #[test]
    fn collector_peers_deterministic_and_sized() {
        let net = net(10);
        let p1 = net.collector_peers();
        let p2 = net.collector_peers();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), net.cfg.collector_peers);
    }
}
