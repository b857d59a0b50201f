//! Router-level topology: routers, interfaces, links, response behaviours.
//!
//! Each AS gets a connected internal topology (a ring plus random chords)
//! sized by tier. Every AS relationship becomes one or more router-level
//! links between border routers; every IXP peering becomes a pair of ports
//! on the shared LAN. Interface addressing follows operator convention —
//! transit links are numbered from the provider's space — except where the
//! generator deliberately injects the pathologies bdrmapIT handles
//! (customer-addressed links, reallocated /24s, dark space).

use crate::addressing::Addressing;
use crate::asgraph::AsGraph;
use crate::{GeneratorConfig, IfaceId, RouterId, Tier, TrueLink};
use net_types::Asn;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

/// How a link was provisioned; drives addressing and ground-truth labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkKind {
    /// Internal to one AS.
    Internal,
    /// Private interdomain link (transit or private peering).
    Interdomain,
    /// Across an IXP fabric (addresses from the IXP LAN).
    Ixp(u32),
}

/// One router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouterInfo {
    /// Identifier (index into [`RouterTopology::routers`]).
    pub id: RouterId,
    /// Owning (operating) AS — the ground truth bdrmapIT tries to recover.
    pub owner: Asn,
    /// Never responds to traceroute probes.
    pub silent: bool,
    /// Responds with the interface facing the reply direction (egress)
    /// instead of the probe's ingress interface — the third-party-address
    /// mechanism of §6.1.1.
    pub egress_reply: bool,
    /// Echo replies are sourced from the router-id interface instead of the
    /// probed address (off-path echo, §4.2's `E` label discussion).
    pub echo_offpath: bool,
    /// All interfaces on this router (the alias-resolution ground truth).
    pub ifaces: Vec<IfaceId>,
}

/// One interface.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InterfaceInfo {
    /// Identifier (index into [`RouterTopology::ifaces`]).
    pub id: IfaceId,
    /// IPv4 address.
    pub addr: u32,
    /// Router carrying the interface.
    pub router: RouterId,
    /// The interface at the other end of a point-to-point link; `None` for
    /// router-id interfaces and IXP LAN ports.
    pub neighbor: Option<IfaceId>,
    /// Link provisioning.
    pub kind: LinkKind,
}

/// One router-level interdomain adjacency (possibly parallel).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExtLink {
    /// Router and its interface on the first AS (canonical pair order).
    pub router_a: RouterId,
    /// Interface on side a.
    pub iface_a: IfaceId,
    /// Router on the second AS.
    pub router_b: RouterId,
    /// Interface on side b.
    pub iface_b: IfaceId,
}

/// How an AS treats externally sourced traceroute probes (§5's two
/// firewall shapes, a generated per-AS attribute).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Firewall {
    /// No filter.
    Open,
    /// The border router answers and filters what is behind it.
    BorderResponds,
    /// The filter drops at the border: the provider's router becomes the
    /// last visible hop.
    BorderDrops,
}

/// The facts a probe reads about one router, in one dense entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterProbe {
    /// Owning AS.
    pub owner: Asn,
    /// The owner's position among the topology's ASes (ASN order).
    as_rank: u32,
    /// Address of the router-id interface (`ifaces[0]`).
    pub rid_addr: u32,
    /// [`RouterInfo::silent`].
    pub silent: bool,
    /// [`RouterInfo::egress_reply`].
    pub egress_reply: bool,
    /// [`RouterInfo::echo_offpath`].
    pub echo_offpath: bool,
}

/// One router's entry in a cached internal shortest-path tree: its BFS
/// parent and the interface it is entered on from that parent.
#[derive(Clone, Copy, Debug)]
struct Step {
    parent: RouterId,
    ingress: Option<IfaceId>,
}

/// A source router's BFS tree over its AS's internal links, indexed by each
/// router's position in the AS's router list (`None`: not reached).
type PathRow = Vec<Option<Step>>;

/// The full router-level topology.
///
/// Internal shortest paths are cached per source router; mutate
/// `internal_adj` and `as_routers` only through the methods below, which
/// reset the cached paths of the AS they touch. Routers and interfaces are
/// added only through `push_router` and `add_iface`, which keep the dense
/// probe view and address column beside `routers` and `ifaces` in step.
#[derive(Clone, Debug)]
pub struct RouterTopology {
    /// All routers, indexed by `RouterId`.
    pub routers: Vec<RouterInfo>,
    /// All interfaces, indexed by `IfaceId`.
    pub ifaces: Vec<InterfaceInfo>,
    /// Routers per AS (ascending ids).
    pub as_routers: BTreeMap<Asn, Vec<RouterId>>,
    /// Internal adjacency per router (same-AS neighbors), aligned with
    /// `routers`.
    pub internal_adj: Vec<Vec<RouterId>>,
    /// Private interdomain links per canonical `(low ASN, high ASN)` pair.
    pub ext_links: BTreeMap<(Asn, Asn), Vec<ExtLink>>,
    /// IXP fabric port per `(ixp id, member ASN)`.
    pub ixp_ports: BTreeMap<(u32, Asn), (RouterId, IfaceId)>,
    /// Address → interface id (for destination-hits-router detection and
    /// alias ground truth).
    pub addr_to_iface: BTreeMap<u32, IfaceId>,
    /// Position of each router in its AS's `as_routers` list.
    as_index: Vec<u32>,
    /// Per source router: its internal BFS tree, built on first use.
    path_rows: Vec<OnceLock<PathRow>>,
    /// Every AS of the graph, ascending: [`RouterProbe`]'s rank indexes it.
    asns: Vec<Asn>,
    /// Firewall class per AS rank.
    firewall: Vec<Firewall>,
    /// Per router: what a probe reads of it.
    probe: Vec<RouterProbe>,
    /// Per interface: its address.
    iface_addr: Vec<u32>,
    /// The crossing table: canonical AS pairs with a crossing, packed
    /// `low << 32 | high`, ascending. Pair `i` crosses over
    /// `crossing_links[crossing_off[i]..crossing_off[i + 1]]`.
    crossing_keys: Vec<u64>,
    crossing_off: Vec<u32>,
    crossing_links: Vec<ExtLink>,
}

impl RouterTopology {
    /// Builds the router topology.
    pub fn generate(cfg: &GeneratorConfig, graph: &AsGraph, addr: &Addressing) -> RouterTopology {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xA5A5_0003);
        let mut topo = RouterTopology {
            routers: Vec::new(),
            ifaces: Vec::new(),
            as_routers: BTreeMap::new(),
            internal_adj: Vec::new(),
            ext_links: BTreeMap::new(),
            ixp_ports: BTreeMap::new(),
            addr_to_iface: BTreeMap::new(),
            as_index: Vec::new(),
            path_rows: Vec::new(),
            asns: graph.nodes.keys().copied().collect(),
            firewall: graph
                .nodes
                .values()
                .map(|n| match (n.firewalled, n.firewall_border_responds) {
                    (false, _) => Firewall::Open,
                    (true, true) => Firewall::BorderResponds,
                    (true, false) => Firewall::BorderDrops,
                })
                .collect(),
            probe: Vec::new(),
            iface_addr: Vec::new(),
            crossing_keys: Vec::new(),
            crossing_off: vec![0],
            crossing_links: Vec::new(),
        };
        let mut pools: BTreeMap<Asn, crate::addressing::AddrPool> = BTreeMap::new();
        let mut dark_pools: BTreeMap<Asn, crate::addressing::AddrPool> = BTreeMap::new();
        for node in graph.nodes.values() {
            pools.insert(node.asn, addr.infra_pool(node.asn));
            if let Some(dp) = addr.dark_pool(node.asn) {
                dark_pools.insert(node.asn, dp);
            }
        }

        // ---- routers and internal topology ----
        for node in graph.nodes.values() {
            let count = match node.tier {
                Tier::Clique => cfg.routers_clique,
                Tier::Transit => cfg.routers_transit,
                Tier::Access => cfg.routers_access,
                Tier::ResearchEducation => cfg.routers_re,
                Tier::Stub => cfg.routers_stub,
            }
            .max(1);
            let ids: Vec<RouterId> = (0..count)
                .map(|_| {
                    topo.push_router(RouterInfo {
                        id: RouterId(topo.routers.len() as u32),
                        owner: node.asn,
                        silent: rng.gen_bool(cfg.router_silent_prob),
                        egress_reply: rng.gen_bool(cfg.router_egress_reply_prob),
                        echo_offpath: rng.gen_bool(cfg.echo_offpath_prob),
                        ifaces: Vec::new(),
                    })
                })
                .collect();
            // Router-id interface (loopback-style) for every router.
            for &rid in &ids {
                let pool = pools.get_mut(&node.asn).expect("pool exists");
                let a = pool.take();
                topo.add_iface(a, rid, None, LinkKind::Internal);
            }
            // Ring for connectivity.
            if ids.len() > 1 {
                for i in 0..ids.len() {
                    let j = (i + 1) % ids.len();
                    if ids.len() == 2 && j < i {
                        break; // avoid a duplicate link for 2-router rings
                    }
                    topo.add_internal_link(
                        ids[i],
                        ids[j],
                        node.asn,
                        &mut pools,
                        &mut dark_pools,
                        cfg,
                        &mut rng,
                    );
                }
                // Random chords.
                let chords = (ids.len() as f64 * cfg.internal_chord_factor) as usize;
                for _ in 0..chords {
                    let i = rng.gen_range(0..ids.len());
                    let j = rng.gen_range(0..ids.len());
                    if i != j {
                        topo.add_internal_link(
                            ids[i],
                            ids[j],
                            node.asn,
                            &mut pools,
                            &mut dark_pools,
                            cfg,
                            &mut rng,
                        );
                    }
                }
            }
        }

        // ---- interdomain links ----
        for (a, b, rel) in graph.relationships.iter() {
            // IXP peerings are provisioned on the shared LAN below.
            if graph.ixp_for_pair(a, b).is_some() {
                continue;
            }
            // Addressing side: provider's space for transit (by industry
            // convention), lower-ASN side for private peering; flipped to
            // the customer with `customer_addressed_link_prob` (the §6.1.5
            // hidden-AS mechanism). Reallocated customers always number the
            // provider link from their /24 (the §6.1.2 scenario).
            use as_rel::Relationship;
            let (provider, customer) = match rel {
                Relationship::Provider => (a, b),
                Relationship::Customer => (b, a),
                Relationship::Peer => (a.min(b), a.max(b)),
            };
            let addr_side = if rel != Relationship::Peer {
                let realloc_link = addr
                    .realloc_for_customer(customer)
                    .is_some_and(|r| r.provider == provider);
                if realloc_link || rng.gen_bool(cfg.customer_addressed_link_prob) {
                    customer
                } else {
                    provider
                }
            } else {
                provider // lower ASN for peering
            };
            let n_links = 1 + rng.gen_range(0..cfg.max_parallel_links);
            let mut links = Vec::new();
            for _ in 0..n_links {
                let ra = topo.pick_border(a, &mut rng);
                let rb = topo.pick_border(b, &mut rng);
                let pool = pools.get_mut(&addr_side).expect("pool");
                let (addr_a, addr_b) = pool.take_p2p_pair();
                // Canonical order: side a of the ExtLink is the lower ASN.
                let ia = topo.add_iface(addr_a, ra, None, LinkKind::Interdomain);
                let ib = topo.add_iface(addr_b, rb, None, LinkKind::Interdomain);
                topo.ifaces[ia.0 as usize].neighbor = Some(ib);
                topo.ifaces[ib.0 as usize].neighbor = Some(ia);
                links.push(ExtLink {
                    router_a: ra,
                    iface_a: ia,
                    router_b: rb,
                    iface_b: ib,
                });
            }
            topo.ext_links.insert((a, b), links);
        }

        // ---- IXP ports ----
        for spec in &graph.ixps {
            let lan = addr
                .ixps
                .iter()
                .find(|i| i.id == spec.id)
                .expect("ixp lan allocated")
                .prefix;
            let mut lan_pool = crate::addressing::AddrPool::new(lan);
            // Skip network address for realism.
            lan_pool.take();
            for &member in &spec.members {
                let rid = topo.pick_border(member, &mut rng);
                let ifid = topo.add_iface(lan_pool.take(), rid, None, LinkKind::Ixp(spec.id));
                topo.ixp_ports.insert((spec.id, member), (rid, ifid));
            }
        }

        topo.build_crossings(graph);
        topo
    }

    /// Builds the crossing table from `ext_links`, `ixp_ports` and the
    /// graph's fabric peerings. A fabric peering crosses over its one
    /// port-to-port link. A fabric pair never also has private links (the
    /// interdomain loop above skips it), so each pair has one kind of
    /// crossing and the table keeps the fabric's precedence.
    fn build_crossings(&mut self, graph: &AsGraph) {
        let mut pairs: Vec<(u64, Vec<ExtLink>)> = Vec::new();
        for (&(a, b), links) in &self.ext_links {
            assert!(
                graph.ixp_for_pair(a, b).is_none(),
                "fabric pair {a}-{b} also has private links"
            );
            pairs.push((pair_key(a, b), links.clone()));
        }
        for &(a, b, ixp) in &graph.ixp_peerings {
            let (lo, hi) = (a.min(b), a.max(b));
            let port = |m: Asn| *self.ixp_ports.get(&(ixp, m)).expect("member has a port");
            let ((router_a, iface_a), (router_b, iface_b)) = (port(lo), port(hi));
            let link = ExtLink {
                router_a,
                iface_a,
                router_b,
                iface_b,
            };
            pairs.push((pair_key(lo, hi), vec![link]));
        }
        pairs.sort_unstable_by_key(|&(k, _)| k);
        for (key, links) in pairs {
            assert!(
                self.crossing_keys.last() < Some(&key),
                "one crossing per AS pair"
            );
            self.crossing_keys.push(key);
            self.crossing_links.extend(links);
            self.crossing_off.push(self.crossing_links.len() as u32);
        }
    }

    /// Appends a router (`info.id` must be its index) to the topology and to
    /// its owner's router list.
    fn push_router(&mut self, info: RouterInfo) -> RouterId {
        let id = info.id;
        debug_assert_eq!(id.0 as usize, self.routers.len());
        let members = self.as_routers.entry(info.owner).or_default();
        self.as_index.push(members.len() as u32);
        members.push(id);
        let as_rank = self
            .asns
            .binary_search(&info.owner)
            .expect("owner is an AS of the graph");
        self.probe.push(RouterProbe {
            owner: info.owner,
            as_rank: as_rank as u32,
            rid_addr: 0, // set by the router's first `add_iface`
            silent: info.silent,
            egress_reply: info.egress_reply,
            echo_offpath: info.echo_offpath,
        });
        self.routers.push(info);
        self.internal_adj.push(Vec::new());
        self.path_rows.push(OnceLock::new());
        id
    }

    fn add_iface(
        &mut self,
        addr: u32,
        router: RouterId,
        neighbor: Option<IfaceId>,
        kind: LinkKind,
    ) -> IfaceId {
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(InterfaceInfo {
            id,
            addr,
            router,
            neighbor,
            kind,
        });
        let ifaces = &mut self.routers[router.0 as usize].ifaces;
        if ifaces.is_empty() {
            self.probe[router.0 as usize].rid_addr = addr;
        }
        ifaces.push(id);
        self.iface_addr.push(addr);
        self.addr_to_iface.insert(addr, id);
        id
    }

    #[allow(clippy::too_many_arguments)] // internal builder plumbing
    fn add_internal_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        owner: Asn,
        pools: &mut BTreeMap<Asn, crate::addressing::AddrPool>,
        dark_pools: &mut BTreeMap<Asn, crate::addressing::AddrPool>,
        _cfg: &GeneratorConfig,
        rng: &mut ChaCha8Rng,
    ) {
        if self.internal_adj[a.0 as usize].contains(&b) {
            return;
        }
        // Dark-space ASes number roughly half their internal links from the
        // dark block (§6.1.1's unannounced-address chains need several
        // consecutive dark hops).
        let use_dark = dark_pools.contains_key(&owner) && rng.gen_bool(0.5);
        let pool = if use_dark {
            dark_pools.get_mut(&owner).expect("dark pool")
        } else {
            pools.get_mut(&owner).expect("pool")
        };
        let (addr_a, addr_b) = pool.take_p2p_pair();
        let ia = self.add_iface(addr_a, a, None, LinkKind::Internal);
        let ib = self.add_iface(addr_b, b, None, LinkKind::Internal);
        self.ifaces[ia.0 as usize].neighbor = Some(ib);
        self.ifaces[ib.0 as usize].neighbor = Some(ia);
        self.internal_adj[a.0 as usize].push(b);
        self.internal_adj[b.0 as usize].push(a);
    }

    fn pick_border(&self, asn: Asn, rng: &mut ChaCha8Rng) -> RouterId {
        let routers = &self.as_routers[&asn];
        routers[rng.gen_range(0..routers.len())]
    }

    /// The owner of a router.
    pub fn owner(&self, r: RouterId) -> Asn {
        self.routers[r.0 as usize].owner
    }

    /// Router lookup.
    pub fn router(&self, r: RouterId) -> &RouterInfo {
        &self.routers[r.0 as usize]
    }

    /// Interface lookup.
    pub fn iface(&self, i: IfaceId) -> &InterfaceInfo {
        &self.ifaces[i.0 as usize]
    }

    /// The interface carrying `addr`, if any.
    pub fn iface_by_addr(&self, addr: u32) -> Option<&InterfaceInfo> {
        self.addr_to_iface.get(&addr).map(|&i| self.iface(i))
    }

    /// What a probe reads of router `r`.
    pub fn probe_view(&self, r: RouterId) -> RouterProbe {
        self.probe[r.0 as usize]
    }

    /// The address of interface `i`.
    pub fn iface_addr(&self, i: IfaceId) -> u32 {
        self.iface_addr[i.0 as usize]
    }

    /// The firewall class of `asn` (`Open` for an AS outside the graph).
    pub fn firewall(&self, asn: Asn) -> Firewall {
        self.asns
            .binary_search(&asn)
            .map_or(Firewall::Open, |i| self.firewall[i])
    }

    /// The firewall class of a probed router's owner.
    pub fn owner_firewall(&self, view: RouterProbe) -> Firewall {
        self.firewall[view.as_rank as usize]
    }

    /// The links `a` and `b` cross over, in canonical pair order (side a
    /// is the lower ASN): their private links, or the one link between
    /// their ports on a shared IXP fabric. `None` when they are not
    /// adjacent.
    pub fn crossing(&self, a: Asn, b: Asn) -> Option<&[ExtLink]> {
        let i = self
            .crossing_keys
            .binary_search(&pair_key(a.min(b), a.max(b)))
            .ok()?;
        let (start, end) = (self.crossing_off[i], self.crossing_off[i + 1]);
        Some(&self.crossing_links[start as usize..end as usize])
    }

    /// The first interface on `router` whose link peer sits on `peer`.
    fn link_iface(&self, router: RouterId, peer: RouterId) -> Option<IfaceId> {
        self.routers[router.0 as usize]
            .ifaces
            .iter()
            .copied()
            .find(|&i| {
                self.iface(i)
                    .neighbor
                    .is_some_and(|n| self.iface(n).router == peer)
            })
    }

    /// `src`'s internal BFS tree, computed on first use.
    fn path_row(&self, src: RouterId) -> &PathRow {
        self.path_rows[src.0 as usize].get_or_init(|| self.bfs_row(src))
    }

    /// Breadth-first search from `src` over its AS's internal links,
    /// visiting neighbours in ascending id order: each router's parent is
    /// the first router that reaches it.
    fn bfs_row(&self, src: RouterId) -> PathRow {
        let mut row = vec![None; self.as_routers[&self.owner(src)].len()];
        row[self.as_index[src.0 as usize] as usize] = Some(Step {
            parent: src,
            ingress: None,
        });
        let mut queue = VecDeque::from([src]);
        let mut neighbours = Vec::new();
        while let Some(cur) = queue.pop_front() {
            neighbours.clear();
            neighbours.extend_from_slice(&self.internal_adj[cur.0 as usize]);
            neighbours.sort_unstable();
            for &n in &neighbours {
                let slot = &mut row[self.as_index[n.0 as usize] as usize];
                if slot.is_none() {
                    *slot = Some(Step {
                        parent: cur,
                        ingress: self.link_iface(n, cur),
                    });
                    queue.push_back(n);
                }
            }
        }
        row
    }

    /// Drops the cached internal paths of every router of `asn`.
    fn reset_paths(&mut self, asn: Asn) {
        for &r in &self.as_routers[&asn] {
            self.path_rows[r.0 as usize].take();
        }
    }

    /// The shortest internal path `from → to`, walked backwards: each
    /// router from `to` back to (but excluding) `from`, with the interface
    /// it is entered on. `None` when `to` is not reachable from `from` over
    /// their AS's internal links.
    pub fn internal_path_rev(
        &self,
        from: RouterId,
        to: RouterId,
    ) -> Option<impl Iterator<Item = (RouterId, Option<IfaceId>)> + '_> {
        if self.owner(from) != self.owner(to) {
            return None;
        }
        let row = self.path_row(from);
        let step = |r: RouterId| row[self.as_index[r.0 as usize] as usize];
        step(to)?;
        let mut cur = to;
        Some(std::iter::from_fn(move || {
            if cur == from {
                return None;
            }
            let s = step(cur).expect("a reached router's parent is reached");
            let hop = (cur, s.ingress);
            cur = s.parent;
            Some(hop)
        }))
    }

    /// Shortest internal path between two routers of the same AS (BFS over
    /// internal links). Returns the router sequence including both ends.
    pub fn internal_path(&self, from: RouterId, to: RouterId) -> Option<Vec<RouterId>> {
        let mut path: Vec<RouterId> = self.internal_path_rev(from, to)?.map(|(r, _)| r).collect();
        path.push(from);
        path.reverse();
        Some(path)
    }

    /// Fails the internal link between `a` and `b`: removes the adjacency so
    /// forwarding routes around it. The link's interfaces stay registered —
    /// a failed link's addresses still answer pings, they just carry no
    /// transit traffic — so a later [`restore_internal_link`] re-enables the
    /// same addresses. Returns `false` (and changes nothing) when no such
    /// adjacency exists or removing it would disconnect the AS's internal
    /// topology, which `internal_path` callers assume never happens.
    ///
    /// [`restore_internal_link`]: RouterTopology::restore_internal_link
    pub fn fail_internal_link(&mut self, a: RouterId, b: RouterId) -> bool {
        if a == b || !self.internal_adj[a.0 as usize].contains(&b) {
            return false;
        }
        // Connectivity guard: with the edge masked, BFS from `a` must still
        // reach `b` some other way.
        let mut seen = std::collections::BTreeSet::from([a]);
        let mut queue = std::collections::VecDeque::from([a]);
        let mut reachable = false;
        'bfs: while let Some(cur) = queue.pop_front() {
            for &n in &self.internal_adj[cur.0 as usize] {
                if cur == a && n == b {
                    continue; // the failing edge itself
                }
                if n == b {
                    reachable = true;
                    break 'bfs;
                }
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        if !reachable {
            return false;
        }
        self.internal_adj[a.0 as usize].retain(|&r| r != b);
        self.internal_adj[b.0 as usize].retain(|&r| r != a);
        self.reset_paths(self.owner(a));
        true
    }

    /// Restores a previously failed internal link by re-adding the adjacency.
    /// Returns `false` when the adjacency already exists, the routers belong
    /// to different ASes, or they never shared a link (no interface pair to
    /// re-enable). Adjacency-list order does not matter: the internal path
    /// search sorts neighbours at every step.
    pub fn restore_internal_link(&mut self, a: RouterId, b: RouterId) -> bool {
        if a == b
            || self.internal_adj[a.0 as usize].contains(&b)
            || self.routers[a.0 as usize].owner != self.routers[b.0 as usize].owner
        {
            return false;
        }
        if self.link_iface(a, b).is_none() {
            return false;
        }
        self.internal_adj[a.0 as usize].push(b);
        self.internal_adj[b.0 as usize].push(a);
        self.reset_paths(self.owner(a));
        true
    }

    /// Adds a new router to `owner`, attached to `attach` (an existing
    /// router of the same AS) by a fresh point-to-point link.
    /// `addrs = [router-id address, link address on the new router, link
    /// address on attach]`; the caller carves them from the AS's
    /// infrastructure region (see `dynamics::carve_router_addrs`). Response
    /// behaviour flags are all false, so the new router's behaviour does not
    /// depend on when it appears. Returns the new router's id.
    ///
    /// # Panics
    ///
    /// When `attach` is not owned by `owner` or an address is already in use.
    pub fn add_router(&mut self, owner: Asn, attach: RouterId, addrs: [u32; 3]) -> RouterId {
        assert_eq!(
            self.routers[attach.0 as usize].owner, owner,
            "attach router belongs to the owner AS"
        );
        for a in addrs {
            assert!(
                !self.addr_to_iface.contains_key(&a),
                "router address {a:#010x} already in use"
            );
        }
        let id = self.push_router(RouterInfo {
            id: RouterId(self.routers.len() as u32),
            owner,
            silent: false,
            egress_reply: false,
            echo_offpath: false,
            ifaces: Vec::new(),
        });
        // Router-id (loopback-style) interface first: `ifaces[0]` is the
        // reply-source fallback, like every generated router.
        self.add_iface(addrs[0], id, None, LinkKind::Internal);
        let ia = self.add_iface(addrs[1], id, None, LinkKind::Internal);
        let ib = self.add_iface(addrs[2], attach, None, LinkKind::Internal);
        self.ifaces[ia.0 as usize].neighbor = Some(ib);
        self.ifaces[ib.0 as usize].neighbor = Some(ia);
        self.internal_adj[id.0 as usize].push(attach);
        self.internal_adj[attach.0 as usize].push(id);
        self.reset_paths(owner);
        id
    }

    /// Ground-truth interdomain links at router granularity, including IXP
    /// peerings.
    pub fn true_links(&self, graph: &AsGraph) -> Vec<TrueLink> {
        let mut out = Vec::new();
        for (&(a, b), links) in &self.ext_links {
            for l in links {
                out.push(TrueLink {
                    router_a: l.router_a,
                    as_a: a,
                    router_b: l.router_b,
                    as_b: b,
                    addr_a: self.iface(l.iface_a).addr,
                    addr_b: self.iface(l.iface_b).addr,
                });
            }
        }
        for &(a, b, ixp) in &graph.ixp_peerings {
            let (Some(&(ra, ia)), Some(&(rb, ib))) =
                (self.ixp_ports.get(&(ixp, a)), self.ixp_ports.get(&(ixp, b)))
            else {
                continue;
            };
            out.push(TrueLink {
                router_a: ra,
                as_a: a,
                router_b: rb,
                as_b: b,
                addr_a: self.iface(ia).addr,
                addr_b: self.iface(ib).addr,
            });
        }
        out
    }

    /// Total router count.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Total interface count.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }
}

/// A canonical AS pair `(lo, hi)` packed for the crossing table.
fn pair_key(lo: Asn, hi: Asn) -> u64 {
    u64::from(lo.0) << 32 | u64::from(hi.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(seed: u64) -> (GeneratorConfig, AsGraph, Addressing, RouterTopology) {
        let cfg = GeneratorConfig::tiny(seed);
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        let topo = RouterTopology::generate(&cfg, &graph, &addr);
        (cfg, graph, addr, topo)
    }

    #[test]
    fn every_as_has_routers() {
        let (_, graph, _, topo) = build(1);
        for node in graph.nodes.values() {
            let routers = &topo.as_routers[&node.asn];
            assert!(!routers.is_empty());
            for &r in routers {
                assert_eq!(topo.owner(r), node.asn);
            }
        }
    }

    #[test]
    fn interfaces_consistent() {
        let (_, _, _, topo) = build(2);
        for (idx, iface) in topo.ifaces.iter().enumerate() {
            assert_eq!(iface.id.0 as usize, idx);
            assert!(topo.routers[iface.router.0 as usize]
                .ifaces
                .contains(&iface.id));
            if let Some(n) = iface.neighbor {
                assert_eq!(topo.iface(n).neighbor, Some(iface.id), "link symmetry");
            }
            assert_eq!(topo.addr_to_iface[&iface.addr], iface.id);
        }
    }

    #[test]
    fn addresses_unique() {
        let (_, _, _, topo) = build(3);
        assert_eq!(topo.addr_to_iface.len(), topo.ifaces.len());
    }

    #[test]
    fn internal_connectivity() {
        let (_, graph, _, topo) = build(4);
        for node in graph.nodes.values() {
            let routers = &topo.as_routers[&node.asn];
            let first = routers[0];
            for &r in routers.iter().skip(1) {
                assert!(
                    topo.internal_path(first, r).is_some(),
                    "{} disconnected inside {}",
                    r.0,
                    node.asn
                );
            }
        }
    }

    #[test]
    fn internal_path_is_shortest_on_ring() {
        let (_, _, _, topo) = build(5);
        // Trivial sanity: path from a router to itself.
        let r = topo.routers[0].id;
        assert_eq!(topo.internal_path(r, r), Some(vec![r]));
    }

    #[test]
    fn every_private_relationship_has_links() {
        let (_, graph, _, topo) = build(6);
        for (a, b, _) in graph.relationships.iter() {
            if graph.ixp_for_pair(a, b).is_some() {
                let found = graph
                    .ixp_peerings
                    .iter()
                    .any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b)));
                assert!(found);
                continue;
            }
            let links = &topo.ext_links[&(a, b)];
            assert!(!links.is_empty());
            for l in links {
                assert_eq!(topo.owner(l.router_a), a);
                assert_eq!(topo.owner(l.router_b), b);
            }
        }
    }

    #[test]
    fn transit_links_numbered_from_provider_space_by_default() {
        let cfg = GeneratorConfig {
            customer_addressed_link_prob: 0.0,
            realloc_prob: 0.0,
            ..GeneratorConfig::tiny(7)
        };
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        let topo = RouterTopology::generate(&cfg, &graph, &addr);
        use as_rel::Relationship;
        for (a, b, rel) in graph.relationships.iter() {
            if graph.ixp_for_pair(a, b).is_some() || rel == Relationship::Peer {
                continue;
            }
            let provider = if rel == Relationship::Provider { a } else { b };
            for l in &topo.ext_links[&(a, b)] {
                let block = addr.blocks[&provider];
                assert!(
                    block.contains(topo.iface(l.iface_a).addr),
                    "link not from provider space"
                );
                assert!(block.contains(topo.iface(l.iface_b).addr));
            }
        }
    }

    #[test]
    fn realloc_links_numbered_from_realloc_prefix() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            customer_addressed_link_prob: 0.0,
            ..GeneratorConfig::tiny(8)
        };
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        let topo = RouterTopology::generate(&cfg, &graph, &addr);
        assert!(!addr.reallocs.is_empty());
        for r in &addr.reallocs {
            let key = (r.provider.min(r.customer), r.provider.max(r.customer));
            for l in &topo.ext_links[&key] {
                assert!(
                    r.prefix.contains(topo.iface(l.iface_a).addr),
                    "realloc link must use the reallocated /24"
                );
                assert!(r.prefix.contains(topo.iface(l.iface_b).addr));
            }
        }
    }

    #[test]
    fn ixp_ports_on_lan() {
        let (_, graph, addr, topo) = build(9);
        for spec in &graph.ixps {
            let lan = addr.ixps.iter().find(|i| i.id == spec.id).unwrap().prefix;
            for &member in &spec.members {
                let &(rid, ifid) = topo.ixp_ports.get(&(spec.id, member)).unwrap();
                assert_eq!(topo.owner(rid), member);
                assert!(lan.contains(topo.iface(ifid).addr));
                assert_eq!(topo.iface(ifid).kind, LinkKind::Ixp(spec.id));
            }
        }
    }

    #[test]
    fn true_links_cover_relationships() {
        let (_, graph, _, topo) = build(10);
        let links = topo.true_links(&graph);
        assert!(!links.is_empty());
        for l in &links {
            assert_eq!(topo.owner(l.router_a), l.as_a);
            assert_eq!(topo.owner(l.router_b), l.as_b);
            assert_ne!(l.as_a, l.as_b);
        }
    }

    #[test]
    fn deterministic() {
        let (_, _, _, t1) = build(11);
        let (_, _, _, t2) = build(11);
        assert_eq!(t1.router_count(), t2.router_count());
        assert_eq!(t1.iface_count(), t2.iface_count());
        assert_eq!(
            serde_json::to_string(&t1.ifaces).unwrap(),
            serde_json::to_string(&t2.ifaces).unwrap()
        );
    }
}
