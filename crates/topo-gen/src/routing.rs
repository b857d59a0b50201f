//! Gao-Rexford AS-level routing.
//!
//! Routes propagate the way BGP export policies make them propagate:
//!
//! * an AS exports its own prefixes (and routes learned from customers) to
//!   everyone — customers, peers, providers;
//! * routes learned from peers or providers are exported *only to
//!   customers*.
//!
//! Selection prefers customer routes over peer routes over provider routes,
//! then shortest AS path, then lowest next-hop ASN — all deterministic. The
//! resulting per-destination route tables drive both the traceroute
//! forwarding plane and the synthetic route-collector RIB, so data and
//! control plane agree by construction (modulo the deliberate reallocation
//! pathologies layered on top by [`crate::Internet`]).
//!
//! `announce_via` restrictions model selective announcement: a customer that
//! announces its block through only one of its providers (the reallocation
//! scenario of §4.4 needs the provider–customer adjacency invisible in BGP).

use as_rel::AsRelationships;
use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// How an AS learned its best route toward a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteClass {
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
    /// The destination itself.
    Origin,
}

/// One AS's routing entry toward a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Next-hop AS (self for the origin).
    pub next: Asn,
    /// AS-path length to the destination.
    pub dist: u32,
    /// Preference class of the selected route.
    pub class: RouteClass,
}

/// Next-hop rank of an AS with no route.
const NO_ROUTE: u32 = u32::MAX;

/// One AS's selected route in a dense table: next-hop rank, AS-path length
/// and class. `next == NO_ROUTE` marks an AS without a route.
#[derive(Clone, Copy, Debug)]
struct Slot {
    next: u32,
    dist: u16,
    class: RouteClass,
}

impl Slot {
    const NONE: Slot = Slot {
        next: NO_ROUTE,
        dist: 0,
        class: RouteClass::Origin,
    };

    fn routed(self) -> bool {
        self.next != NO_ROUTE
    }
}

/// The routing oracle: per-destination route tables over a dense ASN-rank
/// index, each computed on first use.
///
/// Rank `i` is the `i`-th smallest ASN of the relationship graph, so rank
/// order is ASN order and every tie-break on ASN is a tie-break on rank.
/// A table is a pure function of the relationships, the announcement
/// restrictions and its destination, so whichever thread fills a slot
/// first, every reader sees the same table.
#[derive(Debug)]
pub struct Routing {
    rels: AsRelationships,
    announce_via: BTreeMap<Asn, Vec<Asn>>,
    /// Every AS of `rels`, ascending: rank `i` is `asns[i]`.
    asns: Vec<Asn>,
    /// Providers, peers and customers of each rank, as ranks.
    providers: Vec<Vec<u32>>,
    peers: Vec<Vec<u32>>,
    customers: Vec<Vec<u32>>,
    /// One route table per destination rank, indexed by source rank.
    tables: Vec<OnceLock<Vec<Slot>>>,
}

impl Routing {
    /// Creates the oracle from ground-truth relationships and selective
    /// announcement restrictions. No route table is computed yet.
    pub fn new(rels: AsRelationships, announce_via: BTreeMap<Asn, Vec<Asn>>) -> Self {
        let asns: Vec<Asn> = rels.ases().into_iter().collect();
        let providers = ranked(&asns, |a| rels.providers_of(a));
        let peers = ranked(&asns, |a| rels.peers_of(a));
        let customers = ranked(&asns, |a| rels.customers_of(a));
        let tables = asns.iter().map(|_| OnceLock::new()).collect();
        Routing {
            rels,
            announce_via,
            asns,
            providers,
            peers,
            customers,
            tables,
        }
    }

    /// The relationships this oracle routes over.
    pub fn relationships(&self) -> &AsRelationships {
        &self.rels
    }

    fn rank(&self, asn: Asn) -> Option<usize> {
        self.asns.binary_search(&asn).ok()
    }

    /// The route table toward destination rank `dst`, computed on first use.
    fn table(&self, dst: usize) -> &[Slot] {
        self.tables[dst].get_or_init(|| self.compute_table(dst as u32))
    }

    /// Gao-Rexford route selection toward `dst`, level by level. Each phase
    /// visits ASes in ascending `(dist, rank)` order and the first offer an
    /// AS receives wins, so ties resolve toward the shortest path, then the
    /// lowest next-hop ASN.
    fn compute_table(&self, dst: u32) -> Vec<Slot> {
        let mut table = vec![Slot::NONE; self.asns.len()];
        table[dst as usize] = Slot {
            next: dst,
            dist: 0,
            class: RouteClass::Origin,
        };
        let hop = |dist: u16| dist.checked_add(1).expect("AS path under 65,536 hops");

        // ---- Phase A: customer routes climb provider edges ----
        // Selective announcement: the origin exports only to the listed
        // providers (if restricted).
        let via: Option<Vec<u32>> = self.announce_via.get(&self.asns[dst as usize]).map(|via| {
            via.iter()
                .filter_map(|&a| self.rank(a))
                .map(|r| r as u32)
                .collect()
        });
        let mut customer_routed = vec![dst];
        let mut level = vec![dst];
        let mut next_level = Vec::new();
        let mut dist = 0u16;
        while !level.is_empty() {
            for &u in &level {
                let ups = match &via {
                    Some(via) if u == dst => via,
                    _ => &self.providers[u as usize],
                };
                for &p in ups {
                    if !table[p as usize].routed() {
                        table[p as usize] = Slot {
                            next: u,
                            dist: hop(dist),
                            class: RouteClass::Customer,
                        };
                        next_level.push(p);
                    }
                }
            }
            next_level.sort_unstable();
            customer_routed.extend_from_slice(&next_level);
            level = std::mem::take(&mut next_level);
            dist = hop(dist);
        }

        // ---- Phase B: peer routes, one hop off the customer tree ----
        // An AS with several peer offers takes the shortest, ties to the
        // lowest next-hop ASN.
        for &a in &customer_routed {
            let offer = Slot {
                next: a,
                dist: hop(table[a as usize].dist),
                class: RouteClass::Peer,
            };
            for &q in &self.peers[a as usize] {
                let cur = &mut table[q as usize];
                let better = match cur.class {
                    _ if !cur.routed() => true,
                    RouteClass::Peer => (offer.dist, offer.next) < (cur.dist, cur.next),
                    _ => false,
                };
                if better {
                    *cur = offer;
                }
            }
        }

        // ---- Phase C: provider routes flood down p2c edges ----
        let mut by_dist: Vec<Vec<u32>> = Vec::new();
        for (r, slot) in table.iter().enumerate() {
            if slot.routed() {
                let d = usize::from(slot.dist);
                if by_dist.len() <= d {
                    by_dist.resize_with(d + 1, Vec::new);
                }
                by_dist[d].push(r as u32);
            }
        }
        let mut d = 0;
        while d < by_dist.len() {
            let mut level = std::mem::take(&mut by_dist[d]);
            level.sort_unstable();
            for &u in &level {
                for &c in &self.customers[u as usize] {
                    if !table[c as usize].routed() {
                        table[c as usize] = Slot {
                            next: u,
                            dist: hop(d as u16),
                            class: RouteClass::Provider,
                        };
                        if by_dist.len() <= d + 1 {
                            by_dist.push(Vec::new());
                        }
                        by_dist[d + 1].push(c);
                    }
                }
            }
            d += 1;
        }
        table
    }

    /// The next-hop AS of `src`'s route toward `dst` (`dst` itself when
    /// `src == dst`), or `None` if `src` has no route.
    pub fn next_hop(&self, src: Asn, dst: Asn) -> Option<Asn> {
        let table = self.table(self.rank(dst)?);
        let slot = table[self.rank(src)?];
        slot.routed().then(|| self.asns[slot.next as usize])
    }

    /// Every AS's selected route toward `dst`, in ASN order (empty when
    /// `dst` is not in the relationship graph).
    pub fn routes(&self, dst: Asn) -> impl Iterator<Item = (Asn, RouteEntry)> + '_ {
        let table = self.rank(dst).map_or(&[][..], |d| self.table(d));
        table
            .iter()
            .zip(&self.asns)
            .filter(|(slot, _)| slot.routed())
            .map(|(slot, &asn)| {
                let entry = RouteEntry {
                    next: self.asns[slot.next as usize],
                    dist: u32::from(slot.dist),
                    class: slot.class,
                };
                (asn, entry)
            })
    }

    /// The AS path from `src` to `dst` (inclusive), or `None` if `src` has
    /// no route.
    pub fn as_path(&self, src: Asn, dst: Asn) -> Option<Vec<Asn>> {
        let Some(d) = self.rank(dst) else {
            return (src == dst).then(|| vec![src]);
        };
        let table = self.table(d);
        if src == dst {
            return Some(vec![src]);
        }
        let mut cur = self.rank(src)?;
        let mut path = Vec::with_capacity(usize::from(table[cur].dist) + 1);
        path.push(src);
        for _ in 0..64 {
            if cur == d {
                return Some(path);
            }
            let slot = table[cur];
            if !slot.routed() {
                return None;
            }
            cur = slot.next as usize;
            path.push(self.asns[cur]);
        }
        None // routing loop guard; unreachable by construction
    }

    /// Number of route tables computed so far (for tests / diagnostics).
    pub fn cached_trees(&self) -> usize {
        self.tables.iter().filter(|t| t.get().is_some()).count()
    }
}

/// Each rank's neighbours under `of`, as ranks.
fn ranked<I: Iterator<Item = Asn>>(asns: &[Asn], of: impl Fn(Asn) -> I) -> Vec<Vec<u32>> {
    asns.iter()
        .map(|&a| {
            of(a)
                .map(|n| asns.binary_search(&n).expect("neighbours are ranked") as u32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, Internet};
    use as_rel::valley_free;
    use std::collections::BTreeSet;

    /// The reference Gao-Rexford computation the dense tables replace: a
    /// `(dist, ASN)`-ordered `BTreeSet` frontier filling a `BTreeMap` tree.
    fn oracle_tree(
        rels: &AsRelationships,
        announce_via: &BTreeMap<Asn, Vec<Asn>>,
        dst: Asn,
    ) -> BTreeMap<Asn, RouteEntry> {
        use std::collections::btree_map::Entry;
        let mut tree = BTreeMap::from([(
            dst,
            RouteEntry {
                next: dst,
                dist: 0,
                class: RouteClass::Origin,
            },
        )]);

        // Phase A: customer routes climb provider edges.
        let mut frontier: BTreeSet<(u32, Asn)> = BTreeSet::from([(0, dst)]);
        while let Some((d, u)) = frontier.pop_first() {
            let providers: Vec<Asn> = match announce_via.get(&dst) {
                Some(via) if u == dst => via.clone(),
                _ => rels.providers_of(u).collect(),
            };
            for p in providers {
                if let Entry::Vacant(e) = tree.entry(p) {
                    e.insert(RouteEntry {
                        next: u,
                        dist: d + 1,
                        class: RouteClass::Customer,
                    });
                    frontier.insert((d + 1, p));
                }
            }
        }

        // Phase B: peer routes, one hop off the customer tree.
        let mut peer_routes: Vec<(Asn, RouteEntry)> = Vec::new();
        for (&a, e) in &tree {
            for peer in rels.peers_of(a) {
                if !tree.contains_key(&peer) {
                    let entry = RouteEntry {
                        next: a,
                        dist: e.dist + 1,
                        class: RouteClass::Peer,
                    };
                    peer_routes.push((peer, entry));
                }
            }
        }
        peer_routes.sort_by_key(|&(peer, e)| (peer, e.dist, e.next));
        for (peer, entry) in peer_routes {
            tree.entry(peer).or_insert(entry);
        }

        // Phase C: provider routes flood down p2c edges.
        let mut frontier: BTreeSet<(u32, Asn)> = tree.iter().map(|(&a, e)| (e.dist, a)).collect();
        while let Some((d, u)) = frontier.pop_first() {
            for c in rels.customers_of(u) {
                if let Entry::Vacant(e) = tree.entry(c) {
                    e.insert(RouteEntry {
                        next: u,
                        dist: d + 1,
                        class: RouteClass::Provider,
                    });
                    frontier.insert((d + 1, c));
                }
            }
        }
        tree
    }

    #[test]
    fn dense_tables_match_the_btreemap_oracle() {
        let configs = [
            GeneratorConfig::tiny(1),
            GeneratorConfig::tiny(2),
            GeneratorConfig::tiny(3),
            GeneratorConfig {
                realloc_prob: 1.0,
                stub_multihome_prob: 1.0,
                ..GeneratorConfig::tiny(4)
            },
            GeneratorConfig {
                seed: 5,
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                seed: 6,
                ..GeneratorConfig::default()
            },
        ];
        for cfg in configs {
            let net = Internet::generate(cfg);
            let rels = &net.graph.relationships;
            // Every multi-homed AS announcing through its last provider only.
            let restrict_all: BTreeMap<Asn, Vec<Asn>> = rels
                .ases()
                .into_iter()
                .filter(|&a| rels.providers_of(a).count() > 1)
                .map(|a| (a, rels.providers_of(a).max().into_iter().collect()))
                .collect();
            assert!(!restrict_all.is_empty());
            for via in [
                BTreeMap::new(),
                net.addressing.announce_via.clone(),
                restrict_all,
            ] {
                let routing = Routing::new(rels.clone(), via.clone());
                for dst in rels.ases() {
                    let dense: BTreeMap<Asn, RouteEntry> = routing.routes(dst).collect();
                    assert_eq!(dense, oracle_tree(rels, &via, dst), "table toward {dst}");
                }
            }
        }
    }

    /// 1 ─peer─ 2 ; 3 customer of 1 ; 4 customer of 2 ; 5 customer of 3 and 4.
    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        r.add_p2p(Asn(1), Asn(2));
        r.add_p2c(Asn(1), Asn(3));
        r.add_p2c(Asn(2), Asn(4));
        r.add_p2c(Asn(3), Asn(5));
        r.add_p2c(Asn(4), Asn(5));
        r
    }

    #[test]
    fn prefers_customer_routes() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // 3 reaches 5 via its customer directly, never via 1.
        assert_eq!(routing.as_path(Asn(3), Asn(5)), Some(vec![Asn(3), Asn(5)]));
        // 1 reaches 5 via customer 3 (customer route), not peer 2.
        assert_eq!(
            routing.as_path(Asn(1), Asn(5)),
            Some(vec![Asn(1), Asn(3), Asn(5)])
        );
    }

    #[test]
    fn peer_routes_used_when_no_customer_route() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // 3 → 4: no customer path (5 doesn't transit!), so 3 climbs to 1,
        // peers to 2, descends to 4.
        assert_eq!(
            routing.as_path(Asn(3), Asn(4)),
            Some(vec![Asn(3), Asn(1), Asn(2), Asn(4)])
        );
    }

    #[test]
    fn paths_are_valley_free() {
        let r = rels();
        let routing = Routing::new(r.clone(), BTreeMap::new());
        for src in [1u32, 2, 3, 4, 5] {
            for dst in [1u32, 2, 3, 4, 5] {
                let path = routing.as_path(Asn(src), Asn(dst)).unwrap();
                assert!(
                    valley_free(&r, &path),
                    "path {path:?} from {src} to {dst} has a valley"
                );
            }
        }
    }

    #[test]
    fn customers_never_transit() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // Route from 3 to 4 must not pass through their shared customer 5.
        let path = routing.as_path(Asn(3), Asn(4)).unwrap();
        assert!(!path[1..path.len() - 1].contains(&Asn(5)));
    }

    #[test]
    fn announce_via_restriction_respected() {
        // 5 announces only via 4: 3 must now route 3→1→2→4→5.
        let via = BTreeMap::from([(Asn(5), vec![Asn(4)])]);
        let routing = Routing::new(rels(), via);
        assert_eq!(
            routing.as_path(Asn(3), Asn(5)),
            Some(vec![Asn(3), Asn(1), Asn(2), Asn(4), Asn(5)])
        );
        // ...even though 3 is directly connected to 5, it holds no customer
        // route (5 withheld the announcement).
        let (_, route) = routing.routes(Asn(5)).find(|&(a, _)| a == Asn(3)).unwrap();
        assert_ne!(route.class, RouteClass::Customer);
        assert_eq!(routing.next_hop(Asn(3), Asn(5)), Some(Asn(1)));
    }

    #[test]
    fn tree_caching() {
        let routing = Routing::new(rels(), BTreeMap::new());
        assert_eq!(routing.cached_trees(), 0);
        routing.as_path(Asn(3), Asn(5));
        routing.next_hop(Asn(4), Asn(5));
        assert_eq!(routing.cached_trees(), 1);
        // A trivial path still materialises its destination's table.
        routing.as_path(Asn(2), Asn(2));
        assert_eq!(routing.cached_trees(), 2);
    }

    #[test]
    fn unreachable_when_no_relationship_graph() {
        let routing = Routing::new(AsRelationships::new(), BTreeMap::new());
        // src == dst is trivially reachable.
        assert_eq!(routing.as_path(Asn(9), Asn(9)), Some(vec![Asn(9)]));
        assert_eq!(routing.as_path(Asn(8), Asn(9)), None);
        assert_eq!(routing.next_hop(Asn(8), Asn(9)), None);
        assert_eq!(routing.routes(Asn(9)).count(), 0);
    }

    #[test]
    fn dist_monotone_along_path() {
        let routing = Routing::new(rels(), BTreeMap::new());
        let tree: BTreeMap<Asn, RouteEntry> = routing.routes(Asn(5)).collect();
        assert_eq!(tree.len(), 5);
        for (&asn, entry) in &tree {
            if asn == Asn(5) {
                assert_eq!(entry.dist, 0);
                continue;
            }
            let next_entry = &tree[&entry.next];
            assert_eq!(entry.dist, next_entry.dist + 1);
        }
    }
}
