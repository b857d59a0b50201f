//! AS-level graph generation: tiers, relationships, IXP fabrics.

use crate::{GeneratorConfig, Tier};
use as_rel::AsRelationships;
use net_types::Asn;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One AS in the synthetic Internet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy role.
    pub tier: Tier,
    /// Stub ASes only: drops all externally-sourced traceroute probes at its
    /// border (paper §5's motivating case).
    pub firewalled: bool,
    /// For firewalled ASes: whether the border router itself still answers
    /// (it filters what is *behind* it), or the filter drops at the border
    /// so the provider's router becomes the last visible hop. Both shapes
    /// appear in §5's motivation.
    pub firewall_border_responds: bool,
}

/// An IXP before addressing: identity and membership.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IxpSpec {
    /// Directory id.
    pub id: u32,
    /// Members with a fabric port.
    pub members: Vec<Asn>,
}

/// The generated AS-level topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsGraph {
    /// All ASes, keyed by ASN.
    pub nodes: BTreeMap<Asn, AsNode>,
    /// Ground-truth business relationships (includes IXP peerings).
    pub relationships: AsRelationships,
    /// IXPs and their membership.
    pub ixps: Vec<IxpSpec>,
    /// Peerings established over an IXP fabric: `(a, b, ixp id)`. These AS
    /// pairs interconnect through the shared LAN instead of a private link.
    pub ixp_peerings: Vec<(Asn, Asn, u32)>,
    /// `ixp_peerings` sorted by AS pair, for [`AsGraph::ixp_for_pair`]'s
    /// binary search. A pair appears at most once: a fabric peering is only
    /// added where the two ASes had no relationship yet.
    ixp_index: Vec<(Asn, Asn, u32)>,
}

/// ASN numbering scheme: readable, collision-free ranges per tier.
pub fn asn_for(tier: Tier, index: usize) -> Asn {
    let base = match tier {
        Tier::Clique => 100,
        Tier::Transit => 1_000,
        Tier::Access => 2_000,
        Tier::ResearchEducation => 3_000,
        Tier::Stub => 10_000,
    };
    Asn(base + index as u32)
}

impl AsGraph {
    /// Generates the AS graph from a config. Deterministic in the seed.
    pub fn generate(cfg: &GeneratorConfig) -> AsGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xA5A5_0001);
        let mut nodes: BTreeMap<Asn, AsNode> = BTreeMap::new();
        let mut rels = AsRelationships::new();

        let mut tier_members: BTreeMap<Tier, Vec<Asn>> = BTreeMap::new();
        let tier_counts = [
            (Tier::Clique, cfg.clique_size),
            (Tier::Transit, cfg.transit_count),
            (Tier::Access, cfg.access_count),
            (Tier::ResearchEducation, cfg.re_count),
            (Tier::Stub, cfg.stub_count),
        ];
        for (tier, count) in tier_counts {
            for i in 0..count {
                let asn = asn_for(tier, i);
                let firewalled = tier == Tier::Stub && rng.gen_bool(cfg.stub_firewall_prob);
                let firewall_border_responds = firewalled && rng.gen_bool(0.5);
                nodes.insert(
                    asn,
                    AsNode {
                        asn,
                        tier,
                        firewalled,
                        firewall_border_responds,
                    },
                );
                tier_members.entry(tier).or_default().push(asn);
            }
        }
        let clique = tier_members.get(&Tier::Clique).cloned().unwrap_or_default();
        let transits = tier_members
            .get(&Tier::Transit)
            .cloned()
            .unwrap_or_default();
        let accesses = tier_members.get(&Tier::Access).cloned().unwrap_or_default();
        let res = tier_members
            .get(&Tier::ResearchEducation)
            .cloned()
            .unwrap_or_default();
        let stubs = tier_members.get(&Tier::Stub).cloned().unwrap_or_default();

        // Tier-1 clique: full peering mesh.
        for (i, &a) in clique.iter().enumerate() {
            for &b in clique.iter().skip(i + 1) {
                rels.add_p2p(a, b);
            }
        }

        // Transit: 2–3 clique providers (tier-1s sell transit to every large
        // network — this is what puts them at the top of the transit-degree
        // ranking, the property clique inference keys on); lateral peering
        // with probability.
        for &t in &transits {
            for &p in &pick_distinct(&clique, 3.min(clique.len()), &mut rng) {
                rels.add_p2c(p, t);
            }
        }
        for (i, &a) in transits.iter().enumerate() {
            for &b in transits.iter().skip(i + 1) {
                if rng.gen_bool(cfg.transit_peering_prob) {
                    rels.add_p2p(a, b);
                }
            }
        }

        // Access: providers drawn from transit and, for a sizable share,
        // directly from the clique (large eyeballs buy from tier-1s).
        for &a in &accesses {
            let n_providers = 1 + rng.gen_range(0..=1);
            for _ in 0..n_providers {
                let provider = if rng.gen_bool(0.5) {
                    *choose(&clique, &mut rng)
                } else {
                    *choose(&transits, &mut rng)
                };
                rels.add_p2c(provider, a);
            }
        }

        // R&E: transit or tier-1 providers, plus a peering mesh among
        // themselves (national R&E backbones typically interconnect).
        for &r in &res {
            let n_providers = 1 + rng.gen_range(0..=1);
            for _ in 0..n_providers {
                let provider = if rng.gen_bool(0.3) {
                    *choose(&clique, &mut rng)
                } else {
                    *choose(&transits, &mut rng)
                };
                rels.add_p2c(provider, r);
            }
        }
        for (i, &a) in res.iter().enumerate() {
            for &b in res.iter().skip(i + 1) {
                if rng.gen_bool(0.4) {
                    rels.add_p2p(a, b);
                }
            }
        }

        // Stubs: one provider from access ∪ transit ∪ R&E ∪ clique (plenty
        // of enterprises buy directly from tier-1s); multihomed with
        // probability (the §6.1.3 multihomed-customer exception needs these).
        let mut stub_provider_pool: Vec<Asn> = Vec::new();
        stub_provider_pool.extend(&accesses);
        stub_provider_pool.extend(&transits);
        stub_provider_pool.extend(&res);
        stub_provider_pool.extend(&clique);
        for &s in &stubs {
            let primary = *choose(&stub_provider_pool, &mut rng);
            rels.add_p2c(primary, s);
            if rng.gen_bool(cfg.stub_multihome_prob) {
                // A second, distinct provider.
                for _ in 0..8 {
                    let second = *choose(&stub_provider_pool, &mut rng);
                    if second != primary {
                        rels.add_p2c(second, s);
                        break;
                    }
                }
            }
        }

        // IXPs: membership from transit/access/R&E; new peerings across the
        // fabric between members with no existing relationship.
        let mut ixps = Vec::new();
        let mut ixp_peerings = Vec::new();
        let mut member_pool: Vec<Asn> = Vec::new();
        member_pool.extend(&transits);
        member_pool.extend(&accesses);
        member_pool.extend(&res);
        for ixp_id in 0..cfg.ixp_count as u32 {
            let mut members: Vec<Asn> = member_pool
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(cfg.ixp_join_prob))
                .collect();
            members.sort_unstable();
            members.dedup();
            if members.len() < 2 {
                // Ensure every IXP has at least two members.
                members = pick_distinct(&member_pool, 2.min(member_pool.len()), &mut rng);
                members.sort_unstable();
            }
            for (i, &a) in members.iter().enumerate() {
                for &b in members.iter().skip(i + 1) {
                    if !rels.has_relationship(a, b) && rng.gen_bool(0.25) {
                        rels.add_p2p(a, b);
                        ixp_peerings.push((a, b, ixp_id));
                    }
                }
            }
            ixps.push(IxpSpec {
                id: ixp_id,
                members,
            });
        }

        let mut ixp_index = ixp_peerings.clone();
        ixp_index.sort_unstable();
        AsGraph {
            nodes,
            relationships: rels,
            ixps,
            ixp_peerings,
            ixp_index,
        }
    }

    /// All ASNs of a tier, ascending.
    pub fn tier_members(&self, tier: Tier) -> Vec<Asn> {
        self.nodes
            .values()
            .filter(|n| n.tier == tier)
            .map(|n| n.asn)
            .collect()
    }

    /// Total AS count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Lookup one AS.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.nodes.get(&asn)
    }

    /// Does the AS pair interconnect over an IXP fabric (rather than a
    /// private link)?
    pub fn ixp_for_pair(&self, a: Asn, b: Asn) -> Option<u32> {
        let key = (a.min(b), a.max(b));
        self.ixp_index
            .binary_search_by_key(&key, |&(x, y, _)| (x, y))
            .ok()
            .map(|i| self.ixp_index[i].2)
    }
}

fn choose<'a, T>(slice: &'a [T], rng: &mut ChaCha8Rng) -> &'a T {
    slice.choose(rng).expect("non-empty pool")
}

fn pick_distinct(pool: &[Asn], n: usize, rng: &mut ChaCha8Rng) -> Vec<Asn> {
    let mut picked: Vec<Asn> = pool.choose_multiple(rng, n).copied().collect();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rel::{valley_free, CustomerCones};

    #[test]
    fn deterministic() {
        let cfg = GeneratorConfig::tiny(42);
        let g1 = AsGraph::generate(&cfg);
        let g2 = AsGraph::generate(&cfg);
        assert_eq!(g1.relationships.len(), g2.relationships.len());
        assert_eq!(
            serde_json::to_string(&g1.ixps).unwrap(),
            serde_json::to_string(&g2.ixps).unwrap()
        );
        // A different seed should change something.
        let g3 = AsGraph::generate(&GeneratorConfig::tiny(43));
        assert!(
            g1.relationships.to_serial1() != g3.relationships.to_serial1()
                || g1.ixp_peerings != g3.ixp_peerings
        );
    }

    #[test]
    fn tier_counts_respected() {
        let cfg = GeneratorConfig::tiny(7);
        let g = AsGraph::generate(&cfg);
        assert_eq!(g.len(), cfg.as_count());
        assert_eq!(g.tier_members(Tier::Clique).len(), cfg.clique_size);
        assert_eq!(g.tier_members(Tier::Stub).len(), cfg.stub_count);
    }

    #[test]
    fn clique_is_full_mesh() {
        let g = AsGraph::generate(&GeneratorConfig::tiny(7));
        let clique = g.tier_members(Tier::Clique);
        for (i, &a) in clique.iter().enumerate() {
            for &b in clique.iter().skip(i + 1) {
                assert!(g.relationships.is_peer(a, b), "{a} and {b} must peer");
            }
        }
    }

    #[test]
    fn every_non_clique_as_has_a_provider() {
        let g = AsGraph::generate(&GeneratorConfig::tiny(7));
        for node in g.nodes.values() {
            if node.tier != Tier::Clique {
                assert!(
                    g.relationships.providers_of(node.asn).next().is_some(),
                    "{} ({:?}) has no provider",
                    node.asn,
                    node.tier
                );
            } else {
                assert_eq!(g.relationships.providers_of(node.asn).count(), 0);
            }
        }
    }

    #[test]
    fn hierarchy_reaches_clique() {
        // Every AS must have a valley-free path to the clique: climb
        // providers greedily and confirm arrival.
        let g = AsGraph::generate(&GeneratorConfig::tiny(9));
        let clique = g.tier_members(Tier::Clique);
        for node in g.nodes.values() {
            let mut cur = node.asn;
            let mut hops = 0;
            while !clique.contains(&cur) {
                let Some(p) = g.relationships.providers_of(cur).next() else {
                    panic!("{cur} stranded below the clique");
                };
                cur = p;
                hops += 1;
                assert!(hops < 10, "provider chain too deep at {}", node.asn);
            }
        }
    }

    #[test]
    fn up_peer_down_paths_are_valley_free() {
        let g = AsGraph::generate(&GeneratorConfig::tiny(5));
        let clique = g.tier_members(Tier::Clique);
        // A canonical up-peer-down path across two clique members.
        let stub = g.tier_members(Tier::Stub)[0];
        let p1 = g.relationships.providers_of(stub).next().unwrap();
        let mut up = vec![stub, p1];
        let mut cur = p1;
        while !clique.contains(&cur) {
            cur = g.relationships.providers_of(cur).next().unwrap();
            up.push(cur);
        }
        let other = clique.iter().copied().find(|&c| c != cur).unwrap();
        up.push(other);
        assert!(valley_free(&g.relationships, &up));
    }

    #[test]
    fn ixps_have_members_and_peerings_recorded() {
        let g = AsGraph::generate(&GeneratorConfig::tiny(11));
        assert_eq!(g.ixps.len(), 2);
        for ixp in &g.ixps {
            assert!(ixp.members.len() >= 2);
        }
        for &(a, b, id) in &g.ixp_peerings {
            assert!(g.relationships.is_peer(a, b));
            assert_eq!(g.ixp_for_pair(a, b), Some(id));
            assert_eq!(g.ixp_for_pair(b, a), Some(id));
        }
    }

    #[test]
    fn ixp_index_matches_a_linear_scan() {
        for seed in 0..8 {
            let g = AsGraph::generate(&GeneratorConfig::tiny(seed));
            let mut pairs: Vec<(Asn, Asn)> =
                g.ixp_peerings.iter().map(|&(a, b, _)| (a, b)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), g.ixp_peerings.len(), "a pair peers twice");
            for (a, b, _) in g.relationships.iter() {
                let scan = g
                    .ixp_peerings
                    .iter()
                    .find(|&&(x, y, _)| (x, y) == (a, b))
                    .map(|&(_, _, id)| id);
                assert_eq!(g.ixp_for_pair(a, b), scan);
                assert_eq!(g.ixp_for_pair(b, a), scan);
            }
        }
    }

    #[test]
    fn cones_are_sane() {
        let g = AsGraph::generate(&GeneratorConfig::tiny(13));
        let cones = CustomerCones::compute(&g.relationships);
        // Stubs have the smallest cones.
        for s in g.tier_members(Tier::Stub) {
            assert_eq!(cones.size(s), 1);
        }
        // Clique cones dominate stub cones.
        let max_clique_cone = g
            .tier_members(Tier::Clique)
            .into_iter()
            .map(|a| cones.size(a))
            .max()
            .unwrap();
        assert!(max_clique_cone > 10);
    }
}
