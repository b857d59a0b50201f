//! Address-space allocation and announcement policy.
//!
//! Each AS receives a block sized by tier. The low half of the block is
//! *host space* (traceroute destinations live there); the high half is
//! *infrastructure space* (router interfaces are numbered from it). On top
//! of the clean allocation, this module plants the pathologies the paper's
//! heuristics target:
//!
//! * **Reallocated prefixes** (§4.4, §6.1.2): a multihomed stub customer
//!   gets a /24 carved from its primary provider's block. The customer
//!   numbers its infrastructure and the provider link from that /24, and
//!   announces its *own* block only through its secondary provider — so BGP
//!   shows no adjacency between reallocating provider and customer, and the
//!   /24 itself resolves to the provider by longest prefix match.
//! * **Stale RIR delegations** (§4.1): some ipv4 records point at an org
//!   with a different (previous holder) ASN.
//! * **Unannounced space** (§6.1.1): some ASes number a share of internal
//!   links from dark space absent from BGP; half of those at least appear in
//!   RIR delegations, half resolve to nothing at all.
//! * **IXP LAN leakage** (§4.1): some IXP peering LANs are originated into
//!   BGP by a member, which is exactly why the IXP prefix directory must
//!   shadow BGP origins.

use crate::asgraph::AsGraph;
use crate::{GeneratorConfig, Tier};
use bgp::ixp::{Ixp, IxpDirectory};
use bgp::rir::{AsnRecord, DelegationTable, Ipv4Record, Registry};
use net_types::{Asn, Prefix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A /24 reallocated from a provider's block to a customer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Realloc {
    /// The reallocated prefix (inside the provider's block).
    pub prefix: Prefix,
    /// The reallocating provider (announces the covering prefix).
    pub provider: Asn,
    /// The customer that actually uses the space.
    pub customer: Asn,
}

/// Dark (unannounced) space assigned to an AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DarkBlock {
    /// The block.
    pub prefix: Prefix,
    /// Who uses it.
    pub owner: Asn,
    /// Whether an RIR delegation record exists for it (if not, addresses
    /// from it are fully unannounced).
    pub in_rir: bool,
}

/// The complete addressing plan for a synthetic Internet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Addressing {
    /// Primary allocation per AS.
    pub blocks: BTreeMap<Asn, Prefix>,
    /// `(prefix, origin)` pairs announced into BGP.
    pub announced: Vec<(Prefix, Asn)>,
    /// Which provider(s) an AS announces through; absent = all providers.
    pub announce_via: BTreeMap<Asn, Vec<Asn>>,
    /// Reallocated /24s.
    pub reallocs: Vec<Realloc>,
    /// `(/24 number, index into reallocs)`, ascending, for
    /// [`Addressing::realloc_covering`]'s binary search.
    realloc_index: Vec<(u32, u32)>,
    /// Dark space.
    pub dark: Vec<DarkBlock>,
    /// RIR delegation table (with staleness).
    pub delegations: DelegationTable,
    /// IXP directory with peering LAN prefixes filled in.
    pub ixps: IxpDirectory,
}

/// Sequential address allocator inside a prefix region.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddrPool {
    region: Prefix,
    next: u32,
}

impl AddrPool {
    /// A pool over the whole region, starting at its first address.
    pub fn new(region: Prefix) -> Self {
        AddrPool {
            region,
            next: region.addr(),
        }
    }

    /// Hands out the next address.
    ///
    /// # Panics
    /// Panics if the region is exhausted — a config error, since region
    /// sizes are chosen to dominate interface counts.
    pub fn take(&mut self) -> u32 {
        assert!(
            self.region.contains(self.next),
            "address pool {} exhausted",
            self.region
        );
        let addr = self.next;
        self.next += 1;
        addr
    }

    /// Hands out `n` consecutive addresses.
    pub fn take_n(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.take()).collect()
    }

    /// Hands out a /31-aligned address pair, the way operators number
    /// point-to-point links (alias-resolution heuristics depend on the
    /// subnet-mate relation holding).
    pub fn take_p2p_pair(&mut self) -> (u32, u32) {
        if self.next & 1 == 1 {
            self.take(); // burn the odd address to realign
        }
        let a = self.take();
        let b = self.take();
        (a, b)
    }

    /// The region this pool draws from.
    pub fn region(&self) -> Prefix {
        self.region
    }

    /// Addresses handed out so far.
    pub fn used(&self) -> u32 {
        self.next - self.region.addr()
    }
}

/// Block length (CIDR prefix length) by tier.
pub fn block_len(tier: Tier) -> u8 {
    match tier {
        Tier::Clique => 14,
        Tier::Transit => 15,
        Tier::Access => 16,
        Tier::ResearchEducation => 16,
        Tier::Stub => 22,
    }
}

/// Base of the allocation region for AS blocks.
const ALLOC_BASE: u32 = 0x14000000; // 20.0.0.0
/// Base of the IXP LAN region (real IXP space historically lived around
/// 198.32.0.0/16, so we mimic it).
const IXP_BASE: u32 = 0xC6200000; // 198.32.0.0
/// Base of the dark-space region.
const DARK_BASE: u32 = 0x66000000; // 102.0.0.0

impl Addressing {
    /// Builds the addressing plan for an AS graph.
    pub fn generate(cfg: &GeneratorConfig, graph: &AsGraph) -> Addressing {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xA5A5_0002);
        let mut blocks: BTreeMap<Asn, Prefix> = BTreeMap::new();
        let mut delegations = DelegationTable::new();

        // ---- primary blocks, aligned bump allocation ----
        let mut cursor = ALLOC_BASE;
        for node in graph.nodes.values() {
            let len = block_len(node.tier);
            let size = 1u32 << (32 - len);
            // Align the cursor to the block size.
            cursor = (cursor + size - 1) & !(size - 1);
            let block = Prefix::new(cursor, len);
            cursor += size;
            blocks.insert(node.asn, block);

            // RIR delegation for the block; sometimes stale.
            let org = if rng.gen_bool(cfg.stale_rir_prob) {
                // Previous holder: a different org whose asn record points
                // at another AS in the graph (deterministic pick).
                let victims: Vec<Asn> = graph.nodes.keys().copied().collect();
                let other = victims[rng.gen_range(0..victims.len())];
                if other != node.asn {
                    format!("ORG-{}", other.0)
                } else {
                    format!("ORG-{}", node.asn.0)
                }
            } else {
                format!("ORG-{}", node.asn.0)
            };
            delegations.add_ipv4(Ipv4Record {
                registry: Registry::Arin,
                prefix: block,
                org,
            });
        }
        // One asn record per AS.
        for node in graph.nodes.values() {
            delegations.add_asn(AsnRecord {
                registry: Registry::Arin,
                asn: node.asn,
                org: format!("ORG-{}", node.asn.0),
            });
        }

        // ---- reallocated /24s for multihomed stubs ----
        let mut reallocs = Vec::new();
        let mut announce_via: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        let mut realloc_slots: BTreeMap<Asn, u32> = BTreeMap::new(); // next /24 index per provider
        for node in graph.nodes.values() {
            if node.tier != Tier::Stub {
                continue;
            }
            let providers: Vec<Asn> = graph.relationships.providers_of(node.asn).collect();
            if providers.len() < 2 || !rng.gen_bool(cfg.realloc_prob) {
                continue;
            }
            let provider = providers[0];
            let secondary = providers[1];
            let pblock = blocks[&provider];
            // Carve the next /24 from the TOP of the provider's block,
            // descending, so reallocations never collide with the provider's
            // own infrastructure region (which grows from the middle).
            let slot = realloc_slots.entry(provider).or_insert(0);
            let index = *slot;
            *slot += 1;
            let addr = pblock.last_addr() - 255 - index * 256;
            let r24 = Prefix::new(addr & !0xff, 24);
            if !pblock.covers(r24) {
                continue; // provider block exhausted; skip
            }
            reallocs.push(Realloc {
                prefix: r24,
                provider,
                customer: node.asn,
            });
            // The customer's own block is announced only via the secondary
            // provider, hiding the provider–customer adjacency from BGP.
            announce_via.insert(node.asn, vec![secondary]);
        }

        // ---- dark space ----
        let mut dark = Vec::new();
        let mut dark_cursor = DARK_BASE;
        for node in graph.nodes.values() {
            if node.tier == Tier::Stub || !rng.gen_bool(cfg.unannounced_space_prob) {
                continue;
            }
            let block = Prefix::new(dark_cursor, 24);
            dark_cursor += 256;
            let in_rir = rng.gen_bool(0.5);
            if in_rir {
                delegations.add_ipv4(Ipv4Record {
                    registry: Registry::RipeNcc,
                    prefix: block,
                    org: format!("ORG-{}", node.asn.0),
                });
            }
            dark.push(DarkBlock {
                prefix: block,
                owner: node.asn,
                in_rir,
            });
        }

        // ---- IXP LANs ----
        let mut ixp_dir = IxpDirectory::new();
        let mut announced: Vec<(Prefix, Asn)> = Vec::new();
        for spec in &graph.ixps {
            let lan = Prefix::new(IXP_BASE + spec.id * 256, 24);
            // Some members leak the LAN into BGP (§4.1's motivation for the
            // IXP prefix list).
            if !spec.members.is_empty() && rng.gen_bool(cfg.ixp_bgp_leak_prob) {
                let leaker = spec.members[rng.gen_range(0..spec.members.len())];
                announced.push((lan, leaker));
            }
            ixp_dir.add(Ixp {
                id: spec.id,
                name: format!("Synthetic-IX {}", spec.id),
                prefix: lan,
                members: spec.members.clone(),
            });
        }

        // ---- announcements ----
        for node in graph.nodes.values() {
            announced.push((blocks[&node.asn], node.asn));
        }

        // Every realloc is a distinct /24, so the first one covering an
        // address is the only one and a binary search finds it.
        let mut realloc_index: Vec<(u32, u32)> = reallocs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                assert_eq!(r.prefix.len(), 24, "reallocs are /24s");
                (r.prefix.addr() >> 8, i as u32)
            })
            .collect();
        realloc_index.sort_unstable();
        assert!(
            realloc_index.windows(2).all(|w| w[0].0 != w[1].0),
            "reallocs are distinct /24s"
        );

        Addressing {
            blocks,
            announced,
            announce_via,
            reallocs,
            realloc_index,
            dark,
            delegations,
            ixps: ixp_dir,
        }
    }

    /// The infrastructure pool for an AS: reallocated customers number from
    /// their /24; everyone else numbers from the middle of their own block.
    pub fn infra_pool(&self, asn: Asn) -> AddrPool {
        if let Some(r) = self.reallocs.iter().find(|r| r.customer == asn) {
            return AddrPool::new(r.prefix);
        }
        let block = self.blocks[&asn];
        // Infrastructure occupies the upper half of the block (minus any
        // reallocated /24s carved from the very top, which descend from the
        // end; the gap between is ample at our scales).
        let (_, hi) = block.children().expect("blocks are shorter than /32");
        AddrPool::new(hi)
    }

    /// The host (destination) region for an AS: the lower half of its block.
    pub fn host_region(&self, asn: Asn) -> Prefix {
        let block = self.blocks[&asn];
        let (lo, _) = block.children().expect("blocks are shorter than /32");
        lo
    }

    /// The dark-space pool for an AS, if it was assigned one.
    pub fn dark_pool(&self, asn: Asn) -> Option<AddrPool> {
        self.dark
            .iter()
            .find(|d| d.owner == asn)
            .map(|d| AddrPool::new(d.prefix))
    }

    /// The reallocation record for a customer, if any.
    pub fn realloc_for_customer(&self, asn: Asn) -> Option<&Realloc> {
        self.reallocs.iter().find(|r| r.customer == asn)
    }

    /// The reallocated /24 covering `addr`, if any.
    pub fn realloc_covering(&self, addr: u32) -> Option<&Realloc> {
        let i = self
            .realloc_index
            .binary_search_by_key(&(addr >> 8), |&(slash24, _)| slash24)
            .ok()?;
        Some(&self.reallocs[self.realloc_index[i].1 as usize])
    }

    /// Ground truth: which AS actually holds `addr` (reallocations and dark
    /// space resolve to the *customer*/user, not the announcing AS).
    pub fn true_holder(&self, addr: u32) -> Option<Asn> {
        if let Some(r) = self.realloc_covering(addr) {
            return Some(r.customer);
        }
        if let Some(d) = self.dark.iter().find(|d| d.prefix.contains(addr)) {
            return Some(d.owner);
        }
        self.blocks
            .iter()
            .find(|(_, block)| block.contains(addr))
            .map(|(&asn, _)| asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (GeneratorConfig, AsGraph, Addressing) {
        let cfg = GeneratorConfig::tiny(21);
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        (cfg, graph, addr)
    }

    #[test]
    fn blocks_are_disjoint() {
        let (_, _, addr) = fixture();
        let blocks: Vec<Prefix> = addr.blocks.values().copied().collect();
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks.iter().skip(i + 1) {
                assert!(!a.overlaps(*b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn block_sizes_match_tier() {
        let (_, graph, addr) = fixture();
        for node in graph.nodes.values() {
            assert_eq!(addr.blocks[&node.asn].len(), block_len(node.tier));
        }
    }

    #[test]
    fn every_as_announces_its_block() {
        let (_, graph, addr) = fixture();
        for node in graph.nodes.values() {
            assert!(
                addr.announced
                    .iter()
                    .any(|&(p, o)| o == node.asn && p == addr.blocks[&node.asn]),
                "{} missing announcement",
                node.asn
            );
        }
    }

    #[test]
    fn reallocs_are_inside_provider_blocks_and_unannounced() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(33)
        };
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        assert!(!addr.reallocs.is_empty());
        for r in &addr.reallocs {
            assert!(addr.blocks[&r.provider].covers(r.prefix));
            assert_eq!(r.prefix.len(), 24);
            // Never announced as its own prefix.
            assert!(!addr.announced.iter().any(|&(p, _)| p == r.prefix));
            // The customer announces via the secondary provider only.
            let via = &addr.announce_via[&r.customer];
            assert_eq!(via.len(), 1);
            assert_ne!(via[0], r.provider);
            // True holder of realloc space is the customer.
            assert_eq!(addr.true_holder(r.prefix.addr()), Some(r.customer));
            // Infra pool draws from the realloc prefix.
            assert_eq!(addr.infra_pool(r.customer).region(), r.prefix);
        }
    }

    #[test]
    fn realloc_slots_do_not_collide() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(5)
        };
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        for (i, a) in addr.reallocs.iter().enumerate() {
            for b in addr.reallocs.iter().skip(i + 1) {
                assert_ne!(a.prefix, b.prefix, "realloc /24 collision");
            }
        }
    }

    #[test]
    fn host_and_infra_regions_split_the_block() {
        let (_, graph, addr) = fixture();
        for node in graph.nodes.values() {
            if addr.realloc_for_customer(node.asn).is_some() {
                continue;
            }
            let block = addr.blocks[&node.asn];
            let host = addr.host_region(node.asn);
            let infra = addr.infra_pool(node.asn).region();
            assert!(block.covers(host));
            assert!(block.covers(infra));
            assert!(!host.overlaps(infra));
        }
    }

    #[test]
    fn dark_space_outside_allocations() {
        let cfg = GeneratorConfig {
            unannounced_space_prob: 1.0,
            ..GeneratorConfig::tiny(17)
        };
        let graph = AsGraph::generate(&cfg);
        let addr = Addressing::generate(&cfg, &graph);
        assert!(!addr.dark.is_empty());
        for d in &addr.dark {
            for block in addr.blocks.values() {
                assert!(!d.prefix.overlaps(*block));
            }
            assert!(!addr.announced.iter().any(|&(p, _)| p.overlaps(d.prefix)));
            assert_eq!(addr.true_holder(d.prefix.addr()), Some(d.owner));
        }
        // Both RIR-covered and fully-dark variants should occur at prob 1.
        assert!(addr.dark.iter().any(|d| d.in_rir));
        assert!(addr.dark.iter().any(|d| !d.in_rir));
    }

    #[test]
    fn ixp_lans_present() {
        let (cfg, _, addr) = fixture();
        assert_eq!(addr.ixps.len(), cfg.ixp_count);
        for ixp in addr.ixps.iter() {
            assert_eq!(ixp.prefix.len(), 24);
            assert!(ixp.members.len() >= 2);
        }
    }

    #[test]
    fn addr_pool_sequential() {
        let mut pool = AddrPool::new("10.0.0.0/30".parse().unwrap());
        assert_eq!(pool.take(), 0x0a000000);
        assert_eq!(pool.take(), 0x0a000001);
        assert_eq!(pool.take_n(2), vec![0x0a000002, 0x0a000003]);
        assert_eq!(pool.used(), 4);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn addr_pool_exhaustion_panics() {
        let mut pool = AddrPool::new("10.0.0.0/31".parse().unwrap());
        pool.take();
        pool.take();
        pool.take();
    }
}
