//! The combined IP→origin-AS oracle (paper §4.1).
//!
//! Lookup order matches the paper exactly:
//!
//! 1. **IXP prefixes** are checked first and flagged: "some ASes originate
//!    IXP prefixes in BGP, which could cause unrelated ASes to be included
//!    in an origin AS set", so IXP coverage must shadow BGP origins.
//! 2. **BGP announcements**: longest matching announced prefix, origin =
//!    last AS in the path.
//! 3. **RIR delegations**, but "only ... the prefixes from RIR delegations
//!    not already covered by a BGP prefix" — staleness protection.
//! 4. Anything else is *unannounced* ([`OriginKind::Unannounced`]).

use crate::ixp::IxpDirectory;
use crate::rir::DelegationTable;
use crate::Rib;
use net_types::{Asn, Prefix, PrefixTrie};

/// Which data source resolved an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OriginKind {
    /// Covered by an IXP peering LAN; origin votes must be suppressed.
    Ixp,
    /// Longest matching BGP prefix.
    Bgp,
    /// RIR delegation not covered by any BGP prefix.
    Rir,
    /// No matching prefix anywhere.
    Unannounced,
}

/// The result of resolving one address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OriginInfo {
    /// The origin AS ([`Asn::NONE`] for IXP and unannounced addresses).
    pub asn: Asn,
    /// Which source matched.
    pub kind: OriginKind,
    /// The matching prefix (`None` only for unannounced addresses).
    pub prefix: Option<Prefix>,
}

impl OriginInfo {
    /// The unannounced result.
    pub const UNANNOUNCED: OriginInfo = OriginInfo {
        asn: Asn::NONE,
        kind: OriginKind::Unannounced,
        prefix: None,
    };
}

/// The combined longest-prefix-match oracle consumed by the inference
/// algorithms.
#[derive(Clone, Debug, Default)]
pub struct IpToAs {
    bgp: PrefixTrie<Asn>,
    rir: PrefixTrie<Asn>,
    ixp: PrefixTrie<u32>,
}

impl IpToAs {
    /// Builds the oracle from the three paper inputs, reading the BGP
    /// layer's origins off `rib`.
    pub fn build(rib: &Rib, delegations: &DelegationTable, ixps: &IxpDirectory) -> Self {
        IpToAs::from_origins(rib.origin_table(), delegations, ixps)
    }

    /// Builds the oracle from BGP `(prefix, origin)` pairs (a RIB's origin
    /// table, or a CAIDA-style `prefix2as` file), RIR delegations and IXPs.
    ///
    /// RIR prefixes already covered by (equal to or contained in) a BGP
    /// prefix are dropped here, implementing the paper's staleness rule.
    pub fn from_origins<I: IntoIterator<Item = (Prefix, Asn)>>(
        origins: I,
        delegations: &DelegationTable,
        ixps: &IxpDirectory,
    ) -> Self {
        let bgp: PrefixTrie<Asn> = origins.into_iter().collect();
        let joined = delegations.join();
        let mut rir = PrefixTrie::new();
        for (prefix, &asn) in joined.iter() {
            // Covered by BGP at or above this prefix → stale risk → skip.
            if bgp
                .longest_match(prefix.addr())
                .is_some_and(|(p, _)| p.covers(prefix))
            {
                continue;
            }
            rir.insert(prefix, asn);
        }
        let ixp = ixps.iter().map(|i| (i.prefix, i.id)).collect();
        IpToAs { bgp, rir, ixp }
    }

    /// Builds a BGP-only oracle from raw `(prefix, origin)` pairs, with no
    /// RIR or IXP layer — useful in tests.
    pub fn from_pairs<I: IntoIterator<Item = (Prefix, Asn)>>(pairs: I) -> Self {
        IpToAs {
            bgp: pairs.into_iter().collect(),
            rir: PrefixTrie::new(),
            ixp: PrefixTrie::new(),
        }
    }

    /// Adds IXP prefixes to an oracle built with [`IpToAs::from_pairs`].
    pub fn with_ixps(mut self, ixps: &IxpDirectory) -> Self {
        self.ixp = ixps.iter().map(|i| (i.prefix, i.id)).collect();
        self
    }

    /// Resolves one address.
    pub fn lookup(&self, addr: u32) -> OriginInfo {
        if let Some((prefix, _)) = self.ixp.longest_match(addr) {
            return OriginInfo {
                asn: Asn::NONE,
                kind: OriginKind::Ixp,
                prefix: Some(prefix),
            };
        }
        if let Some((prefix, &asn)) = self.bgp.longest_match(addr) {
            return OriginInfo {
                asn,
                kind: OriginKind::Bgp,
                prefix: Some(prefix),
            };
        }
        if let Some((prefix, &asn)) = self.rir.longest_match(addr) {
            return OriginInfo {
                asn,
                kind: OriginKind::Rir,
                prefix: Some(prefix),
            };
        }
        OriginInfo::UNANNOUNCED
    }

    /// Shorthand: the origin AS for `addr` ([`Asn::NONE`] if IXP-covered or
    /// unannounced).
    pub fn origin(&self, addr: u32) -> Asn {
        self.lookup(addr).asn
    }

    /// Is `addr` inside an IXP peering LAN?
    pub fn is_ixp(&self, addr: u32) -> bool {
        self.ixp.longest_match(addr).is_some()
    }

    /// Number of BGP prefixes loaded.
    pub fn bgp_prefix_count(&self) -> usize {
        self.bgp.len()
    }

    /// Number of RIR prefixes that survived the staleness filter.
    pub fn rir_prefix_count(&self) -> usize {
        self.rir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ixp::Ixp;
    use crate::rir::{AsnRecord, Ipv4Record, Registry};
    use crate::Announcement;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> u32 {
        net_types::parse_ipv4(s).unwrap()
    }

    fn build_fixture() -> IpToAs {
        let rib: Rib = [
            Announcement::new(p("10.0.0.0/8"), vec![Asn(1), Asn(100)]).unwrap(),
            Announcement::new(p("10.1.0.0/16"), vec![Asn(1), Asn(200)]).unwrap(),
            // An AS that (incorrectly) originates the IXP LAN into BGP.
            Announcement::new(p("198.32.0.0/24"), vec![Asn(1), Asn(300)]).unwrap(),
        ]
        .into_iter()
        .collect();

        let mut del = DelegationTable::new();
        del.add_asn(AsnRecord {
            registry: Registry::Arin,
            asn: Asn(400),
            org: "ORG-D".into(),
        });
        // Not covered by BGP → usable.
        del.add_ipv4(Ipv4Record {
            registry: Registry::Arin,
            prefix: p("172.16.0.0/16"),
            org: "ORG-D".into(),
        });
        // Covered by BGP 10/8 → stale, must be dropped.
        del.add_ipv4(Ipv4Record {
            registry: Registry::Arin,
            prefix: p("10.9.0.0/16"),
            org: "ORG-D".into(),
        });

        let ixps = IxpDirectory::from_ixps(vec![Ixp {
            id: 7,
            name: "IX".into(),
            prefix: p("198.32.0.0/24"),
            members: vec![Asn(100), Asn(200)],
        }]);

        IpToAs::build(&rib, &del, &ixps)
    }

    #[test]
    fn bgp_longest_match_wins() {
        let oracle = build_fixture();
        assert_eq!(oracle.origin(ip("10.1.2.3")), Asn(200));
        assert_eq!(oracle.origin(ip("10.2.2.3")), Asn(100));
    }

    #[test]
    fn ixp_shadows_bgp() {
        let oracle = build_fixture();
        let info = oracle.lookup(ip("198.32.0.9"));
        assert_eq!(info.kind, OriginKind::Ixp);
        assert_eq!(info.asn, Asn::NONE);
        assert!(oracle.is_ixp(ip("198.32.0.9")));
    }

    #[test]
    fn rir_fallback_only_when_uncovered() {
        let oracle = build_fixture();
        let info = oracle.lookup(ip("172.16.5.5"));
        assert_eq!(info.kind, OriginKind::Rir);
        assert_eq!(info.asn, Asn(400));
        // The stale delegation inside 10/8 must NOT shadow BGP.
        let info = oracle.lookup(ip("10.9.1.1"));
        assert_eq!(info.kind, OriginKind::Bgp);
        assert_eq!(info.asn, Asn(100));
        assert_eq!(oracle.rir_prefix_count(), 1);
    }

    #[test]
    fn unannounced() {
        let oracle = build_fixture();
        let info = oracle.lookup(ip("203.0.113.1"));
        assert_eq!(info, OriginInfo::UNANNOUNCED);
        assert!(info.asn.is_none());
    }

    #[test]
    fn from_pairs_shortcut() {
        let oracle = IpToAs::from_pairs([(p("192.0.2.0/24"), Asn(9))]);
        assert_eq!(oracle.origin(ip("192.0.2.1")), Asn(9));
        assert_eq!(oracle.origin(ip("192.0.3.1")), Asn::NONE);
    }
}
