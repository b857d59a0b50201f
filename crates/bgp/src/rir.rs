//! RIR extended allocation/assignment files.
//!
//! The paper (§4.1) supplements BGP with RIR delegations: "using the AS
//! identifiers in the extended delegation files to match IP prefixes with
//! ASes. RIR delegations can be stale ... so we only use the prefixes from
//! RIR delegations not already covered by a BGP prefix."
//!
//! Real extended delegation files do not map prefixes to ASNs directly —
//! `ipv4` records and `asn` records each carry an opaque *org handle*, and
//! the join happens through that handle. We model the same indirection so
//! the join logic (and its failure modes: orgs with several ASNs, orgs with
//! none) is exercised for real.

use net_types::{Asn, Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The five regional internet registries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Registry {
    Afrinic,
    Apnic,
    Arin,
    Lacnic,
    RipeNcc,
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Registry::Afrinic => "afrinic",
            Registry::Apnic => "apnic",
            Registry::Arin => "arin",
            Registry::Lacnic => "lacnic",
            Registry::RipeNcc => "ripencc",
        };
        f.write_str(s)
    }
}

/// One `ipv4` record from an extended delegation file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Record {
    /// Which registry delegated the block.
    pub registry: Registry,
    /// The delegated block (extended files use start+count; we require
    /// CIDR-aligned blocks, as the vast majority are).
    pub prefix: Prefix,
    /// Opaque org handle joining this block to `asn` records.
    pub org: String,
}

/// One `asn` record from an extended delegation file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsnRecord {
    /// Which registry delegated the ASN.
    pub registry: Registry,
    /// The delegated ASN.
    pub asn: Asn,
    /// Opaque org handle.
    pub org: String,
}

/// A parsed, joined delegation table: prefix → ASN via shared org handles.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DelegationTable {
    ipv4: Vec<Ipv4Record>,
    asns: Vec<AsnRecord>,
}

impl DelegationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an `ipv4` record.
    pub fn add_ipv4(&mut self, rec: Ipv4Record) {
        self.ipv4.push(rec);
    }

    /// Adds an `asn` record.
    pub fn add_asn(&mut self, rec: AsnRecord) {
        self.asns.push(rec);
    }

    /// Number of ipv4 records.
    pub fn ipv4_count(&self) -> usize {
        self.ipv4.len()
    }

    /// Joins ipv4 records to ASNs through org handles and builds the
    /// prefix→ASN trie used as the BGP fallback.
    ///
    /// When an org holds several ASNs we pick the lowest (deterministic, and
    /// matches how a single-AS mapping must collapse the ambiguity). Blocks
    /// whose org holds no ASN are dropped — they cannot inform ownership.
    pub fn join(&self) -> PrefixTrie<Asn> {
        let mut org_to_asn: BTreeMap<&str, Asn> = BTreeMap::new();
        for rec in &self.asns {
            org_to_asn
                .entry(rec.org.as_str())
                .and_modify(|a| *a = (*a).min(rec.asn))
                .or_insert(rec.asn);
        }
        let mut trie = PrefixTrie::new();
        for rec in &self.ipv4 {
            if let Some(&asn) = org_to_asn.get(rec.org.as_str()) {
                trie.insert(rec.prefix, asn);
            }
        }
        trie
    }

    /// Serializes to the pipe-separated extended format, e.g.
    /// `arin|US|ipv4|192.0.2.0|256|20180101|assigned|ORG-1` and
    /// `arin|US|asn|64500|1|20180101|assigned|ORG-1`.
    pub fn to_extended_format(&self) -> String {
        let mut out = String::new();
        for rec in &self.asns {
            out.push_str(&format!(
                "{}|ZZ|asn|{}|1|20180101|assigned|{}\n",
                rec.registry, rec.asn.0, rec.org
            ));
        }
        for rec in &self.ipv4 {
            out.push_str(&format!(
                "{}|ZZ|ipv4|{}|{}|20180101|assigned|{}\n",
                rec.registry,
                net_types::format_ipv4(rec.prefix.addr()),
                rec.prefix.size(),
                rec.org
            ));
        }
        out
    }

    /// Parses the pipe-separated extended format produced by
    /// [`Self::to_extended_format`] (and by the real RIR files, for the
    /// record types we consume). Unknown record types, summary lines, and
    /// comments are skipped. Non-CIDR-aligned ipv4 blocks are split into
    /// maximal CIDR blocks, as CAIDA's tooling does; a block running past
    /// `255.255.255.255` is an error.
    pub fn parse_extended_format(text: &str) -> Result<Self, String> {
        let mut table = DelegationTable::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('2') {
                // Comments and version/summary header lines.
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            if fields.len() < 7 {
                continue;
            }
            let registry = match fields[0] {
                "afrinic" => Registry::Afrinic,
                "apnic" => Registry::Apnic,
                "arin" => Registry::Arin,
                "lacnic" => Registry::Lacnic,
                "ripencc" => Registry::RipeNcc,
                other => return Err(format!("line {}: unknown registry {other}", lineno + 1)),
            };
            let org = fields.get(7).unwrap_or(&"").to_string();
            if org.is_empty() {
                continue;
            }
            match fields[2] {
                "asn" => {
                    let asn: u32 = fields[3]
                        .parse()
                        .map_err(|_| format!("line {}: bad asn", lineno + 1))?;
                    table.add_asn(AsnRecord {
                        registry,
                        asn: Asn(asn),
                        org,
                    });
                }
                "ipv4" => {
                    let start = net_types::parse_ipv4(fields[3])
                        .ok_or_else(|| format!("line {}: bad ipv4", lineno + 1))?;
                    let count: u64 = fields[4]
                        .parse()
                        .map_err(|_| format!("line {}: bad count", lineno + 1))?;
                    if count > IPV4_SPACE - u64::from(start) {
                        return Err(format!(
                            "line {}: ipv4 range past 255.255.255.255",
                            lineno + 1
                        ));
                    }
                    for prefix in cidr_cover(start, count) {
                        table.add_ipv4(Ipv4Record {
                            registry,
                            prefix,
                            org: org.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(table)
    }
}

/// Size of the IPv4 address space.
const IPV4_SPACE: u64 = 1 << 32;

/// Decomposes an arbitrary `[start, start+count)` address range into maximal
/// CIDR blocks.
///
/// # Panics
///
/// If the range runs past `255.255.255.255` (`start + count > 2³²`): it
/// has no CIDR cover. Callers with untrusted input check the bound first,
/// as [`DelegationTable::parse_extended_format`] does.
pub fn cidr_cover(start: u32, count: u64) -> Vec<Prefix> {
    assert!(
        count <= IPV4_SPACE - u64::from(start),
        "range of {count} addresses from {start:#010x} runs past 255.255.255.255"
    );
    let mut out = Vec::new();
    let mut cur = start as u64;
    let end = start as u64 + count;
    while cur < end {
        // Largest power-of-two block that is both aligned at `cur` and fits.
        let align = if cur == 0 {
            1u64 << 32
        } else {
            cur & cur.wrapping_neg()
        };
        let mut block = align.min(end - cur);
        // Round block down to a power of two.
        block = 1u64 << (63 - block.leading_zeros());
        let len = 32 - (block.trailing_zeros() as u8);
        out.push(Prefix::new(cur as u32, len));
        cur += block;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn cidr_cover_aligned() {
        assert_eq!(cidr_cover(0xc0000200, 256), vec![p("192.0.2.0/24")]);
        assert_eq!(cidr_cover(0x0a000000, 1 << 24), vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn cidr_cover_unaligned() {
        // 192.0.2.64 count 192 = /26 at .64 + /25 at .128
        assert_eq!(
            cidr_cover(0xc0000240, 192),
            vec![p("192.0.2.64/26"), p("192.0.2.128/25")]
        );
        // count 3 from .0: /31 + /32
        assert_eq!(
            cidr_cover(0xc0000200, 3),
            vec![p("192.0.2.0/31"), p("192.0.2.2/32")]
        );
    }

    #[test]
    fn join_through_org_handles() {
        let mut t = DelegationTable::new();
        t.add_asn(AsnRecord {
            registry: Registry::Arin,
            asn: Asn(64500),
            org: "ORG-A".into(),
        });
        t.add_ipv4(Ipv4Record {
            registry: Registry::Arin,
            prefix: p("192.0.2.0/24"),
            org: "ORG-A".into(),
        });
        t.add_ipv4(Ipv4Record {
            registry: Registry::Arin,
            prefix: p("198.51.100.0/24"),
            org: "ORG-NOASN".into(),
        });
        let trie = t.join();
        assert_eq!(
            trie.longest_match(net_types::parse_ipv4("192.0.2.1").unwrap())
                .map(|(_, a)| *a),
            Some(Asn(64500))
        );
        // Org without an ASN record contributes nothing.
        assert!(trie
            .longest_match(net_types::parse_ipv4("198.51.100.1").unwrap())
            .is_none());
    }

    #[test]
    fn join_multi_asn_org_picks_lowest() {
        let mut t = DelegationTable::new();
        for asn in [64510u32, 64501] {
            t.add_asn(AsnRecord {
                registry: Registry::RipeNcc,
                asn: Asn(asn),
                org: "ORG-M".into(),
            });
        }
        t.add_ipv4(Ipv4Record {
            registry: Registry::RipeNcc,
            prefix: p("192.0.2.0/24"),
            org: "ORG-M".into(),
        });
        let trie = t.join();
        assert_eq!(
            trie.longest_match(net_types::parse_ipv4("192.0.2.9").unwrap())
                .map(|(_, a)| *a),
            Some(Asn(64501))
        );
    }

    #[test]
    fn extended_format_roundtrip() {
        let mut t = DelegationTable::new();
        t.add_asn(AsnRecord {
            registry: Registry::Apnic,
            asn: Asn(64500),
            org: "ORG-A".into(),
        });
        t.add_ipv4(Ipv4Record {
            registry: Registry::Apnic,
            prefix: p("192.0.2.0/24"),
            org: "ORG-A".into(),
        });
        let text = t.to_extended_format();
        let back = DelegationTable::parse_extended_format(&text).unwrap();
        assert_eq!(back.ipv4, t.ipv4);
        assert_eq!(back.asns, t.asns);
    }

    #[test]
    fn parse_skips_noise() {
        let text = "\
# comment
2|arin|20180101|1|19700101|20180101|+0000
arin|US|ipv4|192.0.2.0|256|20180101|assigned|ORG-1
arin|US|asn|64500|1|20180101|assigned|ORG-1
arin|US|ipv6|2001:db8::|32|20180101|assigned|ORG-1
arin||ipv4|*|summary
";
        let t = DelegationTable::parse_extended_format(text).unwrap();
        assert_eq!(t.ipv4_count(), 1);
        assert_eq!(t.asns.len(), 1);
    }

    #[test]
    fn cidr_cover_reaches_the_top_of_the_space() {
        assert_eq!(cidr_cover(0, 1 << 32), vec![Prefix::DEFAULT]);
        assert_eq!(cidr_cover(0xffff_ff00, 256), vec![p("255.255.255.0/24")]);
        assert!(cidr_cover(0xffff_ffff, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "runs past 255.255.255.255")]
    fn cidr_cover_rejects_a_range_past_the_space() {
        cidr_cover(0xffff_ff00, 512);
    }

    #[test]
    fn parse_rejects_ranges_past_the_space() {
        for record in [
            "arin|US|ipv4|0.0.0.0|17179869184|20200101|allocated|org1",
            "arin|US|ipv4|0.0.0.0|18446744073709551615|20200101|allocated|org1",
            "arin|US|ipv4|255.255.255.0|512|20200101|allocated|org1",
        ] {
            let text = format!("# header\n{record}\n");
            assert_eq!(
                DelegationTable::parse_extended_format(&text).unwrap_err(),
                "line 2: ipv4 range past 255.255.255.255",
                "{record}"
            );
        }
        let whole = "arin|US|ipv4|0.0.0.0|4294967296|20200101|allocated|org1\n";
        let t = DelegationTable::parse_extended_format(whole).unwrap();
        assert_eq!(
            t.ipv4,
            vec![Ipv4Record {
                registry: Registry::Arin,
                prefix: Prefix::DEFAULT,
                org: "org1".into(),
            }]
        );
    }

    #[test]
    fn parse_rejects_unknown_registry() {
        let text = "example|US|asn|64500|1|20180101|assigned|ORG-1\n";
        assert!(DelegationTable::parse_extended_format(text).is_err());
    }
}
