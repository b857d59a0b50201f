//! The loaded, query-optimized form of a snapshot.
//!
//! [`Snapshot`] owns the decoded [`SnapshotData`]. Its annotation and
//! router sections are their own indexes: they strictly ascend by address
//! and by IR (checked at load), so `lookup_addr` and `router` binary-search
//! them. Two more indexes are built at load time:
//!
//! * `prefix_trie` — a path-compressed binary trie for longest-prefix-match
//!   over the prefix→origin-AS table;
//! * `links_by_as` — adjacency index from an AS (either side) to the
//!   interdomain link records naming it.
//!
//! All query methods take `&self`; a loaded snapshot is immutable and
//! freely shared across server worker threads behind an `Arc`.

use crate::codec::{self, ascending};
use crate::error::{SectionId, SnapshotError};
use crate::{AnnRecord, LinkRecord, RouterRecord, SnapshotData};
use net_types::{Asn, Prefix, PrefixTrie};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;

/// Section record counts, as reported by the `stats` query verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Annotation rows (observed interfaces).
    pub annotations: u64,
    /// Interdomain link records.
    pub links: u64,
    /// Router-membership records.
    pub routers: u64,
    /// Prefix→origin entries.
    pub prefixes: u64,
}

/// A snapshot loaded into its query indexes.
#[derive(Clone, Debug)]
pub struct Snapshot {
    data: SnapshotData,
    prefix_trie: PrefixTrie<Asn>,
    links_by_as: BTreeMap<Asn, Vec<u32>>,
}

impl Snapshot {
    /// Indexes already-decoded snapshot content. Like the decoder, it
    /// rejects annotations whose addresses, or routers whose IRs, do not
    /// strictly ascend, as [`SnapshotError::Malformed`].
    pub fn from_data(data: SnapshotData) -> Result<Snapshot, SnapshotError> {
        let addrs = data.annotations.iter().map(|r| r.addr);
        ascending(SectionId::Annotations, "address", addrs)?;
        ascending(SectionId::Routers, "IR", data.routers.iter().map(|r| r.ir))?;
        let prefix_trie: PrefixTrie<Asn> = data.prefixes.iter().copied().collect();
        let mut links_by_as: BTreeMap<Asn, Vec<u32>> = BTreeMap::new();
        for (i, l) in data.links.iter().enumerate() {
            links_by_as.entry(l.ir_as).or_default().push(i as u32);
            if l.conn_as != l.ir_as {
                links_by_as.entry(l.conn_as).or_default().push(i as u32);
            }
        }
        Ok(Snapshot {
            data,
            prefix_trie,
            links_by_as,
        })
    }

    /// Parses and indexes a snapshot from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_data(codec::from_bytes(bytes)?)
    }

    /// Reads, parses, and indexes a snapshot from any reader.
    pub fn load<R: Read>(mut r: R) -> Result<Snapshot, SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Snapshot::from_bytes(&bytes)
    }

    /// Reads, parses, and indexes a snapshot file.
    pub fn load_path(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_bytes(&std::fs::read(path)?)
    }

    /// The decoded content behind the indexes.
    pub fn data(&self) -> &SnapshotData {
        &self.data
    }

    /// The annotation row for an interface address, if observed.
    pub fn lookup_addr(&self, addr: u32) -> Option<&AnnRecord> {
        let rows = &self.data.annotations;
        let i = rows.binary_search_by_key(&addr, |r| r.addr).ok()?;
        Some(&rows[i])
    }

    /// Longest-prefix-match of `addr` against the prefix→origin table.
    pub fn lookup_prefix(&self, addr: u32) -> Option<(Prefix, Asn)> {
        self.prefix_trie.longest_match(addr).map(|(p, &a)| (p, a))
    }

    /// The membership record for an inferred router.
    pub fn router(&self, ir: u32) -> Option<&RouterRecord> {
        let rows = &self.data.routers;
        let i = rows.binary_search_by_key(&ir, |r| r.ir).ok()?;
        Some(&rows[i])
    }

    /// Every interdomain link record naming `asn` on either side, in file
    /// (deterministic) order.
    pub fn links_of_as(&self, asn: Asn) -> Vec<&LinkRecord> {
        self.links_by_as
            .get(&asn)
            .map(|idxs| idxs.iter().map(|&i| &self.data.links[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Section record counts.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            annotations: self.data.annotations.len() as u64,
            links: self.data.links.len() as u64,
            routers: self.data.routers.len() as u64,
            prefixes: self.data.prefixes.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::parse_ipv4;

    fn snapshot() -> Snapshot {
        let data = SnapshotData {
            annotations: vec![
                AnnRecord {
                    addr: parse_ipv4("10.0.0.1").unwrap(),
                    ir: 0,
                    asn: Asn(100),
                    origin: Asn(100),
                    conn: Asn(200),
                },
                AnnRecord {
                    addr: parse_ipv4("10.0.1.1").unwrap(),
                    ir: 1,
                    asn: Asn(200),
                    origin: Asn(200),
                    conn: Asn(0),
                },
            ],
            links: vec![
                LinkRecord {
                    ir: 0,
                    ir_as: Asn(100),
                    iface_addr: parse_ipv4("10.0.1.1").unwrap(),
                    conn_as: Asn(200),
                    last_hop: false,
                },
                LinkRecord {
                    ir: 1,
                    ir_as: Asn(200),
                    iface_addr: parse_ipv4("10.0.2.1").unwrap(),
                    conn_as: Asn(300),
                    last_hop: true,
                },
            ],
            routers: vec![RouterRecord {
                ir: 0,
                asn: Asn(100),
                ifaces: vec![parse_ipv4("10.0.0.1").unwrap()],
            }],
            prefixes: vec![
                ("10.0.0.0/16".parse().unwrap(), Asn(50)),
                ("10.0.0.0/24".parse().unwrap(), Asn(100)),
            ],
        };
        Snapshot::from_data(data).unwrap()
    }

    #[test]
    fn from_data_rejects_a_repeated_address_or_ir() {
        let rejected = |data: SnapshotData| match Snapshot::from_data(data) {
            Err(SnapshotError::Malformed {
                section, record, ..
            }) => Some((section, record)),
            _ => None,
        };
        let mut data = snapshot().data().clone();
        data.annotations[1].addr = data.annotations[0].addr;
        assert_eq!(rejected(data), Some((SectionId::Annotations, 1)));
        let mut data = snapshot().data().clone();
        data.routers.push(data.routers[0].clone());
        assert_eq!(rejected(data), Some((SectionId::Routers, 1)));
        let mut data = snapshot().data().clone();
        data.routers.push(RouterRecord {
            ir: 1,
            ..data.routers[0].clone()
        });
        let s = Snapshot::from_data(data).unwrap();
        assert_eq!(s.router(1).unwrap().ir, 1);
    }

    #[test]
    fn addr_lookup_hits_and_misses() {
        let s = snapshot();
        let r = s.lookup_addr(parse_ipv4("10.0.0.1").unwrap()).unwrap();
        assert_eq!(r.asn, Asn(100));
        assert_eq!(r.conn, Asn(200));
        assert!(s.lookup_addr(parse_ipv4("9.9.9.9").unwrap()).is_none());
    }

    #[test]
    fn prefix_lookup_is_longest_match() {
        let s = snapshot();
        let (p, a) = s.lookup_prefix(parse_ipv4("10.0.0.77").unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/24");
        assert_eq!(a, Asn(100));
        let (p, a) = s.lookup_prefix(parse_ipv4("10.0.9.1").unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/16");
        assert_eq!(a, Asn(50));
        assert!(s.lookup_prefix(parse_ipv4("11.0.0.1").unwrap()).is_none());
    }

    #[test]
    fn links_index_covers_both_sides() {
        let s = snapshot();
        assert_eq!(s.links_of_as(Asn(200)).len(), 2);
        assert_eq!(s.links_of_as(Asn(100)).len(), 1);
        assert_eq!(s.links_of_as(Asn(300)).len(), 1);
        assert!(s.links_of_as(Asn(999)).is_empty());
    }

    #[test]
    fn router_and_stats() {
        let s = snapshot();
        assert_eq!(s.router(0).unwrap().asn, Asn(100));
        assert!(s.router(7).is_none());
        let st = s.stats();
        assert_eq!(
            (st.annotations, st.links, st.routers, st.prefixes),
            (2, 2, 1, 2)
        );
    }

    #[test]
    fn bytes_to_indexes_roundtrip() {
        let s = snapshot();
        let bytes = codec::to_bytes(s.data());
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.data(), s.data());
        assert_eq!(
            loaded.lookup_addr(parse_ipv4("10.0.0.1").unwrap()),
            s.lookup_addr(parse_ipv4("10.0.0.1").unwrap())
        );
    }
}
