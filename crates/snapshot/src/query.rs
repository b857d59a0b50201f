//! The loaded, query-optimized form of a snapshot.
//!
//! [`Snapshot`] owns the decoded [`SnapshotData`] plus three indexes built
//! in one pass at load time:
//!
//! * `addr_index` — hash index from interface address to its annotation row
//!   (interface → router → operator AS in O(1));
//! * `prefix_trie` — a path-compressed binary trie for longest-prefix-match
//!   over the prefix→origin-AS table;
//! * `links_by_as` — adjacency index from an AS (either side) to the
//!   interdomain link records naming it.
//!
//! All query methods take `&self`; a loaded snapshot is immutable and
//! freely shared across server worker threads behind an `Arc`.

use crate::codec;
use crate::error::SnapshotError;
use crate::{AnnRecord, LinkRecord, RouterRecord, SnapshotData};
use net_types::{Asn, Prefix, PrefixTrie};
use std::collections::{BTreeMap, HashMap};
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
    // detlint::allow(unordered-collection): point-lookup index queried by
    // key only and never iterated; every enumeration goes through the
    // ordered `data` vectors
    addr_index: HashMap<u32, u32>,
    prefix_trie: PrefixTrie<Asn>,
    links_by_as: BTreeMap<Asn, Vec<u32>>,
    routers_by_ir: BTreeMap<u32, u32>,
}

impl Snapshot {
    /// Indexes already-decoded snapshot content.
    pub fn from_data(data: SnapshotData) -> Snapshot {
        let mut addr_index = HashMap::with_capacity(data.annotations.len());
        for (i, r) in data.annotations.iter().enumerate() {
            addr_index.insert(r.addr, i as u32);
        }
        let prefix_trie: PrefixTrie<Asn> = data.prefixes.iter().copied().collect();
        let mut links_by_as: BTreeMap<Asn, Vec<u32>> = BTreeMap::new();
        for (i, l) in data.links.iter().enumerate() {
            links_by_as.entry(l.ir_as).or_default().push(i as u32);
            if l.conn_as != l.ir_as {
                links_by_as.entry(l.conn_as).or_default().push(i as u32);
            }
        }
        let routers_by_ir = data
            .routers
            .iter()
            .enumerate()
            .map(|(i, r)| (r.ir, i as u32))
            .collect();
        Snapshot {
            data,
            addr_index,
            prefix_trie,
            links_by_as,
            routers_by_ir,
        }
    }

    /// Parses and indexes a snapshot from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Ok(Snapshot::from_data(codec::from_bytes(bytes)?))
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
        let &i = self.addr_index.get(&addr)?;
        Some(&self.data.annotations[i as usize])
    }

    /// Longest-prefix-match of `addr` against the prefix→origin table.
    pub fn lookup_prefix(&self, addr: u32) -> Option<(Prefix, Asn)> {
        self.prefix_trie.longest_match(addr).map(|(p, &a)| (p, a))
    }

    /// The membership record for an inferred router.
    pub fn router(&self, ir: u32) -> Option<&RouterRecord> {
        let &i = self.routers_by_ir.get(&ir)?;
        Some(&self.data.routers[i as usize])
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
        Snapshot::from_data(data)
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
