//! **snapshot**: the `bdrmapit.snapshot/v1` binary annotation format.
//!
//! The pipeline's CSV outputs are good interchange artifacts but poor query
//! artifacts: answering "which AS operates the router behind this
//! interface?" from a TSV means re-reading and re-parsing flat files. This
//! crate freezes a full pipeline result — annotation rows, interdomain
//! links, router membership, and a prefix→origin-AS table — into a single
//! versioned binary file that loads in one pass into query-optimized
//! indexes:
//!
//! * a binary longest-prefix-match trie over `u32` addresses for
//!   prefix→origin-AS ([`net_types::PrefixTrie`]),
//! * a hash index for interface→router→operator-AS lookups,
//! * an adjacency index from AS to its inferred interdomain links.
//!
//! # File layout (`bdrmapit.snapshot/v1`)
//!
//! All integers are little-endian. The file is:
//!
//! ```text
//! header      8 B   magic  = b"bdrsnap1"
//!             4 B   version = 1 (u32)
//!             4 B   section_count = 4 (u32)
//! table       20 B × 4   { id: u32, len: u64, checksum: u64 }
//! meta        8 B   FNV-1a-64 over header + table bytes
//! payloads    section payloads, in table order, each exactly `len` bytes
//! ```
//!
//! Section ids (v1 requires exactly these four, in this order):
//!
//! | id | section     | record layout |
//! |----|-------------|---------------|
//! | 1  | annotations | `addr u32, ir u32, asn u32, origin u32, conn u32` |
//! | 2  | links       | `ir u32, ir_as u32, iface_addr u32, conn_as u32, last_hop u8` |
//! | 3  | routers     | `ir u32, asn u32, n u32, n × iface_addr u32` |
//! | 4  | prefixes    | `addr u32, len u8, asn u32` |
//!
//! Annotation records strictly ascend by `addr`, and router records by
//! `ir`: the decoder rejects a repeated or out-of-order key as
//! [`SnapshotError::Malformed`], so no record can shadow another. The
//! pipeline writes both in that order ([`SnapshotData::from_annotated`]).
//!
//! Every payload starts with its record count as a `u64`. Each section
//! carries an FNV-1a-64 checksum of its payload, and the header + section
//! table are covered by a trailing meta checksum, so **every single-byte
//! corruption anywhere in the file is rejected with a typed
//! [`SnapshotError`]** — never a panic, never a silently wrong answer (the
//! corruption sweep in `tests/codec.rs` proves this byte by byte).
//!
//! The loader ([`Snapshot::from_bytes`]) deserializes and indexes a
//! CI-scale snapshot in well under 100 ms; see `crates/serve` for the query
//! service built on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod inspect;
pub mod query;

pub use codec::{from_bytes, to_bytes, write_snapshot, MAGIC, VERSION};
pub use error::{SectionId, SnapshotError};
pub use inspect::inspect;
pub use query::{Snapshot, SnapshotStats};

use bdrmapit_core::Annotated;
use net_types::{Asn, Prefix};

/// One per-interface annotation row: the record behind `lookup_addr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnnRecord {
    /// Interface address.
    pub addr: u32,
    /// Inferred router (IR) index.
    pub ir: u32,
    /// Inferred operator of the router carrying the address (0 = none).
    pub asn: Asn,
    /// BGP/RIR origin of the address (0 = unannounced/IXP).
    pub origin: Asn,
    /// Connected-AS interface annotation (0 = none).
    pub conn: Asn,
}

/// One inferred interdomain link: the record behind `links_of_as`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkRecord {
    /// Near-side IR index.
    pub ir: u32,
    /// Inferred operator of the near-side router.
    pub ir_as: Asn,
    /// Address of the far-side interface.
    pub iface_addr: u32,
    /// Inferred operator on the far side.
    pub conn_as: Asn,
    /// Whether the near IR was annotated by the last-hop phase.
    pub last_hop: bool,
}

/// One router-membership record: the record behind `router`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouterRecord {
    /// IR index.
    pub ir: u32,
    /// Inferred operator (0 = unannotated).
    pub asn: Asn,
    /// Addresses of the interfaces on this router.
    pub ifaces: Vec<u32>,
}

/// The deserialized content of a snapshot, section by section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotData {
    /// Per-interface annotation rows.
    pub annotations: Vec<AnnRecord>,
    /// Inferred interdomain links.
    pub links: Vec<LinkRecord>,
    /// Router membership (one record per IR).
    pub routers: Vec<RouterRecord>,
    /// Prefix → origin-AS table (canonical prefixes).
    pub prefixes: Vec<(Prefix, Asn)>,
}

impl SnapshotData {
    /// Builds snapshot content from a pipeline result plus a prefix→origin
    /// table (typically [`bgp::Rib::origin_table`] or parsed prefix2as
    /// entries). Prefixes are canonicalized, sorted, and deduplicated.
    pub fn from_annotated(result: &Annotated, prefixes: &[(Prefix, Asn)]) -> SnapshotData {
        let annotations = result
            .graph
            .iface_addrs
            .iter()
            .enumerate()
            .map(|(idx, &addr)| {
                let ir = result.graph.iface_ir[idx];
                AnnRecord {
                    addr,
                    ir: ir.0,
                    asn: result.state.router[ir.0 as usize],
                    origin: result.graph.iface_origin[idx].asn,
                    conn: result.state.iface[idx],
                }
            })
            .collect();
        let links = result
            .interdomain_links()
            .iter()
            .map(|l| LinkRecord {
                ir: l.ir.0,
                ir_as: l.ir_as,
                iface_addr: l.iface_addr,
                conn_as: l.conn_as,
                last_hop: l.last_hop,
            })
            .collect();
        let routers = result
            .graph
            .irs
            .iter()
            .map(|ir| RouterRecord {
                ir: ir.id.0,
                asn: result.state.router[ir.id.0 as usize],
                ifaces: ir
                    .ifaces
                    .iter()
                    .map(|i| result.graph.iface_addrs[i.0 as usize])
                    .collect(),
            })
            .collect();
        let mut prefixes: Vec<(Prefix, Asn)> = prefixes
            .iter()
            .map(|&(p, a)| (Prefix::new(p.addr(), p.len()), a))
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup_by_key(|&mut (p, _)| p);
        SnapshotData {
            annotations,
            links,
            routers,
            prefixes,
        }
    }
}

/// FNV-1a 64-bit. Multiplication by the odd FNV prime is a bijection mod
/// 2⁶⁴ and the xor step is a bijection per byte, so any single-byte
/// substitution at a fixed position produces a different digest — the
/// property the corruption-rejection guarantee rests on.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_single_byte_substitution_changes_digest() {
        let base = b"the quick brown fox".to_vec();
        let h0 = fnv1a64(&base);
        for pos in 0..base.len() {
            for delta in 1..=255u8 {
                let mut m = base.clone();
                m[pos] ^= delta;
                assert_ne!(fnv1a64(&m), h0, "collision at byte {pos} delta {delta}");
            }
        }
    }
}
