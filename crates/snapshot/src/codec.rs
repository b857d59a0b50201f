//! Writing and parsing the `bdrmapit.snapshot/v1` byte format.
//!
//! The writer produces a canonical encoding: same [`SnapshotData`] → same
//! bytes, always (no timestamps, no padding entropy, fixed section order).
//! The parser is total over arbitrary input — every byte is bounds-checked
//! and checksummed before it is believed, and every failure is a typed
//! [`SnapshotError`].

use crate::error::{SectionId, SnapshotError};
use crate::{fnv1a64, AnnRecord, LinkRecord, RouterRecord, SnapshotData};
use net_types::{Asn, Prefix};
use std::io::{self, Write};

/// The eight magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"bdrsnap1";
/// The format version this crate reads and writes.
pub const VERSION: u32 = 1;

/// Bytes in the fixed header (magic + version + section count).
pub(crate) const HEADER_LEN: usize = 16;
/// Bytes per section-table entry (id + len + checksum).
pub(crate) const TABLE_ENTRY_LEN: usize = 20;
/// Bytes in header + table + meta checksum for a v1 (4-section) file.
pub(crate) const PREAMBLE_LEN: usize = HEADER_LEN + 4 * TABLE_ENTRY_LEN + 8;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_annotations(rows: &[AnnRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rows.len() * 20);
    put_u64(&mut out, rows.len() as u64);
    for r in rows {
        put_u32(&mut out, r.addr);
        put_u32(&mut out, r.ir);
        put_u32(&mut out, r.asn.0);
        put_u32(&mut out, r.origin.0);
        put_u32(&mut out, r.conn.0);
    }
    out
}

fn encode_links(rows: &[LinkRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rows.len() * 17);
    put_u64(&mut out, rows.len() as u64);
    for r in rows {
        put_u32(&mut out, r.ir);
        put_u32(&mut out, r.ir_as.0);
        put_u32(&mut out, r.iface_addr);
        put_u32(&mut out, r.conn_as.0);
        out.push(u8::from(r.last_hop));
    }
    out
}

fn encode_routers(rows: &[RouterRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, rows.len() as u64);
    for r in rows {
        put_u32(&mut out, r.ir);
        put_u32(&mut out, r.asn.0);
        put_u32(&mut out, r.ifaces.len() as u32);
        for &a in &r.ifaces {
            put_u32(&mut out, a);
        }
    }
    out
}

fn encode_prefixes(rows: &[(Prefix, Asn)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rows.len() * 9);
    put_u64(&mut out, rows.len() as u64);
    for &(p, a) in rows {
        put_u32(&mut out, p.addr());
        out.push(p.len());
        put_u32(&mut out, a.0);
    }
    out
}

/// Serializes snapshot content to its canonical v1 byte form.
pub fn to_bytes(data: &SnapshotData) -> Vec<u8> {
    let payloads = [
        encode_annotations(&data.annotations),
        encode_links(&data.links),
        encode_routers(&data.routers),
        encode_prefixes(&data.prefixes),
    ];
    let mut preamble = Vec::with_capacity(PREAMBLE_LEN);
    preamble.extend_from_slice(&MAGIC);
    put_u32(&mut preamble, VERSION);
    put_u32(&mut preamble, SectionId::ALL.len() as u32);
    for (section, payload) in SectionId::ALL.iter().zip(&payloads) {
        put_u32(&mut preamble, section.id());
        put_u64(&mut preamble, payload.len() as u64);
        put_u64(&mut preamble, fnv1a64(payload));
    }
    let meta = fnv1a64(&preamble);
    let total = preamble.len() + 8 + payloads.iter().map(Vec::len).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&preamble);
    put_u64(&mut out, meta);
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    out
}

/// Writes a snapshot to any [`Write`] sink.
pub fn write_snapshot<W: Write>(mut w: W, data: &SnapshotData) -> io::Result<()> {
    w.write_all(&to_bytes(data))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over the input bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> u64 {
        (self.bytes.len() - self.pos) as u64
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n as u64 {
            return Err(SnapshotError::Truncated {
                what,
                needed: n as u64,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }
}

/// Reads the record count opening a section payload and sanity-checks it
/// against the payload size so a corrupt count cannot drive a huge
/// allocation (`min_record` is the smallest possible record encoding).
fn record_count(
    cur: &mut Cursor<'_>,
    section: SectionId,
    min_record: u64,
) -> Result<u64, SnapshotError> {
    let count = cur.u64("record count")?;
    if count.saturating_mul(min_record) > cur.remaining() {
        return Err(SnapshotError::Malformed {
            section,
            record: 0,
            reason: format!(
                "record count {count} needs at least {} bytes, {} remain in section",
                count.saturating_mul(min_record),
                cur.remaining()
            ),
        });
    }
    Ok(count)
}

fn expect_consumed(cur: &Cursor<'_>, section: SectionId, count: u64) -> Result<(), SnapshotError> {
    if cur.remaining() != 0 {
        return Err(SnapshotError::Malformed {
            section,
            record: count,
            reason: format!(
                "{} byte(s) left over after the last record",
                cur.remaining()
            ),
        });
    }
    Ok(())
}

/// A record whose key does not rise above the previous record's: the
/// annotation and router sections are indexes, strictly ascending by
/// address and by IR, so a repeat cannot shadow an earlier record.
fn out_of_order(
    section: SectionId,
    record: u64,
    what: &str,
    prev: u32,
    found: u32,
) -> SnapshotError {
    SnapshotError::Malformed {
        section,
        record,
        reason: format!("{what} {found} does not ascend past the previous record's {prev}"),
    }
}

fn decode_annotations(payload: &[u8]) -> Result<Vec<AnnRecord>, SnapshotError> {
    let section = SectionId::Annotations;
    let mut cur = Cursor::new(payload);
    let count = record_count(&mut cur, section, 20)?;
    let mut out: Vec<AnnRecord> = Vec::with_capacity(count as usize);
    for record in 0..count {
        let addr = cur.u32("annotation record")?;
        if let Some(prev) = out.last().filter(|prev| prev.addr >= addr) {
            return Err(out_of_order(section, record, "address", prev.addr, addr));
        }
        out.push(AnnRecord {
            addr,
            ir: cur.u32("annotation record")?,
            asn: Asn(cur.u32("annotation record")?),
            origin: Asn(cur.u32("annotation record")?),
            conn: Asn(cur.u32("annotation record")?),
        });
    }
    expect_consumed(&cur, section, count)?;
    Ok(out)
}

fn decode_links(payload: &[u8]) -> Result<Vec<LinkRecord>, SnapshotError> {
    let section = SectionId::Links;
    let mut cur = Cursor::new(payload);
    let count = record_count(&mut cur, section, 17)?;
    let mut out = Vec::with_capacity(count as usize);
    for record in 0..count {
        let ir = cur.u32("link record")?;
        let ir_as = Asn(cur.u32("link record")?);
        let iface_addr = cur.u32("link record")?;
        let conn_as = Asn(cur.u32("link record")?);
        let last_hop = match cur.u8("link record")? {
            0 => false,
            1 => true,
            other => {
                return Err(SnapshotError::Malformed {
                    section,
                    record,
                    reason: format!("last_hop flag must be 0 or 1, found {other}"),
                })
            }
        };
        out.push(LinkRecord {
            ir,
            ir_as,
            iface_addr,
            conn_as,
            last_hop,
        });
    }
    expect_consumed(&cur, section, count)?;
    Ok(out)
}

fn decode_routers(payload: &[u8]) -> Result<Vec<RouterRecord>, SnapshotError> {
    let section = SectionId::Routers;
    let mut cur = Cursor::new(payload);
    let count = record_count(&mut cur, section, 12)?;
    let mut out: Vec<RouterRecord> = Vec::with_capacity(count as usize);
    for record in 0..count {
        let ir = cur.u32("router record")?;
        if let Some(prev) = out.last().filter(|prev| prev.ir >= ir) {
            return Err(out_of_order(section, record, "IR", prev.ir, ir));
        }
        let asn = Asn(cur.u32("router record")?);
        let n = cur.u32("router record")?;
        if u64::from(n) * 4 > cur.remaining() {
            return Err(SnapshotError::Malformed {
                section,
                record,
                reason: format!(
                    "interface count {n} needs {} bytes, {} remain in section",
                    u64::from(n) * 4,
                    cur.remaining()
                ),
            });
        }
        let mut ifaces = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ifaces.push(cur.u32("router interface list")?);
        }
        out.push(RouterRecord { ir, asn, ifaces });
    }
    expect_consumed(&cur, section, count)?;
    Ok(out)
}

fn decode_prefixes(payload: &[u8]) -> Result<Vec<(Prefix, Asn)>, SnapshotError> {
    let section = SectionId::Prefixes;
    let mut cur = Cursor::new(payload);
    let count = record_count(&mut cur, section, 9)?;
    let mut out = Vec::with_capacity(count as usize);
    for record in 0..count {
        let addr = cur.u32("prefix record")?;
        let len = cur.u8("prefix record")?;
        let asn = Asn(cur.u32("prefix record")?);
        if len > 32 {
            return Err(SnapshotError::Malformed {
                section,
                record,
                reason: format!("prefix length {len} exceeds 32"),
            });
        }
        let p = Prefix::new(addr, len);
        if p.addr() != addr {
            return Err(SnapshotError::Malformed {
                section,
                record,
                reason: format!("prefix address {addr:#010x} has bits set below the /{len} mask"),
            });
        }
        out.push((p, asn));
    }
    expect_consumed(&cur, section, count)?;
    Ok(out)
}

/// The parsed preamble: per-section lengths and checksums, already verified
/// against the meta checksum.
pub(crate) struct Preamble {
    /// `(len, checksum)` for each of the four sections, in file order.
    pub sections: [(u64, u64); 4],
}

/// Parses and verifies the header, section table, and meta checksum.
pub(crate) fn parse_preamble(bytes: &[u8]) -> Result<Preamble, SnapshotError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(8, "magic").map_err(|_| {
        let mut found = [0u8; 8];
        found[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        SnapshotError::BadMagic { found }
    })?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(SnapshotError::BadMagic { found });
    }
    let version = cur.u32("version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let section_count = cur.u32("section count")?;
    if section_count != SectionId::ALL.len() as u32 {
        return Err(SnapshotError::BadSectionCount {
            found: section_count,
        });
    }
    let mut sections = [(0u64, 0u64); 4];
    for (index, section) in SectionId::ALL.iter().enumerate() {
        let id = cur.u32("section table")?;
        if id != section.id() {
            return Err(SnapshotError::UnexpectedSection {
                index: index as u32,
                found: id,
            });
        }
        let len = cur.u64("section table")?;
        let checksum = cur.u64("section table")?;
        sections[index] = (len, checksum);
    }
    let covered = cur.pos;
    let stored = cur.u64("meta checksum")?;
    let computed = fnv1a64(&bytes[..covered]);
    if stored != computed {
        return Err(SnapshotError::MetaChecksumMismatch { stored, computed });
    }
    Ok(Preamble { sections })
}

/// Parses a complete snapshot from bytes, verifying every checksum.
pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    let preamble = parse_preamble(bytes)?;
    let mut cur = Cursor::new(bytes);
    cur.pos = PREAMBLE_LEN;
    let mut payloads: [&[u8]; 4] = [&[]; 4];
    for (index, section) in SectionId::ALL.iter().enumerate() {
        let (len, stored) = preamble.sections[index];
        let len_usize = usize::try_from(len).map_err(|_| SnapshotError::Truncated {
            what: "section payload",
            needed: len,
            available: cur.remaining(),
        })?;
        let payload = cur.take(len_usize, "section payload")?;
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(SnapshotError::SectionChecksumMismatch {
                section: *section,
                stored,
                computed,
            });
        }
        payloads[index] = payload;
    }
    if cur.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            count: cur.remaining(),
        });
    }
    Ok(SnapshotData {
        annotations: decode_annotations(payloads[0])?,
        links: decode_links(payloads[1])?,
        routers: decode_routers(payloads[2])?,
        prefixes: decode_prefixes(payloads[3])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        SnapshotData {
            annotations: vec![
                AnnRecord {
                    addr: 0x0a00_0001,
                    ir: 0,
                    asn: Asn(100),
                    origin: Asn(100),
                    conn: Asn(200),
                },
                AnnRecord {
                    addr: 0x0a00_0002,
                    ir: 1,
                    asn: Asn(200),
                    origin: Asn(200),
                    conn: Asn(0),
                },
            ],
            links: vec![LinkRecord {
                ir: 0,
                ir_as: Asn(100),
                iface_addr: 0x0a00_0002,
                conn_as: Asn(200),
                last_hop: false,
            }],
            routers: vec![
                RouterRecord {
                    ir: 0,
                    asn: Asn(100),
                    ifaces: vec![0x0a00_0001],
                },
                RouterRecord {
                    ir: 1,
                    asn: Asn(200),
                    ifaces: vec![0x0a00_0002],
                },
            ],
            prefixes: vec![
                ("10.0.0.0/24".parse().unwrap(), Asn(100)),
                ("10.0.1.0/24".parse().unwrap(), Asn(200)),
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let data = sample();
        let bytes = to_bytes(&data);
        assert_eq!(from_bytes(&bytes).unwrap(), data);
        // Canonical encoding: re-serializing reproduces the bytes.
        assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()), bytes);
    }

    #[test]
    fn empty_roundtrip() {
        let data = SnapshotData::default();
        let bytes = to_bytes(&data);
        assert_eq!(bytes.len(), PREAMBLE_LEN + 4 * 8);
        assert_eq!(from_bytes(&bytes).unwrap(), data);
    }

    #[test]
    fn bad_magic() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        // Files shorter than the magic are BadMagic too, not Truncated.
        assert!(matches!(
            from_bytes(b"bdr"),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            from_bytes(&[]),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn unsupported_version() {
        let mut bytes = to_bytes(&sample());
        bytes[8] = 9;
        assert_eq!(
            from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 9 })
        );
    }

    #[test]
    fn bad_section_count() {
        let mut bytes = to_bytes(&sample());
        bytes[12] = 5;
        assert_eq!(
            from_bytes(&bytes),
            Err(SnapshotError::BadSectionCount { found: 5 })
        );
    }

    #[test]
    fn truncated_payload() {
        let bytes = to_bytes(&sample());
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            from_bytes(cut),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert_eq!(
            from_bytes(&bytes),
            Err(SnapshotError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn payload_corruption_is_checksum_mismatch() {
        let mut bytes = to_bytes(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            from_bytes(&bytes),
            Err(SnapshotError::SectionChecksumMismatch { .. })
        ));
    }

    #[test]
    fn table_corruption_is_meta_mismatch() {
        let mut bytes = to_bytes(&sample());
        // Flip a byte inside the first table entry's checksum field.
        bytes[HEADER_LEN + 12] ^= 0x01;
        assert!(matches!(
            from_bytes(&bytes),
            Err(SnapshotError::MetaChecksumMismatch { .. })
        ));
    }
}
