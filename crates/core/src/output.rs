//! Result serialization, mirroring the shape of the released bdrmapIT
//! tool's output: one CSV of per-address router annotations, one CSV of
//! inferred interdomain links.

use crate::{Annotated, InferredLink};
use net_types::{format_ipv4, parse_ipv4, Asn};
use std::io::{self, BufRead, BufReader, Read, Write};

/// Writes per-address annotations as CSV:
/// `addr,ir,asn,origin_asn,conn_asn`.
///
/// * `asn` — the inferred operator of the router carrying the address;
/// * `origin_asn` — the BGP/RIR origin of the address (0 = unannounced/IXP);
/// * `conn_asn` — the interface annotation (the AS on the other side of the
///   link the interface terminates; 0 = none).
pub fn write_annotations<W: Write>(mut w: W, result: &Annotated) -> io::Result<()> {
    writeln!(w, "addr,ir,asn,origin_asn,conn_asn")?;
    for (idx, &addr) in result.graph.iface_addrs.iter().enumerate() {
        let ir = result.graph.iface_ir[idx];
        let asn = result.state.router[ir.0 as usize];
        let origin = result.graph.iface_origin[idx].asn;
        let conn = result.state.iface[idx];
        writeln!(
            w,
            "{},{},{},{},{}",
            format_ipv4(addr),
            ir.0,
            asn.0,
            origin.0,
            conn.0
        )?;
    }
    Ok(())
}

/// Writes inferred interdomain links (as [`Annotated::interdomain_links`]
/// lists them) as CSV: `ir_asn,conn_asn,iface_addr,last_hop`.
pub fn write_links<W: Write>(mut w: W, links: &[InferredLink]) -> io::Result<()> {
    writeln!(w, "ir_asn,conn_asn,iface_addr,last_hop")?;
    for link in links {
        writeln!(
            w,
            "{},{},{},{}",
            link.ir_as.0,
            link.conn_as.0,
            format_ipv4(link.iface_addr),
            link.last_hop as u8
        )?;
    }
    Ok(())
}

/// Why reading an output CSV failed: transport, or a specific bad row.
///
/// `Malformed` pins the 1-based CSV row index (the header counts as row
/// one) and a field-level reason, so a consumer staring at a multi-million
/// row annotations file learns exactly where the damage is.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A data row did not parse.
    Malformed {
        /// 1-based row index in the file (the header is row 1).
        row: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Malformed { row, reason } => {
                write!(f, "malformed row {row}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// A parsed annotation row (for downstream consumers and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnotationRow {
    /// Interface address.
    pub addr: u32,
    /// IR index.
    pub ir: u32,
    /// Inferred router operator (0 = unannotated).
    pub asn: Asn,
    /// Address origin AS.
    pub origin: Asn,
    /// Connected-AS annotation.
    pub conn: Asn,
}

/// A parsed interdomain-link row (for downstream consumers and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRow {
    /// Inferred operator of the near-side router.
    pub ir_as: Asn,
    /// Inferred operator on the far side.
    pub conn_as: Asn,
    /// Address of the far-side interface.
    pub iface_addr: u32,
    /// Whether the near IR was annotated by the last-hop phase.
    pub last_hop: bool,
}

fn parse_field<T: std::str::FromStr>(text: &str, row: usize, what: &str) -> Result<T, ReadError> {
    text.parse().map_err(|_| ReadError::Malformed {
        row,
        reason: format!("bad {what} {text:?}"),
    })
}

fn parse_addr_field(text: &str, row: usize, what: &str) -> Result<u32, ReadError> {
    parse_ipv4(text).ok_or_else(|| ReadError::Malformed {
        row,
        reason: format!("bad {what} {text:?}"),
    })
}

fn split_row(line: &str, row: usize, want: usize) -> Result<Vec<&str>, ReadError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != want {
        return Err(ReadError::Malformed {
            row,
            reason: format!("expected {want} fields, found {}", fields.len()),
        });
    }
    Ok(fields)
}

/// Reads an annotations CSV produced by [`write_annotations`].
pub fn read_annotations<R: Read>(r: R) -> Result<Vec<AnnotationRow>, ReadError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 || line.trim().is_empty() {
            continue; // header
        }
        let row = i + 1;
        let fields = split_row(&line, row, 5)?;
        out.push(AnnotationRow {
            addr: parse_addr_field(fields[0], row, "address")?,
            ir: parse_field(fields[1], row, "ir index")?,
            asn: Asn(parse_field(fields[2], row, "asn")?),
            origin: Asn(parse_field(fields[3], row, "origin asn")?),
            conn: Asn(parse_field(fields[4], row, "conn asn")?),
        });
    }
    Ok(out)
}

/// Reads a links CSV produced by [`write_links`].
pub fn read_links<R: Read>(r: R) -> Result<Vec<LinkRow>, ReadError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 || line.trim().is_empty() {
            continue; // header
        }
        let row = i + 1;
        let fields = split_row(&line, row, 4)?;
        let last_hop = match fields[3] {
            "0" => false,
            "1" => true,
            other => {
                return Err(ReadError::Malformed {
                    row,
                    reason: format!("bad last_hop flag {other:?} (want 0 or 1)"),
                })
            }
        };
        out.push(LinkRow {
            ir_as: Asn(parse_field(fields[0], row, "ir asn")?),
            conn_as: Asn(parse_field(fields[1], row, "conn asn")?),
            iface_addr: parse_addr_field(fields[2], row, "interface address")?,
            last_hop,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bdrmapit, Config};
    use alias::AliasSets;
    use as_rel::AsRelationships;
    use bgp::IpToAs;
    use net_types::Prefix;
    use traceroute::{Hop, ReplyType, StopReason, Trace};

    fn result() -> Annotated {
        let oracle = IpToAs::from_pairs([
            ("10.1.0.0/16".parse::<Prefix>().unwrap(), Asn(1)),
            ("10.2.0.0/16".parse::<Prefix>().unwrap(), Asn(2)),
        ]);
        let traces = [Trace {
            monitor: "vp".into(),
            src: 1,
            dst: net_types::parse_ipv4("10.2.0.99").unwrap(),
            hops: vec![
                Some(Hop {
                    addr: net_types::parse_ipv4("10.1.0.1").unwrap(),
                    reply: ReplyType::TimeExceeded,
                }),
                Some(Hop {
                    addr: net_types::parse_ipv4("10.2.0.1").unwrap(),
                    reply: ReplyType::TimeExceeded,
                }),
            ],
            stop: StopReason::GapLimit,
        }];
        Bdrmapit::new(Config::default()).run(
            &traces.into_iter().collect(),
            &AliasSets::empty(),
            &oracle,
            &AsRelationships::new(),
        )
    }

    #[test]
    fn annotations_roundtrip() {
        let r = result();
        let mut buf = Vec::new();
        write_annotations(&mut buf, &r).unwrap();
        let rows = read_annotations(&buf[..]).unwrap();
        assert_eq!(rows.len(), r.graph.iface_addrs.len());
        for row in &rows {
            let idx = r.graph.iface_of_addr(row.addr).expect("known addr");
            assert_eq!(row.origin, r.graph.iface_origin[idx.0 as usize].asn);
        }
    }

    /// The exact round-trip contract: every field of every row survives
    /// write → read, and re-serializing the parsed rows reproduces the file
    /// byte for byte.
    #[test]
    fn annotations_roundtrip_is_exact() {
        let r = result();
        let mut buf = Vec::new();
        write_annotations(&mut buf, &r).unwrap();
        let rows = read_annotations(&buf[..]).unwrap();
        for (idx, row) in rows.iter().enumerate() {
            let ir = r.graph.iface_ir[idx];
            assert_eq!(row.addr, r.graph.iface_addrs[idx]);
            assert_eq!(row.ir, ir.0);
            assert_eq!(row.asn, r.state.router[ir.0 as usize]);
            assert_eq!(row.origin, r.graph.iface_origin[idx].asn);
            assert_eq!(row.conn, r.state.iface[idx]);
        }
        let mut again = String::from("addr,ir,asn,origin_asn,conn_asn\n");
        for row in &rows {
            again.push_str(&format!(
                "{},{},{},{},{}\n",
                format_ipv4(row.addr),
                row.ir,
                row.asn.0,
                row.origin.0,
                row.conn.0
            ));
        }
        assert_eq!(again.as_bytes(), &buf[..]);
    }

    #[test]
    fn links_csv_has_header_and_rows() {
        let r = result();
        let mut buf = Vec::new();
        write_links(&mut buf, &r.interdomain_links()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("ir_asn,conn_asn,iface_addr,last_hop\n"));
        assert_eq!(text.lines().count(), 1 + r.interdomain_links().len());
    }

    /// The previously-missing links round-trip: parsed rows match the
    /// in-memory link list field for field, and re-serialize byte-exactly.
    #[test]
    fn links_roundtrip_is_exact() {
        let r = result();
        let links = r.interdomain_links();
        assert!(!links.is_empty(), "fixture must produce links");
        let mut buf = Vec::new();
        write_links(&mut buf, &r.interdomain_links()).unwrap();
        let rows = read_links(&buf[..]).unwrap();
        assert_eq!(rows.len(), links.len());
        for (row, link) in rows.iter().zip(&links) {
            assert_eq!(row.ir_as, link.ir_as);
            assert_eq!(row.conn_as, link.conn_as);
            assert_eq!(row.iface_addr, link.iface_addr);
            assert_eq!(row.last_hop, link.last_hop);
        }
        let mut again = String::from("ir_asn,conn_asn,iface_addr,last_hop\n");
        for row in &rows {
            again.push_str(&format!(
                "{},{},{},{}\n",
                row.ir_as.0,
                row.conn_as.0,
                format_ipv4(row.iface_addr),
                row.last_hop as u8
            ));
        }
        assert_eq!(again.as_bytes(), &buf[..]);
    }

    #[test]
    fn read_rejects_malformed_with_row_and_reason() {
        let err = read_annotations(&b"header\nnot,a,row\n"[..]).unwrap_err();
        match &err {
            ReadError::Malformed { row, reason } => {
                assert_eq!(*row, 2);
                assert!(reason.contains("expected 5 fields"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
        let err = read_annotations(&b"header\n1.2.3.4,0,1,2,3\n1.2.3.4,0,1,2,x\n"[..]).unwrap_err();
        match &err {
            ReadError::Malformed { row, reason } => {
                assert_eq!(*row, 3, "second data row");
                assert!(reason.contains("conn asn"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
        let err = read_links(&b"header\n1,2,1.2.3.4,2\n"[..]).unwrap_err();
        match &err {
            ReadError::Malformed { row, reason } => {
                assert_eq!(*row, 2);
                assert!(reason.contains("last_hop"), "{reason}");
            }
            other => panic!("want Malformed, got {other:?}"),
        }
        let err = read_links(&b"header\n1,2,999.2.3.4,1\n"[..]).unwrap_err();
        assert!(err.to_string().contains("malformed row 2"), "{err}");
        // Header-only is fine.
        assert!(read_annotations(&b"addr,ir,asn,origin_asn,conn_asn\n"[..])
            .unwrap()
            .is_empty());
        assert!(read_links(&b"ir_asn,conn_asn,iface_addr,last_hop\n"[..])
            .unwrap()
            .is_empty());
    }
}
