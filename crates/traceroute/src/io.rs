//! JSON-lines persistence for traces.
//!
//! One JSON object per line, the shape CAIDA's converted traceroute archives
//! use. Large campaigns stream through [`write_jsonl`] / [`read_jsonl`]
//! without holding more than one record in memory.

use crate::Trace;
use std::io::{BufRead, BufReader, Read, Write};

/// Serializes traces as JSON lines.
pub fn write_jsonl<W: Write>(mut w: W, traces: &[Trace]) -> std::io::Result<()> {
    for t in traces {
        let line = serde_json::to_string(t).map_err(std::io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// The most TTL slots a trace may carry: [`Trace::responsive`] numbers
/// hops with a `u8` TTL, so a longer trace would wrap it.
pub const MAX_HOPS: usize = u8::MAX as usize;

/// Reads traces from JSON lines, skipping blank lines. A record with more
/// than [`MAX_HOPS`] hop slots is rejected as `InvalidData`.
pub fn read_jsonl<R: Read>(r: R) -> std::io::Result<Vec<Trace>> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let invalid = |msg: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {msg}", i + 1),
            )
        };
        let t: Trace = serde_json::from_str(&line).map_err(|e| invalid(e.to_string()))?;
        if t.hops.len() > MAX_HOPS {
            return Err(invalid(format!("more than {MAX_HOPS} hops")));
        }
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hop, ReplyType, StopReason};

    fn traces() -> Vec<Trace> {
        vec![
            Trace {
                monitor: "vp-a".into(),
                src: 0x0a000001,
                dst: 0x0b000001,
                hops: vec![
                    Some(Hop {
                        addr: 0x0a000002,
                        reply: ReplyType::TimeExceeded,
                    }),
                    None,
                    Some(Hop {
                        addr: 0x0b000001,
                        reply: ReplyType::EchoReply,
                    }),
                ],
                stop: StopReason::Completed,
            },
            Trace {
                monitor: "vp-b".into(),
                src: 0x0a000001,
                dst: 0x0c000001,
                hops: vec![None],
                stop: StopReason::GapLimit,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &traces()).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, traces());
    }

    #[test]
    fn skips_blank_lines() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &traces()).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    fn trace_with_slots(n: usize) -> Trace {
        Trace {
            monitor: "vp-a".into(),
            src: 1,
            dst: 2,
            hops: (0..n)
                .map(|i| {
                    Some(Hop {
                        addr: 100 + i as u32,
                        reply: ReplyType::TimeExceeded,
                    })
                })
                .collect(),
            stop: StopReason::GapLimit,
        }
    }

    #[test]
    fn accepts_255_hop_slots() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[trace_with_slots(255)]).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back[0].hops.len(), 255);
        assert_eq!(back[0].responsive().last().map(|(ttl, _)| ttl), Some(255));
    }

    #[test]
    fn rejects_256_hop_slots() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[trace_with_slots(1), trace_with_slots(256)]).unwrap();
        let err = read_jsonl(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: more than 255 hops");
    }

    #[test]
    fn reports_bad_lines() {
        let err = read_jsonl(&b"{not json}\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
