//! JSON-lines persistence for traces.
//!
//! One JSON object per line, the shape CAIDA's converted traceroute archives
//! use:
//!
//! ```text
//! {"monitor":"vp-7","src":1,"dst":2,"hops":[{"addr":3,"reply":"TimeExceeded"},null],"stop":"GapLimit"}
//! ```
//!
//! [`write_jsonl`] renders each row straight from the corpus columns, and
//! [`read_jsonl`] parses each line straight into a [`CorpusBuilder`] with a
//! parser for this one schema, reusing one line buffer and one row of hop
//! slots: no record is materialized as a [`Trace`](crate::Trace) or a JSON
//! tree on either side, and the builder numbers each row's addresses as it
//! arrives. Lines are bounded by [`MAX_LINE_BYTES`], and every rejection is
//! an `InvalidData` error naming the line.

use crate::{Corpus, CorpusBuilder, Hop, ReplyType, StopReason};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// The longest line [`read_jsonl`] accepts, excluding its newline: a
/// [`MAX_HOPS`](crate::MAX_HOPS)-slot trace of the widest hops is under 12 KiB.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serializes a corpus as JSON lines.
pub fn write_jsonl<W: Write>(w: W, traces: &Corpus) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut w = BufWriter::new(w);
    let mut line = String::new();
    for t in traces {
        line.clear();
        line.push_str("{\"monitor\":");
        push_escaped(&mut line, t.monitor);
        let _ = write!(line, ",\"src\":{},\"dst\":{},\"hops\":[", t.src, t.dst);
        for (i, hop) in t.hops().enumerate() {
            if i > 0 {
                line.push(',');
            }
            match hop {
                Some(h) => {
                    let _ = write!(
                        line,
                        "{{\"addr\":{},\"reply\":\"{}\"}}",
                        h.addr,
                        reply_name(h.reply)
                    );
                }
                None => line.push_str("null"),
            }
        }
        let _ = writeln!(line, "],\"stop\":\"{}\"}}", stop_name(t.stop));
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// A JSON string literal, escaped exactly as the `serde_json` writer does.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reply_name(r: ReplyType) -> &'static str {
    match r {
        ReplyType::TimeExceeded => "TimeExceeded",
        ReplyType::EchoReply => "EchoReply",
        ReplyType::DestUnreachable => "DestUnreachable",
    }
}

fn stop_name(s: StopReason) -> &'static str {
    match s {
        StopReason::Completed => "Completed",
        StopReason::GapLimit => "GapLimit",
        StopReason::Unreachable => "Unreachable",
        StopReason::NoRoute => "NoRoute",
    }
}

/// Reads a corpus from JSON lines, skipping blank lines.
///
/// Every rejection is an `InvalidData` error `line N: <reason>`: a line
/// longer than [`MAX_LINE_BYTES`] (`line too long`), malformed JSON or a
/// record missing a field, a record with more than [`MAX_HOPS`](crate::MAX_HOPS) hop slots,
/// and a corpus whose width limits ([`crate::CorpusError`]) would be
/// exceeded. Fields may come in any order; unknown fields are skipped and a
/// repeated field's last value wins.
pub fn read_jsonl<R: Read>(r: R) -> std::io::Result<Corpus> {
    let mut reader = BufReader::new(r);
    let mut out = CorpusBuilder::new();
    let (mut buf, mut name, mut hops) = (Vec::new(), String::new(), Vec::new());
    for line_no in 1usize.. {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let invalid = |msg: &dyn std::fmt::Display| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {line_no}: {msg}"),
            )
        };
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            return Err(invalid(&"line too long"));
        }
        let line = std::str::from_utf8(&buf).map_err(|e| invalid(&e))?;
        if line.trim().is_empty() {
            continue;
        }
        parse_record(line.as_bytes(), &mut out, &mut name, &mut hops).map_err(|e| invalid(&e))?;
    }
    // Each row's addresses were counted as it was added, so the seal of
    // this one builder fits.
    out.finish()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Parses one record into `out` as a new row. `name` is scratch space for
/// a monitor name that carries escapes, `hops` for the record's hop slots.
fn parse_record(
    line: &[u8],
    out: &mut CorpusBuilder,
    name: &mut String,
    hops: &mut Vec<Option<Hop>>,
) -> Result<(), String> {
    let mut p = Parser {
        bytes: line,
        pos: 0,
    };
    let (mut monitor, mut src, mut dst, mut stop, mut has_hops) = (None, None, None, None, false);
    p.object(|p, key| {
        match key {
            b"monitor" => {
                let m = p.string(name)?;
                monitor = Some(out.intern(m).map_err(|e| e.to_string())?);
            }
            b"src" => src = Some(p.u32()?),
            b"dst" => dst = Some(p.u32()?),
            b"stop" => {
                stop = Some(match p.string(name)? {
                    "Completed" => StopReason::Completed,
                    "GapLimit" => StopReason::GapLimit,
                    "Unreachable" => StopReason::Unreachable,
                    "NoRoute" => StopReason::NoRoute,
                    other => return Err(format!("unknown variant `{other}` of StopReason")),
                });
            }
            b"hops" => {
                hops.clear();
                p.array(|p| {
                    hops.push(p.hop(name)?);
                    Ok(())
                })?;
                has_hops = true;
            }
            _ => p.skip_value()?,
        }
        Ok(())
    })?;
    p.skip_ws();
    if p.pos != line.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    let missing = |field: &str| format!("missing field `{field}`");
    let monitor = monitor.ok_or_else(|| missing("monitor"))?;
    let src = src.ok_or_else(|| missing("src"))?;
    let dst = dst.ok_or_else(|| missing("dst"))?;
    if !has_hops {
        return Err(missing("hops"));
    }
    let stop = stop.ok_or_else(|| missing("stop"))?;
    out.commit(monitor, src, dst, stop, hops.iter().copied())
        .map_err(|e| e.to_string())
}

/// A cursor over one line, for the trace-record schema.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Walks an object, calling `field` with each key once the cursor sits
    /// on its value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &[u8]) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Walks an array, calling `item` once the cursor sits on each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// One hop slot: `null`, or an object with `addr` and `reply`.
    fn hop(&mut self, scratch: &mut String) -> Result<Option<Hop>, String> {
        if self.peek() == Some(b'n') {
            self.literal(b"null")?;
            return Ok(None);
        }
        let (mut addr, mut reply) = (None, None);
        self.object(|p, key| {
            match key {
                b"addr" => addr = Some(p.u32()?),
                b"reply" => {
                    reply = Some(match p.string(scratch)? {
                        "TimeExceeded" => ReplyType::TimeExceeded,
                        "EchoReply" => ReplyType::EchoReply,
                        "DestUnreachable" => ReplyType::DestUnreachable,
                        other => return Err(format!("unknown variant `{other}` of ReplyType")),
                    });
                }
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        Ok(Some(Hop {
            addr: addr.ok_or("missing field `addr`")?,
            reply: reply.ok_or("missing field `reply`")?,
        }))
    }

    fn literal(&mut self, text: &[u8]) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A JSON integer in `u32` range.
    fn u32(&mut self) -> Result<u32, String> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value * 10 + u64::from(d - b'0');
            self.pos += 1;
            if value > u64::from(u32::MAX) {
                return Err(format!("integer out of range at byte {start}"));
            }
        }
        if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(format!("expected an unsigned integer at byte {start}"));
        }
        Ok(value as u32)
    }

    /// A string's raw bytes between the quotes, escapes left in place.
    fn raw_string(&mut self) -> Result<&'a [u8], String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.bytes[start..self.pos - 1]);
                }
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A string value, decoded. Without escapes it borrows the line;
    /// otherwise it is decoded into `scratch`.
    fn string<'s>(&mut self, scratch: &'s mut String) -> Result<&'s str, String>
    where
        'a: 's,
    {
        let raw = self.raw_string()?;
        let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
        if !raw.contains(&b'\\') {
            return Ok(text);
        }
        scratch.clear();
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                scratch.push(c);
                continue;
            }
            let decoded = match chars.next() {
                Some('"') => '"',
                Some('\\') => '\\',
                Some('/') => '/',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .ok()
                        .filter(|_| hex.len() == 4)
                        .ok_or("bad \\u escape")?;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err("bad escape".to_string()),
            };
            scratch.push(decoded);
        }
        Ok(scratch)
    }

    /// Skips one JSON value of any shape.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.raw_string().map(drop),
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => self.array(Parser::skip_value),
            Some(b'n') => self.literal(b"null"),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'-' | b'0'..=b'9') => {
                self.pos += 1;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.pos += 1;
                }
                Ok(())
            }
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn traces() -> Corpus {
        [
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
        .into_iter()
        .collect()
    }

    fn jsonl(traces: &Corpus) -> Vec<u8> {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, traces).unwrap();
        buf
    }

    #[test]
    fn roundtrip() {
        let back = read_jsonl(&jsonl(&traces())[..]).unwrap();
        assert_eq!(back, traces());
    }

    #[test]
    fn lines_match_the_serde_record_format() {
        let text = String::from_utf8(jsonl(&traces())).unwrap();
        for (line, t) in text.lines().zip(&traces()) {
            assert_eq!(line, serde_json::to_string(&t.to_owned()).unwrap());
        }
    }

    #[test]
    fn skips_blank_lines() {
        let mut buf = jsonl(&traces());
        buf.extend_from_slice(b"\n  \r\n\n");
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn accepts_any_field_order_whitespace_and_unknown_fields() {
        let line = br#" { "stop" : "Unreachable", "extra": {"a": [1, -2.5e3, "x\"y", null, true]}, "hops": [ null , {"reply": "DestUnreachable", "ttl": 2, "addr": 7} ], "dst": 9, "src": 8, "monitor": "vp-A\n", "src": 8 } "#;
        let c = read_jsonl(&line[..]).unwrap();
        let t = c.row(0).to_owned();
        assert_eq!(
            t,
            Trace {
                monitor: "vp-A\n".into(),
                src: 8,
                dst: 9,
                hops: vec![
                    None,
                    Some(Hop {
                        addr: 7,
                        reply: ReplyType::DestUnreachable,
                    }),
                ],
                stop: StopReason::Unreachable,
            }
        );
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

    /// Record lines rendered by the serde writer, which, unlike a corpus,
    /// can hold a trace of any length.
    fn lines(traces: &[Trace]) -> Vec<u8> {
        let mut buf = Vec::new();
        for t in traces {
            buf.extend_from_slice(serde_json::to_string(t).unwrap().as_bytes());
            buf.push(b'\n');
        }
        buf
    }

    #[test]
    fn accepts_255_hop_slots() {
        let back = read_jsonl(&lines(&[trace_with_slots(255)])[..]).unwrap();
        assert_eq!(back.row(0).hops().len(), 255);
        assert_eq!(
            back.row(0).responsive().last().map(|(ttl, _)| ttl),
            Some(255)
        );
    }

    #[test]
    fn rejects_256_hop_slots() {
        let buf = lines(&[trace_with_slots(1), trace_with_slots(256)]);
        let err = read_jsonl(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: more than 255 hops");
    }

    /// A record padded with an unknown field to exactly `len` bytes.
    fn line_of(len: usize) -> Vec<u8> {
        let mut line =
            br#"{"monitor":"m","src":1,"dst":2,"hops":[],"stop":"NoRoute","pad":""}"#.to_vec();
        let pad = len - line.len();
        line.splice(
            line.len() - 2..line.len() - 2,
            std::iter::repeat_n(b'x', pad),
        );
        assert_eq!(line.len(), len);
        line
    }

    #[test]
    fn accepts_a_line_at_the_limit() {
        let mut buf = line_of(MAX_LINE_BYTES);
        buf.push(b'\n');
        assert_eq!(read_jsonl(&buf[..]).unwrap().len(), 1);
        // The final newline is optional.
        buf.pop();
        assert_eq!(read_jsonl(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn rejects_a_line_over_the_limit() {
        let mut buf = lines(&[trace_with_slots(1)]);
        buf.extend_from_slice(&line_of(MAX_LINE_BYTES + 1));
        buf.push(b'\n');
        buf.extend_from_slice(&lines(&[trace_with_slots(2)]));
        let err = read_jsonl(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: line too long");
    }

    #[test]
    fn an_error_is_reported_even_when_valid_lines_follow() {
        let mut buf = lines(&[trace_with_slots(1)]);
        buf.extend_from_slice(b"{\"monitor\":\"m\",\"src\":1}\n");
        buf.extend_from_slice(&lines(&[trace_with_slots(2)]));
        let err = read_jsonl(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: missing field `dst`");
    }

    #[test]
    fn rejects_the_65536th_monitor() {
        let record = |i: usize| {
            format!(
                "{{\"monitor\":\"m{i}\",\"src\":1,\"dst\":2,\"hops\":[],\"stop\":\"NoRoute\"}}\n"
            )
        };
        let mut text: String = (0..crate::MAX_MONITORS).map(record).collect();
        assert_eq!(
            read_jsonl(text.as_bytes()).unwrap().len(),
            crate::MAX_MONITORS
        );
        text.push_str(&record(crate::MAX_MONITORS));
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 65536: more than 65535 monitors");
    }

    #[test]
    fn reports_bad_lines() {
        for (text, reason) in [
            (&b"{not json}\n"[..], "line 1: "),
            (b"{\"src\":4294967296}", "line 1: integer out of range"),
            (b"{\"src\":1.5}", "line 1: expected an unsigned integer"),
            (b"\xff\n", "line 1: invalid utf-8"),
            (
                b"{\"monitor\":\"m\",\"src\":1,\"dst\":2,\"hops\":[],\"stop\":\"Done\"}",
                "line 1: unknown variant `Done` of StopReason",
            ),
            (
                b"{\"monitor\":\"m\",\"src\":1,\"dst\":2,\"hops\":[],\"stop\":\"NoRoute\"} x",
                "line 1: trailing characters",
            ),
        ] {
            let err = read_jsonl(text).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with(reason), "{err} !~ {reason}");
        }
    }
}
