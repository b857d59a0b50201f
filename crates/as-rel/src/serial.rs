//! CAIDA *serial-1* relationship file format.
//!
//! One relationship per line: `<provider>|<customer>|-1` for transit and
//! `<peer>|<peer>|0` for peering. Comment lines start with `#`. This is the
//! format published at <https://publicdata.caida.org/datasets/as-relationships/>
//! and the interchange format between our generator, inference, and the
//! bdrmapIT core.

use crate::{AsRelationships, Relationship};
use net_types::Asn;
use std::fmt;

/// Error from parsing a serial-1 file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SerialParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serial-1 parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for SerialParseError {}

impl AsRelationships {
    /// Serializes to serial-1 text, canonical pair order, transit edges as
    /// `provider|customer|-1`.
    pub fn to_serial1(&self) -> String {
        let mut out =
            String::from("# AS relationships (serial-1): <provider|customer|-1> <peer|peer|0>\n");
        for (a, b, rel) in self.iter() {
            match rel {
                Relationship::Provider => out.push_str(&format!("{}|{}|-1\n", a.0, b.0)),
                Relationship::Customer => out.push_str(&format!("{}|{}|-1\n", b.0, a.0)),
                Relationship::Peer => out.push_str(&format!("{}|{}|0\n", a.0, b.0)),
            }
        }
        out
    }

    /// Parses serial-1 text.
    pub fn from_serial1(text: &str) -> Result<Self, SerialParseError> {
        let mut rels = AsRelationships::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| SerialParseError {
                line: i + 1,
                message: message.to_string(),
            };
            let mut fields = line.split('|');
            let a = fields.next().ok_or_else(|| err("missing first AS"))?;
            let a = parse_asn(a).ok_or_else(|| err("bad first AS"))?;
            let b = fields.next().ok_or_else(|| err("missing second AS"))?;
            let b = parse_asn(b).ok_or_else(|| err("bad second AS"))?;
            let rel = fields.next().ok_or_else(|| err("missing relationship"))?;
            match rel {
                "-1" => rels.add_p2c(Asn(a), Asn(b)),
                "0" => rels.add_p2p(Asn(a), Asn(b)),
                other => return Err(err(&format!("unknown relationship code {other:?}"))),
            }
        }
        Ok(rels)
    }
}

/// A 32-bit ASN written in ASCII digits only: `str::parse` would also take
/// a leading `+`.
fn parse_asn(field: &str) -> Option<u32> {
    if field.is_empty() || !field.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    field.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(3356), Asn(64500));
        r.add_p2c(Asn(64500), Asn(64501));
        r.add_p2p(Asn(3356), Asn(1299));
        let text = r.to_serial1();
        let back = AsRelationships::from_serial1(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.is_provider(Asn(3356), Asn(64500)));
        assert!(back.is_provider(Asn(64500), Asn(64501)));
        assert!(back.is_peer(Asn(1299), Asn(3356)));
    }

    #[test]
    fn parses_reference_sample() {
        let text = "\
# comment

1|2|-1
2|3|0
";
        let r = AsRelationships::from_serial1(text).unwrap();
        assert!(r.is_provider(Asn(1), Asn(2)));
        assert!(r.is_peer(Asn(2), Asn(3)));
    }

    #[test]
    fn error_reporting() {
        let e = AsRelationships::from_serial1("1|2|9\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown relationship"));
        let e = AsRelationships::from_serial1("x|2|-1\n").unwrap_err();
        assert!(e.message.contains("bad first AS"));
        let e = AsRelationships::from_serial1("1\n").unwrap_err();
        assert!(e.message.contains("missing second AS"));
    }

    #[test]
    fn rejects_signs_whitespace_and_non_ascii_digits() {
        for (line, reason) in [
            ("+65000|+3|-1", "bad first AS"),
            ("65000|+3|-1", "bad second AS"),
            ("-1|3|-1", "bad first AS"),
            ("65000|-3|0", "bad second AS"),
            ("65000 |3|-1", "bad first AS"),
            ("65000| 3|-1", "bad second AS"),
            ("65000|3\t|-1", "bad second AS"),
            ("\u{0661}|3|-1", "bad first AS"),
            ("65000|\u{FF13}|0", "bad second AS"),
            ("4294967296|3|-1", "bad first AS"),
            ("|3|-1", "bad first AS"),
            ("65000|3|+0", "unknown relationship"),
            ("65000|3| -1", "unknown relationship"),
        ] {
            let text = format!("1|2|-1\n{line}\n");
            let e = AsRelationships::from_serial1(&text).unwrap_err();
            assert_eq!(e.line, 2, "{line:?}");
            assert!(e.message.contains(reason), "{line:?}: {}", e.message);
        }
        assert!(AsRelationships::from_serial1("4294967295|3|-1\n").is_ok());
    }
}
