//! Autonomous system numbers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An autonomous system number (32-bit, RFC 6793).
///
/// `Asn(0)` is used throughout the workspace as "no AS / unannounced"; the
/// constant [`Asn::NONE`] makes that intent explicit at call sites. The IP
/// address of a traceroute hop that matches no BGP prefix, no RIR delegation,
/// and no IXP prefix maps to `Asn::NONE`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// The sentinel "no origin AS" value (AS0 is reserved by RFC 7607
    /// precisely to mean "not routed").
    pub const NONE: Asn = Asn(0);

    /// Returns true if this is the [`Asn::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Returns true if this is a real, usable ASN.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// Returns true for ASNs reserved for private use (RFC 6996):
    /// 64512–65534 and 4200000000–4294967294.
    #[inline]
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }

    /// Returns true for ASNs that must never appear as a routable origin:
    /// AS0, AS23456 (AS_TRANS), the documentation ranges 64496–64511 and
    /// 65536–65551, 65535, and 4294967295 (RFC 7300).
    #[inline]
    pub fn is_reserved(self) -> bool {
        self.0 == 0
            || self.0 == 23456
            || (64496..=64511).contains(&self.0)
            || (65536..=65551).contains(&self.0)
            || self.0 == 65535
            || self.0 == u32::MAX
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// Error parsing an [`Asn`]; holds the rejected input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsnParseError(pub String);

impl fmt::Display for AsnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AS number: {}", self.0)
    }
}

impl std::error::Error for AsnParseError {}

impl FromStr for Asn {
    type Err = AsnParseError;

    /// Parses `"64500"` or `"AS64500"` (case-insensitive prefix): ASCII
    /// digits only, so no sign or whitespace, within `u32` range.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .unwrap_or(s);
        if digits.is_empty() || !digits.bytes().all(|c| c.is_ascii_digit()) {
            // `str::parse` would take a leading `+`.
            return Err(AsnParseError(s.to_string()));
        }
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| AsnParseError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse() {
        let a = Asn(64500);
        assert_eq!(a.to_string(), "AS64500");
        assert_eq!("AS64500".parse::<Asn>().unwrap(), a);
        assert_eq!("64500".parse::<Asn>().unwrap(), a);
        assert_eq!("as64500".parse::<Asn>().unwrap(), a);
        assert!("ASX".parse::<Asn>().is_err());
        assert_eq!("4294967295".parse::<Asn>().unwrap(), Asn(u32::MAX));
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn parse_takes_ascii_digits_only() {
        for bad in [
            "",
            "AS",
            "+64500",
            "AS+64500",
            "-64500",
            "AS-0",
            " 64500",
            "64500 ",
            "AS 64500",
            "64\u{a0}500",
            "\u{0664}\u{0665}",
            "AS\u{ff16}\u{ff14}",
            "6\u{0665}",
        ] {
            let err = bad.parse::<Asn>().unwrap_err();
            assert_eq!(err, AsnParseError(bad.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn sentinel() {
        assert!(Asn::NONE.is_none());
        assert!(!Asn::NONE.is_some());
        assert!(Asn(1).is_some());
    }

    #[test]
    fn reserved_ranges() {
        assert!(Asn(0).is_reserved());
        assert!(Asn(23456).is_reserved());
        assert!(Asn(64496).is_reserved());
        assert!(Asn(65535).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        assert!(!Asn(3356).is_reserved());
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(65535).is_private());
        assert!(Asn(4_200_000_000).is_private());
    }
}
