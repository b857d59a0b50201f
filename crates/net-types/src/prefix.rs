//! IPv4 CIDR prefixes.

use crate::{format_ipv4, parse_ipv4};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;

/// An IPv4 CIDR prefix, stored canonically: all bits below the prefix length
/// are zero.
///
/// Construction through [`Prefix::new`] masks the address, so two `Prefix`
/// values are `==` iff they denote the same address block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

/// Error returned when parsing a prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl Prefix {
    /// Creates a prefix, masking `addr` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    #[inline]
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The /0 prefix covering the entire IPv4 space.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    /// A /32 host route for `addr`.
    #[inline]
    pub fn host(addr: u32) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The network address (low end) of the prefix.
    #[inline]
    pub fn addr(self) -> u32 {
        self.addr
    }

    /// The prefix length in bits.
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// True only for the /0 default prefix (clippy insists `len` needs it).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The netmask for a given length: `mask(24) == 0xffff_ff00`.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        debug_assert!(len <= 32);
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The number of addresses covered: `2^(32-len)`.
    #[inline]
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The highest address covered by the prefix.
    #[inline]
    pub fn last_addr(self) -> u32 {
        self.addr | !Self::mask(self.len)
    }

    /// Does this prefix cover `addr`?
    #[inline]
    pub fn contains(self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// Does this prefix cover every address of `other`?
    #[inline]
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Do the two prefixes share any address?
    #[inline]
    pub fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The immediate parent (one bit shorter), or `None` for /0.
    #[inline]
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.addr, self.len - 1))
        }
    }

    /// Splits into the two children one bit longer, or `None` for /32.
    #[inline]
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            None
        } else {
            let l = self.len + 1;
            let hi_bit = 1u32 << (32 - l);
            Some((
                Prefix::new(self.addr, l),
                Prefix::new(self.addr | hi_bit, l),
            ))
        }
    }

    /// The /24 prefix containing `addr` — bdrmapIT's reallocated-prefix
    /// heuristic (§6.1.2) matches customer reallocations at /24 granularity.
    #[inline]
    pub fn slash24_of(addr: u32) -> Prefix {
        Prefix::new(addr, 24)
    }

    /// Iterates over the sub-prefixes of length `sublen` inside this prefix.
    ///
    /// # Panics
    /// Panics if `sublen < self.len()`.
    pub fn subnets(self, sublen: u8) -> impl Iterator<Item = Prefix> {
        assert!(
            sublen >= self.len,
            "sublen {sublen} < prefix len {}",
            self.len
        );
        assert!(sublen <= 32);
        let count = 1u64 << (sublen - self.len);
        let step = 1u64 << (32 - sublen);
        let base = self.addr as u64;
        (0..count).map(move |i| Prefix::new((base + i * step) as u32, sublen))
    }

    /// Returns the value of bit `i` of the network address, where bit 0 is
    /// the most significant. Used by the radix trie.
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        debug_assert!(i < 32);
        self.addr & (1u32 << (31 - i)) != 0
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", format_ipv4(self.addr), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(s.to_string()))?;
        let addr = parse_ipv4(ip).ok_or_else(|| PrefixParseError(s.to_string()))?;
        if len.is_empty() || !len.bytes().all(|c| c.is_ascii_digit()) {
            // `str::parse` would take a leading `+`.
            return Err(PrefixParseError(s.to_string()));
        }
        let len: u8 = len.parse().map_err(|_| PrefixParseError(s.to_string()))?;
        if len > 32 {
            return Err(PrefixParseError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl Serialize for Prefix {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Prefix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(|e: PrefixParseError| D::Error::custom(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_masking() {
        assert_eq!(Prefix::new(0x0a0a0a0a, 8), p("10.0.0.0/8"));
        assert_eq!(p("10.1.2.3/24").addr(), parse_ipv4("10.1.2.0").unwrap());
    }

    #[test]
    fn display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "10.0.0.0",
            "10.0.0.0/33",
            "10.0.0/8",
            "/8",
            "10.0.0.0/x",
            "10.0.0.0/",
            "10.0.0.0/+8",
            "10.0.0.0/-8",
            "10.0.0.0/ 8",
            "10.0.0.0/\u{0668}",
            "+10.0.0.0/8",
        ] {
            assert!(bad.parse::<Prefix>().is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn containment() {
        let net = p("10.0.0.0/8");
        assert!(net.contains(parse_ipv4("10.255.255.255").unwrap()));
        assert!(!net.contains(parse_ipv4("11.0.0.0").unwrap()));
        assert!(net.covers(p("10.1.0.0/16")));
        assert!(!p("10.1.0.0/16").covers(net));
        assert!(net.overlaps(p("10.1.0.0/16")));
        assert!(!net.overlaps(p("11.0.0.0/8")));
        assert!(Prefix::DEFAULT.covers(net));
    }

    #[test]
    fn size_and_bounds() {
        assert_eq!(p("10.0.0.0/24").size(), 256);
        assert_eq!(p("10.0.0.0/32").size(), 1);
        assert_eq!(Prefix::DEFAULT.size(), 1u64 << 32);
        assert_eq!(
            p("10.0.0.0/24").last_addr(),
            parse_ipv4("10.0.0.255").unwrap()
        );
    }

    #[test]
    fn family_ops() {
        let net = p("10.0.0.0/24");
        assert_eq!(net.parent().unwrap(), p("10.0.0.0/23"));
        let (a, b) = net.children().unwrap();
        assert_eq!(a, p("10.0.0.0/25"));
        assert_eq!(b, p("10.0.0.128/25"));
        assert!(p("1.2.3.4/32").children().is_none());
        assert!(Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn subnets_enumeration() {
        let subs: Vec<_> = p("10.0.0.0/22").subnets(24).collect();
        assert_eq!(
            subs,
            vec![
                p("10.0.0.0/24"),
                p("10.0.1.0/24"),
                p("10.0.2.0/24"),
                p("10.0.3.0/24")
            ]
        );
        assert_eq!(p("10.0.0.0/24").subnets(24).count(), 1);
    }

    #[test]
    fn bit_indexing() {
        let net = p("128.0.0.0/1");
        assert!(net.bit(0));
        let net = p("0.0.0.1/32");
        assert!(net.bit(31));
        assert!(!net.bit(30));
    }

    #[test]
    fn serde_as_string() {
        let net = p("10.0.0.0/8");
        let json = serde_json::to_string(&net).unwrap();
        assert_eq!(json, "\"10.0.0.0/8\"");
        let back: Prefix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, net);
    }
}
