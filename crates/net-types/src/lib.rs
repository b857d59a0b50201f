//! Core vocabulary types shared by every crate in the bdrmapit-rs workspace.
//!
//! This crate deliberately has no knowledge of BGP, traceroute, or the
//! bdrmapIT algorithm itself. It provides:
//!
//! * [`Asn`] — a newtype for autonomous system numbers with the reserved
//!   ranges from RFC 6996 / RFC 7300 modeled explicitly.
//! * [`Prefix`] — an IPv4 CIDR prefix with containment, overlap, and
//!   subdivision operations.
//! * [`PrefixTrie`] — a path-compressed binary radix (Patricia) trie keyed by
//!   prefixes, supporting exact and longest-prefix-match lookups. This is the
//!   hot path of the whole pipeline: every traceroute hop address is resolved
//!   to its origin AS through one of these tries.
//! * [`SetColumn`] — many small sorted sets in one flat column, read as
//!   slices (the IR graph's per-link, per-IR and per-interface sets).
//! * [`Counter`] — a small multiset used to tally AS "votes" the way the
//!   bdrmapIT election heuristics require, with deterministic tie handling.
//!
//! Everything here is deterministic and allocation-conscious; lookups never
//! allocate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asn;
mod column;
mod counter;
mod prefix;
mod trie;

pub use asn::{Asn, AsnParseError};
pub use column::{AsSets, SetColumn};
pub use counter::Counter;
pub use prefix::{Prefix, PrefixParseError};
pub use trie::PrefixTrie;

/// Convert a dotted-quad string to a `u32` host-order address.
///
/// Returns `None` for anything that is not exactly four dot-separated
/// decimal octets of ASCII digits (no sign, whitespace or leading zero).
///
/// ```
/// assert_eq!(net_types::parse_ipv4("10.0.0.1"), Some(0x0a000001));
/// assert_eq!(net_types::parse_ipv4("10.0.0.256"), None);
/// ```
pub fn parse_ipv4(s: &str) -> Option<u32> {
    let mut out: u32 = 0;
    let mut parts = 0u8;
    for part in s.split('.') {
        if parts == 4 || part.is_empty() || part.len() > 3 {
            return None;
        }
        if part.len() > 1 && part.starts_with('0') {
            // Reject ambiguous leading-zero octets ("010" is octal in inet_aton).
            return None;
        }
        // ASCII digits only, so no sign (which `str::parse` would take).
        let mut octet: u32 = 0;
        for c in part.bytes() {
            if !c.is_ascii_digit() {
                return None;
            }
            octet = octet * 10 + u32::from(c - b'0');
        }
        if octet > 255 {
            return None;
        }
        out = (out << 8) | octet;
        parts += 1;
    }
    if parts == 4 {
        Some(out)
    } else {
        None
    }
}

/// Format a `u32` host-order address as a dotted quad.
///
/// ```
/// assert_eq!(net_types::format_ipv4(0x0a000001), "10.0.0.1");
/// ```
pub fn format_ipv4(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (addr >> 24) & 0xff,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for addr in [0u32, 1, 0x0a000001, 0xffffffff, 0xc0a80101] {
            assert_eq!(parse_ipv4(&format_ipv4(addr)), Some(addr));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "a.b.c.d",
            "1..2.3",
            "01.2.3.4",
            "1.2.3.4 ",
        ] {
            assert_eq!(parse_ipv4(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_rejects_signs_whitespace_and_non_ascii_digits() {
        for bad in [
            "+1.+2.+3.+4",
            "10.+0.0.1",
            "+10.0.0.1",
            "1.2.3.+4",
            "-1.2.3.4",
            "1.2.-0.4",
            " 1.2.3.4",
            "1. 2.3.4",
            "1.2.3.\t4",
            "1.2.3.4\n",
            "\u{0661}.2.3.4",
            "1.\u{FF12}.3.4",
            "1.2.3.\u{0664}",
        ] {
            assert_eq!(parse_ipv4(bad), None, "{bad:?} should not parse");
        }
        assert_eq!(parse_ipv4("10.0.0.1"), Some(0x0a00_0001));
    }
}
