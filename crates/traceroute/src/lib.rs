//! Traceroute data model and measurement simulator.
//!
//! The data model ([`Trace`], [`Hop`], [`ReplyType`]) mirrors what matters
//! about an ICMP Paris traceroute record for boundary mapping: the probed
//! destination, and per-TTL the responding address and ICMP reply type (the
//! paper's §4.2 link-confidence labels depend on reply types and hop gaps).
//! Traces serialize to JSON-lines ([`io`]), the shape CAIDA publishes.
//! A [`Corpus`] stores them column-wise in rank space: it holds the
//! distinct responding addresses and destinations, and every hop slot and
//! row carries the rank of its address and destination in them. A corpus
//! is indexed as it is sealed from a [`CorpusBuilder`], so alias
//! resolution and phase 1 read the tables it was built with.
//!
//! The simulator ([`sim`]) replaces the Ark measurement infrastructure: it
//! probes a synthetic [`topo_gen::Internet`] from a set of vantage points,
//! reproducing the measurement artifacts that bdrmapIT's heuristics target —
//! silent and rate-limited routers, firewalled edge networks, echo-only
//! replies, off-path and third-party reply addresses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod index;
pub mod io;
pub mod sim;

pub use corpus::{
    decode, Corpus, CorpusBuilder, CorpusError, Rows, MAX_ADDRS, MAX_HOPS, MAX_MONITORS,
};
pub use index::NO_RANK;
/// The pool [`Corpus::concat`] seals on, for callers that hold none.
pub use pool::WorkerPool;

use net_types::format_ipv4;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ICMP reply type of one traceroute response.
///
/// The paper's link labels (§4.2): Time Exceeded / Destination Unreachable
/// "typically indicate that the traceroute probe arrived at interface j on
/// the responding router", while Echo Reply only proves the address is *on*
/// the responding router. A hop slot's code is the variant's position plus
/// one ([`decode`]); code 0 is `*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplyType {
    /// ICMP Time Exceeded — the normal intermediate-hop reply.
    TimeExceeded,
    /// ICMP Echo Reply — the destination (or an echo-answering box) replied.
    EchoReply,
    /// ICMP Destination Unreachable.
    DestUnreachable,
}

/// One responsive hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hop {
    /// Responding source address.
    pub addr: u32,
    /// ICMP reply type.
    pub reply: ReplyType,
}

/// Why probing stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The destination answered.
    Completed,
    /// Too many consecutive unresponsive hops.
    GapLimit,
    /// An ICMP unreachable ended the measurement.
    Unreachable,
    /// No route toward the destination existed at the vantage point.
    NoRoute,
}

/// One traceroute measurement, owned: the JSON-lines record shape and the
/// fixture builder. A corpus stores rows column-wise in a [`Corpus`] and
/// hands them out as borrowed [`TraceRef`] views.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Monitor (VP) name, e.g. `"vp-2001"`.
    pub monitor: String,
    /// Source address of the probes.
    pub src: u32,
    /// Probed destination address.
    pub dst: u32,
    /// Per-TTL responses; `hops[t]` is the reply to the TTL `t+1` probe,
    /// `None` for an unresponsive hop (`*`).
    pub hops: Vec<Option<Hop>>,
    /// Why the measurement stopped.
    pub stop: StopReason,
}

impl Trace {
    /// The responsive hops with their TTL (1-based), in order.
    pub fn responsive(&self) -> impl DoubleEndedIterator<Item = (u8, Hop)> + '_ {
        (self.hops.iter().enumerate()).filter_map(|(i, h)| h.map(|h| ((i + 1) as u8, h)))
    }

    /// The final responsive hop, if any.
    pub fn last_hop(&self) -> Option<(u8, Hop)> {
        self.responsive().next_back()
    }

    /// Did the destination itself answer (the measurement completed)?
    pub fn reached_dst(&self) -> bool {
        self.stop == StopReason::Completed
    }

    /// Total responsive hop count.
    pub fn responsive_count(&self) -> usize {
        self.hops.iter().flatten().count()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (src, dst) = (format_ipv4(self.src), format_ipv4(self.dst));
        write!(f, "trace {src} -> {dst} [{:?}]", self.stop)?;
        for (ttl, hop) in (1..).zip(&self.hops) {
            match hop {
                Some(h) => write!(f, "\n  {ttl:>2}  {}  {:?}", format_ipv4(h.addr), h.reply)?,
                None => write!(f, "\n  {ttl:>2}  *")?,
            }
        }
        Ok(())
    }
}

/// One row of a [`Corpus`], borrowed: the same fields as [`Trace`], its
/// hop slots decoded through the corpus's address table.
#[derive(Clone, Copy)]
pub struct TraceRef<'a> {
    /// Monitor (VP) name.
    pub monitor: &'a str,
    /// Source address of the probes.
    pub src: u32,
    /// Probed destination address.
    pub dst: u32,
    /// Why the measurement stopped.
    pub stop: StopReason,
    /// The row's hop slots ([`decode`]).
    slots: &'a [u32],
    /// The table the slots' ranks index.
    addrs: &'a [u32],
}

impl<'a> TraceRef<'a> {
    /// Per-TTL responses: the reply to the TTL `t+1` probe is the `t`-th
    /// item, `None` for an unresponsive hop (`*`).
    pub fn hops(self) -> impl DoubleEndedIterator<Item = Option<Hop>> + ExactSizeIterator + 'a {
        let hop = |(rank, reply): (u32, ReplyType)| Hop {
            addr: self.addrs[rank as usize],
            reply,
        };
        self.slots.iter().map(move |&s| decode(s).map(hop))
    }

    /// The responsive hops with their TTL (1-based), in order.
    pub fn responsive(self) -> impl DoubleEndedIterator<Item = (u8, Hop)> + 'a {
        (self.hops().enumerate()).filter_map(|(i, h)| h.map(|h| ((i + 1) as u8, h)))
    }

    /// The final responsive hop, if any.
    pub fn last_hop(self) -> Option<(u8, Hop)> {
        self.responsive().next_back()
    }

    /// Did the destination itself answer (the measurement completed)?
    pub fn reached_dst(self) -> bool {
        self.stop == StopReason::Completed
    }

    /// Total responsive hop count.
    pub fn responsive_count(self) -> usize {
        self.hops().flatten().count()
    }

    /// An owned copy of the row.
    pub fn to_owned(self) -> Trace {
        Trace {
            monitor: self.monitor.to_owned(),
            src: self.src,
            dst: self.dst,
            hops: self.hops().collect(),
            stop: self.stop,
        }
    }
}

/// Rows are equal when their decoded fields are, whatever the rank spaces
/// of their corpora.
impl PartialEq for TraceRef<'_> {
    fn eq(&self, other: &TraceRef<'_>) -> bool {
        (self.monitor, self.src, self.dst, self.stop)
            == (other.monitor, other.src, other.dst, other.stop)
            && self.hops().eq(other.hops())
    }
}

impl Eq for TraceRef<'_> {}

impl fmt::Debug for TraceRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TraceRef::to_owned(*self).fmt(f)
    }
}

impl fmt::Display for TraceRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TraceRef::to_owned(*self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace {
            monitor: "vp-1".into(),
            src: 1,
            dst: 99,
            hops: vec![
                Some(Hop {
                    addr: 10,
                    reply: ReplyType::TimeExceeded,
                }),
                None,
                Some(Hop {
                    addr: 20,
                    reply: ReplyType::TimeExceeded,
                }),
                Some(Hop {
                    addr: 99,
                    reply: ReplyType::EchoReply,
                }),
            ],
            stop: StopReason::Completed,
        }
    }

    #[test]
    fn responsive_iteration() {
        let t = trace();
        let hops: Vec<(u8, u32)> = t.responsive().map(|(ttl, h)| (ttl, h.addr)).collect();
        assert_eq!(hops, vec![(1, 10), (3, 20), (4, 99)]);
        assert_eq!(t.responsive_count(), 3);
        assert_eq!(t.last_hop().unwrap().1.addr, 99);
        assert!(t.reached_dst());
    }

    #[test]
    fn display_renders_stars() {
        let s = trace().to_string();
        assert!(s.contains("0.0.0.10"));
        assert!(s.contains("*"));
        assert!(s.contains("EchoReply"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace {
            monitor: "vp".into(),
            src: 1,
            dst: 2,
            hops: vec![None, None],
            stop: StopReason::GapLimit,
        };
        assert_eq!(t.last_hop(), None);
        assert_eq!(t.responsive_count(), 0);
        assert!(!t.reached_dst());
    }
}
