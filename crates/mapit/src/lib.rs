//! MAP-IT baseline (Marder & Smith, IMC 2016).
//!
//! MAP-IT infers interdomain links from an *interface-level* graph — no
//! alias resolution, no destination ASes, no last-hop handling. Each
//! interface starts mapped to its BGP origin AS; an interface whose
//! neighbors on one side plurality-map to a different AS is inferred to sit
//! on a router *operated by that AS* (the address was lent across the
//! boundary for the interconnect). Each iteration re-runs the inference
//! using the operators inferred so far, refining the graph until a pass
//! changes nothing.
//!
//! This is the comparison baseline for the paper's Figs. 16 and 17: bdrmapIT
//! keeps similar precision while recalling far more links, because MAP-IT
//! "lacks heuristics for edge networks and low-visibility links, such as
//! routers without subsequent hops in traceroute" (§2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bgp::{IpToAs, OriginKind};
use net_types::{Asn, Counter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use traceroute::Corpus;

/// Tunables for the inference.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MapitConfig {
    /// Minimum fraction of one side's neighbor votes an AS must hold to be
    /// inferred as the far operator (the MAP-IT paper sweeps this f
    /// parameter; 0.5 is its default plurality threshold).
    pub plurality: f64,
    /// Maximum refinement passes.
    pub max_iterations: usize,
}

impl Default for MapitConfig {
    fn default() -> Self {
        MapitConfig {
            plurality: 0.5,
            max_iterations: 50,
        }
    }
}

/// One inferred interdomain half-link: `iface_addr` (originated by
/// `origin`) sits on a router operated by `operator`, so the ASes meet at
/// this interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MapitLink {
    /// The border interface.
    pub iface_addr: u32,
    /// BGP origin of the interface address (the near side).
    pub origin: Asn,
    /// Inferred operator of the router carrying it (the far side).
    pub operator: Asn,
}

/// The interface-level graph and its inference state.
#[derive(Clone, Debug)]
pub struct Mapit {
    addrs: Vec<u32>,
    origin: Vec<Asn>,
    /// Inferred router operator per interface (starts as origin).
    operator: Vec<Asn>,
    /// Interfaces seen immediately before / after each interface.
    prev: Vec<BTreeSet<u32>>,
    next: Vec<BTreeSet<u32>>,
    index: BTreeMap<u32, usize>,
    border: Vec<bool>,
    iterations: usize,
}

impl Mapit {
    /// Builds the interface graph from a corpus.
    pub fn build(traces: &Corpus, ip2as: &IpToAs) -> Mapit {
        let mut index: BTreeMap<u32, usize> = BTreeMap::new();
        let mut addrs = Vec::new();
        for t in traces {
            for (_, h) in t.responsive() {
                index.entry(h.addr).or_insert_with(|| {
                    addrs.push(h.addr);
                    addrs.len() - 1
                });
            }
        }
        let n = addrs.len();
        let mut g = Mapit {
            origin: addrs
                .iter()
                .map(|&a| {
                    let info = ip2as.lookup(a);
                    // IXP addresses carry no usable origin (shared LAN).
                    if info.kind == OriginKind::Ixp {
                        Asn::NONE
                    } else {
                        info.asn
                    }
                })
                .collect(),
            operator: vec![Asn::NONE; n],
            prev: vec![BTreeSet::new(); n],
            next: vec![BTreeSet::new(); n],
            border: vec![false; n],
            iterations: 0,
            addrs,
            index,
        };
        g.operator.clone_from(&g.origin);
        for t in traces {
            let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
            for w in hops.windows(2) {
                let ((_, x), (_, y)) = (w[0], w[1]);
                if x.addr == y.addr {
                    continue;
                }
                let xi = g.index[&x.addr];
                let yi = g.index[&y.addr];
                g.next[xi].insert(y.addr);
                g.prev[yi].insert(x.addr);
            }
        }
        g
    }

    /// Runs the iterative inference to a fixed point.
    pub fn run(&mut self, cfg: &MapitConfig) {
        for i in 0..cfg.max_iterations {
            self.iterations = i + 1;
            if !self.pass(cfg) {
                break;
            }
        }
    }

    /// One refinement pass; returns whether anything changed.
    fn pass(&mut self, cfg: &MapitConfig) -> bool {
        let mut changed = false;
        for idx in 0..self.addrs.len() {
            let origin = self.origin[idx];
            if origin.is_none() {
                continue; // MAP-IT has no handling for unannounced space
            }
            let decide = |side: &BTreeSet<u32>| -> Option<Asn> {
                // A plurality needs more than one witness; single-neighbor
                // chains otherwise cascade false borders upstream.
                if side.len() < 2 {
                    return None;
                }
                let mut votes: Counter<Asn> = Counter::new();
                for &naddr in side {
                    let ni = self.index[&naddr];
                    let a = self.operator[ni];
                    if a.is_some() {
                        votes.add(a);
                    }
                }
                let total = votes.total();
                if total == 0 {
                    return None;
                }
                // Plurality winner, deterministic tie toward lowest ASN.
                let winner = votes.max_keys().into_iter().next()?;
                let frac = votes.get(&winner) as f64 / total as f64;
                (winner != origin && frac >= cfg.plurality).then_some(winner)
            };
            // "a plurality of either its subsequent or preceding interfaces
            // map to another AS" — subsequent side checked first.
            let inferred = decide(&self.next[idx]).or_else(|| decide(&self.prev[idx]));
            match inferred {
                Some(op) => {
                    if self.operator[idx] != op || !self.border[idx] {
                        self.operator[idx] = op;
                        self.border[idx] = true;
                        changed = true;
                    }
                }
                None => {
                    if self.border[idx] {
                        self.border[idx] = false;
                        self.operator[idx] = origin;
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    /// The inferred interdomain links.
    pub fn links(&self) -> Vec<MapitLink> {
        let mut out: Vec<MapitLink> = (0..self.addrs.len())
            .filter(|&i| self.border[i])
            .map(|i| MapitLink {
                iface_addr: self.addrs[i],
                origin: self.origin[i],
                operator: self.operator[i],
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The inferred operator of the router carrying `addr` (its origin AS
    /// unless a border inference moved it).
    pub fn operator_of(&self, addr: u32) -> Option<Asn> {
        let &i = self.index.get(&addr)?;
        let a = self.operator[i];
        a.is_some().then_some(a)
    }

    /// Refinement passes executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Interfaces in the graph.
    pub fn interface_count(&self) -> usize {
        self.addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traceroute::Trace;

    fn corpus(traces: &[Trace]) -> Corpus {
        traces.iter().cloned().collect()
    }
    use net_types::Prefix;
    use traceroute::{Hop, ReplyType, StopReason};

    fn tr(dst: u32, hops: &[u32]) -> Trace {
        Trace {
            monitor: "vp".into(),
            src: 1,
            dst,
            hops: hops
                .iter()
                .map(|&a| {
                    Some(Hop {
                        addr: a,
                        reply: ReplyType::TimeExceeded,
                    })
                })
                .collect(),
            stop: StopReason::GapLimit,
        }
    }

    fn a(s: &str) -> u32 {
        net_types::parse_ipv4(s).unwrap()
    }

    fn oracle() -> IpToAs {
        IpToAs::from_pairs([
            ("10.1.0.0/16".parse::<Prefix>().unwrap(), Asn(1)),
            ("10.2.0.0/16".parse::<Prefix>().unwrap(), Asn(2)),
        ])
    }

    /// AS1's border address 10.1.0.9 sits on AS2's router: all its
    /// subsequent neighbors are AS2.
    #[test]
    fn detects_border_interface() {
        let traces = [
            tr(
                a("10.2.0.99"),
                &[a("10.1.0.1"), a("10.1.0.9"), a("10.2.0.1")],
            ),
            tr(
                a("10.2.0.98"),
                &[a("10.1.0.2"), a("10.1.0.9"), a("10.2.0.2")],
            ),
        ];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        let links = m.links();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].iface_addr, a("10.1.0.9"));
        assert_eq!(links[0].origin, Asn(1));
        assert_eq!(links[0].operator, Asn(2));
        assert_eq!(m.operator_of(a("10.1.0.9")), Some(Asn(2)));
        assert_eq!(m.operator_of(a("10.1.0.1")), Some(Asn(1)));
    }

    #[test]
    fn no_border_inside_one_as() {
        let traces = [tr(
            a("10.1.0.99"),
            &[a("10.1.0.1"), a("10.1.0.2"), a("10.1.0.3")],
        )];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        assert!(m.links().is_empty());
    }

    #[test]
    fn plurality_threshold_respected() {
        // 10.1.0.9 has two AS2 successors and two AS1 successors: 50/50,
        // AS2 cannot reach a strict majority... with plurality 0.5 inclusive
        // it ties; lowest-ASN deterministic winner is AS1 == origin → no
        // border.
        let traces = [
            tr(a("10.2.0.99"), &[a("10.1.0.9"), a("10.2.0.1")]),
            tr(a("10.2.0.98"), &[a("10.1.0.9"), a("10.2.0.2")]),
            tr(a("10.1.0.99"), &[a("10.1.0.9"), a("10.1.0.1")]),
            tr(a("10.1.0.98"), &[a("10.1.0.9"), a("10.1.0.2")]),
        ];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        assert!(m.links().is_empty());
    }

    #[test]
    fn refinement_propagates() {
        // Two AS1-space border interfaces (10.1.0.9, 10.1.0.12) flip to
        // operator AS2 from their own successors; 10.1.0.10, whose only
        // successors are those two interfaces, then flips through the
        // refined operators even though both successor *origins* are AS1.
        let traces = [
            tr(
                a("10.2.0.99"),
                &[a("10.1.0.1"), a("10.1.0.9"), a("10.2.0.1")],
            ),
            tr(
                a("10.2.0.98"),
                &[a("10.1.0.2"), a("10.1.0.9"), a("10.2.0.2")],
            ),
            tr(
                a("10.2.0.97"),
                &[a("10.1.0.3"), a("10.1.0.12"), a("10.2.0.3")],
            ),
            tr(
                a("10.2.0.96"),
                &[a("10.1.0.4"), a("10.1.0.12"), a("10.2.0.4")],
            ),
            tr(
                a("10.2.0.95"),
                &[a("10.1.0.5"), a("10.1.0.10"), a("10.1.0.9")],
            ),
            tr(
                a("10.2.0.94"),
                &[a("10.1.0.6"), a("10.1.0.10"), a("10.1.0.12")],
            ),
        ];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        assert_eq!(m.operator_of(a("10.1.0.9")), Some(Asn(2)));
        assert_eq!(m.operator_of(a("10.1.0.12")), Some(Asn(2)));
        assert_eq!(m.operator_of(a("10.1.0.10")), Some(Asn(2)));
        // Single-successor predecessors must NOT cascade.
        assert_eq!(m.operator_of(a("10.1.0.5")), Some(Asn(1)));
    }

    #[test]
    fn single_neighbor_is_not_a_plurality() {
        let traces = [tr(a("10.2.0.99"), &[a("10.1.0.1"), a("10.2.0.1")])];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        assert!(m.links().is_empty());
    }

    #[test]
    fn unannounced_interfaces_ignored() {
        let traces = [tr(
            a("10.2.0.99"),
            &[a("10.1.0.1"), a("192.168.0.1"), a("10.2.0.1")],
        )];
        let mut m = Mapit::build(&corpus(&traces), &oracle());
        m.run(&MapitConfig::default());
        assert_eq!(m.operator_of(a("192.168.0.1")), None);
        assert_eq!(m.interface_count(), 3);
    }

    #[test]
    fn empty_corpus() {
        let mut m = Mapit::build(&Corpus::new(), &oracle());
        m.run(&MapitConfig::default());
        assert!(m.links().is_empty());
        assert_eq!(m.interface_count(), 0);
    }
}
