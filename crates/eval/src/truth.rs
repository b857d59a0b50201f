//! Ground-truth interdomain links and corpus visibility.
//!
//! The paper validates at link granularity against operator ground truth,
//! counting only "links visible in the paths" for recall. The synthetic
//! equivalent: an AS adjacency involving a validation network counts as
//! *visible* when the corpus contains evidence of it — an observed address
//! on one of its router-level links, a boundary crossing between observed
//! interfaces, or (for silent edges) a trace that died at the near side
//! while probing the far side. Precision judges inferred pairs against the
//! *full* truth, so correct inferences beyond the visible set are never
//! penalized (the paper likewise credits links absent from BGP).

use bdrmapit_core::Annotated;
use net_types::Asn;
use std::collections::BTreeSet;
use topo_gen::Internet;
use traceroute::Corpus;

/// A canonical (low, high) AS pair.
pub type AsPair = (Asn, Asn);

/// Canonicalizes a pair.
pub fn pair(a: Asn, b: Asn) -> AsPair {
    (a.min(b), a.max(b))
}

/// Every true AS adjacency in the generated Internet.
pub fn true_pairs(net: &Internet) -> BTreeSet<AsPair> {
    net.true_links()
        .iter()
        .map(|l| pair(l.as_a, l.as_b))
        .collect()
}

/// True adjacencies involving `asn`.
pub fn true_pairs_of(net: &Internet, asn: Asn) -> BTreeSet<AsPair> {
    true_pairs(net)
        .into_iter()
        .filter(|&(a, b)| a == asn || b == asn)
        .collect()
}

/// The true owner of the router behind an observed address, if the address
/// is a real interface.
fn owner_of_addr(net: &Internet, addr: u32) -> Option<Asn> {
    net.topology
        .iface_by_addr(addr)
        .map(|i| net.topology.owner(i.router))
}

/// AS adjacencies involving `asn` visible in the corpus (see module docs).
/// `include_last_hop` controls whether the silent-edge rule applies —
/// Fig. 17 excludes links that only appear as the last hop.
pub fn visible_pairs(
    net: &Internet,
    traces: &Corpus,
    asn: Asn,
    include_last_hop: bool,
) -> BTreeSet<AsPair> {
    visible_pairs_in(net, traces, true_pairs_of(net, asn), include_last_hop)
}

/// Every visible AS adjacency, regardless of network (used by the
/// Internet-wide ablations).
pub fn visible_pairs_all(
    net: &Internet,
    traces: &Corpus,
    include_last_hop: bool,
) -> BTreeSet<AsPair> {
    visible_pairs_in(net, traces, true_pairs(net), include_last_hop)
}

fn visible_pairs_in(
    net: &Internet,
    traces: &Corpus,
    truth: BTreeSet<AsPair>,
    include_last_hop: bool,
) -> BTreeSet<AsPair> {
    let mut visible: BTreeSet<AsPair> = BTreeSet::new();

    // Rule 1: observed link addresses — point-to-point links only. An IXP
    // port address is shared by many peerings, so observing it is not
    // evidence of any particular pairing; IXP pairs become visible through
    // rule 2's boundary crossings instead.
    let observed = alias::observed_addresses(traces);
    let observed = |addr: &u32| observed.binary_search(addr).is_ok();
    for l in net.true_links() {
        let p = pair(l.as_a, l.as_b);
        if !truth.contains(&p) {
            continue;
        }
        let on_ixp_lan = net
            .addressing
            .ixps
            .iter()
            .any(|ixp| ixp.prefix.contains(l.addr_a));
        if on_ixp_lan {
            continue;
        }
        if observed(&l.addr_a) || observed(&l.addr_b) {
            visible.insert(p);
        }
    }

    // Rule 2: boundary crossings between observed interfaces.
    for t in traces {
        let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
        for w in hops.windows(2) {
            let (oa, ob) = (
                owner_of_addr(net, w[0].1.addr),
                owner_of_addr(net, w[1].1.addr),
            );
            if let (Some(a), Some(b)) = (oa, ob) {
                if a != b {
                    let p = pair(a, b);
                    if truth.contains(&p) {
                        visible.insert(p);
                    }
                }
            }
        }
    }

    // Rule 3: silent edges — the trace died at a router adjacent to the
    // destination's true network. The dying hop must itself be link-less in
    // the corpus (never followed by a response anywhere): that is the §5
    // precondition, and a link whose only witness is a trace dying at a
    // still-forwarding mid-path router is not evidenced in the dataset.
    if include_last_hop {
        let mut has_successor: BTreeSet<u32> = BTreeSet::new();
        for t in traces {
            let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
            for w in hops.windows(2) {
                has_successor.insert(w[0].1.addr);
            }
        }
        for t in traces {
            if t.reached_dst() {
                continue;
            }
            let Some((_, last)) = t.last_hop() else {
                continue;
            };
            if has_successor.contains(&last.addr) {
                continue;
            }
            let Some(near) = owner_of_addr(net, last.addr) else {
                continue;
            };
            let Some(dest_holder) = net.addressing.true_holder(t.dst) else {
                continue;
            };
            if near != dest_holder {
                let p = pair(near, dest_holder);
                if truth.contains(&p) {
                    visible.insert(p);
                }
            }
        }
    }

    visible
}

/// Inferred AS pairs from a bdrmapIT result, optionally restricted to pairs
/// involving one AS, optionally dropping links only inferred at last hops.
pub fn bdrmapit_pairs(
    result: &Annotated,
    focus: Option<Asn>,
    include_last_hop: bool,
) -> BTreeSet<AsPair> {
    result
        .interdomain_links()
        .iter()
        .filter(|l| include_last_hop || !l.last_hop)
        .map(|l| pair(l.ir_as, l.conn_as))
        .filter(|&(a, b)| focus.is_none_or(|f| a == f || b == f))
        .collect()
}

/// Inferred AS pairs from a MAP-IT run.
pub fn mapit_pairs(links: &[mapit::MapitLink], focus: Option<Asn>) -> BTreeSet<AsPair> {
    links
        .iter()
        .filter(|l| l.origin != l.operator && l.origin.is_some() && l.operator.is_some())
        .map(|l| pair(l.origin, l.operator))
        .filter(|&(a, b)| focus.is_none_or(|f| a == f || b == f))
        .collect()
}

/// Inferred AS pairs from a bdrmap run (always involves the VP network).
pub fn bdrmap_pairs(result: &bdrmap::BdrmapResult) -> BTreeSet<AsPair> {
    result
        .links
        .iter()
        .filter(|l| l.owner.is_some() && l.owner != result.vp_as)
        .map(|l| pair(result.vp_as, l.owner))
        .collect()
}

/// Link-level score with independent precision and recall numerators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LinkScore {
    /// Inferred pairs that exist in the full truth.
    pub correct: usize,
    /// Inferred pairs total.
    pub inferred: usize,
    /// Visible truth pairs that were inferred.
    pub found_visible: usize,
    /// Visible truth pairs total.
    pub visible: usize,
}

impl LinkScore {
    /// Computes the score.
    pub fn compute(
        inferred: &BTreeSet<AsPair>,
        truth_all: &BTreeSet<AsPair>,
        truth_visible: &BTreeSet<AsPair>,
    ) -> LinkScore {
        LinkScore {
            correct: inferred.intersection(truth_all).count(),
            inferred: inferred.len(),
            found_visible: inferred.intersection(truth_visible).count(),
            visible: truth_visible.len(),
        }
    }

    /// TP/(TP+FP).
    pub fn precision(&self) -> f64 {
        if self.inferred == 0 {
            1.0
        } else {
            self.correct as f64 / self.inferred as f64
        }
    }

    /// Visible links recovered.
    pub fn recall(&self) -> f64 {
        if self.visible == 0 {
            1.0
        } else {
            self.found_visible as f64 / self.visible as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(u32, u32)]) -> BTreeSet<AsPair> {
        pairs.iter().map(|&(a, b)| pair(Asn(a), Asn(b))).collect()
    }

    #[test]
    fn pair_canonical() {
        assert_eq!(pair(Asn(5), Asn(2)), (Asn(2), Asn(5)));
    }

    #[test]
    fn link_score_math() {
        let inferred = set(&[(1, 2), (1, 3), (1, 9)]);
        let all = set(&[(1, 2), (1, 3), (1, 4)]);
        let visible = set(&[(1, 2), (1, 4)]);
        let s = LinkScore::compute(&inferred, &all, &visible);
        assert_eq!(s.correct, 2);
        assert_eq!(s.inferred, 3);
        assert_eq!(s.found_visible, 1);
        assert_eq!(s.visible, 2);
        assert!((s.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_scores() {
        let empty = BTreeSet::new();
        let s = LinkScore::compute(&empty, &empty, &empty);
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }
}
