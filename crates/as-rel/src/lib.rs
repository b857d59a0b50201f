//! AS business relationships: storage, inference, and customer cones.
//!
//! bdrmapIT (paper §4.1) "rel\[ies\] on Luckie et al.'s technique to determine
//! whether two adjacent ASes in BGP paths are in a transit relationship.
//! This technique also infers the customer cone for an AS." This crate
//! provides:
//!
//! * [`AsRelationships`] — the relationship database: provider/customer/peer
//!   edges with symmetric lookup, neighbor queries, and the CAIDA *serial-1*
//!   interchange format (`provider|customer|-1`, `peer|peer|0`).
//! * [`CustomerCones`] — per-AS customer cones (the set of ASes reachable by
//!   following only provider→customer edges) and cone sizes, which the
//!   bdrmapIT tie-breaks consult constantly. The cones are one sorted-set
//!   column over a sorted AS table, built by one walk per AS.
//! * [`infer`] — relationship *inference* from collapsed BGP AS paths, a
//!   Gao-style vote algorithm extended with clique detection and transit
//!   degrees in the spirit of Luckie et al. 2013, so the pipeline can run
//!   end-to-end without a relationship oracle.
//! * [`valley_free`] — a path checker used by tests and by the routing
//!   simulator's invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cones;
pub mod infer;
mod rel;
mod serial;

pub use cones::CustomerCones;
pub use rel::{AsRelationships, Relationship};
pub use serial::SerialParseError;

use net_types::Asn;

/// Checks the valley-free property of an AS path under a relationship
/// database: a path must consist of zero or more customer→provider hops,
/// then at most one peer–peer hop, then zero or more provider→customer
/// hops. Hops with no known relationship fail the check.
pub fn valley_free(rels: &AsRelationships, path: &[Asn]) -> bool {
    #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
    enum Stage {
        Up,
        Peered,
        Down,
    }
    let mut stage = Stage::Up;
    for pair in path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        match rels.relationship(a, b) {
            // a is a customer of b: climbing up. Only legal before the peak.
            Some(Relationship::Customer) => {
                if stage != Stage::Up {
                    return false;
                }
            }
            Some(Relationship::Peer) => {
                if stage != Stage::Up {
                    return false;
                }
                stage = Stage::Peered;
            }
            // a is a provider of b: descending.
            Some(Relationship::Provider) => {
                stage = Stage::Down;
            }
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        // 1 and 2 are tier-1 peers; 3 is customer of 1; 4 customer of 2;
        // 5 customer of 3.
        r.add_p2c(Asn(1), Asn(3));
        r.add_p2c(Asn(2), Asn(4));
        r.add_p2c(Asn(3), Asn(5));
        r.add_p2p(Asn(1), Asn(2));
        r
    }

    fn path(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn classic_valley_free_paths() {
        let r = rels();
        // up, peer, down
        assert!(valley_free(&r, &path(&[5, 3, 1, 2, 4])));
        // pure up
        assert!(valley_free(&r, &path(&[5, 3, 1])));
        // pure down
        assert!(valley_free(&r, &path(&[1, 3, 5])));
        // single AS
        assert!(valley_free(&r, &path(&[5])));
    }

    #[test]
    fn valleys_rejected() {
        let r = rels();
        // Descend then climb again: 1→3 (down) then 3→1 (up).
        assert!(!valley_free(&r, &path(&[1, 3, 1])));
        // Peer hop after the peak: up to 1, peer to 2, then peer back.
        assert!(!valley_free(&r, &path(&[3, 1, 2, 1])));
        // Unknown relationship fails closed.
        assert!(!valley_free(&r, &path(&[5, 4])));
    }

    #[test]
    fn peer_after_descent_rejected() {
        let mut r = rels();
        r.add_p2p(Asn(3), Asn(4));
        // 1→3 is provider→customer (descending); a peer hop after it is a valley.
        assert!(!valley_free(&r, &path(&[1, 3, 4])));
        // 5→3 ascends, 3–4 peers, legal.
        assert!(valley_free(&r, &path(&[5, 3, 4])));
    }
}
