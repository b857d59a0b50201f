//! Election exceptions (§6.1.3).
//!
//! Two situations where the AS with the most votes is systematically wrong:
//!
//! * **Multihomed to a provider** (Fig. 11): a stub customer's border router
//!   carries several provider-addressed interfaces but few links into the
//!   customer's own space, so the provider out-votes the true owner. When a
//!   single subsequent AS is a customer of an IR origin AS, the customer is
//!   selected.
//! * **Multiple peers/providers**: all interfaces share one origin AS and
//!   every subsequent AS is a peer or provider of it (or the mirror image),
//!   making the common denominator the operator — provided it retains at
//!   least half the leading vote count.

use as_rel::{AsRelationships, Relationship};
use net_types::Asn;

/// Checks the exceptions given the IR's origin ASes, the distinct
/// post-correction link votes (ascending) and the full vote tally (links +
/// interface votes, `(ASN, count)` ascending by ASN). Returns the
/// exceptional annotation if one applies.
pub fn check_exceptions(
    origins: &[Asn],
    link_vote_ases: &[Asn],
    all_votes: &[(Asn, u64)],
    rels: &AsRelationships,
) -> Option<Asn> {
    // ---- multihomed customer ----
    if let [s] = *link_vote_ases {
        if origins.iter().any(|&o| rels.is_customer(s, o)) {
            return Some(s);
        }
    }

    let vote_guard = |candidate: Asn| -> bool {
        let max = all_votes.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let votes = all_votes
            .binary_search_by_key(&candidate, |&(a, _)| a)
            .map_or(0, |k| all_votes[k].1);
        max == 0 || votes * 2 >= max
    };

    // ---- multiple peers/providers, single-origin form ----
    if let ([o], 2..) = (origins, link_vote_ases.len()) {
        let o = *o;
        let all_up = link_vote_ases.iter().all(|&s| {
            s != o
                && matches!(
                    rels.relationship(s, o),
                    Some(Relationship::Peer) | Some(Relationship::Provider)
                )
        });
        if all_up && vote_guard(o) {
            return Some(o);
        }
    }

    // ---- mirror image: many origins, one subsequent AS above them all ----
    if let ([s], 2..) = (link_vote_ases, origins.len()) {
        let s = *s;
        let above_all = origins.iter().all(|&o| {
            s != o
                && matches!(
                    rels.relationship(s, o),
                    Some(Relationship::Peer) | Some(Relationship::Provider)
                )
        });
        if above_all && vote_guard(s) {
            return Some(s);
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    /// A vote tally from `(ASN, count)` pairs in ascending ASN order.
    fn tally(v: &[(u32, u64)]) -> Vec<(Asn, u64)> {
        v.iter().map(|&(a, n)| (Asn(a), n)).collect()
    }

    #[test]
    fn multihomed_customer_selected() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(10), Asn(20)); // 20 is a customer of origin 10
        let votes = tally(&[(10, 3), (20, 1)]); // provider out-votes...
        let got = check_exceptions(&set(&[10]), &set(&[20]), &votes, &rels);
        assert_eq!(got, Some(Asn(20)));
    }

    #[test]
    fn multihomed_requires_relationship() {
        let rels = AsRelationships::new();
        let votes = tally(&[]);
        assert_eq!(
            check_exceptions(&set(&[10]), &set(&[20]), &votes, &rels),
            None
        );
    }

    #[test]
    fn single_origin_multiple_uphill_neighbors() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(20), Asn(10));
        rels.add_p2p(Asn(30), Asn(10));
        // The origin has exactly half the max.
        let votes = tally(&[(10, 2), (20, 2), (30, 2)]);
        let got = check_exceptions(&set(&[10]), &set(&[20, 30]), &votes, &rels);
        assert_eq!(got, Some(Asn(10)));
    }

    #[test]
    fn vote_guard_rejects_weak_candidate() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(20), Asn(10));
        rels.add_p2p(Asn(30), Asn(10));
        let votes = tally(&[(10, 1), (20, 5), (30, 1)]); // 10: under half of 5
        assert_eq!(
            check_exceptions(&set(&[10]), &set(&[20, 30]), &votes, &rels),
            None
        );
    }

    #[test]
    fn mirror_form_single_subsequent_above_all_origins() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(30), Asn(10));
        rels.add_p2p(Asn(30), Asn(11));
        let votes = tally(&[(10, 2), (30, 2)]);
        let got = check_exceptions(&set(&[10, 11]), &set(&[30]), &votes, &rels);
        assert_eq!(got, Some(Asn(30)));
    }

    #[test]
    fn downhill_neighbor_blocks_exception() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(20), Asn(10));
        rels.add_p2c(Asn(10), Asn(30)); // 30 is a CUSTOMER of the origin
        let votes = tally(&[]);
        assert_eq!(
            check_exceptions(&set(&[10]), &set(&[20, 30]), &votes, &rels),
            None
        );
    }
}
