//! Phase 2: annotating last-hop IRs (§5, Algorithm 1).
//!
//! ≈98% of IRs in an ITDK have no outgoing links (destinations, firewalled
//! edges, rate-limited tails). Their annotations come entirely from static
//! metadata — origin AS sets and destination AS sets — and are *frozen*:
//! phase 3 never revises them, but leans on them heavily.

use crate::graph::{Ir, IrGraph};
use crate::AnnotationState;
use as_rel::{AsRelationships, CustomerCones};
use net_types::Asn;
use std::collections::BTreeSet;

/// Annotates every IR without outgoing links. Annotations are written into
/// `state.router` and marked frozen.
pub fn annotate_last_hops(
    graph: &IrGraph,
    rels: &AsRelationships,
    cones: &CustomerCones,
    state: &mut AnnotationState,
) {
    for ir in graph.last_hop_irs() {
        let origins = &graph.ir_origins[ir.id.0 as usize];
        let dests = &graph.ir_dests[ir.id.0 as usize];
        let asn = if dests.is_empty() {
            annotate_empty_dest(ir, origins, graph, rels, cones)
        } else {
            annotate_with_dests(origins, dests, rels, cones)
        };
        if let Some(asn) = asn {
            state.router[ir.id.0 as usize] = asn;
            state.frozen[ir.id.0 as usize] = true;
        }
    }
}

/// §5.1: only the origin AS set (`origins`, ascending) is available (all
/// interfaces appeared solely in Echo Replies, so no destination ASes were
/// recorded).
fn annotate_empty_dest(
    ir: &Ir,
    origins: &[Asn],
    graph: &IrGraph,
    rels: &AsRelationships,
    cones: &CustomerCones,
) -> Option<Asn> {
    if origins.is_empty() {
        return None;
    }
    if origins.len() == 1 {
        return origins.first().copied();
    }
    // 1. An origin AS with a relationship to every other origin AS; ties go
    //    to the smallest customer cone (the presumed customer).
    let related_to_all: Vec<Asn> = origins
        .iter()
        .copied()
        .filter(|&a| {
            origins
                .iter()
                .all(|&o| o == a || rels.has_relationship(a, o))
        })
        .collect();
    if !related_to_all.is_empty() {
        return cones.smallest_cone(related_to_all);
    }
    // 2. An AS outside the set related to every AS in the set.
    let mut candidates: Option<BTreeSet<Asn>> = None;
    for &o in origins {
        let neigh: BTreeSet<Asn> = rels.neighbors_of(o);
        candidates = Some(match candidates {
            None => neigh,
            Some(prev) => prev.intersection(&neigh).copied().collect(),
        });
        if candidates.as_ref().is_some_and(BTreeSet::is_empty) {
            break;
        }
    }
    if let Some(cands) = candidates {
        let outside: Vec<Asn> = cands.into_iter().filter(|a| !origins.contains(a)).collect();
        if !outside.is_empty() {
            return cones.smallest_cone(outside);
        }
    }
    // 3. The origin AS with the most interface mappings (one vote per
    //    interface on the IR), ties to the smallest cone.
    let mut weighted: net_types::Counter<Asn> = net_types::Counter::new();
    for &ifidx in &ir.ifaces {
        let o = graph.iface_origin[ifidx.0 as usize].asn;
        if o.is_some() {
            weighted.add(o);
        }
    }
    if weighted.is_empty() {
        // Defensive: no per-interface data (possible for synthetic IRs in
        // tests); fall back to the unweighted origin set.
        return cones.smallest_cone(origins.iter().copied());
    }
    cones.smallest_cone(weighted.max_keys())
}

/// §5.2, Algorithm 1: destination ASes constrain the inference. Both sets
/// are ascending.
fn annotate_with_dests(
    origins: &[Asn],
    dests: &[Asn],
    rels: &AsRelationships,
    cones: &CustomerCones,
) -> Option<Asn> {
    // Line 3: overlap between origins and destinations.
    let overlap: Vec<Asn> = origins
        .iter()
        .copied()
        .filter(|a| dests.binary_search(a).is_ok())
        .collect();
    if overlap.len() == 1 {
        return Some(overlap[0]);
    }
    if overlap.len() > 1 {
        // Multiple overlaps: the smallest cone is the presumed reallocation
        // customer (§5.2 "Overlapping ASes").
        return cones.smallest_cone(overlap);
    }

    // Lines 4–6: destinations related to an origin.
    let related: Vec<Asn> = dests
        .iter()
        .copied()
        .filter(|&d| origins.iter().any(|&o| rels.has_relationship(d, o)))
        .collect();
    if !related.is_empty() {
        // max |customerCone(d) ∩ D|, ties toward the larger cone then the
        // lower ASN (the transit provider for the others).
        return related.into_iter().max_by_key(|&d| {
            (
                cones.intersection_size(d, dests),
                cones.size(d),
                std::cmp::Reverse(d),
            )
        });
    }

    // Lines 7–10: no relationships at all.
    let a = cones.smallest_cone(dests.iter().copied())?;
    // A bridging AS: provider of `a`(the smallest-cone destination) and
    // customer of an origin AS.
    let customers_of_origins: BTreeSet<Asn> =
        origins.iter().flat_map(|&o| rels.customers_of(o)).collect();
    let bridges: Vec<Asn> = rels
        .providers_of(a)
        .filter(|p| customers_of_origins.contains(p))
        .collect();
    if bridges.len() == 1 {
        return Some(bridges[0]);
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IrId;

    /// §5.1 on an IR without interfaces and the given origin set.
    fn empty_dest(origins: &[u32], r: &AsRelationships, cones: &CustomerCones) -> Option<Asn> {
        let ir = Ir {
            id: IrId(0),
            ifaces: vec![],
            links: vec![],
        };
        annotate_empty_dest(&ir, &asns(origins), &IrGraph::default(), r, cones)
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(1), Asn(2));
        r.add_p2c(Asn(2), Asn(3));
        r.add_p2c(Asn(1), Asn(4));
        r.add_p2p(Asn(2), Asn(4));
        r
    }

    #[test]
    fn empty_dest_single_origin() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        assert_eq!(empty_dest(&[7], &r, &cones), Some(Asn(7)));
    }

    #[test]
    fn empty_dest_related_origin_smallest_cone() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // Origins {1, 2}: both related; 2 has the smaller cone.
        assert_eq!(empty_dest(&[1, 2], &r, &cones), Some(Asn(2)));
    }

    #[test]
    fn empty_dest_bridge_outside_set() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // Origins {1, 3}: unrelated to each other, but AS2 relates to both.
        assert_eq!(empty_dest(&[1, 3], &r, &cones), Some(Asn(2)));
    }

    #[test]
    fn empty_dest_fallback_smallest_cone() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // Origins {3, 9}: no relationships at all; pick smallest cone
        // (both stubs, tie → lowest ASN).
        assert_eq!(empty_dest(&[3, 9], &r, &cones), Some(Asn(3)));
    }

    #[test]
    fn empty_both_sets() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        assert_eq!(empty_dest(&[], &r, &cones), None);
    }

    #[test]
    fn dests_single_overlap_wins() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // Alg. 1 line 3: O ∩ D = {2}.
        assert_eq!(
            annotate_with_dests(&asns(&[1, 2]), &asns(&[2, 9]), &r, &cones),
            Some(Asn(2))
        );
    }

    #[test]
    fn dests_multi_overlap_smallest_cone() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // O ∩ D = {1, 3}: 3 is the stub (smallest cone).
        assert_eq!(
            annotate_with_dests(&asns(&[1, 3]), &asns(&[1, 3]), &r, &cones),
            Some(Asn(3))
        );
    }

    #[test]
    fn dests_related_destination() {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        // Fig. 7's IR3 analogue: origins {2}, dests {4, 9}; 4 has a
        // relationship (peer) with 2, 9 has none → 4.
        assert_eq!(
            annotate_with_dests(&asns(&[2]), &asns(&[4, 9]), &r, &cones),
            Some(Asn(4))
        );
    }

    #[test]
    fn dests_related_tie_prefers_larger_coverage() {
        let mut r = rels();
        // Make 4 a provider of 9 so its cone covers more of D.
        r.add_p2c(Asn(4), Asn(9));
        // Both 2 and 4 relate to origin 1; 4's cone covers {4,9} of D.
        let cones = CustomerCones::compute(&r);
        assert_eq!(
            annotate_with_dests(&asns(&[1]), &asns(&[2, 4, 9]), &r, &cones),
            Some(Asn(4))
        );
    }

    #[test]
    fn dests_unrelated_bridge() {
        let mut r = AsRelationships::new();
        // origins {10}; dest {30}. 20 is customer of 10 and provider of 30.
        r.add_p2c(Asn(10), Asn(20));
        r.add_p2c(Asn(20), Asn(30));
        let cones = CustomerCones::compute(&r);
        assert_eq!(
            annotate_with_dests(&asns(&[10]), &asns(&[30]), &r, &cones),
            Some(Asn(20))
        );
    }

    #[test]
    fn dests_unrelated_no_bridge_smallest_cone() {
        let r = AsRelationships::new();
        let cones = CustomerCones::compute(&r);
        assert_eq!(
            annotate_with_dests(&asns(&[10]), &asns(&[30, 40]), &r, &cones),
            Some(Asn(30))
        );
    }
}
