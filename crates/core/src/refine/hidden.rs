//! Hidden-AS detection (§6.1.5).
//!
//! A traceroute can traverse an AS without ever reporting one of its
//! addresses — most often a small transit AS whose customer-side links use
//! the customer's space and whose provider-side links use the provider's
//! (Fig. 12). When the elected AS has no relationship with any IR origin
//! AS, an AS that bridges the origin side and the elected side — customer
//! of an origin-side AS and provider of the elected AS — is the likelier
//! operator.

use as_rel::AsRelationships;
use net_types::Asn;

/// If `selected` has a relationship with an IR origin AS (`origins`), keeps
/// it. Otherwise searches for a unique bridging AS between the origin side
/// (`origins` ∪ `vote_origins`, the link origins behind the winning votes,
/// in any order and with repeats) and `selected`; a unique bridge replaces
/// the selection.
pub fn check_hidden_as(
    origins: &[Asn],
    selected: Asn,
    vote_origins: &[Asn],
    rels: &AsRelationships,
) -> Asn {
    if origins
        .iter()
        .any(|&o| o == selected || rels.has_relationship(o, selected))
    {
        return selected;
    }
    let origin_side = || {
        let side = origins.iter().chain(vote_origins).copied();
        side.filter(|&o| o != selected)
    };
    // `providers_of` yields each provider once, so the bridges are distinct.
    let mut bridges = rels
        .providers_of(selected)
        .filter(|&p| origin_side().any(|o| rels.is_customer(p, o)));
    match (bridges.next(), bridges.next()) {
        (Some(bridge), None) => bridge,
        _ => selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn keeps_selection_with_relationship() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(3));
        assert_eq!(
            check_hidden_as(&set(&[1]), Asn(3), &set(&[1]), &rels),
            Asn(3)
        );
    }

    #[test]
    fn finds_unique_bridge() {
        // Fig. 12: origins {A=1}; selected C=3; hidden B=2 is a customer of
        // A and a provider of C.
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(2));
        rels.add_p2c(Asn(2), Asn(3));
        assert_eq!(
            check_hidden_as(&set(&[1]), Asn(3), &set(&[1]), &rels),
            Asn(2)
        );
    }

    #[test]
    fn ambiguous_bridges_keep_selection() {
        let mut rels = AsRelationships::new();
        for b in [2u32, 4] {
            rels.add_p2c(Asn(1), Asn(b));
            rels.add_p2c(Asn(b), Asn(3));
        }
        assert_eq!(
            check_hidden_as(&set(&[1]), Asn(3), &set(&[1]), &rels),
            Asn(3)
        );
    }

    #[test]
    fn no_bridge_keeps_selection() {
        let rels = AsRelationships::new();
        assert_eq!(
            check_hidden_as(&set(&[1]), Asn(3), &set(&[1]), &rels),
            Asn(3)
        );
    }

    #[test]
    fn selection_in_origins_kept() {
        let rels = AsRelationships::new();
        assert_eq!(
            check_hidden_as(&set(&[3]), Asn(3), &set(&[]), &rels),
            Asn(3)
        );
    }
}
