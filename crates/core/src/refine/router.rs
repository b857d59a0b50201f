//! Router annotation (§6.1, Algorithm 2).

use crate::graph::{Ir, LinkLabel};
use crate::refine::engine::SweepCtx;
use crate::refine::{exceptions, hidden, realloc, votes};
use crate::AnnotationState;
use as_rel::RelQueryCache;
use bgp::OriginKind;
use net_types::{Asn, Counter};
use std::collections::{BTreeMap, BTreeSet};

/// Annotates one IR (Algorithm 2), returning its new annotation
/// ([`Asn::NONE`] when no evidence exists at all) from the annotation state
/// as the in-place sweep leaves it at this IR's turn.
pub(crate) fn annotate_ir(ir: &Ir, state: &AnnotationState, ctx: &mut SweepCtx<'_>) -> Asn {
    // §4.2: use only the highest-confidence label class present — Nexthop
    // links when any exist, otherwise Echo, otherwise Multihop.
    let best_label = ir
        .links
        .iter()
        .map(|l| l.label)
        .min()
        .unwrap_or(LinkLabel::Multihop);
    let usable: Vec<bool> = ir.links.iter().map(|l| l.label == best_label).collect();

    // ---- Alg. 2 lines 3–7: per-link votes (Algorithm 3) ----
    let mut link_votes: Vec<Option<Asn>> = Vec::with_capacity(ir.links.len());
    for (i, l) in ir.links.iter().enumerate() {
        link_votes.push(if usable[i] {
            votes::link_vote(l, state, ctx)
        } else {
            None
        });
    }

    // ---- Alg. 2 line 8: reallocated-prefix correction (§6.1.2) ----
    if ctx.cfg.enable_realloc {
        realloc::correct_reallocated(ir, state, ctx, &mut link_votes, &usable);
    }

    // Tally V and the origin-set map M (Alg. 2 lines 5–7).
    let mut v: Counter<Asn> = Counter::new();
    let mut m: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
    let mut link_vote_ases: BTreeSet<Asn> = BTreeSet::new();
    for (i, vote) in link_votes.iter().enumerate() {
        if let Some(a) = vote {
            v.add(*a);
            link_vote_ases.insert(*a);
            m.entry(*a)
                .or_default()
                .extend(ir.links[i].origins.iter().copied());
        }
    }

    // ---- Alg. 2 line 9: one vote per IR interface origin ----
    for &ifidx in &ir.ifaces {
        let o = ctx.graph.iface_origin[ifidx.0 as usize];
        if o.asn.is_some() && o.kind != OriginKind::Ixp {
            v.add(o.asn);
        }
    }

    if v.is_empty() {
        return Asn::NONE;
    }

    // ---- Alg. 2 line 10: exceptions (§6.1.3) ----
    if ctx.cfg.enable_exceptions {
        if let Some(a) = exceptions::check_exceptions(ir, &link_vote_ases, &v, ctx.cache.rels()) {
            ctx.sheet.inc(obs::names::REFINE_EXCEPTION_FIRINGS);
            return a;
        }
    }

    // ---- Alg. 2 lines 11–12: restricted election ----
    // R = origins ∪ subsequent ASes backed by a relationship with a prior
    // origin on their links.
    let mut r: BTreeSet<Asn> = ir.origins.clone();
    for (&cand, origins) in &m {
        if origins
            .iter()
            .any(|&o| o != cand && ctx.cache.has_relationship(o, cand))
        {
            r.insert(cand);
        }
    }
    if r != ir.origins {
        return elect(&v, &r, &mut ctx.cache);
    }

    // ---- Alg. 2 lines 13–14: open election + hidden-AS check ----
    let all: BTreeSet<Asn> = v.keys().copied().collect();
    let a = elect(&v, &all, &mut ctx.cache);
    if ctx.cfg.enable_hidden_as {
        let vote_origins = m.get(&a).cloned().unwrap_or_default();
        let replaced = hidden::check_hidden_as(ir, a, &vote_origins, ctx.cache.rels());
        if replaced != a {
            ctx.sheet.inc(obs::names::REFINE_HIDDEN_FIRINGS);
        }
        return replaced;
    }
    a
}

/// The election: most votes among `allowed`, ties to the smallest customer
/// cone then the lowest ASN (§6.1.4). Cone sizes go through the memo cache —
/// the same candidates recur every sweep.
fn elect(v: &Counter<Asn>, allowed: &BTreeSet<Asn>, cache: &mut RelQueryCache<'_>) -> Asn {
    let mut best: Option<(u64, Asn)> = None;
    for &cand in allowed {
        let count = v.get(&cand);
        if count == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((bc, ba)) => {
                count > bc
                    || (count == bc && (cache.cone_size(cand), cand) < (cache.cone_size(ba), ba))
            }
        };
        if better {
            best = Some((count, cand));
        }
    }
    best.map_or(Asn::NONE, |(_, a)| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rel::{AsRelationships, CustomerCones};

    fn elect_with(
        v: &Counter<Asn>,
        allowed: &BTreeSet<Asn>,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> Asn {
        let mut cache = RelQueryCache::new(rels, cones);
        elect(v, allowed, &mut cache)
    }

    #[test]
    fn elect_majority() {
        let mut v = Counter::new();
        v.add_n(Asn(1), 3);
        v.add_n(Asn(2), 5);
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let allowed: BTreeSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        assert_eq!(elect_with(&v, &allowed, &rels, &cones), Asn(2));
    }

    #[test]
    fn elect_tie_smallest_cone() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(9));
        let cones = CustomerCones::compute(&rels);
        let mut v = Counter::new();
        v.add_n(Asn(1), 4);
        v.add_n(Asn(2), 4);
        let allowed: BTreeSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        // AS1 has cone 2; AS2 is a stub (cone 1) → the presumed customer.
        assert_eq!(elect_with(&v, &allowed, &rels, &cones), Asn(2));
    }

    #[test]
    fn elect_respects_allowed_set() {
        let mut v = Counter::new();
        v.add_n(Asn(1), 10);
        v.add_n(Asn(2), 1);
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let allowed: BTreeSet<Asn> = [Asn(2)].into_iter().collect();
        assert_eq!(elect_with(&v, &allowed, &rels, &cones), Asn(2));
    }

    #[test]
    fn elect_empty() {
        let v = Counter::new();
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        assert_eq!(elect_with(&v, &BTreeSet::new(), &rels, &cones), Asn::NONE);
    }
}
