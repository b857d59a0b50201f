//! Link-vote heuristics (§6.1.1, Algorithm 3).
//!
//! For each link `IR → j`, the vote is normally `j`'s interface annotation,
//! with three exceptions: the origin AS of `j` when it already appears in
//! the link's origin set (line 1); the top of the transit hierarchy when
//! `j` is an IXP address (line 2); and `j`'s *router* annotation when `j`
//! is unannounced or inferred to be a third-party address (lines 5–8).

use crate::graph::Link;
use crate::refine::engine::SweepCtx;
use crate::AnnotationState;
use bgp::OriginKind;
use net_types::Asn;

/// Algorithm 3: the AS a single link votes for, or `None` when the link
/// contributes no information.
pub(crate) fn link_vote(
    link: &Link,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
) -> Option<Asn> {
    let j = link.dst.0 as usize;
    let j_origin = ctx.graph.iface_origin[j];
    let origins = &ctx.graph.link_origins[link.row as usize];

    // Line 1: the subsequent origin already appears among the origins seen
    // prior to it — the link stays inside (or returns into) that AS.
    if j_origin.asn.is_some() && origins.contains(&j_origin.asn) {
        return Some(j_origin.asn);
    }

    // Line 2: IXP public peering address. Vote for the likely transit
    // provider among the prior origins: the largest customer cone.
    if j_origin.kind == OriginKind::Ixp {
        if !ctx.cfg.enable_ixp_heuristic {
            return None;
        }
        return ctx.cones.largest_cone(origins.iter().copied());
    }

    // Line 3: the annotation of j's router.
    let jr = ctx.graph.iface_ir[j];
    let as_j = state.router[jr.0 as usize];

    if as_j.is_none() {
        // j's IR not yet annotated (first iteration only): skip the
        // third-party tests entirely (§6.1.1) and use the interface
        // annotation, unless j is unannounced and thus mute.
        if j_origin.asn.is_none() {
            return None;
        }
        let ann = state.iface[j];
        return ann.is_some().then_some(ann);
    }

    // Line 5: unannounced subsequent address — vote for its router's
    // annotation, letting chains of unannounced hops resolve over
    // iterations (Fig. 8).
    if j_origin.asn.is_none() {
        return Some(as_j);
    }

    // Lines 6–8: third-party detection. The origin of j disagrees with its
    // router's annotation, some prior origin has a relationship with that
    // router's AS (the probe could reach it without crossing j's origin AS),
    // and no probe crossing this link was ever destined to j's origin AS.
    if ctx.cfg.enable_third_party
        && j_origin.asn != as_j
        && origins.iter().any(|&o| ctx.rels.has_relationship(o, as_j))
        && !link.dst_origin_probed
    {
        ctx.sheet.inc(obs::names::REFINE_THIRD_PARTY_VOTES);
        return Some(as_j);
    }

    // Line 9: the interface annotation.
    let ann = state.iface[j];
    if ann.is_some() {
        Some(ann)
    } else {
        Some(j_origin.asn)
    }
}
