//! Interface annotation (§6.2).
//!
//! An interface annotation names the AS on the *other side* of the link the
//! interface terminates (Fig. 3). If the interface's origin AS differs from
//! its router's annotation, the address was supplied by the connected
//! network, so the origin AS is the answer (Fig. 13a). Otherwise the
//! connected IRs vote — one vote per prior interface — with ties broken
//! toward the largest customer cone holding a BGP relationship with the
//! interface origin (Figs. 13b, 13c).

use crate::refine::engine::SweepCtx;
use crate::AnnotationState;
use bgp::OriginKind;
use net_types::Asn;

/// Computes the new annotation of one interface from the router
/// annotations, or `None` to keep the current value. Reads no interface
/// annotation (only router state), so a whole sweep can run in any order
/// and commit as it goes.
pub(crate) fn annotate_iface_one(
    idx: usize,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
) -> Option<Asn> {
    let graph = ctx.graph;
    let origin = graph.iface_origin[idx];
    // IXP LAN addresses connect many routers; the point-to-point
    // assumption doesn't hold, so they are left alone (§6.2).
    if origin.kind == OriginKind::Ixp {
        return None;
    }
    let ir = graph.iface_ir[idx];
    let r_ann = state.router[ir.0 as usize];
    if r_ann.is_none() {
        return None;
    }
    if origin.asn.is_some() && origin.asn != r_ann {
        // Fig. 13a: the address must come from the connected AS.
        return Some(origin.asn);
    }
    // Fig. 13b/13c: vote among connected IRs, one vote per interface of
    // theirs seen immediately prior to this one. The votes are merged to
    // one count per annotation in the sweep's scratch buffer.
    let v = &mut ctx.scratch.iface_votes;
    v.clear();
    for &(pred_ir, _) in &graph.preds[idx] {
        let ann = state.router[pred_ir.0 as usize];
        if ann.is_some() {
            v.push((ann, 1));
        }
    }
    if v.is_empty() {
        return origin.asn.is_some().then_some(origin.asn);
    }
    v.sort_unstable();
    v.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    let max = v.iter().map(|&(_, n)| n).max().unwrap_or(0);
    v.retain(|&(_, n)| n == max);
    let winner = if let [(w, _)] = v[..] {
        w
    } else {
        // Tie: largest cone among tied ASes with a BGP-observed
        // relationship to the interface origin; none → origin AS.
        let rels = ctx.rels;
        v.retain(|&(w, _)| {
            origin.asn.is_some() && (w == origin.asn || rels.has_relationship(w, origin.asn))
        });
        match ctx.cones.largest_cone(v.iter().map(|&(w, _)| w)) {
            Some(w) => w,
            None => origin.asn,
        }
    };
    winner.is_some().then_some(winner)
}
