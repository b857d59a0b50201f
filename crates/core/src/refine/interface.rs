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
use net_types::{Asn, Counter};

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
    // theirs seen immediately prior to this one.
    let mut v: Counter<Asn> = Counter::new();
    for (pred_ir, prior_ifaces) in &graph.preds[idx] {
        let ann = state.router[pred_ir.0 as usize];
        if ann.is_some() {
            v.add_n(ann, prior_ifaces.len() as u64);
        }
    }
    if v.is_empty() {
        return origin.asn.is_some().then_some(origin.asn);
    }
    let tied = v.max_keys();
    let winner = if tied.len() == 1 {
        tied[0]
    } else {
        // Tie: largest cone among tied ASes with a BGP-observed
        // relationship to the interface origin; none → origin AS.
        let related: Vec<Asn> = tied
            .iter()
            .copied()
            .filter(|&w| {
                origin.asn.is_some()
                    && (w == origin.asn || ctx.cache.has_relationship(w, origin.asn))
            })
            .collect();
        match ctx.cache.largest_cone(related) {
            Some(w) => w,
            None => origin.asn,
        }
    };
    winner.is_some().then_some(winner)
}
