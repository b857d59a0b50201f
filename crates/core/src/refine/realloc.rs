//! Reallocated-prefix vote correction (§6.1.2).
//!
//! A provider reallocates part of its space to a customer but keeps
//! announcing the covering prefix, so the customer-side link addresses vote
//! for the provider (Algorithm 3 line 1 fires). When *all* subsequent
//! interfaces mapping into the IR's own origin set share one /24, and their
//! routers are unanimously annotated with one AS that is a customer of an IR
//! origin AS, the votes flip from the provider to that customer (Fig. 10).

use crate::graph::{Ir, LinkLabel};
use crate::refine::engine::SweepCtx;
use crate::AnnotationState;
use net_types::{Asn, Prefix};

/// Applies the correction in place on the per-link votes (parallel to
/// `ir.links`; only links labelled `best_label` vote). `cand` is scratch
/// space for the candidate link indices.
pub(crate) fn correct_reallocated(
    ir: &Ir,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
    votes: &mut [Option<Asn>],
    best_label: LinkLabel,
    cand: &mut Vec<u32>,
) {
    let graph = ctx.graph;
    let origins = &graph.ir_origins[ir.id.0 as usize];
    // Candidates: usable links whose subsequent interface origin is in the
    // IR's own origin set.
    cand.clear();
    for (i, link) in ir.links.iter().enumerate() {
        if link.label != best_label {
            continue;
        }
        let origin = graph.iface_origin[link.dst.0 as usize].asn;
        if origin.is_some() && origins.contains(&origin) {
            cand.push(i as u32);
        }
    }
    // "Multiple links" required — a single link is not enough evidence.
    if cand.len() < 2 {
        return;
    }
    let dst = |i: u32| ir.links[i as usize].dst.0 as usize;
    // All candidate addresses must share one /24.
    let slash24 = |i: u32| Prefix::slash24_of(graph.iface_addrs[dst(i)]);
    if cand.iter().any(|&i| slash24(i) != slash24(cand[0])) {
        return;
    }
    // All their routers must carry the same annotation X...
    let router = |i: u32| state.router[graph.iface_ir[dst(i)].0 as usize];
    let x = router(cand[0]);
    if x.is_none() || cand.iter().any(|&i| router(i) != x) {
        return;
    }
    // ...and X must be a customer of an IR origin AS (and differ from the
    // provider origin the votes currently carry).
    let is_customer_of_origin = origins.iter().any(|&o| ctx.rels.is_customer(x, o));
    if !is_customer_of_origin {
        return;
    }
    let mut flipped = false;
    for &i in cand.iter() {
        let vote = &mut votes[i as usize];
        if vote.is_some_and(|v| v != x) {
            *vote = Some(x);
            flipped = true;
        }
    }
    if flipped {
        ctx.sheet.inc(obs::names::REFINE_REALLOC_FIRINGS);
    }
}
