//! Reallocated-prefix vote correction (§6.1.2).
//!
//! A provider reallocates part of its space to a customer but keeps
//! announcing the covering prefix, so the customer-side link addresses vote
//! for the provider (Algorithm 3 line 1 fires). When *all* subsequent
//! interfaces mapping into the IR's own origin set share one /24, and their
//! routers are unanimously annotated with one AS that is a customer of an IR
//! origin AS, the votes flip from the provider to that customer (Fig. 10).

use crate::graph::Ir;
use crate::refine::engine::SweepCtx;
use crate::AnnotationState;
use net_types::{Asn, Prefix};
use std::collections::BTreeSet;

/// Applies the correction in place on the per-link votes (parallel to
/// `ir.links`).
pub(crate) fn correct_reallocated(
    ir: &Ir,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
    votes: &mut [Option<Asn>],
    usable: &[bool],
) {
    let graph = ctx.graph;
    // Candidates: usable links whose subsequent interface origin is in the
    // IR's own origin set.
    let mut cand: Vec<usize> = Vec::new();
    for (i, link) in ir.links.iter().enumerate() {
        if !usable[i] {
            continue;
        }
        let origin = graph.iface_origin[link.dst.0 as usize].asn;
        if origin.is_some() && ir.origins.contains(&origin) {
            cand.push(i);
        }
    }
    // "Multiple links" required — a single link is not enough evidence.
    if cand.len() < 2 {
        return;
    }
    // All candidate addresses must share one /24.
    let prefixes: BTreeSet<Prefix> = cand
        .iter()
        .map(|&i| Prefix::slash24_of(graph.iface_addrs[ir.links[i].dst.0 as usize]))
        .collect();
    if prefixes.len() != 1 {
        return;
    }
    // All their routers must carry the same annotation X...
    let annotations: BTreeSet<Asn> = cand
        .iter()
        .map(|&i| state.router[graph.iface_ir[ir.links[i].dst.0 as usize].0 as usize])
        .collect();
    let [x] = annotations.into_iter().collect::<Vec<_>>()[..] else {
        return;
    };
    if x.is_none() {
        return;
    }
    // ...and X must be a customer of an IR origin AS (and differ from the
    // provider origin the votes currently carry).
    let is_customer_of_origin = ir
        .origins
        .iter()
        .any(|&o| ctx.cache.rels().is_customer(x, o));
    if !is_customer_of_origin {
        return;
    }
    let mut flipped = false;
    for &i in &cand {
        if votes[i].is_some_and(|v| v != x) {
            votes[i] = Some(x);
            flipped = true;
        }
    }
    if flipped {
        ctx.sheet.inc(obs::names::REFINE_REALLOC_FIRINGS);
    }
}
