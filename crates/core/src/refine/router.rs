//! Router annotation (§6.1, Algorithm 2).
//!
//! The election runs in the sweep's [`Scratch`] buffers: votes are tallied
//! by sorting them and counting runs, and the origin-set map `M` of
//! Alg. 2 is the list of `(vote, link)` pairs sorted by vote, whose run for
//! an AS names the links behind its votes.

use crate::graph::{Ir, LinkLabel};
use crate::refine::engine::{Firings, Scratch, SweepCtx};
use crate::refine::{exceptions, hidden, realloc, votes};
use crate::AnnotationState;
use as_rel::CustomerCones;
use bgp::OriginKind;
use net_types::Asn;

/// Annotates one IR (Algorithm 2), returning its new annotation
/// ([`Asn::NONE`] when no evidence exists at all) from the annotation state
/// as the in-place sweep leaves it at this IR's turn, and leaving what it
/// fired in [`SweepCtx::fired`].
pub(crate) fn annotate_ir(ir: &Ir, state: &AnnotationState, ctx: &mut SweepCtx<'_>) -> Asn {
    ctx.fired = Firings::default();
    // The buffers leave the context for the election, which also hands the
    // context to the per-link vote; moving a `Vec` allocates nothing.
    let mut s = std::mem::take(&mut ctx.scratch);
    let a = annotate_ir_in(ir, state, ctx, &mut s);
    ctx.scratch = s;
    a
}

fn annotate_ir_in(
    ir: &Ir,
    state: &AnnotationState,
    ctx: &mut SweepCtx<'_>,
    s: &mut Scratch,
) -> Asn {
    // §4.2: use only the highest-confidence label class present — Nexthop
    // links when any exist, otherwise Echo, otherwise Multihop.
    let best_label = ir
        .links
        .iter()
        .map(|l| l.label)
        .min()
        .unwrap_or(LinkLabel::Multihop);

    // ---- Alg. 2 lines 3–7: per-link votes (Algorithm 3) ----
    s.link_votes.clear();
    for l in &ir.links {
        let vote = if l.label == best_label {
            votes::link_vote(l, state, ctx)
        } else {
            None
        };
        s.link_votes.push(vote);
    }

    // ---- Alg. 2 line 8: reallocated-prefix correction (§6.1.2) ----
    if ctx.cfg.enable_realloc {
        realloc::correct_reallocated(
            ir,
            state,
            ctx,
            &mut s.link_votes,
            best_label,
            &mut s.realloc_cand,
        );
    }

    // Tally V and the origin-set map M (Alg. 2 lines 5–7).
    s.votes.clear();
    s.by_vote.clear();
    for (i, vote) in s.link_votes.iter().enumerate() {
        if let Some(a) = *vote {
            s.votes.push(a);
            s.by_vote.push((a, i as u32));
        }
    }

    // ---- Alg. 2 line 9: one vote per IR interface origin ----
    for &ifidx in &ir.ifaces {
        let o = ctx.graph.iface_origin[ifidx.0 as usize];
        if o.asn.is_some() && o.kind != OriginKind::Ixp {
            s.votes.push(o.asn);
        }
    }

    if s.votes.is_empty() {
        return Asn::NONE;
    }
    s.votes.sort_unstable();
    s.tally.clear();
    s.tally.extend(
        s.votes
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64)),
    );
    s.by_vote.sort_unstable();
    s.link_vote_ases.clear();
    s.link_vote_ases.extend(s.by_vote.iter().map(|&(a, _)| a));
    s.link_vote_ases.dedup();

    // ---- Alg. 2 line 10: exceptions (§6.1.3) ----
    let graph = ctx.graph;
    let origins = &graph.ir_origins[ir.id.0 as usize];
    if ctx.cfg.enable_exceptions {
        if let Some(a) =
            exceptions::check_exceptions(origins, &s.link_vote_ases, &s.tally, ctx.rels)
        {
            ctx.fired.exception += 1;
            return a;
        }
    }

    // ---- Alg. 2 lines 11–12: restricted election ----
    // R = origins ∪ subsequent ASes backed by a relationship with a prior
    // origin on their links. R differs from the origins exactly when it
    // admits a link vote from outside them.
    s.admitted.clear();
    for run in s.by_vote.chunk_by(|a, b| a.0 == b.0) {
        let cand = run[0].0;
        if origins.contains(&cand) {
            continue;
        }
        let backed = run.iter().any(|&(_, i)| {
            graph.link_origins[ir.links[i as usize].row as usize]
                .iter()
                .any(|&o| o != cand && ctx.rels.has_relationship(o, cand))
        });
        if backed {
            s.admitted.push(cand);
        }
    }
    if !s.admitted.is_empty() {
        let admitted = &s.admitted;
        let allowed = |a: Asn| origins.contains(&a) || admitted.binary_search(&a).is_ok();
        return elect(&s.tally, allowed, ctx.cones);
    }

    // ---- Alg. 2 lines 13–14: open election + hidden-AS check ----
    let a = elect(&s.tally, |_| true, ctx.cones);
    if ctx.cfg.enable_hidden_as {
        s.vote_origins.clear();
        let first = s.by_vote.partition_point(|&(v, _)| v < a);
        for &(_, i) in s.by_vote[first..].iter().take_while(|&&(v, _)| v == a) {
            let row = ir.links[i as usize].row as usize;
            s.vote_origins.extend_from_slice(&graph.link_origins[row]);
        }
        let replaced = hidden::check_hidden_as(origins, a, &s.vote_origins, ctx.rels);
        if replaced != a {
            ctx.fired.hidden += 1;
        }
        return replaced;
    }
    a
}

/// The election over the `(ASN, count)` tally: most votes among the
/// `allowed` ASes, ties to the smallest customer cone then the lowest ASN
/// (§6.1.4). That order is total, so the winner does not depend on the
/// order candidates are visited in.
fn elect(tally: &[(Asn, u64)], allowed: impl Fn(Asn) -> bool, cones: &CustomerCones) -> Asn {
    let mut best: Option<(u64, Asn)> = None;
    for &(cand, count) in tally {
        if count == 0 || !allowed(cand) {
            continue;
        }
        let better = match best {
            None => true,
            Some((bc, ba)) => {
                count > bc || (count == bc && (cones.size(cand), cand) < (cones.size(ba), ba))
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
    use as_rel::AsRelationships;

    fn elect_with(tally: &[(u32, u64)], allowed: &[u32], cones: &CustomerCones) -> Asn {
        let tally: Vec<(Asn, u64)> = tally.iter().map(|&(a, n)| (Asn(a), n)).collect();
        elect(&tally, |a| allowed.contains(&a.0), cones)
    }

    #[test]
    fn elect_majority() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        assert_eq!(elect_with(&[(1, 3), (2, 5)], &[1, 2], &cones), Asn(2));
    }

    #[test]
    fn elect_tie_smallest_cone() {
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(9));
        let cones = CustomerCones::compute(&rels);
        // AS1 has cone 2; AS2 is a stub (cone 1) → the presumed customer.
        assert_eq!(elect_with(&[(1, 4), (2, 4)], &[1, 2], &cones), Asn(2));
    }

    #[test]
    fn elect_tie_equal_cones_lowest_asn() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        assert_eq!(elect_with(&[(3, 2), (5, 2)], &[3, 5], &cones), Asn(3));
    }

    #[test]
    fn elect_respects_allowed_set() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        assert_eq!(elect_with(&[(1, 10), (2, 1)], &[2], &cones), Asn(2));
    }

    #[test]
    fn elect_empty() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        assert_eq!(elect_with(&[], &[], &cones), Asn::NONE);
    }
}
