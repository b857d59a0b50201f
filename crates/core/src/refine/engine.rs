//! The refinement loop (§6.3): iterate router and interface annotation
//! until the annotation state repeats.
//!
//! The paper stops at a *repeated* state rather than an unchanged one —
//! annotation dynamics can enter short cycles (Fig. 14 shows a two-step
//! correction) — so every post-iteration state of the whole graph is hashed
//! and the loop exits on the first recurrence, with a configurable
//! iteration cap as a backstop.
//!
//! Each sweep is Gauss-Seidel and runs on the calling thread: IRs are
//! annotated in ascending index order, in place, so a read of a
//! lower-indexed IR sees this sweep's value and a read of a higher-indexed
//! one the pre-sweep value.

use crate::graph::IrGraph;
use crate::refine::{interface, router};
use crate::{AnnotationState, Config};
use as_rel::{AsRelationships, CustomerCones};
use net_types::Asn;

/// Seed of the convergence hash. Fixed (rather than `DefaultHasher`'s
/// per-process randomness) so convergence traces are reproducible across
/// runs, toolchains, and platforms — CI logs the per-iteration hashes and
/// two runs of the same corpus must show the same trace.
pub const CONVERGENCE_HASH_SEED: u64 = 0xbd12_a917_2018_0603;

/// FNV-1a with an explicit seed: small, allocation-free, and — unlike
/// `std::collections::hash_map::DefaultHasher` — specified, so hashes never
/// change under a different standard library.
#[derive(Clone, Copy, Debug)]
pub struct StateHasher(u64);

impl StateHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash folding `seed` into the FNV offset basis.
    pub fn new(seed: u64) -> StateHasher {
        let mut h = StateHasher(Self::OFFSET);
        h.write_u64(seed);
        h
    }

    /// Absorbs one little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The buffers one election works in, owned by the sweep and reused by
/// every router and interface election of it, so an election allocates
/// only while a buffer grows past its longest use so far. Each election
/// clears what it uses first: nothing carries over between elections.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Per link of the IR: its vote, `None` for no vote (Alg. 2 lines 3–8).
    pub link_votes: Vec<Option<Asn>>,
    /// Every vote cast, link votes and interface origins, sorted.
    pub votes: Vec<Asn>,
    /// `votes` run-length counted: `(ASN, count)`, ascending by ASN.
    pub tally: Vec<(Asn, u64)>,
    /// `(vote, link index)` per link that voted, sorted by vote.
    pub by_vote: Vec<(Asn, u32)>,
    /// The distinct link votes, ascending.
    pub link_vote_ases: Vec<Asn>,
    /// Link-vote ASes outside the IR's origins that the restricted
    /// election admits (Alg. 2 line 11), ascending.
    pub admitted: Vec<Asn>,
    /// The origins behind the winning link votes (hidden-AS check).
    pub vote_origins: Vec<Asn>,
    /// Link indices of the reallocated-prefix candidates (§6.1.2).
    pub realloc_cand: Vec<u32>,
    /// Interface election (§6.2): `(annotation, prior interfaces)` pairs,
    /// merged to one per annotation.
    pub iface_votes: Vec<(Asn, u64)>,
}

/// Context threaded through the annotation routines: the graph, the
/// configuration, the relationship database and customer cones (queried
/// directly, the same path phases 1 and 2 take), the elections' scratch
/// buffers, and the write-only telemetry (nothing here reads the sheet or
/// the tracer).
pub(crate) struct SweepCtx<'a> {
    pub graph: &'a IrGraph,
    pub cfg: &'a Config,
    pub rels: &'a AsRelationships,
    pub cones: &'a CustomerCones,
    pub scratch: Scratch,
    pub sheet: obs::MetricSheet,
    pub tracer: obs::WorkerTracer,
}

impl<'a> SweepCtx<'a> {
    /// A context whose event track reports into `rec`'s tracer (a no-op
    /// track when tracing is off).
    pub fn new(
        graph: &'a IrGraph,
        cfg: &'a Config,
        rels: &'a AsRelationships,
        cones: &'a CustomerCones,
        rec: &obs::Recorder,
    ) -> Self {
        SweepCtx {
            graph,
            cfg,
            rels,
            cones,
            scratch: Scratch::default(),
            sheet: obs::MetricSheet::new(),
            tracer: rec.tracer().worker(obs::names::TRACK_REFINE_WORKER, 0),
        }
    }
}

/// Runs phase 3 to completion, reporting convergence telemetry through
/// `rec`. Telemetry is write-only: every annotation, iteration count, and
/// convergence trace is bit-identical whether `rec` is enabled, disabled,
/// or shared with other phases.
pub fn refine(
    graph: &IrGraph,
    rels: &AsRelationships,
    cones: &CustomerCones,
    cfg: &Config,
    state: &mut AnnotationState,
    rec: &obs::Recorder,
) {
    use obs::names;

    let mut ctx = SweepCtx::new(graph, cfg, rels, cones, rec);
    state.iterations = 0;
    state.convergence_traces = Vec::new();
    if !graph.irs.is_empty() {
        let trace = converge(state, &mut ctx);
        state.iterations = trace.len() - 1;
        state.convergence_traces.push(trace);
    }

    ctx.sheet.inc(names::REFINE_RUNS);
    ctx.sheet
        .add(names::REFINE_ITERATIONS, state.iterations as u64);
    ctx.sheet.add(
        names::REFINE_ROUTERS_ANNOTATED,
        state.router.iter().filter(|a| **a != Asn::NONE).count() as u64,
    );
    rec.tracer().submit(ctx.tracer);
    rec.absorb(&ctx.sheet);
}

/// Stable hash of the whole annotation state: every router, then every
/// interface, in ascending index order.
fn state_hash(state: &AnnotationState) -> u64 {
    let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
    for a in &state.router {
        h.write_u32(a.0);
    }
    for a in &state.iface {
        h.write_u32(a.0);
    }
    h.finish()
}

/// Runs the graph to convergence (§6.3): sweep the mid-path routers in
/// ascending IR order, sweep the interfaces, and stop at the first repeated
/// state, with `cfg.max_iterations` as the backstop. Annotations are
/// written in place, so the router sweep is Gauss-Seidel; the interface
/// sweep reads only router annotations, so its order does not matter.
///
/// Returns the convergence trace `[h_0, h_1, ..., h_n]`: the state hash
/// before refinement and after each of the `n` iterations. The trace holds
/// at most `max_iterations + 1` hashes, so scanning it is the repeat test.
/// The trace is part of the determinism contract: runs must produce
/// identical traces, not merely identical fixpoints, so an ordering bug
/// that happens to converge to the right answer still shows up.
fn converge(state: &mut AnnotationState, ctx: &mut SweepCtx<'_>) -> Vec<u64> {
    use obs::names;

    let graph = ctx.graph;
    let mut trace = vec![state_hash(state)];
    for i in 0..ctx.cfg.max_iterations {
        ctx.tracer.begin(names::EV_REFINE_WAVE, i as u64);
        // Router sweep (§6.1).
        for ir in graph.mid_path_irs() {
            let iri = ir.id.0 as usize;
            if state.frozen[iri] {
                continue;
            }
            let a = router::annotate_ir(ir, state, ctx);
            if a.is_some() {
                if state.router[iri] != a {
                    ctx.sheet.inc(names::REFINE_VOTES_CHANGED);
                }
                state.router[iri] = a;
            }
        }
        // Interface sweep (§6.2).
        for j in 0..state.iface.len() {
            if let Some(a) = interface::annotate_iface_one(j, state, ctx) {
                state.iface[j] = a;
            }
        }
        let h = state_hash(state);
        let repeated = trace.contains(&h);
        trace.push(h);
        ctx.tracer.end(names::EV_REFINE_WAVE);
        if repeated {
            break;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkLabel;
    use crate::lasthop;
    use alias::AliasSets;
    use bgp::IpToAs;
    use net_types::{Asn, Prefix};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use traceroute::{Hop, ReplyType, StopReason, Trace};

    #[test]
    fn hasher_is_stable_across_runs_and_platforms() {
        // CI runs this test with --nocapture to record the active seed in
        // the build log next to the golden hash it implies.
        println!("convergence hash seed: {CONVERGENCE_HASH_SEED:#018x}");
        // Golden value: any change to the hashing scheme shows up here
        // (and would invalidate recorded convergence traces).
        let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
        for v in [1u32, 2, 3, 0, u32::MAX] {
            h.write_u32(v);
        }
        assert_eq!(h.finish(), 0x05c2_d6bc_0506_dcbd);
        // Distinct inputs hash apart; same input hashes the same.
        let one = |vals: &[u32]| {
            let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
            vals.iter().for_each(|&v| h.write_u32(v));
            h.finish()
        };
        assert_eq!(one(&[7, 8]), one(&[7, 8]));
        assert_ne!(one(&[7, 8]), one(&[8, 7]));
        assert_ne!(one(&[0]), one(&[]));
    }

    #[test]
    fn seed_changes_the_hash() {
        let mut a = StateHasher::new(1);
        let mut b = StateHasher::new(2);
        a.write_u32(42);
        b.write_u32(42);
        assert_ne!(a.finish(), b.finish());
    }

    /// Oracle: the sweep as the former lockstep engine scheduled it. Mid-path
    /// IRs run in wavefront levels (longest chain of links into
    /// lower-indexed mid-path IRs), each against a versioned view: this
    /// sweep's value for lower-indexed IRs, the pre-sweep value for the rest.
    /// It stops at the first repeated whole-graph state.
    fn oracle_converge(state: &mut AnnotationState, ctx: &mut SweepCtx<'_>) -> Vec<u64> {
        let graph = ctx.graph;
        let mut depth = vec![0usize; graph.irs.len()];
        let mut levels: Vec<Vec<u32>> = Vec::new();
        for ir in graph.mid_path_irs() {
            let i = ir.id.0;
            let d = (ir.links.iter())
                .map(|l| graph.iface_ir[l.dst.0 as usize].0)
                .filter(|&jr| jr < i && !graph.irs[jr as usize].links.is_empty())
                .map(|jr| depth[jr as usize] + 1)
                .max()
                .unwrap_or(0);
            depth[i as usize] = d;
            levels.resize(levels.len().max(d + 1), Vec::new());
            levels[d].push(i);
        }
        let mut trace = vec![state_hash(state)];
        for _ in 0..ctx.cfg.max_iterations {
            let prev = state.router.clone();
            for &iri in levels.iter().flatten() {
                if state.frozen[iri as usize] {
                    continue;
                }
                let mut view = state.clone();
                view.router[iri as usize..].copy_from_slice(&prev[iri as usize..]);
                let a = router::annotate_ir(&graph.irs[iri as usize], &view, ctx);
                if a.is_some() {
                    state.router[iri as usize] = a;
                }
            }
            for j in 0..state.iface.len() {
                if let Some(a) = interface::annotate_iface_one(j, state, ctx) {
                    state.iface[j] = a;
                }
            }
            let h = state_hash(state);
            let repeated = trace.contains(&h);
            trace.push(h);
            if repeated {
                break;
            }
        }
        trace
    }

    /// Island `k` of three: `10.(2k+1)/16` (AS 2k+1), `10.(2k+2)/16`
    /// (AS 2k+2) and unannounced `172.(16+k)/16`. No trace crosses islands,
    /// so each is at least one link-connected component of the graph.
    fn addr(k: u32, space: u32, host: u32) -> u32 {
        match space {
            0 | 1 => 0x0A00_0000 + ((2 * k + 1 + space) << 16) + host,
            _ => 0xAC10_0000 + (k << 16) + host,
        }
    }

    fn trace(dst: u32, hops: &[Option<(u32, ReplyType)>]) -> Trace {
        let hops = hops
            .iter()
            .map(|h| h.map(|(addr, reply)| Hop { addr, reply }));
        Trace {
            monitor: "vp".into(),
            src: 1,
            dst,
            hops: hops.collect(),
            stop: StopReason::GapLimit,
        }
    }

    /// Fixed traces per island, on hosts ≥ 220 that random traces never
    /// use: a Nexthop chain walked forward and back (back-edges into
    /// lower-indexed mid-path IRs), an Echo link, a Multihop link across a
    /// gap, frozen last hops, and a descending unannounced chain whose
    /// votes are its successors' router annotations.
    fn scaffold(k: u32) -> Vec<Trace> {
        use ReplyType::{EchoReply as ER, TimeExceeded as TE};
        let (a1, a2, b3) = (addr(k, 0, 221), addr(k, 0, 222), addr(k, 1, 223));
        let (b9, u4, u5) = (addr(k, 1, 229), addr(k, 2, 240), addr(k, 2, 250));
        vec![
            trace(
                b9,
                &[
                    Some((a1, TE)),
                    Some((a2, TE)),
                    Some((b3, TE)),
                    Some((b9, ER)),
                ],
            ),
            trace(
                b9,
                &[
                    Some((b3, TE)),
                    Some((a2, TE)),
                    Some((a1, TE)),
                    None,
                    Some((b9, TE)),
                ],
            ),
            trace(
                b9,
                &[
                    Some((addr(k, 0, 225), TE)),
                    Some((u5, TE)),
                    Some((u4, TE)),
                    Some((b3, TE)),
                ],
            ),
        ]
    }

    fn random_trace() -> impl Strategy<Value = Trace> {
        let reply = prop_oneof![
            5 => Just(ReplyType::TimeExceeded),
            1 => Just(ReplyType::EchoReply),
            1 => Just(ReplyType::DestUnreachable),
        ];
        let hop = proptest::option::weighted(0.8, (0u32..3, 0u32..200, reply));
        (0u32..3, 0u32..200, proptest::collection::vec(hop, 1..10)).prop_map(|(k, host, hops)| {
            let hops: Vec<_> = (hops.into_iter())
                .map(|h| h.map(|(space, host, reply)| (addr(k, space, host), reply)))
                .collect();
            trace(addr(k, 1, host), &hops)
        })
    }

    /// The islands' phases 1 and 2 over `traces`: interfaces 2m and 2m+1
    /// of one /16 are aliases, and the six island ASes are related.
    struct Fixture {
        graph: IrGraph,
        rels: AsRelationships,
        cones: CustomerCones,
        cfg: Config,
        initial: AnnotationState,
    }

    fn fixture(traces: Vec<Trace>) -> Fixture {
        let mut observed: Vec<u32> = (traces.iter())
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        observed.sort_unstable();
        observed.dedup();
        let aliases = AliasSets::from_groups(
            (observed.chunk_by(|x, y| x & !1 == y & !1)).map(|g| g.iter().copied().collect()),
        );
        let ip2as = IpToAs::from_pairs((1..=6u32).map(|n| {
            let prefix = format!("10.{n}.0.0/16").parse::<Prefix>().unwrap();
            (prefix, Asn(n))
        }));
        let mut rels = AsRelationships::new();
        rels.add_p2p(Asn(1), Asn(2));
        for (p, c) in [(3, 4), (5, 6), (1, 3), (2, 5)] {
            rels.add_p2c(Asn(p), Asn(c));
        }
        let cones = CustomerCones::compute(&rels);
        let cfg = Config {
            threads: 1,
            ..Config::default()
        };
        let graph = IrGraph::build(
            &traces.into_iter().collect(),
            &aliases,
            &ip2as,
            &cfg,
            &rels,
            &cones,
            &pool::WorkerPool::new(1),
            &obs::Recorder::disabled(),
        );
        let mut initial = AnnotationState::new(&graph);
        lasthop::annotate_last_hops(&graph, &rels, &cones, &mut initial);
        Fixture {
            graph,
            rels,
            cones,
            cfg,
            initial,
        }
    }

    #[test]
    fn disconnected_islands_converge_as_one_graph() {
        let f = fixture((0..2).flat_map(scaffold).collect());
        let mut state = f.initial.clone();
        let rec = obs::Recorder::disabled();
        refine(&f.graph, &f.rels, &f.cones, &f.cfg, &mut state, &rec);
        assert_eq!(state.convergence_traces.len(), 1, "one trace per graph");
        let trace = &state.convergence_traces[0];
        assert_eq!(state.iterations, trace.len() - 1);
        assert!(trace[..trace.len() - 1].contains(trace.last().unwrap()));
    }

    #[test]
    fn a_graph_without_routers_converges_nothing() {
        let f = fixture(Vec::new());
        let mut state = f.initial.clone();
        let rec = obs::Recorder::disabled();
        refine(&f.graph, &f.rels, &f.cones, &f.cfg, &mut state, &rec);
        assert!(state.convergence_traces.is_empty());
        assert_eq!(state.iterations, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The in-place ascending sweep reproduces the oracle exactly:
        /// annotations, iteration count and the convergence trace.
        #[test]
        fn in_place_sweep_matches_the_versioned_view_oracle(
            random in proptest::collection::vec(random_trace(), 0..40),
        ) {
            let mut traces: Vec<Trace> = (0..3).flat_map(scaffold).collect();
            traces.extend(random);
            let Fixture { graph, rels, cones, cfg, initial } = fixture(traces);

            // The corpus exercises everything the sweep order matters for.
            prop_assert!(initial.frozen.contains(&true), "no frozen IR");
            let links = || graph.irs.iter().flat_map(|ir| ir.links.iter().map(move |l| (ir, l)));
            let labels: BTreeSet<LinkLabel> = links().map(|(_, l)| l.label).collect();
            prop_assert_eq!(labels.len(), 3);
            prop_assert!(links().any(|(ir, l)| {
                let jr = graph.iface_ir[l.dst.0 as usize];
                jr < ir.id && !graph.irs[jr.0 as usize].links.is_empty()
            }), "no back-edge");

            let mut swept = initial.clone();
            refine(&graph, &rels, &cones, &cfg, &mut swept, &obs::Recorder::disabled());

            let mut want = initial;
            let mut ctx = SweepCtx::new(&graph, &cfg, &rels, &cones, &obs::Recorder::disabled());
            let trace = oracle_converge(&mut want, &mut ctx);
            prop_assert_eq!(&swept.router, &want.router);
            prop_assert_eq!(&swept.iface, &want.iface);
            prop_assert_eq!(swept.iterations, trace.len() - 1);
            prop_assert_eq!(&swept.convergence_traces, &vec![trace]);
        }
    }
}
