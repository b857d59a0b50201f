//! **bdrmapIT**: mapping router ownership at Internet scale.
//!
//! This crate implements the algorithm of Marder et al., *"Pushing the
//! Boundaries with bdrmapIT: Mapping Router Ownership at Internet Scale"*
//! (IMC 2018). Given a traceroute corpus, alias-resolution data, an
//! IP→origin-AS oracle, and AS relationships, it infers the AS *operating*
//! every observed router and annotates every interface with the AS on the
//! other side of its link — from which interdomain links fall out.
//!
//! The three phases follow the paper exactly:
//!
//! 1. **Construct the graph** (§4, [`graph`]): build inferred routers (IRs)
//!    from alias sets, create IR→interface links with N/E/M confidence
//!    labels, record per-link origin-AS sets and per-IR destination-AS sets
//!    (with reallocated-prefix filtering).
//! 2. **Annotate last hops** (§5, [`lasthop`]): IRs with no outgoing links
//!    get a frozen annotation from their origin and destination AS sets
//!    (Algorithm 1).
//! 3. **Graph refinement** (§6, [`refine`]): iterate router annotation
//!    (Algorithm 2 with the link-vote heuristics of Algorithm 3, the
//!    reallocated-prefix correction, the multihomed/peers exceptions, and
//!    hidden-AS detection) and interface annotation until the global state
//!    repeats.
//!
//! ```no_run
//! use bdrmapit_core::{Bdrmapit, Config};
//! # fn inputs() -> (traceroute::Corpus, alias::AliasSets, bgp::IpToAs,
//! #                 as_rel::AsRelationships) { unimplemented!() }
//! let (traces, aliases, ip2as, rels) = inputs();
//! let result = Bdrmapit::new(Config::default())
//!     .run(&traces, &aliases, &ip2as, &rels);
//! for link in result.interdomain_links() {
//!     println!("{} -- {}", link.ir_as, link.conn_as);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lasthop;
pub mod output;
pub mod refine;

pub use graph::{IfIdx, Ir, IrGraph, IrId, Link, LinkLabel};

use as_rel::{AsRelationships, CustomerCones};
use bgp::IpToAs;
use net_types::Asn;
use serde::{Deserialize, Serialize};

/// Algorithm configuration. Every heuristic the paper adds on top of plain
/// majority voting can be toggled for ablation studies; defaults match the
/// paper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Config {
    /// Phase 2 last-hop annotation (§5).
    pub enable_last_hop: bool,
    /// Third-party address detection (§6.1.1, Alg. 3 lines 6–8).
    pub enable_third_party: bool,
    /// Reallocated-prefix vote correction (§6.1.2) and destination-set
    /// filtering (§4.4).
    pub enable_realloc: bool,
    /// The multihomed-customer and multiple-peers/providers exceptions
    /// (§6.1.3).
    pub enable_exceptions: bool,
    /// Hidden-AS detection (§6.1.5).
    pub enable_hidden_as: bool,
    /// IXP vote heuristic (§6.1.1, Alg. 3 line 2).
    pub enable_ixp_heuristic: bool,
    /// Maximum customer-cone size for an AS to count as a reallocation
    /// customer (§4.4 uses 5).
    pub realloc_cone_max: usize,
    /// Safety cap on refinement iterations (the paper iterates to a
    /// repeated state; this bounds pathological inputs).
    pub max_iterations: usize,
    /// Worker threads for the phase-1 graph build (and, through the shared
    /// pool, the probe campaign). `0` (the default) means all available
    /// parallelism; `1` forces the serial paths. Results are bit-identical
    /// for every value (see [`graph`]). Refinement always runs on the
    /// calling thread.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            enable_last_hop: true,
            enable_third_party: true,
            enable_realloc: true,
            enable_exceptions: true,
            enable_hidden_as: true,
            enable_ixp_heuristic: true,
            realloc_cone_max: 5,
            max_iterations: 100,
            threads: 0,
        }
    }
}

/// The bdrmapIT runner.
#[derive(Clone, Debug, Default)]
pub struct Bdrmapit {
    cfg: Config,
    obs: obs::Recorder,
    pool: Option<std::sync::Arc<pool::WorkerPool>>,
}

impl Bdrmapit {
    /// Creates a runner with the given configuration and telemetry off.
    pub fn new(cfg: Config) -> Self {
        Bdrmapit {
            cfg,
            obs: obs::Recorder::disabled(),
            pool: None,
        }
    }

    /// Attaches an observability recorder. Telemetry is write-only: the
    /// annotations produced by [`run`](Bdrmapit::run) are bit-identical with
    /// any recorder, including the disabled default.
    #[must_use]
    pub fn with_obs(mut self, rec: obs::Recorder) -> Self {
        self.obs = rec;
        self
    }

    /// Attaches a shared worker pool. Without one, [`run`](Bdrmapit::run)
    /// creates its own from [`Config::threads`]; with one, the caller's pool
    /// budget wins and its scheduling statistics accumulate across every
    /// phase dispatched on it (e.g. a probe campaign run beforehand).
    #[must_use]
    pub fn with_pool(mut self, pool: std::sync::Arc<pool::WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Runs all three phases and returns the annotated graph.
    pub fn run(
        &self,
        traces: &traceroute::Corpus,
        aliases: &alias::AliasSets,
        ip2as: &IpToAs,
        rels: &AsRelationships,
    ) -> Annotated {
        use obs::names;

        let wp = self.pool.clone().unwrap_or_else(|| {
            std::sync::Arc::new(pool::WorkerPool::with_recorder(
                self.cfg.threads,
                self.obs.clone(),
            ))
        });
        let cones = {
            let _span = self.obs.span(names::PHASE_ASREL_CONES);
            CustomerCones::compute(rels)
        };
        let graph = {
            let _span = self.obs.span(names::PHASE_GRAPH);
            let graph = IrGraph::build_in_pool(
                traces, aliases, ip2as, &self.cfg, rels, &cones, &wp, &self.obs,
            );
            self.obs.add(names::GRAPH_IRS, graph.irs.len() as u64);
            self.obs
                .add(names::GRAPH_IFACES, graph.iface_addrs.len() as u64);
            self.obs.add(
                names::GRAPH_LINKS,
                graph.irs.iter().map(|ir| ir.links.len() as u64).sum(),
            );
            graph
        };
        let mut state = AnnotationState::new(&graph);
        if self.cfg.enable_last_hop {
            let _span = self.obs.span(names::PHASE_LASTHOP);
            lasthop::annotate_last_hops(&graph, rels, &cones, &mut state);
            self.obs.add(
                names::LASTHOP_FROZEN,
                state.frozen.iter().filter(|&&f| f).count() as u64,
            );
        }
        {
            let _span = self.obs.span(names::PHASE_REFINE);
            refine::refine(&graph, rels, &cones, &self.cfg, &mut state, &self.obs);
        }
        Annotated { graph, state }
    }
}

/// Mutable annotation state threaded through phases 2 and 3.
#[derive(Clone, Debug)]
pub struct AnnotationState {
    /// Per-IR operating-AS annotation ([`Asn::NONE`] = not yet annotated).
    pub router: Vec<Asn>,
    /// Per-IR: annotation frozen by phase 2 (never revised in phase 3).
    pub frozen: Vec<bool>,
    /// Per-interface connected-AS annotation, indexed by [`IfIdx`].
    pub iface: Vec<Asn>,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Per-shard convergence hash traces, indexed by the shard's position in
    /// the [`ShardPlan`](refine::shard::ShardPlan): `[h_0, h_1, ..., h_n]`,
    /// the shard-state hash before refinement and after each iteration.
    /// Part of the determinism contract — runs at every thread count must
    /// produce identical traces, not merely identical fixpoints.
    pub convergence_traces: Vec<Vec<u64>>,
}

impl AnnotationState {
    /// Fresh state: routers unannotated, interfaces initialized to their
    /// origin AS (§6 "prior to entering the graph refinement loop").
    pub fn new(graph: &IrGraph) -> Self {
        AnnotationState {
            router: vec![Asn::NONE; graph.irs.len()],
            frozen: vec![false; graph.irs.len()],
            iface: graph.iface_origin.iter().map(|o| o.asn).collect(),
            iterations: 0,
            convergence_traces: Vec::new(),
        }
    }
}

/// One inferred interdomain link: a router operated by `ir_as` connects,
/// through the interface at `iface_addr`, to a router operated by `conn_as`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InferredLink {
    /// The IR on the near side.
    pub ir: IrId,
    /// Inferred operator of the near-side router.
    pub ir_as: Asn,
    /// Address of the far-side interface.
    pub iface_addr: u32,
    /// Inferred operator on the far side.
    pub conn_as: Asn,
    /// Whether the near IR was annotated by the last-hop phase (its links
    /// are "last hop only" in the paper's Fig. 17 sense).
    pub last_hop: bool,
}

/// The algorithm output: the graph plus its final annotations.
#[derive(Debug)]
pub struct Annotated {
    /// The IR graph (phase 1 output).
    pub graph: IrGraph,
    /// Final annotations.
    pub state: AnnotationState,
}

impl Annotated {
    /// The inferred operator of the IR owning `addr`, if observed.
    pub fn owner_of_addr(&self, addr: u32) -> Option<Asn> {
        let ifidx = self.graph.iface_of_addr(addr)?;
        let ir = self.graph.iface_ir[ifidx.0 as usize];
        let asn = self.state.router[ir.0 as usize];
        asn.is_some().then_some(asn)
    }

    /// All inferred interdomain links, read off per interface exactly as
    /// Fig. 3 defines the annotations: an IR operated by `ir_as` holding an
    /// interface annotated `conn_as ≠ ir_as` connects, through that
    /// interface, to a router operated by `conn_as`.
    pub fn interdomain_links(&self) -> Vec<InferredLink> {
        let mut out = Vec::new();
        for (idx, &addr) in self.graph.iface_addrs.iter().enumerate() {
            let origin = self.graph.iface_origin[idx];
            let ir = self.graph.iface_ir[idx];
            let ir_as = self.state.router[ir.0 as usize];
            if ir_as.is_none() {
                continue;
            }
            if origin.kind == bgp::OriginKind::Ixp {
                // Public peering: the LAN address connects many networks, so
                // the interface annotation is not a single far side. Instead
                // every distinctly-annotated router observed sending into
                // this port peers with the port's operator (§3.1's exception
                // to the point-to-point assumption). An IR with several
                // prior interfaces repeats a link the final dedup drops.
                for &(pred_ir, _) in &self.graph.preds[idx] {
                    let pred_as = self.state.router[pred_ir.0 as usize];
                    if pred_as.is_some() && pred_as != ir_as {
                        out.push(InferredLink {
                            ir,
                            ir_as,
                            iface_addr: addr,
                            conn_as: pred_as,
                            last_hop: false,
                        });
                    }
                }
                continue;
            }
            let conn = self.state.iface[idx];
            if conn.is_none() || ir_as == conn {
                continue;
            }
            out.push(InferredLink {
                ir,
                ir_as,
                iface_addr: addr,
                conn_as: conn,
                // Links discoverable only because phase 2 attributed an IR
                // with no outgoing links (the Fig. 17 exclusion set).
                last_hop: self.graph.irs[ir.0 as usize].links.is_empty(),
            });
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Convenience: `(addr, inferred router AS)` for every observed
    /// interface.
    pub fn router_annotations(&self) -> Vec<(u32, Asn)> {
        self.graph
            .iface_addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let ir = self.graph.iface_ir[i];
                (addr, self.state.router[ir.0 as usize])
            })
            .collect()
    }
}
