//! Table 3 link-label statistics and the §5 coverage claims.
//!
//! The paper reports that Nexthop links dominate (96.4% in its datasets,
//! with 2.8% of linked IRs having only Echo links), that ≈98% of IRs have
//! no outgoing links, and that 73.3% of those have an empty destination AS
//! set. This driver recomputes the same statistics for a synthetic corpus.

use crate::experiments::render_table;
use crate::scenario::{CorpusBundle, Scenario};
use as_rel::CustomerCones;
use bdrmapit_core::{Config, IrGraph, LinkLabel};
use serde::{Deserialize, Serialize};

/// Corpus statistics mirroring Table 3 and §5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Total links in the IR graph.
    pub links: usize,
    /// Nexthop-labelled links.
    pub nexthop: usize,
    /// Echo-labelled links.
    pub echo: usize,
    /// Multihop-labelled links.
    pub multihop: usize,
    /// IRs with at least one outgoing link.
    pub linked_irs: usize,
    /// Linked IRs whose best links are Echo (no Nexthop available) —
    /// the paper's 2.8% statistic.
    pub echo_only_irs: usize,
    /// Total IRs.
    pub irs: usize,
    /// IRs with no outgoing links (the paper's ≈98%).
    pub last_hop_irs: usize,
    /// Last-hop IRs with an empty destination AS set (the paper's 73.3%).
    pub last_hop_empty_dest: usize,
    /// Observed interfaces.
    pub interfaces: usize,
    /// Observed interfaces resolved by BGP/RIR/IXP (the paper's 99.95%).
    pub resolved_interfaces: usize,
}

impl CorpusStats {
    /// Fraction of links labelled Nexthop.
    pub fn nexthop_frac(&self) -> f64 {
        if self.links == 0 {
            return 0.0;
        }
        self.nexthop as f64 / self.links as f64
    }

    /// Fraction of IRs that are last-hop.
    pub fn last_hop_frac(&self) -> f64 {
        if self.irs == 0 {
            return 0.0;
        }
        self.last_hop_irs as f64 / self.irs as f64
    }

    /// Fraction of last-hop IRs with empty destination sets.
    pub fn empty_dest_frac(&self) -> f64 {
        if self.last_hop_irs == 0 {
            return 0.0;
        }
        self.last_hop_empty_dest as f64 / self.last_hop_irs as f64
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        render_table(
            "Table 3 statistics & §5 coverage",
            &["metric", "value", "paper"],
            &[
                vec![
                    "Nexthop link share".into(),
                    format!("{:.1}%", 100.0 * self.nexthop_frac()),
                    "96.4%".into(),
                ],
                vec![
                    "Echo-only linked IRs".into(),
                    format!(
                        "{:.1}%",
                        100.0 * self.echo_only_irs as f64 / self.linked_irs.max(1) as f64
                    ),
                    "2.8%".into(),
                ],
                vec![
                    "last-hop IR share".into(),
                    format!("{:.1}%", 100.0 * self.last_hop_frac()),
                    "≈98%".into(),
                ],
                vec![
                    "last-hop IRs w/ empty dest set".into(),
                    format!("{:.1}%", 100.0 * self.empty_dest_frac()),
                    "73.3%".into(),
                ],
                vec![
                    "interfaces resolved to an AS".into(),
                    format!(
                        "{:.2}%",
                        100.0 * self.resolved_interfaces as f64 / self.interfaces.max(1) as f64
                    ),
                    "99.95%".into(),
                ],
            ],
        )
    }
}

/// Computes the statistics for a corpus.
pub fn corpus_stats(s: &Scenario, bundle: &CorpusBundle) -> CorpusStats {
    let cones = CustomerCones::compute(&s.rels);
    let cfg = Config::default();
    let graph = IrGraph::build(
        &bundle.traces,
        &bundle.aliases,
        &s.ip2as,
        &cfg,
        &s.rels,
        &cones,
        &pool::WorkerPool::new(cfg.threads),
        &obs::Recorder::disabled(),
    );
    let dist = graph.label_distribution();
    let get = |l: LinkLabel| dist.get(&l).copied().unwrap_or(0);
    let linked: Vec<&bdrmapit_core::Ir> = graph.mid_path_irs().collect();
    let echo_only = linked
        .iter()
        .filter(|ir| {
            ir.links.iter().any(|l| l.label == LinkLabel::Echo)
                && !ir.links.iter().any(|l| l.label == LinkLabel::Nexthop)
        })
        .count();
    let last_hop: Vec<&bdrmapit_core::Ir> = graph.last_hop_irs().collect();
    let empty_dest = last_hop
        .iter()
        .filter(|ir| graph.ir_dests[ir.id.0 as usize].is_empty())
        .count();
    let resolved = graph
        .iface_origin
        .iter()
        .filter(|o| o.prefix.is_some())
        .count();
    CorpusStats {
        links: graph.link_count(),
        nexthop: get(LinkLabel::Nexthop),
        echo: get(LinkLabel::Echo),
        multihop: get(LinkLabel::Multihop),
        linked_irs: linked.len(),
        echo_only_irs: echo_only,
        irs: graph.irs.len(),
        last_hop_irs: last_hop.len(),
        last_hop_empty_dest: empty_dest,
        interfaces: graph.iface_addrs.len(),
        resolved_interfaces: resolved,
    }
}
