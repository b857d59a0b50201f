//! Front-end determinism gate: the sharded probe campaign and the interned
//! phase-1 graph build must produce byte-identical output at every thread
//! count, with telemetry on or off — and that output must equal the
//! pre-change serial baseline (golden hashes captured at seed 2018 before
//! the front-end was parallelized).
//!
//! The hashes are structural FNV-1a digests over every field the rest of
//! the pipeline can observe: whole traces (hop presence, addresses, reply
//! types, stop reasons) and the whole graph (interface arrays, IR
//! membership, links with labels/origin/dest sets, predecessor maps).
//!
//! The graph no longer keeps a link's destination-AS set, only the one bit
//! of it the third-party test reads. The golden predates that, so the test
//! rebuilds each set from the corpus with the serial definition, hashes it
//! where the graph kept it, and checks the graph's bit against it.

use as_rel::CustomerCones;
use bdrmapit_core::{Config, IrGraph, LinkLabel};
use bgp::IpToAs;
use eval::Scenario;
use net_types::Asn;
use std::collections::{BTreeMap, BTreeSet};
use topo_gen::GeneratorConfig;
use traceroute::{Corpus, ReplyType, StopReason};

/// Destination-AS set per link, keyed by `(IR, destination interface)`.
type LinkDests = BTreeMap<(u32, u32), BTreeSet<Asn>>;

/// Pre-change serial campaign hash for `tiny(2018)`, 8 VPs, vp_seed 2018.
const GOLDEN_CAMPAIGN: u64 = 0x931cf8a11e64b5e3;
/// Pre-change serial phase-1 graph hash over that campaign's corpus.
const GOLDEN_GRAPH: u64 = 0x675da6ce072f7212;
/// Corpus/graph sizes for the same inputs, pinned so a hash mismatch can be
/// told apart from an input drift.
const GOLDEN_TRACES: usize = 1832;
const GOLDEN_IRS: usize = 332;

struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        let mut h = Fnv(Self::OFFSET);
        h.u64(0xbd12_a917_2018_0607);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        bs.iter().for_each(|&b| self.byte(b));
    }
}

fn reply_code(r: ReplyType) -> u8 {
    match r {
        ReplyType::TimeExceeded => 0,
        ReplyType::EchoReply => 1,
        ReplyType::DestUnreachable => 2,
    }
}

fn stop_code(s: StopReason) -> u8 {
    match s {
        StopReason::Completed => 0,
        StopReason::GapLimit => 1,
        StopReason::Unreachable => 2,
        StopReason::NoRoute => 3,
    }
}

fn label_code(l: LinkLabel) -> u8 {
    match l {
        LinkLabel::Nexthop => 0,
        LinkLabel::Echo => 1,
        LinkLabel::Multihop => 2,
    }
}

fn hash_traces(traces: &Corpus) -> u64 {
    let mut h = Fnv::new();
    h.u64(traces.len() as u64);
    for t in traces {
        h.bytes(t.monitor.as_bytes());
        h.u32(t.src);
        h.u32(t.dst);
        h.byte(stop_code(t.stop));
        h.u64(t.hops().len() as u64);
        for hop in t.hops() {
            match hop {
                Some(hop) => {
                    h.byte(1);
                    h.u32(hop.addr);
                    h.byte(reply_code(hop.reply));
                }
                None => h.byte(0),
            }
        }
    }
    h.0
}

/// Every link's destination-AS set, by the serial definition: each pair of
/// adjacent responsive hops on two different IRs records the trace's
/// destination AS when it is announced.
fn link_dests(traces: &Corpus, g: &IrGraph, ip2as: &IpToAs) -> LinkDests {
    let mut out = LinkDests::new();
    for t in traces {
        let dest_as = ip2as.lookup(t.dst).asn;
        let ids: Vec<u32> = t
            .responsive()
            .map(|(_, h)| g.iface_of_addr(h.addr).expect("hop interned").0)
            .collect();
        for pair in ids.windows(2) {
            let (x, y) = (pair[0], pair[1]);
            let ir_x = g.iface_ir[x as usize].0;
            if x == y || ir_x == g.iface_ir[y as usize].0 {
                continue;
            }
            let set = out.entry((ir_x, y)).or_default();
            if dest_as.is_some() {
                set.insert(dest_as);
            }
        }
    }
    out
}

fn hash_graph(g: &IrGraph, dests: &LinkDests) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.iface_addrs.len() as u64);
    for (i, &addr) in g.iface_addrs.iter().enumerate() {
        h.u32(addr);
        let o = g.iface_origin[i];
        h.u32(o.asn.0);
        h.u32(g.iface_ir[i].0);
        h.u64(g.iface_dests[i].len() as u64);
        for a in &g.iface_dests[i] {
            h.u32(a.0);
        }
        // Predecessors grouped by IR, as the golden's per-IR maps were.
        let by_ir = || g.preds[i].chunk_by(|a, b| a.0 == b.0);
        h.u64(by_ir().count() as u64);
        for run in by_ir() {
            h.u32(run[0].0 .0);
            h.u64(run.len() as u64);
            for (_, j) in run {
                h.u32(j.0);
            }
        }
    }
    h.u64(g.irs.len() as u64);
    for ir in &g.irs {
        h.u32(ir.id.0);
        h.u64(ir.ifaces.len() as u64);
        for j in &ir.ifaces {
            h.u32(j.0);
        }
        h.u64(ir.links.len() as u64);
        for l in &ir.links {
            h.u32(l.dst.0);
            h.byte(label_code(l.label));
            let origins = &g.link_origins[l.row as usize];
            h.u64(origins.len() as u64);
            for a in origins {
                h.u32(a.0);
            }
            let set = &dests[&(ir.id.0, l.dst.0)];
            let origin = g.iface_origin[l.dst.0 as usize].asn;
            assert_eq!(
                l.dst_origin_probed,
                origin.is_some() && set.contains(&origin),
                "third-party bit of link {:?} -> {:?}",
                ir.id,
                l.dst
            );
            h.u64(set.len() as u64);
            for a in set {
                h.u32(a.0);
            }
        }
        for set in [
            &g.ir_origins[ir.id.0 as usize],
            &g.ir_dests[ir.id.0 as usize],
        ] {
            h.u64(set.len() as u64);
            for a in set {
                h.u32(a.0);
            }
        }
    }
    h.0
}

/// Runs the full front-end (scenario → campaign → phase-1 graph) at a given
/// thread count, with telemetry enabled or disabled, and returns the two
/// structural hashes plus the pinned sizes.
fn front_end(threads: usize, with_obs: bool) -> (u64, u64, usize, usize) {
    let rec = if with_obs {
        obs::Recorder::new(false)
    } else {
        obs::Recorder::disabled()
    };
    let mut s = Scenario::build_with_obs(GeneratorConfig::tiny(2018), rec.clone());
    s.threads = threads;
    let bundle = s.campaign(8, true, 2018);
    let cones = CustomerCones::compute(&s.rels);
    let cfg = Config {
        threads,
        ..Config::default()
    };
    let wp = s.worker_pool();
    let g = IrGraph::build(
        &bundle.traces,
        &bundle.aliases,
        &s.ip2as,
        &cfg,
        &s.rels,
        &cones,
        &wp,
        &rec,
    );
    (
        hash_traces(&bundle.traces),
        hash_graph(&g, &link_dests(&bundle.traces, &g, &s.ip2as)),
        bundle.traces.len(),
        g.irs.len(),
    )
}

#[test]
fn front_end_matches_pre_change_serial_golden_at_every_thread_count() {
    for threads in [1usize, 2, 8] {
        for with_obs in [false, true] {
            let (campaign, graph, traces, irs) = front_end(threads, with_obs);
            let ctx = format!("threads={threads} obs={with_obs}");
            assert_eq!(traces, GOLDEN_TRACES, "trace count drifted ({ctx})");
            assert_eq!(irs, GOLDEN_IRS, "IR count drifted ({ctx})");
            assert_eq!(
                campaign, GOLDEN_CAMPAIGN,
                "campaign diverged from the pre-change serial baseline ({ctx})"
            );
            assert_eq!(
                graph, GOLDEN_GRAPH,
                "phase-1 graph diverged from the pre-change serial baseline ({ctx})"
            );
        }
    }
}
