//! Property tests on the core algorithm: whatever corpus the measurement
//! layer produces, graph construction and refinement must uphold their
//! structural invariants.

use alias::AliasSets;
use as_rel::{AsRelationships, CustomerCones};
use bdrmapit_core::{Bdrmapit, Config, IrGraph};
use bgp::IpToAs;
use net_types::{Asn, Prefix};
use proptest::prelude::*;
use std::collections::BTreeSet;
use traceroute::{Corpus, Hop, ReplyType, StopReason, Trace};

/// Oracle: 10.N.0.0/16 → AS N for N in 1..=6; everything else unannounced.
fn oracle() -> IpToAs {
    IpToAs::from_pairs(
        (1..=6u32).map(|n| (format!("10.{n}.0.0/16").parse::<Prefix>().unwrap(), Asn(n))),
    )
}

fn rels() -> AsRelationships {
    let mut r = AsRelationships::new();
    r.add_p2p(Asn(1), Asn(2));
    r.add_p2c(Asn(1), Asn(3));
    r.add_p2c(Asn(2), Asn(4));
    r.add_p2c(Asn(3), Asn(5));
    r.add_p2c(Asn(4), Asn(6));
    r
}

/// Strategy: an address inside one of the six announced /16s (or, rarely,
/// unannounced space).
fn addr_strategy() -> impl Strategy<Value = u32> {
    (1u32..=7, 0u32..200).prop_map(|(net, host)| {
        if net == 7 {
            0xAC10_0000 + host // 172.16/16: unannounced
        } else {
            0x0A00_0000 + (net << 16) + host
        }
    })
}

fn reply_strategy() -> impl Strategy<Value = ReplyType> {
    prop_oneof![
        5 => Just(ReplyType::TimeExceeded),
        1 => Just(ReplyType::EchoReply),
        1 => Just(ReplyType::DestUnreachable),
    ]
}

prop_compose! {
    fn trace_strategy()(
        dst in addr_strategy(),
        hops in proptest::collection::vec(
            proptest::option::weighted(0.8, (addr_strategy(), reply_strategy())),
            1..10
        ),
    ) -> Trace {
        Trace {
            monitor: "vp".into(),
            src: 0x0A01_00FE,
            dst,
            hops: hops
                .into_iter()
                .map(|h| h.map(|(addr, reply)| Hop { addr, reply }))
                .collect(),
            stop: StopReason::GapLimit,
        }
    }
}

fn corpus_strategy() -> impl Strategy<Value = Corpus> {
    proptest::collection::vec(trace_strategy(), 1..40).prop_map(|t| t.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_construction_invariants(traces in corpus_strategy()) {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        let g = IrGraph::build(&traces, &AliasSets::empty(), &oracle(), &Config::default(), &r, &cones);

        // Every responsive address has exactly one interface and one IR.
        let observed: BTreeSet<u32> = traces
            .iter()
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        prop_assert_eq!(g.iface_addrs.len(), observed.len());
        for &addr in &observed {
            let idx = g.iface_of_addr(addr).expect("observed addr indexed");
            prop_assert_eq!(g.iface_addrs[idx.0 as usize], addr);
            let ir = g.iface_ir[idx.0 as usize];
            prop_assert!(g.irs[ir.0 as usize].ifaces.contains(&idx));
        }

        // Links point at observed interfaces, never at the IR itself, and
        // their origin sets only contain origins of the IR's own interfaces.
        for ir in &g.irs {
            for link in &ir.links {
                prop_assert!((link.dst.0 as usize) < g.iface_addrs.len());
                prop_assert!(g.iface_ir[link.dst.0 as usize] != ir.id, "self link");
                let own_origins: BTreeSet<Asn> = ir
                    .ifaces
                    .iter()
                    .map(|&i| g.iface_origin[i.0 as usize].asn)
                    .filter(|a| a.is_some())
                    .collect();
                for o in &g.link_origins[link.row as usize] {
                    prop_assert!(own_origins.contains(o), "foreign origin in L");
                }
            }
        }
    }

    #[test]
    fn refinement_terminates_and_is_deterministic(traces in corpus_strategy()) {
        let runner = Bdrmapit::new(Config::default());
        let a = runner.run(&traces, &AliasSets::empty(), &oracle(), &rels());
        let b = runner.run(&traces, &AliasSets::empty(), &oracle(), &rels());
        prop_assert!(a.state.iterations <= Config::default().max_iterations);
        prop_assert_eq!(a.router_annotations(), b.router_annotations());
        prop_assert_eq!(a.interdomain_links(), b.interdomain_links());
    }

    #[test]
    fn annotations_come_from_known_universe(traces in corpus_strategy()) {
        let result = Bdrmapit::new(Config::default())
            .run(&traces, &AliasSets::empty(), &oracle(), &rels());
        // Any annotation must name an AS that exists in the oracle or the
        // relationship graph — the algorithm can never invent an AS.
        let universe: BTreeSet<Asn> = (1..=6).map(Asn).collect();
        for (_, asn) in result.router_annotations() {
            if asn.is_some() {
                prop_assert!(universe.contains(&asn), "invented {asn}");
            }
        }
        for link in result.interdomain_links() {
            prop_assert!(universe.contains(&link.ir_as));
            prop_assert!(universe.contains(&link.conn_as));
            prop_assert!(link.ir_as != link.conn_as);
        }
    }

    #[test]
    fn alias_grouping_never_splits(traces in corpus_strategy(), group_seed in 0u64..1000) {
        // Group two random observed addresses: the graph must put them on
        // one IR and produce no more IRs than the no-alias graph.
        let observed: Vec<u32> = traces
            .iter()
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assume!(observed.len() >= 2);
        let a = observed[group_seed as usize % observed.len()];
        let b = observed[(group_seed as usize + 1) % observed.len()];
        prop_assume!(a != b);
        let aliases = AliasSets::from_groups([BTreeSet::from([a, b])]);
        let r = rels();
        let cones = CustomerCones::compute(&r);
        let with = IrGraph::build(&traces, &aliases, &oracle(), &Config::default(), &r, &cones);
        let without = IrGraph::build(&traces, &AliasSets::empty(), &oracle(), &Config::default(), &r, &cones);
        prop_assert_eq!(with.ir_of_addr(a), with.ir_of_addr(b));
        prop_assert_eq!(with.irs.len() + 1, without.irs.len());
    }
}
