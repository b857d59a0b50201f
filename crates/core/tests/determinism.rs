//! Thread-count invariance: the pipeline must produce bit-identical
//! annotations, convergence traces and deterministic telemetry for every
//! thread count (the contract stated on [`Config::threads`]). The threads
//! only drive the phase-1 graph build; refinement sweeps serially, shard by
//! shard. These tests check the contract over arbitrary generated corpora,
//! alongside the shard-plan invariants the per-shard convergence rests on.

use alias::AliasSets;
use as_rel::{AsRelationships, CustomerCones};
use bdrmapit_core::{Bdrmapit, Config, IrGraph};
use bgp::IpToAs;
use net_types::{Asn, Prefix};
use proptest::prelude::*;
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline guarantee: `threads` never changes a single annotation —
    /// nor, with telemetry enabled, a single deterministic counter or
    /// histogram. Thread counts 2 and 8 run the graph build with fewer and
    /// more workers than most corpora have task chunks; each count also
    /// runs with event tracing enabled, which must be just as write-only as
    /// the metric sheets.
    #[test]
    fn thread_count_never_changes_results(traces in corpus_strategy()) {
        let run = |threads: usize, tracing: bool| {
            let cfg = Config { threads, ..Config::default() };
            let rec = if tracing {
                // A small ring so large corpora also exercise wraparound.
                obs::Recorder::with_tracing(false, 4096)
            } else {
                obs::Recorder::new(false)
            };
            let annotated = Bdrmapit::new(cfg)
                .with_obs(rec.clone())
                .run(&traces, &AliasSets::empty(), &oracle(), &rels());
            (annotated, rec.report())
        };
        let (serial, serial_report) = run(1, false);
        for (threads, tracing) in [(1usize, true), (2, false), (2, true), (8, false), (8, true)] {
            let (parallel, parallel_report) = run(threads, tracing);
            // Telemetry determinism: the counter/histogram slice of the run
            // report is thread-count-invariant (wall times and exec metrics
            // are excluded by deterministic_view, per DESIGN.md §10).
            prop_assert_eq!(
                serial_report.deterministic_view(),
                parallel_report.deterministic_view(),
                "deterministic metrics diverged at threads={}",
                threads
            );
            prop_assert_eq!(
                serial.router_annotations(),
                parallel.router_annotations(),
                "router annotations diverged at threads={}",
                threads
            );
            prop_assert_eq!(
                serial.interdomain_links(),
                parallel.interdomain_links(),
                "interdomain links diverged at threads={}",
                threads
            );
            prop_assert_eq!(
                &serial.state.iface,
                &parallel.state.iface,
                "interface annotations diverged at threads={}",
                threads
            );
            prop_assert_eq!(serial.state.iterations, parallel.state.iterations);
            // Stronger than fixpoint equality: the per-shard convergence
            // hash traces must match step for step, so an ordering bug that
            // happens to converge to the same answer still fails here.
            prop_assert_eq!(
                &serial.state.convergence_traces,
                &parallel.state.convergence_traces,
                "convergence traces diverged at threads={}",
                threads
            );
            prop_assert!(
                !serial.state.convergence_traces.is_empty()
                    || serial.graph.shards.shards.is_empty(),
                "traces missing despite a non-empty shard plan"
            );
        }
        // Telemetry is write-only: running with the recorder disabled gives
        // the same annotations and convergence traces as with it enabled.
        let bare = Bdrmapit::new(Config { threads: 1, ..Config::default() })
            .run(&traces, &AliasSets::empty(), &oracle(), &rels());
        prop_assert_eq!(
            serial.router_annotations(),
            bare.router_annotations(),
            "enabling telemetry changed the annotations"
        );
        prop_assert_eq!(
            &serial.state.convergence_traces,
            &bare.state.convergence_traces,
            "enabling telemetry changed the convergence traces"
        );
    }

    /// Phase 1 in isolation: the interned two-pass build (DESIGN.md §12) is
    /// structurally identical to serial for every thread count — every
    /// field of the graph, not just the annotations derived from it. Alias
    /// groups are synthesized from the corpus so grouped-IR numbering is
    /// exercised, not just singletons.
    #[test]
    fn graph_build_is_thread_count_invariant(traces in corpus_strategy()) {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        let mut observed: Vec<u32> = traces
            .iter()
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        observed.sort_unstable();
        observed.dedup();
        let aliases = AliasSets::from_groups(
            observed
                .chunks(2)
                .map(|pair| pair.iter().copied().collect::<std::collections::BTreeSet<u32>>()),
        );
        let build = |threads: usize| {
            let cfg = Config { threads, ..Config::default() };
            IrGraph::build(&traces, &aliases, &oracle(), &cfg, &r, &cones)
        };
        let serial = build(1);
        for threads in [2usize, 8] {
            let parallel = build(threads);
            prop_assert_eq!(&serial.interner, &parallel.interner, "threads={}", threads);
            prop_assert_eq!(&serial.iface_addrs, &parallel.iface_addrs, "threads={}", threads);
            prop_assert_eq!(&serial.iface_origin, &parallel.iface_origin, "threads={}", threads);
            prop_assert_eq!(&serial.iface_ir, &parallel.iface_ir, "threads={}", threads);
            prop_assert_eq!(&serial.ir_origins, &parallel.ir_origins, "threads={}", threads);
            prop_assert_eq!(&serial.ir_dests, &parallel.ir_dests, "threads={}", threads);
            prop_assert_eq!(&serial.link_origins, &parallel.link_origins, "threads={}", threads);
            prop_assert_eq!(&serial.iface_dests, &parallel.iface_dests, "threads={}", threads);
            prop_assert_eq!(&serial.preds, &parallel.preds, "threads={}", threads);
            prop_assert_eq!(
                serde_json::to_string(&serial.irs).unwrap(),
                serde_json::to_string(&parallel.irs).unwrap(),
                "IRs diverged at threads={}",
                threads
            );
        }
    }

    /// The shard plan per-shard convergence rests on: every IR lands in
    /// exactly one shard, every interface follows its IR, and each shard's
    /// mid-path set is exactly its members with outgoing links.
    #[test]
    fn shard_plan_partitions_every_built_graph(traces in corpus_strategy()) {
        let r = rels();
        let cones = CustomerCones::compute(&r);
        let g = IrGraph::build(&traces, &AliasSets::empty(), &oracle(), &Config::default(), &r, &cones);
        let plan = &g.shards;

        let mut ir_seen = vec![0u32; g.irs.len()];
        let mut iface_seen = vec![0u32; g.iface_addrs.len()];
        for (sid, shard) in plan.shards.iter().enumerate() {
            for &ir in &shard.irs {
                ir_seen[ir as usize] += 1;
                prop_assert_eq!(plan.ir_shard[ir as usize], sid as u32);
            }
            for &j in &shard.ifaces {
                iface_seen[j as usize] += 1;
                prop_assert_eq!(
                    plan.ir_shard[g.iface_ir[j as usize].0 as usize],
                    sid as u32,
                    "interface in a different shard than its IR"
                );
            }
            let linked: Vec<u32> = shard
                .irs
                .iter()
                .copied()
                .filter(|&i| !g.irs[i as usize].links.is_empty())
                .collect();
            prop_assert_eq!(&linked, &shard.mid_path, "mid_path is the linked members");
            // Every link stays inside the shard (the independence property).
            for &i in &shard.irs {
                for link in &g.irs[i as usize].links {
                    let jr = g.iface_ir[link.dst.0 as usize].0;
                    prop_assert_eq!(plan.ir_shard[jr as usize], sid as u32, "link escapes shard");
                }
            }
        }
        prop_assert!(ir_seen.iter().all(|&c| c == 1), "IR not in exactly one shard");
        prop_assert!(iface_seen.iter().all(|&c| c == 1), "iface not in exactly one shard");
    }
}
