//! The paper's worked examples, reconstructed hop for hop.
//!
//! Each test builds the exact micro-topology of one illustrative figure and
//! checks that the algorithm reproduces the annotation the paper derives —
//! and, where the paper contrasts with naive behaviour, that disabling the
//! responsible heuristic reproduces the naive (wrong) answer.

use alias::AliasSets;
use as_rel::AsRelationships;
use bdrmapit_core::{Annotated, Bdrmapit, Config};
use bgp::IpToAs;
use net_types::{Asn, Prefix};
use std::collections::BTreeSet;
use traceroute::{Corpus, Hop, ReplyType, StopReason, Trace};

fn a(s: &str) -> u32 {
    net_types::parse_ipv4(s).unwrap()
}

/// `10.N.0.0/16` originated by `AS N` for N = 1..=9.
fn oracle() -> IpToAs {
    IpToAs::from_pairs(
        (1..=9).map(|n| (format!("10.{n}.0.0/16").parse::<Prefix>().unwrap(), Asn(n))),
    )
}

fn tr(dst: &str, hops: &[&str]) -> Trace {
    Trace {
        monitor: "vp".into(),
        src: a("10.1.0.250"),
        dst: a(dst),
        hops: hops
            .iter()
            .map(|&h| {
                Some(Hop {
                    addr: a(h),
                    reply: ReplyType::TimeExceeded,
                })
            })
            .collect(),
        stop: StopReason::GapLimit,
    }
}

fn run(traces: &[Trace], aliases: &AliasSets, rels: &AsRelationships, cfg: Config) -> Annotated {
    let corpus: Corpus = traces.iter().cloned().collect();
    Bdrmapit::new(cfg).run(&corpus, aliases, &oracle(), rels)
}

fn owner(result: &Annotated, addr: &str) -> Option<Asn> {
    result.owner_of_addr(a(addr))
}

/// Fig. 6/7 (§5): a trace dies at a router whose interface came from AS2's
/// space, probing destinations in AS3; AS3 has a relationship with AS2, so
/// the last-hop router belongs to AS3.
#[test]
fn fig7_last_hop_destination_inference() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(2), Asn(3));
    let traces = [
        tr("10.3.0.99", &["10.1.0.1", "10.2.0.1", "10.2.0.9"]),
        tr("10.3.0.98", &["10.1.0.1", "10.2.0.1", "10.2.0.9"]),
    ];
    let result = run(&traces, &AliasSets::empty(), &rels, Config::default());
    // 10.2.0.9 is the silent edge's border router: AS3.
    assert_eq!(owner(&result, "10.2.0.9"), Some(Asn(3)));
    // And the (AS2, AS3) boundary is an inferred link.
    let pairs: BTreeSet<(Asn, Asn)> = result
        .interdomain_links()
        .iter()
        .map(|l| (l.ir_as.min(l.conn_as), l.ir_as.max(l.conn_as)))
        .collect();
    assert!(pairs.contains(&(Asn(2), Asn(3))), "pairs: {pairs:?}");
    // Without the last-hop phase the router stays unannotated.
    let no_lh = run(
        &traces,
        &AliasSets::empty(),
        &rels,
        Config {
            enable_last_hop: false,
            ..Config::default()
        },
    );
    assert_eq!(owner(&no_lh, "10.2.0.9"), None);
}

/// Fig. 8 (§6.1.1): a chain of routers numbered from unannounced space is
/// annotated hop by hop across refinement iterations, starting from a
/// last-hop inference at the far end.
#[test]
fn fig8_unannounced_chains_resolve_iteratively() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(9));
    let traces = [tr(
        "10.9.0.77",
        &["10.1.0.1", "172.16.0.1", "172.16.0.3", "172.16.0.5"],
    )];
    let result = run(&traces, &AliasSets::empty(), &rels, Config::default());
    // The far end got AS9 from the destination heuristic...
    assert_eq!(owner(&result, "172.16.0.5"), Some(Asn(9)));
    // ...and the annotation propagated up the unannounced chain.
    assert_eq!(owner(&result, "172.16.0.3"), Some(Asn(9)));
    assert_eq!(owner(&result, "172.16.0.1"), Some(Asn(9)));
    // The AS1 router before the chain: the tie between its own origin and
    // the chain annotation breaks toward the customer (Fig. 8 annotates it
    // with ASX as well).
    assert_eq!(owner(&result, "10.1.0.1"), Some(Asn(9)));
    assert!(result.state.iterations >= 2, "needs several iterations");
}

/// Fig. 10 (§6.1.2): a customer border router whose subsequent interfaces
/// live in a /24 reallocated from the provider votes for the provider until
/// the reallocation correction flips the votes to the customer.
#[test]
fn fig10_reallocated_prefix_correction() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(2));
    // 10.1.77.0/24 is reallocated from AS1 to AS2: AS2's internal routers
    // carry 10.1.77.1 / 10.1.77.5 and forward into AS2's own block.
    let traces = [
        tr(
            "10.2.0.99",
            &["10.1.0.1", "10.1.0.9", "10.1.77.1", "10.2.0.1"],
        ),
        tr(
            "10.2.0.98",
            &["10.1.0.1", "10.1.0.9", "10.1.77.5", "10.2.0.3"],
        ),
    ];
    let result = run(&traces, &AliasSets::empty(), &rels, Config::default());
    // The realloc-space routers belong to the customer...
    assert_eq!(owner(&result, "10.1.77.1"), Some(Asn(2)));
    assert_eq!(owner(&result, "10.1.77.5"), Some(Asn(2)));
    // ...and so does the border router they hang off (the Fig. 10 claim).
    assert_eq!(owner(&result, "10.1.0.9"), Some(Asn(2)));
    // The provider's own router is untouched (a single link is never
    // enough evidence for the correction).
    assert_eq!(owner(&result, "10.1.0.1"), Some(Asn(1)));
    // Disabling the correction reverts the border router to the provider.
    let no_realloc = run(
        &traces,
        &AliasSets::empty(),
        &rels,
        Config {
            enable_realloc: false,
            ..Config::default()
        },
    );
    assert_eq!(owner(&no_realloc, "10.1.0.9"), Some(Asn(1)));
}

/// Fig. 11 (§6.1.3): a customer router multihomed to one provider carries
/// more provider-space interfaces than customer links; pure voting gets it
/// wrong, the multihomed exception gets it right.
#[test]
fn fig11_multihomed_customer_exception() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(3));
    let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.2"), a("10.1.0.6")])]);
    let traces = [
        tr("10.3.0.99", &["10.1.0.1", "10.1.0.2", "10.3.0.1"]),
        tr("10.3.0.98", &["10.1.0.1", "10.1.0.6", "10.3.0.1"]),
    ];
    let result = run(&traces, &aliases, &rels, Config::default());
    // The two provider-space interfaces sit on the CUSTOMER's border router.
    assert_eq!(owner(&result, "10.1.0.2"), Some(Asn(3)));
    assert_eq!(owner(&result, "10.1.0.6"), Some(Asn(3)));
    // Pure voting (exception disabled) picks the provider.
    let no_exc = run(
        &traces,
        &aliases,
        &rels,
        Config {
            enable_exceptions: false,
            ..Config::default()
        },
    );
    assert_eq!(owner(&no_exc, "10.1.0.2"), Some(Asn(1)));
}

/// Fig. 12 (§6.1.5): a small transit AS whose links use only its neighbor's
/// address space never shows its own addresses; the hidden-AS check finds
/// the bridge between the origin side and the elected side.
#[test]
fn fig12_hidden_as() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(2)); // hidden AS2: customer of AS1...
    rels.add_p2c(Asn(2), Asn(3)); // ...provider of AS3; AS1–AS3 unrelated
    let traces = [
        tr("10.3.0.99", &["10.1.0.1", "10.1.0.3", "10.3.0.1"]),
        tr("10.3.0.98", &["10.1.0.1", "10.1.0.3", "10.3.0.5"]),
    ];
    let result = run(&traces, &AliasSets::empty(), &rels, Config::default());
    // 10.1.0.3 is on the hidden AS2's router: no AS2 address ever appears,
    // yet the bridge inference names it.
    assert_eq!(owner(&result, "10.1.0.3"), Some(Asn(2)));
    // Without the check the router is misattributed to AS3.
    let no_hidden = run(
        &traces,
        &AliasSets::empty(),
        &rels,
        Config {
            enable_hidden_as: false,
            ..Config::default()
        },
    );
    assert_eq!(owner(&no_hidden, "10.1.0.3"), Some(Asn(3)));
}

/// Fig. 14 (§6.3): an initially wrong router annotation is corrected in the
/// second iteration after interface annotation aggregates evidence from a
/// better-connected neighbor.
#[test]
fn fig14_refinement_corrects_across_iterations() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(2));
    let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.5"), a("10.1.0.9")])]);
    let traces = [
        // IR1 (10.1.0.1) sees only the link to b = 10.2.0.2.
        tr("10.2.0.99", &["10.1.0.1", "10.2.0.2"]),
        // IR3 (two aliased interfaces) also reaches b...
        tr("10.2.0.98", &["10.1.0.5", "10.2.0.2"]),
        tr("10.2.0.97", &["10.1.0.9", "10.2.0.2"]),
        // ...and has an AS1-internal link pinning it to AS1.
        tr("10.1.0.99", &["10.1.0.5", "10.1.0.13"]),
    ];
    let result = run(&traces, &aliases, &rels, Config::default());
    // b's router is AS2's (phase 2, destination AS2).
    assert_eq!(owner(&result, "10.2.0.2"), Some(Asn(2)));
    // IR3 stays AS1.
    assert_eq!(owner(&result, "10.1.0.5"), Some(Asn(1)));
    // IR1 would be mis-annotated AS2 in the first sweep (its only link
    // points at AS2's router and AS2 is AS1's customer); the interface
    // re-annotation of b flips it back to AS1 on the next iteration.
    assert_eq!(owner(&result, "10.1.0.1"), Some(Asn(1)));
    assert!(
        result.state.iterations >= 2,
        "correction requires a second iteration, got {}",
        result.state.iterations
    );
}

/// Fig. 9 / §6.1.1 third-party addresses: off-path replies from a third
/// AS's space must not pull the preceding router toward the third party —
/// the vote goes to the responding router's inferred operator instead.
#[test]
fn fig9_third_party_address_suppressed() {
    let mut rels = AsRelationships::new();
    rels.add_p2c(Asn(1), Asn(2));
    rels.add_p2c(Asn(4), Asn(3)); // AS3: the third party, unrelated to AS1/AS2
                                  // Both "next hops" of AS1's router reply with AS3-space addresses; the
                                  // responding routers are really AS2's (pinned by alias mates with AS2
                                  // addresses and onward AS2 links). Probes target AS2, never AS3.
    let aliases = AliasSets::from_groups([
        BTreeSet::from([a("10.3.0.1"), a("10.2.0.5")]),
        BTreeSet::from([a("10.3.0.5"), a("10.2.0.6")]),
    ]);
    let traces = [
        tr("10.2.0.99", &["10.1.0.1", "10.3.0.1", "10.2.0.9"]),
        tr("10.2.0.98", &["10.1.0.1", "10.3.0.5", "10.2.0.13"]),
        tr("10.2.0.97", &["10.1.0.2", "10.2.0.5", "10.2.0.9"]),
        tr("10.2.0.96", &["10.1.0.2", "10.2.0.6", "10.2.0.13"]),
    ];
    let result = run(&traces, &aliases, &rels, Config::default());
    // The routers holding the third-party addresses are AS2's.
    assert_eq!(owner(&result, "10.3.0.1"), Some(Asn(2)));
    assert_eq!(owner(&result, "10.3.0.5"), Some(Asn(2)));
    // With the heuristic, AS1's router is attributed within the AS1–AS2
    // boundary (never to the uninvolved AS3)...
    let with_tp = owner(&result, "10.1.0.1");
    assert_ne!(with_tp, Some(Asn(3)), "third party leaked into the vote");
    // ...while disabling it lets the third-party origin win the election.
    let no_tp = run(
        &traces,
        &aliases,
        &rels,
        Config {
            enable_third_party: false,
            ..Config::default()
        },
    );
    assert_eq!(owner(&no_tp, "10.1.0.1"), Some(Asn(3)));
}
