//! End-to-end: run bdrmapIT on a synthetic Internet and validate router
//! annotations against generator ground truth.

use alias::{observed_addresses, resolve_midar};
use as_rel::infer::{infer_relationships, InferenceConfig};
use bdrmapit_core::{Bdrmapit, Config};
use bgp::IpToAs;
use net_types::Asn;
use topo_gen::{GeneratorConfig, Internet};
use traceroute::sim::{probe_campaign_in_pool, select_vps, ProbeConfig};

fn campaign(net: &Internet, vps: &[topo_gen::RouterId], cfg: &ProbeConfig) -> traceroute::Corpus {
    let wp = pool::WorkerPool::new(0);
    probe_campaign_in_pool(net, vps, cfg, &wp, &obs::Recorder::disabled())
}

struct Pipeline {
    net: Internet,
    result: bdrmapit_core::Annotated,
}

fn run_pipeline(seed: u64, vps: usize) -> Pipeline {
    let net = Internet::generate(GeneratorConfig::tiny(seed));
    let probe_cfg = ProbeConfig {
        per_prefix_cap: 3,
        ..ProbeConfig::default()
    };
    let vp_routers = select_vps(&net, vps, &[], seed);
    let traces = campaign(&net, &vp_routers, &probe_cfg);
    assert!(traces.len() > 100, "campaign too small: {}", traces.len());

    let rib = net.build_rib();
    let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
    let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
    let observed = observed_addresses(&traces);
    let aliases = resolve_midar(&net, &observed, 0.9, seed);

    let result = Bdrmapit::new(Config::default()).run(&traces, &aliases, &ip2as, &rels);
    Pipeline { net, result }
}

/// Fraction of observed interfaces whose IR annotation matches the true
/// router owner.
fn router_accuracy(p: &Pipeline) -> (usize, usize) {
    let mut correct = 0;
    let mut total = 0;
    for (addr, asn) in p.result.router_annotations() {
        let Some(iface) = p.net.topology.iface_by_addr(addr) else {
            continue; // destination host addresses are not interfaces
        };
        if asn.is_none() {
            continue;
        }
        total += 1;
        if p.net.topology.owner(iface.router) == asn {
            correct += 1;
        }
    }
    (correct, total)
}

#[test]
fn annotates_most_observed_interfaces() {
    let p = run_pipeline(11, 6);
    let annotated = p
        .result
        .router_annotations()
        .iter()
        .filter(|(_, a)| a.is_some())
        .count();
    let total = p.result.graph.iface_addrs.len();
    assert!(
        annotated * 10 >= total * 9,
        "only {annotated}/{total} interfaces annotated"
    );
}

#[test]
fn router_ownership_accuracy_is_high() {
    let p = run_pipeline(11, 6);
    let (correct, total) = router_accuracy(&p);
    assert!(total > 200, "too few annotated interfaces: {total}");
    let acc = correct as f64 / total as f64;
    assert!(
        acc > 0.85,
        "router annotation accuracy {acc:.3} ({correct}/{total}) below floor"
    );
}

#[test]
fn interdomain_links_are_mostly_real() {
    let p = run_pipeline(13, 6);
    let links = p.result.interdomain_links();
    assert!(!links.is_empty());
    let mut correct = 0;
    let mut total = 0;
    for l in &links {
        // An inferred link (ir_as, conn_as) is correct when the true AS
        // adjacency exists in the generated graph.
        if l.ir_as == l.conn_as {
            continue;
        }
        total += 1;
        if p.net
            .graph
            .relationships
            .has_relationship(l.ir_as, l.conn_as)
        {
            correct += 1;
        }
    }
    assert!(total > 20, "too few interdomain inferences: {total}");
    let precision = correct as f64 / total as f64;
    assert!(
        precision > 0.75,
        "AS-adjacency precision {precision:.3} ({correct}/{total}) below floor"
    );
}

#[test]
fn refinement_terminates_quickly() {
    let p = run_pipeline(17, 5);
    assert!(
        p.result.state.iterations < 50,
        "took {} iterations",
        p.result.state.iterations
    );
    assert!(p.result.state.iterations >= 1);
}

#[test]
fn deterministic_end_to_end() {
    let p1 = run_pipeline(19, 4);
    let p2 = run_pipeline(19, 4);
    assert_eq!(
        p1.result.router_annotations(),
        p2.result.router_annotations()
    );
    assert_eq!(p1.result.interdomain_links(), p2.result.interdomain_links());
}

#[test]
fn last_hop_phase_annotates_firewalled_edges() {
    // With heavy firewalling, traces toward firewalled stubs end at their
    // providers' borders; phase 2 must still attribute those last-hop IRs.
    let net = Internet::generate(GeneratorConfig {
        stub_firewall_prob: 0.6,
        ..GeneratorConfig::tiny(23)
    });
    let probe_cfg = ProbeConfig::default();
    let vp_routers = select_vps(&net, 5, &[], 23);
    let traces = campaign(&net, &vp_routers, &probe_cfg);
    let rib = net.build_rib();
    let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
    let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
    let observed = observed_addresses(&traces);
    let aliases = resolve_midar(&net, &observed, 0.9, 23);

    let with = Bdrmapit::new(Config::default()).run(&traces, &aliases, &ip2as, &rels);
    let without = Bdrmapit::new(Config {
        enable_last_hop: false,
        ..Config::default()
    })
    .run(&traces, &aliases, &ip2as, &rels);

    // The last-hop phase must produce strictly more annotated IRs.
    let count =
        |r: &bdrmapit_core::Annotated| r.state.router.iter().filter(|a| a.is_some()).count();
    assert!(
        count(&with) > count(&without),
        "last-hop phase added no annotations"
    );
    // And links toward firewalled stubs should be discoverable: some
    // inferred link must name a firewalled AS even though its routers never
    // answered a probe.
    let firewalled_named = with
        .interdomain_links()
        .iter()
        .any(|l| net.is_firewalled(l.ir_as) || net.is_firewalled(l.conn_as));
    assert!(
        firewalled_named,
        "no inferred link names a firewalled (silent) AS"
    );
}

#[test]
fn works_without_alias_resolution() {
    // §7.4: bdrmapIT runs fine on a pure interface graph.
    let net = Internet::generate(GeneratorConfig::tiny(29));
    let probe_cfg = ProbeConfig::default();
    let vp_routers = select_vps(&net, 5, &[], 29);
    let traces = campaign(&net, &vp_routers, &probe_cfg);
    let rib = net.build_rib();
    let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
    let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());

    let result =
        Bdrmapit::new(Config::default()).run(&traces, &alias::AliasSets::empty(), &ip2as, &rels);
    // Every IR is a singleton.
    for ir in &result.graph.irs {
        assert_eq!(ir.ifaces.len(), 1);
    }
    let mut correct = 0;
    let mut total = 0;
    for (addr, asn) in result.router_annotations() {
        let Some(iface) = net.topology.iface_by_addr(addr) else {
            continue;
        };
        if asn.is_none() {
            continue;
        }
        total += 1;
        if net.topology.owner(iface.router) == asn {
            correct += 1;
        }
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.8, "no-alias accuracy {acc:.3} below floor");
}

#[test]
fn ixp_addresses_never_annotated_with_ixp_origin() {
    let p = run_pipeline(31, 5);
    for (i, addr) in p.result.graph.iface_addrs.iter().enumerate() {
        let origin = p.result.graph.iface_origin[i];
        if origin.kind == bgp::OriginKind::Ixp {
            // The IR holding an IXP port must still get a member-AS
            // annotation, never AS0.
            let ir = p.result.graph.iface_ir[i];
            let ann = p.result.state.router[ir.0 as usize];
            let _ = addr;
            if ann.is_some() {
                assert_ne!(ann, Asn::NONE);
            }
        }
    }
}
