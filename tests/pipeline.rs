//! Cross-crate integration: artifacts written by one subsystem must load
//! and produce identical results in the next.

use bdrmapit::alias::AliasSets;
use bdrmapit::as_rel::AsRelationships;
use bdrmapit::bgp::rir::DelegationTable;
use bdrmapit::bgp::IpToAs;
use bdrmapit::core::{Bdrmapit, Config};
use bdrmapit::eval::Scenario;
use bdrmapit::topo_gen::GeneratorConfig;
use bdrmapit::traceroute::io::{read_jsonl, write_jsonl};

/// Manual longest-prefix match over the origin table: the independent
/// oracle the snapshot trie is checked against.
fn lpm(
    table: &[(bdrmapit::net_types::Prefix, bdrmapit::net_types::Asn)],
    addr: u32,
) -> Option<(bdrmapit::net_types::Prefix, bdrmapit::net_types::Asn)> {
    table
        .iter()
        .filter(|(p, _)| {
            let shift = 32 - u32::from(p.len());
            p.is_empty() || (addr >> shift) == (p.addr() >> shift)
        })
        .max_by_key(|(p, _)| p.len())
        .copied()
}

/// End-to-end acceptance for the serving path: run the pipeline, write the
/// CSV artifacts AND the binary snapshot from the same result, serve the
/// snapshot over loopback, and check that every query answer is identical
/// to what grepping the CSVs would return.
#[test]
fn snapshot_service_answers_match_csv_outputs() {
    use bdrmapit::core::output;
    use bdrmapit::serve::{Client, Request, Server, ServerConfig};
    use bdrmapit::snapshot::{Snapshot, SnapshotData};
    use std::sync::Arc;

    let s = Scenario::build(GeneratorConfig::tiny(601));
    let bundle = s.campaign(5, true, 601);
    let result =
        Bdrmapit::new(Config::default()).run(&bundle.traces, &bundle.aliases, &s.ip2as, &s.rels);

    // The flat-file artifacts, written and read back through core::output.
    let mut ann_csv = Vec::new();
    output::write_annotations(&mut ann_csv, &result).expect("write annotations");
    let ann_rows = output::read_annotations(&ann_csv[..]).expect("read annotations");
    let mut link_csv = Vec::new();
    output::write_links(&mut link_csv, &result.interdomain_links()).expect("write links");
    let link_rows = output::read_links(&link_csv[..]).expect("read links");
    assert!(
        !ann_rows.is_empty(),
        "tiny scenario produced no annotations"
    );

    // The same result frozen to a snapshot and served.
    let table = s.rib.origin_table();
    let data = SnapshotData::from_annotated(&result, &table);
    let bytes = bdrmapit::snapshot::to_bytes(&data);
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot loads");
    let running = Server::bind(
        "127.0.0.1:0",
        Arc::new(snap),
        ServerConfig::default(),
        bdrmapit::obs::Recorder::disabled(),
    )
    .expect("bind loopback")
    .spawn_background();
    let mut client = Client::connect(running.addr()).expect("connect");

    // stats mirrors the artifact row counts.
    let stats = client.call(&Request::verb("stats")).expect("stats");
    let st = stats.stats.expect("stats payload");
    assert_eq!(st.annotations as usize, ann_rows.len());
    assert_eq!(st.links as usize, link_rows.len());

    // Every annotation row answers identically over the wire.
    for row in &ann_rows {
        let mut req = Request::verb("lookup_addr");
        req.addr = Some(bdrmapit::net_types::format_ipv4(row.addr));
        let resp = client.call(&req).expect("lookup_addr");
        assert_eq!(
            resp.found,
            Some(true),
            "{}",
            bdrmapit::net_types::format_ipv4(row.addr)
        );
        assert_eq!(resp.ir, Some(row.ir));
        assert_eq!(resp.asn, Some(row.asn.0));
        assert_eq!(resp.origin, Some(row.origin.0));
        assert_eq!(resp.conn, Some(row.conn.0));
    }

    // links_of_as returns exactly the CSV's rows touching that operator
    // (the server matches an AS on either side of the link).
    let mut operators: Vec<u32> = link_rows.iter().map(|l| l.ir_as.0).collect();
    operators.sort_unstable();
    operators.dedup();
    for asn in operators {
        let mut req = Request::verb("links_of_as");
        req.asn = Some(asn);
        let resp = client.call(&req).expect("links_of_as");
        let mut served: Vec<(u32, String, u32, bool)> = resp
            .links
            .expect("links payload")
            .into_iter()
            .map(|l| (l.ir_as, l.iface_addr, l.conn_as, l.last_hop))
            .collect();
        served.sort();
        let mut expected: Vec<(u32, String, u32, bool)> = link_rows
            .iter()
            .filter(|l| l.ir_as.0 == asn || l.conn_as.0 == asn)
            .map(|l| {
                (
                    l.ir_as.0,
                    bdrmapit::net_types::format_ipv4(l.iface_addr),
                    l.conn_as.0,
                    l.last_hop,
                )
            })
            .collect();
        expected.sort();
        assert_eq!(served, expected, "links_of_as {asn}");
    }

    // lookup_prefix agrees with an independent longest-prefix match.
    for row in ann_rows.iter().take(64) {
        let mut req = Request::verb("lookup_prefix");
        req.addr = Some(bdrmapit::net_types::format_ipv4(row.addr));
        let resp = client.call(&req).expect("lookup_prefix");
        match lpm(&table, row.addr) {
            Some((p, asn)) => {
                assert_eq!(resp.found, Some(true));
                assert_eq!(resp.prefix.as_deref(), Some(p.to_string().as_str()));
                assert_eq!(resp.origin, Some(asn.0));
            }
            None => assert_eq!(resp.found, Some(false)),
        }
    }

    running.shutdown();
}

#[test]
fn traces_survive_disk_roundtrip_with_identical_inference() {
    let s = Scenario::build(GeneratorConfig::tiny(501));
    let bundle = s.campaign(5, true, 1);

    // Serialize the corpus to JSONL and back.
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &bundle.traces).expect("write");
    let reloaded = read_jsonl(&buf[..]).expect("read");
    assert_eq!(reloaded, bundle.traces);

    // Aliases through the ITDK nodes-file format.
    let nodes_text = bundle.aliases.to_nodes_file();
    let aliases2 = AliasSets::from_nodes_file(&nodes_text).expect("nodes file");
    assert_eq!(aliases2, bundle.aliases);

    // Relationships through serial-1.
    let serial = s.rels.to_serial1();
    let rels2 = AsRelationships::from_serial1(&serial).expect("serial-1");
    assert_eq!(rels2.len(), s.rels.len());

    // Identical inference from the reloaded artifacts.
    let runner = Bdrmapit::new(Config::default());
    let a = runner.run(&bundle.traces, &bundle.aliases, &s.ip2as, &s.rels);
    let b = runner.run(&reloaded, &aliases2, &s.ip2as, &rels2);
    assert_eq!(a.router_annotations(), b.router_annotations());
    assert_eq!(a.interdomain_links(), b.interdomain_links());
}

#[test]
fn rir_extended_format_roundtrip_preserves_oracle() {
    let s = Scenario::build(GeneratorConfig::tiny(503));
    let text = s.net.addressing.delegations.to_extended_format();
    let back = DelegationTable::parse_extended_format(&text).expect("parse");
    let oracle1 = IpToAs::build(
        &s.rib,
        &s.net.addressing.delegations,
        &s.net.addressing.ixps,
    );
    let oracle2 = IpToAs::build(&s.rib, &back, &s.net.addressing.ixps);
    assert_eq!(oracle1.rir_prefix_count(), oracle2.rir_prefix_count());
    // Spot-check lookups over all observed infrastructure.
    for iface in s.net.topology.ifaces.iter().take(500) {
        assert_eq!(oracle1.lookup(iface.addr), oracle2.lookup(iface.addr));
    }
}

#[test]
fn facade_reexports_compose() {
    // The facade's modules must interoperate without path friction.
    let net = bdrmapit::topo_gen::Internet::generate(GeneratorConfig::tiny(1));
    let rib = net.build_rib();
    assert!(rib.prefix_count() > 0);
    let origin = rib.origin(net.addressing.blocks[&bdrmapit::net_types::Asn(100)]);
    assert_eq!(origin, Some(bdrmapit::net_types::Asn(100)));
}

#[test]
fn scenario_is_reproducible_across_processes() {
    // Same config → byte-identical campaign and inference. (Run twice in
    // one process; determinism across processes follows from no ambient
    // entropy — no Instant/thread-id/randomness outside seeded RNGs.)
    let run = || {
        let s = Scenario::build(GeneratorConfig::tiny(777));
        let bundle = s.campaign(4, true, 9);
        let result = Bdrmapit::new(Config::default()).run(
            &bundle.traces,
            &bundle.aliases,
            &s.ip2as,
            &s.rels,
        );
        (
            bundle.traces.len(),
            result.interdomain_links(),
            result.state.iterations,
        )
    };
    assert_eq!(run(), run());
}
